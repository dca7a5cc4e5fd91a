// Text grammar and stdin loop shared by every serving front end.
//
// The stdin loop of `pegasus serve` (single summary or shard fleet), the
// `--queries` batch mode, and the socket server (src/serve/server.h) all
// speak the same line-oriented query grammar — "<kind> <node> [param]" for
// node-level kinds, "<kind> [param]" for whole-graph kinds, '#' comments,
// params in [0, 1). This header is the single definition of that
// grammar's parser, of the answer formatting, and of the one stdin loop
// (ServeTextLoop, over a serve::Frontend), so a batch answered over stdin
// prints exactly the body a socket batch frame gets back.
//
// Ranking order. Every ranked line lists ids in one total order
// (src/util/ranking.h): score descending, then id ascending; for hop,
// distance ascending with unreachable ids strictly last, then id
// ascending. Ties are everywhere (members of one supernode share a
// score, hop distances tie by nature), so the order among them — and,
// at a tie across the K-th place, which ids print at all — is fixed by
// the id rather than by the standard library's sort.
//
// Cached answers. Whole-graph families (degree, pagerank, clustering)
// are computed once per epoch into the service's global-result cache,
// together with their full ranking. The socket path
// (QueryService::AnswerText) formats those answers straight from the
// shared scores and a prefix of the shared ranking: nothing n-sized is
// copied or ranked per request. FormatAnswer over a QueryResult ranks
// with a bounded top-K pass and prints the same bytes.

#ifndef PEGASUS_SERVE_TEXT_SERVING_H_
#define PEGASUS_SERVE_TEXT_SERVING_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/query/query_engine.h"
#include "src/serve/frontend.h"
#include "src/serve/query_service.h"
#include "src/util/status.h"

namespace pegasus::serve {

// Parses one query line — "<kind> [node] [param]" — into *request.
// Structural errors (unknown kind, missing node token) are reported here
// with the valid-kind list; semantic validation (ranges, NaN) is
// CanonicalizeRequest, surfaced by the caller.
[[nodiscard]]
Status ParseQueryLine(const std::string& line, QueryRequest* request);

// Parses a whole batch: one query per line, blank lines and '#' comments
// skipped, every line canonicalized against a view of `num_nodes` nodes.
// The first bad line fails the batch with "line <n>: " context (1-based,
// counting every line including skipped ones).
[[nodiscard]]
StatusOr<std::vector<QueryRequest>> ParseBatchText(const std::string& text,
                                                   NodeId num_nodes);

// One answer line (terminated by '\n'): the top-K nodes in ranking order
// with their scores for scored families, with their hop counts for hop,
// and the first K ids for neighbors. Identical to what `pegasus serve`
// prints.
std::string FormatAnswer(const QueryRequest& request,
                         const QueryResult& result, size_t top);

// The FormatAnswer line of a whole-graph request served from the
// global-result cache, formatted from the shared scores and the first K
// ids of their memoized ranking.
std::string FormatCachedAnswer(const QueryRequest& request,
                               const CachedScores& cached, size_t top);

// The socket batch-response body: one FormatAnswer line per request in
// request order, then "epoch <E>\n". Deterministic — no timing line — so
// clients can assert byte-identity across connections and worker counts.
std::string FormatBatchResponse(const std::vector<QueryRequest>& requests,
                                const QueryService::BatchResult& batch,
                                size_t top);

// The same body from lines already formatted in request order.
std::string JoinBatchResponse(const std::vector<std::string>& lines,
                              uint64_t epoch);

// Writes frontend.AnswerText(requests, top) to `out` and "answered <N>
// queries in <X>s (<Y> qps)" to `err`; the frontend's error otherwise.
[[nodiscard]] Status AnswerBatchText(Frontend& frontend,
                                     const std::vector<QueryRequest>& requests,
                                     size_t top, std::ostream& out,
                                     std::ostream& err);

// The stdin loop of `pegasus serve`, for a node and for a fleet alike,
// until EOF. A query line, validated against frontend.NodeCount(), joins
// the pending batch; a blank line or EOF answers it (AnswerBatchText);
// `publish <path>`, `epoch` and `stats` answer it and then write the
// frontend's reply; '#' lines are comments. Every rejection goes to `err`
// as "error: stdin:<n>: <message>" and the loop keeps serving; a
// malformed directive leaves the pending batch untouched. `out` is
// flushed after every reply, since a co-process on a pipe waits for it.
void ServeTextLoop(Frontend& frontend, size_t top, std::istream& in,
                   std::ostream& out, std::ostream& err);

}  // namespace pegasus::serve

#endif  // PEGASUS_SERVE_TEXT_SERVING_H_
