// Request/response model for summary query serving.
//
// A QueryRequest names one query — a family, the query node for
// node-level families, and optional parameters. The resident serving
// layer is QueryService (src/serve/query_service.h), which owns the
// thread pool, the epoch-swapped SummaryView, and the global-result
// cache, and answers batches; AnswerQuery here answers one request on
// the calling thread.
//
// Error model: requests are validated and canonicalized through
// CanonicalizeRequest, which returns a typed Status instead of the
// historical silent negative-sentinel defaulting — NaN, out-of-range
// parameters (>= 1 or negative non-sentinel), parameters on families
// that take none, out-of-range nodes, and degenerate iteration options
// are all rejected. `param == kQueryParamUseDefault` is the one sanctioned
// way to ask for a family's default.
//
// Determinism: AnswerQuery's output is a function of the view and the
// canonical request alone; QueryService batches are byte-identical to
// one AnswerQuery call per request, for every thread count.

#ifndef PEGASUS_QUERY_QUERY_ENGINE_H_
#define PEGASUS_QUERY_QUERY_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/query/summary_view.h"
#include "src/util/status.h"

namespace pegasus {

// The seven summary-answerable query families (Appendix A plus the
// extension queries). kHop serves the blockwise FastSummaryHopDistances
// path; the faithful node-level BFS stays a validation-only API.
enum class QueryKind : uint8_t {
  kNeighbors,
  kHop,
  kRwr,
  kPhp,
  kDegree,
  kPageRank,
  kClustering,
};

// Every family, in CLI-facing order (the single source for parsing and
// for the valid-kind list in error messages).
inline constexpr QueryKind kAllQueryKinds[] = {
    QueryKind::kNeighbors, QueryKind::kHop,      QueryKind::kRwr,
    QueryKind::kPhp,       QueryKind::kDegree,   QueryKind::kPageRank,
    QueryKind::kClustering,
};

// CLI-facing names: neighbors, hop, rwr, php, degree, pagerank,
// clustering. Parsing is case-insensitive ("PageRank" == "pagerank").
const char* QueryKindName(QueryKind kind);
std::optional<QueryKind> ParseQueryKind(const std::string& name);

// "neighbors, hop, rwr, php, degree, pagerank, clustering" — for error
// messages ("unknown query kind 'x'; valid kinds: ...").
std::string QueryKindList();

// True for families whose answer depends on a query node.
bool IsNodeQuery(QueryKind kind);

// True for rwr/php/pagerank — the families that take a parameter
// (restart probability / decay / damping) and iteration options.
bool IsIterativeQuery(QueryKind kind);

// True for families whose answer ignores the weighted flag
// (neighbors/hop are pure integer queries on the superedge structure).
bool IgnoresWeightedFlag(QueryKind kind);

// The family's documented default parameter: 0.05 (rwr restart), 0.95
// (php decay), 0.85 (pagerank damping); 0 for parameterless families.
double DefaultQueryParam(QueryKind kind);

// Sentinel meaning "use DefaultQueryParam(kind)".
inline constexpr double kQueryParamUseDefault = -1.0;

struct QueryRequest {
  QueryKind kind = QueryKind::kRwr;
  NodeId node = 0;  // consumed only when IsNodeQuery(kind)
  double param = kQueryParamUseDefault;  // see CanonicalizeRequest
  bool weighted = true;
  IterativeQueryOptions opts;  // iterative families only
};

// Validates `request` against a view of `num_nodes` nodes and returns its
// canonical form: the default parameter substituted for the sentinel, and
// every field the family ignores normalized (node = 0 for whole-graph
// families, weighted = true for integer families, opts = {} for
// non-iterative families) so equal queries compare equal — the property
// the global-result cache keys on. Errors:
//   * kOutOfRange        — node >= num_nodes for a node-level family
//   * kInvalidArgument   — NaN param; param >= 1; negative param other
//                          than the sentinel; a param on a parameterless
//                          family; max_iterations <= 0; tolerance < 0/NaN
[[nodiscard]]
StatusOr<QueryRequest> CanonicalizeRequest(const QueryRequest& request,
                                           NodeId num_nodes);

// Allocation-free form: validates and canonicalizes `request` in place.
// The batch executor uses this on a bulk-copied request vector so the
// validation pass costs no per-request temporaries.
[[nodiscard]]
Status CanonicalizeRequestInPlace(QueryRequest& request, NodeId num_nodes);

// Exactly one of the payload vectors is non-empty, matching the request's
// family: `neighbors` for kNeighbors, `hops` for kHop, `scores` for the
// rest (all sized num_nodes()).
struct QueryResult {
  QueryKind kind = QueryKind::kRwr;
  std::vector<NodeId> neighbors;
  std::vector<uint32_t> hops;
  std::vector<double> scores;
};

// Worker count the batch engine actually uses for a requested
// num_threads (ResolveThreadCount convention, then clamped to the
// hardware thread count): batch serving is CPU-bound, so workers beyond
// the core count only add scheduling thrash without changing the
// (scheduling-independent) results.
int QueryWorkerCount(int num_threads);

// Answers one request on the calling thread. The request should be
// canonical (CanonicalizeRequest); for compatibility, a sentinel param is
// still resolved to the family default. `scratch` (optional) is handed to
// the iterative kernels so steady-state serving reuses one allocation set
// per worker instead of allocating per query; pass nullptr for one-shot
// calls.
QueryResult AnswerQuery(const SummaryView& view, const QueryRequest& request,
                        KernelScratch* scratch = nullptr);

}  // namespace pegasus

#endif  // PEGASUS_QUERY_QUERY_ENGINE_H_
