#include "src/serve/text_serving.h"

#include <algorithm>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

#include "src/util/ranking.h"
#include "src/util/timer.h"

namespace pegasus::serve {

namespace {

void AppendFormat(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendFormat(std::string& out, const char* fmt, ...) {
  char buf[96];
  va_list ap;
  va_start(ap, fmt);
  const int len = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (len > 0) out.append(buf, std::min<size_t>(static_cast<size_t>(len),
                                                sizeof(buf) - 1));
}

// " id(score)" for each of `ranked`, then the line's '\n'.
void AppendScored(std::string& out, const std::vector<double>& scores,
                  std::span<const NodeId> ranked) {
  for (NodeId id : ranked) AppendFormat(out, " %u(%.6g)", id, scores[id]);
  out += '\n';
}

void AppendEpoch(std::string& out, uint64_t epoch) {
  AppendFormat(out, "epoch %llu\n", static_cast<unsigned long long>(epoch));
}

}  // namespace

Status ParseQueryLine(const std::string& line, QueryRequest* request) {
  std::istringstream ls(line);
  std::string kind_name;
  ls >> kind_name;
  const auto kind = ParseQueryKind(kind_name);
  if (!kind) {
    return Status::InvalidArgument("unknown query kind '" + kind_name +
                                   "'; valid kinds: " + QueryKindList());
  }
  request->kind = *kind;
  if (IsNodeQuery(*kind)) {
    uint64_t node = 0;
    if (!(ls >> node)) {
      return Status::InvalidArgument(std::string(QueryKindName(*kind)) +
                                     " needs a query node");
    }
    request->node = static_cast<NodeId>(node);
  }
  double param = kQueryParamUseDefault;
  if (ls >> param) {
    // An explicitly written parameter must be a real one: a negative
    // value (including -1, the in-memory use-the-default sentinel) or
    // NaN on the wire is a mistake, never a default request — omitting
    // the token is how a line asks for the default.
    if (!(param >= 0.0)) {
      return Status::InvalidArgument(
          std::string(QueryKindName(request->kind)) +
          ": explicit parameter must be in [0, 1); omit it for the "
          "default");
    }
    request->param = param;
  }
  return Status::Ok();
}

StatusOr<std::vector<QueryRequest>> ParseBatchText(const std::string& text,
                                                   NodeId num_nodes) {
  std::vector<QueryRequest> requests;
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream probe(line);
    std::string first;
    probe >> first;
    if (first.empty() || first[0] == '#') continue;
    QueryRequest request;
    const auto WithLine = [&](const Status& s) {
      return Status(s.code(),
                    "line " + std::to_string(line_no) + ": " + s.message());
    };
    if (Status s = ParseQueryLine(line, &request); !s) return WithLine(s);
    // Semantic validation per line, so an error names the line instead of
    // a batch index that skips comments and blanks.
    if (auto canon = CanonicalizeRequest(request, num_nodes); !canon) {
      return WithLine(canon.status());
    }
    requests.push_back(request);
  }
  return requests;
}

std::string FormatAnswer(const QueryRequest& request,
                         const QueryResult& result, size_t top) {
  std::string out;
  if (IsNodeQuery(request.kind)) {
    AppendFormat(out, "%s(%u):", QueryKindName(request.kind), request.node);
  } else {
    AppendFormat(out, "%s:", QueryKindName(request.kind));
  }
  if (request.kind == QueryKind::kNeighbors) {
    const size_t k = std::min(top, result.neighbors.size());
    for (size_t i = 0; i < k; ++i) {
      AppendFormat(out, " %u", result.neighbors[i]);
    }
    if (k < result.neighbors.size()) {
      AppendFormat(out, " ... (%zu total)", result.neighbors.size());
    }
    out += '\n';
    return out;
  }

  if (request.kind == QueryKind::kHop) {
    for (NodeId id : TopK(HopRank{result.hops}, top)) {
      if (result.hops[id] == UINT32_MAX) {
        AppendFormat(out, " %u(unreachable)", id);
      } else {
        AppendFormat(out, " %u(%u)", id, result.hops[id]);
      }
    }
    out += '\n';
    return out;
  }
  AppendScored(out, result.scores, TopK(ScoreRank{result.scores}, top));
  return out;
}

std::string FormatCachedAnswer(const QueryRequest& request,
                               const CachedScores& cached, size_t top) {
  std::string out;
  AppendFormat(out, "%s:", QueryKindName(request.kind));
  const size_t k = std::min(top, cached.ranking.size());
  AppendScored(out, cached.scores, {cached.ranking.data(), k});
  return out;
}

std::string FormatBatchResponse(const std::vector<QueryRequest>& requests,
                                const QueryService::BatchResult& batch,
                                size_t top) {
  std::string out;
  for (size_t i = 0; i < requests.size(); ++i) {
    out += FormatAnswer(requests[i], batch.results[i], top);
  }
  AppendEpoch(out, batch.epoch);
  return out;
}

std::string JoinBatchResponse(const std::vector<std::string>& lines,
                              uint64_t epoch) {
  std::string out;
  for (const std::string& line : lines) out += line;
  AppendEpoch(out, epoch);
  return out;
}

Status AnswerBatchText(Frontend& frontend,
                       const std::vector<QueryRequest>& requests, size_t top,
                       std::ostream& out, std::ostream& err) {
  Timer timer;
  auto body = frontend.AnswerText(requests, top);
  if (!body) return body.status();
  const double secs = timer.ElapsedSeconds();
  out << *body;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "answered %zu queries in %.3fs (%.0f qps)\n",
                requests.size(), secs,
                static_cast<double>(requests.size()) / std::max(secs, 1e-9));
  err << buf;
  return Status::Ok();
}

void ServeTextLoop(Frontend& frontend, size_t top, std::istream& in,
                   std::ostream& out, std::ostream& err) {
  std::vector<QueryRequest> pending;
  size_t line_no = 0;
  // Every rejection names the offending stdin line, like the "line <n>:"
  // context of batch text.
  const auto Reject = [&](const std::string& message) {
    err << "error: stdin:" << line_no << ": " << message << "\n";
  };
  const auto Flush = [&] {
    if (!pending.empty()) {
      if (Status s = AnswerBatchText(frontend, pending, top, out, err); !s) {
        Reject(s.ToString());
      }
      pending.clear();
    }
    out.flush();
  };

  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string first;
    ls >> first;
    if (first.empty()) {
      Flush();
      continue;
    }
    if (first[0] == '#') continue;
    const bool is_publish = first == "publish";
    if (is_publish || first == "epoch" || first == "stats") {
      // A malformed directive is rejected before anything runs.
      std::string path;
      if (is_publish && !(ls >> path)) {
        Reject("publish needs a summary path");
        continue;
      }
      if (std::string extra; ls >> extra) {
        Reject(first + ": unexpected trailing token '" + extra + "'");
        continue;
      }
      Flush();
      const auto reply = is_publish         ? frontend.PublishText(path)
                         : first == "epoch" ? frontend.EpochText()
                                            : frontend.StatsText();
      if (reply) {
        out << *reply << std::flush;
      } else {
        Reject(reply.status().ToString());
      }
      continue;
    }
    QueryRequest request;
    if (Status s = ParseQueryLine(line, &request); !s) {
      Reject(s.message() + "; directives: publish <path>, epoch, stats");
      continue;
    }
    // Semantic validation per line too (node range, params), so one bad
    // line is rejected here instead of failing the whole batch.
    const auto nodes = frontend.NodeCount();
    if (Status s = nodes ? CanonicalizeRequest(request, *nodes).status()
                         : nodes.status();
        !s) {
      Reject(s.ToString());
      continue;
    }
    pending.push_back(request);
  }
  Flush();
}

}  // namespace pegasus::serve
