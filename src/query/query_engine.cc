#include "src/query/query_engine.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>

#include "src/util/parallel.h"

namespace pegasus {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kNeighbors:
      return "neighbors";
    case QueryKind::kHop:
      return "hop";
    case QueryKind::kRwr:
      return "rwr";
    case QueryKind::kPhp:
      return "php";
    case QueryKind::kDegree:
      return "degree";
    case QueryKind::kPageRank:
      return "pagerank";
    case QueryKind::kClustering:
      return "clustering";
  }
  return "unknown";
}

std::optional<QueryKind> ParseQueryKind(const std::string& name) {
  std::string lower(name.size(), '\0');
  std::transform(name.begin(), name.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  for (QueryKind kind : kAllQueryKinds) {
    if (lower == QueryKindName(kind)) return kind;
  }
  return std::nullopt;
}

std::string QueryKindList() {
  std::string out;
  for (QueryKind kind : kAllQueryKinds) {
    if (!out.empty()) out += ", ";
    out += QueryKindName(kind);
  }
  return out;
}

bool IsNodeQuery(QueryKind kind) {
  switch (kind) {
    case QueryKind::kNeighbors:
    case QueryKind::kHop:
    case QueryKind::kRwr:
    case QueryKind::kPhp:
      return true;
    case QueryKind::kDegree:
    case QueryKind::kPageRank:
    case QueryKind::kClustering:
      return false;
  }
  return false;
}

bool IsIterativeQuery(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRwr:
    case QueryKind::kPhp:
    case QueryKind::kPageRank:
      return true;
    default:
      return false;
  }
}

bool IgnoresWeightedFlag(QueryKind kind) {
  return kind == QueryKind::kNeighbors || kind == QueryKind::kHop;
}

double DefaultQueryParam(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRwr:
      return 0.05;
    case QueryKind::kPhp:
      return 0.95;
    case QueryKind::kPageRank:
      return 0.85;
    default:
      return 0.0;
  }
}

Status CanonicalizeRequestInPlace(QueryRequest& request, NodeId num_nodes) {
  if (IsNodeQuery(request.kind)) {
    if (request.node >= num_nodes) {
      return Status::OutOfRange(std::string(QueryKindName(request.kind)) +
                                ": node " + std::to_string(request.node) +
                                " out of range [0, " +
                                std::to_string(num_nodes) + ")");
    }
  } else {
    request.node = 0;
  }

  if (std::isnan(request.param)) {
    return Status::InvalidArgument(std::string(QueryKindName(request.kind)) +
                                   ": parameter is NaN");
  }
  if (IsIterativeQuery(request.kind)) {
    if (request.param == kQueryParamUseDefault) {
      request.param = DefaultQueryParam(request.kind);
    } else if (request.param < 0.0 || request.param >= 1.0) {
      return Status::InvalidArgument(
          std::string(QueryKindName(request.kind)) + ": parameter " +
          std::to_string(request.param) + " out of range [0, 1)");
    }
    if (request.opts.max_iterations <= 0) {
      return Status::InvalidArgument(
          std::string(QueryKindName(request.kind)) +
          ": max_iterations must be positive");
    }
    if (std::isnan(request.opts.tolerance) || request.opts.tolerance < 0.0) {
      return Status::InvalidArgument(
          std::string(QueryKindName(request.kind)) +
          ": tolerance must be non-negative");
    }
  } else {
    if (request.param != kQueryParamUseDefault) {
      return Status::InvalidArgument(
          std::string(QueryKindName(request.kind)) + " takes no parameter");
    }
    request.param = DefaultQueryParam(request.kind);
    request.opts = IterativeQueryOptions{};
  }

  if (IgnoresWeightedFlag(request.kind)) request.weighted = true;
  return Status::Ok();
}

StatusOr<QueryRequest> CanonicalizeRequest(const QueryRequest& request,
                                           NodeId num_nodes) {
  QueryRequest canon = request;
  if (Status s = CanonicalizeRequestInPlace(canon, num_nodes); !s) return s;
  return canon;
}

QueryResult AnswerQuery(const SummaryView& view, const QueryRequest& request,
                        KernelScratch* scratch) {
  const double param = request.param >= 0.0 ? request.param
                                            : DefaultQueryParam(request.kind);
  QueryResult result;
  result.kind = request.kind;
  switch (request.kind) {
    case QueryKind::kNeighbors:
      result.neighbors = SummaryNeighbors(view, request.node);
      break;
    case QueryKind::kHop:
      result.hops = FastSummaryHopDistances(view, request.node);
      break;
    case QueryKind::kRwr:
      result.scores = SummaryRwrScores(view, request.node, param,
                                       request.weighted, request.opts, scratch);
      break;
    case QueryKind::kPhp:
      result.scores = SummaryPhpScores(view, request.node, param,
                                       request.weighted, request.opts, scratch);
      break;
    case QueryKind::kDegree:
      result.scores = SummaryDegrees(view, request.weighted);
      break;
    case QueryKind::kPageRank:
      result.scores = SummaryPageRank(view, param, request.weighted,
                                      request.opts, scratch);
      break;
    case QueryKind::kClustering:
      result.scores = SummaryClusteringCoefficients(view, request.weighted);
      break;
  }
  return result;
}

int QueryWorkerCount(int num_threads) {
  return std::min(ResolveThreadCount(num_threads), ResolveThreadCount(0));
}

}  // namespace pegasus
