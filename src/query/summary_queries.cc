// Compatibility wrappers over the SummaryView-based query paths
// (summary_view.h). The state-heavy families (RWR, PHP, degrees,
// PageRank, clustering) snapshot the summary into a view and delegate.
// The neighborhood and hop families touch no precomputed floating-point
// state, so their wrappers run directly on the SummaryGraph's adjacency:
// per-call view construction would turn O(deg)/O(|P|) integer queries
// (DynamicSummary::ApproximateNeighbors, SummaryCluster::AnswerHop) into
// density-precomputing O(|V| + |P|) calls for nothing. Either way,
// callers answering more than one query should build a SummaryView (or
// use query_engine.h) and query it directly. Results are byte-identical
// across the two paths (pinned by tests/summary_view_test.cc) and across
// standard libraries (pinned by the goldens in tests/determinism_test.cc).

#include "src/query/summary_queries.h"

#include <algorithm>

#include "src/graph/bfs.h"
#include "src/query/summary_view.h"

namespace pegasus {

std::vector<NodeId> SummaryNeighbors(const SummaryGraph& summary, NodeId q) {
  const SupernodeId a = summary.supernode_of(q);
  std::vector<NodeId> out;
  for (const auto& [b, w] : summary.superedges(a)) {
    (void)w;
    for (NodeId v : summary.members(b)) {
      if (v != q) out.push_back(v);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint32_t> SummaryHopDistances(const SummaryGraph& summary,
                                          NodeId q) {
  std::vector<uint32_t> dist(summary.num_nodes(), kUnreachable);
  dist[q] = 0;
  std::vector<NodeId> queue{q};
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (NodeId v : SummaryNeighbors(summary, u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<uint32_t> FastSummaryHopDistances(const SummaryGraph& summary,
                                              NodeId q) {
  const SupernodeId bound = summary.id_bound();
  std::vector<uint32_t> super_dist(bound, kUnreachable);
  const SupernodeId a0 = summary.supernode_of(q);

  std::vector<SupernodeId> queue;
  for (const auto& [b, w] : summary.superedges(a0)) {
    (void)w;
    if (super_dist[b] == kUnreachable) {
      super_dist[b] = 1;
      queue.push_back(b);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const SupernodeId a = queue[head];
    for (const auto& [b, w] : summary.superedges(a)) {
      (void)w;
      if (super_dist[b] == kUnreachable) {
        super_dist[b] = super_dist[a] + 1;
        queue.push_back(b);
      }
    }
  }

  std::vector<uint32_t> dist(summary.num_nodes(), kUnreachable);
  for (SupernodeId a = 0; a < bound; ++a) {
    if (!summary.alive(a) || super_dist[a] == kUnreachable) continue;
    for (NodeId u : summary.members(a)) dist[u] = super_dist[a];
  }
  dist[q] = 0;
  return dist;
}

std::vector<double> SummaryRwrScores(const SummaryGraph& summary, NodeId q,
                                     double restart_prob, bool weighted,
                                     const IterativeQueryOptions& opts) {
  return SummaryRwrScores(SummaryView(summary), q, restart_prob, weighted,
                          opts);
}

std::vector<double> SummaryPhpScores(const SummaryGraph& summary, NodeId q,
                                     double decay, bool weighted,
                                     const IterativeQueryOptions& opts) {
  return SummaryPhpScores(SummaryView(summary), q, decay, weighted, opts);
}

std::vector<double> SummaryDegrees(const SummaryGraph& summary,
                                   bool weighted) {
  return SummaryDegrees(SummaryView(summary), weighted);
}

std::vector<double> SummaryPageRank(const SummaryGraph& summary,
                                    double damping, bool weighted,
                                    const IterativeQueryOptions& opts) {
  return SummaryPageRank(SummaryView(summary), damping, weighted, opts);
}

std::vector<double> SummaryClusteringCoefficients(const SummaryGraph& summary,
                                                  bool weighted) {
  return SummaryClusteringCoefficients(SummaryView(summary), weighted);
}

}  // namespace pegasus
