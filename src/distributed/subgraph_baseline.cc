#include "src/distributed/subgraph_baseline.h"

#include <algorithm>

#include "src/graph/bfs.h"
#include "src/graph/graph_builder.h"
#include "src/util/bits.h"

namespace pegasus {

SubgraphCluster SubgraphCluster::Build(const Graph& graph,
                                       const Partition& partition,
                                       double budget_bits_per_machine) {
  SubgraphCluster cluster;
  cluster.partition_ = partition;
  const auto parts = partition.Parts();
  const double bits_per_edge = 2.0 * Log2Bits(graph.num_nodes());
  const EdgeId max_edges =
      bits_per_edge <= 0.0
          ? graph.num_edges()
          : static_cast<EdgeId>(budget_bits_per_machine / bits_per_edge);

  cluster.subgraphs_.reserve(parts.size());
  for (const std::vector<NodeId>& shard : parts) {
    const std::vector<uint32_t> dist =
        MultiSourceBfsDistances(graph, shard);
    // Rank edges by the distance of their *farther* endpoint from the
    // shard: an edge is "close to the subset" when the whole edge lies
    // close, so the subgraph grows like a proper ball around the shard
    // (ranking by the nearer endpoint would let a single in-ball hub pull
    // in edges to arbitrarily distant nodes).
    struct Ranked {
      uint32_t rank;
      NodeId u, v;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(graph.num_edges());
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      for (NodeId v : graph.neighbors(u)) {
        if (u < v) {
          ranked.push_back({std::max(dist[u], dist[v]), u, v});
        }
      }
    }
    // lint: sort-order-ok(stable sort: ties keep ascending edge order)
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Ranked& a, const Ranked& b) {
                       return a.rank < b.rank;
                     });
    GraphBuilder builder(graph.num_nodes());
    const EdgeId take = std::min<EdgeId>(max_edges, ranked.size());
    for (EdgeId i = 0; i < take; ++i) {
      builder.AddEdge(ranked[i].u, ranked[i].v);
    }
    cluster.subgraphs_.push_back(std::move(builder).Build());
  }
  return cluster;
}

std::vector<uint32_t> SubgraphCluster::AnswerHop(NodeId q) const {
  return ExactHopDistances(subgraphs_[MachineOf(q)], q);
}

std::vector<double> SubgraphCluster::AnswerRwr(
    NodeId q, double restart_prob, const IterativeQueryOptions& opts) const {
  return ExactRwrScores(subgraphs_[MachineOf(q)], q, restart_prob, opts);
}

std::vector<double> SubgraphCluster::AnswerPhp(
    NodeId q, double decay, const IterativeQueryOptions& opts) const {
  return ExactPhpScores(subgraphs_[MachineOf(q)], q, decay, opts);
}

}  // namespace pegasus
