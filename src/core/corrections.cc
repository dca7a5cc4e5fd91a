#include "src/core/corrections.h"

#include <algorithm>

#include "src/graph/graph_builder.h"
#include "src/util/bits.h"

namespace pegasus {

double EdgeCorrections::SizeInBits(NodeId num_nodes) const {
  return 2.0 * Log2Bits(num_nodes) * static_cast<double>(TotalCount());
}

EdgeCorrections ComputeCorrections(const Graph& graph,
                                   const SummaryGraph& summary) {
  EdgeCorrections out;

  // Positive corrections: real edges not covered by a superedge.
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.neighbors(u)) {
      if (u >= v) continue;
      if (!summary.HasSuperedge(summary.supernode_of(u),
                                summary.supernode_of(v))) {
        out.positive.push_back({u, v});
      }
    }
  }

  // Negative corrections: block pairs without a real edge (canonical
  // superedge order; the lists are sorted below either way).
  for (SupernodeId a = 0; a < summary.id_bound(); ++a) {
    if (!summary.alive(a)) continue;
    for (const auto& [b, w] : summary.superedges(a)) {
      (void)w;
      if (b < a) continue;
      const auto& ma = summary.members(a);
      if (a == b) {
        for (size_t i = 0; i < ma.size(); ++i) {
          for (size_t j = i + 1; j < ma.size(); ++j) {
            NodeId u = std::min(ma[i], ma[j]);
            NodeId v = std::max(ma[i], ma[j]);
            if (!graph.HasEdge(u, v)) out.negative.push_back({u, v});
          }
        }
      } else {
        for (NodeId x : ma) {
          for (NodeId y : summary.members(b)) {
            NodeId u = std::min(x, y);
            NodeId v = std::max(x, y);
            if (!graph.HasEdge(u, v)) out.negative.push_back({u, v});
          }
        }
      }
    }
  }
  std::sort(out.positive.begin(), out.positive.end());
  std::sort(out.negative.begin(), out.negative.end());
  return out;
}

Graph RestoreGraph(const SummaryGraph& summary,
                   const EdgeCorrections& corrections) {
  // Reconstruct Ĝ's edges, drop the negative corrections, add positives.
  Graph reconstructed = summary.Reconstruct();
  GraphBuilder builder(summary.num_nodes());
  for (const Edge& e : reconstructed.CanonicalEdges()) {
    if (!std::binary_search(corrections.negative.begin(),
                            corrections.negative.end(), e)) {
      builder.AddEdge(e.u, e.v);
    }
  }
  for (const Edge& e : corrections.positive) builder.AddEdge(e.u, e.v);
  return std::move(builder).Build();
}

double LosslessSizeInBits(const SummaryGraph& summary,
                          const EdgeCorrections& corrections) {
  return summary.SizeInBits() +
         corrections.SizeInBits(summary.num_nodes());
}

}  // namespace pegasus
