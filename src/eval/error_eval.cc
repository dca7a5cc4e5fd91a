#include "src/eval/error_eval.h"

#include <algorithm>

#include "src/util/bits.h"

namespace pegasus {

double PersonalizedError(const Graph& graph, const SummaryGraph& summary,
                         const PersonalWeights& weights) {
  const double z = weights.Z();

  // Per-supernode pi sums for superedge pair weights.
  std::vector<double> pi_sum(summary.id_bound(), 0.0);
  std::vector<double> pi2_sum(summary.id_bound(), 0.0);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const SupernodeId a = summary.supernode_of(u);
    const double p = weights.pi(u);
    pi_sum[a] += p;
    pi2_sum[a] += p * p;
  }

  // Weight of real edges, and of real edges covered by a superedge.
  double w_edges = 0.0;
  double w_covered = 0.0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.neighbors(u)) {
      if (v <= u) continue;  // unordered pairs
      const double w = weights.PairWeight(u, v);
      w_edges += w;
      if (summary.HasSuperedge(summary.supernode_of(u),
                               summary.supernode_of(v))) {
        w_covered += w;
      }
    }
  }

  // Total pair weight spanned by superedges, accumulated in canonical
  // order so the (floating-point) metric is stdlib-independent.
  double w_reconstructed = 0.0;
  for (SupernodeId a = 0; a < summary.id_bound(); ++a) {
    if (!summary.alive(a)) continue;
    for (const auto& [b, w] : summary.superedges(a)) {
      (void)w;
      if (b < a) continue;
      if (a == b) {
        w_reconstructed += (pi_sum[a] * pi_sum[a] - pi2_sum[a]) / (2.0 * z);
      } else {
        w_reconstructed += pi_sum[a] * pi_sum[b] / z;
      }
    }
  }

  const double missing = std::max(0.0, w_edges - w_covered);
  const double spurious = std::max(0.0, w_reconstructed - w_covered);
  return 2.0 * (missing + spurious);
}

double ReconstructionError(const Graph& graph, const SummaryGraph& summary) {
  const PersonalWeights uniform = PersonalWeights::Compute(graph, {}, 1.0);
  return PersonalizedError(graph, summary, uniform);
}

double PersonalizedCost(const Graph& graph, const SummaryGraph& summary,
                        const PersonalWeights& weights) {
  return summary.SizeInBits() +
         Log2Bits(graph.num_nodes()) *
             PersonalizedError(graph, summary, weights);
}

double CompressionRatio(const Graph& graph, const SummaryGraph& summary) {
  const double original = graph.SizeInBits();
  return original <= 0.0 ? 0.0 : summary.SizeInBits() / original;
}

double CompressionRatioWeighted(const Graph& graph,
                                const SummaryGraph& summary) {
  const double original = graph.SizeInBits();
  return original <= 0.0 ? 0.0 : summary.SizeInBitsWeighted() / original;
}

}  // namespace pegasus
