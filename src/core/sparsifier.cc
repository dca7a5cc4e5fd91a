#include "src/core/sparsifier.h"

#include <algorithm>
#include <vector>

namespace pegasus {

uint64_t SparsifyToBudget(const Graph& graph, CostModel& cost,
                          SummaryGraph& summary, double budget_bits,
                          SparsifyPolicy policy) {
  (void)graph;
  if (summary.SizeInBits() <= budget_bits) return 0;

  struct Scored {
    SupernodeId a;
    SupernodeId b;
    double score;
  };
  std::vector<Scored> scored;
  const double superedge_bits =
      CostModel::SuperedgeBits(summary.num_supernodes());
  for (SupernodeId a : summary.ActiveSupernodes()) {
    for (const auto& [b, w] : summary.superedges(a)) {
      (void)w;
      if (b < a) continue;  // each unordered superedge once
      // Recover the pair aggregates: the stored weight is the real-edge
      // count; the weighted E_AB is recomputed from the incident scan.
      scored.push_back({a, b, 0.0});
    }
  }
  // One pass per supernode to obtain weighted E_AB for its superedges.
  std::vector<IncidentPair> incident;
  std::vector<std::pair<uint64_t, double>> edge_weight;  // key -> E_AB
  edge_weight.reserve(scored.size());
  for (SupernodeId a : summary.ActiveSupernodes()) {
    if (summary.superedges(a).empty()) continue;
    cost.CollectIncident(a, incident);
    for (const IncidentPair& p : incident) {
      if (p.neighbor < a) continue;
      if (!summary.HasSuperedge(a, p.neighbor)) continue;
      edge_weight.emplace_back(
          (static_cast<uint64_t>(a) << 32) | p.neighbor, p.edge_weight);
    }
  }
  std::sort(edge_weight.begin(), edge_weight.end());
  auto lookup = [&](SupernodeId a, SupernodeId b) {
    const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    auto it = std::lower_bound(
        edge_weight.begin(), edge_weight.end(), key,
        [](const auto& kv, uint64_t k) { return kv.first < k; });
    return it != edge_weight.end() && it->first == key ? it->second : 0.0;
  };

  for (Scored& sc : scored) {
    const double potential = cost.PairPotential(sc.a, sc.b);
    const double e = lookup(sc.a, sc.b);
    if (policy == SparsifyPolicy::kPaperCostAscending) {
      // Cost_AB with the superedge present (Eq. 6): 2 log2|S| +
      // bits-per-error * (T_AB - E_AB). Computed with the indicator of the
      // actual P (the superedge exists), not the optimal re-encoding.
      sc.score = superedge_bits +
                 cost.BitsPerError() * std::max(0.0, potential - e);
    } else {
      // Damage of dropping: the pair cost becomes bits-per-error * E_AB.
      sc.score = cost.BitsPerError() * e;
    }
  }
  // Total order: ties on score break by superedge id, so the drop
  // sequence (and with it the final summary) is independent of both the
  // candidate enumeration order and the stdlib's sort implementation.
  // lint: sort-order-ok(total order: score, then superedge id)
  std::sort(scored.begin(), scored.end(),
            [](const Scored& x, const Scored& y) {
              if (x.score != y.score) return x.score < y.score;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });

  uint64_t dropped = 0;
  for (const Scored& sc : scored) {
    if (summary.SizeInBits() <= budget_bits) break;
    if (summary.EraseSuperedge(sc.a, sc.b)) ++dropped;
  }
  return dropped;
}

}  // namespace pegasus
