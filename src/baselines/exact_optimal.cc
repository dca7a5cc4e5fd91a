#include "src/baselines/exact_optimal.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "src/eval/error_eval.h"
#include "src/util/bits.h"

namespace pegasus {

namespace {

// Builds the optimal summary for one partition: every block pair gets a
// superedge iff that lowers its error-correction cost.
SummaryGraph BuildOptimal(const Graph& graph, const PersonalWeights& weights,
                          const std::vector<NodeId>& labels,
                          uint32_t num_blocks) {
  SummaryGraph summary = SummaryGraph::FromPartition(graph, labels);
  const double bits_per_error = 2.0 * Log2Bits(graph.num_nodes());
  const double superedge_bits = 2.0 * Log2Bits(num_blocks);
  const double z = weights.Z();

  // Aggregates per supernode.
  const SupernodeId bound = summary.id_bound();
  std::vector<double> pi(bound, 0.0), pi2(bound, 0.0);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const double p = weights.pi(u);
    pi[summary.supernode_of(u)] += p;
    pi2[summary.supernode_of(u)] += p * p;
  }
  // Edge weight per unordered supernode pair (dense: num_blocks <= 12).
  std::vector<std::vector<double>> edge_w(bound,
                                          std::vector<double>(bound, 0.0));
  std::vector<std::vector<uint32_t>> edge_c(
      bound, std::vector<uint32_t>(bound, 0));
  for (const Edge& e : graph.CanonicalEdges()) {
    SupernodeId a = summary.supernode_of(e.u);
    SupernodeId b = summary.supernode_of(e.v);
    if (a > b) std::swap(a, b);
    edge_w[a][b] += weights.PairWeight(e.u, e.v);
    ++edge_c[a][b];
  }

  for (SupernodeId a = 0; a < bound; ++a) {
    for (SupernodeId b = a; b < bound; ++b) {
      const double potential =
          a == b ? (pi[a] * pi[a] - pi2[a]) / (2.0 * z) : pi[a] * pi[b] / z;
      const double e = std::min(edge_w[a][b], potential);
      const double with_edge =
          superedge_bits + bits_per_error * (potential - e);
      const double without_edge = bits_per_error * e;
      if (with_edge < without_edge && edge_c[a][b] > 0) {
        summary.SetSuperedge(a, b, edge_c[a][b]);
      }
    }
  }
  return summary;
}

// Greedy budget repair: drop superedges with the smallest real-edge
// weight first until the size fits (mirrors Sec. III-F's min-damage view).
void RepairToBudget(const Graph& graph, const PersonalWeights& weights,
                    SummaryGraph& summary, double budget_bits) {
  struct Scored {
    SupernodeId a, b;
    double damage;
  };
  std::vector<Scored> scored;
  for (SupernodeId a = 0; a < summary.id_bound(); ++a) {
    if (!summary.alive(a)) continue;
    for (const auto& [b, w] : summary.superedges(a)) {
      (void)w;
      if (b < a) continue;
      double damage = 0.0;
      for (const Edge& e : graph.CanonicalEdges()) {
        SupernodeId x = summary.supernode_of(e.u);
        SupernodeId y = summary.supernode_of(e.v);
        if (x > y) std::swap(x, y);
        if (x == std::min(a, b) && y == std::max(a, b)) {
          damage += weights.PairWeight(e.u, e.v);
        }
      }
      scored.push_back({a, b, damage});
    }
  }
  // Total order (ties by superedge id): the drop sequence is independent
  // of enumeration order and of the stdlib's sort implementation.
  // lint: sort-order-ok(total order: damage, then superedge id)
  std::sort(scored.begin(), scored.end(),
            [](const Scored& x, const Scored& y) {
              if (x.damage != y.damage) return x.damage < y.damage;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  for (const Scored& s : scored) {
    if (summary.SizeInBits() <= budget_bits) break;
    summary.EraseSuperedge(s.a, s.b);
  }
}

}  // namespace

ExactOptimalResult ExactOptimalSummary(const Graph& graph,
                                       const PersonalWeights& weights,
                                       std::optional<double> budget_bits) {
  const NodeId n = graph.num_nodes();
  assert(n >= 1 && n <= 12);

  ExactOptimalResult best;
  // Enumerate partitions via restricted growth strings: label[i] in
  // [0, 1 + max(label[0..i-1])].
  std::vector<NodeId> labels(n, 0);
  std::vector<NodeId> max_prefix(n, 0);

  size_t i = 1;
  bool done = n == 1;
  auto evaluate = [&]() {
    ++best.partitions_examined;
    uint32_t blocks = 0;
    for (NodeId l : labels) blocks = std::max(blocks, l + 1);
    SummaryGraph summary = BuildOptimal(graph, weights, labels, blocks);
    if (budget_bits && summary.SizeInBits() > *budget_bits) {
      RepairToBudget(graph, weights, summary, *budget_bits);
      if (summary.SizeInBits() > *budget_bits) return;
    }
    const double cost = PersonalizedCost(graph, summary, weights);
    if (cost < best.cost) {
      best.cost = cost;
      best.summary = std::move(summary);
    }
  };

  if (n == 1) {
    evaluate();
    return best;
  }
  // Iterative restricted-growth-string enumeration.
  while (true) {
    if (i == n) {
      evaluate();
      // Backtrack to the last position that can still be incremented.
      size_t j = n - 1;
      while (j >= 1 && labels[j] == max_prefix[j - 1] + 1) {
        labels[j] = 0;
        --j;
      }
      if (j == 0) break;
      ++labels[j];
      max_prefix[j] = std::max(max_prefix[j - 1], labels[j]);
      i = j + 1;
    } else {
      labels[i] = 0;
      max_prefix[i] = max_prefix[i - 1];
      ++i;
    }
  }
  (void)done;
  return best;
}

}  // namespace pegasus
