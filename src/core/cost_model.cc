#include "src/core/cost_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/bits.h"

namespace pegasus {

CostModel::CostModel(const Graph& graph, const PersonalWeights& weights,
                     const SummaryGraph& summary, EncodingScheme encoding)
    : graph_(graph),
      weights_(weights),
      summary_(summary),
      encoding_(encoding),
      bits_per_error_(2.0 * Log2Bits(graph.num_nodes())) {
  const SupernodeId bound = summary.id_bound();
  pi_sum_.assign(bound, 0.0);
  pi2_sum_.assign(bound, 0.0);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const SupernodeId a = summary.supernode_of(u);
    const double p = weights.pi(u);
    pi_sum_[a] += p;
    pi2_sum_[a] += p * p;
  }
  scratch_.Resize(bound);
  memo_slot_.Resize(bound);
}

void CollectIncidentPairs(const Graph& graph, const SummaryGraph& summary,
                          const PersonalWeights& weights, SupernodeId a,
                          IncidentScratch& scratch,
                          std::vector<IncidentPair>& out) {
  out.clear();
  scratch.NextEpoch();
  const double z = weights.Z();
  for (NodeId u : summary.members(a)) {
    const double pu = weights.pi(u);
    for (NodeId v : graph.neighbors(u)) {
      scratch.Add(summary.supernode_of(v), pu * weights.pi(v) / z, 1);
    }
  }
  out.reserve(scratch.touched.size());
  for (SupernodeId c : scratch.touched) {
    IncidentPair p;
    p.neighbor = c;
    if (c == a) {
      // Internal edges were seen from both endpoints.
      p.edge_weight = scratch.weight(c) / 2.0;
      p.edge_count = scratch.count(c) / 2;
    } else {
      p.edge_weight = scratch.weight(c);
      p.edge_count = scratch.count(c);
    }
    out.push_back(p);
  }
}

double CostModel::PairPotential(SupernodeId a, SupernodeId b) const {
  const double z = weights_.Z();
  if (a == b) {
    return (pi_sum_[a] * pi_sum_[a] - pi2_sum_[a]) / (2.0 * z);
  }
  return pi_sum_[a] * pi_sum_[b] / z;
}

bool CostModel::SuperedgeBeneficial(double potential, double edge_weight,
                                    double superedge_bits) const {
  edge_weight = std::min(edge_weight, potential);
  const double with_edge =
      superedge_bits + bits_per_error_ * (potential - edge_weight);
  const double without_edge = bits_per_error_ * edge_weight;
  return with_edge < without_edge;
}

void CostModel::CollectIncident(SupernodeId a,
                                std::vector<IncidentPair>& out) {
  CollectIncidentPairs(graph_, summary_, weights_, a, scratch_, out);
}

double CostModel::PairListCost(const std::vector<IncidentPair>& pairs,
                               SupernodeId self, double self_pi,
                               double self_pi2,
                               double superedge_bits) const {
  const double z = weights_.Z();
  double total = 0.0;
  for (const IncidentPair& p : pairs) {
    double potential;
    if (p.neighbor == self) {
      potential = (self_pi * self_pi - self_pi2) / (2.0 * z);
    } else {
      potential = self_pi * pi_sum_[p.neighbor] / z;
    }
    total += PairCost(potential, p.edge_weight, superedge_bits);
  }
  return total;
}

double CostModel::SupernodeCost(SupernodeId a) {
  CollectIncident(a, buf_a_);
  return PairListCost(buf_a_, a, pi_sum_[a], pi2_sum_[a],
                      SuperedgeBits(summary_.num_supernodes()));
}

uint32_t CostModel::Memoized(SupernodeId a, double superedge_bits) {
  if (!memo_slot_.Claim(a)) return memo_slot_[a].index;
  if (memo_used_ == memo_.size()) memo_.emplace_back();
  MemoEntry& entry = memo_[memo_used_];
  CollectIncident(a, entry.pairs);
  entry.cost =
      PairListCost(entry.pairs, a, pi_sum_[a], pi2_sum_[a], superedge_bits);
  memo_slot_[a].index = static_cast<uint32_t>(memo_used_);
  return static_cast<uint32_t>(memo_used_++);
}

void CostModel::InvalidateMemo() {
  memo_used_ = 0;
  memo_slot_.NextEpoch();
}

MergeEval CostModel::EvaluateMerge(SupernodeId a, SupernodeId b) {
  assert(a != b);
  const uint32_t s = summary_.num_supernodes();
  const double bits = SuperedgeBits(s);
  const double merged_bits = SuperedgeBits(s > 1 ? s - 1 : 1);
  // Both lookups may append to memo_, so take references only after.
  const uint32_t slot_a = Memoized(a, bits);
  const uint32_t slot_b = Memoized(b, bits);
  const std::vector<IncidentPair>& pairs_a = memo_[slot_a].pairs;
  const std::vector<IncidentPair>& pairs_b = memo_[slot_b].pairs;
  const double cost_a = memo_[slot_a].cost;
  const double cost_b = memo_[slot_b].cost;

  // Cost of the pair {a, b} itself, which is counted in both supernode
  // costs (Eq. 10 subtracts it once).
  double edge_weight_ab = 0.0;
  for (const IncidentPair& p : pairs_a) {
    if (p.neighbor == b) {
      edge_weight_ab = p.edge_weight;
      break;
    }
  }
  const double cost_ab = PairCost(PairPotential(a, b), edge_weight_ab, bits);

  // Aggregates of the hypothetical merged supernode. We reuse `a` as the
  // sentinel id for "the merged supernode" in buf_m_.
  buf_m_.clear();
  scratch_.NextEpoch();
  double self_weight = 0.0;
  uint32_t self_count = 0;
  auto fold = [&](const std::vector<IncidentPair>& buf, bool from_a) {
    for (const IncidentPair& p : buf) {
      if (p.neighbor == a || p.neighbor == b) {
        // Internal to the merged supernode. The cross pair {a, b} appears
        // in both buffers; count it only from a's side.
        if (!from_a && p.neighbor == a) continue;
        self_weight += p.edge_weight;
        self_count += p.edge_count;
        continue;
      }
      scratch_.Add(p.neighbor, p.edge_weight, p.edge_count);
    }
  };
  fold(pairs_a, /*from_a=*/true);
  fold(pairs_b, /*from_a=*/false);
  for (SupernodeId c : scratch_.touched) {
    buf_m_.push_back({c, scratch_.count(c), scratch_.weight(c)});
  }
  if (self_count > 0 || self_weight > kCostEpsilon) {
    buf_m_.push_back({a, self_count, self_weight});
  }

  const double merged_pi = pi_sum_[a] + pi_sum_[b];
  const double merged_pi2 = pi2_sum_[a] + pi2_sum_[b];
  // Temporarily alias the merged aggregates through `self_pi` arguments;
  // neighbor potentials use the (unchanged) per-neighbor sums.
  const double cost_merged =
      PairListCost(buf_m_, a, merged_pi, merged_pi2, merged_bits);

  MergeEval eval;
  const double base = cost_a + cost_b - cost_ab;
  eval.absolute = base - cost_merged;
  if (base > kCostEpsilon) {
    eval.relative = eval.absolute / base;
  } else {
    eval.relative = eval.absolute >= -kCostEpsilon ? 1.0 : -1.0;
  }
  return eval;
}

void CostModel::OnMerge(SupernodeId a, SupernodeId b, SupernodeId winner) {
  const double pi = pi_sum_[a] + pi_sum_[b];
  const double pi2 = pi2_sum_[a] + pi2_sum_[b];
  pi_sum_[winner] = pi;
  pi2_sum_[winner] = pi2;
  InvalidateMemo();
}

}  // namespace pegasus
