// Personalized MDL cost model (Sec. III-B, Eqs. 5-11).
//
// Works in the unordered-pair domain (see DESIGN.md): for a supernode pair
// {A, B},
//   T_AB = total personalized weight of all spanned node pairs
//        = Pi_A * Pi_B / Z                      (A != B)
//        = (Pi_A^2 - sum_{u in A} pi_u^2)/(2Z)  (A == B),
//   E_AB = summed weight of *actual* input edges between A and B,
// and the encoding cost of the pair is
//   with a superedge   : 2 log2|S| + 2 log2|V| * (T_AB - E_AB)
//   without a superedge:              2 log2|V| * E_AB
// (an erroneous unordered pair costs 2 log2|V| bits, footnote 4). SSumM's
// best-of-two scheme adds an entropy-coded option. Because a superedge is
// only worth keeping when E_AB > 0, every supernode's total cost is a sum
// over pairs with at least one real edge, computable in O(sum of member
// degrees) — Lemma 1.
//
// The model owns the per-supernode aggregates (Pi_A, sum pi^2, weighted
// self-edge sums) and must be notified of merges via OnMerge().
//
// Memo invariant (incremental merge evaluation). Within one candidate
// group a supernode's incident-pair list and its Eq. 9 cost depend only
// on the partition, the aggregates and |S|, and all three change only
// through a merge. EvaluateMerge therefore memoizes both per supernode
// and reuses them for every sampled pair until the entry is invalidated:
// by OnMerge (the only partition change the model sees) or by
// InvalidateMemo() at the start of a new group. Memoized and recomputed
// values are the same floating-point operations on the same inputs, so
// evaluations are bit-identical either way.

#ifndef PEGASUS_CORE_COST_MODEL_H_
#define PEGASUS_CORE_COST_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/personal_weights.h"
#include "src/core/summary_graph.h"
#include "src/graph/graph.h"
#include "src/util/bits.h"
#include "src/util/stamped_slots.h"

namespace pegasus {

// How the number of bits for the error inside a superedge block is counted.
enum class EncodingScheme {
  // Error-correction encoding only (PeGaSus; Eq. 5 and footnote 4).
  kErrorCorrection,
  // Best of error correction and entropy coding (SSumM).
  kBestOfBoth,
};

// Score used to rank candidate merges.
enum class MergeScore {
  kRelative,  // Eq. (11) — PeGaSus default
  kAbsolute,  // Eq. (10) — ablation
};

// Floating-point guard of the cost model: potentials at or below it count
// as empty, and relative scores divide only by bases above it.
inline constexpr double kCostEpsilon = 1e-12;

// One incident supernode pair of some supernode A, aggregated over the
// input edges between A and the neighbor. The field order packs it into
// 16 bytes.
struct IncidentPair {
  SupernodeId neighbor = 0;
  uint32_t edge_count = 0;   // number of real edges
  double edge_weight = 0.0;  // E_AB: summed W over real edges
};

// Timestamped dense scratch for aggregating values per supernode id
// without hashing. The cost model owns one; each of the parallel engine's
// per-worker planners owns its own, which is why it is externalized —
// CollectIncidentPairs() must be callable concurrently with thread-local
// scratch against a frozen summary.
struct IncidentScratch {
  // One id's accumulator: stamp, count and weight in 16 bytes.
  struct Slot {
    uint32_t stamp = 0;
    uint32_t count = 0;
    double weight = 0.0;
  };

  void Resize(SupernodeId id_bound) { slots.Resize(id_bound); }
  // Begins a new aggregation epoch and clears `touched`.
  void NextEpoch() {
    slots.NextEpoch();
    touched.clear();
  }
  // Adds (w, c) to the accumulator of id, registering it if first seen.
  void Add(SupernodeId id, double w, uint32_t c) {
    Slot& slot = slots[id];
    if (slots.Claim(id)) {
      slot.weight = 0.0;
      slot.count = 0;
      touched.push_back(id);
    }
    slot.weight += w;
    slot.count += c;
  }
  double weight(SupernodeId id) const { return slots[id].weight; }
  uint32_t count(SupernodeId id) const { return slots[id].count; }

  StampedSlots<Slot> slots;
  std::vector<SupernodeId> touched;  // first-seen order (deterministic)
};

// Collects the incident pairs of supernode a: every supernode (possibly a
// itself) sharing at least one input edge with a, with E and edge counts
// aggregated; the self pair, if present, has its double counting already
// corrected. O(sum of member degrees). This is the single implementation
// of the aggregation rule — the serial cost model and the parallel
// engine's planners/reselection all call it, so a change here keeps both
// engines in lockstep.
void CollectIncidentPairs(const Graph& graph, const SummaryGraph& summary,
                          const PersonalWeights& weights, SupernodeId a,
                          IncidentScratch& scratch,
                          std::vector<IncidentPair>& out);

// Result of evaluating a hypothetical merge.
struct MergeEval {
  double absolute = 0.0;  // Eq. (10)
  double relative = 0.0;  // Eq. (11)
  double score(MergeScore s) const {
    return s == MergeScore::kRelative ? relative : absolute;
  }
};

class CostModel {
 public:
  // All references must outlive the model. `summary` must currently be the
  // identity summary of `graph` or share its partition with the model's
  // construction-time snapshot.
  CostModel(const Graph& graph, const PersonalWeights& weights,
            const SummaryGraph& summary,
            EncodingScheme encoding = EncodingScheme::kErrorCorrection);

  // Aggregated sums.
  double Pi(SupernodeId a) const { return pi_sum_[a]; }
  double Pi2(SupernodeId a) const { return pi2_sum_[a]; }

  // T_AB for the current partition (a may equal b).
  double PairPotential(SupernodeId a, SupernodeId b) const;

  // 2 log2|S| — bits of one superedge in a summary with `num_supernodes`
  // supernodes. Per-pair loops compute it once and pass it to PairCost and
  // SuperedgeBeneficial.
  static double SuperedgeBits(uint32_t num_supernodes) {
    return 2.0 * Log2Bits(num_supernodes);
  }

  // Encoding cost of one pair given its aggregates, where one superedge
  // costs `superedge_bits` (SuperedgeBits(|S|)). Chooses the cheaper of
  // keeping/dropping the superedge (and the entropy option under
  // kBestOfBoth). Inline: it is the innermost call of merge evaluation.
  double PairCost(double potential, double edge_weight,
                  double superedge_bits) const {
    // Guard against floating-point drift: real-edge weight can never
    // exceed the total pair weight.
    edge_weight = std::min(edge_weight, potential);
    const double with_edge =
        superedge_bits + bits_per_error_ * (potential - edge_weight);
    const double without_edge = bits_per_error_ * edge_weight;
    double cost = std::min(with_edge, without_edge);
    if (encoding_ == EncodingScheme::kBestOfBoth &&
        potential > kCostEpsilon) {
      const double entropy =
          superedge_bits + potential * BinaryEntropy(edge_weight / potential);
      cost = std::min(cost, entropy);
    }
    return cost;
  }

  // True iff keeping a superedge for the pair is the cheaper option under
  // error correction (this is the output decision rule of Alg. 2 line 9).
  bool SuperedgeBeneficial(double potential, double edge_weight,
                           double superedge_bits) const;

  // CollectIncidentPairs() against the model's own scratch.
  void CollectIncident(SupernodeId a, std::vector<IncidentPair>& out);

  // Cost of supernode a (Eq. 9) under the optimal per-pair encoding.
  double SupernodeCost(SupernodeId a);

  // Evaluates merging supernodes a and b (Eqs. 10-11) without mutating
  // the summary or the aggregates. Reads and fills the memo (see the
  // invariant above).
  MergeEval EvaluateMerge(SupernodeId a, SupernodeId b);

  // Drops every memoized supernode view. MergeEngine::ProcessGroup calls
  // it at the start of each group, which bounds the memo by the group
  // size.
  void InvalidateMemo();

  // Notifies the model that the summary merged a and b into `winner`.
  // Invalidates the memo.
  void OnMerge(SupernodeId a, SupernodeId b, SupernodeId winner);

  // 2 * log2 |V| — bits per erroneous unordered pair.
  double BitsPerError() const { return bits_per_error_; }

  const PersonalWeights& weights() const { return weights_; }

 private:
  // One memoized supernode: its incident pairs and its Eq. 9 cost.
  struct MemoEntry {
    std::vector<IncidentPair> pairs;
    double cost = 0.0;
  };

  // Cost contribution of a pair list (shared by SupernodeCost and
  // EvaluateMerge).
  double PairListCost(const std::vector<IncidentPair>& pairs,
                      SupernodeId self, double self_pi, double self_pi2,
                      double superedge_bits) const;

  // Index into memo_ of a's entry, computing it on a miss.
  uint32_t Memoized(SupernodeId a, double superedge_bits);

  const Graph& graph_;
  const PersonalWeights& weights_;
  const SummaryGraph& summary_;
  EncodingScheme encoding_;
  double bits_per_error_;

  std::vector<double> pi_sum_;   // Pi_A per supernode id
  std::vector<double> pi2_sum_;  // sum of pi^2 per supernode id

  IncidentScratch scratch_;

  // EvaluateMerge memo: memo_slot_[a].index indexes memo_ iff a's slot is
  // live. Entries past memo_used_ are spare buffers kept for their
  // capacity.
  std::vector<MemoEntry> memo_;
  size_t memo_used_ = 0;
  StampedSlots<IndexSlot> memo_slot_;

  // Reusable buffers for SupernodeCost and EvaluateMerge.
  std::vector<IncidentPair> buf_a_;
  std::vector<IncidentPair> buf_m_;
};

}  // namespace pegasus

#endif  // PEGASUS_CORE_COST_MODEL_H_
