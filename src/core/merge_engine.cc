#include "src/core/merge_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pegasus {

MergeEngine::MergeEngine(const Graph& graph, SummaryGraph& summary,
                         CostModel& cost, MergeScore score)
    : graph_(graph), summary_(summary), cost_(cost), score_(score) {}

void MergeEngine::ProcessGroup(std::vector<SupernodeId>& group,
                               ThresholdPolicy& threshold, Rng& rng) {
  // Candidate groups are disjoint, so earlier groups' memo entries are
  // dead weight; dropping them bounds the memo by this group's size.
  cost_.InvalidateMemo();
  int fails = 0;
  while (group.size() > 1) {
    const double max_fails =
        std::log2(static_cast<double>(group.size()));
    if (fails > static_cast<int>(max_fails)) break;

    // Sample |Ci| pairs (with replacement across draws, distinct within a
    // pair) and keep the best-scoring one.
    const size_t num_samples = group.size();
    double best_score = -1e300;
    SupernodeId best_a = 0, best_b = 0;
    for (size_t i = 0; i < num_samples; ++i) {
      size_t x = static_cast<size_t>(rng.Uniform(group.size()));
      size_t y = static_cast<size_t>(rng.Uniform(group.size() - 1));
      if (y >= x) ++y;
      MergeEval eval = cost_.EvaluateMerge(group[x], group[y]);
      ++stats_.evaluations;
      const double s = eval.score(score_);
      if (s > best_score) {
        best_score = s;
        best_a = group[x];
        best_b = group[y];
      }
    }

    if (best_score >= threshold.theta()) {
      SupernodeId winner = ApplyMerge(best_a, best_b);
      SupernodeId loser = winner == best_a ? best_b : best_a;
      // Replace {a, b} by the merged supernode in the group.
      group.erase(std::remove(group.begin(), group.end(), loser),
                  group.end());
      if (std::find(group.begin(), group.end(), winner) == group.end()) {
        group.push_back(winner);
      }
      fails = 0;
    } else {
      threshold.RecordFailure(best_score);
      ++stats_.failures;
      ++fails;
    }
  }
}

SupernodeId MergeEngine::ApplyMerge(SupernodeId a, SupernodeId b) {
  SupernodeId winner = ApplyMergeDeferred(a, b);
  ReselectSuperedges(winner);
  return winner;
}

SupernodeId MergeEngine::ApplyMergeDeferred(SupernodeId a, SupernodeId b) {
  SupernodeId winner = summary_.MergeSupernodes(a, b);
  cost_.OnMerge(a, b, winner);
  ++stats_.merges;
  return winner;
}

void MergeEngine::ApplySuperedgeSelection(
    SupernodeId a, std::span<const std::pair<SupernodeId, uint32_t>> kept) {
  summary_.ClearSuperedgesOf(a);
  for (const auto& [c, weight] : kept) summary_.SetSuperedge(a, c, weight);
}

void MergeEngine::ReselectSuperedges(SupernodeId a) {
  // Drop all current superedges of a, then re-add each beneficial one
  // (Alg. 2 line 9): a superedge {a, c} is kept iff it lowers the cost of
  // the pair under the current number of supernodes.
  //
  // MergeSupernodes already erased the incident superedges when called from
  // ApplyMerge, but this method is also used standalone, so erase again
  // defensively (cheap if empty).
  summary_.ClearSuperedgesOf(a);

  cost_.CollectIncident(a, incident_buf_);
  const double bits = CostModel::SuperedgeBits(summary_.num_supernodes());
  for (const IncidentPair& p : incident_buf_) {
    const double potential = cost_.PairPotential(a, p.neighbor);
    if (cost_.SuperedgeBeneficial(potential, p.edge_weight, bits)) {
      summary_.SetSuperedge(a, p.neighbor, p.edge_count);
    }
  }
}

}  // namespace pegasus
