#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/merge_engine.h"
#include "src/core/personal_weights.h"
#include "src/eval/error_eval.h"
#include "src/graph/generators.h"
#include "src/util/bits.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

using ::pegasus::testing::CompleteGraph;
using ::pegasus::testing::Fig3Graph;
using ::pegasus::testing::PathGraph;
using ::pegasus::testing::TwoCliquesGraph;

// Brute-force total pair weight between two supernodes.
double BrutePotential(const SummaryGraph& s, const PersonalWeights& w,
                      SupernodeId a, SupernodeId b) {
  double total = 0.0;
  if (a == b) {
    const auto& m = s.members(a);
    for (size_t i = 0; i < m.size(); ++i) {
      for (size_t j = i + 1; j < m.size(); ++j) {
        total += w.PairWeight(m[i], m[j]);
      }
    }
    return total;
  }
  for (NodeId u : s.members(a)) {
    for (NodeId v : s.members(b)) total += w.PairWeight(u, v);
  }
  return total;
}

// Brute-force weighted count of real edges between two supernodes.
double BruteEdgeWeight(const Graph& g, const SummaryGraph& s,
                       const PersonalWeights& w, SupernodeId a,
                       SupernodeId b) {
  double total = 0.0;
  for (const Edge& e : g.CanonicalEdges()) {
    const SupernodeId su = s.supernode_of(e.u);
    const SupernodeId sv = s.supernode_of(e.v);
    if ((su == a && sv == b) || (su == b && sv == a)) {
      total += w.PairWeight(e.u, e.v);
    }
  }
  return total;
}

TEST(CostModelTest, PairPotentialMatchesBruteForce) {
  Graph g = TwoCliquesGraph(3);
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {0}, 1.5);
  CostModel cm(g, w, s);
  s.MergeSupernodes(0, 1);
  cm.OnMerge(0, 1, s.supernode_of(0));
  s.MergeSupernodes(3, 4);
  cm.OnMerge(3, 4, s.supernode_of(3));
  for (SupernodeId a : s.ActiveSupernodes()) {
    for (SupernodeId b : s.ActiveSupernodes()) {
      if (b < a) continue;
      EXPECT_NEAR(cm.PairPotential(a, b), BrutePotential(s, w, a, b), 1e-9)
          << "pair " << a << "," << b;
    }
  }
}

TEST(CostModelTest, CollectIncidentMatchesBruteForce) {
  Graph g = Fig3Graph();
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {4}, 1.25);
  CostModel cm(g, w, s);
  SupernodeId m1 = s.MergeSupernodes(0, 1);
  cm.OnMerge(0, 1, m1);
  SupernodeId m2 = s.MergeSupernodes(2, 3);
  cm.OnMerge(2, 3, m2);

  std::vector<IncidentPair> incident;
  for (SupernodeId a : s.ActiveSupernodes()) {
    cm.CollectIncident(a, incident);
    std::map<SupernodeId, double> got;
    for (const auto& p : incident) got[p.neighbor] = p.edge_weight;
    for (SupernodeId b : s.ActiveSupernodes()) {
      const double expected = BruteEdgeWeight(g, s, w, a, b);
      const double actual = got.count(b) ? got[b] : 0.0;
      EXPECT_NEAR(actual, expected, 1e-9) << "pair " << a << "," << b;
    }
  }
}

TEST(CostModelTest, CollectIncidentEdgeCounts) {
  Graph g = TwoCliquesGraph(3);  // cliques {0,1,2}, {3,4,5}, bridge 0-3
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {}, 1.0);
  CostModel cm(g, w, s);
  SupernodeId left = s.MergeSupernodes(0, 1);
  cm.OnMerge(0, 1, left);
  const SupernodeId prev = left;
  left = s.MergeSupernodes(prev, 2);
  cm.OnMerge(prev, 2, left);

  std::vector<IncidentPair> incident;
  cm.CollectIncident(left, incident);
  std::map<SupernodeId, uint32_t> counts;
  for (const auto& p : incident) counts[p.neighbor] = p.edge_count;
  EXPECT_EQ(counts[left], 3u);               // internal clique edges
  EXPECT_EQ(counts[s.supernode_of(3)], 1u);  // the bridge
}

TEST(CostModelTest, IncidentAggregationSurvivesEpochWrap) {
  // The scratch's 32-bit epoch wraps after 2^32 aggregations, which one
  // summarization of a ~100M-node graph reaches. Start two epochs short
  // of the wrap and aggregate across it: every result must match a
  // scratch that never wraps. Without clearing on wrap, epoch 0 would
  // match every id not touched since, dropping it from the incident list.
  Graph g = Fig3Graph();
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {4}, 1.25);
  s.MergeSupernodes(0, 1);
  const std::vector<SupernodeId> active = s.ActiveSupernodes();

  IncidentScratch fresh;
  fresh.Resize(s.id_bound());
  IncidentScratch wrapping;
  wrapping.Resize(s.id_bound());
  wrapping.slots.SetEpochForTesting(UINT32_MAX - 1);
  std::vector<IncidentPair> want;
  std::vector<IncidentPair> got;
  for (int lap = 0; lap < 2; ++lap) {
    for (SupernodeId a : active) {
      SCOPED_TRACE(::testing::Message() << "lap " << lap << " supernode " << a
                                        << " epoch "
                                        << wrapping.slots.epoch());
      CollectIncidentPairs(g, s, w, a, fresh, want);
      CollectIncidentPairs(g, s, w, a, wrapping, got);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].neighbor, want[i].neighbor);
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i].edge_weight),
                  std::bit_cast<uint64_t>(want[i].edge_weight));
        EXPECT_EQ(got[i].edge_count, want[i].edge_count);
      }
    }
  }
  // The laps crossed the wrap.
  EXPECT_LT(wrapping.slots.epoch(), 2 * active.size());
}

TEST(CostModelTest, PairCostUniformWeights) {
  Graph g = PathGraph(8);  // |V| = 8 => 2 log2|V| = 6 bits per error
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {}, 1.0);
  CostModel cm(g, w, s);
  EXPECT_DOUBLE_EQ(cm.BitsPerError(), 6.0);
  // potential 4, edges 3, |S| = 8: with = 2*3 + 6*1 = 12; without = 18.
  const double bits = CostModel::SuperedgeBits(8);
  EXPECT_DOUBLE_EQ(bits, 6.0);
  EXPECT_DOUBLE_EQ(cm.PairCost(4.0, 3.0, bits), 12.0);
  EXPECT_TRUE(cm.SuperedgeBeneficial(4.0, 3.0, bits));
  // potential 4, edges 1: with = 6 + 18 = 24; without = 6.
  EXPECT_DOUBLE_EQ(cm.PairCost(4.0, 1.0, bits), 6.0);
  EXPECT_FALSE(cm.SuperedgeBeneficial(4.0, 1.0, bits));
}

TEST(CostModelTest, EntropyEncodingNeverWorse) {
  Graph g = PathGraph(16);
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {}, 1.0);
  CostModel ec(g, w, s, EncodingScheme::kErrorCorrection);
  CostModel both(g, w, s, EncodingScheme::kBestOfBoth);
  const double bits = CostModel::SuperedgeBits(16);
  for (double potential : {1.0, 10.0, 100.0}) {
    for (double edges : {0.0, 1.0, 5.0, 50.0}) {
      if (edges > potential) continue;
      EXPECT_LE(both.PairCost(potential, edges, bits),
                ec.PairCost(potential, edges, bits) + 1e-12);
    }
  }
}

TEST(CostModelTest, MergePredictionMatchesPostMergeCost) {
  Graph g = GenerateBarabasiAlbert(60, 2, 11);
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {0, 5}, 1.25);
  CostModel cm(g, w, s);
  MergeEngine engine(g, s, cm, MergeScore::kRelative);

  // Merge several random-ish pairs and check the evaluation's internal
  // consistency each time: EvaluateMerge's "merged" cost must equal the
  // supernode cost measured after actually merging.
  for (int step = 0; step < 10; ++step) {
    auto active = s.ActiveSupernodes();
    SupernodeId a = active[step % active.size()];
    SupernodeId b = active[(step * 7 + 1) % active.size()];
    if (a == b) continue;

    std::vector<IncidentPair> incident;
    cm.CollectIncident(a, incident);
    const double cost_a = cm.SupernodeCost(a);
    const double cost_b = cm.SupernodeCost(b);
    double e_ab = 0.0;
    cm.CollectIncident(a, incident);
    for (const auto& p : incident) {
      if (p.neighbor == b) e_ab = p.edge_weight;
    }
    const double cost_ab =
        cm.PairCost(cm.PairPotential(a, b), e_ab,
                    CostModel::SuperedgeBits(s.num_supernodes()));

    MergeEval eval = cm.EvaluateMerge(a, b);
    const double predicted_merged =
        (cost_a + cost_b - cost_ab) - eval.absolute;

    SupernodeId winner = engine.ApplyMerge(a, b);
    const double actual_merged = cm.SupernodeCost(winner);
    EXPECT_NEAR(predicted_merged, actual_merged, 1e-6) << "step " << step;
  }
}

TEST(CostModelTest, RelativeScoreIsNormalizedAbsolute) {
  Graph g = TwoCliquesGraph(4);
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {0}, 1.5);
  CostModel cm(g, w, s);
  MergeEval eval = cm.EvaluateMerge(1, 2);
  ASSERT_NE(eval.relative, 0.0);
  // relative = absolute / base, so absolute / relative recovers base > 0.
  EXPECT_GT(eval.absolute / eval.relative, 0.0);
  EXPECT_DOUBLE_EQ(eval.score(MergeScore::kRelative), eval.relative);
  EXPECT_DOUBLE_EQ(eval.score(MergeScore::kAbsolute), eval.absolute);
}

TEST(CostModelTest, TwinMergeIsFavorable) {
  // In Fig. 3, nodes a=0 and b=1 share exactly the same neighbors {c, d}:
  // merging them loses nothing, so relative reduction should be high;
  // merging a=0 with e=4 (disjoint neighborhoods) should score lower.
  Graph g = Fig3Graph();
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {}, 1.0);
  CostModel cm(g, w, s);
  MergeEval twins = cm.EvaluateMerge(0, 1);
  MergeEval strangers = cm.EvaluateMerge(0, 4);
  EXPECT_GT(twins.relative, strangers.relative);
  EXPECT_GT(twins.relative, 0.0);
}

TEST(CostModelTest, OnMergeUpdatesPiSums) {
  Graph g = PathGraph(6);
  auto w = PersonalWeights::Compute(g, {0}, 2.0);
  SummaryGraph s = SummaryGraph::Identity(g);
  CostModel cm(g, w, s);
  const double pi0 = cm.Pi(0), pi1 = cm.Pi(1);
  SupernodeId winner = s.MergeSupernodes(0, 1);
  cm.OnMerge(0, 1, winner);
  EXPECT_NEAR(cm.Pi(winner), pi0 + pi1, 1e-12);
  EXPECT_NEAR(cm.Pi2(winner), pi0 * pi0 + pi1 * pi1, 1e-12);
}

TEST(CostModelTest, MemoizedEvaluationMatchesFreshModelAfterMerge) {
  // EvaluateMerge memoizes each supernode's incident pairs and cost until
  // OnMerge. After a merge the memoized model must agree bit for bit with
  // a model built from scratch on the new partition. The merges join
  // ascending node runs, so both models sum each supernode's pi in the
  // same order.
  Graph g = GenerateBarabasiAlbert(60, 2, 11);
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {0, 5}, 1.25);
  CostModel cm(g, w, s);

  // Every pair of alive supernodes, as the bit patterns of both scores.
  auto evaluate_all = [&](CostModel& model) {
    std::vector<uint64_t> out;
    const std::vector<SupernodeId> active = s.ActiveSupernodes();
    for (size_t i = 0; i < active.size(); ++i) {
      for (size_t j = 0; j < active.size(); ++j) {
        if (i == j) continue;
        const MergeEval e = model.EvaluateMerge(active[i], active[j]);
        out.push_back(std::bit_cast<uint64_t>(e.absolute));
        out.push_back(std::bit_cast<uint64_t>(e.relative));
      }
    }
    return out;
  };

  auto merge_and_compare = [&](SupernodeId a, SupernodeId b) {
    evaluate_all(cm);  // fill the memo on the pre-merge partition
    const SupernodeId winner = s.MergeSupernodes(a, b);
    cm.OnMerge(a, b, winner);
    CostModel fresh(g, w, s);
    EXPECT_EQ(evaluate_all(cm), evaluate_all(fresh))
        << "after merging " << a << " and " << b;
    return winner;
  };
  const SupernodeId merged01 = merge_and_compare(0, 1);
  merge_and_compare(merged01, 2);
  merge_and_compare(10, 11);
}

// Integration identity: when every supernode's superedges are chosen
// optimally, the decomposed cost (Eq. 8) equals Size(G̅) + log2|V| * RE
// (Eq. 5) computed independently by the error evaluator.
TEST(CostModelTest, CostDecompositionMatchesEq5) {
  Graph g = GenerateBarabasiAlbert(40, 2, 5);
  auto w = PersonalWeights::Compute(g, {3}, 1.5);
  SummaryGraph s = SummaryGraph::Identity(g);
  CostModel cm(g, w, s);
  MergeEngine engine(g, s, cm, MergeScore::kRelative);

  // A few merges to make the summary non-trivial.
  engine.ApplyMerge(0, 1);
  engine.ApplyMerge(2, 3);
  engine.ApplyMerge(s.supernode_of(0), s.supernode_of(4));
  // Re-select all superedges under the final |S| so decisions are
  // consistent with the decomposition below.
  for (SupernodeId a : s.ActiveSupernodes()) engine.ReselectSuperedges(a);

  const uint32_t ns = s.num_supernodes();
  const double superedge_bits = CostModel::SuperedgeBits(ns);
  double pair_total = 0.0;
  auto active = s.ActiveSupernodes();
  for (size_t i = 0; i < active.size(); ++i) {
    for (size_t j = i; j < active.size(); ++j) {
      const double potential = BrutePotential(s, w, active[i], active[j]);
      const double edges = BruteEdgeWeight(g, s, w, active[i], active[j]);
      pair_total += cm.PairCost(potential, edges, superedge_bits);
    }
  }
  const double decomposed =
      static_cast<double>(g.num_nodes()) * Log2Bits(ns) + pair_total;
  const double direct = PersonalizedCost(g, s, w);
  EXPECT_NEAR(decomposed, direct, 1e-6);
}

}  // namespace
}  // namespace pegasus
