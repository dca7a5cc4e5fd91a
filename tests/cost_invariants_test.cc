// Property tests on the cost model's algebraic invariants, checked over
// random graphs and random merge sequences.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/cost_model.h"
#include "src/core/merge_engine.h"
#include "src/core/personal_weights.h"
#include "src/graph/generators.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

struct RandomizedFixture {
  RandomizedFixture(uint64_t seed, double alpha,
                    std::vector<NodeId> targets)
      : graph(GenerateBarabasiAlbertTails(120, 3, 0.5, seed)),
        summary(SummaryGraph::Identity(graph)),
        weights(PersonalWeights::Compute(graph, targets, alpha)),
        cost(graph, weights, summary),
        engine(graph, summary, cost, MergeScore::kRelative),
        rng(seed ^ 0xabcdULL) {}

  // Performs `count` random merges through the engine.
  void RandomMerges(int count) {
    for (int i = 0; i < count; ++i) {
      auto active = summary.ActiveSupernodes();
      if (active.size() < 2) break;
      size_t x = static_cast<size_t>(rng.Uniform(active.size()));
      size_t y = static_cast<size_t>(rng.Uniform(active.size() - 1));
      if (y >= x) ++y;
      engine.ApplyMerge(active[x], active[y]);
    }
  }

  Graph graph;
  SummaryGraph summary;
  PersonalWeights weights;
  CostModel cost;
  MergeEngine engine;
  Rng rng;
};

class CostInvariantsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CostInvariantsTest, EvaluateMergeIsSymmetric) {
  RandomizedFixture f(GetParam(), 1.5, {0, 1});
  f.RandomMerges(30);
  auto active = f.summary.ActiveSupernodes();
  for (int i = 0; i < 15; ++i) {
    size_t x = static_cast<size_t>(f.rng.Uniform(active.size()));
    size_t y = static_cast<size_t>(f.rng.Uniform(active.size() - 1));
    if (y >= x) ++y;
    MergeEval ab = f.cost.EvaluateMerge(active[x], active[y]);
    MergeEval ba = f.cost.EvaluateMerge(active[y], active[x]);
    EXPECT_NEAR(ab.absolute, ba.absolute, 1e-7);
    EXPECT_NEAR(ab.relative, ba.relative, 1e-7);
  }
}

TEST_P(CostInvariantsTest, PiSumsMatchMembers) {
  RandomizedFixture f(GetParam(), 1.25, {3});
  f.RandomMerges(40);
  for (SupernodeId a : f.summary.ActiveSupernodes()) {
    double pi = 0.0, pi2 = 0.0;
    for (NodeId u : f.summary.members(a)) {
      pi += f.weights.pi(u);
      pi2 += f.weights.pi(u) * f.weights.pi(u);
    }
    EXPECT_NEAR(f.cost.Pi(a), pi, 1e-9);
    EXPECT_NEAR(f.cost.Pi2(a), pi2, 1e-9);
  }
}

TEST_P(CostInvariantsTest, IncidentEdgeCountsSumToDegrees) {
  RandomizedFixture f(GetParam(), 1.25, {});
  f.RandomMerges(25);
  std::vector<IncidentPair> incident;
  uint64_t total_cross = 0, total_self = 0;
  for (SupernodeId a : f.summary.ActiveSupernodes()) {
    f.cost.CollectIncident(a, incident);
    for (const IncidentPair& p : incident) {
      if (p.neighbor == a) {
        total_self += p.edge_count;
      } else {
        total_cross += p.edge_count;
      }
    }
  }
  // Every cross edge is seen from both sides; self edges once per block.
  EXPECT_EQ(total_cross / 2 + total_self, f.graph.num_edges());
}

TEST_P(CostInvariantsTest, SupernodeCostsNonNegative) {
  RandomizedFixture f(GetParam(), 1.75, {0});
  f.RandomMerges(35);
  for (SupernodeId a : f.summary.ActiveSupernodes()) {
    EXPECT_GE(f.cost.SupernodeCost(a), -1e-9);
  }
}

TEST_P(CostInvariantsTest, PotentialDominatesEdgeWeight) {
  RandomizedFixture f(GetParam(), 1.5, {0, 5});
  f.RandomMerges(30);
  std::vector<IncidentPair> incident;
  for (SupernodeId a : f.summary.ActiveSupernodes()) {
    f.cost.CollectIncident(a, incident);
    for (const IncidentPair& p : incident) {
      // The weight of real edges in a block can never exceed the block's
      // total pair weight.
      EXPECT_LE(p.edge_weight,
                f.cost.PairPotential(a, p.neighbor) + 1e-6)
          << "block " << a << "," << p.neighbor;
    }
  }
}

TEST_P(CostInvariantsTest, ReselectionMatchesBenefitRule) {
  // After ReselectSuperedges, the stored superedges of a supernode are
  // exactly the incident pairs the benefit rule approves (Alg. 2 line 9).
  RandomizedFixture f(GetParam(), 1.25, {2});
  f.RandomMerges(30);
  std::vector<IncidentPair> incident;
  for (SupernodeId a : f.summary.ActiveSupernodes()) {
    f.engine.ReselectSuperedges(a);
    f.cost.CollectIncident(a, incident);
    size_t beneficial_count = 0;
    for (const IncidentPair& p : incident) {
      const bool beneficial = f.cost.SuperedgeBeneficial(
          f.cost.PairPotential(a, p.neighbor), p.edge_weight,
          CostModel::SuperedgeBits(f.summary.num_supernodes()));
      EXPECT_EQ(f.summary.HasSuperedge(a, p.neighbor), beneficial)
          << "pair " << a << "," << p.neighbor;
      beneficial_count += beneficial;
    }
    // No superedges outside the incident set.
    EXPECT_EQ(f.summary.superedges(a).size(), beneficial_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostInvariantsTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace pegasus
