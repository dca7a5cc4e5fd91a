#include <gtest/gtest.h>

#include <limits>

#include "src/core/pegasus.h"
#include "src/core/personal_weights.h"
#include "src/util/bits.h"
#include "src/eval/error_eval.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

Graph TestGraph(uint64_t seed = 3) {
  return GenerateBarabasiAlbert(400, 3, seed);
}

TEST(PegasusTest, MeetsBudget) {
  Graph g = TestGraph();
  for (double ratio : {0.3, 0.5, 0.8}) {
    auto result = *SummarizeGraphToRatio(g, {0, 1, 2}, ratio);
    EXPECT_LE(result.final_size_bits, ratio * g.SizeInBits() + 1e-9)
        << "ratio " << ratio;
    EXPECT_LE(CompressionRatio(g, result.summary), ratio + 1e-9);
  }
}

TEST(PegasusTest, OutputIsValidPartition) {
  Graph g = TestGraph();
  auto result = *SummarizeGraphToRatio(g, {5}, 0.4);
  const SummaryGraph& s = result.summary;
  // Every node belongs to exactly one alive supernode that lists it.
  std::vector<uint32_t> seen(g.num_nodes(), 0);
  for (SupernodeId a : s.ActiveSupernodes()) {
    for (NodeId u : s.members(a)) {
      EXPECT_EQ(s.supernode_of(u), a);
      ++seen[u];
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) EXPECT_EQ(seen[u], 1u);
}

TEST(PegasusTest, SuperedgesOnlyBetweenAliveSupernodes) {
  Graph g = TestGraph();
  auto result = *SummarizeGraphToRatio(g, {}, 0.5);
  const SummaryGraph& s = result.summary;
  for (SupernodeId a : s.ActiveSupernodes()) {
    for (const auto& [b, w] : s.superedges(a)) {
      EXPECT_TRUE(s.alive(b));
      EXPECT_GE(w, 1u);
    }
  }
}

TEST(PegasusTest, DeterministicForSeed) {
  Graph g = TestGraph();
  PegasusConfig config;
  config.seed = 77;
  auto r1 = *SummarizeGraphToRatio(g, {1, 2}, 0.5, config);
  auto r2 = *SummarizeGraphToRatio(g, {1, 2}, 0.5, config);
  EXPECT_EQ(r1.summary.num_supernodes(), r2.summary.num_supernodes());
  EXPECT_EQ(r1.summary.num_superedges(), r2.summary.num_superedges());
  EXPECT_DOUBLE_EQ(r1.final_size_bits, r2.final_size_bits);
}

TEST(PegasusTest, StopsEarlyWhenBudgetGenerous) {
  Graph g = TestGraph();
  auto result = *SummarizeGraphToRatio(g, {}, 0.99);
  EXPECT_LT(result.iterations_run, 20);
}

TEST(PegasusTest, RunsAllIterationsWhenBudgetTight) {
  // A 5% budget is below even the supernode-membership bits after 3
  // iterations, so PeGaSus uses every iteration and the sparsifier then
  // drops every superedge (the closest reachable size).
  Graph g = TestGraph();
  PegasusConfig config;
  config.max_iterations = 3;
  auto result = *SummarizeGraphToRatio(g, {}, 0.05, config);
  EXPECT_EQ(result.iterations_run, 3);
  EXPECT_EQ(result.summary.num_superedges(), 0u);
  // What remains is exactly the membership encoding |V| log2 |S|.
  EXPECT_DOUBLE_EQ(result.final_size_bits,
                   g.num_nodes() *
                       Log2Bits(result.summary.num_supernodes()));
}

TEST(PegasusTest, PersonalizationReducesTargetError) {
  // The core claim (Fig. 5): with the same budget, the summary built for
  // target set T has lower personalized error at T than the
  // non-personalized summary.
  Dataset ds = MakeDataset(DatasetId::kLastFmAsia, DatasetScale::kTiny, 11);
  const Graph& g = ds.graph;
  std::vector<NodeId> targets{0, 7, 13};

  PegasusConfig personalized;
  personalized.alpha = 1.5;
  personalized.seed = 5;
  auto p = *SummarizeGraphToRatio(g, targets, 0.4, personalized);

  PegasusConfig plain = personalized;
  plain.alpha = 1.0;
  auto np = *SummarizeGraphToRatio(g, {}, 0.4, plain);

  auto eval_weights = PersonalWeights::Compute(g, targets, 1.5);
  const double err_p = PersonalizedError(g, p.summary, eval_weights);
  const double err_np = PersonalizedError(g, np.summary, eval_weights);
  EXPECT_LT(err_p, err_np);
}

TEST(PegasusTest, AlphaOneMatchesUniformObjective) {
  // With alpha = 1 the personalized error equals the plain reconstruction
  // error for any summary.
  Graph g = TestGraph(9);
  auto result = *SummarizeGraphToRatio(g, {0, 1}, 0.5);
  auto uniform = PersonalWeights::Compute(g, {}, 1.0);
  EXPECT_NEAR(PersonalizedError(g, result.summary, uniform),
              ReconstructionError(g, result.summary), 1e-6);
}

TEST(PegasusTest, AbsoluteScoreAblationRuns) {
  Graph g = TestGraph(13);
  PegasusConfig config;
  config.merge_score = MergeScore::kAbsolute;
  auto result = *SummarizeGraphToRatio(g, {2}, 0.5, config);
  EXPECT_LE(result.final_size_bits, 0.5 * g.SizeInBits());
}

TEST(PegasusTest, TinyBudgetStillTerminates) {
  Graph g = ::pegasus::testing::TwoCliquesGraph(6);
  PegasusConfig config;
  config.max_iterations = 5;
  auto result = *SummarizeGraph(g, {0}, /*budget_bits=*/1.0, config);
  EXPECT_EQ(result.summary.num_superedges(), 0u);
}

TEST(PegasusTest, MergeStatsPopulated) {
  Graph g = TestGraph(15);
  auto result = *SummarizeGraphToRatio(g, {}, 0.3);
  EXPECT_GT(result.merge_stats.merges, 0u);
  EXPECT_GT(result.merge_stats.evaluations, result.merge_stats.merges);
  EXPECT_GT(result.elapsed_seconds, 0.0);
}

// The pipeline entry points return typed Status errors instead of
// asserting (or silently mis-running) on bad inputs (ISSUE 5).
TEST(PegasusTest, InvalidInputsRejectedTyped) {
  Graph g = TestGraph(12);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // Ratio outside (0, 1].
  for (double ratio : {0.0, -0.5, 1.5, nan}) {
    const auto r = SummarizeGraphToRatio(g, {}, ratio);
    ASSERT_FALSE(r.ok()) << ratio;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << ratio;
  }
  // Negative budget (zero stays valid: it is what any ratio yields on an
  // edgeless graph, and means "compress as far as possible").
  EXPECT_EQ(SummarizeGraph(g, {}, -1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(SummarizeGraph(g, {}, 0.0).ok());
  // Bad config fields.
  PegasusConfig bad_alpha;
  bad_alpha.alpha = 0.5;
  EXPECT_EQ(SummarizeGraph(g, {}, 100.0, bad_alpha).status().code(),
            StatusCode::kInvalidArgument);
  PegasusConfig bad_beta;
  bad_beta.beta = 1.5;
  EXPECT_EQ(SummarizeGraph(g, {}, 100.0, bad_beta).status().code(),
            StatusCode::kInvalidArgument);
  PegasusConfig bad_iters;
  bad_iters.max_iterations = 0;
  EXPECT_EQ(SummarizeGraph(g, {}, 100.0, bad_iters).status().code(),
            StatusCode::kInvalidArgument);
  PegasusConfig bad_threads;
  bad_threads.num_threads = -2;
  EXPECT_EQ(SummarizeGraph(g, {}, 100.0, bad_threads).status().code(),
            StatusCode::kInvalidArgument);
  // Target out of range; the message names the offender.
  const auto bad_target = SummarizeGraph(g, {g.num_nodes()}, 100.0);
  ASSERT_FALSE(bad_target.ok());
  EXPECT_EQ(bad_target.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(bad_target.status().message().find("target 0"),
            std::string::npos)
      << bad_target.status().message();
  // Boundary values that must stay accepted.
  PegasusConfig boundary;
  boundary.beta = 0.0;
  boundary.alpha = 1.0;
  EXPECT_TRUE(SummarizeGraphToRatio(g, {}, 1.0, boundary).ok());
}

}  // namespace
}  // namespace pegasus
