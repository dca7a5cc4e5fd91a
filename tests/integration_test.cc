// End-to-end and parameterized property tests spanning multiple modules:
// the full PeGaSus pipeline on the dataset analogs, budget/alpha sweeps,
// and cross-checks between summarizers, queries, and the error evaluator.

#include <gtest/gtest.h>

#include <tuple>

#include "src/baselines/ssumm.h"
#include "src/core/pegasus.h"
#include "src/core/personal_weights.h"
#include "src/distributed/experiment.h"
#include "src/eval/error_eval.h"
#include "src/eval/metrics.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"
#include "src/util/rng.h"

namespace pegasus {
namespace {

// ---------------------------------------------------------------------------
// Budget sweep: for every dataset analog and every ratio, PeGaSus must meet
// the budget and produce a valid partition.
class BudgetSweepTest
    : public ::testing::TestWithParam<std::tuple<DatasetId, double>> {};

TEST_P(BudgetSweepTest, MeetsBudgetWithValidOutput) {
  const auto [id, ratio] = GetParam();
  Dataset ds = MakeDataset(id, DatasetScale::kTiny);
  const Graph& g = ds.graph;
  PegasusConfig config;
  config.max_iterations = 10;
  auto result = *SummarizeGraphToRatio(g, {0, 1}, ratio, config);
  EXPECT_LE(result.final_size_bits, ratio * g.SizeInBits() + 1e-9);

  std::vector<uint32_t> seen(g.num_nodes(), 0);
  for (SupernodeId a : result.summary.ActiveSupernodes()) {
    for (NodeId u : result.summary.members(a)) ++seen[u];
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) ASSERT_EQ(seen[u], 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, BudgetSweepTest,
    ::testing::Combine(::testing::Values(DatasetId::kLastFmAsia,
                                         DatasetId::kCaida, DatasetId::kDblp,
                                         DatasetId::kAmazon,
                                         DatasetId::kSkitter,
                                         DatasetId::kWikipedia),
                       ::testing::Values(0.3, 0.5, 0.7)));

// ---------------------------------------------------------------------------
// Alpha sweep: every degree of personalization yields a well-formed
// summary, and the evaluator agrees with the weights' normalization.
class AlphaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweepTest, SummarizesAndEvaluates) {
  const double alpha = GetParam();
  Graph g = GenerateBarabasiAlbert(300, 3, 71);
  PegasusConfig config;
  config.alpha = alpha;
  config.max_iterations = 8;
  std::vector<NodeId> targets{0, 10, 20};
  auto result = *SummarizeGraphToRatio(g, targets, 0.5, config);
  EXPECT_LE(result.final_size_bits, 0.5 * g.SizeInBits() + 1e-9);
  auto w = PersonalWeights::Compute(g, targets, alpha);
  EXPECT_GE(PersonalizedError(g, result.summary, w), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweepTest,
                         ::testing::Values(1.0, 1.05, 1.25, 1.5, 1.75, 2.0));

// ---------------------------------------------------------------------------
// Beta sweep: the adaptive threshold works across its whole range.
class BetaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(BetaSweepTest, Summarizes) {
  Graph g = GenerateBarabasiAlbert(250, 3, 72);
  PegasusConfig config;
  config.beta = GetParam();
  config.max_iterations = 8;
  auto result = *SummarizeGraphToRatio(g, {5}, 0.4, config);
  EXPECT_LE(result.final_size_bits, 0.4 * g.SizeInBits() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Betas, BetaSweepTest,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.9));

// ---------------------------------------------------------------------------
// Query pipeline: summary-based answers must beat a constant-vector
// baseline on Spearman correlation for all three query types.
TEST(IntegrationTest, SummaryAnswersCorrelateWithTruth) {
  Dataset ds = MakeDataset(DatasetId::kLastFmAsia, DatasetScale::kTiny, 73);
  const Graph& g = ds.graph;
  Rng rng(73);
  std::vector<NodeId> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(static_cast<NodeId>(rng.Uniform(g.num_nodes())));
  }
  PegasusConfig config;
  config.alpha = 1.25;
  auto result = *SummarizeGraphToRatio(g, queries, 0.5, config);
  for (QueryType type : {QueryType::kRwr, QueryType::kHop, QueryType::kPhp}) {
    auto acc = MeasureSummaryAccuracy(g, result.summary, queries, type);
    EXPECT_GT(acc.spearman, 0.2) << "query type " << static_cast<int>(type);
    EXPECT_LT(acc.smape, 0.9);
  }
}

// Personalized beats non-personalized on target-node queries at the same
// budget — the headline result of Fig. 7, checked end to end.
TEST(IntegrationTest, PersonalizationImprovesTargetQueryAccuracy) {
  Dataset ds = MakeDataset(DatasetId::kLastFmAsia, DatasetScale::kSmall, 74);
  const Graph& g = ds.graph;
  Rng rng(74);
  std::vector<NodeId> targets;
  for (uint64_t raw : rng.SampleDistinct(g.num_nodes(), 10)) {
    targets.push_back(static_cast<NodeId>(raw));
  }

  PegasusConfig config;
  config.alpha = 1.25;
  config.seed = 7;
  auto personalized = *SummarizeGraphToRatio(g, targets, 0.5, config);
  auto plain = *SsummSummarizeToRatio(g, 0.5, {.seed = 7});

  // Aggregate RWR + HOP SMAPE over the target nodes; the single-dataset,
  // single-seed comparison is deterministic.
  double p_score = 0.0, np_score = 0.0;
  for (QueryType type : {QueryType::kRwr, QueryType::kHop}) {
    p_score +=
        MeasureSummaryAccuracy(g, personalized.summary, targets, type).smape;
    np_score += MeasureSummaryAccuracy(g, plain.summary, targets, type).smape;
  }
  EXPECT_LT(p_score, np_score);
}

// The summary is a drop-in graph substitute: BFS via Alg. 4 neighbor
// queries agrees with BFS on the materialized reconstruction.
TEST(IntegrationTest, SummaryBfsEqualsReconstructedBfs) {
  Graph g = GenerateBarabasiAlbert(120, 2, 75);
  auto result = *SummarizeGraphToRatio(g, {0}, 0.5);
  Graph reconstructed = result.summary.Reconstruct();
  const SummaryView view(result.summary);
  for (NodeId q : {0u, 17u, 63u}) {
    auto via_summary = FastSummaryHopDistances(view, q);
    auto via_graph = ExactHopDistances(reconstructed, q);
    EXPECT_EQ(via_summary, via_graph) << "query " << q;
  }
}

// Error monotonicity: tighter budgets cannot decrease the personalized
// error (checked across three budgets with a shared seed).
TEST(IntegrationTest, ErrorMonotoneInBudget) {
  Graph g = GenerateBarabasiAlbert(400, 3, 76);
  std::vector<NodeId> targets{1, 2, 3};
  PegasusConfig config;
  config.seed = 11;
  auto w = PersonalWeights::Compute(g, targets, config.alpha);
  double prev_error = -1.0;
  for (double ratio : {0.9, 0.5, 0.2}) {
    auto result = *SummarizeGraphToRatio(g, targets, ratio, config);
    const double err = PersonalizedError(g, result.summary, w);
    EXPECT_GE(err, prev_error) << "ratio " << ratio;
    prev_error = err;
  }
}

}  // namespace
}  // namespace pegasus
