// Tests for the staged parallel summarization engine
// (src/core/parallel_engine.h): output validity, budget compliance, and
// the determinism contract — the summary is a function of the seed alone,
// never of the worker count. This suite also runs under ThreadSanitizer
// in CI (the tsan-parallel job).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iomanip>
#include <numeric>
#include <tuple>
#include <vector>

#include "src/core/parallel_engine.h"
#include "src/core/pegasus.h"
#include "src/eval/error_eval.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

Graph TestGraph(uint64_t seed = 3) {
  return GenerateBarabasiAlbert(400, 3, seed);
}

// Canonical structural snapshot of a summary: the partition plus the
// sorted weighted superedge list. Two summaries compare equal iff they
// are the same summary graph.
struct Snapshot {
  std::vector<SupernodeId> partition;
  std::vector<std::tuple<SupernodeId, SupernodeId, uint32_t>> superedges;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

Snapshot Snap(const SummaryGraph& s) {
  Snapshot snap;
  snap.partition.reserve(s.num_nodes());
  for (NodeId u = 0; u < s.num_nodes(); ++u) {
    snap.partition.push_back(s.supernode_of(u));
  }
  for (SupernodeId a : s.ActiveSupernodes()) {
    for (const auto& [b, w] : s.superedges(a)) {
      if (b >= a) snap.superedges.emplace_back(a, b, w);
    }
  }
  std::sort(snap.superedges.begin(), snap.superedges.end());
  return snap;
}

SummarizationResult RunAt(const Graph& g, int threads, uint64_t seed = 77,
                          double ratio = 0.5) {
  PegasusConfig config;
  config.seed = seed;
  config.num_threads = threads;
  return *SummarizeGraphToRatio(g, {1, 2}, ratio, config);
}

TEST(ParallelEngineTest, IdenticalSummaryForAnyWorkerCount) {
  // The core determinism guarantee: same (graph, T, k, seed) => identical
  // summary at any parallel worker count, including 0 (= hardware).
  Graph g = TestGraph();
  const SummarizationResult base = RunAt(g, 2);
  const Snapshot want = Snap(base.summary);
  for (int threads : {0, 3, 4, 8}) {
    const SummarizationResult r = RunAt(g, threads);
    EXPECT_EQ(Snap(r.summary), want) << "num_threads=" << threads;
    EXPECT_DOUBLE_EQ(r.final_size_bits, base.final_size_bits)
        << "num_threads=" << threads;
    EXPECT_EQ(r.merge_stats.merges, base.merge_stats.merges);
    EXPECT_EQ(r.merge_stats.evaluations, base.merge_stats.evaluations);
    EXPECT_EQ(r.merge_stats.failures, base.merge_stats.failures);
    EXPECT_EQ(r.iterations_run, base.iterations_run);
  }
}

TEST(ParallelEngineTest, RunToRunDeterminism) {
  Graph g = TestGraph(5);
  const SummarizationResult r1 = RunAt(g, 4, /*seed=*/123);
  const SummarizationResult r2 = RunAt(g, 4, /*seed=*/123);
  EXPECT_EQ(Snap(r1.summary), Snap(r2.summary));
  EXPECT_DOUBLE_EQ(r1.final_size_bits, r2.final_size_bits);
}

TEST(ParallelEngineTest, DifferentSeedsGiveDifferentSummaries) {
  Graph g = TestGraph(5);
  const SummarizationResult r1 = RunAt(g, 4, /*seed=*/1);
  const SummarizationResult r2 = RunAt(g, 4, /*seed=*/2);
  EXPECT_NE(Snap(r1.summary), Snap(r2.summary));
}

TEST(ParallelEngineTest, MeetsBudget) {
  Graph g = TestGraph();
  for (double ratio : {0.3, 0.5, 0.8}) {
    const SummarizationResult r = RunAt(g, 4, 77, ratio);
    EXPECT_LE(r.final_size_bits, ratio * g.SizeInBits() + 1e-9)
        << "ratio " << ratio;
    EXPECT_LE(CompressionRatio(g, r.summary), ratio + 1e-9);
  }
}

TEST(ParallelEngineTest, OutputIsValidPartition) {
  Graph g = TestGraph();
  const SummarizationResult r = RunAt(g, 4, 9, 0.4);
  const SummaryGraph& s = r.summary;
  std::vector<uint32_t> seen(g.num_nodes(), 0);
  for (SupernodeId a : s.ActiveSupernodes()) {
    for (NodeId u : s.members(a)) {
      EXPECT_EQ(s.supernode_of(u), a);
      ++seen[u];
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) EXPECT_EQ(seen[u], 1u);
}

TEST(ParallelEngineTest, SuperedgesOnlyBetweenAliveSupernodes) {
  Graph g = TestGraph();
  const SummarizationResult r = RunAt(g, 8);
  const SummaryGraph& s = r.summary;
  for (SupernodeId a : s.ActiveSupernodes()) {
    for (const auto& [b, w] : s.superedges(a)) {
      EXPECT_TRUE(s.alive(b));
      EXPECT_GE(w, 1u);
    }
  }
}

TEST(ParallelEngineTest, SuperedgeAdjacencyIsSymmetric) {
  Graph g = TestGraph(11);
  const SummarizationResult r = RunAt(g, 4, 3, 0.6);
  const SummaryGraph& s = r.summary;
  for (SupernodeId a : s.ActiveSupernodes()) {
    for (const auto& [b, w] : s.superedges(a)) {
      EXPECT_EQ(s.SuperedgeWeight(b, a), w) << a << " ~ " << b;
    }
  }
}

TEST(ParallelEngineTest, MergeStatsPopulated) {
  Graph g = TestGraph(15);
  const SummarizationResult r = RunAt(g, 4, 77, 0.3);
  EXPECT_GT(r.merge_stats.merges, 0u);
  EXPECT_GT(r.merge_stats.evaluations, r.merge_stats.merges);
  EXPECT_GT(r.elapsed_seconds, 0.0);
}

TEST(ParallelEngineTest, TightBudgetTerminatesAndSparsifies) {
  // Mirror of the serial endgame behavior: a 5% budget forces the summary
  // below the membership-bits floor, dropping every superedge.
  Graph g = TestGraph();
  PegasusConfig config;
  config.max_iterations = 3;
  config.num_threads = 4;
  const auto r = *SummarizeGraphToRatio(g, {}, 0.05, config);
  EXPECT_LE(r.final_size_bits, 0.05 * g.SizeInBits() + 1e-9);
  EXPECT_EQ(r.summary.num_superedges(), 0u);
}

TEST(ParallelEngineTest, TinyGraphTinyBudgetTerminates) {
  Graph g = ::pegasus::testing::TwoCliquesGraph(6);
  PegasusConfig config;
  config.max_iterations = 5;
  config.num_threads = 2;
  const auto r = *SummarizeGraph(g, {0}, /*budget_bits=*/1.0, config);
  EXPECT_EQ(r.summary.num_superedges(), 0u);
}

TEST(ParallelEngineTest, PersonalizationReducesTargetError) {
  // The paper's core claim must survive the parallel schedule.
  Graph g = GenerateBarabasiAlbert(300, 4, 11);
  std::vector<NodeId> targets{0, 7, 13};

  PegasusConfig personalized;
  personalized.alpha = 1.5;
  personalized.seed = 5;
  personalized.num_threads = 4;
  const auto p = *SummarizeGraphToRatio(g, targets, 0.4, personalized);

  PegasusConfig plain = personalized;
  plain.alpha = 1.0;
  const auto np = *SummarizeGraphToRatio(g, {}, 0.4, plain);

  const auto eval_weights = PersonalWeights::Compute(g, targets, 1.5);
  EXPECT_LT(PersonalizedError(g, p.summary, eval_weights),
            PersonalizedError(g, np.summary, eval_weights));
}

// Bitwise equality of two plans, failure scores compared by bit pattern.
void ExpectSamePlan(const GroupPlan& got, const GroupPlan& want) {
  EXPECT_EQ(got.merges, want.merges);
  EXPECT_EQ(got.evaluations, want.evaluations);
  ASSERT_EQ(got.failures.size(), want.failures.size());
  for (size_t i = 0; i < got.failures.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.failures[i]),
              std::bit_cast<uint64_t>(want.failures[i]))
        << "failure " << i;
  }
}

TEST(ParallelEngineTest, ReusedPlannerMatchesFreshPlannerPerGroup) {
  // A planner keeps its memoized views and scratch across groups, so the
  // group start must invalidate every memoized view. Plan a large group,
  // a small one, another large one and the first again on one planner;
  // each plan must equal that of a fresh planner for the group alone.
  const Graph g = TestGraph();
  const SummaryGraph s = SummaryGraph::Identity(g);
  const PersonalWeights w = PersonalWeights::Compute(g, {1, 2}, 1.25);
  const CostModel cost(g, w, s);

  std::vector<SupernodeId> large_a(64);
  std::iota(large_a.begin(), large_a.end(), 0);  // hub-heavy low ids
  const std::vector<SupernodeId> small = {150, 151, 152, 153};
  std::vector<SupernodeId> large_b(48);
  std::iota(large_b.begin(), large_b.end(), 300);
  const std::vector<std::vector<SupernodeId>> sequence = {large_a, small,
                                                          large_b, large_a};

  uint64_t merges = 0;
  for (double theta : {0.0, -0.2}) {
    SCOPED_TRACE(theta);
    GroupMergePlanner reused(g, s, cost, MergeScore::kRelative);
    for (size_t i = 0; i < sequence.size(); ++i) {
      SCOPED_TRACE(i);
      const uint64_t seed = 1000 + sequence[i].front();
      GroupMergePlanner fresh(g, s, cost, MergeScore::kRelative);
      const GroupPlan want =
          fresh.PlanGroup(sequence[i], theta, s.num_supernodes(), seed);
      ExpectSamePlan(
          reused.PlanGroup(sequence[i], theta, s.num_supernodes(), seed),
          want);
      merges += want.merges.size();
    }
  }
  // Merges inside a group are what invalidate views mid-group; make sure
  // the fixture exercises them.
  EXPECT_GT(merges, 0u);
}

// Folds one plan into an FNV hash: its merge pairs, its failure scores by
// bit pattern, and its evaluation count.
uint64_t HashPlan(uint64_t h, const GroupPlan& plan) {
  using ::pegasus::testing::HashWord;
  h = HashWord(h, plan.merges.size());
  for (const auto& [a, b] : plan.merges) {
    h = HashWord(h, a);
    h = HashWord(h, b);
  }
  h = HashWord(h, plan.failures.size());
  for (double f : plan.failures) h = HashWord(h, std::bit_cast<uint64_t>(f));
  return HashWord(h, plan.evaluations);
}

TEST(ParallelEngineTest, GroupPlansOfFirstRoundsArePinned) {
  // Pins the planner at group granularity: every GroupPlan of the first
  // two rounds on the hub-heavy Skitter* fixture of determinism_test
  // (ParallelPathMatchesGoldenHubHeavySkitter), hashed per round. The
  // summary-level goldens only see the applied merges; this also pins
  // the order of every decision, the rejected scores that feed the
  // adaptive threshold, and the evaluation count of each group.
  const Graph g = MakeDataset(DatasetId::kSkitter, DatasetScale::kTiny).graph;
  Rng rng(SplitMix64(/*seed=*/11));
  const std::vector<uint64_t> raw = rng.SampleDistinct(g.num_nodes(), 10);
  const std::vector<NodeId> targets(raw.begin(), raw.end());
  PegasusConfig config;
  config.seed = 1;

  SummaryGraph summary = SummaryGraph::Identity(g);
  const PersonalWeights w = PersonalWeights::Compute(g, targets, config.alpha);
  CostModel cost(g, w, summary, config.encoding);
  Executor pool(4);
  ParallelEngine engine(g, summary, cost, config.merge_score, config.groups,
                        pool);
  GroupMergePlanner planner(g, summary, cost, config.merge_score);
  ThresholdPolicy threshold(config.threshold_rule, config.beta,
                            config.max_iterations);

  const uint64_t kPinned[2] = {0x39d7addda82909d8ULL, 0x0ff41b6d66d7b9aaULL};
  for (int t = 1; t <= 2; ++t) {
    SCOPED_TRACE(t);
    // The round and group seed derivations of DriveToBudget and
    // ParallelEngine::RunRound.
    const uint64_t round_seed =
        SplitMix64(config.seed + 0x9e3779b97f4a7c15ULL * t);
    const std::vector<std::vector<SupernodeId>> groups =
        GenerateCandidateGroupsParallel(g, summary, round_seed, config.groups,
                                        pool);
    uint64_t h = ::pegasus::testing::kFnvOffset64;
    MergeStats planned;
    for (const std::vector<SupernodeId>& group : groups) {
      const SupernodeId min_id = *std::min_element(group.begin(), group.end());
      const uint64_t group_seed =
          round_seed ^ SplitMix64(0x8bb84b93962eacc9ULL + min_id);
      const GroupPlan plan = planner.PlanGroup(
          group, threshold.theta(), summary.num_supernodes(), group_seed);
      h = HashPlan(h, plan);
      planned.merges += plan.merges.size();
      planned.evaluations += plan.evaluations;
    }
    // The engine must run exactly the plans hashed above.
    const MergeStats before = engine.stats();
    EXPECT_EQ(engine.RunRound(round_seed, threshold), planned.merges);
    EXPECT_EQ(engine.stats().evaluations - before.evaluations,
              planned.evaluations);
    EXPECT_GT(planned.merges, 0u);
    EXPECT_EQ(h, kPinned[t - 1])
        << "actual " << std::hex << std::showbase << h;
    threshold.EndIteration(t + 1);
  }
}

}  // namespace
}  // namespace pegasus
