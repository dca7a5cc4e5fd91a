// Determinism suite for the threading model (ISSUE 2) and the canonical
// query order (ISSUE 5):
//
//  1. num_threads = 1 must reproduce the pre-parallel-engine serial
//     output bit-for-bit — pinned here against golden fixtures captured
//     from the implementation before the parallel engine landed.
//  2. The same (graph, T, k, seed) must yield an identical summary at
//     every thread count of the parallel engine (num_threads in {2, 8}
//     here; the broader sweep lives in parallel_engine_test.cc), and each
//     setting must be run-to-run deterministic.
//  3. The parallel engine (num_threads >= 2, what shard-build and the
//     benchmark set-ups run) is pinned across commits too: fixed seeds
//     must reproduce checked-in counts and a hash of the partition and
//     superedge set, so a planner change that alters its summaries fails
//     here rather than only in run-to-run comparisons.
//  4. Every query family's answer bytes must match checked-in golden
//     hashes (tests/test_util.h). The canonical sorted-adjacency pipeline
//     fixes every floating-point summation order by the data alone, so
//     these hashes must agree across standard libraries (gcc/libstdc++
//     and clang/libc++ both run this suite in CI), platforms, and thread
//     counts.
//
// The golden numbers pin the serial merge *schedule*, which consumes one
// shared Rng stream — any accidental reordering of draws or evaluations
// shows up as a changed supernode count long before it shows up in
// quality metrics. They were captured on glibc/x86-64; a libm that rounds
// log2 differently in the last ulp could in principle flip a
// near-tie merge decision, so if this test ever fails on an exotic
// platform while pegasus_test passes, re-pin the constants rather than
// suspecting the engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <tuple>
#include <vector>

#include "src/core/pegasus.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/query/query_engine.h"
#include "src/query/summary_view.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

struct GoldenCase {
  NodeId nodes;
  int attach;          // Barabasi-Albert edges per new node
  uint64_t graph_seed;
  uint64_t run_seed;
  double alpha;
  int max_iterations;
  double ratio;
  std::vector<NodeId> targets;
  // Expected pre-PR serial output.
  uint32_t supernodes;
  uint64_t superedges;
  double size_bits;
  uint64_t merges;
  uint64_t evaluations;
  uint64_t failures;
  int iterations;
  uint64_t dropped;
};

SummarizationResult RunCase(
    const GoldenCase& c, int num_threads,
    EncodingScheme encoding = EncodingScheme::kErrorCorrection,
    MergeScore score = MergeScore::kRelative) {
  Graph g = GenerateBarabasiAlbert(c.nodes, c.attach, c.graph_seed);
  PegasusConfig config;
  config.seed = c.run_seed;
  config.encoding = encoding;
  config.merge_score = score;
  config.alpha = c.alpha;
  config.max_iterations = c.max_iterations;
  config.num_threads = num_threads;
  return *SummarizeGraphToRatio(g, c.targets, c.ratio, config);
}

// Captured from the serial implementation at the commit introducing the
// parallel engine (identical to the pre-PR implementation on these
// fixtures; verified by building both).
const GoldenCase kGoldenA{400, 3, 3, 77, 1.25, 20, 0.5, {1, 2},
                          248, 448, 10308.638418, 152, 9216, 1604, 9, 0};
const GoldenCase kGoldenB{250, 4, 9, 12345, 1.5, 8, 0.3, {0, 5, 9},
                          175, 192, 4724.067845, 75, 6682, 874, 8, 265};

void ExpectMatchesGolden(const GoldenCase& c) {
  const SummarizationResult r = RunCase(c, /*num_threads=*/1);
  EXPECT_EQ(r.summary.num_supernodes(), c.supernodes);
  EXPECT_EQ(r.summary.num_superedges(), c.superedges);
  EXPECT_NEAR(r.final_size_bits, c.size_bits, 1e-4);
  EXPECT_EQ(r.merge_stats.merges, c.merges);
  EXPECT_EQ(r.merge_stats.evaluations, c.evaluations);
  EXPECT_EQ(r.merge_stats.failures, c.failures);
  EXPECT_EQ(r.iterations_run, c.iterations);
  EXPECT_EQ(r.superedges_dropped, c.dropped);
}

TEST(DeterminismTest, SerialPathReproducesPrePrOutputFixtureA) {
  ExpectMatchesGolden(kGoldenA);
}

TEST(DeterminismTest, SerialPathReproducesPrePrOutputFixtureB) {
  ExpectMatchesGolden(kGoldenB);
}

using SuperedgeTuple = std::tuple<SupernodeId, SupernodeId, uint32_t>;

// Every superedge once, as (a <= b, weight), in ascending order.
std::vector<SuperedgeTuple> SortedSuperedges(const SummaryGraph& s) {
  std::vector<SuperedgeTuple> out;
  for (SupernodeId a : s.ActiveSupernodes()) {
    for (const auto& [b, w] : s.superedges(a)) {
      if (b >= a) out.emplace_back(a, b, w);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Full structural equality of two summaries.
void ExpectSameSummary(const SummaryGraph& x, const SummaryGraph& y) {
  ASSERT_EQ(x.num_nodes(), y.num_nodes());
  EXPECT_EQ(x.num_supernodes(), y.num_supernodes());
  ASSERT_EQ(x.num_superedges(), y.num_superedges());
  for (NodeId u = 0; u < x.num_nodes(); ++u) {
    ASSERT_EQ(x.supernode_of(u), y.supernode_of(u)) << "node " << u;
  }
  EXPECT_EQ(SortedSuperedges(x), SortedSuperedges(y));
}

TEST(DeterminismTest, EachThreadCountIsRunToRunDeterministic) {
  for (int threads : {1, 2, 8}) {
    const SummarizationResult r1 = RunCase(kGoldenA, threads);
    const SummarizationResult r2 = RunCase(kGoldenA, threads);
    SCOPED_TRACE(threads);
    ExpectSameSummary(r1.summary, r2.summary);
    EXPECT_DOUBLE_EQ(r1.final_size_bits, r2.final_size_bits);
    EXPECT_EQ(r1.merge_stats.merges, r2.merge_stats.merges);
  }
}

TEST(DeterminismTest, SummaryCostIdenticalAcrossParallelThreadCounts) {
  // The parallel engine's summary (and therefore its cost) is a function
  // of the seed alone: 2 and 8 workers must agree exactly.
  const SummarizationResult r2 = RunCase(kGoldenA, 2);
  const SummarizationResult r8 = RunCase(kGoldenA, 8);
  ExpectSameSummary(r2.summary, r8.summary);
  EXPECT_DOUBLE_EQ(r2.final_size_bits, r8.final_size_bits);
}

TEST(DeterminismTest, SerialScheduleIsPinnedIndependentlyOfParallel) {
  // Guard against the serial path accidentally routing through the
  // parallel engine: their schedules differ, so for this fixture the two
  // engines should not produce identical evaluation counts. (If they ever
  // legitimately converge, this documents a surprising coincidence worth
  // investigating.)
  const SummarizationResult serial = RunCase(kGoldenA, 1);
  const SummarizationResult parallel = RunCase(kGoldenA, 2);
  EXPECT_NE(serial.merge_stats.evaluations,
            parallel.merge_stats.evaluations);
}

std::string Hex(uint64_t h) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << h;
  return out.str();
}

// --- Parallel-engine goldens -------------------------------------------------

// FNV-1a over node_to_super (in node order) followed by the sorted
// superedge list: equal hashes mean the same partition, supernode ids and
// superedge set.
uint64_t HashSummary(const SummaryGraph& s) {
  using ::pegasus::testing::HashWord;
  uint64_t h = HashWord(::pegasus::testing::kFnvOffset64, s.num_nodes());
  for (NodeId u = 0; u < s.num_nodes(); ++u) {
    h = HashWord(h, s.supernode_of(u));
  }
  for (const auto& [a, b, w] : SortedSuperedges(s)) {
    h = HashWord(h, a);
    h = HashWord(h, b);
    h = HashWord(h, w);
  }
  return h;
}

struct ParallelGolden {
  uint32_t supernodes;
  uint64_t superedges;
  double size_bits;
  uint64_t merges;
  uint64_t evaluations;
  uint64_t failures;
  int iterations;
  uint64_t dropped;
  uint64_t summary_hash;
};

void ExpectMatchesParallelGolden(const SummarizationResult& r,
                                 const ParallelGolden& g) {
  // One line with every actual value, for re-pinning after an intentional
  // change to the parallel schedule.
  SCOPED_TRACE(::testing::Message()
               << "actual {" << r.summary.num_supernodes() << ", "
               << r.summary.num_superedges() << ", " << std::fixed
               << std::setprecision(6) << r.final_size_bits << ", "
               << r.merge_stats.merges << ", " << r.merge_stats.evaluations
               << ", " << r.merge_stats.failures << ", " << r.iterations_run
               << ", " << r.superedges_dropped << ", "
               << Hex(HashSummary(r.summary)) << "}");
  EXPECT_EQ(r.summary.num_supernodes(), g.supernodes);
  EXPECT_EQ(r.summary.num_superedges(), g.superedges);
  EXPECT_NEAR(r.final_size_bits, g.size_bits, 1e-4);
  EXPECT_EQ(r.merge_stats.merges, g.merges);
  EXPECT_EQ(r.merge_stats.evaluations, g.evaluations);
  EXPECT_EQ(r.merge_stats.failures, g.failures);
  EXPECT_EQ(r.iterations_run, g.iterations);
  EXPECT_EQ(r.superedges_dropped, g.dropped);
  EXPECT_EQ(HashSummary(r.summary), g.summary_hash);
}

// Captured from the parallel engine before incremental merge evaluation
// landed; the memoized planner must reproduce them exactly. The parallel
// output is thread-count invariant, so 2 and 8 workers share one golden.
const ParallelGolden kParallelGoldenA{
    241, 442, 10160.149908, 159, 9253, 1662, 9, 0, 0x39069956b0104b96ULL};
const ParallelGolden kParallelGoldenB{
    179, 191, 4729.771571, 71, 6470, 875, 8, 288, 0x9d9cde5b7a497d38ULL};
const ParallelGolden kParallelGoldenSkitter{
    688, 1819, 45378.038529, 488, 37775, 4513, 12, 0, 0x12493b98878020bfULL};

TEST(DeterminismTest, ParallelPathMatchesGoldenFixtureA) {
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    ExpectMatchesParallelGolden(RunCase(kGoldenA, threads), kParallelGoldenA);
  }
}

TEST(DeterminismTest, ParallelPathMatchesGoldenFixtureB) {
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    ExpectMatchesParallelGolden(RunCase(kGoldenB, threads), kParallelGoldenB);
  }
}

// Fixture A under SSumM's best-of-both encoding and the absolute (Eq. 10)
// score: the PairCost branches the default configuration never takes.
const ParallelGolden kParallelGoldenBestOfBothAbsolute{
    222, 286, 7576.172222, 178, 1129, 121, 1, 0, 0x737c2c69f634e66fULL};

TEST(DeterminismTest, ParallelPathMatchesGoldenBestOfBothAbsolute) {
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    ExpectMatchesParallelGolden(
        RunCase(kGoldenA, threads, EncodingScheme::kBestOfBoth,
                MergeScore::kAbsolute),
        kParallelGoldenBestOfBothAbsolute);
  }
}

TEST(DeterminismTest, ParallelPathMatchesGoldenHubHeavySkitter) {
  // Skitter* tiny has heavy-tailed degrees, so its candidate groups mix
  // hubs with leaves: the case where one supernode's incident list is
  // reused across many sampled pairs.
  const Graph g = MakeDataset(DatasetId::kSkitter, DatasetScale::kTiny).graph;
  Rng rng(SplitMix64(/*seed=*/11));
  const std::vector<uint64_t> raw = rng.SampleDistinct(g.num_nodes(), 10);
  const std::vector<NodeId> targets(raw.begin(), raw.end());
  PegasusConfig config;
  config.seed = 1;
  config.num_threads = 4;
  ExpectMatchesParallelGolden(*SummarizeGraphToRatio(g, targets, 0.3, config),
                              kParallelGoldenSkitter);
}

// --- Cross-stdlib query goldens -------------------------------------------

TEST(DeterminismTest, QueryAnswersMatchCrossStdlibGoldens) {
  const Graph g = ::pegasus::testing::QueryGoldenGraph();
  const SummaryGraph summary = ::pegasus::testing::QueryGoldenSummary(g);
  const SummaryView view(summary);
  for (const auto& c : ::pegasus::testing::QueryGoldenCases()) {
    auto canon = CanonicalizeRequest(c.request, view.num_nodes());
    ASSERT_TRUE(canon.ok()) << c.name;
    const uint64_t got =
        ::pegasus::testing::HashQueryResult(AnswerQuery(view, *canon));
    EXPECT_EQ(got, c.hash) << c.name << ": actual " << Hex(got)
                           << " golden " << Hex(c.hash);
  }
}

}  // namespace
}  // namespace pegasus
