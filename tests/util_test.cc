#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "src/util/bits.h"
#include "src/util/ranking.h"
#include "src/util/rng.h"
#include "src/util/stamped_slots.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace pegasus {
namespace {

volatile double benchmark_sink = 0.0;

TEST(StampedSlotsTest, NextEpochKillsEverySlot) {
  StampedSlots<IndexSlot> slots;
  slots.Resize(4);
  for (size_t id = 0; id < 4; ++id) EXPECT_FALSE(slots.Live(id));
  EXPECT_TRUE(slots.Claim(1));
  EXPECT_FALSE(slots.Claim(1));
  EXPECT_TRUE(slots.Live(1));
  slots.NextEpoch();
  EXPECT_FALSE(slots.Live(1));
  EXPECT_TRUE(slots.Claim(1));
}

TEST(StampedSlotsTest, WrapNeitherRevivesStaleNorUntouchedSlots) {
  // Slot 0 is claimed in the first lap at epoch 2. After the counter
  // wraps, neither epoch 0 (the stamp of never-claimed slots) nor the
  // second lap's epoch 2 may read any slot as live.
  StampedSlots<IndexSlot> slots;
  slots.Resize(4);
  slots.NextEpoch();
  ASSERT_EQ(slots.epoch(), 2u);
  slots.Claim(0);
  slots.SetEpochForTesting(UINT32_MAX - 1);
  slots.NextEpoch();
  slots.Claim(1);
  EXPECT_TRUE(slots.Live(1));
  slots.NextEpoch();  // wraps
  EXPECT_NE(slots.epoch(), 0u);
  for (size_t id = 0; id < 4; ++id) EXPECT_FALSE(slots.Live(id)) << id;
  while (slots.epoch() < 2) slots.NextEpoch();
  for (size_t id = 0; id < 4; ++id) EXPECT_FALSE(slots.Live(id)) << id;
  EXPECT_TRUE(slots.Claim(0));
}

constexpr uint32_t kUnreachable = UINT32_MAX;

TEST(RankingTest, TieAtKthPlaceBreaksByAscendingId) {
  // Ids 1 and 3 tie for first, ids 2, 4 and 5 tie across the 3rd place.
  const std::vector<double> scores{1, 3, 2, 3, 2, 2};
  const ScoreRank rank{scores};
  EXPECT_EQ(RankAll(rank), (std::vector<uint32_t>{1, 3, 2, 4, 5, 0}));
  EXPECT_EQ(TopK(rank, 3), (std::vector<uint32_t>{1, 3, 2}));
  EXPECT_EQ(TopK(rank, 4), (std::vector<uint32_t>{1, 3, 2, 4}));
}

TEST(RankingTest, UnreachableHopsRankLast) {
  const std::vector<uint32_t> hops{kUnreachable, 2, 0, kUnreachable, 1, 2};
  const HopRank rank{hops};
  EXPECT_EQ(RankAll(rank), (std::vector<uint32_t>{2, 4, 1, 5, 0, 3}));
  EXPECT_EQ(TopK(rank, 5), (std::vector<uint32_t>{2, 4, 1, 5, 0}));
  // A far node still beats every unreachable one.
  const std::vector<uint32_t> far{kUnreachable, kUnreachable - 1};
  EXPECT_EQ(TopK(HopRank{far}, 1), (std::vector<uint32_t>{1}));
}

TEST(RankingTest, KAtLeastNAndKZero) {
  const std::vector<double> scores{0.5, 0.25, 0.5};
  const ScoreRank rank{scores};
  const std::vector<uint32_t> all{0, 2, 1};
  EXPECT_EQ(RankAll(rank), all);
  EXPECT_EQ(TopK(rank, 3), all);
  EXPECT_EQ(TopK(rank, 100), all);
  EXPECT_TRUE(TopK(rank, 0).empty());
  const std::vector<double> empty;
  EXPECT_TRUE(TopK(ScoreRank{empty}, 5).empty());
  EXPECT_TRUE(RankAll(ScoreRank{empty}).empty());
}

// On tie-heavy random data, every TopK list is a prefix of RankAll, and
// RankAll is the stable sort of the ids by score alone (a stable sort
// keeps ascending ids among ties).
TEST(RankingTest, TopKIsPrefixOfRankAllUnderHeavyTies) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.Uniform(60);
    std::vector<double> scores(n);
    std::vector<uint32_t> hops(n);
    for (size_t i = 0; i < n; ++i) {
      scores[i] = static_cast<double>(rng.Uniform(4)) * 0.25;
      const uint64_t h = rng.Uniform(5);
      hops[i] = h == 4 ? kUnreachable : static_cast<uint32_t>(h);
    }
    std::vector<uint32_t> by_score(n);
    std::iota(by_score.begin(), by_score.end(), 0u);
    std::vector<uint32_t> by_hops = by_score;
    std::stable_sort(by_score.begin(), by_score.end(),
                     [&](uint32_t a, uint32_t b) {
                       return scores[a] > scores[b];
                     });
    std::stable_sort(by_hops.begin(), by_hops.end(),
                     [&](uint32_t a, uint32_t b) { return hops[a] < hops[b]; });
    ASSERT_EQ(RankAll(ScoreRank{scores}), by_score);
    ASSERT_EQ(RankAll(HopRank{hops}), by_hops);
    for (size_t k = 0; k <= n + 1; ++k) {
      const size_t m = std::min(k, n);
      ASSERT_EQ(TopK(ScoreRank{scores}, k),
                std::vector<uint32_t>(by_score.begin(), by_score.begin() + m))
          << "n=" << n << " k=" << k;
      ASSERT_EQ(TopK(HopRank{hops}, k),
                std::vector<uint32_t>(by_hops.begin(), by_hops.begin() + m))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(SplitMix64Test, Deterministic) {
  EXPECT_EQ(SplitMix64(42), SplitMix64(42));
  EXPECT_NE(SplitMix64(42), SplitMix64(43));
}

TEST(SplitMix64Test, MixesLowBits) {
  // Consecutive inputs should not produce consecutive outputs.
  std::set<uint64_t> low;
  for (uint64_t i = 0; i < 64; ++i) low.insert(SplitMix64(i) & 0xff);
  EXPECT_GT(low.size(), 32u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 3000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(RngTest, SampleDistinctReturnsDistinctInRange) {
  Rng rng(19);
  auto s = rng.SampleDistinct(100, 30);
  std::set<uint64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 30u);
  for (uint64_t x : s) EXPECT_LT(x, 100u);
}

TEST(RngTest, SampleDistinctWholeRange) {
  Rng rng(21);
  auto s = rng.SampleDistinct(5, 5);
  std::set<uint64_t> set(s.begin(), s.end());
  EXPECT_EQ(set, (std::set<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, SampleDistinctCountLargerThanBound) {
  Rng rng(23);
  auto s = rng.SampleDistinct(4, 10);
  EXPECT_EQ(s.size(), 4u);
}

TEST(BitsTest, Log2BitsConventions) {
  EXPECT_DOUBLE_EQ(Log2Bits(0), 0.0);
  EXPECT_DOUBLE_EQ(Log2Bits(1), 0.0);
  EXPECT_DOUBLE_EQ(Log2Bits(2), 1.0);
  EXPECT_DOUBLE_EQ(Log2Bits(8), 3.0);
  EXPECT_NEAR(Log2Bits(1000), 9.96578, 1e-4);
}

TEST(BitsTest, BinaryEntropyEndpointsAndPeak) {
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.5), 1.0);
  EXPECT_NEAR(BinaryEntropy(0.1), 0.468996, 1e-5);
}

TEST(BitsTest, BinaryEntropySymmetric) {
  for (double p : {0.05, 0.2, 0.35}) {
    EXPECT_NEAR(BinaryEntropy(p), BinaryEntropy(1.0 - p), 1e-12);
  }
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  benchmark_sink = x;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());
}

TEST(TableTest, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.AddRow({"x"});
  EXPECT_NE(t.ToString().find("x"), std::string::npos);
}

TEST(FormatTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(0.5, 4), "0.5000");
}

TEST(FormatTest, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1049866), "1,049,866");
}

}  // namespace
}  // namespace pegasus
