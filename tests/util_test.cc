#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/util/bits.h"
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
