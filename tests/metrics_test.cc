#include <gtest/gtest.h>

#include "src/eval/metrics.h"

namespace pegasus {
namespace {

TEST(SmapeTest, IdenticalVectorsZero) {
  std::vector<double> x{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Smape(x, x), 0.0);
}

TEST(SmapeTest, ZeroVsNonZeroIsOne) {
  std::vector<double> truth{0.0, 0.0};
  std::vector<double> approx{1.0, 2.0};
  EXPECT_DOUBLE_EQ(Smape(truth, approx), 1.0);
}

TEST(SmapeTest, BothZeroCountsAsZero) {
  std::vector<double> truth{0.0, 1.0};
  std::vector<double> approx{0.0, 1.0};
  EXPECT_DOUBLE_EQ(Smape(truth, approx), 0.0);
}

TEST(SmapeTest, KnownValue) {
  // |1-3| / (1+3) = 0.5 for the first entry, 0 for the second.
  std::vector<double> truth{1.0, 5.0};
  std::vector<double> approx{3.0, 5.0};
  EXPECT_DOUBLE_EQ(Smape(truth, approx), 0.25);
}

TEST(SmapeTest, BoundedByOne) {
  std::vector<double> truth{1.0, -2.0, 0.0, 4.0};
  std::vector<double> approx{-1.0, 2.0, 5.0, 0.0};
  const double s = Smape(truth, approx);
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 1.0);
}

TEST(SmapeTest, EmptyVectorsZero) {
  EXPECT_DOUBLE_EQ(Smape({}, {}), 0.0);
}

TEST(AverageRanksTest, SimpleOrdering) {
  auto r = AverageRanks({30.0, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
}

TEST(AverageRanksTest, TiesShareAverageRank) {
  auto r = AverageRanks({5.0, 5.0, 1.0, 9.0});
  EXPECT_DOUBLE_EQ(r[2], 1.0);
  EXPECT_DOUBLE_EQ(r[0], 2.5);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(PearsonTest, PerfectCorrelation) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectAntiCorrelation) {
  std::vector<double> x{1, 2, 3};
  std::vector<double> y{3, 2, 1};
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantVectorGivesZero) {
  std::vector<double> x{1, 1, 1};
  std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(SpearmanTest, MonotoneTransformInvariant) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{1, 4, 9, 16, 25};  // monotone in x
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(SpearmanTest, ReversedIsMinusOne) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{9, 7, 5, 3};
  EXPECT_NEAR(SpearmanCorrelation(x, y), -1.0, 1e-12);
}

TEST(SpearmanTest, HandlesTies) {
  std::vector<double> x{1, 1, 2, 3};
  std::vector<double> y{1, 1, 2, 3};
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(SpearmanTest, IndependentNearZero) {
  // A vector against a shuffled copy with no rank relationship.
  std::vector<double> x{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> y{5, 1, 8, 3, 7, 2, 6, 4};
  const double s = SpearmanCorrelation(x, y);
  EXPECT_LT(std::abs(s), 0.5);
}

TEST(PrecisionAtKTest, PerfectMatch) {
  std::vector<double> x{5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(PrecisionAtK(x, x, 3), 1.0);
}

TEST(PrecisionAtKTest, DisjointTopK) {
  std::vector<double> truth{9, 8, 1, 1, 1, 1};
  std::vector<double> approx{1, 1, 9, 8, 1, 1};
  EXPECT_DOUBLE_EQ(PrecisionAtK(truth, approx, 2), 0.0);
}

TEST(PrecisionAtKTest, PartialOverlap) {
  std::vector<double> truth{10, 9, 8, 1, 1};
  std::vector<double> approx{10, 1, 8, 9, 1};  // top-3: {0,3,2} vs {0,1,2}
  EXPECT_DOUBLE_EQ(PrecisionAtK(truth, approx, 3), 2.0 / 3.0);
}

// A tie across the k-th place keeps the lower ids, so the top-k set (and
// the precision) is fixed by the data, not by the sort algorithm.
TEST(PrecisionAtKTest, TieAcrossKthPlaceKeepsLowerIds) {
  // truth's top-2: id 0, then one of the tied ids 1..3 — id 1.
  const std::vector<double> truth{5, 3, 3, 3, 1};
  EXPECT_DOUBLE_EQ(PrecisionAtK(truth, {5, 3, 0, 0, 1}, 2), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(truth, {5, 0, 3, 0, 1}, 2), 0.5);
  EXPECT_DOUBLE_EQ(PrecisionAtK(truth, {5, 0, 0, 3, 1}, 2), 0.5);
  // Both sides tied the same way pick the same ids.
  EXPECT_DOUBLE_EQ(PrecisionAtK(truth, truth, 2), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(truth, {9, 1, 1, 1, 1}, 2), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK({1, 1, 1, 1}, {0, 0, 1, 1}, 2), 0.0);
  // Ids 0 and 2 tie for the 2nd place, so truth's top-2 is {3, 0}.
  // libstdc++'s partial_sort keeps {3, 2} here.
  EXPECT_DOUBLE_EQ(PrecisionAtK({1, 0, 1, 2}, {1, 0, 0, 2}, 2), 1.0);
}

TEST(PrecisionAtKTest, EdgeCases) {
  std::vector<double> x{1, 2};
  EXPECT_DOUBLE_EQ(PrecisionAtK(x, x, 0), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(x, x, 10), 1.0);  // k capped at size
}

TEST(PrecisionAtKTest, EmptyInputsAreVacuouslyPerfect) {
  // Regression: empty vectors with k > 0 clamped k to 0 and returned
  // 0/0 = NaN. Both top-k sets are empty, so the precision is 1.
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(PrecisionAtK(empty, empty, 0), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(empty, empty, 1), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(empty, empty, 10), 1.0);
}

}  // namespace
}  // namespace pegasus
