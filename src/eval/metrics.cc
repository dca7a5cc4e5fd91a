#include "src/eval/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <numeric>

#include "src/util/ranking.h"

namespace pegasus {

double Smape(const std::vector<double>& truth,
             const std::vector<double>& approx) {
  assert(truth.size() == approx.size());
  if (truth.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const double denom = std::abs(truth[i]) + std::abs(approx[i]);
    if (denom > 0.0) total += std::abs(truth[i] - approx[i]) / denom;
  }
  return total / static_cast<double>(truth.size());
}

std::vector<double> AverageRanks(const std::vector<double>& values) {
  const size_t n = values.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // lint: sort-order-ok(tied values share one averaged rank below)
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(n);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j < n && values[order[j]] == values[order[i]]) ++j;
    // Positions i..j-1 (0-based) share the average 1-based rank.
    const double avg = (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0 + 1.0;
    for (size_t k = i; k < j; ++k) ranks[order[k]] = avg;
    i = j;
  }
  return ranks;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  assert(x.size() == y.size());
  const size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y) {
  return PearsonCorrelation(AverageRanks(x), AverageRanks(y));
}

double PrecisionAtK(const std::vector<double>& truth,
                    const std::vector<double>& approx, size_t k) {
  assert(truth.size() == approx.size());
  // Vacuous cases: the top-0 sets are equal, and on empty inputs the
  // top-k sets are both empty whatever k is (without the early return the
  // clamp below would drive the final division to 0/0 = NaN).
  if (k == 0 || truth.empty()) return 1.0;
  k = std::min(k, truth.size());
  // Top-k sets under the shared ranking order, so a tie across the k-th
  // place resolves by ascending id, not by the sort algorithm.
  auto top_k = [&](const std::vector<double>& values) {
    std::vector<uint32_t> ids = TopK(ScoreRank{values}, k);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const std::vector<uint32_t> t = top_k(truth);
  const std::vector<uint32_t> a = top_k(approx);
  std::vector<uint32_t> common;
  std::set_intersection(t.begin(), t.end(), a.begin(), a.end(),
                        std::back_inserter(common));
  return static_cast<double>(common.size()) / static_cast<double>(k);
}

}  // namespace pegasus
