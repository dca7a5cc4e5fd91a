#include "src/core/threshold.h"

#include <algorithm>
#include <cstddef>

namespace pegasus {

ThresholdPolicy::ThresholdPolicy(ThresholdRule rule, double beta,
                                 int max_iterations)
    : rule_(rule), beta_(beta), max_iterations_(max_iterations) {
  if (rule_ == ThresholdRule::kHarmonic) theta_ = 0.5;  // 1 / (1 + t), t = 1
}

void ThresholdPolicy::EndIteration(int next_t) {
  if (rule_ == ThresholdRule::kHarmonic) {
    // SSumM: theta(t) = (1 + t)^-1 for t < tmax and 0 otherwise.
    theta_ = next_t >= max_iterations_ ? 0.0 : 1.0 / (1.0 + next_t);
    failures_.clear();
    return;
  }
  // Adaptive rule: the floor(beta * |L|)-th largest recorded value, index
  // clamped to [1, |L|]; an empty L leaves theta unchanged.
  if (!failures_.empty()) {
    size_t k = static_cast<size_t>(beta_ * static_cast<double>(failures_.size()));
    k = std::clamp<size_t>(k, 1, failures_.size());
    // k-th largest == element at index k-1 of the descending order.
    // lint: sort-order-ok(plain doubles: tied elements are equal values)
    std::nth_element(failures_.begin(),
                     failures_.begin() + static_cast<ptrdiff_t>(k - 1),
                     failures_.end(), std::greater<double>());
    theta_ = std::max(failures_[k - 1], 0.0);
  }
  failures_.clear();
}

}  // namespace pegasus
