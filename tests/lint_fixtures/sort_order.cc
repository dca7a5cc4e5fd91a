// pegasus-lint fixture: the sort-order rule. Scanned by
// tools/lint_selftest.py, never compiled. See README.md.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

namespace fixture {

struct ScoreRank {
  const std::vector<double>* scores;
  bool operator()(uint32_t a, uint32_t b) const;
};

// No comparator: operator< is a total order on the elements — clean.
void NaturalOrder(std::vector<uint32_t>& ids) {
  std::sort(ids.begin(), ids.end());
  std::stable_sort(ids.begin(), ids.end());
  std::partial_sort(ids.begin(), ids.begin() + 2, ids.end());
  std::nth_element(ids.begin(), ids.begin() + 1, ids.end());
}

// The ranking helper as the comparator — clean, however it is spelled.
void HelperOrder(std::vector<uint32_t>& ids,
                 const std::vector<double>& scores) {
  std::sort(ids.begin(), ids.end(), ScoreRank{&scores});
  const ScoreRank rank{&scores};
  std::partial_sort(ids.begin(), ids.begin() + 2, ids.end(),
                    ScoreRank(rank));
}

// Comparators without a tie-break: flagged, whether a lambda, a named
// lambda or a library functor, and however the call is wrapped.
void CustomOrder(std::vector<uint32_t>& ids,
                 const std::vector<double>& scores) {
  std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {  // expect-lint: sort-order
    return scores[a] > scores[b];
  });
  auto by_score = [&](uint32_t a, uint32_t b) {
    return scores[a] > scores[b];
  };
  std::stable_sort(ids.begin(), ids.end(), by_score);  // expect-lint: sort-order
  std::partial_sort(ids.begin(), ids.begin() + 2,  // expect-lint: sort-order
                    ids.end(), by_score);
  std::nth_element(ids.begin(), ids.begin() + 1, ids.end(),  // expect-lint: sort-order
                   std::greater<uint32_t>());
}

// Reasoned suppression: clean.
void Suppressed(std::vector<double>& values) {
  // lint: sort-order-ok(fixture: tied doubles are equal values)
  std::sort(values.begin(), values.end(), std::greater<double>());
}

// Bare suppression: the marker itself is a violation, and it silences
// nothing.
void BareSuppression(std::vector<double>& values) {
  // lint: sort-order-ok()  -- expect-lint: sort-order
  std::sort(values.begin(), values.end(), std::greater<double>());  // expect-lint: sort-order
}

}  // namespace fixture
