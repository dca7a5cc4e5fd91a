// pegasus-lint fixture: the hot-snapshot rule. Scanned by
// tools/lint_selftest.py, never compiled. See README.md.

#include <cstddef>
#include <memory>
#include <vector>

namespace fixture {

struct SummaryGraph {};

class SummaryView {
 public:
  explicit SummaryView(const SummaryGraph& summary);
  SummaryView(const SummaryView&) = delete;
  size_t num_nodes() const;
};

size_t Degree(const SummaryView& view, int node);

// Built once before the loop: the sanctioned shape, clean.
size_t Hoisted(const SummaryGraph& s, int rounds) {
  const SummaryView view(s);
  size_t total = 0;
  for (int r = 0; r < rounds; ++r) total += Degree(view, r);
  return total;
}

// A temporary view per iteration of a braced for: flagged.
size_t PerIterationTemporary(const SummaryGraph& s, int rounds) {
  size_t total = 0;
  for (int r = 0; r < rounds; ++r) {
    total += Degree(SummaryView(s), r);  // expect-lint: hot-snapshot
  }
  return total;
}

// A named declaration in a single-statement body: flagged, with
// parentheses or braces.
size_t PerIterationNamed(const SummaryGraph& s, int rounds) {
  size_t total = 0;
  for (int r = 0; r < rounds; ++r)
    total += SummaryView(s).num_nodes();  // expect-lint: hot-snapshot
  while (total < 10) {
    const SummaryView view(s);  // expect-lint: hot-snapshot
    total += view.num_nodes();
  }
  do {
    SummaryView view{s};  // expect-lint: hot-snapshot
    total += view.num_nodes();
  } while (total < 20);
  return total;
}

// Shared and owned views: flagged, const or not, nested loops once.
size_t PerIterationShared(const SummaryGraph& s, int rounds) {
  size_t total = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int k = 0; k < r; ++k) {
      auto shared = std::make_shared<const SummaryView>(s);  // expect-lint: hot-snapshot
      auto owned = std::make_unique<SummaryView>(s);  // expect-lint: hot-snapshot
      total += shared->num_nodes() + owned->num_nodes();
    }
  }
  return total;
}

// References and pointers to a view are not constructions: clean.
size_t Borrowed(const std::vector<const SummaryView*>& views) {
  size_t total = 0;
  for (const SummaryView* view : views) {
    const SummaryView& ref = *view;
    total += ref.num_nodes();
  }
  return total;
}

// One view per distinct summary, with a reasoned suppression: clean.
std::vector<std::shared_ptr<const SummaryView>> PerMachine(
    const std::vector<SummaryGraph>& machines) {
  std::vector<std::shared_ptr<const SummaryView>> views;
  for (const SummaryGraph& s : machines) {
    // lint: hot-snapshot-ok(fixture: one view per machine, built once)
    views.push_back(std::make_shared<const SummaryView>(s));
  }
  return views;
}

// Bare suppression: the marker itself is a violation, and it silences
// nothing.
size_t BareSuppression(const SummaryGraph& s, int rounds) {
  size_t total = 0;
  for (int r = 0; r < rounds; ++r) {
    // lint: hot-snapshot-ok()  -- expect-lint: hot-snapshot
    total += Degree(SummaryView(s), r);  // expect-lint: hot-snapshot
  }
  return total;
}

}  // namespace fixture
