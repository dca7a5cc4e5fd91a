// The one ranking order for every ranked output.
//
// Ranked answers print "the top K ids", and a score alone does not fix
// that list: in the iterative families every member of a supernode gets
// the same score, and hop distances tie by nature. A comparator on score
// alone leaves the order among ties to the sort algorithm, which differs
// between standard libraries (libstdc++ and libc++ use different heaps),
// so reply bytes — and at a tie across the K-th place, even the set of
// printed ids — would depend on the library. Every ranked output therefore
// goes through the total orders below:
//
//   * ScoreRank — score descending, then id ascending;
//   * HopRank   — hop distance ascending (UINT32_MAX, unreachable, is the
//                 largest distance, so unreachable ids rank strictly
//                 last), then id ascending.
//
// Both are strict total orders on ids, so TopK and RankAll have exactly
// one answer, and a TopK list is always a prefix of the RankAll list.
// Scores must not be NaN (no kernel produces one).
//
// `pegasus-lint`'s sort-order rule flags std::sort / partial_sort /
// nth_element / stable_sort calls with any other comparator.

#ifndef PEGASUS_UTIL_RANKING_H_
#define PEGASUS_UTIL_RANKING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

namespace pegasus {

// Score descending, then id ascending.
struct ScoreRank {
  std::span<const double> scores;
  bool operator()(uint32_t a, uint32_t b) const {
    return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
  }
  size_t size() const { return scores.size(); }
};

// Hop distance ascending (unreachable last), then id ascending.
struct HopRank {
  std::span<const uint32_t> hops;
  bool operator()(uint32_t a, uint32_t b) const {
    return hops[a] != hops[b] ? hops[a] < hops[b] : a < b;
  }
  size_t size() const { return hops.size(); }
};

// The first min(k, n) ids under `rank`, in rank order, from one bounded
// pass over the n ids: O(n log k) time and O(k) memory, never an n-sized
// copy. `rank` is ScoreRank or HopRank.
template <typename Rank>
std::vector<uint32_t> TopK(const Rank& rank, size_t k) {
  const size_t n = rank.size();
  std::vector<uint32_t> kept;
  kept.reserve(std::min(k, n));
  if (k == 0) return kept;
  // `kept` is a heap whose front is the worst id kept so far; a later id
  // displaces it only if it ranks strictly before it.
  for (size_t i = 0; i < n; ++i) {
    const auto id = static_cast<uint32_t>(i);
    if (kept.size() < k) {
      kept.push_back(id);
      std::push_heap(kept.begin(), kept.end(), rank);
    } else if (rank(id, kept.front())) {
      std::pop_heap(kept.begin(), kept.end(), rank);
      kept.back() = id;
      std::push_heap(kept.begin(), kept.end(), rank);
    }
  }
  std::sort_heap(kept.begin(), kept.end(), rank);
  return kept;
}

// Every id under `rank`, in rank order (the full ranking TopK lists are
// prefixes of).
template <typename Rank>
std::vector<uint32_t> RankAll(const Rank& rank) {
  std::vector<uint32_t> ids(rank.size());
  std::iota(ids.begin(), ids.end(), 0u);
  // lint: sort-order-ok(rank is ScoreRank or HopRank, a total order)
  std::sort(ids.begin(), ids.end(), rank);
  return ids;
}

}  // namespace pegasus

#endif  // PEGASUS_UTIL_RANKING_H_
