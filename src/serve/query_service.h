// QueryService — the resident serving layer over summary queries.
//
// A QueryService is a long-lived object a server process holds for its
// whole lifetime. It owns
//
//   * an Executor sized once at construction,
//   * an *epoch-swapped* `std::shared_ptr<const SummaryView>`: Publish()
//     builds a fresh view and swaps it in atomically while in-flight
//     batches keep answering from the epoch they captured (readers never
//     block on writers, and a view dies only when its last batch drops
//     it), and
//   * a global-result cache keyed by (epoch, kind, canonical parameters)
//     so whole-graph families — degree, PageRank, clustering — are
//     computed, and ranked (src/util/ranking.h), at most once per epoch
//     per parameterization regardless of batch composition. Answer()
//     copies the shared scores into its QueryResult; AnswerText() formats
//     reply lines straight from the shared scores and ranking, so a
//     cached request costs O(top), not O(n). The cache is bounded
//     (Options::cache_capacity, LRU eviction) so a parameter-sweeping
//     client cannot grow it without limit within an epoch.
//
// Epoch semantics: epochs are 1-based and monotonic; epoch 0 means
// nothing has been published yet (Answer fails with kFailedPrecondition).
// Each Answer() captures one (view, epoch) snapshot up front, so every
// answer in a batch is computed against a single epoch even if Publish()
// lands mid-batch; the served epoch is reported in the BatchResult.
//
// Cost-aware scheduling: the batch executor fans requests over the pool
// in *units*. Cheap O(deg)-per-answer work — neighbors queries and
// answers served from cached global results — is chunked kDefaultCheapGrain
// requests per unit so dispatch overhead amortizes across many requests;
// iterative families (rwr/php/pagerank) and hop BFS stay at one request
// per unit so a single expensive query never serializes a chunk of cheap
// ones behind it.
//
// Determinism contract (pinned by tests/query_service_test.cc): answers
// are byte-identical for every thread count and across Publish() swaps —
// a batch served from epoch E returns exactly the bytes a
// single-threaded run against epoch E's view returns.
//
// Thread-safety: all public methods may be called concurrently from any
// thread. Concurrent Answer() calls overlap: each batch is an independent
// submission to the shared work-stealing Executor, so small batches from
// many clients interleave across the workers instead of queueing behind
// one another. serving_stats() exposes the in-flight batch count so the
// overlap is observable.

#ifndef PEGASUS_SERVE_QUERY_SERVICE_H_
#define PEGASUS_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/query/kernel_scratch.h"
#include "src/query/query_engine.h"
#include "src/query/summary_view.h"
#include "src/serve/frontend.h"
#include "src/util/parallel.h"
#include "src/util/status.h"

namespace pegasus {
namespace serve {

// Requests per unit for cheap families (see cost-aware scheduling
// above): large enough to amortize dispatch, small enough to keep all
// workers busy on modest batches.
inline constexpr size_t kDefaultCheapGrain = 16;

// Default bound on live global-result cache entries. Distinct legitimate
// parameterizations per epoch are few (kind × weighted × a handful of
// params); the bound exists so a parameter-sweeping client cannot grow
// the cache without limit within one epoch.
inline constexpr size_t kDefaultCacheCapacity = 64;

// One cached whole-graph answer: its scores and every node id ranked by
// ScoreRank (score descending, then id ascending), so any top-K list is a
// prefix of `ranking`.
struct CachedScores {
  std::vector<double> scores;
  std::vector<NodeId> ranking;
};

// Thread-safe, capacity-bounded (LRU) cache of whole-graph query
// results. Each key is computed and ranked exactly once per *residency*
// — at most once per key while the key stays cached (std::call_once per
// entry) no matter how many threads ask concurrently; a key evicted by
// the LRU bound and requested again is recomputed. Values are immutable
// and shared by pointer, so eviction never invalidates an answer already
// being computed, copied out or formatted.
class GlobalResultCache {
 public:
  // capacity = 0 means unbounded; otherwise at most `capacity` entries
  // stay live, evicting least-recently-used first.
  explicit GlobalResultCache(size_t capacity = kDefaultCacheCapacity)
      : capacity_(capacity) {}
  struct Key {
    uint64_t epoch = 0;
    QueryKind kind = QueryKind::kDegree;
    uint64_t param_bits = 0;      // bit pattern of the canonical param
    bool weighted = true;
    int max_iterations = 0;
    uint64_t tolerance_bits = 0;  // bit pattern of opts.tolerance
    bool operator==(const Key&) const = default;
  };

  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  // Key for a canonical (CanonicalizeRequest) whole-graph request.
  static Key MakeKey(uint64_t epoch, const QueryRequest& canonical);

  // Returns the scores for `key` and their ranking, running `compute`
  // and the ranking exactly once per key across all threads; later
  // callers block until the value is ready. A key whose epoch is older
  // than the newest one EvictOtherEpochs has seen is computed and ranked
  // for this caller alone and never inserted: a batch still in flight on
  // a superseded epoch cannot pin that epoch's scores in the cache.
  std::shared_ptr<const CachedScores> GetOrCompute(
      const Key& key, const std::function<std::vector<double>()>& compute);

  // Records `epoch` if it is the newest seen so far, then drops every
  // entry older than the newest (called on Publish; superseded epochs
  // never re-enter the cache, whatever order concurrent calls land in).
  void EvictOtherEpochs(uint64_t epoch);

  uint64_t hits() const;          // lookups served from an existing entry
  uint64_t computations() const;  // values ever computed (== cache misses)
  uint64_t evictions() const;     // entries dropped by the capacity bound
  uint64_t rankings() const;      // full rankings computed
  size_t size() const;            // live entries
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const CachedScores> value;
  };
  struct Slot {
    std::shared_ptr<Entry> entry;
    std::list<Key>::iterator lru_it;  // position in lru_
  };

  // The entry `key` computes into, counting the hit or the computation.
  std::shared_ptr<Entry> FindOrInsert(const Key& key);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Slot, KeyHash> entries_;
  std::list<Key> lru_;  // most recently used first
  uint64_t newest_epoch_ = 0;  // highest epoch EvictOtherEpochs has seen
  uint64_t hits_ = 0;
  uint64_t computations_ = 0;
  uint64_t evictions_ = 0;
  uint64_t rankings_ = 0;
};

// Canonicalizes every request (CanonicalizeRequest) or fails with the
// first offender's error, prefixed with its request index.
[[nodiscard]] StatusOr<std::vector<QueryRequest>> CanonicalizeBatch(
    const std::vector<QueryRequest>& requests, NodeId num_nodes);

// Loads a summary file into a servable view, dispatching on the file's
// magic bytes: a PSB1 file (docs/FORMAT.md) is arena-mapped and the view
// aliases the mapping — zero parse, restart cost independent of summary
// size — while a text summary goes through LoadSummary and a full view
// build. Either way the returned view answers every query family with
// identical bytes (the two backings are the same arrays). This is what
// `pegasus serve/query` and the server's publish directive call.
[[nodiscard]] StatusOr<std::shared_ptr<const SummaryView>> LoadServingView(
    const std::string& path);

}  // namespace serve

class QueryService final : public serve::Frontend {
 public:
  struct Options {
    // Pool size, ResolveThreadCount convention clamped to the hardware
    // (QueryWorkerCount): 0 = all cores, 1 = serial.
    int num_threads = 0;
    // Bound on live global-result cache entries (LRU eviction); 0 means
    // unbounded. Evictions are reported in cache_stats().
    size_t cache_capacity = serve::kDefaultCacheCapacity;
  };

  QueryService() : QueryService(Options()) {}
  explicit QueryService(Options options);
  // Convenience: construct and immediately publish epoch 1.
  explicit QueryService(const SummaryGraph& summary)
      : QueryService(summary, Options()) {}
  QueryService(const SummaryGraph& summary, Options options);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Builds a view of `summary` and swaps it in as the new current epoch.
  // Expensive part (the view build) runs outside any lock; the swap is
  // O(1). Returns the new epoch. In-flight batches are unaffected.
  //
  // Memory: after the swap, the cache drops every superseded epoch's
  // entries, the kernel scratch pool drops its idle buffers (sized for
  // the retired plan), and the freed heap pages of every malloc arena go
  // back to the OS (ReleaseFreedMemory, src/util/memory.h). Turnover is
  // when the largest shared serving state dies — the retired view's
  // KernelPlan and its cached scores and rankings — and it was freed on
  // whichever connection or executor thread last touched it, so without
  // the release those pages, and the per-request kernel vectors freed
  // since the last turnover, stay resident in that thread's arena.
  uint64_t Publish(const SummaryGraph& summary);
  // Publishes an already-built view (shared with the caller).
  uint64_t Publish(std::shared_ptr<const SummaryView> view);

  // Current epoch; 0 until the first Publish.
  uint64_t epoch() const;
  // Current view; nullptr until the first Publish.
  std::shared_ptr<const SummaryView> view() const;

  // A batch answered against one epoch: results[i] answers requests[i].
  struct BatchResult {
    uint64_t epoch = 0;
    std::vector<QueryResult> results;
  };

  // Validates, canonicalizes, and answers every request against one
  // (view, epoch) snapshot. Errors: kFailedPrecondition before the first
  // Publish; kInvalidArgument / kOutOfRange from CanonicalizeRequest
  // (message names the offending request index).
  [[nodiscard]]
  StatusOr<BatchResult> Answer(const std::vector<QueryRequest>& requests);

  // Answers like Answer() and returns the socket batch-response body,
  // byte-identical to serve::FormatBatchResponse(requests, *Answer(requests),
  // top) against the same epoch: each unit writes its request's reply
  // line into an index-addressed slot. A whole-graph request is formatted
  // from the cached scores and a prefix of their cached ranking, with no
  // n-sized copy; a node-level answer is ranked and dropped by the unit
  // that computed it. Same errors as Answer().
  [[nodiscard]] StatusOr<std::string> AnswerText(
      const std::vector<QueryRequest>& requests, size_t top) override;

  // serve::Frontend, the single-node text front end. PublishText loads
  // `path` (LoadServingView) and publishes it: "epoch <E> published (<S>
  // supernodes)\n". EpochText is "epoch <E>\n". StatsText is the epoch,
  // the cache counters, the in-flight batch counters and, where
  // /proc/self/status exists, resident and peak resident memory.
  [[nodiscard]] StatusOr<NodeId> NodeCount() const override;
  [[nodiscard]] StatusOr<std::string> PublishText(
      const std::string& path) override;
  [[nodiscard]] StatusOr<std::string> EpochText() override;
  [[nodiscard]] StatusOr<std::string> StatsText() override;

  // Single-request convenience; same validation, no pool dispatch (global
  // families still go through the cache).
  [[nodiscard]] StatusOr<QueryResult> AnswerOne(const QueryRequest& request);

  struct CacheStats {
    uint64_t hits = 0;
    uint64_t computations = 0;
    uint64_t evictions = 0;  // dropped by the capacity bound (LRU)
    uint64_t rankings = 0;   // full rankings computed (one per computation)
    size_t entries = 0;      // live entries right now
  };
  CacheStats cache_stats() const;

  struct ServingStats {
    // Answer() and AnswerText() calls alike.
    int inflight_batches = 0;       // batches currently executing
    int max_inflight_batches = 0;   // high-water mark since construction
    uint64_t total_batches = 0;     // batches ever admitted
  };
  ServingStats serving_stats() const;

  int num_workers() const { return pool_.num_workers(); }

 private:
  struct Snapshot {
    std::shared_ptr<const SummaryView> view;
    uint64_t epoch = 0;
  };
  Snapshot CurrentSnapshot() const;

  // The pipeline Answer() and AnswerText() share: validates and
  // canonicalizes `requests` against one snapshot, then runs
  // `answer(view, canonical_request, i, cached, scratch)` for every
  // request over the executor (`cached` is the cache entry of a
  // whole-graph request, nullptr for a node-level one). Returns the
  // served epoch.
  template <typename PerAnswer>
  StatusOr<uint64_t> RunBatch(const std::vector<QueryRequest>& requests,
                              const PerAnswer& answer);

  const Options options_;
  Executor pool_;
  serve::GlobalResultCache cache_;
  // Reusable iterative-kernel buffers, leased per query; grows to the
  // high-water mark of concurrent iterative queries and lives as long as
  // the service (see src/query/kernel_scratch.h).
  KernelScratchPool scratch_pool_;

  mutable std::mutex view_mu_;  // guards view_ / epoch_
  std::shared_ptr<const SummaryView> view_;
  uint64_t epoch_ = 0;

  std::atomic<int> inflight_batches_{0};
  std::atomic<int> max_inflight_batches_{0};
  std::atomic<uint64_t> total_batches_{0};
};

}  // namespace pegasus

#endif  // PEGASUS_SERVE_QUERY_SERVICE_H_
