#include "src/serve/query_service.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <utility>

#include "src/core/binary_summary_io.h"
#include "src/core/summary_arena.h"
#include "src/core/summary_io.h"
#include "src/serve/text_serving.h"
#include "src/util/memory.h"
#include "src/util/ranking.h"

namespace pegasus {
namespace serve {

namespace {

// SplitMix64 finalizer — mixes each key field into the hash.
uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

}  // namespace

GlobalResultCache::Key GlobalResultCache::MakeKey(
    uint64_t epoch, const QueryRequest& canonical) {
  Key key;
  key.epoch = epoch;
  key.kind = canonical.kind;
  key.param_bits = std::bit_cast<uint64_t>(canonical.param);
  key.weighted = canonical.weighted;
  key.max_iterations = canonical.opts.max_iterations;
  key.tolerance_bits = std::bit_cast<uint64_t>(canonical.opts.tolerance);
  return key;
}

size_t GlobalResultCache::KeyHash::operator()(const Key& key) const {
  uint64_t h = Mix(0, key.epoch);
  h = Mix(h, static_cast<uint64_t>(key.kind) << 1 |
               static_cast<uint64_t>(key.weighted));
  h = Mix(h, key.param_bits);
  h = Mix(h, static_cast<uint64_t>(key.max_iterations));
  h = Mix(h, key.tolerance_bits);
  return static_cast<size_t>(h);
}

std::shared_ptr<GlobalResultCache::Entry> GlobalResultCache::FindOrInsert(
    const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (key.epoch < newest_epoch_) {
    // An epoch Publish already retired (an old batch still in flight):
    // compute for this caller alone, through an entry the map never
    // holds, so the dead epoch's scores die with the batch.
    ++computations_;
    return std::make_shared<Entry>();
  }
  auto [it, inserted] = entries_.try_emplace(key);
  if (inserted) {
    lru_.push_front(key);
    it->second = {std::make_shared<Entry>(), lru_.begin()};
    ++computations_;
    // Capacity bound: drop least-recently-used entries (never the one
    // just inserted). An evicted in-flight computation still completes
    // for the callers holding its Entry; the cache simply forgets it.
    while (capacity_ != 0 && entries_.size() > capacity_) {
      entries_.erase(lru_.back());
      lru_.pop_back();
      ++evictions_;
    }
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    ++hits_;
  }
  return it->second.entry;
}

std::shared_ptr<const CachedScores> GlobalResultCache::GetOrCompute(
    const Key& key, const std::function<std::vector<double>()>& compute) {
  const std::shared_ptr<Entry> entry = FindOrInsert(key);
  // Exactly-once compute and ranking outside the map lock: concurrent
  // callers of the same key block here until the first one publishes the
  // value; callers of other keys proceed in parallel.
  std::call_once(entry->once, [&] {
    auto value = std::make_shared<CachedScores>();
    value->scores = compute();
    value->ranking = RankAll(ScoreRank{value->scores});
    entry->value = std::move(value);
    std::lock_guard<std::mutex> lock(mu_);
    ++rankings_;
  });
  return entry->value;
}

void GlobalResultCache::EvictOtherEpochs(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  newest_epoch_ = std::max(newest_epoch_, epoch);
  // Epoch turnover is not a capacity eviction: superseded entries can
  // never be requested again, so dropping them is reclamation, not
  // pressure — evictions_ counts only the LRU bound firing.
  // Compare with the newest epoch, not `epoch`: two Publish calls on
  // different threads may reach here out of order, and the late call for
  // the older epoch must not drop the newer epoch's live entries.
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->epoch >= newest_epoch_) {
      ++it;
    } else {
      entries_.erase(*it);
      it = lru_.erase(it);
    }
  }
}

uint64_t GlobalResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t GlobalResultCache::computations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return computations_;
}

uint64_t GlobalResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

uint64_t GlobalResultCache::rankings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rankings_;
}

size_t GlobalResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

StatusOr<std::vector<QueryRequest>> CanonicalizeBatch(
    const std::vector<QueryRequest>& requests, NodeId num_nodes) {
  // Bulk-copy once, then validate/patch in place: no per-request
  // temporaries on the serving hot path.
  std::vector<QueryRequest> canonical = requests;
  for (size_t i = 0; i < canonical.size(); ++i) {
    if (Status s = CanonicalizeRequestInPlace(canonical[i], num_nodes); !s) {
      return Status(s.code(),
                    "request " + std::to_string(i) + ": " + s.message());
    }
  }
  return canonical;
}

namespace {

// The batch executor behind QueryService::Answer and AnswerText.
// `requests` must be canonical. Global queries are resolved through
// `cache` under `epoch`; then `answer(i, cached, scratch)` runs once per
// request, fanned out over `pool` in cost-aware units (see
// query_service.h), with `cached` the cache entry of a global request and
// nullptr for a node-level one. Iterative kernels draw working memory
// from `scratch` — one lease per executor unit, so steady-state serving
// allocates nothing per query. Deterministic: `answer` writes to
// index-addressed slots, so the output is byte-identical for every
// worker count.
template <typename PerAnswer>
void RunCanonicalBatch(const SummaryView& view,
                       const std::vector<QueryRequest>& requests,
                       Executor& pool, GlobalResultCache& cache,
                       uint64_t epoch, KernelScratchPool& scratch,
                       const PerAnswer& answer) {
  const size_t n = requests.size();
  if (n == 0) return;

  // Phase 1 — classify, and resolve whole-graph queries through the
  // cache. Distinct keys are collected in first-appearance order and
  // filled in parallel (one key per index); repeated parameterizations
  // within the batch, and across batches of the same epoch, trigger
  // exactly one computation. The key machinery is lazily allocated: the
  // common serving batch has no whole-graph queries at all.
  std::vector<GlobalResultCache::Key> keys;
  std::vector<size_t> key_request;   // representative request per key
  std::vector<int64_t> request_key;  // per request; empty if no globals
  std::unordered_map<GlobalResultCache::Key, size_t,
                     GlobalResultCache::KeyHash>
      key_index;
  size_t num_cheap = 0;
  for (size_t i = 0; i < n; ++i) {
    if (IsNodeQuery(requests[i].kind)) {
      if (requests[i].kind == QueryKind::kNeighbors) ++num_cheap;
      continue;
    }
    ++num_cheap;  // an answer from the cache is cheap work
    const auto key = GlobalResultCache::MakeKey(epoch, requests[i]);
    auto [it, inserted] = key_index.try_emplace(key, keys.size());
    if (inserted) {
      keys.push_back(key);
      key_request.push_back(i);
    }
    if (request_key.empty()) request_key.assign(n, -1);
    request_key[i] = static_cast<int64_t>(it->second);
  }
  std::vector<std::shared_ptr<const CachedScores>> key_values(keys.size());
  if (!keys.empty()) {
    pool.ParallelFor(
        keys.size(), /*grain=*/1,
        [&](int /*worker*/, size_t begin, size_t end) {
          const KernelScratchPool::Lease lease = scratch.Acquire();
          for (size_t k = begin; k < end; ++k) {
            key_values[k] = cache.GetOrCompute(keys[k], [&] {
              return AnswerQuery(view, requests[key_request[k]], lease.get())
                  .scores;
            });
          }
        });
  }

  const auto answer_one = [&](size_t i, KernelScratch* sc) {
    const bool cached = !request_key.empty() && request_key[i] >= 0;
    answer(i,
           cached ? key_values[static_cast<size_t>(request_key[i])].get()
                  : nullptr,
           sc);
  };

  // Phase 2 — cost-aware fan-out. Cheap O(deg)-per-answer work
  // (neighbors, answers from the cache) is chunked up to
  // kDefaultCheapGrain requests per unit so dispatch amortizes;
  // everything else (iterative families, hop BFS) is one request per
  // unit. Homogeneous batches are
  // the common serving case, and for them ParallelFor's own chunking IS
  // the unit structure — no index indirection needed.
  if (num_cheap == n || num_cheap == 0) {
    pool.ParallelFor(n, num_cheap == n ? kDefaultCheapGrain : 1,
                     [&](int /*worker*/, size_t begin, size_t end) {
                       const KernelScratchPool::Lease lease = scratch.Acquire();
                       for (size_t i = begin; i < end; ++i) {
                         answer_one(i, lease.get());
                       }
                     });
    return;
  }

  // Mixed batch: units are contiguous request-index ranges
  // [unit_begin[u], unit_begin[u + 1]) — cheap runs close at
  // kDefaultCheapGrain requests or at the next expensive request,
  // expensive requests are singleton units — fanned out one unit per
  // index.
  std::vector<size_t> unit_begin{0};
  size_t cheap_run = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool cheap =
        requests[i].kind == QueryKind::kNeighbors ||
        (!request_key.empty() && request_key[i] >= 0);
    if (!cheap && cheap_run > 0) {
      unit_begin.push_back(i);
      cheap_run = 0;
    }
    if (cheap) {
      if (++cheap_run == kDefaultCheapGrain) {
        unit_begin.push_back(i + 1);
        cheap_run = 0;
      }
    } else {
      unit_begin.push_back(i + 1);
    }
  }
  if (unit_begin.back() != n) unit_begin.push_back(n);

  const size_t num_units = unit_begin.size() - 1;
  pool.ParallelFor(
      num_units, /*grain=*/1, [&](int /*worker*/, size_t begin, size_t end) {
        const KernelScratchPool::Lease lease = scratch.Acquire();
        for (size_t u = begin; u < end; ++u) {
          for (size_t i = unit_begin[u]; i < unit_begin[u + 1]; ++i) {
            answer_one(i, lease.get());
          }
        }
      });
}

}  // namespace

StatusOr<std::shared_ptr<const SummaryView>> LoadServingView(
    const std::string& path) {
  if (SniffPsbMagic(path)) {
    auto arena = SummaryArena::Map(path);
    if (!arena) return arena.status();
    return std::make_shared<const SummaryView>(*std::move(arena));
  }
  auto summary = LoadSummary(path);
  if (!summary) return summary.status();
  return std::make_shared<const SummaryView>(*summary);
}

}  // namespace serve

QueryService::QueryService(Options options)
    : options_(options),
      pool_(QueryWorkerCount(options.num_threads)),
      cache_(options.cache_capacity) {}

QueryService::QueryService(const SummaryGraph& summary, Options options)
    : QueryService(options) {
  Publish(summary);
}

uint64_t QueryService::Publish(const SummaryGraph& summary) {
  return Publish(std::make_shared<const SummaryView>(summary));
}

uint64_t QueryService::Publish(std::shared_ptr<const SummaryView> view) {
  uint64_t new_epoch;
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    view_ = std::move(view);
    new_epoch = ++epoch_;
  }
  // Entries of superseded epochs can never be served again: batches key
  // the cache by the epoch they captured, epochs are monotonic, and an
  // old-epoch batch still in flight computes without inserting. Idle
  // kernel scratch is sized for the retired epoch's plan; drop it too.
  // Then hand back what the retired epoch, and the traffic since the last
  // turnover, left free in any malloc arena (see the header).
  cache_.EvictOtherEpochs(new_epoch);
  scratch_pool_.ReleaseIdle();
  ReleaseFreedMemory();
  return new_epoch;
}

uint64_t QueryService::epoch() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return epoch_;
}

std::shared_ptr<const SummaryView> QueryService::view() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_;
}

QueryService::Snapshot QueryService::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return {view_, epoch_};
}

template <typename PerAnswer>
StatusOr<uint64_t> QueryService::RunBatch(
    const std::vector<QueryRequest>& requests, const PerAnswer& answer) {
  const Snapshot snap = CurrentSnapshot();
  if (!snap.view) {
    return Status::FailedPrecondition(
        "no summary published; call Publish() first");
  }
  auto canonical = serve::CanonicalizeBatch(requests, snap.view->num_nodes());
  if (!canonical) return canonical.status();

  // Concurrent batches overlap: each RunCanonicalBatch is an independent
  // Executor submission, and every batch answers against the snapshot it
  // captured above, so a Publish landing mid-flight never mixes epochs
  // within a batch. The in-flight counters make the overlap observable
  // (serving_stats, the serve `stats` directive, and perfbench's
  // serve.inflight_max).
  total_batches_.fetch_add(1, std::memory_order_relaxed);
  const int inflight = inflight_batches_.fetch_add(1,
                                                   std::memory_order_relaxed) +
                       1;
  int high = max_inflight_batches_.load(std::memory_order_relaxed);
  while (inflight > high &&
         !max_inflight_batches_.compare_exchange_weak(
             high, inflight, std::memory_order_relaxed)) {
  }
  const SummaryView& view = *snap.view;
  serve::RunCanonicalBatch(
      view, *canonical, pool_, cache_, snap.epoch, scratch_pool_,
      [&](size_t i, const serve::CachedScores* cached, KernelScratch* sc) {
        answer(view, (*canonical)[i], i, cached, sc);
      });
  inflight_batches_.fetch_sub(1, std::memory_order_relaxed);
  return snap.epoch;
}

StatusOr<QueryService::BatchResult> QueryService::Answer(
    const std::vector<QueryRequest>& requests) {
  BatchResult out;
  out.results.resize(requests.size());
  auto epoch = RunBatch(
      requests, [&](const SummaryView& view, const QueryRequest& request,
                    size_t i, const serve::CachedScores* cached,
                    KernelScratch* sc) {
        QueryResult& result = out.results[i];
        if (cached != nullptr) {
          result.kind = request.kind;
          result.scores = cached->scores;
        } else {
          result = AnswerQuery(view, request, sc);
        }
      });
  if (!epoch) return epoch.status();
  out.epoch = *epoch;
  return out;
}

StatusOr<std::string> QueryService::AnswerText(
    const std::vector<QueryRequest>& requests, size_t top) {
  std::vector<std::string> lines(requests.size());
  auto epoch = RunBatch(
      requests, [&](const SummaryView& view, const QueryRequest& request,
                    size_t i, const serve::CachedScores* cached,
                    KernelScratch* sc) {
        lines[i] = cached != nullptr
                       ? serve::FormatCachedAnswer(request, *cached, top)
                       : serve::FormatAnswer(
                             request, AnswerQuery(view, request, sc), top);
      });
  if (!epoch) return epoch.status();
  return serve::JoinBatchResponse(lines, *epoch);
}

StatusOr<NodeId> QueryService::NodeCount() const {
  const auto current = view();
  if (!current) {
    return Status::FailedPrecondition(
        "no summary published; call Publish() first");
  }
  return current->num_nodes();
}

StatusOr<std::string> QueryService::PublishText(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("publish needs a summary path");
  }
  // Text or PSB1, picked by magic — a .psb file publishes as a mapped
  // arena view with no parse or rebuild (see LoadServingView).
  auto next = serve::LoadServingView(path);
  if (!next) return next.status();
  const uint32_t supernodes = (*next)->num_supernodes();
  const uint64_t published = Publish(*std::move(next));
  char buf[96];
  std::snprintf(buf, sizeof(buf), "epoch %llu published (%u supernodes)\n",
                static_cast<unsigned long long>(published), supernodes);
  return std::string(buf);
}

StatusOr<std::string> QueryService::EpochText() {
  return "epoch " + std::to_string(epoch()) + "\n";
}

StatusOr<std::string> QueryService::StatsText() {
  const CacheStats cache = cache_stats();
  const ServingStats serving = serving_stats();
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "epoch %llu cache_hits %llu computations %llu "
                "evictions %llu entries %zu\n",
                static_cast<unsigned long long>(epoch()),
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.computations),
                static_cast<unsigned long long>(cache.evictions),
                cache.entries);
  std::string out = buf;
  std::snprintf(buf, sizeof(buf),
                "inflight_batches %d max_inflight_batches %d "
                "total_batches %llu\n",
                serving.inflight_batches, serving.max_inflight_batches,
                static_cast<unsigned long long>(serving.total_batches));
  out += buf;
  if (const auto memory = ReadResidentMemory()) {
    std::snprintf(buf, sizeof(buf), "resident_kb %llu peak_resident_kb %llu\n",
                  static_cast<unsigned long long>(memory->resident_kb),
                  static_cast<unsigned long long>(memory->peak_resident_kb));
    out += buf;
  }
  return out;
}

QueryService::ServingStats QueryService::serving_stats() const {
  return {inflight_batches_.load(std::memory_order_relaxed),
          max_inflight_batches_.load(std::memory_order_relaxed),
          total_batches_.load(std::memory_order_relaxed)};
}

StatusOr<QueryResult> QueryService::AnswerOne(const QueryRequest& request) {
  const Snapshot snap = CurrentSnapshot();
  if (!snap.view) {
    return Status::FailedPrecondition(
        "no summary published; call Publish() first");
  }
  auto canon = CanonicalizeRequest(request, snap.view->num_nodes());
  if (!canon) return canon.status();
  if (IsNodeQuery(canon->kind)) {
    const KernelScratchPool::Lease lease = scratch_pool_.Acquire();
    return AnswerQuery(*snap.view, *canon, lease.get());
  }

  const auto key = serve::GlobalResultCache::MakeKey(snap.epoch, *canon);
  QueryResult result;
  result.kind = canon->kind;
  result.scores = cache_.GetOrCompute(key, [&] {
    const KernelScratchPool::Lease lease = scratch_pool_.Acquire();
    return AnswerQuery(*snap.view, *canon, lease.get()).scores;
  })->scores;
  return result;
}

QueryService::CacheStats QueryService::cache_stats() const {
  return {cache_.hits(), cache_.computations(), cache_.evictions(),
          cache_.rankings(), cache_.size()};
}

}  // namespace pegasus
