// Tests for the resident serving layer (src/serve/query_service.h).
//
// The contract under test (ISSUE 4):
//   * epoch semantics — Answer() before Publish() fails typed; every
//     batch is served entirely from one epoch's view even while Publish
//     swaps epochs concurrently;
//   * byte-identity — service answers match single-threaded AnswerQuery
//     calls against the served epoch's view for every thread count,
//     including batches whose cheap runs cross the chunking grain and
//     under concurrent hammering (this suite runs in the TSan CI job);
//   * global-result caching — whole-graph families are computed at most
//     once per (epoch, canonical parameterization) regardless of batch
//     composition;
//   * request validation — NaN/out-of-range parameters are rejected with
//     typed Status errors instead of the old silent defaulting;
//   * reply text — AnswerText is byte-identical to FormatBatchResponse
//     over Answer, reply bytes are pinned across standard libraries, and
//     a cached family is computed and ranked once per residency however
//     many threads ask for its text.
//   * memory — a superseded epoch never re-enters the cache, and Publish
//     hands the memory freed since the last turnover back to the OS.

#include "src/serve/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/binary_summary_io.h"
#include "src/core/pegasus.h"
#include "src/graph/generators.h"
#include "src/query/query_engine.h"
#include "src/query/summary_view.h"
#include "src/serve/text_serving.h"
#include "src/util/memory.h"
#include "src/util/ranking.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

SummaryGraph MakeSummary(const Graph& g, double ratio,
                         std::vector<NodeId> targets = {}) {
  return SummarizeGraphToRatio(g, targets, ratio)->summary;
}

// A batch covering every family, with defaulted and explicit params.
std::vector<QueryRequest> ServiceBatch(NodeId num_nodes) {
  std::vector<QueryRequest> requests;
  for (NodeId q = 0; q < num_nodes; q += 9) {
    requests.push_back({QueryKind::kNeighbors, q, kQueryParamUseDefault,
                        true, {}});
    requests.push_back({QueryKind::kHop, q, kQueryParamUseDefault, true, {}});
    requests.push_back({QueryKind::kRwr, q, 0.1, true, {}});
    requests.push_back({QueryKind::kPhp, q, kQueryParamUseDefault,
                        false, {}});
  }
  requests.push_back(
      {QueryKind::kPageRank, 0, kQueryParamUseDefault, true, {}});
  requests.push_back({QueryKind::kPageRank, 0, 0.5, true, {}});
  requests.push_back({QueryKind::kDegree, 0, kQueryParamUseDefault,
                      true, {}});
  requests.push_back({QueryKind::kDegree, 0, kQueryParamUseDefault,
                      false, {}});
  requests.push_back({QueryKind::kClustering, 0, kQueryParamUseDefault,
                      false, {}});
  return requests;
}

// Single-threaded expected answers: canonicalize, then one AnswerQuery
// per request on the given view.
std::vector<QueryResult> Expected(const SummaryView& view,
                                  const std::vector<QueryRequest>& requests) {
  std::vector<QueryResult> out;
  for (const QueryRequest& request : requests) {
    auto canon = CanonicalizeRequest(request, view.num_nodes());
    EXPECT_TRUE(canon.ok()) << canon.status().ToString();
    out.push_back(AnswerQuery(view, *canon));
  }
  return out;
}

void ExpectSameResults(const std::vector<QueryResult>& got,
                       const std::vector<QueryResult>& want,
                       const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << label << " i=" << i;
    EXPECT_EQ(got[i].neighbors, want[i].neighbors) << label << " i=" << i;
    EXPECT_EQ(got[i].hops, want[i].hops) << label << " i=" << i;
    EXPECT_EQ(got[i].scores, want[i].scores) << label << " i=" << i;
  }
}

TEST(QueryServiceTest, AnswerBeforePublishFailsTyped) {
  QueryService service;
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.view(), nullptr);
  const auto batch = service.Answer({{QueryKind::kDegree, 0,
                                      kQueryParamUseDefault, true, {}}});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kFailedPrecondition);
  const auto one = service.AnswerOne({QueryKind::kDegree, 0,
                                      kQueryParamUseDefault, true, {}});
  ASSERT_FALSE(one.ok());
  EXPECT_EQ(one.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryServiceTest, PublishBumpsEpochMonotonically) {
  Graph g = GenerateBarabasiAlbert(80, 2, 410);
  const SummaryGraph summary = MakeSummary(g, 0.5);
  QueryService service;
  EXPECT_EQ(service.Publish(summary), 1u);
  EXPECT_EQ(service.Publish(summary), 2u);
  EXPECT_EQ(service.epoch(), 2u);
  ASSERT_NE(service.view(), nullptr);
  EXPECT_EQ(service.view()->num_nodes(), g.num_nodes());

  // A shared view is published as is, not rebuilt.
  const auto shared = std::make_shared<const SummaryView>(summary);
  EXPECT_EQ(service.Publish(shared), 3u);
  EXPECT_EQ(service.view(), shared);

  // The convenience constructor publishes epoch 1.
  QueryService eager(summary);
  EXPECT_EQ(eager.epoch(), 1u);
}

// Cheap runs (neighbors and cached-global copy-outs) of one request
// below, at, just past and well past the chunking grain, each between
// two expensive requests: the mixed-batch unit builder must close units
// both at the grain and at the next expensive request, and the answers
// must not depend on where the units fall or how many workers run them.
std::vector<QueryRequest> LongCheapRunBatch(NodeId num_nodes) {
  constexpr size_t kGrain = serve::kDefaultCheapGrain;
  std::vector<QueryRequest> requests;
  NodeId q = 0;
  for (size_t run : {kGrain - 1, kGrain, kGrain + 1, 2 * kGrain + 5}) {
    requests.push_back({QueryKind::kRwr, q, kQueryParamUseDefault, true, {}});
    for (size_t i = 0; i < run; ++i) {
      q = (q + 5) % num_nodes;
      if (i % 6 == 5) {
        requests.push_back({i % 12 == 5 ? QueryKind::kDegree
                                        : QueryKind::kPageRank,
                            0, kQueryParamUseDefault, true, {}});
      } else {
        requests.push_back(
            {QueryKind::kNeighbors, q, kQueryParamUseDefault, true, {}});
      }
    }
    requests.push_back({QueryKind::kHop, q, kQueryParamUseDefault, true, {}});
  }
  return requests;
}

// Every batch is answered twice by the same service: the repeat runs
// against a warm global-result cache and reused kernel scratch and must
// return the same bytes. The empty batch is a valid batch.
TEST(QueryServiceTest, AnswersByteIdenticalToSingleThreadedReference) {
  Graph g = GenerateBarabasiAlbert(130, 3, 411);
  const SummaryGraph summary = MakeSummary(g, 0.5, {3});
  const SummaryView view(summary);
  const std::vector<std::vector<QueryRequest>> batches = {
      ServiceBatch(g.num_nodes()), LongCheapRunBatch(g.num_nodes()), {}};

  for (int threads : {1, 2, 4, 8}) {
    QueryService service(summary, {.num_threads = threads});
    for (size_t b = 0; b < batches.size(); ++b) {
      const auto want = Expected(view, batches[b]);
      for (int repeat = 0; repeat < 2; ++repeat) {
        const auto got = service.Answer(batches[b]);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->epoch, 1u);
        ExpectSameResults(got->results, want,
                          ("threads=" + std::to_string(threads) +
                           " batch=" + std::to_string(b) +
                           " repeat=" + std::to_string(repeat))
                              .c_str());
      }
    }
  }
}

TEST(QueryServiceTest, AnswerOneMatchesBatchAndCaches) {
  Graph g = GenerateBarabasiAlbert(90, 2, 412);
  const SummaryGraph summary = MakeSummary(g, 0.6);
  QueryService service(summary, {.num_threads = 2});
  const auto requests = ServiceBatch(g.num_nodes());
  const auto batch = service.Answer(requests);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto one = service.AnswerOne(requests[i]);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    EXPECT_EQ(one->neighbors, batch->results[i].neighbors) << "i=" << i;
    EXPECT_EQ(one->hops, batch->results[i].hops) << "i=" << i;
    EXPECT_EQ(one->scores, batch->results[i].scores) << "i=" << i;
  }
}

TEST(QueryServiceTest, GlobalResultsComputedOncePerEpochPerParams) {
  Graph g = GenerateBarabasiAlbert(100, 3, 413);
  const SummaryGraph summary = MakeSummary(g, 0.5);
  QueryService service(summary, {.num_threads = 4});

  // 20 global requests, 4 distinct parameterizations: pagerank(default),
  // degree(weighted), degree(unweighted), clustering(unweighted).
  std::vector<QueryRequest> requests;
  for (int r = 0; r < 5; ++r) {
    requests.push_back(
        {QueryKind::kPageRank, 0, kQueryParamUseDefault, true, {}});
    requests.push_back(
        {QueryKind::kDegree, 0, kQueryParamUseDefault, true, {}});
    requests.push_back(
        {QueryKind::kDegree, 0, kQueryParamUseDefault, false, {}});
    requests.push_back(
        {QueryKind::kClustering, 0, kQueryParamUseDefault, false, {}});
  }

  ASSERT_TRUE(service.Answer(requests).ok());
  auto stats = service.cache_stats();
  EXPECT_EQ(stats.computations, 4u);

  // A second batch of the same parameterizations is all cache hits.
  ASSERT_TRUE(service.Answer(requests).ok());
  stats = service.cache_stats();
  EXPECT_EQ(stats.computations, 4u);
  EXPECT_EQ(stats.hits, 4u);

  // A new parameterization computes exactly once more.
  ASSERT_TRUE(service
                  .Answer({{QueryKind::kPageRank, 0, 0.5, true, {}},
                           {QueryKind::kPageRank, 0, 0.5, true, {}}})
                  .ok());
  EXPECT_EQ(service.cache_stats().computations, 5u);

  // A new epoch recomputes (the old epoch's entries are evicted).
  service.Publish(summary);
  ASSERT_TRUE(service.Answer(requests).ok());
  EXPECT_EQ(service.cache_stats().computations, 9u);

  // Repeated requests *within* one batch dedupe before touching the
  // cache, so answers are copies of one computation either way.
  const auto again = service.Answer(requests);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->results[0].scores, again->results[4].scores);
}

TEST(QueryServiceTest, InvalidRequestsRejectedTyped) {
  Graph g = GenerateBarabasiAlbert(60, 2, 414);
  const SummaryGraph summary = MakeSummary(g, 0.5);
  QueryService service(summary);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  struct CaseT {
    QueryRequest request;
    StatusCode code;
  };
  const CaseT cases[] = {
      // NaN parameter.
      {{QueryKind::kRwr, 1, nan, true, {}}, StatusCode::kInvalidArgument},
      // param >= 1.
      {{QueryKind::kPageRank, 0, 1.0, true, {}},
       StatusCode::kInvalidArgument},
      // Negative non-sentinel param (the old code silently defaulted it).
      {{QueryKind::kPhp, 1, -0.5, true, {}}, StatusCode::kInvalidArgument},
      // Parameter on a parameterless family.
      {{QueryKind::kDegree, 0, 0.5, true, {}},
       StatusCode::kInvalidArgument},
      // Node out of range.
      {{QueryKind::kNeighbors, g.num_nodes(), kQueryParamUseDefault,
        true, {}},
       StatusCode::kOutOfRange},
      // Degenerate iteration options.
      {{QueryKind::kRwr, 1, 0.05, true, {.max_iterations = 0}},
       StatusCode::kInvalidArgument},
      {{QueryKind::kRwr, 1, 0.05, true,
        {.max_iterations = 10, .tolerance = -1.0}},
       StatusCode::kInvalidArgument},
  };
  for (size_t i = 0; i < std::size(cases); ++i) {
    const auto one = service.AnswerOne(cases[i].request);
    EXPECT_FALSE(one.ok()) << "case " << i;
    EXPECT_EQ(one.status().code(), cases[i].code) << "case " << i;
  }

  // Batch errors name the offending request index.
  const auto batch = service.Answer(
      {{QueryKind::kDegree, 0, kQueryParamUseDefault, true, {}},
       {QueryKind::kRwr, 1, nan, true, {}}});
  ASSERT_FALSE(batch.ok());
  EXPECT_NE(batch.status().message().find("request 1"), std::string::npos)
      << batch.status().message();

  // The sentinel and the explicit default are the same request.
  const auto defaulted = service.AnswerOne(
      {QueryKind::kRwr, 1, kQueryParamUseDefault, true, {}});
  const auto explicit_default =
      service.AnswerOne({QueryKind::kRwr, 1, 0.05, true, {}});
  ASSERT_TRUE(defaulted.ok() && explicit_default.ok());
  EXPECT_EQ(defaulted->scores, explicit_default->scores);
}

// The serving path must reproduce the cross-stdlib goldens bit-for-bit:
// the same constants determinism_test asserts through a single-threaded
// SummaryView, served here through a multi-threaded QueryService batch
// (pool fan-out, global-result cache and cheap-run chunking).
TEST(QueryServiceTest, ServedAnswersMatchCrossStdlibGoldens) {
  const Graph g = ::pegasus::testing::QueryGoldenGraph();
  const SummaryGraph summary = ::pegasus::testing::QueryGoldenSummary(g);
  const auto cases = ::pegasus::testing::QueryGoldenCases();
  std::vector<QueryRequest> requests;
  for (const auto& c : cases) requests.push_back(c.request);

  QueryService service(summary, {.num_threads = 4});
  const auto batch = service.Answer(requests);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(::pegasus::testing::HashQueryResult(batch->results[i]),
              cases[i].hash)
        << cases[i].name;
  }
}

// The global-result cache must not grow without bound within an epoch: a
// parameter-sweeping client stays within cache_capacity entries, with
// evictions counted, and an evicted parameterization is recomputed (not
// wrong) when it comes back.
TEST(QueryServiceTest, GlobalResultCacheIsBoundedWithLruEviction) {
  Graph g = GenerateBarabasiAlbert(80, 2, 418);
  const SummaryGraph summary = MakeSummary(g, 0.5);
  // Serial service: with >1 worker the ParallelFor scheduling would make
  // the LRU insertion order (and so *which* keys survive) nondeterministic
  // — the capacity/eviction accounting needs no parallelism to be proven.
  QueryService service(summary,
                       {.num_threads = 1, .cache_capacity = 4});

  // Sweep 12 distinct pagerank dampings: 3x the capacity.
  std::vector<QueryRequest> sweep;
  for (int i = 0; i < 12; ++i) {
    sweep.push_back(
        {QueryKind::kPageRank, 0, 0.05 + 0.07 * i, true, {}});
  }
  const auto first = service.Answer(sweep);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto stats = service.cache_stats();
  EXPECT_EQ(stats.computations, 12u);
  EXPECT_EQ(stats.evictions, 8u);
  EXPECT_LE(stats.entries, 4u);

  // The most recent parameterization survived; asking again is a hit.
  ASSERT_TRUE(service.AnswerOne(sweep.back()).ok());
  EXPECT_EQ(service.cache_stats().computations, 12u);

  // An evicted one is recomputed — and still byte-identical.
  const SummaryView view(summary);
  const auto recomputed = service.AnswerOne(sweep.front());
  ASSERT_TRUE(recomputed.ok());
  EXPECT_EQ(service.cache_stats().computations, 13u);
  auto canon = CanonicalizeRequest(sweep.front(), view.num_nodes());
  ASSERT_TRUE(canon.ok());
  EXPECT_EQ(recomputed->scores, AnswerQuery(view, *canon).scores);

  // Unbounded mode (capacity 0) keeps every entry.
  QueryService unbounded(summary, {.num_threads = 1, .cache_capacity = 0});
  ASSERT_TRUE(unbounded.Answer(sweep).ok());
  EXPECT_EQ(unbounded.cache_stats().evictions, 0u);
  EXPECT_EQ(unbounded.cache_stats().entries, 12u);
}

// The TSan-exercised hammer: concurrent batches while Publish swaps
// epochs. Every recorded answer must be byte-identical to a
// single-threaded run against the epoch it reports it was served from.
TEST(QueryServiceTest, ConcurrentBatchesAcrossEpochSwapsAreByteIdentical) {
  Graph g = GenerateBarabasiAlbert(90, 3, 417);
  const SummaryGraph summary_a = MakeSummary(g, 0.5);
  const SummaryGraph summary_b = MakeSummary(g, 0.3, {1, 2});

  QueryService service({.num_threads = 4});
  // by_epoch[e - 1] is the summary published as epoch e; Publish is
  // called only from this thread.
  std::vector<const SummaryGraph*> by_epoch;
  service.Publish(summary_a);
  by_epoch.push_back(&summary_a);

  // Mixed units of every shape, including cheap runs closed at the grain.
  auto requests = ServiceBatch(g.num_nodes());
  const auto long_runs = LongCheapRunBatch(g.num_nodes());
  requests.insert(requests.end(), long_runs.begin(), long_runs.end());
  constexpr int kThreads = 4;
  constexpr int kIterations = 6;
  std::vector<std::vector<QueryService::BatchResult>> recorded(kThreads);

  std::vector<std::thread> hammers;
  for (int t = 0; t < kThreads; ++t) {
    hammers.emplace_back([&, t] {
      for (int it = 0; it < kIterations; ++it) {
        auto batch = service.Answer(requests);
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        recorded[t].push_back(*std::move(batch));
      }
    });
  }
  // Swap epochs while the hammers run.
  for (int swap = 0; swap < 6; ++swap) {
    const SummaryGraph* next = swap % 2 == 0 ? &summary_b : &summary_a;
    service.Publish(*next);
    by_epoch.push_back(next);
    std::this_thread::yield();
  }
  for (std::thread& h : hammers) h.join();

  // Verify against a fresh single-threaded run per epoch actually served.
  std::map<uint64_t, std::vector<QueryResult>> want;
  for (const auto& per_thread : recorded) {
    for (const auto& batch : per_thread) {
      ASSERT_GE(batch.epoch, 1u);
      ASSERT_LE(batch.epoch, by_epoch.size());
      auto it = want.find(batch.epoch);
      if (it == want.end()) {
        const SummaryView view(*by_epoch[batch.epoch - 1]);
        it = want.emplace(batch.epoch, Expected(view, requests)).first;
      }
      ExpectSameResults(batch.results, it->second,
                        ("epoch=" + std::to_string(batch.epoch)).c_str());
    }
  }
  // The hammers must have been answered only from published epochs (and
  // at least the first one).
  EXPECT_FALSE(want.empty());
}

// The socket path (AnswerText) against the in-process reference
// (FormatBatchResponse over Answer): byte-identical for every top,
// including 0 and tops past n, and every thread count.
TEST(QueryServiceTest, AnswerTextMatchesFormattedAnswer) {
  Graph g = GenerateBarabasiAlbert(90, 3, 419);
  const SummaryGraph summary = MakeSummary(g, 0.4);
  auto requests = ServiceBatch(g.num_nodes());
  const auto long_runs = LongCheapRunBatch(g.num_nodes());
  requests.insert(requests.end(), long_runs.begin(), long_runs.end());
  for (int threads : {1, 4}) {
    QueryService service(summary, {.num_threads = threads});
    for (size_t top : {size_t{0}, size_t{1}, size_t{10},
                       size_t{g.num_nodes()} + 3}) {
      const auto text = service.AnswerText(requests, top);
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      const auto batch = service.Answer(requests);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      EXPECT_EQ(*text, serve::FormatBatchResponse(requests, *batch, top))
          << "threads=" << threads << " top=" << top;
    }
  }
  QueryService unpublished;
  const auto none = unpublished.AnswerText(requests, 10);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kFailedPrecondition);
}

// A cache entry's memoized ranking is the full ranking of its scores:
// every prefix equals the bounded streaming top-K that FormatAnswer runs
// over a fresh copy of the scores.
TEST(QueryServiceTest, CachedRankingPrefixEqualsStreamingTopK) {
  const Graph g = ::pegasus::testing::QueryGoldenGraph();
  const SummaryView view(::pegasus::testing::QueryGoldenSummary(g));
  const size_t n = view.num_nodes();
  serve::GlobalResultCache cache(/*capacity=*/0);
  for (const auto& c : ::pegasus::testing::QueryGoldenCases()) {
    if (IsNodeQuery(c.request.kind)) continue;
    auto canon = CanonicalizeRequest(c.request, view.num_nodes());
    ASSERT_TRUE(canon.ok()) << c.name;
    const auto cached = cache.GetOrCompute(
        serve::GlobalResultCache::MakeKey(1, *canon),
        [&] { return AnswerQuery(view, *canon).scores; });
    ASSERT_EQ(cached->scores, AnswerQuery(view, *canon).scores) << c.name;
    ASSERT_EQ(cached->ranking.size(), n) << c.name;
    for (size_t k : {size_t{0}, size_t{1}, size_t{10}, n - 1, n, n + 5}) {
      const std::vector<NodeId> prefix(
          cached->ranking.begin(),
          cached->ranking.begin() + static_cast<ptrdiff_t>(std::min(k, n)));
      EXPECT_EQ(prefix, TopK(ScoreRank{cached->scores}, k))
          << c.name << " k=" << k;
    }
  }
  EXPECT_EQ(cache.computations(), 6u);
  EXPECT_EQ(cache.rankings(), 6u);
}

// A batch still in flight on an epoch Publish has retired gets the right
// answer, but its whole-graph scores are not cached: they die with the
// batch instead of staying pinned until the next Publish.
TEST(QueryServiceTest, SupersededEpochNeverReentersCache) {
  const Graph g = GenerateBarabasiAlbert(80, 2, 421);
  const SummaryView view(MakeSummary(g, 0.5));
  auto canon = CanonicalizeRequest(
      {QueryKind::kPageRank, 0, kQueryParamUseDefault, true, {}},
      view.num_nodes());
  ASSERT_TRUE(canon.ok());
  const std::vector<double> expected = AnswerQuery(view, *canon).scores;
  const auto compute = [&] { return AnswerQuery(view, *canon).scores; };

  serve::GlobalResultCache cache(/*capacity=*/0);
  cache.EvictOtherEpochs(2);
  for (int round = 0; round < 2; ++round) {
    const auto stale = cache.GetOrCompute(
        serve::GlobalResultCache::MakeKey(1, *canon), compute);
    EXPECT_EQ(stale->scores, expected);
    EXPECT_EQ(stale->ranking, RankAll(ScoreRank{expected}));
    EXPECT_EQ(cache.size(), 0u);
  }
  EXPECT_EQ(cache.computations(), 2u);  // no hit: nothing was kept
  EXPECT_EQ(cache.rankings(), 2u);

  // The current epoch still caches.
  cache.GetOrCompute(serve::GlobalResultCache::MakeKey(2, *canon), compute);
  cache.GetOrCompute(serve::GlobalResultCache::MakeKey(2, *canon), compute);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  // A late eviction for an older epoch (concurrent publishes landing out
  // of order) keeps the newest epoch's entries.
  cache.EvictOtherEpochs(1);
  EXPECT_EQ(cache.size(), 1u);
  cache.GetOrCompute(serve::GlobalResultCache::MakeKey(2, *canon), compute);
  EXPECT_EQ(cache.hits(), 2u);
}

// Publish hands back what the traffic since the last turnover left free
// in the malloc arenas of short-lived client threads: VmRSS falls across
// the last Publish. On glibc the fall was 5068-8972 KiB over 20 runs
// (four copies at once on 4 cores); without the release in Publish it
// was 0 KiB in every one of 20 runs, so the bound sits over 2x from both.
// VmRSS growth from a post-warm-up baseline to the end did not separate
// the two under load: residue in the arenas' top chunks, which
// malloc_trim leaves alone, moved it by up to 5 MiB either way. Sanitizer
// allocators are not glibc's, so the test is skipped under them.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PEGASUS_TEST_SANITIZED_ALLOCATOR 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PEGASUS_TEST_SANITIZED_ALLOCATOR 1
#endif
TEST(QueryServiceTest, PublishHandsFreedMemoryBackToTheOs) {
#if !defined(__GLIBC__) || defined(PEGASUS_TEST_SANITIZED_ALLOCATOR)
  GTEST_SKIP() << "needs glibc malloc";
#else
  constexpr NodeId kNodes = 100000;
  constexpr NodeId kBlock = 16;
  constexpr int kTurnovers = 20;
  constexpr int kClients = 8;
  constexpr int64_t kMinFallKb = 2048;
  ASSERT_TRUE(ReadResidentMemory().has_value());
  // Supernodes of `block` consecutive ids, with a superedge wherever an
  // edge joins two blocks (or a block to itself): a summary whose kernels
  // and scratch are small next to the n-sized answers built from it.
  const auto BlockSummary = [](const Graph& g, NodeId block) {
    std::vector<NodeId> labels(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) labels[u] = u / block;
    SummaryGraph s = SummaryGraph::FromPartition(g, labels);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const NodeId v : g.neighbors(u)) {
        s.SetSuperedge(s.supernode_of(u), s.supernode_of(v), 1);
      }
    }
    return s;
  };
  std::vector<std::shared_ptr<const SummaryView>> views;
  for (const uint64_t seed : {11u, 12u}) {
    const Graph g = GenerateBarabasiAlbert(kNodes, 3, seed);
    const std::string path = ::testing::TempDir() + "/rss_turnover_" +
                             std::to_string(seed) + ".psb";
    ASSERT_TRUE(
        SaveSummaryBinary(SummaryView(BlockSummary(g, kBlock)).layout(), path)
            .ok());
    auto view = serve::LoadServingView(path);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    views.push_back(*std::move(view));
  }

  // Each turnover: publish, then rwr and pagerank text answered from
  // client threads that exit before the next turnover.
  QueryService service({.num_threads = 2});
  for (int turn = 0; turn < kTurnovers; ++turn) {
    service.Publish(views[turn % 2]);
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&service, turn, t] {
        const std::vector<QueryRequest> requests{
            {QueryKind::kRwr, static_cast<NodeId>(turn * kClients + t),
             kQueryParamUseDefault, true, {}},
            {QueryKind::kPageRank, 0, 0.80 + 0.01 * t, true, {}}};
        EXPECT_TRUE(service.AnswerText(requests, 10).ok());
      });
    }
    for (auto& client : clients) client.join();
  }
  const uint64_t before_kb = ReadResidentMemory()->resident_kb;
  service.Publish(views[0]);
  const int64_t fall_kb =
      static_cast<int64_t>(before_kb) -
      static_cast<int64_t>(ReadResidentMemory()->resident_kb);
  EXPECT_GE(fall_kb, kMinFallKb)
      << "VmRSS fell by only " << fall_kb << " KiB across Publish";
#endif
}

// True when two ids ranked next to each other within the first top + 1
// places tie — a tie inside the printed prefix or across its end.
template <typename Rank, typename Key>
bool TieInOrAtPrefix(const Rank& rank, const Key& key, size_t top) {
  const std::vector<NodeId> ranked = RankAll(rank);
  for (size_t i = 0; i + 1 < ranked.size() && i < top; ++i) {
    if (key[ranked[i]] == key[ranked[i + 1]]) return true;
  }
  return false;
}

// Reply bytes are pinned, so the clang/libc++ CI job checks the ranking
// order of reply lines across standard libraries. The every-family batch
// must actually exercise ties in hop, degree and clustering.
TEST(QueryServiceTest, ReplyBytesMatchCrossStdlibGoldens) {
  const Graph g = ::pegasus::testing::QueryGoldenGraph();
  const SummaryGraph summary = ::pegasus::testing::QueryGoldenSummary(g);
  constexpr size_t kTop = ::pegasus::testing::kReplyGoldenTop;
  QueryService service(summary, {.num_threads = 4});
  for (const auto& golden : ::pegasus::testing::ReplyGoldenBatches()) {
    const auto requests = serve::ParseBatchText(golden.text, g.num_nodes());
    ASSERT_TRUE(requests.ok()) << requests.status().ToString();
    const auto text = service.AnswerText(*requests, kTop);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_EQ(::pegasus::testing::HashBytes(*text), golden.hash)
        << golden.name << " actual 0x" << std::hex
        << ::pegasus::testing::HashBytes(*text) << std::dec << "\n"
        << *text;
    const auto batch = service.Answer(*requests);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(serve::FormatBatchResponse(*requests, *batch, kTop), *text)
        << golden.name;
  }

  const SummaryView view(summary);
  for (NodeId q : {NodeId{5}, NodeId{1}}) {
    const auto hops = AnswerQuery(
        view, {QueryKind::kHop, q, kQueryParamUseDefault, true, {}}).hops;
    EXPECT_TRUE(TieInOrAtPrefix(HopRank{hops}, hops, kTop)) << "hop " << q;
  }
  for (QueryKind kind : {QueryKind::kDegree, QueryKind::kClustering}) {
    auto canon = CanonicalizeRequest(
        {kind, 0, kQueryParamUseDefault, true, {}}, view.num_nodes());
    ASSERT_TRUE(canon.ok());
    const auto scores = AnswerQuery(view, *canon).scores;
    EXPECT_TRUE(TieInOrAtPrefix(ScoreRank{scores}, scores, kTop))
        << QueryKindName(kind);
  }
}

// Many threads asking for one cached family's text at once: exactly one
// scores computation and one ranking run, and every reply is identical.
// Runs in the TSan CI job with the rest of this suite.
TEST(QueryServiceTest, CachedTextRankedOncePerResidencyUnderConcurrency) {
  Graph g = GenerateBarabasiAlbert(120, 3, 420);
  const SummaryGraph summary = MakeSummary(g, 0.4);
  QueryService service(summary, {.num_threads = 4});
  const std::vector<QueryRequest> requests{
      {QueryKind::kPageRank, 0, kQueryParamUseDefault, true, {}}};

  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  std::atomic<int> ready{0};
  std::vector<std::vector<std::string>> replies(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int r = 0; r < kRounds; ++r) {
        auto text = service.AnswerText(requests, 10);
        ASSERT_TRUE(text.ok()) << text.status().ToString();
        replies[static_cast<size_t>(t)].push_back(*std::move(text));
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto stats = service.cache_stats();
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(stats.rankings, 1u);
  EXPECT_EQ(stats.hits, uint64_t{kThreads} * kRounds - 1);
  const auto batch = service.Answer(requests);
  ASSERT_TRUE(batch.ok());
  const std::string expected =
      serve::FormatBatchResponse(requests, *batch, 10);
  for (const auto& per_thread : replies) {
    ASSERT_EQ(per_thread.size(), static_cast<size_t>(kRounds));
    for (const std::string& reply : per_thread) EXPECT_EQ(reply, expected);
  }
}

}  // namespace
}  // namespace pegasus
