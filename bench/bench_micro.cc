// Microbenchmarks (google-benchmark) for the core operations: BFS,
// personalized-weight computation, shingle grouping, merge evaluation and
// application, error evaluation, summary-graph query answering (the
// one-off SummaryView build and the per-query kernels on a built view,
// timed apart), and the per-request cost of a cached whole-graph text
// answer.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/candidate_groups.h"
#include "src/core/cost_model.h"
#include "src/core/merge_engine.h"
#include "src/core/parallel_engine.h"
#include "src/core/pegasus.h"
#include "src/core/personal_weights.h"
#include "src/eval/error_eval.h"
#include "src/graph/bfs.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"
#include "src/serve/query_service.h"
#include "src/serve/text_serving.h"
#include "src/util/rng.h"

namespace pegasus {
namespace {

Graph MakeGraph(int64_t nodes) {
  return GenerateBarabasiAlbert(static_cast<NodeId>(nodes), 5, 12345);
}

void BM_MultiSourceBfs(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  std::vector<NodeId> sources{0, 1, 2, 3, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultiSourceBfsDistances(g, sources));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_MultiSourceBfs)->Arg(1 << 12)->Arg(1 << 14);

void BM_PersonalWeights(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  std::vector<NodeId> targets{0, 7, 21};
  for (auto _ : state) {
    benchmark::DoNotOptimize(PersonalWeights::Compute(g, targets, 1.25));
  }
}
BENCHMARK(BM_PersonalWeights)->Arg(1 << 12)->Arg(1 << 14);

void BM_CandidateGroups(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  SummaryGraph s = SummaryGraph::Identity(g);
  Rng rng(1);
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCandidateGroups(g, s, ++seed, {}, rng));
  }
}
BENCHMARK(BM_CandidateGroups)->Arg(1 << 12)->Arg(1 << 14);

void BM_EvaluateMerge(benchmark::State& state) {
  Graph g = MakeGraph(1 << 12);
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {0}, 1.25);
  CostModel cm(g, w, s);
  Rng rng(2);
  for (auto _ : state) {
    NodeId a = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
    NodeId b = static_cast<NodeId>(rng.Uniform(g.num_nodes() - 1));
    if (b >= a) ++b;
    benchmark::DoNotOptimize(cm.EvaluateMerge(a, b));
  }
}
BENCHMARK(BM_EvaluateMerge);

void BM_PlanGroup(benchmark::State& state) {
  // One parallel-engine planner pass (Alg. 2 on one candidate group) over
  // a fixed hub-heavy group: the first-round candidate group of Skitter*
  // tiny with the largest total member degree, where hubs sit next to
  // leaves. Reports the planner's time per merge evaluation.
  const Graph g = MakeDataset(DatasetId::kSkitter, DatasetScale::kTiny).graph;
  const SummaryGraph s = SummaryGraph::Identity(g);
  const auto w = PersonalWeights::Compute(g, {0, 1, 2}, 1.25);
  const CostModel cm(g, w, s);
  Rng rng(3);
  std::vector<SupernodeId> group;
  size_t heaviest = 0;
  for (auto& candidate : GenerateCandidateGroups(g, s, 1, {}, rng)) {
    size_t degree = 0;
    for (SupernodeId a : candidate) degree += g.degree(a);
    if (degree > heaviest) {
      heaviest = degree;
      group = std::move(candidate);
    }
  }
  GroupMergePlanner planner(g, s, cm, MergeScore::kRelative);
  uint64_t evaluations = 0;
  for (auto _ : state) {
    const GroupPlan plan =
        planner.PlanGroup(group, /*theta=*/0.0, s.num_supernodes(), 7);
    evaluations += plan.evaluations;
    benchmark::DoNotOptimize(plan.merges.data());
  }
  state.counters["group_size"] = static_cast<double>(group.size());
  state.counters["evaluations"] = benchmark::Counter(
      static_cast<double>(evaluations), benchmark::Counter::kAvgIterations);
  state.counters["s_per_evaluation"] = benchmark::Counter(
      static_cast<double>(evaluations),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PlanGroup);

void BM_ApplyMerge(benchmark::State& state) {
  // Rebuild the summary once it gets too coarse; timing includes only the
  // merge itself amortized over pairs of fresh supernodes.
  Graph g = MakeGraph(1 << 12);
  auto w = PersonalWeights::Compute(g, {0}, 1.25);
  SummaryGraph s = SummaryGraph::Identity(g);
  auto cm = std::make_unique<CostModel>(g, w, s);
  auto engine = std::make_unique<MergeEngine>(g, s, *cm, MergeScore::kRelative);
  auto active = s.ActiveSupernodes();
  size_t cursor = 0;
  for (auto _ : state) {
    if (cursor + 2 >= active.size()) {
      state.PauseTiming();
      s = SummaryGraph::Identity(g);
      cm = std::make_unique<CostModel>(g, w, s);
      engine = std::make_unique<MergeEngine>(g, s, *cm, MergeScore::kRelative);
      active = s.ActiveSupernodes();
      cursor = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        engine->ApplyMerge(active[cursor], active[cursor + 1]));
    ++cursor;
    ++cursor;
  }
}
BENCHMARK(BM_ApplyMerge);

void BM_SummarizeEndToEnd(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  std::vector<NodeId> targets{0, 1, 2};
  for (auto _ : state) {
    PegasusConfig config;
    config.max_iterations = 10;
    benchmark::DoNotOptimize(SummarizeGraphToRatio(g, targets, 0.5, config));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_SummarizeEndToEnd)->Arg(1 << 12)->Unit(benchmark::kMillisecond);

void BM_PersonalizedError(benchmark::State& state) {
  Graph g = MakeGraph(1 << 13);
  auto result = *SummarizeGraphToRatio(g, {0}, 0.5);
  auto w = PersonalWeights::Compute(g, {0}, 1.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PersonalizedError(g, result.summary, w));
  }
}
BENCHMARK(BM_PersonalizedError);

// The one-off cost of a summary's query form, paid once per summary and
// kept out of BM_SummaryRwr / BM_SummaryHop below.
void BM_SummaryViewBuild(benchmark::State& state) {
  Graph g = MakeGraph(1 << 13);
  auto result = *SummarizeGraphToRatio(g, {0}, 0.5);
  for (auto _ : state) {
    const SummaryView view(result.summary);
    benchmark::DoNotOptimize(view.kernel_plan().num_rows());
  }
}
BENCHMARK(BM_SummaryViewBuild);

void BM_SummaryRwr(benchmark::State& state) {
  Graph g = MakeGraph(1 << 13);
  auto result = *SummarizeGraphToRatio(g, {0}, 0.5);
  const SummaryView view(result.summary);
  IterativeQueryOptions opts;
  opts.max_iterations = 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SummaryRwrScores(view, 0, 0.05, true, opts));
  }
}
BENCHMARK(BM_SummaryRwr);

void BM_SummaryHop(benchmark::State& state) {
  Graph g = MakeGraph(1 << 13);
  auto result = *SummarizeGraphToRatio(g, {0}, 0.5);
  const SummaryView view(result.summary);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FastSummaryHopDistances(view, 0));
  }
}
BENCHMARK(BM_SummaryHop);

void BM_ExactRwr(benchmark::State& state) {
  Graph g = MakeGraph(1 << 13);
  IterativeQueryOptions opts;
  opts.max_iterations = 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactRwrScores(g, 0, 0.05, opts));
  }
}
BENCHMARK(BM_ExactRwr);

// A service over a Skitter* `default` summary (100 sampled targets, ratio
// 0.3: the serve-point set-up), built once for every BM_AnswerCachedText
// variant.
QueryService& CachedTextService() {
  static QueryService* service = [] {
    const Graph g =
        MakeDataset(DatasetId::kSkitter, DatasetScale::kDefault).graph;
    Rng rng(1);
    std::vector<NodeId> targets;
    for (uint64_t t : rng.SampleDistinct(g.num_nodes(), 100)) {
      targets.push_back(static_cast<NodeId>(t));
    }
    PegasusConfig config;
    config.num_threads = 0;
    return new QueryService(
        SummarizeGraphToRatio(g, targets, 0.3, config)->summary);
  }();
  return *service;
}

// One cached pagerank request answered as reply text, top 10. Arg 0 is the
// socket path (AnswerText: formats from the shared scores and their
// memoized ranking); arg 1 is the in-process reference (Answer, which
// copies the n cached scores, then FormatBatchResponse, which ranks them).
void BM_AnswerCachedText(benchmark::State& state) {
  QueryService& service = CachedTextService();
  const std::vector<QueryRequest> requests{
      {QueryKind::kPageRank, 0, kQueryParamUseDefault, true, {}}};
  constexpr size_t kTop = 10;
  const bool reference = state.range(0) == 1;
  const auto warm = service.AnswerText(requests, kTop);  // fills the cache
  if (!warm.ok()) {
    state.SkipWithError(warm.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    std::string body;
    if (reference) {
      auto batch = service.Answer(requests);
      body = serve::FormatBatchResponse(requests, *batch, kTop);
    } else {
      body = *service.AnswerText(requests, kTop);
    }
    benchmark::DoNotOptimize(body.data());
  }
  state.SetLabel(reference ? "Answer+FormatBatchResponse" : "AnswerText");
  state.counters["nodes"] =
      static_cast<double>(service.view()->num_nodes());
}
BENCHMARK(BM_AnswerCachedText)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pegasus
