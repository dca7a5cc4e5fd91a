// Binary summary load benchmark (ISSUE 7 satellite).
//
// Measures cold service start — from a summary file on disk to the first
// answered query — over the three load paths a `pegasus serve` process
// can take:
//
//   * text    — parse the PEGASUS-SUMMARY text format, rebuild the
//               SummaryGraph, build a SummaryView (the pre-PSB1 path);
//   * binary  — read a raw PSB1 file through LoadSummaryBinary (full
//               checksum + structural verification), rebuild, build;
//   * mmap    — SummaryArena::Map (its structural and edge-symmetry
//               passes, no checksums) and construct the view straight
//               over the mapping, zero parse and zero rebuild.
//
// Each path is timed in two parts: load plus view construction (the
// `*_load_ms` columns, which the gate reads), and the first answer to one
// request per query family on that view (the `*_answer_ms` columns). The
// answers are the same kernels over the same arrays on every path, so
// timing them apart keeps their noise out of the load comparison. Timings
// are best-of-reps with a warm page cache, which favors no path over
// another (all three read the same bytes), and the reps interleave the
// three paths, so a slow stretch of a shared machine lands on all of them
// alike. Two hard gates make this bench a correctness check as well as a
// stopwatch:
//
//   * every query family must answer byte-identically across the three
//     paths (any divergence fails the bench, and with it CI);
//   * at the largest measured scale the mmap load must be strictly
//     faster than the text parse — the whole point of the format.

#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/binary_summary_io.h"
#include "src/core/pegasus.h"
#include "src/core/summary_arena.h"
#include "src/core/summary_io.h"
#include "src/graph/generators.h"
#include "src/query/query_engine.h"
#include "src/query/summary_view.h"

namespace pegasus::bench {
namespace {

// One request per query family, the "first answer" a fresh service owes.
std::vector<QueryRequest> FirstRequests(NodeId num_nodes) {
  const NodeId q = num_nodes / 2;
  const double d = kQueryParamUseDefault;
  return {
      {QueryKind::kNeighbors, q, d, true, {}},
      {QueryKind::kHop, q, d, true, {}},
      {QueryKind::kRwr, q, d, true, {}},
      {QueryKind::kPhp, q, d, false, {}},
      {QueryKind::kDegree, 0, d, true, {}},
      {QueryKind::kPageRank, 0, d, false, {}},
      {QueryKind::kClustering, 0, d, true, {}},
  };
}

std::vector<QueryResult> AnswerAll(const SummaryView& view,
                                   const std::vector<QueryRequest>& requests) {
  std::vector<QueryResult> results;
  results.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    auto canon = CanonicalizeRequest(request, view.num_nodes());
    results.push_back(AnswerQuery(view, *canon));
  }
  return results;
}

bool SameResults(const std::vector<QueryResult>& a,
                 const std::vector<QueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].neighbors != b[i].neighbors || a[i].hops != b[i].hops ||
        a[i].scores != b[i].scores) {
      return false;
    }
  }
  return true;
}

// One load path: how it builds a view, its best load and answer times so
// far, and its latest answers.
struct LoadPath {
  std::function<std::unique_ptr<const SummaryView>()> load;
  double load_secs = 0.0;
  double answer_secs = 0.0;
  std::vector<QueryResult> answers{};
};

// One rep of `path`: load + view construction, then the first answers,
// each timed on its own and folded into the path's best.
void TimeRep(LoadPath& path, const std::vector<QueryRequest>& requests,
             bool first_rep) {
  Timer load_timer;
  const std::unique_ptr<const SummaryView> view = path.load();
  const double load_secs = load_timer.ElapsedSeconds();
  Timer answer_timer;
  path.answers = AnswerAll(*view, requests);
  const double answer_secs = answer_timer.ElapsedSeconds();
  if (first_rep || load_secs < path.load_secs) path.load_secs = load_secs;
  if (first_rep || answer_secs < path.answer_secs) {
    path.answer_secs = answer_secs;
  }
}

uint64_t FileSize(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  return bytes.has_value() ? bytes->size() : 0;
}

int Run() {
  Banner("bench_binary_load",
         "Cold service start to first answer: text parse vs verified "
         "binary read vs mmap arena (PSB1, docs/FORMAT.md)");
  const DatasetScale scale = BenchScaleFromEnv();
  std::vector<NodeId> sizes;
  switch (scale) {
    case DatasetScale::kTiny:
      sizes = {2000, 6000};
      break;
    case DatasetScale::kSmall:
      sizes = {10000, 40000};
      break;
    case DatasetScale::kDefault:
      sizes = {50000, 200000};
      break;
    case DatasetScale::kPaper:
      sizes = {250000, 1000000};
      break;
  }
  constexpr int kReps = 5;

  Table table({"nodes", "supernodes", "text_bytes", "psb_bytes",
               "text_load_ms", "binary_load_ms", "mmap_load_ms",
               "mmap_vs_text", "text_answer_ms", "binary_answer_ms",
               "mmap_answer_ms"});
  bool all_identical = true;
  bool mmap_faster_at_largest = false;

  for (size_t idx = 0; idx < sizes.size(); ++idx) {
    const NodeId n = sizes[idx];
    Graph graph = GenerateBarabasiAlbert(n, 5, 11);
    PegasusConfig config;
    config.seed = 5;
    auto summarized =
        *SummarizeGraphToRatio(graph, SampleNodes(graph, 50, 13), 0.5,
                               config);
    const SummaryGraph& summary = summarized.summary;

    const std::string text_path = "bench_binary_load.summary";
    const std::string psb_path = "bench_binary_load.psb";
    if (!SaveSummary(summary, text_path)) return 1;
    {
      const SummaryView writer_view(summary);
      if (!SaveSummaryBinary(writer_view.layout(), psb_path)) return 1;
    }

    const std::vector<QueryRequest> requests = FirstRequests(n);
    LoadPath text{.load = [&] {
      return std::make_unique<const SummaryView>(*LoadSummary(text_path));
    }};
    LoadPath binary{.load = [&] {
      return std::make_unique<const SummaryView>(
          *LoadSummaryBinary(psb_path));
    }};
    LoadPath mmap{.load = [&] {
      return std::make_unique<const SummaryView>(
          *SummaryArena::Map(psb_path));
    }};
    for (int rep = 0; rep < kReps; ++rep) {
      for (LoadPath* path : {&text, &binary, &mmap}) {
        TimeRep(*path, requests, rep == 0);
      }
    }

    if (!SameResults(text.answers, binary.answers) ||
        !SameResults(text.answers, mmap.answers)) {
      std::printf("FAIL: load paths disagree at %u nodes\n", n);
      all_identical = false;
    }
    if (idx + 1 == sizes.size()) {
      mmap_faster_at_largest = mmap.load_secs < text.load_secs;
    }

    table.AddRow({FormatCount(n), FormatCount(summary.num_supernodes()),
                  FormatCount(FileSize(text_path)),
                  FormatCount(FileSize(psb_path)),
                  FormatDouble(text.load_secs * 1e3, 3),
                  FormatDouble(binary.load_secs * 1e3, 3),
                  FormatDouble(mmap.load_secs * 1e3, 3),
                  FormatDouble(text.load_secs / mmap.load_secs, 2) + "x",
                  FormatDouble(text.answer_secs * 1e3, 3),
                  FormatDouble(binary.answer_secs * 1e3, 3),
                  FormatDouble(mmap.answer_secs * 1e3, 3)});
    std::remove(text_path.c_str());
    std::remove(psb_path.c_str());
  }

  Finish(table, "cold_start");

  if (!all_identical) {
    std::printf("\nFAIL: the three load paths did not answer "
                "byte-identically\n");
    return 1;
  }
  std::printf("\nbyte-identity: all query families identical across text / "
              "binary / mmap\n");
  if (!mmap_faster_at_largest) {
    std::printf("FAIL: mmap load was not strictly faster than text parse "
                "at the largest scale\n");
    return 1;
  }
  std::printf("mmap load strictly faster than text parse at the largest "
              "scale\n");
  return 0;
}

}  // namespace
}  // namespace pegasus::bench

int main() { return pegasus::bench::Run(); }
