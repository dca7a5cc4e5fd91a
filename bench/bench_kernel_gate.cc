// KernelPlan speed gate.
//
// The fused KernelPlan sweeps (sliced gather, then in-order epilogue)
// must beat the pre-plan reference sweeps, with byte-identical scores,
// by >= 1.3x as a geometric mean over the six family x density-mode rows
// (rwr/php/pagerank, weighted and unweighted). Any shortfall or
// divergence fails the bench (and with it tools/run_benchmarks.sh, CI,
// and the bench_smoke.kernel_gate ctest entry).
//
// Serving latency and throughput are measured end to end over loopback
// sockets by perfbench/; this bench times the kernels alone.
//
// The graph is pinned at 30k nodes across scales — kernel speedups are a
// property of the summary's working set — and PEGASUS_BENCH_SCALE grows
// the gate's sample size instead.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/pegasus.h"
#include "src/graph/generators.h"
#include "src/query/kernel_scratch.h"
#include "src/query/summary_view.h"
#include "tests/support/reference_kernels.h"

namespace pegasus::bench {
namespace {

constexpr double kMinKernelSpeedup = 1.3;

struct GateRow {
  const char* family;
  double ref_secs;
  double fused_secs;
  bool identical;
};

// Times the fused KernelPlan sweep against the reference sweep for each
// iterative family and density mode over a fixed query sample, checking
// byte-identity on the side. Returns false if the bytes ever diverge.
bool RunKernelGate(const SummaryView& view, const std::vector<NodeId>& sample,
                   int reps, std::vector<GateRow>& rows) {
  const IterativeQueryOptions opts;  // full 100 sweeps: stable timing
  // Fused calls reuse one scratch, matching the steady-state serving
  // configuration (QueryService leases pooled scratch per worker).
  KernelScratch scratch;
  bool all_identical = true;

  const auto time_pair = [&](const char* family, auto&& fused,
                             auto&& reference) {
    bool identical = true;
    for (NodeId q : sample) {
      if (fused(q, opts) != reference(q, opts)) identical = false;
    }
    // Reference and fused reps interleave so slow drift (VM throttling,
    // frequency scaling) hits both sides equally; best-of keeps the
    // least-perturbed rep of each.
    double fused_secs = 0.0, ref_secs = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      Timer fused_timer;
      for (NodeId q : sample) (void)fused(q, opts);
      const double fs = fused_timer.ElapsedSeconds();
      if (rep == 0 || fs < fused_secs) fused_secs = fs;

      Timer ref_timer;
      for (NodeId q : sample) (void)reference(q, opts);
      const double rs = ref_timer.ElapsedSeconds();
      if (rep == 0 || rs < ref_secs) ref_secs = rs;
    }
    rows.push_back({family, ref_secs, fused_secs, identical});
    all_identical = all_identical && identical;
  };

  // Both density modes: weighted exercises the stored-density slices,
  // unweighted additionally the uniform-density shortcut (the fused
  // sweeps never touch the density array at all).
  for (bool weighted : {true, false}) {
    time_pair(
        weighted ? "rwr/w" : "rwr/uw",
        [&](NodeId q, const IterativeQueryOptions& o) {
          return SummaryRwrScores(view, q, 0.05, weighted, o, &scratch);
        },
        [&](NodeId q, const IterativeQueryOptions& o) {
          return SummaryRwrScoresReference(view, q, 0.05, weighted, o);
        });
    time_pair(
        weighted ? "php/w" : "php/uw",
        [&](NodeId q, const IterativeQueryOptions& o) {
          return SummaryPhpScores(view, q, 0.95, weighted, o, &scratch);
        },
        [&](NodeId q, const IterativeQueryOptions& o) {
          return SummaryPhpScoresReference(view, q, 0.95, weighted, o);
        });
    time_pair(
        weighted ? "pagerank/w" : "pagerank/uw",
        [&](NodeId, const IterativeQueryOptions& o) {
          return SummaryPageRank(view, 0.85, weighted, o, &scratch);
        },
        [&](NodeId, const IterativeQueryOptions& o) {
          return SummaryPageRankReference(view, 0.85, weighted, o);
        });
  }
  return all_identical;
}

int Run() {
  Banner("bench_kernel_gate",
         "KernelPlan >=1.3x iterative-kernel speed gate: fused vs "
         "reference sweeps, byte-identical");
  const DatasetScale scale = BenchScaleFromEnv();
  size_t gate_queries = 0;
  int gate_reps = 0;
  switch (scale) {
    case DatasetScale::kTiny:
      gate_queries = 16;
      gate_reps = 7;
      break;
    case DatasetScale::kSmall:
      gate_queries = 16;
      gate_reps = 5;
      break;
    case DatasetScale::kDefault:
      gate_queries = 32;
      gate_reps = 5;
      break;
    case DatasetScale::kPaper:
      gate_queries = 64;
      gate_reps = 7;
      break;
  }
  constexpr NodeId kGraphNodes = 30000;  // pinned: see header comment

  // m = 8 / ratio 0.15 give a dense summary (long CSR rows): row length
  // is what the branch-free fused sweeps amortize their setup over, and
  // the gate should measure the kernels, not per-row dispatch overhead.
  Graph graph = GenerateBarabasiAlbert(kGraphNodes, 8, 11);
  PegasusConfig config;
  config.seed = 5;
  auto summarized =
      *SummarizeGraphToRatio(graph, SampleNodes(graph, 50, 13), 0.15, config);
  const SummaryGraph& summary = summarized.summary;
  const SummaryView view(summary);
  std::printf("graph: BA, %u nodes, %llu edges; summary: %u supernodes, "
              "%llu superedges\n\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()),
              summary.num_supernodes(),
              static_cast<unsigned long long>(summary.num_superedges()));

  const std::vector<NodeId> sample = SampleNodes(graph, gate_queries, 19);
  std::vector<GateRow> gate_rows;
  const bool gate_identical = RunKernelGate(view, sample, gate_reps, gate_rows);

  // The gate is the geometric mean across the three iterative families:
  // per-family timings on a 1-vCPU CI box carry ~10% jitter even
  // interleaved and best-of'd, and the contract is about the fused
  // kernel layer, not about one family winning a coin flip. Per-family
  // speedups stay in the table (and the artifact) for trend tracking.
  Table gate_table({"family", "queries", "reference_s", "fused_s", "speedup",
                    "identical"});
  double speedup_product = 1.0;
  for (const GateRow& row : gate_rows) {
    const double speedup =
        row.fused_secs > 0 ? row.ref_secs / row.fused_secs : 0.0;
    speedup_product *= speedup;
    gate_table.AddRow({row.family, FormatCount(sample.size()),
                       FormatDouble(row.ref_secs, 4),
                       FormatDouble(row.fused_secs, 4),
                       FormatDouble(speedup, 2),
                       row.identical ? "yes" : "NO"});
  }
  const double gate_speedup =
      std::pow(speedup_product, 1.0 / static_cast<double>(gate_rows.size()));
  const bool gate_fast_enough = gate_speedup >= kMinKernelSpeedup;
  gate_table.AddRow({"geomean", FormatCount(sample.size()), "", "",
                     FormatDouble(gate_speedup, 2), ""});
  Finish(gate_table,
         "KernelPlan fused sweeps vs pre-plan reference sweeps, best of " +
             std::to_string(gate_reps) + " interleaved reps over " +
             std::to_string(sample.size()) +
             " full-depth queries; gate: geomean speedup >= 1.3");

  if (!gate_identical) {
    std::fprintf(stderr,
                 "FAIL: fused kernel scores diverged from the reference "
                 "sweeps\n");
    return 1;
  }
  if (!gate_fast_enough) {
    std::fprintf(stderr,
                 "FAIL: fused kernels at %.2fx, below the %.1fx speedup "
                 "gate (see table above)\n",
                 gate_speedup, kMinKernelSpeedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pegasus::bench

int main() { return pegasus::bench::Run(); }
