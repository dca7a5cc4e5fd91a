// Fig. 8: summarization time and query time.
//
// (a) Wall-clock summarization time per algorithm per dataset at
//     compression ratio 0.5 (supernode-budget baselines at 50% of |V|).
// (b) Query time for BFS (HOP) and RWR on the resulting summary graphs,
//     next to the uncompressed graph. Dense summaries (SAAGs, k-GraSS,
//     S2L) are expected to be much slower to query than PeGaSus's sparse
//     output — the paper's headline for this figure. Each summary is
//     turned into its query form (a SummaryView) once, outside the timed
//     query loops; that one-off cost is its own column, view_build_ms.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/baselines/grass.h"
#include "src/baselines/saags.h"
#include "src/baselines/s2l.h"
#include "src/baselines/ssumm.h"
#include "src/core/pegasus.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"

namespace pegasus::bench {
namespace {

struct QueryTimes {
  double bfs_ms = 0.0;
  double rwr_ms = 0.0;
};

QueryTimes TimeSummaryQueries(const SummaryView& view,
                              const std::vector<NodeId>& queries) {
  QueryTimes t;
  Timer timer;
  for (NodeId q : queries) {
    volatile auto r = FastSummaryHopDistances(view, q).size();
    (void)r;
  }
  t.bfs_ms = timer.ElapsedMillis() / queries.size();
  timer.Reset();
  IterativeQueryOptions opts;
  opts.max_iterations = 30;
  for (NodeId q : queries) {
    volatile auto r = SummaryRwrScores(view, q, 0.05, true, opts).size();
    (void)r;
  }
  t.rwr_ms = timer.ElapsedMillis() / queries.size();
  return t;
}

// One table row for a summary that took `summarize_s` to build: the view
// build is timed once, then the queries run against that view.
void AddSummaryRow(Table& table, const std::string& dataset,
                   const std::string& algo, double summarize_s,
                   const SummaryGraph& summary,
                   const std::vector<NodeId>& queries) {
  Timer timer;
  const SummaryView view(summary);
  const double build_ms = timer.ElapsedMillis();
  const QueryTimes qt = TimeSummaryQueries(view, queries);
  table.AddRow({dataset, algo, FormatDouble(summarize_s, 3),
                FormatDouble(build_ms, 2), FormatDouble(qt.bfs_ms, 2),
                FormatDouble(qt.rwr_ms, 2),
                FormatCount(summary.num_superedges())});
}

QueryTimes TimeExactQueries(const Graph& g,
                            const std::vector<NodeId>& queries) {
  QueryTimes t;
  Timer timer;
  for (NodeId q : queries) {
    volatile auto r = ExactHopDistances(g, q).size();
    (void)r;
  }
  t.bfs_ms = timer.ElapsedMillis() / queries.size();
  timer.Reset();
  IterativeQueryOptions opts;
  opts.max_iterations = 30;
  for (NodeId q : queries) {
    volatile auto r = ExactRwrScores(g, q, 0.05, opts).size();
    (void)r;
  }
  t.rwr_ms = timer.ElapsedMillis() / queries.size();
  return t;
}

void Run() {
  Banner("bench_fig8_timing",
         "Fig. 8 (summarization time; BFS/RWR query time at ratio 0.5)");
  const DatasetScale scale = BenchScaleFromEnv();
  const size_t num_queries = 5;
  const double kBaselineTimeLimit = 15.0;
  const EdgeId kSlowBaselineEdgeCap = 35000;

  Table table({"dataset", "algo", "summarize_s", "view_build_ms",
               "query_BFS_ms", "query_RWR_ms", "superedges"});
  for (Dataset& ds : BenchDatasets(scale)) {
    const Graph& g = ds.graph;
    std::vector<NodeId> queries = SampleNodes(g, num_queries, 31);

    {
      Timer timer;
      PegasusConfig config;
      config.alpha = 1.25;
      auto r = *SummarizeGraphToRatio(g, queries, 0.5, config);
      AddSummaryRow(table, ds.abbrev, "PeGaSus", timer.ElapsedSeconds(),
                    r.summary, queries);
    }
    {
      Timer timer;
      auto r = *SsummSummarizeToRatio(g, 0.5);
      AddSummaryRow(table, ds.abbrev, "SSumM", timer.ElapsedSeconds(),
                    r.summary, queries);
    }
    if (g.num_edges() <= kSlowBaselineEdgeCap) {
      const uint32_t k = g.num_nodes() / 2;
      {
        SaagsConfig config;
        config.time_limit_seconds = kBaselineTimeLimit;
        Timer timer;
        auto r = *SaagsSummarize(g, k, config);
        if (r.timed_out) {
          table.AddRow({ds.abbrev, "SAAGs", "o.o.t"});
        } else {
          AddSummaryRow(table, ds.abbrev, "SAAGs", timer.ElapsedSeconds(),
                        r.summary, queries);
        }
      }
      {
        GrassConfig config;
        config.time_limit_seconds = kBaselineTimeLimit;
        Timer timer;
        auto r = *GrassSummarize(g, k, config);
        if (r.timed_out) {
          table.AddRow({ds.abbrev, "k-GraSS", "o.o.t"});
        } else {
          AddSummaryRow(table, ds.abbrev, "k-GraSS", timer.ElapsedSeconds(),
                        r.summary, queries);
        }
      }
      {
        S2lConfig config;
        config.time_limit_seconds = kBaselineTimeLimit;
        Timer timer;
        auto r = *S2lSummarize(g, k, config);
        if (r.timed_out) {
          table.AddRow({ds.abbrev, "S2L", "o.o.t/o.o.m"});
        } else {
          AddSummaryRow(table, ds.abbrev, "S2L", timer.ElapsedSeconds(),
                        r.summary, queries);
        }
      }
    } else {
      table.AddRow({ds.abbrev, "SAAGs/k-GraSS/S2L", "o.o.t (skipped)"});
    }
    {
      auto qt = TimeExactQueries(g, queries);
      table.AddRow({ds.abbrev, "Uncompressed", "-", "-",
                    FormatDouble(qt.bfs_ms, 2), FormatDouble(qt.rwr_ms, 2),
                    FormatCount(g.num_edges())});
    }
  }
  Finish(table);
}

}  // namespace
}  // namespace pegasus::bench

int main() {
  pegasus::bench::Run();
  return 0;
}
