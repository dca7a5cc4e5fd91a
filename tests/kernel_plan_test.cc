// KernelPlan tests: the sliced transition arrays behind the fused
// iterative kernels (src/core/kernel_plan.h). The load-bearing pins:
//
//   * plan structure — walking each row's lane in slot order gives the
//     layout row's slots in ascending order, the self slot at its
//     position reading the row's self column; pads only after the last
//     real slot, reading the +0.0 pad column; densities stored exactly
//     for the slices that hold a weighted density != 1.0; live_rows
//     exactly the rows with a slot;
//   * fused == reference, bit for bit — every iterative family, weighted
//     and unweighted, at full and at one- and two-sweep budgets, on
//     fixtures that between them hit every path: the self-loop-free
//     golden fixture, self superedges (the PHP self column), isolated
//     supernodes queried from an isolated and from a multi-member query
//     supernode, non-unit weighted densities, several sorting windows and
//     a partial last slice;
//   * built views are servable — the view of every summary the
//     summarizers produce (PeGaSus serial and parallel, SSumM, k-GraSS,
//     S2L, SAAGs, identity) passes the checks SummaryArena::Map runs on
//     a file, and its fused scores equal the reference bytes. Those
//     checks are what let the fused sweeps be the only kernels;
//   * built-vs-arena plan equality — a PSB1 round trip derives the same
//     plan at attach time that the built view derived at construction;
//   * scratch reuse — a KernelScratch recycled across queries of
//     different families and sizes never changes an answer byte;
//   * iteration-option edge cases — degenerate max_iterations/tolerance
//     are rejected by canonicalization, tolerance = 0 is sanctioned, and
//     a tolerance early-exit lands on exactly the bytes of some
//     fixed-iteration run (the exit changes when you stop, never what a
//     sweep computes).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/grass.h"
#include "src/baselines/s2l.h"
#include "src/baselines/saags.h"
#include "src/baselines/ssumm.h"
#include "src/core/binary_summary_io.h"
#include "src/core/kernel_plan.h"
#include "src/core/pegasus.h"
#include "src/core/summary_arena.h"
#include "src/core/summary_graph.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/query/kernel_scratch.h"
#include "src/query/query_engine.h"
#include "src/query/summary_view.h"
#include "src/util/status.h"
#include "tests/support/reference_kernels.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

using ::pegasus::testing::HashScores;
using ::pegasus::testing::QueryGoldenGraph;
using ::pegasus::testing::QueryGoldenSummary;
using ::pegasus::testing::TwoCliquesGraph;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// The repo-wide golden fixture (BA graph, ratio-0.4 summary). Its
// summary happens to carry no self superedges, which makes it the
// no-self-column case; SelfLoopSummary below covers the other one.
std::unique_ptr<SummaryView> GoldenView() {
  const Graph g = QueryGoldenGraph();
  return std::make_unique<SummaryView>(QueryGoldenSummary(g));
}

// Two 4-cliques bridged by one edge, grouped clique-per-supernode: both
// supernodes keep a self superedge (their internal clique edges), so the
// self column and self-rate paths are all live. Two rows: one partial
// slice.
SummaryGraph SelfLoopSummary() {
  const Graph g = TwoCliquesGraph(4);
  std::vector<NodeId> labels(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) labels[u] = u < 4 ? 0 : 1;
  SummaryGraph summary = SummaryGraph::FromPartition(g, labels);
  summary.SetSuperedge(0, 0, 6);  // C(4,2) internal edges per clique
  summary.SetSuperedge(1, 1, 6);
  summary.SetSuperedge(0, 1, 1);  // the bridge
  return summary;
}

// The summary of `g` under `labels` that keeps every input edge: one
// superedge per linked block pair, weighted by its edge count.
SummaryGraph LosslessPartitionSummary(const Graph& g,
                                      const std::vector<NodeId>& labels) {
  SummaryGraph summary = SummaryGraph::FromPartition(g, labels);
  std::map<std::pair<SupernodeId, SupernodeId>, uint32_t> weight;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (v < u) continue;
      const SupernodeId a = summary.supernode_of(u);
      const SupernodeId b = summary.supernode_of(v);
      ++weight[{std::min(a, b), std::max(a, b)}];
    }
  }
  for (const auto& [pair, w] : weight) {
    summary.SetSuperedge(pair.first, pair.second, w);
  }
  return summary;
}

// Nodes that are isolated in the graph, and the query nodes that reach
// the static-row paths from both sides.
constexpr NodeId kIsolatedSingle = 27;  // its own supernode, no superedge
constexpr NodeId kIsolatedPair = 24;    // {24, 25, 26}: no superedge either
constexpr NodeId kGroupedLive = 3;      // {3, 4, 5}: a live multi-member row

// A 31-node graph: a BA core on nodes 0..23, and nodes 24..30 isolated.
// Nodes 0..11 are grouped in threes (self superedges where a triple
// holds an edge, densities below 1.0), 24..26 form one isolated
// three-member supernode, the rest stay singletons: 4 + 12 + 1 + 4 = 21
// rows, so the last slice is partial and five rows are static.
SummaryGraph IsolatedSummary() {
  const Graph core = GenerateBarabasiAlbert(24, 2, 513);
  GraphBuilder b(31);
  for (NodeId u = 0; u < core.num_nodes(); ++u) {
    for (NodeId v : core.neighbors(u)) b.AddEdge(u, v);
  }
  const Graph g = std::move(b).Build();
  std::vector<NodeId> labels(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    labels[u] = u < 12 ? u / 3 : u >= 24 && u <= 26 ? 24 : u;
  }
  return LosslessPartitionSummary(g, labels);
}

// A 707-node BA graph with nodes 420..629 grouped in threes: 70 + 497 =
// 567 rows, three sorting windows and a partial last slice, with
// non-unit weighted densities (3 x 3 and 3 x 1 blocks rarely fill) next
// to unit ones (the early, singleton hubs link singletons).
SummaryGraph NonUnitDensitySummary() {
  const Graph g = GenerateBarabasiAlbert(707, 3, 514);
  std::vector<NodeId> labels(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    labels[u] = u >= 420 && u < 630 ? 420 + (u - 420) / 3 : u;
  }
  return LosslessPartitionSummary(g, labels);
}

// Bitwise score equality: value == hides nothing here (scores are never
// NaN), but the FNV bit-pattern hash is the same oracle the goldens use,
// so assert through it as well.
void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << what << " diverges at node " << i;
  }
  EXPECT_EQ(HashScores(got), HashScores(want)) << what;
}

// --- Plan structure --------------------------------------------------------

uint64_t SlotCount(const SummaryLayout& layout, uint32_t row) {
  return layout.edge_begin[row + 1] - layout.edge_begin[row];
}

// The structural property every plan holds over a built layout. See the
// slice layout in kernel_plan.h.
void ExpectPlanMatchesLayout(const KernelPlan& plan,
                             const SummaryLayout& layout) {
  constexpr uint32_t kLanes = KernelPlan::kLanes;
  const uint32_t rows = static_cast<uint32_t>(layout.num_supernodes);
  const uint32_t pad = plan.pad_index();
  ASSERT_EQ(plan.num_rows(), rows);
  ASSERT_EQ(pad, rows);
  ASSERT_EQ(plan.self_rate_uw.size(), rows);
  const uint32_t slices = (rows + kLanes - 1) / kLanes;
  ASSERT_EQ(plan.num_slices(), slices);
  ASSERT_EQ(plan.row_begin.front(), 0u);
  ASSERT_EQ(plan.row_begin.back(), plan.dst.size());
  ASSERT_EQ(plan.den_begin.size(), slices);
  ASSERT_EQ(plan.lane_row.size(), static_cast<size_t>(slices) * kLanes);
  ASSERT_EQ(plan.gather_extent(), rows + 1 + plan.self_rows.size());

  // self_rows: ascending, exactly the rows holding a self slot.
  std::vector<uint32_t> want_self;
  std::vector<uint32_t> want_live;
  for (uint32_t b = 0; b < rows; ++b) {
    for (uint64_t i = layout.edge_begin[b]; i < layout.edge_begin[b + 1]; ++i) {
      if (layout.edge_dst[i] == b) want_self.push_back(b);
    }
    if (SlotCount(layout, b) > 0) want_live.push_back(b);
  }
  EXPECT_EQ(plan.self_rows, want_self);
  EXPECT_EQ(plan.live_rows, want_live);

  std::vector<int> seen(rows, 0);
  uint64_t real_slots = 0;
  uint64_t stored = 0;
  for (uint32_t k = 0; k < slices; ++k) {
    const uint64_t begin = plan.row_begin[k];
    ASSERT_LE(begin, plan.row_begin[k + 1]) << k;
    ASSERT_EQ((plan.row_begin[k + 1] - begin) % kLanes, 0u) << k;
    const uint64_t width = (plan.row_begin[k + 1] - begin) / kLanes;
    const uint32_t window_lo = k * kLanes / KernelPlan::kWindow *
                               KernelPlan::kWindow;
    const uint32_t window_hi = std::min(rows, window_lo + KernelPlan::kWindow);

    bool unit = true;
    uint64_t widest = 0;
    for (uint32_t l = 0; l < kLanes; ++l) {
      const size_t lane = static_cast<size_t>(k) * kLanes + l;
      const uint32_t row = plan.lane_row[lane];
      if (row == pad) {
        // Empty lanes only fill out the last slice, and read only pads.
        EXPECT_EQ(k, slices - 1);
        EXPECT_GE(lane, rows) << k;
        for (uint64_t j = 0; j < width; ++j) {
          EXPECT_EQ(plan.dst[begin + j * kLanes + l], pad) << k;
        }
        continue;
      }
      ASSERT_LT(row, rows);
      ++seen[row];
      EXPECT_GE(row, window_lo) << "row " << row << " left its window";
      EXPECT_LT(row, window_hi) << "row " << row << " left its window";
      // Window order: slot count descending, then row id.
      if (lane % KernelPlan::kWindow != 0) {
        const uint32_t prev = plan.lane_row[lane - 1];
        const bool ordered =
            SlotCount(layout, prev) > SlotCount(layout, row) ||
            (SlotCount(layout, prev) == SlotCount(layout, row) && prev < row);
        EXPECT_TRUE(ordered) << "rows " << prev << ", " << row;
      }

      const uint64_t count = SlotCount(layout, row);
      widest = std::max(widest, count);
      ASSERT_LE(count, width) << row;
      uint32_t prev_target = 0;
      for (uint64_t j = 0; j < width; ++j) {
        const uint64_t at = begin + j * kLanes + l;
        if (j >= count) {
          EXPECT_EQ(plan.dst[at], pad) << "row " << row << " slot " << j;
          continue;
        }
        ++real_slots;
        const uint64_t slot = layout.edge_begin[row] + j;
        const uint32_t target = layout.edge_dst[slot];
        if (target == row) {
          const auto self = std::find(plan.self_rows.begin(),
                                      plan.self_rows.end(), row);
          ASSERT_NE(self, plan.self_rows.end()) << row;
          EXPECT_EQ(plan.dst[at],
                    pad + 1 + (self - plan.self_rows.begin()))
              << "self slot of row " << row;
        } else {
          EXPECT_EQ(plan.dst[at], target) << "row " << row << " slot " << j;
        }
        if (j > 0) {
          EXPECT_LT(prev_target, target) << "row " << row << " not ascending";
        }
        prev_target = target;
        if (layout.edge_density_w[slot] != 1.0) unit = false;
        if (plan.den_begin[k] != KernelPlan::kUnitSlice) {
          EXPECT_EQ(std::bit_cast<uint64_t>(
                        plan.den_w[plan.den_begin[k] + (at - begin)]),
                    std::bit_cast<uint64_t>(layout.edge_density_w[slot]))
              << "row " << row << " slot " << j;
        }
      }
    }
    EXPECT_EQ(width, widest) << "slice " << k << " padded past its longest row";
    // A density is stored iff the slice holds one != 1.0.
    EXPECT_EQ(plan.den_begin[k] == KernelPlan::kUnitSlice, unit) << k;
    if (!unit) {
      EXPECT_EQ(plan.den_begin[k], stored) << k;
      stored += plan.row_begin[k + 1] - begin;
    }
  }
  EXPECT_EQ(stored, plan.den_w.size());
  EXPECT_EQ(real_slots, layout.num_edge_slots);
  for (uint32_t b = 0; b < rows; ++b) {
    EXPECT_EQ(seen[b], 1) << "row " << b << " not in exactly one lane";
  }

  // Hoisted self rates: the reference guard, frozen.
  for (uint32_t b = 0; b < rows; ++b) {
    const double sd_w = layout.self_density_w[b];
    const double md_w = layout.member_deg_w[b];
    const double want_w = sd_w > 0.0 && md_w > 0.0 ? sd_w / md_w : 0.0;
    EXPECT_EQ(std::bit_cast<uint64_t>(plan.self_rate_w[b]),
              std::bit_cast<uint64_t>(want_w))
        << b;
    const double sd_uw = layout.self_density_uw[b];
    const double md_uw = layout.member_deg_uw[b];
    const double want_uw = sd_uw > 0.0 && md_uw > 0.0 ? sd_uw / md_uw : 0.0;
    EXPECT_EQ(std::bit_cast<uint64_t>(plan.self_rate_uw[b]),
              std::bit_cast<uint64_t>(want_uw))
        << b;
  }
}

// The checks SummaryArena::Map runs on every file, in its order.
void ExpectPassesArenaChecks(const SummaryLayout& layout, const char* what) {
  const Status bounds = CheckLayoutBounds(layout, what);
  EXPECT_TRUE(bounds) << bounds.ToString();
  const Status symmetry = CheckEdgeSymmetryAndCount(layout, what);
  EXPECT_TRUE(symmetry) << symmetry.ToString();
}

bool HasStoredSlice(const KernelPlan& plan) {
  return std::any_of(plan.den_begin.begin(), plan.den_begin.end(),
                     [](uint64_t d) { return d != KernelPlan::kUnitSlice; });
}

bool HasUnitSlice(const KernelPlan& plan) {
  return std::any_of(plan.den_begin.begin(), plan.den_begin.end(),
                     [](uint64_t d) { return d == KernelPlan::kUnitSlice; });
}

TEST(KernelPlanTest, GoldenFixturePlanIsFullyGated) {
  auto view = GoldenView();
  const KernelPlan& plan = view->kernel_plan();
  ExpectPassesArenaChecks(view->layout(), "golden fixture");
  ExpectPlanMatchesLayout(plan, view->layout());

  // This fixture is the self-loop-free case; keep that explicit so a
  // fixture change doesn't silently stop covering it.
  EXPECT_TRUE(plan.self_rows.empty());
}

TEST(KernelPlanTest, SelfLoopSummaryPlanSplitsSelfSlots) {
  const SummaryGraph summary = SelfLoopSummary();
  SummaryView view(summary);
  const KernelPlan& plan = view.kernel_plan();
  ExpectPassesArenaChecks(view.layout(), "self-loop fixture");
  ExpectPlanMatchesLayout(plan, view.layout());

  // Each row reads its own self column (pad + 1 + j) in place of its
  // self slot; both self densities (6 / C(4,2) = 1.0) are unit.
  ASSERT_EQ(plan.num_rows(), 2u);
  EXPECT_EQ(plan.self_rows, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(plan.gather_extent(), 2u + 1u + 2u);
  for (uint32_t b = 0; b < 2; ++b) {
    EXPECT_GT(plan.self_rate_w[b], 0.0) << b;
    EXPECT_GT(plan.self_rate_uw[b], 0.0) << b;
  }
}

TEST(KernelPlanTest, SlicedFixturesHitEveryPlanPath) {
  const SummaryGraph isolated_summary = IsolatedSummary();
  const SummaryView isolated(isolated_summary);
  const KernelPlan& ip = isolated.kernel_plan();
  ExpectPassesArenaChecks(isolated.layout(), "isolated fixture");
  ExpectPlanMatchesLayout(ip, isolated.layout());
  EXPECT_EQ(ip.num_rows(), 21u);
  EXPECT_NE(ip.num_rows() % KernelPlan::kLanes, 0u);  // partial last slice
  EXPECT_EQ(ip.live_rows.size(), 16u);                // five static rows
  EXPECT_FALSE(ip.self_rows.empty());
  const auto is_live = [&](NodeId u) {
    return std::binary_search(ip.live_rows.begin(), ip.live_rows.end(),
                              isolated.supernode_of(u));
  };
  EXPECT_FALSE(is_live(kIsolatedSingle));
  EXPECT_FALSE(is_live(kIsolatedPair));
  EXPECT_EQ(isolated.members(isolated.supernode_of(kIsolatedPair)).size(), 3u);
  EXPECT_TRUE(is_live(kGroupedLive));
  EXPECT_EQ(isolated.members(isolated.supernode_of(kGroupedLive)).size(), 3u);

  const SummaryGraph dense_summary = NonUnitDensitySummary();
  const SummaryView dense(dense_summary);
  const KernelPlan& dp = dense.kernel_plan();
  ExpectPassesArenaChecks(dense.layout(), "non-unit fixture");
  ExpectPlanMatchesLayout(dp, dense.layout());
  EXPECT_EQ(dp.num_rows(), 567u);
  EXPECT_GT(dp.num_rows(), 2 * KernelPlan::kWindow);  // three windows
  EXPECT_TRUE(HasStoredSlice(dp));
  EXPECT_TRUE(HasUnitSlice(dp));
  EXPECT_FALSE(dp.self_rows.empty());
}

// --- Fused == reference, bit for bit ---------------------------------------

// Every family and density mode, at the default budget and at one and
// two sweeps (RWR's first sweep walks every row, later ones only the
// live rows).
void ExpectFusedMatchesReference(const SummaryView& view,
                                 std::vector<NodeId> probes = {}) {
  probes.insert(probes.end(),
                {0, 1, view.num_nodes() / 2, view.num_nodes() - 1});
  IterativeQueryOptions one_sweep;
  one_sweep.max_iterations = 1;
  IterativeQueryOptions two_sweeps;
  two_sweeps.max_iterations = 2;
  for (const IterativeQueryOptions& opts :
       {IterativeQueryOptions{}, one_sweep, two_sweeps}) {
    for (bool weighted : {true, false}) {
      for (NodeId q : probes) {
        ExpectSameBits(
            SummaryRwrScores(view, q, 0.05, weighted, opts),
            SummaryRwrScoresReference(view, q, 0.05, weighted, opts),
            weighted ? "rwr/w" : "rwr/uw");
        ExpectSameBits(
            SummaryPhpScores(view, q, 0.95, weighted, opts),
            SummaryPhpScoresReference(view, q, 0.95, weighted, opts),
            weighted ? "php/w" : "php/uw");
      }
      ExpectSameBits(SummaryPageRank(view, 0.85, weighted, opts),
                     SummaryPageRankReference(view, 0.85, weighted, opts),
                     weighted ? "pagerank/w" : "pagerank/uw");
    }
  }
}

TEST(KernelPlanTest, FusedKernelsMatchReferenceOnGoldenFixture) {
  auto view = GoldenView();
  ExpectFusedMatchesReference(*view);
}

TEST(KernelPlanTest, FusedKernelsMatchReferenceWithSelfSuperedges) {
  const SummaryGraph summary = SelfLoopSummary();
  SummaryView view(summary);
  ExpectFusedMatchesReference(view);
}

TEST(KernelPlanTest, FusedKernelsMatchReferenceWithIsolatedSupernodes) {
  const SummaryGraph summary = IsolatedSummary();
  SummaryView view(summary);
  ExpectFusedMatchesReference(view, {kIsolatedSingle, kIsolatedPair,
                                     kIsolatedPair + 1, kGroupedLive});
}

TEST(KernelPlanTest, FusedKernelsMatchReferenceWithNonUnitDensities) {
  const SummaryGraph summary = NonUnitDensitySummary();
  SummaryView view(summary);
  ExpectFusedMatchesReference(view, {4, 421, 600});
}

// A PSB1 file may not give a superedge-free supernode a self density:
// every kernel would move mass through a self-loop the CSR does not
// hold. Map rejects it on either backing, naming the section, which is
// what lets the plan treat every row without a slot as static.
TEST(KernelPlanTest, SelfRateWithoutSlotIsRejected) {
  const SummaryGraph summary = IsolatedSummary();
  const SummaryView built(summary);
  const uint32_t row = built.supernode_of(kIsolatedPair);
  const uint32_t s = built.num_supernodes();
  SummaryLayout layout = built.layout();
  std::vector<double> self_w(layout.self_density_w, layout.self_density_w + s);
  std::vector<double> deg_w(layout.member_deg_w, layout.member_deg_w + s);
  std::vector<double> self_uw(layout.self_density_uw,
                              layout.self_density_uw + s);
  std::vector<double> deg_uw(layout.member_deg_uw, layout.member_deg_uw + s);
  self_w[row] = 0.5;
  deg_w[row] = 1.0;
  self_uw[row] = 1.0;
  deg_uw[row] = 2.0;
  layout.self_density_w = self_w.data();
  layout.member_deg_w = deg_w.data();
  layout.self_density_uw = self_uw.data();
  layout.member_deg_uw = deg_uw.data();

  const std::string path = TempPath("kernel_plan_self_rate.psb");
  for (bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compact" : "raw");
    ASSERT_TRUE(SaveSummaryBinary(layout, path, {.compact = compact}));
    auto arena = SummaryArena::Map(path);
    ASSERT_FALSE(arena.has_value());
    EXPECT_EQ(arena.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(arena.status().ToString().find("self_density_w"),
              std::string::npos)
        << arena.status().ToString();
  }
  std::remove(path.c_str());
}

// --- Built views are servable ----------------------------------------------

// Every summarizer's output, as a built view, satisfies the invariants
// SummaryArena::Map enforces on files, and the fused sweeps over its
// plan answer with the reference bytes. Two generated graphs, several
// budgets, every algorithm the repo ships.
TEST(KernelPlanTest, EverySummarizersBuiltViewPassesArenaChecks) {
  struct Input {
    const char* name;
    Graph graph;
  };
  std::vector<Input> inputs;
  inputs.push_back({"ba160", GenerateBarabasiAlbert(160, 3, 811)});
  inputs.push_back({"ws140", GenerateWattsStrogatz(140, 6, 0.1, 812)});

  int views = 0;
  const auto check = [&](const std::string& what, const SummaryGraph& s) {
    SCOPED_TRACE(what);
    const SummaryView view(s);
    ExpectPassesArenaChecks(view.layout(), what.c_str());
    ExpectPlanMatchesLayout(view.kernel_plan(), view.layout());
    ExpectFusedMatchesReference(view);
    ++views;
  };

  for (const Input& in : inputs) {
    const Graph& g = in.graph;
    const std::string name = in.name;
    check(name + "/identity", SummaryGraph::Identity(g));
    for (double ratio : {0.3, 0.5, 0.7}) {
      const std::string at = name + "/r" + std::to_string(ratio);
      for (int threads : {1, 0}) {
        PegasusConfig config;
        config.num_threads = threads;
        auto pegasus = SummarizeGraphToRatio(g, {0, 5}, ratio, config);
        ASSERT_TRUE(pegasus) << pegasus.status().ToString();
        check(at + "/pegasus_t" + std::to_string(threads), pegasus->summary);
      }
      auto ssumm = SsummSummarizeToRatio(g, ratio);
      ASSERT_TRUE(ssumm) << ssumm.status().ToString();
      check(at + "/ssumm", ssumm->summary);

      // The supernode-budget baselines get the same fraction of |V|.
      const uint32_t k = static_cast<uint32_t>(ratio * g.num_nodes());
      auto grass = GrassSummarize(g, k);
      ASSERT_TRUE(grass) << grass.status().ToString();
      check(at + "/grass", grass->summary);
      auto s2l = S2lSummarize(g, k);
      ASSERT_TRUE(s2l) << s2l.status().ToString();
      check(at + "/s2l", s2l->summary);
      auto saags = SaagsSummarize(g, k);
      ASSERT_TRUE(saags) << saags.status().ToString();
      check(at + "/saags", saags->summary);
    }
  }
  EXPECT_EQ(views, 2 * (1 + 3 * 6));
}

// --- Built vs arena --------------------------------------------------------

void ExpectSamePlan(const KernelPlan& a, const KernelPlan& b) {
  EXPECT_EQ(a.row_begin, b.row_begin);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.den_begin, b.den_begin);
  EXPECT_EQ(a.lane_row, b.lane_row);
  EXPECT_EQ(a.live_rows, b.live_rows);
  EXPECT_EQ(a.self_rows, b.self_rows);
  EXPECT_EQ(HashScores(a.den_w), HashScores(b.den_w));
  EXPECT_EQ(HashScores(a.self_rate_w), HashScores(b.self_rate_w));
  EXPECT_EQ(HashScores(a.self_rate_uw), HashScores(b.self_rate_uw));
}

TEST(KernelPlanTest, ArenaAttachDerivesTheBuiltPlan) {
  const std::string path = TempPath("kernel_plan_golden.psb");
  auto built = GoldenView();
  ASSERT_TRUE(SaveSummaryBinary(built->layout(), path, {}));

  auto arena = SummaryArena::Map(path);
  ASSERT_TRUE(arena) << arena.status().ToString();
  // The arena derives the plan once at attach; every view over it
  // shares that object.
  ASSERT_NE((*arena)->kernel_plan(), nullptr);
  SummaryView mapped(*arena);
  EXPECT_EQ(&mapped.kernel_plan(), (*arena)->kernel_plan().get());

  ExpectSamePlan(built->kernel_plan(), mapped.kernel_plan());

  // And the kernels agree across backings (same bytes).
  ExpectSameBits(SummaryRwrScores(mapped, 5), SummaryRwrScores(*built, 5),
                 "rwr built-vs-arena");
  ExpectSameBits(SummaryPageRank(mapped), SummaryPageRank(*built),
                 "pagerank built-vs-arena");
}

TEST(KernelPlanTest, ArenaAttachHandlesSelfSuperedges) {
  const std::string path = TempPath("kernel_plan_selfloop.psb");
  const SummaryGraph summary = SelfLoopSummary();
  SummaryView built(summary);
  ASSERT_TRUE(SaveSummaryBinary(built.layout(), path, {}));

  auto arena = SummaryArena::Map(path);
  ASSERT_TRUE(arena) << arena.status().ToString();
  SummaryView mapped(*arena);
  ExpectSamePlan(mapped.kernel_plan(), built.kernel_plan());
  ExpectSameBits(SummaryPhpScores(mapped, 2), SummaryPhpScores(built, 2),
                 "php built-vs-arena with self slots");
}

// --- Scratch reuse ---------------------------------------------------------

TEST(KernelPlanTest, ScratchReuseNeverChangesAnswerBytes) {
  auto golden = GoldenView();
  const SummaryGraph small_summary = SelfLoopSummary();
  SummaryView small(small_summary);

  KernelScratch scratch;  // one scratch, recycled across everything below
  const IterativeQueryOptions opts;
  for (int round = 0; round < 2; ++round) {
    ExpectSameBits(SummaryRwrScores(*golden, 5, 0.05, true, opts, &scratch),
                   SummaryRwrScores(*golden, 5, 0.05, true, opts),
                   "rwr with reused scratch");
    // Shrink to the small fixture mid-stream: buffers stay at the large
    // high-water size, extra slots must not leak into the answer.
    ExpectSameBits(SummaryPhpScores(small, 2, 0.95, false, opts, &scratch),
                   SummaryPhpScores(small, 2, 0.95, false, opts),
                   "php with oversized scratch");
    ExpectSameBits(SummaryPageRank(*golden, 0.85, false, opts, &scratch),
                   SummaryPageRank(*golden, 0.85, false, opts),
                   "pagerank with reused scratch");
  }
}

TEST(KernelPlanTest, ScratchPoolLeasesAreExclusiveAndRecycled) {
  KernelScratchPool pool;
  KernelScratch* first = nullptr;
  {
    const KernelScratchPool::Lease a = pool.Acquire();
    const KernelScratchPool::Lease b = pool.Acquire();
    ASSERT_NE(a.get(), nullptr);
    ASSERT_NE(b.get(), nullptr);
    EXPECT_NE(a.get(), b.get());  // concurrent leases never alias
    first = a.get();
    a.get()->Reserve(64, 66);
  }
  // Returned scratches are reused (grown buffers and all), not leaked or
  // reallocated.
  const KernelScratchPool::Lease again = pool.Acquire();
  const KernelScratchPool::Lease other = pool.Acquire();
  const bool recycled = again.get() == first || other.get() == first;
  EXPECT_TRUE(recycled);

}

TEST(KernelPlanTest, ScratchPoolReleaseIdleKeepsLeasesInFlight) {
  // Buffer sizes tell the scratches apart: 8 slots for the lease held
  // across ReleaseIdle, 64 for the idle one it drops, 0 for a new one.
  KernelScratchPool pool;
  KernelScratch* held = nullptr;
  {
    const KernelScratchPool::Lease in_flight = pool.Acquire();
    held = in_flight.get();
    held->Reserve(8, 8);
    {
      const KernelScratchPool::Lease idle = pool.Acquire();
      idle.get()->Reserve(64, 64);
    }
    pool.ReleaseIdle();
  }
  const KernelScratchPool::Lease a = pool.Acquire();
  const KernelScratchPool::Lease b = pool.Acquire();
  EXPECT_EQ(a.get(), held);  // the returned lease is recycled
  EXPECT_EQ(a.get()->scores.size(), 8u);
  EXPECT_EQ(b.get()->scores.size(), 0u);  // the idle one was dropped
}

// --- Iteration-option edge cases (CanonicalizeRequest) ---------------------

QueryRequest RwrRequest(int max_iterations, double tolerance) {
  QueryRequest r;
  r.kind = QueryKind::kRwr;
  r.node = 5;
  r.opts.max_iterations = max_iterations;
  r.opts.tolerance = tolerance;
  return r;
}

TEST(IterativeOptionsTest, RejectsDegenerateIterationCounts) {
  auto zero = CanonicalizeRequest(RwrRequest(0, 1e-10), 200);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(zero.status().message().find("max_iterations"), std::string::npos);

  auto negative = CanonicalizeRequest(RwrRequest(-3, 1e-10), 200);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
}

TEST(IterativeOptionsTest, RejectsNegativeOrNanToleranceAllowsZero) {
  auto negative = CanonicalizeRequest(RwrRequest(100, -1e-12), 200);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(negative.status().message().find("tolerance"), std::string::npos);

  auto nan = CanonicalizeRequest(
      RwrRequest(100, std::numeric_limits<double>::quiet_NaN()), 200);
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.status().code(), StatusCode::kInvalidArgument);

  // tolerance = 0 is the sanctioned "never exit early" setting.
  auto zero = CanonicalizeRequest(RwrRequest(100, 0.0), 200);
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  EXPECT_EQ(zero->opts.tolerance, 0.0);
}

TEST(IterativeOptionsTest, NonIterativeFamiliesIgnoreIterationOptions) {
  QueryRequest r;
  r.kind = QueryKind::kDegree;
  r.opts.max_iterations = 0;  // would be rejected on an iterative family
  r.opts.tolerance = -5.0;
  auto canon = CanonicalizeRequest(r, 200);
  ASSERT_TRUE(canon.ok()) << canon.status().ToString();
  EXPECT_EQ(canon->opts.max_iterations, IterativeQueryOptions{}.max_iterations);
  EXPECT_EQ(canon->opts.tolerance, IterativeQueryOptions{}.tolerance);
}

// The tolerance exit only decides WHEN to stop sweeping — the scores it
// returns are exactly those of the fixed-iteration run that stops at the
// same sweep. Scan for that sweep count and pin the equivalence, for
// each iterative family. Per-sweep change decays roughly like the
// family's continuation mass, so the default parameters (0.95/0.85)
// cannot reach 1e-10 inside 100 sweeps — run at 0.5, where convergence
// lands around sweep 35 and the early exit is genuinely exercised.
TEST(IterativeOptionsTest, ToleranceExitEqualsSomeFixedIterationRun) {
  auto view = GoldenView();
  const double kParam = 0.5;       // rwr restart / php decay / pr damping
  IterativeQueryOptions tolerant;  // defaults: 100 sweeps, 1e-10
  IterativeQueryOptions exhaustive;
  exhaustive.tolerance = 0.0;  // change < 0 never holds: no early exit

  const auto find_equivalent_k = [&](const std::vector<double>& converged,
                                     auto&& run_fixed) {
    for (int k = 1; k <= tolerant.max_iterations; ++k) {
      exhaustive.max_iterations = k;
      if (HashScores(run_fixed(exhaustive)) == HashScores(converged)) {
        return k;
      }
    }
    return -1;
  };

  const std::vector<double> rwr = SummaryRwrScores(*view, 5, kParam, true,
                                                   tolerant);
  const int rwr_k = find_equivalent_k(rwr, [&](const auto& o) {
    return SummaryRwrScores(*view, 5, kParam, true, o);
  });
  ASSERT_GT(rwr_k, 0) << "rwr tolerance exit matches no fixed-sweep run";
  EXPECT_LT(rwr_k, tolerant.max_iterations) << "rwr never converged early";

  const std::vector<double> php = SummaryPhpScores(*view, 5, kParam, true,
                                                   tolerant);
  const int php_k = find_equivalent_k(php, [&](const auto& o) {
    return SummaryPhpScores(*view, 5, kParam, true, o);
  });
  ASSERT_GT(php_k, 0) << "php tolerance exit matches no fixed-sweep run";
  EXPECT_LT(php_k, tolerant.max_iterations) << "php never converged early";

  const std::vector<double> pr = SummaryPageRank(*view, kParam, true, tolerant);
  const int pr_k = find_equivalent_k(pr, [&](const auto& o) {
    return SummaryPageRank(*view, kParam, true, o);
  });
  ASSERT_GT(pr_k, 0) << "pagerank tolerance exit matches no fixed-sweep run";
  EXPECT_LT(pr_k, tolerant.max_iterations) << "pagerank never converged early";
}

}  // namespace
}  // namespace pegasus
