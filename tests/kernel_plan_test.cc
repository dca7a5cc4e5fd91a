// KernelPlan tests: the precomputed transition arrays behind the fused
// iterative kernels (src/core/kernel_plan.h). The load-bearing pins:
//
//   * plan invariants — the compacted CSR is exactly the layout CSR with
//     self slots split out, and rows stay ascending;
//   * fused == reference, bit for bit — every iterative family, weighted
//     and unweighted, on a self-loop-free summary AND on one with self
//     superedges (the segmented-PHP and hoisted-self-rate paths);
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

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
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
#include "src/query/kernel_scratch.h"
#include "src/query/query_engine.h"
#include "src/query/summary_view.h"
#include "src/util/status.h"
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
// clean-CSR case; SelfLoopSummary below covers the other one.
std::unique_ptr<SummaryView> GoldenView() {
  const Graph g = QueryGoldenGraph();
  return std::make_unique<SummaryView>(QueryGoldenSummary(g));
}

// Two 4-cliques bridged by one edge, grouped clique-per-supernode: both
// supernodes keep a self superedge (their internal clique edges), so the
// plan's self_split / self_den / self_rate paths are all live.
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

// --- Plan invariants -------------------------------------------------------

void ExpectPlanMatchesLayout(const KernelPlan& plan,
                             const SummaryLayout& layout) {
  const uint32_t rows = static_cast<uint32_t>(layout.num_supernodes);
  ASSERT_EQ(plan.num_rows(), rows);
  ASSERT_EQ(plan.row_begin.size(), rows + 1);
  ASSERT_EQ(plan.self_split.size(), rows);
  ASSERT_EQ(plan.self_den_w.size(), rows);
  ASSERT_EQ(plan.self_rate_w.size(), rows);
  ASSERT_EQ(plan.self_rate_uw.size(), rows);

  uint64_t self_slots = 0;
  for (uint32_t b = 0; b < rows; ++b) {
    // Reconstruct the layout row from the compacted row plus the split:
    // slots [begin, begin + split) precede the self slot, the rest follow.
    const uint64_t begin = plan.row_begin[b];
    const uint64_t end = plan.row_begin[b + 1];
    const bool has_self = plan.self_split[b] != KernelPlan::kNoSelf;
    if (has_self) ++self_slots;
    const uint64_t lbegin = layout.edge_begin[b];
    const uint64_t lend = layout.edge_begin[b + 1];
    ASSERT_EQ((end - begin) + (has_self ? 1 : 0), lend - lbegin) << b;

    uint64_t li = lbegin;
    uint32_t prev = 0;
    bool first = true;
    for (uint64_t i = begin; i <= end; ++i) {
      if (has_self && i - begin == plan.self_split[b]) {
        EXPECT_EQ(layout.edge_dst[li], b) << b;
        EXPECT_EQ(std::bit_cast<uint64_t>(plan.self_den_w[b]),
                  std::bit_cast<uint64_t>(layout.edge_density_w[li]))
            << b;
        ++li;
      }
      if (i == end) break;
      EXPECT_NE(plan.dst[i], b) << "self slot left in compacted row " << b;
      EXPECT_EQ(plan.dst[i], layout.edge_dst[li]) << b;
      EXPECT_EQ(std::bit_cast<uint64_t>(plan.den_w[i]),
                std::bit_cast<uint64_t>(layout.edge_density_w[li]))
          << b;
      if (!first) {
        EXPECT_LT(prev, plan.dst[i]) << b;  // ascending, no dups
      }
      prev = plan.dst[i];
      first = false;
      ++li;
    }
    EXPECT_EQ(li, lend) << b;

    // Hoisted self rate: the reference guard, frozen.
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
  EXPECT_EQ(plan.dst.size() + self_slots, layout.num_edge_slots);
}

// The checks SummaryArena::Map runs on every file, in its order.
void ExpectPassesArenaChecks(const SummaryLayout& layout, const char* what) {
  const Status bounds = CheckLayoutBounds(layout, what);
  EXPECT_TRUE(bounds) << bounds.ToString();
  const Status symmetry = CheckEdgeSymmetryAndCount(layout, what);
  EXPECT_TRUE(symmetry) << symmetry.ToString();
}

TEST(KernelPlanTest, GoldenFixturePlanIsFullyGated) {
  auto view = GoldenView();
  const KernelPlan& plan = view->kernel_plan();
  ExpectPassesArenaChecks(view->layout(), "golden fixture");
  ExpectPlanMatchesLayout(plan, view->layout());

  // This fixture is the self-loop-free case; keep that explicit so a
  // fixture change doesn't silently stop covering it.
  for (uint32_t b = 0; b < plan.num_rows(); ++b) {
    EXPECT_EQ(plan.self_split[b], KernelPlan::kNoSelf) << b;
  }
}

TEST(KernelPlanTest, SelfLoopSummaryPlanSplitsSelfSlots) {
  const SummaryGraph summary = SelfLoopSummary();
  SummaryView view(summary);
  const KernelPlan& plan = view.kernel_plan();
  ExpectPassesArenaChecks(view.layout(), "self-loop fixture");
  ExpectPlanMatchesLayout(plan, view.layout());

  ASSERT_EQ(plan.num_rows(), 2u);
  for (uint32_t b = 0; b < 2; ++b) {
    EXPECT_NE(plan.self_split[b], KernelPlan::kNoSelf) << b;
    EXPECT_GT(plan.self_den_w[b], 0.0) << b;
    EXPECT_GT(plan.self_rate_w[b], 0.0) << b;
    EXPECT_GT(plan.self_rate_uw[b], 0.0) << b;
  }
}

// --- Fused == reference, bit for bit ---------------------------------------

void ExpectFusedMatchesReference(const SummaryView& view) {
  const IterativeQueryOptions opts;
  const NodeId probes[] = {0, 1, view.num_nodes() / 2,
                           view.num_nodes() - 1};
  for (bool weighted : {true, false}) {
    for (NodeId q : probes) {
      ExpectSameBits(SummaryRwrScores(view, q, 0.05, weighted, opts),
                     SummaryRwrScoresReference(view, q, 0.05, weighted, opts),
                     weighted ? "rwr/w" : "rwr/uw");
      ExpectSameBits(SummaryPhpScores(view, q, 0.95, weighted, opts),
                     SummaryPhpScoresReference(view, q, 0.95, weighted, opts),
                     weighted ? "php/w" : "php/uw");
    }
    ExpectSameBits(SummaryPageRank(view, 0.85, weighted, opts),
                   SummaryPageRankReference(view, 0.85, weighted, opts),
                   weighted ? "pagerank/w" : "pagerank/uw");
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

  const KernelPlan& a = built->kernel_plan();
  const KernelPlan& b = mapped.kernel_plan();
  EXPECT_EQ(a.row_begin, b.row_begin);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.self_split, b.self_split);
  ASSERT_EQ(a.den_w.size(), b.den_w.size());
  for (size_t i = 0; i < a.den_w.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.den_w[i]),
              std::bit_cast<uint64_t>(b.den_w[i]))
        << i;
  }
  EXPECT_EQ(HashScores(a.self_den_w), HashScores(b.self_den_w));
  EXPECT_EQ(HashScores(a.self_rate_w), HashScores(b.self_rate_w));
  EXPECT_EQ(HashScores(a.self_rate_uw), HashScores(b.self_rate_uw));

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
  EXPECT_EQ(mapped.kernel_plan().self_split, built.kernel_plan().self_split);
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
    a.get()->Reserve(64);
  }
  // Returned scratches are reused (grown buffers and all), not leaked or
  // reallocated.
  const KernelScratchPool::Lease again = pool.Acquire();
  const KernelScratchPool::Lease other = pool.Acquire();
  const bool recycled = again.get() == first || other.get() == first;
  EXPECT_TRUE(recycled);
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
