#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/core/merge_engine.h"
#include "src/core/pegasus.h"
#include "src/core/personal_weights.h"
#include "src/graph/bfs.h"
#include "src/graph/generators.h"
#include "src/query/summary_view.h"
#include "tests/support/reference_kernels.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

using ::pegasus::testing::Fig3Graph;
using ::pegasus::testing::PathGraph;
using ::pegasus::testing::TwoCliquesGraph;

// Builds a small merged summary with exact reconstruction for Fig. 3
// (merging the twins {0,1} loses nothing).
SummaryGraph MergedFig3(const Graph& g) {
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {}, 1.0);
  CostModel model(g, w, s);
  MergeEngine engine(g, s, model, MergeScore::kRelative);
  engine.ApplyMerge(0, 1);
  return s;
}

TEST(SummaryNeighborsTest, IdentitySummaryMatchesGraph) {
  Graph g = Fig3Graph();
  const SummaryView view(SummaryGraph::Identity(g));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto nb = SummaryNeighbors(view, u);
    std::vector<NodeId> expected(g.neighbors(u).begin(),
                                 g.neighbors(u).end());
    EXPECT_EQ(nb, expected) << "node " << u;
  }
}

TEST(SummaryNeighborsTest, MergedTwinsStillExact) {
  Graph g = Fig3Graph();
  const SummaryView view(MergedFig3(g));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto nb = SummaryNeighbors(view, u);
    std::vector<NodeId> expected(g.neighbors(u).begin(),
                                 g.neighbors(u).end());
    EXPECT_EQ(nb, expected) << "node " << u;
  }
}

TEST(SummaryNeighborsTest, SelfLoopIncludesCoMembers) {
  Graph g = ::pegasus::testing::CompleteGraph(4);
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {}, 1.0);
  CostModel cm(g, w, s);
  MergeEngine engine(g, s, cm, MergeScore::kRelative);
  SupernodeId m = engine.ApplyMerge(0, 1);
  ASSERT_TRUE(s.HasSuperedge(m, m));
  auto nb = SummaryNeighbors(SummaryView(s), 0);
  EXPECT_TRUE(std::find(nb.begin(), nb.end(), 1u) != nb.end());
  EXPECT_TRUE(std::find(nb.begin(), nb.end(), 0u) == nb.end());
}

TEST(SummaryHopTest, FastMatchesFaithfulOnIdentity) {
  Graph g = GenerateBarabasiAlbert(60, 2, 19);
  const SummaryView view(SummaryGraph::Identity(g));
  for (NodeId q : {0u, 10u, 59u}) {
    EXPECT_EQ(SummaryHopDistances(view, q), FastSummaryHopDistances(view, q));
  }
}

TEST(SummaryHopTest, FastMatchesFaithfulOnSummarized) {
  Graph g = GenerateBarabasiAlbert(120, 3, 20);
  auto result = *SummarizeGraphToRatio(g, {0}, 0.4);
  const SummaryView view(result.summary);
  for (NodeId q : {0u, 7u, 42u, 111u}) {
    EXPECT_EQ(SummaryHopDistances(view, q), FastSummaryHopDistances(view, q))
        << "query " << q;
  }
}

TEST(SummaryHopTest, IdentityMatchesExactBfs) {
  Graph g = TwoCliquesGraph(4);
  const SummaryView view(SummaryGraph::Identity(g));
  EXPECT_EQ(FastSummaryHopDistances(view, 0), BfsDistances(g, 0));
}

TEST(SummaryHopTest, SelfLoopCoMembersAtDistanceOne) {
  Graph g = ::pegasus::testing::CompleteGraph(5);
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {}, 1.0);
  CostModel cm(g, w, s);
  MergeEngine engine(g, s, cm, MergeScore::kRelative);
  engine.ApplyMerge(0, 1);
  auto d = FastSummaryHopDistances(SummaryView(s), 0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
}

TEST(SummaryHopTest, NoSuperedgesMeansUnreachable) {
  Graph g = PathGraph(4);
  SummaryGraph s = SummaryGraph::Identity(g);
  for (SupernodeId a : s.ActiveSupernodes()) {
    std::vector<SupernodeId> nb;
    for (const auto& [c, w] : s.superedges(a)) {
      (void)w;
      if (c >= a) nb.push_back(c);
    }
    for (SupernodeId c : nb) s.EraseSuperedge(a, c);
  }
  auto d = FastSummaryHopDistances(SummaryView(s), 1);
  EXPECT_EQ(d[1], 0u);
  EXPECT_EQ(d[0], kUnreachable);
}

TEST(SummaryRwrTest, IdentityMatchesExact) {
  Graph g = GenerateBarabasiAlbert(80, 2, 21);
  const SummaryView view(SummaryGraph::Identity(g));
  auto exact = ExactRwrScores(g, 5);
  auto approx = SummaryRwrScores(view, 5);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(approx[u], exact[u], 1e-6) << "node " << u;
  }
}

TEST(SummaryRwrTest, SumsToAtMostOne) {
  Graph g = GenerateBarabasiAlbert(150, 3, 22);
  auto result = *SummarizeGraphToRatio(g, {3}, 0.4);
  auto r = SummaryRwrScores(SummaryView(result.summary), 3);
  const double total = std::accumulate(r.begin(), r.end(), 0.0);
  EXPECT_LE(total, 1.0 + 1e-6);
  EXPECT_GT(total, 0.5);
}

TEST(SummaryRwrTest, QueryNodeScoreWellAboveAverage) {
  // The restart mass concentrates near q (q itself need not be the global
  // maximum — a hub adjacent to a low-degree q can score higher).
  Graph g = GenerateBarabasiAlbert(100, 2, 23);
  auto result = *SummarizeGraphToRatio(g, {7}, 0.5);
  auto r = SummaryRwrScores(SummaryView(result.summary), 7);
  const double mean =
      std::accumulate(r.begin(), r.end(), 0.0) / static_cast<double>(r.size());
  EXPECT_GT(r[7], 3.0 * mean);
}

TEST(SummaryRwrTest, CoMembersShareScores) {
  Graph g = GenerateBarabasiAlbert(100, 2, 24);
  auto result = *SummarizeGraphToRatio(g, {}, 0.3);
  const SummaryGraph& s = result.summary;
  auto r = SummaryRwrScores(SummaryView(s), 7);
  for (SupernodeId a : s.ActiveSupernodes()) {
    const auto& m = s.members(a);
    for (size_t i = 1; i < m.size(); ++i) {
      if (m[i] == 7 || m[0] == 7) continue;
      EXPECT_DOUBLE_EQ(r[m[0]], r[m[i]]);
    }
  }
}

TEST(SummaryPhpTest, IdentityMatchesExact) {
  Graph g = GenerateBarabasiAlbert(70, 2, 25);
  const SummaryView view(SummaryGraph::Identity(g));
  auto exact = ExactPhpScores(g, 4);
  auto approx = SummaryPhpScores(view, 4);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(approx[u], exact[u], 1e-6) << "node " << u;
  }
}

TEST(SummaryPhpTest, QueryIsOneOthersBelow) {
  Graph g = GenerateBarabasiAlbert(120, 3, 26);
  auto result = *SummarizeGraphToRatio(g, {9}, 0.4);
  auto p = SummaryPhpScores(SummaryView(result.summary), 9);
  EXPECT_DOUBLE_EQ(p[9], 1.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_LE(p[u], 1.0 + 1e-9);
    EXPECT_GE(p[u], 0.0);
  }
}

TEST(SummaryQueriesTest, WeightedAndUnweightedAgreeOnIdentity) {
  // All superedge weights are 1 and all blocks are single pairs, so the
  // density is 1 everywhere and the modes coincide.
  Graph g = GenerateBarabasiAlbert(60, 2, 27);
  const SummaryView view(SummaryGraph::Identity(g));
  auto weighted = SummaryRwrScores(view, 3, 0.05, true);
  auto unweighted = SummaryRwrScores(view, 3, 0.05, false);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(weighted[u], unweighted[u], 1e-9);
  }
}

}  // namespace
}  // namespace pegasus
