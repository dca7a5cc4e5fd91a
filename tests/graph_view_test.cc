#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/pegasus.h"
#include "src/graph/generators.h"
#include "src/query/graph_view.h"
#include "src/query/summary_view.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

using ::pegasus::testing::PathGraph;
using ::pegasus::testing::TwoCliquesGraph;

TEST(GraphViewTest, BfsMatchesDirectBfs) {
  Graph g = GenerateBarabasiAlbert(100, 2, 101);
  GraphNeighborhoodView view(g);
  for (NodeId q : {0u, 50u, 99u}) {
    EXPECT_EQ(ViewBfsDistances(view, q), BfsDistances(g, q));
  }
}

TEST(GraphViewTest, SummaryBfsMatchesSummaryQueries) {
  Graph g = GenerateBarabasiAlbert(120, 3, 102);
  auto result = *SummarizeGraphToRatio(g, {0}, 0.5);
  SummaryNeighborhoodView view(result.summary);
  const SummaryView summary_view(result.summary);
  for (NodeId q : {0u, 33u, 119u}) {
    EXPECT_EQ(ViewBfsDistances(view, q),
              FastSummaryHopDistances(summary_view, q))
        << "query " << q;
  }
}

TEST(GraphViewTest, DfsVisitsWholeComponent) {
  Graph g = TwoCliquesGraph(4);
  GraphNeighborhoodView view(g);
  auto order = ViewDfsPreorder(view, 0);
  EXPECT_EQ(order.size(), g.num_nodes());
  EXPECT_EQ(order[0], 0u);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(std::adjacent_find(order.begin(), order.end()), order.end());
}

TEST(GraphViewTest, DfsOnSummaryVisitsReachableSet) {
  Graph g = GenerateBarabasiAlbert(80, 2, 103);
  auto result = *SummarizeGraphToRatio(g, {}, 0.5);
  SummaryNeighborhoodView view(result.summary);
  auto order = ViewDfsPreorder(view, 5);
  auto dist = FastSummaryHopDistances(SummaryView(result.summary), 5);
  size_t reachable = 0;
  for (uint32_t d : dist) reachable += (d != kUnreachable);
  EXPECT_EQ(order.size(), reachable);
}

TEST(GraphViewTest, ConnectedComponentsMatchGraph) {
  Graph g = BuildGraph(7, {{0, 1}, {1, 2}, {3, 4}, {5, 6}});
  GraphNeighborhoodView view(g);
  auto labels = ViewConnectedComponents(view);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[3], labels[5]);
}

TEST(GraphViewTest, DegreesMatchOnBothViews) {
  Graph g = GenerateBarabasiAlbert(60, 2, 104);
  GraphNeighborhoodView gv(g);
  auto deg = ViewDegrees(gv);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(deg[u], g.degree(u));
  }
  SummaryGraph s = SummaryGraph::Identity(g);
  SummaryNeighborhoodView sv(s);
  EXPECT_EQ(ViewDegrees(sv), deg);
}

TEST(GraphViewTest, SameGenericCodeRunsOnBothViews) {
  // The paper's Appendix-A claim, demonstrated literally: one algorithm
  // instantiation pattern, two substrates, and on an identity summary the
  // results coincide exactly.
  Graph g = PathGraph(12);
  SummaryGraph s = SummaryGraph::Identity(g);
  GraphNeighborhoodView gv(g);
  SummaryNeighborhoodView sv(s);
  EXPECT_EQ(ViewBfsDistances(gv, 3), ViewBfsDistances(sv, 3));
  // DFS preorder depends on neighbor enumeration order (the summary view
  // iterates hash maps), so compare the visited sets.
  auto dfs_g = ViewDfsPreorder(gv, 3);
  auto dfs_s = ViewDfsPreorder(sv, 3);
  std::sort(dfs_g.begin(), dfs_g.end());
  std::sort(dfs_s.begin(), dfs_s.end());
  EXPECT_EQ(dfs_g, dfs_s);
  EXPECT_EQ(ViewConnectedComponents(gv), ViewConnectedComponents(sv));
}

}  // namespace
}  // namespace pegasus
