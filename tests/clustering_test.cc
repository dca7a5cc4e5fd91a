#include <gtest/gtest.h>

#include "src/core/pegasus.h"
#include "src/graph/generators.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

using ::pegasus::testing::CompleteGraph;
using ::pegasus::testing::PathGraph;
using ::pegasus::testing::StarGraph;
using ::pegasus::testing::TwoCliquesGraph;

TEST(ExactClusteringTest, CliqueIsOne) {
  Graph g = CompleteGraph(6);
  for (double c : ExactClusteringCoefficients(g)) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(ExactClusteringTest, TreeIsZero) {
  Graph g = StarGraph(8);
  for (double c : ExactClusteringCoefficients(g)) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(ExactClusteringTest, KnownValue) {
  // Triangle with a pendant: node 0 in triangle {0,1,2} plus edge 0-3.
  Graph g = BuildGraph(4, {{0, 1}, {1, 2}, {0, 2}, {0, 3}});
  auto cc = ExactClusteringCoefficients(g);
  EXPECT_DOUBLE_EQ(cc[0], 1.0 / 3.0);  // 1 closed of 3 wedges
  EXPECT_DOUBLE_EQ(cc[1], 1.0);
  EXPECT_DOUBLE_EQ(cc[3], 0.0);  // degree 1
}

TEST(SummaryClusteringTest, IdentityMatchesExact) {
  Graph g = GenerateBarabasiAlbert(80, 3, 97);
  SummaryGraph s = SummaryGraph::Identity(g);
  auto exact = ExactClusteringCoefficients(g);
  auto approx = SummaryClusteringCoefficients(SummaryView(s));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(approx[u], exact[u], 1e-12) << "node " << u;
  }
}

TEST(SummaryClusteringTest, UnweightedMatchesReconstruction) {
  Graph g = GenerateBarabasiAlbert(70, 2, 98);
  auto result = *SummarizeGraphToRatio(g, {0}, 0.5);
  Graph reconstructed = result.summary.Reconstruct();
  auto exact = ExactClusteringCoefficients(reconstructed);
  auto approx = SummaryClusteringCoefficients(SummaryView(result.summary),
                                              /*weighted=*/false);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(approx[u], exact[u], 1e-9) << "node " << u;
  }
}

TEST(SummaryClusteringTest, CollapsedCliqueStaysClustered) {
  Graph g = TwoCliquesGraph(5);
  auto result = *SummarizeGraphToRatio(g, {}, 0.6);
  auto approx = SummaryClusteringCoefficients(SummaryView(result.summary));
  // Clique members keep a high clustering estimate.
  double total = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) total += approx[u];
  EXPECT_GT(total / g.num_nodes(), 0.5);
}

TEST(SummaryClusteringTest, ValuesInUnitInterval) {
  Graph g = GenerateBarabasiAlbert(150, 3, 99);
  auto result = *SummarizeGraphToRatio(g, {1}, 0.4);
  const SummaryView view(result.summary);
  for (bool weighted : {false, true}) {
    for (double c : SummaryClusteringCoefficients(view, weighted)) {
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0 + 1e-9);
    }
  }
}

}  // namespace
}  // namespace pegasus
