// Tests for the extension queries on summary graphs: node degrees and
// PageRank (both named in the paper's Appendix A as queries answerable
// from a summary).

#include <gtest/gtest.h>

#include <numeric>

#include "src/core/merge_engine.h"
#include "src/core/pegasus.h"
#include "src/core/personal_weights.h"
#include "src/graph/generators.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

TEST(SummaryDegreesTest, IdentityMatchesGraphDegrees) {
  Graph g = GenerateBarabasiAlbert(100, 3, 91);
  const SummaryView view(SummaryGraph::Identity(g));
  auto deg = SummaryDegrees(view);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(deg[u], static_cast<double>(g.degree(u)));
  }
}

TEST(SummaryDegreesTest, MatchesReconstructionDegrees) {
  Graph g = GenerateBarabasiAlbert(80, 2, 92);
  auto result = *SummarizeGraphToRatio(g, {0}, 0.5);
  Graph reconstructed = result.summary.Reconstruct();
  auto deg = SummaryDegrees(SummaryView(result.summary), /*weighted=*/false);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(deg[u], static_cast<double>(reconstructed.degree(u)))
        << "node " << u;
  }
}

TEST(SummaryDegreesTest, WeightedNeverExceedsUnweighted) {
  Graph g = GenerateBarabasiAlbert(120, 3, 93);
  auto result = *SummarizeGraphToRatio(g, {}, 0.4);
  const SummaryView view(result.summary);
  auto weighted = SummaryDegrees(view, true);
  auto unweighted = SummaryDegrees(view, false);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_LE(weighted[u], unweighted[u] + 1e-9);
  }
}

TEST(SummaryPageRankTest, IdentityMatchesExact) {
  Graph g = GenerateBarabasiAlbert(90, 2, 94);
  const SummaryView view(SummaryGraph::Identity(g));
  auto exact = PageRank(g);
  auto approx = SummaryPageRank(view);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(approx[u], exact[u], 1e-6) << "node " << u;
  }
}

TEST(SummaryPageRankTest, SumsToOne) {
  Graph g = GenerateBarabasiAlbert(200, 3, 95);
  auto result = *SummarizeGraphToRatio(g, {5}, 0.5);
  auto pr = SummaryPageRank(SummaryView(result.summary));
  EXPECT_NEAR(std::accumulate(pr.begin(), pr.end(), 0.0), 1.0, 1e-6);
}

TEST(SummaryPageRankTest, CoMembersShareScores) {
  Graph g = GenerateBarabasiAlbert(150, 2, 96);
  auto result = *SummarizeGraphToRatio(g, {}, 0.3);
  const SummaryGraph& s = result.summary;
  auto pr = SummaryPageRank(SummaryView(s));
  for (SupernodeId a : s.ActiveSupernodes()) {
    const auto& m = s.members(a);
    for (size_t i = 1; i < m.size(); ++i) {
      EXPECT_DOUBLE_EQ(pr[m[0]], pr[m[i]]);
    }
  }
}

TEST(SummaryPageRankTest, RanksHubsAboveLeavesAfterSummarization) {
  Graph g = ::pegasus::testing::StarGraph(30);
  SummaryGraph s = SummaryGraph::Identity(g);
  auto w = PersonalWeights::Compute(g, {}, 1.0);
  CostModel cm(g, w, s);
  MergeEngine engine(g, s, cm, MergeScore::kRelative);
  // Merge all leaves into one supernode; the hub stays alone.
  SupernodeId leaves = 1;
  for (NodeId u = 2; u <= 30; ++u) {
    leaves = engine.ApplyMerge(leaves, u);
  }
  auto pr = SummaryPageRank(SummaryView(s));
  EXPECT_GT(pr[0], pr[1] * 5);
}

}  // namespace
}  // namespace pegasus
