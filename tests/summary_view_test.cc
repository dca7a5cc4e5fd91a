// Equivalence and determinism tests for the SummaryView query engine.
//
// The contract under test (ISSUE 3, re-pinned by ISSUE 5): the view's CSR
// stores each supernode's superedges in canonical ascending-neighbor
// order — the ONLY edge order anywhere in the serving path — so every
// query family's output is a function of the summary alone: independent
// of superedge insertion order and of the stdlib's hash-map layout
// (tests/query_service_test.cc adds the thread count used to answer a
// batch). On an identity summary (Ĝ = G) the integer families must
// agree with the exact processors on the input graph. Cross-stdlib golden hashes live in
// tests/determinism_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/pegasus.h"
#include "src/graph/generators.h"
#include "src/query/exact_queries.h"
#include "src/query/query_engine.h"
#include "src/query/summary_view.h"
#include "tests/support/reference_kernels.h"

namespace pegasus {
namespace {

struct Case {
  const char* name;
  Graph graph;
  SummaryGraph summary;
};

// Random graphs summarized to different ratios (dead supernode ids, block
// densities < 1) plus an identity summary (dense ids, all densities 1).
std::vector<Case> EquivalenceCases() {
  std::vector<Case> cases;
  {
    Graph g = GenerateBarabasiAlbert(150, 3, 301);
    auto result = *SummarizeGraphToRatio(g, {0, 7}, 0.4);
    cases.push_back({"ba150_r04", std::move(g), std::move(result.summary)});
  }
  {
    Graph g = GenerateWattsStrogatz(120, 6, 0.1, 302);
    auto result = *SummarizeGraphToRatio(g, {}, 0.6);
    cases.push_back({"ws120_r06", std::move(g), std::move(result.summary)});
  }
  {
    Graph g = GenerateBarabasiAlbert(90, 2, 303);
    SummaryGraph s = SummaryGraph::Identity(g);
    cases.push_back({"ba90_identity", std::move(g), std::move(s)});
  }
  return cases;
}

TEST(SummaryViewTest, StructureMatchesSummary) {
  for (const Case& c : EquivalenceCases()) {
    SummaryView view(c.summary);
    EXPECT_EQ(view.num_nodes(), c.summary.num_nodes()) << c.name;
    EXPECT_EQ(view.num_supernodes(), c.summary.num_supernodes()) << c.name;
    uint64_t members = 0;
    for (uint32_t a = 0; a < view.num_supernodes(); ++a) {
      members += view.members(a).size();
      EXPECT_EQ(static_cast<double>(view.members(a).size()),
                view.member_count(a))
          << c.name;
    }
    EXPECT_EQ(members, c.summary.num_nodes()) << c.name;
    // Co-membership is preserved by the dense relabeling.
    for (NodeId u = 0; u + 1 < c.summary.num_nodes(); ++u) {
      EXPECT_EQ(view.supernode_of(u) == view.supernode_of(u + 1),
                c.summary.supernode_of(u) == c.summary.supernode_of(u + 1))
          << c.name << " node " << u;
    }
  }
}

TEST(SummaryViewTest, EdgesAreCanonicallySortedAndMatchSummary) {
  for (const Case& c : EquivalenceCases()) {
    SummaryView view(c.summary);
    // Dense relabeling is monotone, so ascending dense id must equal the
    // canonical (ascending original id) order.
    std::vector<SupernodeId> original_of;  // dense -> original
    for (SupernodeId a = 0; a < c.summary.id_bound(); ++a) {
      if (c.summary.alive(a)) original_of.push_back(a);
    }
    ASSERT_EQ(original_of.size(), view.num_supernodes()) << c.name;

    uint64_t total_edges = 0;
    for (uint32_t a = 0; a < view.num_supernodes(); ++a) {
      const auto dsts = view.edge_dsts(a);
      EXPECT_TRUE(std::is_sorted(dsts.begin(), dsts.end())) << c.name;
      // Strictly ascending: one slot per distinct neighbor.
      EXPECT_EQ(std::adjacent_find(dsts.begin(), dsts.end()), dsts.end())
          << c.name;
      total_edges += dsts.size();

      // Slot-for-slot agreement with the canonical SummaryGraph order.
      const auto canonical = c.summary.superedges(original_of[a]);
      ASSERT_EQ(canonical.size(), dsts.size()) << c.name << " a=" << a;
      uint64_t slot = view.edge_begin(a);
      for (const auto& [b, w] : canonical) {
        EXPECT_EQ(original_of[view.edge_dst()[slot]], b) << c.name;
        EXPECT_EQ(view.edge_weight()[slot], w) << c.name;
        ++slot;
      }
    }
    // Every superedge appears once per endpoint (a self-loop once total).
    uint64_t endpoint_slots = 0;
    for (SupernodeId a : c.summary.ActiveSupernodes()) {
      endpoint_slots += c.summary.superedges(a).size();
    }
    EXPECT_EQ(total_edges, endpoint_slots) << c.name;
  }
}

TEST(SummaryViewTest, EdgeLookupMatchesSummaryWeights) {
  for (const Case& c : EquivalenceCases()) {
    SummaryView view(c.summary);
    for (uint32_t a = 0; a < view.num_supernodes(); ++a) {
      for (uint64_t i = view.edge_begin(a); i < view.edge_end(a); ++i) {
        const uint32_t b = view.edge_dst()[i];
        EXPECT_EQ(view.FindEdge(a, b), static_cast<int64_t>(i));
        EXPECT_EQ(view.EdgeWeight(a, b), view.edge_weight()[i]);
        EXPECT_EQ(view.EdgeDensity(a, b, true), view.edge_density(true)[i]);
        EXPECT_EQ(view.EdgeDensity(a, b, false), 1.0);
        EXPECT_EQ(view.edge_density(false)[i], 1.0);
      }
      // A dense id one past the last neighbor is absent.
      EXPECT_EQ(view.FindEdge(a, view.num_supernodes()), -1);
      EXPECT_EQ(view.EdgeWeight(a, view.num_supernodes()), 0u);
      EXPECT_EQ(view.EdgeDensity(a, view.num_supernodes(), true), 0.0);
    }
  }
}

// The in-process proxy for the cross-stdlib claim: two summaries with the
// same content but opposite superedge insertion orders have different
// hash-map enumeration orders, yet must produce bit-identical views and
// bit-identical answers for every query family.
TEST(SummaryViewTest, InsertionOrderDoesNotChangeAnyAnswer) {
  Graph g = GenerateWattsStrogatz(80, 6, 0.15, 304);
  auto result = *SummarizeGraphToRatio(g, {2}, 0.5);
  const SummaryGraph& summary = result.summary;

  // Rebuild the summary twice from its own content: forward and reverse
  // superedge insertion order.
  std::vector<NodeId> labels(summary.num_nodes());
  for (NodeId u = 0; u < summary.num_nodes(); ++u) {
    labels[u] = summary.supernode_of(u);
  }
  struct E {
    SupernodeId a, b;
    uint32_t w;
  };
  std::vector<E> edges;
  for (SupernodeId a : summary.ActiveSupernodes()) {
    for (const auto& [b, w] : summary.superedges(a)) {
      if (b >= a) edges.push_back({a, b, w});
    }
  }
  // Densify ids the same way FromPartition will.
  std::vector<SupernodeId> dense(summary.id_bound(), 0);
  SupernodeId next = 0;
  for (SupernodeId a = 0; a < summary.id_bound(); ++a) {
    if (summary.alive(a)) dense[a] = next++;
  }

  SummaryGraph forward = SummaryGraph::FromPartition(g, labels);
  for (const E& e : edges) {
    forward.SetSuperedge(dense[e.a], dense[e.b], e.w);
  }
  SummaryGraph reverse = SummaryGraph::FromPartition(g, labels);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    reverse.SetSuperedge(dense[it->a], dense[it->b], it->w);
  }

  const SummaryView vf(forward);
  const SummaryView vr(reverse);
  ASSERT_EQ(vf.num_supernodes(), vr.num_supernodes());
  for (uint32_t a = 0; a < vf.num_supernodes(); ++a) {
    const auto df = vf.edge_dsts(a);
    const auto dr = vr.edge_dsts(a);
    ASSERT_TRUE(std::equal(df.begin(), df.end(), dr.begin(), dr.end()))
        << "a=" << a;
  }
  for (NodeId q : {NodeId{0}, NodeId{11}, NodeId{79}}) {
    EXPECT_EQ(SummaryNeighbors(vf, q), SummaryNeighbors(vr, q));
    EXPECT_EQ(FastSummaryHopDistances(vf, q), FastSummaryHopDistances(vr, q));
    for (bool weighted : {true, false}) {
      EXPECT_EQ(SummaryRwrScores(vf, q, 0.05, weighted),
                SummaryRwrScores(vr, q, 0.05, weighted));
      EXPECT_EQ(SummaryPhpScores(vf, q, 0.95, weighted),
                SummaryPhpScores(vr, q, 0.95, weighted));
    }
  }
  for (bool weighted : {true, false}) {
    EXPECT_EQ(SummaryDegrees(vf, weighted), SummaryDegrees(vr, weighted));
    EXPECT_EQ(SummaryPageRank(vf, 0.85, weighted),
              SummaryPageRank(vr, 0.85, weighted));
    EXPECT_EQ(SummaryClusteringCoefficients(vf, weighted),
              SummaryClusteringCoefficients(vr, weighted));
  }
}

// On an identity summary Ĝ = G, so the integer families must agree with
// the exact processors on the input graph — an equivalence anchor that
// does not depend on any frozen implementation.
TEST(SummaryViewTest, IdentitySummaryMatchesExactQueries) {
  Graph g = GenerateBarabasiAlbert(70, 3, 305);
  const SummaryGraph summary = SummaryGraph::Identity(g);
  const SummaryView view(summary);
  for (NodeId q : {NodeId{0}, NodeId{33}, NodeId{69}}) {
    const auto nb = g.neighbors(q);
    EXPECT_EQ(SummaryNeighbors(view, q),
              std::vector<NodeId>(nb.begin(), nb.end()))
        << "q=" << q;
    EXPECT_EQ(SummaryHopDistances(view, q), ExactHopDistances(g, q))
        << "q=" << q;
    EXPECT_EQ(FastSummaryHopDistances(view, q), ExactHopDistances(g, q))
        << "q=" << q;
  }
  const auto degrees = SummaryDegrees(view, /*weighted=*/true);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(degrees[u], static_cast<double>(g.neighbors(u).size()))
        << "u=" << u;
  }
  const auto cc = SummaryClusteringCoefficients(view, /*weighted=*/false);
  const auto exact_cc = ExactClusteringCoefficients(g);
  ASSERT_EQ(cc.size(), exact_cc.size());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(cc[u], exact_cc[u], 1e-12) << "u=" << u;
  }
}

TEST(QueryKindTest, NamesRoundTrip) {
  for (QueryKind kind :
       {QueryKind::kNeighbors, QueryKind::kHop, QueryKind::kRwr,
        QueryKind::kPhp, QueryKind::kDegree, QueryKind::kPageRank,
        QueryKind::kClustering}) {
    const auto parsed = ParseQueryKind(QueryKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseQueryKind("bogus").has_value());
  // Parsing is case-insensitive.
  EXPECT_EQ(ParseQueryKind("PageRank"), QueryKind::kPageRank);
  EXPECT_EQ(ParseQueryKind("NEIGHBORS"), QueryKind::kNeighbors);
  EXPECT_EQ(ParseQueryKind("Rwr"), QueryKind::kRwr);
  // The kind list names every family (for CLI error messages).
  EXPECT_EQ(QueryKindList(),
            "neighbors, hop, rwr, php, degree, pagerank, clustering");
}

}  // namespace
}  // namespace pegasus
