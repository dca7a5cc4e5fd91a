#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/core/summary_graph.h"
#include "src/graph/datasets.h"
#include "src/graph/graph_builder.h"
#include "src/util/bits.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

using ::pegasus::testing::CompleteGraph;
using ::pegasus::testing::PathGraph;
using ::pegasus::testing::TwoCliquesGraph;

TEST(SummaryGraphTest, IdentityStructure) {
  Graph g = PathGraph(5);
  SummaryGraph s = SummaryGraph::Identity(g);
  EXPECT_EQ(s.num_nodes(), 5u);
  EXPECT_EQ(s.num_supernodes(), 5u);
  EXPECT_EQ(s.num_superedges(), 4u);
  for (NodeId u = 0; u < 5; ++u) {
    EXPECT_EQ(s.supernode_of(u), u);
    EXPECT_EQ(s.members(u).size(), 1u);
  }
  EXPECT_TRUE(s.HasSuperedge(0, 1));
  EXPECT_FALSE(s.HasSuperedge(0, 2));
}

TEST(SummaryGraphTest, IdentityReconstructsExactly) {
  Graph g = TwoCliquesGraph(3);
  SummaryGraph s = SummaryGraph::Identity(g);
  Graph r = s.Reconstruct();
  EXPECT_EQ(r.CanonicalEdges(), g.CanonicalEdges());
}

TEST(SummaryGraphTest, MergeUnionsMembers) {
  Graph g = PathGraph(4);
  SummaryGraph s = SummaryGraph::Identity(g);
  SupernodeId w = s.MergeSupernodes(1, 2);
  EXPECT_EQ(s.num_supernodes(), 3u);
  EXPECT_EQ(s.members(w).size(), 2u);
  EXPECT_EQ(s.supernode_of(1), w);
  EXPECT_EQ(s.supernode_of(2), w);
  EXPECT_TRUE(s.alive(w));
  EXPECT_FALSE(s.alive(w == 1 ? 2 : 1));
}

TEST(SummaryGraphTest, MergeErasesIncidentSuperedges) {
  Graph g = PathGraph(4);
  SummaryGraph s = SummaryGraph::Identity(g);
  // Before: superedges {0,1}, {1,2}, {2,3}.
  s.MergeSupernodes(1, 2);
  EXPECT_EQ(s.num_superedges(), 0u);  // all three touched supernode 1 or 2
}

TEST(SummaryGraphTest, MergeKeepsNonIncidentSuperedges) {
  Graph g = PathGraph(6);
  SummaryGraph s = SummaryGraph::Identity(g);
  s.MergeSupernodes(0, 1);
  // Superedges {2,3}, {3,4}, {4,5} survive.
  EXPECT_EQ(s.num_superedges(), 3u);
  EXPECT_TRUE(s.HasSuperedge(3, 4));
}

TEST(SummaryGraphTest, SelfLoopSemantics) {
  Graph g = CompleteGraph(4);
  SummaryGraph s = SummaryGraph::Identity(g);
  SupernodeId w = s.MergeSupernodes(0, 1);
  s.SetSuperedge(w, w, 1);
  EXPECT_TRUE(s.HasSuperedge(w, w));
  Graph r = s.Reconstruct();
  EXPECT_TRUE(r.HasEdge(0, 1));  // self-loop connects co-members
}

TEST(SummaryGraphTest, SetAndEraseSuperedge) {
  Graph g = PathGraph(4);
  SummaryGraph s = SummaryGraph::Identity(g);
  const uint64_t before = s.num_superedges();
  s.SetSuperedge(0, 2, 5);
  EXPECT_EQ(s.num_superedges(), before + 1);
  EXPECT_EQ(s.SuperedgeWeight(0, 2), 5u);
  EXPECT_EQ(s.SuperedgeWeight(2, 0), 5u);
  // Updating the weight does not change the count.
  s.SetSuperedge(0, 2, 7);
  EXPECT_EQ(s.num_superedges(), before + 1);
  EXPECT_TRUE(s.EraseSuperedge(2, 0));
  EXPECT_EQ(s.num_superedges(), before);
  EXPECT_FALSE(s.EraseSuperedge(2, 0));
}

TEST(SummaryGraphTest, SizeInBitsMatchesEq3) {
  Graph g = PathGraph(8);
  SummaryGraph s = SummaryGraph::Identity(g);
  // |S| = 8, |P| = 7, |V| = 8: 2*7*3 + 8*3 = 66.
  EXPECT_DOUBLE_EQ(s.SizeInBits(), 66.0);
}

TEST(SummaryGraphTest, SizeShrinksWithMerges) {
  Graph g = CompleteGraph(8);
  SummaryGraph s = SummaryGraph::Identity(g);
  const double before = s.SizeInBits();
  SupernodeId w = s.MergeSupernodes(0, 1);
  s.SetSuperedge(w, w, 1);
  EXPECT_LT(s.SizeInBits(), before);
}

TEST(SummaryGraphTest, WeightedSizeUsesMaxWeight) {
  Graph g = PathGraph(4);
  SummaryGraph s = SummaryGraph::Identity(g);
  // All weights 1: weighted size equals unweighted (log2 1 = 0).
  EXPECT_DOUBLE_EQ(s.SizeInBitsWeighted(), s.SizeInBits());
  s.SetSuperedge(0, 2, 4);
  EXPECT_DOUBLE_EQ(
      s.SizeInBitsWeighted(),
      static_cast<double>(s.num_superedges()) * (2.0 * Log2Bits(4) + 2.0) +
          4.0 * Log2Bits(4));
}

TEST(SummaryGraphTest, ActiveSupernodesTracksMerges) {
  Graph g = PathGraph(5);
  SummaryGraph s = SummaryGraph::Identity(g);
  s.MergeSupernodes(0, 1);
  s.MergeSupernodes(3, 4);
  auto active = s.ActiveSupernodes();
  EXPECT_EQ(active.size(), 3u);
  EXPECT_TRUE(std::is_sorted(active.begin(), active.end()));
}

TEST(SummaryGraphTest, FromPartitionGroupsNodes) {
  Graph g = PathGraph(6);
  SummaryGraph s = SummaryGraph::FromPartition(g, {0, 0, 0, 7, 7, 7});
  EXPECT_EQ(s.num_supernodes(), 2u);
  EXPECT_EQ(s.members(s.supernode_of(0)).size(), 3u);
  EXPECT_EQ(s.supernode_of(3), s.supernode_of(5));
  EXPECT_NE(s.supernode_of(0), s.supernode_of(3));
  EXPECT_EQ(s.num_superedges(), 0u);
}

TEST(SummaryGraphTest, RepeatedMergesCollapseToOne) {
  Graph g = PathGraph(6);
  SummaryGraph s = SummaryGraph::Identity(g);
  auto active = s.ActiveSupernodes();
  while (active.size() > 1) {
    s.MergeSupernodes(active[0], active[1]);
    active = s.ActiveSupernodes();
  }
  EXPECT_EQ(s.num_supernodes(), 1u);
  EXPECT_EQ(s.members(active[0]).size(), 6u);
  EXPECT_DOUBLE_EQ(s.SizeInBits(), 0.0);  // log2(1) = 0
}

// Reference model of the superedge store: the unordered pairs in a
// std::map, plus the member counts that drive the merge winner rule.
struct StoreModel {
  std::map<std::pair<SupernodeId, SupernodeId>, uint32_t> pairs;
  std::vector<size_t> members;  // 0 = retired
  uint32_t num_alive = 0;

  static std::pair<SupernodeId, SupernodeId> Key(SupernodeId a,
                                                 SupernodeId b) {
    return {std::min(a, b), std::max(a, b)};
  }
  uint32_t Weight(SupernodeId a, SupernodeId b) const {
    auto it = pairs.find(Key(a, b));
    return it == pairs.end() ? 0 : it->second;
  }
  uint64_t Clear(SupernodeId a) {
    return std::erase_if(pairs, [a](const auto& p) {
      return p.first.first == a || p.first.second == a;
    });
  }
  SupernodeId Merge(SupernodeId a, SupernodeId b) {
    const SupernodeId winner = members[a] >= members[b] ? a : b;
    const SupernodeId loser = winner == a ? b : a;
    Clear(a);
    Clear(b);
    members[winner] += members[loser];
    members[loser] = 0;
    --num_alive;
    return winner;
  }
  // Every row as the store must enumerate it: ascending neighbor id.
  std::vector<std::vector<SummaryGraph::Superedge>> Rows() const {
    std::vector<std::vector<SummaryGraph::Superedge>> rows(members.size());
    for (const auto& [key, w] : pairs) {
      rows[key.first].push_back({key.second, w});
      if (key.first != key.second) rows[key.second].push_back({key.first, w});
    }
    for (auto& row : rows) {
      std::sort(row.begin(), row.end(), [](const auto& x, const auto& y) {
        return x.neighbor < y.neighbor;
      });
    }
    return rows;
  }
};

void ExpectStoreMatchesModel(const SummaryGraph& s, const StoreModel& model,
                             uint64_t seed, int step) {
  ASSERT_EQ(s.num_superedges(), model.pairs.size())
      << "seed " << seed << " step " << step;
  ASSERT_EQ(s.num_supernodes(), model.num_alive);
  const double bits = Log2Bits(model.num_alive);
  EXPECT_DOUBLE_EQ(s.SizeInBits(),
                   2.0 * static_cast<double>(model.pairs.size()) * bits +
                       static_cast<double>(s.num_nodes()) * bits);
  const auto rows = model.Rows();
  for (SupernodeId a = 0; a < s.id_bound(); ++a) {
    const auto& expected = rows[a];
    const auto view = s.superedges(a);
    ASSERT_EQ(view.size(), expected.size())
        << "seed " << seed << " step " << step << " row " << a;
    ASSERT_TRUE(std::equal(view.begin(), view.end(), expected.begin()))
        << "seed " << seed << " step " << step << " row " << a;
  }
}

TEST(SummaryGraphTest, StoreMatchesReferenceModelUnderRandomMutation) {
  // Node 0 is a hub: a star over 2,500 leaves plus random edges, so its
  // row runs the hub path (tombstones, tail run, merges) the whole time;
  // every other row stays short. Node 0 is never merged or cleared until
  // the final phase.
  constexpr NodeId kNodes = 3000;
  constexpr NodeId kHubLeaves = 2500;
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    GraphBuilder builder(kNodes);
    for (NodeId v = 1; v <= kHubLeaves; ++v) builder.AddEdge(0, v);
    for (int e = 0; e < 6000; ++e) {
      builder.AddEdge(1 + static_cast<NodeId>(rng.Uniform(kNodes - 1)),
                      1 + static_cast<NodeId>(rng.Uniform(kNodes - 1)));
    }
    const Graph graph = std::move(builder).Build();
    SummaryGraph s = SummaryGraph::Identity(graph);
    StoreModel model;
    model.members.assign(kNodes, 1);
    model.num_alive = kNodes;
    for (const Edge& e : graph.CanonicalEdges()) model.pairs[{e.u, e.v}] = 1;
    ASSERT_GE(s.superedges(0).size(), 2000u);
    ExpectStoreMatchesModel(s, model, seed, -1);

    std::vector<SupernodeId> alive(kNodes - 1);
    for (NodeId u = 1; u < kNodes; ++u) alive[u - 1] = u;
    auto any_alive = [&] {
      return rng.Bernoulli(0.4) ? SupernodeId{0}
                                : alive[rng.Uniform(alive.size())];
    };
    for (int step = 0; step < 20000; ++step) {
      const SupernodeId a = any_alive();
      const SupernodeId b = any_alive();
      const uint64_t op = rng.Uniform(100);
      if (op < 45) {
        const auto w = static_cast<uint32_t>(1 + rng.Uniform(9));
        s.SetSuperedge(a, b, w);
        model.pairs[StoreModel::Key(a, b)] = w;
      } else if (op < 90) {
        EXPECT_EQ(s.EraseSuperedge(a, b),
                  model.pairs.erase(StoreModel::Key(a, b)) == 1);
      } else if (op < 95 && a != 0) {
        EXPECT_EQ(s.ClearSuperedgesOf(a), model.Clear(a));
      } else if (a != b && a != 0 && b != 0 && alive.size() > 2) {
        const SupernodeId winner = s.MergeSupernodes(a, b);
        ASSERT_EQ(winner, model.Merge(a, b));
        const SupernodeId loser = winner == a ? b : a;
        alive.erase(std::find(alive.begin(), alive.end(), loser));
      }
      EXPECT_EQ(s.SuperedgeWeight(a, b), model.Weight(a, b));
      EXPECT_EQ(s.HasSuperedge(b, a), model.Weight(a, b) != 0);
      if (step % 997 == 0) ExpectStoreMatchesModel(s, model, seed, step);
    }
    ASSERT_GE(s.superedges(0).size(), 1000u);
    ExpectStoreMatchesModel(s, model, seed, 20000);
    // Shrink the hub by erasures alone, so tombstones pile up until they
    // trigger compaction, and the row drops back below the hub threshold.
    std::vector<SupernodeId> hub_neighbors;
    for (const auto& [c, w] : s.superedges(0)) hub_neighbors.push_back(c);
    rng.Shuffle(hub_neighbors);
    for (size_t i = 0; i + 40 < hub_neighbors.size(); ++i) {
      EXPECT_TRUE(s.EraseSuperedge(hub_neighbors[i], 0));
      model.pairs.erase(StoreModel::Key(0, hub_neighbors[i]));
      if (i % 401 == 0) ExpectStoreMatchesModel(s, model, seed, 20000);
    }
    ExpectStoreMatchesModel(s, model, seed, 20000);
    // Bulk erasure of the hub row itself.
    EXPECT_EQ(s.ClearSuperedgesOf(0), model.Clear(0));
    ExpectStoreMatchesModel(s, model, seed, 20001);
    // Copies enumerate identically.
    const SummaryGraph copy = s;
    ExpectStoreMatchesModel(copy, model, seed, 20002);
  }
}

TEST(SummaryGraphTest, IdentityStoreIsCompact) {
  // 8 bytes per directed entry plus one 24-byte row header per supernode:
  // ~10 B per entry at Skitter*'s mean degree (a hash map row costs ~45).
  const Graph g = MakeDataset(DatasetId::kSkitter, DatasetScale::kTiny).graph;
  const SummaryGraph s = SummaryGraph::Identity(g);
  const double entries = 2.0 * static_cast<double>(g.num_edges());
  EXPECT_LE(static_cast<double>(s.SuperedgeStoreBytes()) / entries, 12.0);
}

}  // namespace
}  // namespace pegasus
