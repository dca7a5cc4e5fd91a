#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/core/pegasus.h"
#include "src/core/summary_io.h"
#include "src/graph/generators.h"
#include "src/query/summary_view.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SummaryIoTest, RoundTripIdentity) {
  Graph g = ::pegasus::testing::PathGraph(6);
  SummaryGraph s = SummaryGraph::Identity(g);
  const std::string path = TempPath("identity.summary");
  ASSERT_TRUE(SaveSummary(s, path));
  auto loaded = LoadSummary(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_nodes(), s.num_nodes());
  EXPECT_EQ(loaded->num_supernodes(), s.num_supernodes());
  EXPECT_EQ(loaded->num_superedges(), s.num_superedges());
  std::remove(path.c_str());
}

TEST(SummaryIoTest, RoundTripPreservesQueries) {
  Graph g = GenerateBarabasiAlbert(150, 3, 90);
  auto result = *SummarizeGraphToRatio(g, {0, 1}, 0.5);
  const std::string path = TempPath("summary.summary");
  ASSERT_TRUE(SaveSummary(result.summary, path));
  auto loaded = LoadSummary(path);
  ASSERT_TRUE(loaded.has_value());

  // Same partition (up to relabeling): co-membership must match.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      EXPECT_EQ(result.summary.supernode_of(u) ==
                    result.summary.supernode_of(v),
                loaded->supernode_of(u) == loaded->supernode_of(v));
    }
  }
  // Queries answer identically.
  const SummaryView original_view(result.summary);
  const SummaryView loaded_view(*loaded);
  for (NodeId q : {0u, 17u, 149u}) {
    EXPECT_EQ(FastSummaryHopDistances(original_view, q),
              FastSummaryHopDistances(loaded_view, q));
    auto r1 = SummaryRwrScores(original_view, q);
    auto r2 = SummaryRwrScores(loaded_view, q);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_NEAR(r1[u], r2[u], 1e-12);
    }
  }
  // Size accounting survives the round trip.
  EXPECT_DOUBLE_EQ(result.summary.SizeInBits(), loaded->SizeInBits());
  std::remove(path.c_str());
}

TEST(SummaryIoTest, RejectsMissingFile) {
  const auto s = LoadSummary("/no/such/file.summary");
  EXPECT_FALSE(s.has_value());
  EXPECT_EQ(s.status().code(), StatusCode::kNotFound);
}

TEST(SummaryIoTest, RejectsCorruptHeader) {
  const std::string path = TempPath("corrupt.summary");
  {
    std::ofstream out(path);
    out << "NOT-A-SUMMARY v9\n";
  }
  const auto s = LoadSummary(path);
  EXPECT_FALSE(s.has_value());
  EXPECT_EQ(s.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SummaryIoTest, RejectsOutOfRangeSuperedge) {
  const std::string path = TempPath("badedge.summary");
  {
    std::ofstream out(path);
    out << "PEGASUS-SUMMARY v1\n";
    out << "nodes 2 supernodes 2 superedges 1\n";
    out << "0 1\n";
    out << "0 7 1\n";  // supernode 7 does not exist
  }
  EXPECT_FALSE(LoadSummary(path).has_value());
  std::remove(path.c_str());
}

TEST(SummaryIoTest, RejectsDuplicateSuperedge) {
  // A repeated pair used to silently overwrite the first weight and leave
  // the summary one superedge short of the declared count.
  const std::string path = TempPath("dupedge.summary");
  for (const char* duplicate : {"0 1 7", "1 0 7"}) {
    std::ofstream out(path);
    out << "PEGASUS-SUMMARY v1\n";
    out << "nodes 2 supernodes 2 superedges 2\n";
    out << "0 1\n";
    out << "0 1 3\n";
    out << duplicate << "\n";
    out.close();
    EXPECT_FALSE(LoadSummary(path).has_value()) << duplicate;
  }
  std::remove(path.c_str());
}

TEST(SummaryIoTest, RejectsTrailingGarbage) {
  const std::string path = TempPath("trailing.summary");
  {
    std::ofstream out(path);
    out << "PEGASUS-SUMMARY v1\n";
    out << "nodes 2 supernodes 2 superedges 1\n";
    out << "0 1\n";
    out << "0 1 3\n";
    out << "0 0 9\n";  // beyond the declared superedge count
  }
  EXPECT_FALSE(LoadSummary(path).has_value());
  std::remove(path.c_str());
}

TEST(SummaryIoTest, AcceptsTrailingWhitespace) {
  const std::string path = TempPath("trailing_ws.summary");
  {
    std::ofstream out(path);
    out << "PEGASUS-SUMMARY v1\n";
    out << "nodes 2 supernodes 2 superedges 1\n";
    out << "0 1\n";
    out << "0 1 3\n";
    out << "\n  \n";
  }
  EXPECT_TRUE(LoadSummary(path).has_value());
  std::remove(path.c_str());
}

TEST(SummaryIoTest, SaveLoadSaveIsByteStable) {
  // Property: re-saving a loaded summary reproduces the file byte for
  // byte, over a spread of random graphs and ratios.
  for (uint64_t seed : {11u, 12u, 13u}) {
    Graph g = GenerateBarabasiAlbert(120, 3, seed);
    auto result =
        *SummarizeGraphToRatio(g, {0}, seed % 2 == 0 ? 0.4 : 0.6);
    const std::string path1 = TempPath("stable1.summary");
    const std::string path2 = TempPath("stable2.summary");
    ASSERT_TRUE(SaveSummary(result.summary, path1));
    auto loaded = LoadSummary(path1);
    ASSERT_TRUE(loaded.has_value()) << "seed " << seed;
    ASSERT_TRUE(SaveSummary(*loaded, path2));
    std::ifstream f1(path1), f2(path2);
    std::string s1((std::istreambuf_iterator<char>(f1)),
                   std::istreambuf_iterator<char>());
    std::string s2((std::istreambuf_iterator<char>(f2)),
                   std::istreambuf_iterator<char>());
    EXPECT_FALSE(s1.empty());
    EXPECT_EQ(s1, s2) << "seed " << seed;
    std::remove(path1.c_str());
    std::remove(path2.c_str());
  }
}

TEST(SummaryIoTest, RejectsSupernodeCountMismatchUpFront) {
  // Header declares 3 supernodes but the labels only use {0, 1}: the
  // loader must fail before building anything, naming both numbers.
  const std::string path = TempPath("count_mismatch.summary");
  {
    std::ofstream out(path);
    out << "PEGASUS-SUMMARY v1\n";
    out << "nodes 2 supernodes 3 superedges 0\n";
    out << "0 1\n";
  }
  const auto s = LoadSummary(path);
  ASSERT_FALSE(s.has_value());
  EXPECT_EQ(s.status().code(), StatusCode::kDataLoss);
  const std::string message = s.status().ToString();
  EXPECT_NE(message.find("3 supernodes"), std::string::npos) << message;
  EXPECT_NE(message.find("2 distinct"), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(SummaryIoTest, RejectsBadMembershipLabel) {
  const std::string path = TempPath("badlabel.summary");
  {
    std::ofstream out(path);
    out << "PEGASUS-SUMMARY v1\n";
    out << "nodes 2 supernodes 1 superedges 0\n";
    out << "0 3\n";  // label 3 >= 1 supernode
  }
  EXPECT_FALSE(LoadSummary(path).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pegasus
