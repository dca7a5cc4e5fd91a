// Shard build pipeline tests: the partitioner registry, the on-disk
// build (PSB per shard + validated manifest + matching checksums), byte
// determinism of a rebuild, the 1-shard trivial layout, option
// validation, and the delegation contract — SummaryCluster::Build and
// shard::BuildShardSummaries are the same code path, so their summaries
// agree machine by machine. Shard bytes are also pinned across commits:
// fixed Skitter* builds must reproduce checked-in manifest checksums at
// every worker count, including fleets with more shards than workers.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/binary_summary_io.h"
#include "src/distributed/cluster.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/partition/random_partition.h"
#include "src/shard/manifest.h"
#include "src/shard/shard_build.h"
#include "src/util/status.h"
#include "tests/test_util.h"

namespace pegasus::shard {
namespace {

std::string TempDirFor(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {(std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>()};
}

Graph TestGraph() { return GenerateBarabasiAlbert(120, 3, 31); }

ShardBuildOptions TestOptions(uint32_t shards) {
  ShardBuildOptions options;
  options.num_shards = shards;
  options.partitioner = PartitionerKind::kRandom;
  options.ratio = 0.5;
  options.config.seed = 7;
  return options;
}

TEST(ShardBuildTest, PartitionerRegistryRoundTrips) {
  for (PartitionerKind kind :
       {PartitionerKind::kLouvain, PartitionerKind::kBlp,
        PartitionerKind::kMultilevel, PartitionerKind::kShpI,
        PartitionerKind::kShpII, PartitionerKind::kShpKL,
        PartitionerKind::kRandom}) {
    auto parsed = ParsePartitionerKind(PartitionerName(kind));
    ASSERT_TRUE(parsed.has_value()) << PartitionerName(kind);
    EXPECT_EQ(*parsed, kind);
    EXPECT_NE(PartitionerList().find(PartitionerName(kind)),
              std::string::npos);
  }
  EXPECT_FALSE(ParsePartitionerKind("metis").has_value());
}

TEST(ShardBuildTest, RunPartitionerProducesValidPartitions) {
  const Graph graph = TestGraph();
  for (PartitionerKind kind :
       {PartitionerKind::kLouvain, PartitionerKind::kBlp,
        PartitionerKind::kMultilevel, PartitionerKind::kShpI,
        PartitionerKind::kShpII, PartitionerKind::kShpKL,
        PartitionerKind::kRandom}) {
    const Partition p = RunPartitioner(graph, 4, kind, 11);
    EXPECT_TRUE(p.Valid(graph.num_nodes())) << PartitionerName(kind);
    EXPECT_EQ(p.num_parts, 4u) << PartitionerName(kind);
  }
}

TEST(ShardBuildTest, BuildWritesLoadableShardsAndManifest) {
  const Graph graph = TestGraph();
  const std::string dir = TempDirFor("shard_build_out");
  auto result = ShardBuild(graph, dir, TestOptions(3));
  ASSERT_TRUE(result) << result.status().ToString();

  EXPECT_EQ(result->manifest.num_shards, 3u);
  EXPECT_EQ(result->manifest.num_nodes, graph.num_nodes());
  EXPECT_EQ(result->manifest.partitioner, "random");
  EXPECT_TRUE(result->manifest.Validate());
  EXPECT_EQ(result->partition.part_of, result->manifest.node_shard);
  EXPECT_GE(result->build_seconds, 0.0);

  // The manifest on disk loads back identical and every shard PSB both
  // passes its recorded checksum and decodes to a summary of the graph.
  auto loaded = LoadManifest(result->manifest_path);
  ASSERT_TRUE(loaded) << loaded.status().ToString();
  EXPECT_EQ(loaded->node_shard, result->manifest.node_shard);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(VerifyShardChecksum(*loaded, dir, i)) << i;
    auto summary = LoadSummaryBinary(ShardPsbPath(*loaded, dir, i));
    ASSERT_TRUE(summary) << summary.status().ToString();
    EXPECT_EQ(summary->num_nodes(), graph.num_nodes()) << i;
    EXPECT_EQ(summary->num_supernodes(), result->shard_supernodes[i]) << i;
  }
}

TEST(ShardBuildTest, RebuildIsByteIdentical) {
  const Graph graph = TestGraph();
  const std::string dir_a = TempDirFor("shard_det_a");
  const std::string dir_b = TempDirFor("shard_det_b");
  auto a = ShardBuild(graph, dir_a, TestOptions(2));
  auto b = ShardBuild(graph, dir_b, TestOptions(2));
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  // Manifest text and every shard image are pure functions of
  // (graph, options) — relative paths make the directories move as units.
  EXPECT_EQ(FileBytes(a->manifest_path), FileBytes(b->manifest_path));
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_EQ(FileBytes(ShardPsbPath(a->manifest, dir_a, i)),
              FileBytes(ShardPsbPath(b->manifest, dir_b, i)))
        << i;
  }
}

TEST(ShardBuildTest, SingleShardUsesTrivialLayout) {
  const Graph graph = TestGraph();
  // Partitioner choice must not reach a 1-shard build: the layouts (and
  // the bytes) agree across partitioners.
  ShardBuildOptions louvain = TestOptions(1);
  louvain.partitioner = PartitionerKind::kLouvain;
  ShardBuildOptions random = TestOptions(1);
  random.partitioner = PartitionerKind::kRandom;
  const std::string dir_a = TempDirFor("shard_single_a");
  const std::string dir_b = TempDirFor("shard_single_b");
  auto a = ShardBuild(graph, dir_a, louvain);
  auto b = ShardBuild(graph, dir_b, random);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(a->manifest.num_shards, 1u);
  for (uint32_t part : a->manifest.node_shard) EXPECT_EQ(part, 0u);
  EXPECT_EQ(FileBytes(ShardPsbPath(a->manifest, dir_a, 0)),
            FileBytes(ShardPsbPath(b->manifest, dir_b, 0)));
}

TEST(ShardBuildTest, RejectsBadOptions) {
  const Graph graph = TestGraph();
  const std::string dir = TempDirFor("shard_bad_opts");
  EXPECT_EQ(ShardBuild(graph, dir, TestOptions(0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ShardBuild(graph, dir, TestOptions(graph.num_nodes() + 1)).status()
          .code(),
      StatusCode::kInvalidArgument);
  ShardBuildOptions bad_ratio = TestOptions(2);
  bad_ratio.ratio = 0.0;
  EXPECT_EQ(ShardBuild(graph, dir, bad_ratio).status().code(),
            StatusCode::kInvalidArgument);
  bad_ratio.ratio = 1.5;
  EXPECT_EQ(ShardBuild(graph, dir, bad_ratio).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardBuildTest, BuildShardSummariesMatchesSummaryCluster) {
  const Graph graph = TestGraph();
  const Partition partition = RandomPartition(graph.num_nodes(), 3, 5);
  PegasusConfig config;
  config.seed = 13;
  const double budget = 0.5 * graph.SizeInBits();

  auto summaries = BuildShardSummaries(graph, partition, budget, config);
  ASSERT_TRUE(summaries) << summaries.status().ToString();
  auto cluster = SummaryCluster::Build(graph, partition, budget, config);
  ASSERT_TRUE(cluster) << cluster.status().ToString();

  ASSERT_EQ(summaries->size(), cluster->num_machines());
  for (uint32_t i = 0; i < cluster->num_machines(); ++i) {
    EXPECT_EQ((*summaries)[i].num_supernodes(),
              cluster->summary(i).num_supernodes())
        << i;
    EXPECT_EQ((*summaries)[i].SizeInBits(), cluster->summary(i).SizeInBits())
        << i;
  }
}

TEST(ShardBuildTest, MachineErrorsNameTheMachine) {
  const Graph graph = TestGraph();
  const Partition partition = RandomPartition(graph.num_nodes(), 2, 5);
  // A negative budget is rejected by the summarizer; the error must name
  // machine 0 (the first to build), same contract distributed_test pins.
  auto summaries = BuildShardSummaries(graph, partition, -1.0, {});
  ASSERT_FALSE(summaries);
  EXPECT_NE(summaries.status().message().find("machine 0"),
            std::string::npos);
}

// Pinned manifest checksums of Skitter* tiny split by louvain at ratio 0.5
// (seed 7): one FNV-1a 64 per shard PSB, in shard order. The serial
// engine (num_threads = 1) and the parallel engine (every other setting)
// build different, equally valid summaries, so each has its own pin. They
// were captured while shards were still built one at a time with the
// hash-map superedge store, so they pin that concurrent builds and the
// row store changed no byte.
const std::vector<uint64_t> kSerialChecksums4 = {
    0x11875311768333feULL, 0xde4bfd94c2126459ULL, 0xad9b282937824bfbULL,
    0xfbfdecb41402ab84ULL};
const std::vector<uint64_t> kParallelChecksums4 = {
    0x4bb35f51693ef994ULL, 0x961a835ea0db8a85ULL, 0x236a6cec66a54e1aULL,
    0x4b8cfe918e7ad9bcULL};
const std::vector<uint64_t> kParallelChecksums8 = {
    0x389ff9dd1865860eULL, 0x8fbf6cb3023a6cd9ULL, 0x3e1b9be9e42222a1ULL,
    0x617afe66edf9e16eULL, 0x9d3d5a15706bdb0eULL, 0x799a56dd5ccc601cULL,
    0x9df27cbe8e22db44ULL, 0x2e396c96d2ea97fdULL};

std::vector<uint64_t> SkitterChecksums(uint32_t shards, int num_threads,
                                       const std::string& dir) {
  const Graph graph =
      MakeDataset(DatasetId::kSkitter, DatasetScale::kTiny).graph;
  ShardBuildOptions options;
  options.num_shards = shards;
  options.partitioner = PartitionerKind::kLouvain;
  options.ratio = 0.5;
  options.config.seed = 7;
  options.config.num_threads = num_threads;
  auto result = ShardBuild(graph, TempDirFor(dir), options);
  EXPECT_TRUE(result) << result.status().ToString();
  std::vector<uint64_t> checksums;
  if (!result) return checksums;
  for (const ShardEntry& entry : result->manifest.shards) {
    checksums.push_back(entry.checksum);
  }
  return checksums;
}

std::string Hex(const std::vector<uint64_t>& checksums) {
  std::ostringstream out;
  out << std::hex;
  for (uint64_t c : checksums) out << "0x" << c << "ULL, ";
  return out.str();
}

TEST(ShardBuildTest, SerialBuildMatchesPinnedChecksums) {
  const auto actual = SkitterChecksums(4, 1, "shard_pin_serial");
  EXPECT_EQ(actual, kSerialChecksums4) << "actual {" << Hex(actual) << "}";
}

TEST(ShardBuildTest, ParallelBuildMatchesPinnedChecksumsAtAnyWorkerCount) {
  for (int threads : {0, 2, 8}) {
    const auto actual = SkitterChecksums(
        4, threads, "shard_pin_parallel_" + std::to_string(threads));
    EXPECT_EQ(actual, kParallelChecksums4)
        << threads << " threads: actual {" << Hex(actual) << "}";
  }
}

TEST(ShardBuildTest, MoreShardsThanWorkersMatchesPinnedChecksums) {
  // 8 shards on a 2-worker pool: shards queue for the pool's workers
  // instead of all building at once, and the bytes must not notice.
  const auto actual = SkitterChecksums(8, 2, "shard_pin_queued");
  EXPECT_EQ(actual, kParallelChecksums8) << "actual {" << Hex(actual) << "}";
}

}  // namespace
}  // namespace pegasus::shard
