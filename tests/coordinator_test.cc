// Coordinator tests: the sharded serving stack end to end over real
// loopback sockets. The load-bearing pins:
//
//   * 1-shard byte-identity — a coordinator over a single-shard manifest
//     of the query-golden summary reproduces the checked-in golden hash
//     for all seven query families (tests/test_util.h), i.e. sharded
//     serving at N=1 is indistinguishable from `pegasus serve`.
//   * Merge determinism — multi-shard answers are byte-identical across
//     worker thread counts, repeated batches, and fresh connections.
//   * Merge correctness — the scatter-gather answer equals an in-process
//     recomputation: owner's bytes for node-local families, ownership-
//     stitched scores for scored families.
//   * Routing — node-local requests touch only the owning shard.
//   * One fleet epoch — a batch whose shards answered from different
//     epochs is rejected, naming each shard's epoch.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/binary_summary_io.h"
#include "src/query/summary_view.h"
#include "src/serve/query_service.h"
#include "src/shard/coordinator.h"
#include "src/shard/manifest.h"
#include "src/shard/shard_build.h"
#include "src/shard/worker.h"
#include "src/util/status.h"
#include "tests/test_util.h"

namespace pegasus::shard {
namespace {

using ::pegasus::testing::HashQueryResult;
using ::pegasus::testing::QueryGoldenCases;
using ::pegasus::testing::QueryGoldenGraph;
using ::pegasus::testing::WriteGoldenSingleShard;

std::vector<QueryRequest> GoldenBatch() {
  std::vector<QueryRequest> requests;
  for (const auto& c : QueryGoldenCases()) requests.push_back(c.request);
  return requests;
}

// One in-process worker fleet + coordinator over a manifest on disk.
struct Fleet {
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::unique_ptr<Coordinator> coordinator;
};

StatusOr<Fleet> StartFleet(const std::string& manifest_path,
                           const std::vector<int>& worker_threads) {
  auto manifest = LoadManifest(manifest_path);
  if (!manifest) return manifest.status();
  Fleet fleet;
  std::vector<uint16_t> ports;
  for (uint32_t s = 0; s < manifest->num_shards; ++s) {
    ShardWorker::Options options;
    options.service.num_threads =
        worker_threads.empty() ? 1 : worker_threads[s % worker_threads.size()];
    auto worker = ShardWorker::Start(manifest_path, s, options);
    if (!worker) return worker.status();
    ports.push_back((*worker)->port());
    fleet.workers.push_back(std::move(*worker));
  }
  auto coordinator = Coordinator::Connect(*std::move(manifest), ports);
  if (!coordinator) return coordinator.status();
  fleet.coordinator = std::move(*coordinator);
  return fleet;
}

// The multi-shard fixture: a 3-shard random-partitioned build of the
// golden graph, written once per process and shared by the multi-shard
// tests. The directory is pid-suffixed because gtest_discover_tests runs
// every TEST() as its own ctest entry (own process), and `ctest -j` can
// run two of them concurrently — a shared directory would let one
// process checksum a shard PSB while another is still writing it.
const std::string& MultiShardManifestPath() {
  static const std::string path = [] {
    const std::string dir = ::testing::TempDir() + "/coord_multi_" +
                            std::to_string(::getpid());
    ShardBuildOptions options;
    options.num_shards = 3;
    options.partitioner = PartitionerKind::kRandom;
    options.ratio = 0.4;
    options.config.seed = 7;
    auto result = ShardBuild(QueryGoldenGraph(), dir, options);
    return result ? result->manifest_path : std::string();
  }();
  return path;
}

TEST(CoordinatorTest, SingleShardReproducesGoldenHashes) {
  const std::string manifest_path =
      WriteGoldenSingleShard("coord_golden_single");
  ASSERT_FALSE(manifest_path.empty());
  auto fleet = StartFleet(manifest_path, {2});
  ASSERT_TRUE(fleet) << fleet.status().ToString();

  // All twelve cases in one batch: every family crosses the wire, and
  // each answer's hash must equal the checked-in single-view golden.
  auto batch = fleet->coordinator->Answer(GoldenBatch());
  ASSERT_TRUE(batch) << batch.status().ToString();
  const auto cases = QueryGoldenCases();
  ASSERT_EQ(batch->results.size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(HashQueryResult(batch->results[i]), cases[i].hash)
        << cases[i].name;
  }

  // And one-request batches agree with the big batch.
  for (const auto& c : QueryGoldenCases()) {
    auto one = fleet->coordinator->Answer({c.request});
    ASSERT_TRUE(one) << c.name;
    ASSERT_EQ(one->results.size(), 1u);
    EXPECT_EQ(HashQueryResult(one->results[0]), c.hash) << c.name;
  }
}

TEST(CoordinatorTest, MultiShardAnswersAreInvariantToWorkersAndRepeats) {
  const std::string& manifest_path = MultiShardManifestPath();
  ASSERT_FALSE(manifest_path.empty());

  auto fleet_a = StartFleet(manifest_path, {1, 2, 4});
  ASSERT_TRUE(fleet_a) << fleet_a.status().ToString();
  auto first = fleet_a->coordinator->Answer(GoldenBatch());
  ASSERT_TRUE(first) << first.status().ToString();

  std::vector<uint64_t> golden;
  for (const auto& r : first->results) golden.push_back(HashQueryResult(r));

  // Same coordinator, second batch (cache-warm path on the workers).
  auto again = fleet_a->coordinator->Answer(GoldenBatch());
  ASSERT_TRUE(again);
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(HashQueryResult(again->results[i]), golden[i]) << i;
  }

  // Fresh fleet with permuted thread counts: identical bytes.
  auto fleet_b = StartFleet(manifest_path, {4, 1, 2});
  ASSERT_TRUE(fleet_b) << fleet_b.status().ToString();
  auto other = fleet_b->coordinator->Answer(GoldenBatch());
  ASSERT_TRUE(other);
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(HashQueryResult(other->results[i]), golden[i]) << i;
  }
}

TEST(CoordinatorTest, MergeMatchesInProcessRecomputation) {
  const std::string& manifest_path = MultiShardManifestPath();
  ASSERT_FALSE(manifest_path.empty());
  auto manifest = LoadManifest(manifest_path);
  ASSERT_TRUE(manifest);

  // Recompute every shard's partial directly from its PSB (serial
  // service, no sockets), then apply the documented merge rule.
  const std::string dir = ManifestDir(manifest_path);
  std::vector<std::unique_ptr<QueryService>> locals;
  std::vector<QueryService::BatchResult> partials;
  for (uint32_t s = 0; s < manifest->num_shards; ++s) {
    auto summary = LoadSummaryBinary(ShardPsbPath(*manifest, dir, s));
    ASSERT_TRUE(summary) << summary.status().ToString();
    QueryService::Options options;
    options.num_threads = 1;
    locals.push_back(std::make_unique<QueryService>(*summary, options));
    auto partial = locals.back()->Answer(GoldenBatch());
    ASSERT_TRUE(partial) << partial.status().ToString();
    partials.push_back(*std::move(partial));
  }

  auto fleet = StartFleet(manifest_path, {2});
  ASSERT_TRUE(fleet) << fleet.status().ToString();
  auto batch = fleet->coordinator->Answer(GoldenBatch());
  ASSERT_TRUE(batch) << batch.status().ToString();

  const auto cases = QueryGoldenCases();
  const auto requests = GoldenBatch();
  ASSERT_EQ(batch->results.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryKind kind = requests[i].kind;
    if (kind == QueryKind::kNeighbors || kind == QueryKind::kHop) {
      // Node-local: the owner's answer, verbatim.
      const uint32_t owner = manifest->ShardOf(requests[i].node);
      EXPECT_EQ(HashQueryResult(batch->results[i]),
                HashQueryResult(partials[owner].results[i]))
          << cases[i].name;
    } else {
      // Scored: score[v] comes from v's owner.
      QueryResult expected;
      expected.kind = kind;
      expected.scores.resize(manifest->num_nodes);
      for (NodeId v = 0; v < manifest->num_nodes; ++v) {
        expected.scores[v] =
            partials[manifest->ShardOf(v)].results[i].scores[v];
      }
      EXPECT_EQ(HashQueryResult(batch->results[i]), HashQueryResult(expected))
          << cases[i].name;
    }
  }
}

TEST(CoordinatorTest, NodeLocalRequestsTouchOnlyTheOwningShard) {
  const std::string& manifest_path = MultiShardManifestPath();
  ASSERT_FALSE(manifest_path.empty());
  auto manifest = LoadManifest(manifest_path);
  ASSERT_TRUE(manifest);
  auto fleet = StartFleet(manifest_path, {1});
  ASSERT_TRUE(fleet) << fleet.status().ToString();

  QueryRequest r;
  r.kind = QueryKind::kNeighbors;
  r.node = 5;
  auto batch = fleet->coordinator->Answer({r});
  ASSERT_TRUE(batch);
  const uint32_t owner = manifest->ShardOf(5);
  for (uint32_t s = 0; s < manifest->num_shards; ++s) {
    if (s == owner) {
      EXPECT_GT(batch->shard_epochs[s], 0u) << s;
    } else {
      EXPECT_EQ(batch->shard_epochs[s], 0u) << s;  // never contacted
    }
  }

  // A scored request scatters everywhere.
  r.kind = QueryKind::kPageRank;
  r.node = 0;
  batch = fleet->coordinator->Answer({r});
  ASSERT_TRUE(batch);
  for (uint32_t s = 0; s < manifest->num_shards; ++s) {
    EXPECT_GT(batch->shard_epochs[s], 0u) << s;
  }
}

TEST(CoordinatorTest, GathersEpochsAndPerShardStats) {
  const std::string& manifest_path = MultiShardManifestPath();
  ASSERT_FALSE(manifest_path.empty());
  auto fleet = StartFleet(manifest_path, {1});
  ASSERT_TRUE(fleet) << fleet.status().ToString();

  auto epochs = fleet->coordinator->EpochText();
  ASSERT_TRUE(epochs) << epochs.status().ToString();
  // Workers publish once.
  EXPECT_EQ(*epochs, "shard 0 epoch 1\nshard 1 epoch 1\nshard 2 epoch 1\n");

  auto stats = fleet->coordinator->StatsText();
  ASSERT_TRUE(stats) << stats.status().ToString();
  EXPECT_NE(stats->find("shard 0\nepoch 1 "), std::string::npos);
  EXPECT_NE(stats->find("shard 1\nepoch 1 "), std::string::npos);
  EXPECT_NE(stats->find("shard 2\nepoch 1 "), std::string::npos);
}

TEST(CoordinatorTest, RejectsBatchesAcrossMixedEpochs) {
  const std::string dir = ::testing::TempDir() + "/coord_two_" +
                          std::to_string(::getpid());
  ShardBuildOptions options;
  options.num_shards = 2;
  options.partitioner = PartitionerKind::kRandom;
  options.ratio = 0.4;
  options.config.seed = 7;
  auto built = ShardBuild(QueryGoldenGraph(), dir, options);
  ASSERT_TRUE(built) << built.status().ToString();
  auto fleet = StartFleet(built->manifest_path, {1});
  ASSERT_TRUE(fleet) << fleet.status().ToString();
  Coordinator& coordinator = *fleet->coordinator;

  const auto republish = [&](uint32_t s) {
    QueryService& service = fleet->workers[s]->service();
    return service.Publish(service.view());
  };
  ASSERT_EQ(republish(1), 2u);

  QueryRequest rwr;
  rwr.kind = QueryKind::kRwr;
  rwr.node = 3;
  auto mixed = coordinator.Answer({rwr});
  ASSERT_FALSE(mixed);
  EXPECT_EQ(mixed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mixed.status().message().find("shard 0 epoch 1"),
            std::string::npos)
      << mixed.status().ToString();
  EXPECT_NE(mixed.status().message().find("shard 1 epoch 2"),
            std::string::npos)
      << mixed.status().ToString();
  EXPECT_FALSE(coordinator.AnswerText({rwr}, 10));

  NodeId owned_by_0 = 0;
  while (built->manifest.ShardOf(owned_by_0) != 0) ++owned_by_0;
  QueryRequest neighbors;
  neighbors.kind = QueryKind::kNeighbors;
  neighbors.node = owned_by_0;
  auto local = coordinator.Answer({neighbors});
  ASSERT_TRUE(local) << local.status().ToString();
  EXPECT_EQ(local->epoch, 1u);

  ASSERT_EQ(republish(0), 2u);
  auto converged = coordinator.Answer({rwr});
  ASSERT_TRUE(converged) << converged.status().ToString();
  EXPECT_EQ(converged->epoch, 2u);
  EXPECT_EQ(converged->shard_epochs, (std::vector<uint64_t>{2, 2}));
  auto text = coordinator.AnswerText({rwr}, 10);
  ASSERT_TRUE(text) << text.status().ToString();
  EXPECT_TRUE(text->ends_with("\nepoch 2\n")) << *text;
}

TEST(CoordinatorTest, RejectsBadConfigurations) {
  const std::string& manifest_path = MultiShardManifestPath();
  ASSERT_FALSE(manifest_path.empty());
  auto manifest = LoadManifest(manifest_path);
  ASSERT_TRUE(manifest);

  // Port count must match the shard count.
  auto short_fleet = Coordinator::Connect(*manifest, {1});
  EXPECT_EQ(short_fleet.status().code(), StatusCode::kInvalidArgument);

  // Bad shard index on the worker side.
  EXPECT_EQ(ShardWorker::Start(manifest_path, 99).status().code(),
            StatusCode::kOutOfRange);

  // Out-of-range node surfaces as the canonicalizer's error before
  // anything is sent to a worker.
  auto fleet = StartFleet(manifest_path, {1});
  ASSERT_TRUE(fleet) << fleet.status().ToString();
  QueryRequest r;
  r.kind = QueryKind::kNeighbors;
  r.node = 1000000;
  auto bad = fleet->coordinator->Answer({r});
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);

  // An empty batch is a no-op, not an error.
  auto empty = fleet->coordinator->Answer({});
  ASSERT_TRUE(empty);
  EXPECT_TRUE(empty->results.empty());
}

}  // namespace
}  // namespace pegasus::shard
