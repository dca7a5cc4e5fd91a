// Shard build pipeline: partition → per-shard summaries → PSB files +
// manifest.
//
// This is the offline half of the sharded serving subsystem (Sec. IV's
// distributed application made real): any `src/partition` partitioner
// splits V into m shards, every shard gets a summary of the WHOLE graph
// personalized to its own nodes (Alg. 3 — queries on V_i stay accurate
// on machine i even at small budgets), and each summary is written as a
// mmap-servable PSB1 file next to a manifest (src/shard/manifest.h)
// recording the layout. Serving is src/shard/worker.h (one QueryService
// + socket server per shard) and src/shard/coordinator.h (deterministic
// scatter-gather over the workers).
//
// BuildShardSummaries is the ONE code path that builds per-shard
// personalized summaries — `SummaryCluster::Build` (the in-process
// accuracy harness of src/distributed) delegates here, so the simulated
// and the real distributed stacks can never drift apart.
//
// Determinism: the partitioners are seed-deterministic, shard i's
// summarizer seed derives as SplitMix64(seed + i + 1), and PSB images
// are canonical — a shard-build is a pure function of (graph, options),
// byte-for-byte, including every shard checksum in the manifest.

#ifndef PEGASUS_SHARD_SHARD_BUILD_H_
#define PEGASUS_SHARD_SHARD_BUILD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/pegasus.h"
#include "src/graph/graph.h"
#include "src/partition/partition.h"
#include "src/shard/manifest.h"
#include "src/util/status.h"

namespace pegasus::shard {

// Every src/partition method, selectable by name on the CLI.
enum class PartitionerKind {
  kLouvain,
  kBlp,
  kMultilevel,
  kShpI,
  kShpII,
  kShpKL,
  kRandom,
};

// CLI-facing names: louvain, blp, multilevel, shp-i, shp-ii, shp-kl,
// random.
const char* PartitionerName(PartitionerKind kind);
std::optional<PartitionerKind> ParsePartitionerKind(const std::string& name);
// "louvain, blp, ..." for error messages.
std::string PartitionerList();

// Runs the named partitioner with its default configuration at `seed`.
Partition RunPartitioner(const Graph& graph, uint32_t num_parts,
                         PartitionerKind kind, uint64_t seed);

// Builds one summary of `graph` per part, personalized to that part's
// nodes (machine i: targets = V_i, budget = budget_bits_per_shard, seed
// = SplitMix64(config.seed + i + 1)). The machines run on one executor
// of config.num_threads workers, which each machine's engine shares, with
// at most that many machines in flight; at 1 thread they run one after
// another on the serial engine. The summaries do not depend on the worker
// count. Errors:
// kInvalidArgument when the partition does not cover the graph, plus
// whatever the summarizer rejects, prefixed with the lowest-numbered
// failing machine.
[[nodiscard]] StatusOr<std::vector<SummaryGraph>> BuildShardSummaries(
    const Graph& graph, const Partition& partition,
    double budget_bits_per_shard, const PegasusConfig& config = {});

struct ShardBuildOptions {
  uint32_t num_shards = 1;
  PartitionerKind partitioner = PartitionerKind::kLouvain;
  // Per-shard budget as a fraction of the input graph's bits (each shard
  // summarizes the whole graph, so the budget is per shard, not split).
  double ratio = 0.5;
  // alpha/beta/seed for every shard; num_threads sizes the one executor
  // all shards build on (1 = one shard at a time, serial engine).
  PegasusConfig config;
  bool compact = false;  // varint/delta PSB sections (not mmap-servable)
};

struct ShardBuildResult {
  ShardManifest manifest;
  std::string manifest_path;  // out_dir/manifest.psm
  Partition partition;
  std::vector<uint32_t> shard_supernodes;  // per-shard summary sizes
  double build_seconds = 0.0;              // partition + summarize + write
};

// The full pipeline: partition, summarize every shard, write
// out_dir/shard_NNN.psb and out_dir/manifest.psm. `out_dir` is created
// if missing (one level). Once the machines finish, the heap pages they
// freed go back to the OS (glibc), so the build leaves no dead planner
// state resident. Errors: kInvalidArgument for bad options, summarizer
// errors per machine, kDataLoss on write failure.
[[nodiscard]] StatusOr<ShardBuildResult> ShardBuild(
    const Graph& graph, const std::string& out_dir,
    const ShardBuildOptions& options);

}  // namespace pegasus::shard

#endif  // PEGASUS_SHARD_SHARD_BUILD_H_
