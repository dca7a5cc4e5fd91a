#include "src/shard/shard_build.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "src/core/binary_summary_io.h"
#include "src/partition/label_propagation.h"
#include "src/partition/louvain.h"
#include "src/partition/multilevel.h"
#include "src/partition/random_partition.h"
#include "src/partition/social_hash.h"
#include "src/query/summary_view.h"
#include "src/util/memory.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace pegasus::shard {

namespace {

std::string ShardFileName(uint32_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%03u.psb", i);
  return name;
}

// mkdir that tolerates an existing directory (one level only; a missing
// parent is a caller error and surfaces as kDataLoss here).
Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::Ok();
  }
  return Status::DataLoss("cannot create directory " + path);
}

// Summarizes every part of `partition` and hands machine i's summary to
// sink(i, summary). The machines run as tasks on ONE executor of
// config.num_threads workers, and each machine's engine nests its rounds
// on that same executor (internal::SummarizeGraphOn): a machine is one
// task, and the executor admits at most num_workers() participants per
// job, so at most that many machines (and their summaries) are in memory
// at once. At 1 thread the executor runs inline, so the machines run one
// after another in machine order, each on the serial engine. Sinks run
// inside the machine's task, so they must only write state indexed by i.
// The summaries do not depend on the schedule — the parallel engine's
// output does not depend on the worker count — and the error returned is
// the lowest-numbered machine's: a summarizer error prefixed with the
// machine, or the sink's.
Status ForEachShardSummary(
    const Graph& graph, const Partition& partition, double budget_bits,
    const PegasusConfig& config,
    const std::function<Status(uint32_t, SummaryGraph)>& sink) {
  if (partition.part_of.size() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "partition covers " + std::to_string(partition.part_of.size()) +
        " nodes, graph has " + std::to_string(graph.num_nodes()));
  }
  const auto parts = partition.Parts();
  // Alg. 3 lines 1-4: machine i summarizes the WHOLE graph personalized
  // to its own node set, with an independent seed stream. The seed
  // schedule and the error prefix are load-bearing compatibility: the
  // in-process SummaryCluster delegates here and its goldens pin both.
  Executor pool(config.num_threads);
  auto build = [&](uint32_t i) -> Status {
    PegasusConfig machine_config = config;
    machine_config.seed = SplitMix64(config.seed + i + 1);
    auto machine = internal::SummarizeGraphOn(pool, graph, parts[i],
                                              budget_bits, machine_config);
    if (!machine) {
      return Status(machine.status().code(),
                    "machine " + std::to_string(i) + ": " +
                        machine.status().message());
    }
    return sink(i, std::move(*machine).summary);
  };
  const auto m = static_cast<uint32_t>(parts.size());
  std::vector<Status> status(m);
  pool.ParallelFor(m, /*grain=*/1, [&](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      status[i] = build(static_cast<uint32_t>(i));
    }
  });
  for (Status& s : status) {
    if (!s) return std::move(s);
  }
  return Status::Ok();
}

}  // namespace

const char* PartitionerName(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kLouvain:
      return "louvain";
    case PartitionerKind::kBlp:
      return "blp";
    case PartitionerKind::kMultilevel:
      return "multilevel";
    case PartitionerKind::kShpI:
      return "shp-i";
    case PartitionerKind::kShpII:
      return "shp-ii";
    case PartitionerKind::kShpKL:
      return "shp-kl";
    case PartitionerKind::kRandom:
      return "random";
  }
  return "unknown";
}

std::optional<PartitionerKind> ParsePartitionerKind(const std::string& name) {
  for (PartitionerKind kind :
       {PartitionerKind::kLouvain, PartitionerKind::kBlp,
        PartitionerKind::kMultilevel, PartitionerKind::kShpI,
        PartitionerKind::kShpII, PartitionerKind::kShpKL,
        PartitionerKind::kRandom}) {
    if (name == PartitionerName(kind)) return kind;
  }
  return std::nullopt;
}

std::string PartitionerList() {
  std::string out;
  for (PartitionerKind kind :
       {PartitionerKind::kLouvain, PartitionerKind::kBlp,
        PartitionerKind::kMultilevel, PartitionerKind::kShpI,
        PartitionerKind::kShpII, PartitionerKind::kShpKL,
        PartitionerKind::kRandom}) {
    if (!out.empty()) out += ", ";
    out += PartitionerName(kind);
  }
  return out;
}

Partition RunPartitioner(const Graph& graph, uint32_t num_parts,
                         PartitionerKind kind, uint64_t seed) {
  switch (kind) {
    case PartitionerKind::kLouvain: {
      LouvainConfig config;
      config.seed = seed;
      return LouvainPartition(graph, num_parts, config);
    }
    case PartitionerKind::kBlp: {
      BlpConfig config;
      config.seed = seed;
      return BlpPartition(graph, num_parts, config);
    }
    case PartitionerKind::kMultilevel: {
      MultilevelConfig config;
      config.seed = seed;
      return MultilevelPartition(graph, num_parts, config);
    }
    case PartitionerKind::kShpI:
    case PartitionerKind::kShpII:
    case PartitionerKind::kShpKL: {
      ShpConfig config;
      config.seed = seed;
      const ShpVariant variant = kind == PartitionerKind::kShpI
                                     ? ShpVariant::kI
                                     : kind == PartitionerKind::kShpII
                                           ? ShpVariant::kII
                                           : ShpVariant::kKL;
      return ShpPartition(graph, num_parts, variant, config);
    }
    case PartitionerKind::kRandom:
      return RandomPartition(graph.num_nodes(), num_parts, seed);
  }
  return {};
}

StatusOr<std::vector<SummaryGraph>> BuildShardSummaries(
    const Graph& graph, const Partition& partition,
    double budget_bits_per_shard, const PegasusConfig& config) {
  std::vector<SummaryGraph> summaries(partition.num_parts);
  if (Status s = ForEachShardSummary(graph, partition, budget_bits_per_shard,
                                     config,
                                     [&](uint32_t i, SummaryGraph summary) {
                                       summaries[i] = std::move(summary);
                                       return Status::Ok();
                                     });
      !s) {
    return s;
  }
  return summaries;
}

StatusOr<ShardBuildResult> ShardBuild(const Graph& graph,
                                      const std::string& out_dir,
                                      const ShardBuildOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("shard build needs at least one shard");
  }
  if (graph.num_nodes() < options.num_shards) {
    return Status::InvalidArgument(
        "cannot split " + std::to_string(graph.num_nodes()) +
        " nodes into " + std::to_string(options.num_shards) + " shards");
  }
  if (!(options.ratio > 0.0) || options.ratio > 1.0) {
    return Status::InvalidArgument("budget ratio must be in (0, 1], got " +
                                   std::to_string(options.ratio));
  }
  Timer timer;
  ShardBuildResult result;
  if (options.num_shards == 1) {
    // Trivial layout; skipping the partitioner keeps the 1-shard build
    // independent of the partitioner choice (and of its seed).
    result.partition.part_of.assign(graph.num_nodes(), 0);
    result.partition.num_parts = 1;
  } else {
    result.partition = RunPartitioner(graph, options.num_shards,
                                      options.partitioner,
                                      options.config.seed);
  }
  if (!result.partition.Valid(graph.num_nodes()) ||
      result.partition.num_parts != options.num_shards) {
    return Status::Internal(std::string("partitioner ") +
                            PartitionerName(options.partitioner) +
                            " produced an invalid " +
                            std::to_string(options.num_shards) +
                            "-way partition");
  }
  if (Status s = EnsureDir(out_dir); !s) return s;
  ShardManifest& manifest = result.manifest;
  manifest.num_shards = options.num_shards;
  manifest.num_nodes = graph.num_nodes();
  manifest.partitioner = PartitionerName(options.partitioner);
  manifest.node_shard = result.partition.part_of;
  manifest.shards.resize(options.num_shards);
  result.shard_supernodes.resize(options.num_shards);
  PsbWriteOptions write_options;
  write_options.compact = options.compact;
  // Each machine's summary is written (view, PSB image, checksum) inside
  // its own build task and dropped there, so no more summaries are live
  // than machines are building.
  auto write_shard = [&](uint32_t i, SummaryGraph summary) -> Status {
    result.shard_supernodes[i] = summary.num_supernodes();
    const std::string rel = ShardFileName(i);
    const std::string path = out_dir + "/" + rel;
    const SummaryView view(summary);
    if (Status s = SaveSummaryBinary(view.layout(), path, write_options);
        !s) {
      return Status(s.code(),
                    "shard " + std::to_string(i) + ": " + s.message());
    }
    auto checksum = ChecksumFile(path);
    if (!checksum) return checksum.status();
    manifest.shards[i] = ShardEntry{rel, *checksum};
    return Status::Ok();
  };
  const Status built = ForEachShardSummary(
      graph, result.partition, options.ratio * graph.SizeInBits(),
      options.config, write_shard);
  // Each machine task allocates from its executor thread's malloc arena,
  // whose free pages stay resident after the thread exits: without this,
  // a process that has built Skitter* small into 4 shards keeps tens of
  // MiB of dead planner state, an amount that varies with thread timing.
  ReleaseFreedMemory();
  if (!built) return built;
  result.manifest_path = out_dir + "/" + kManifestFileName;
  if (Status s = SaveManifest(manifest, result.manifest_path); !s) return s;
  result.build_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace pegasus::shard
