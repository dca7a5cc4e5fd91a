// pegasus — command-line interface to the library.
//
// Usage() below lists every command and flag (`pegasus` alone prints
// it). `summarize --threads`: 1 = serial engine, 0 = all cores.
//
// Summary arguments accept either format — the line-based text format or
// the PSB1 binary container (docs/FORMAT.md) — dispatched by the file's
// magic bytes. `query`/`serve` load PSB1 files through the mmap arena
// (src/core/summary_arena.h): no parse, no view rebuild. `convert`
// round-trips between the two formats (direction inferred from the
// input's magic; --compact writes varint/delta-encoded integer sections).
// `view` prints a PSB1 file's header and section table field-by-field in
// the spec's terms; with --validate it also verifies every section
// checksum and the structural invariants, naming the violation.
// `query` kinds (case-insensitive): neighbors, hop, rwr, php, degree,
// pagerank, clustering (the last three are whole-graph queries; the node
// argument is ignored). Query lines read "<kind> <node> [param]" for
// node-level kinds, "<kind> [param]" for whole-graph kinds, params in
// [0, 1), '#' comments. Both query modes run through a process-resident
// QueryService (src/serve/query_service.h); `--queries` prints exactly
// the socket reply body for the file's batch.
//
// `serve` runs the one stdin loop of src/serve/text_serving.h
// (ServeTextLoop: query lines accumulate, a blank line or EOF answers
// them, directives `publish <path>`, `epoch`, `stats`, rejections on
// stderr with "stdin:<line>:" context) over a serve::Frontend: the
// QueryService of one summary, or with `--shards <manifest>` the
// scatter-gather Coordinator over a fleet, against `--workers p1,p2,...`
// (one port per shard, in shard order) or in-process workers it starts.
// Each batch's stdout is the socket reply body; its timing line goes to
// stderr. With --port P, single-summary `serve` also listens on
// 127.0.0.1:P (0 = ephemeral, reported as "listening on
// 127.0.0.1:<port>") speaking src/serve/wire.h on the same service;
// stdin EOF stops the listener and exits. `shard-build` writes one PSB1
// file per shard plus manifest.psm; `shard-worker` serves one shard over
// a loopback socket (checksum-verified, mmap-served) until stdin EOF.
// Integer arguments (--targets, --workers, a shard index, a query node)
// are strict: a malformed or out-of-range entry is a usage error.
// Exit code 0 on success, 1 on usage errors, 2 on I/O errors.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/binary_summary_io.h"
#include "src/core/corrections.h"
#include "src/core/lossless.h"
#include "src/core/pegasus.h"
#include "src/core/personal_weights.h"
#include "src/core/psb_format.h"
#include "src/core/summary_io.h"
#include "src/eval/error_eval.h"
#include "src/graph/diameter.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/query/query_engine.h"
#include "src/query/summary_view.h"
#include "src/serve/query_service.h"
#include "src/serve/server.h"
#include "src/serve/text_serving.h"
#include "src/shard/coordinator.h"
#include "src/shard/manifest.h"
#include "src/shard/shard_build.h"
#include "src/shard/worker.h"
#include "src/util/status.h"

namespace pegasus::cli {
namespace {

// ---------------------------------------------------------------------------
// Minimal flag parsing: positional args plus "--key value" pairs.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  std::optional<std::string> Flag(const std::string& key) const {
    for (const auto& [k, v] : flags) {
      if (k == key) return v;
    }
    return std::nullopt;
  }
  double FlagDouble(const std::string& key, double fallback) const {
    auto v = Flag(key);
    return v ? std::atof(v->c_str()) : fallback;
  }
  int64_t FlagInt(const std::string& key, int64_t fallback) const {
    auto v = Flag(key);
    return v ? std::atoll(v->c_str()) : fallback;
  }
};

// Boolean switches that take no value (everything else is --key value).
bool IsBareFlag(const std::string& arg) {
  return arg == "--validate" || arg == "--compact";
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0 && IsBareFlag(a)) {
      args.flags.emplace_back(a.substr(2), "1");
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args.flags.emplace_back(a.substr(2), argv[++i]);
    } else {
      args.positional.push_back(std::move(a));
    }
  }
  return args;
}

// `text` as a decimal integer in [0, max] (no sign, spaces or trailing
// characters), or a usage error on stderr naming `what` and the entry.
std::optional<uint64_t> UintArg(const char* what, const std::string& text,
                                uint64_t max) {
  uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end || value > max) {
    std::fprintf(stderr, "error: %s: bad entry '%s' (want an integer in "
                 "[0, %llu])\n", what, text.c_str(),
                 static_cast<unsigned long long>(max));
    return std::nullopt;
  }
  return value;
}

// A comma-separated list of UintArg integers; the first malformed, empty
// or out-of-range entry is a usage error naming it.
template <typename T>
std::optional<std::vector<T>> UintListArg(const char* what,
                                          const std::string& csv) {
  std::vector<T> out;
  size_t begin = 0;
  for (;;) {
    const size_t end = std::min(csv.find(',', begin), csv.size());
    const auto value = UintArg(what, csv.substr(begin, end - begin),
                               std::numeric_limits<T>::max());
    if (!value) return std::nullopt;
    out.push_back(static_cast<T>(*value));
    if (end == csv.size()) return out;
    begin = end + 1;
  }
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  pegasus stats     <edgelist>\n"
      "  pegasus generate  <ba|ws|er|grid|community-ring> <out.txt>"
      " [--nodes N] [--seed S]\n"
      "  pegasus summarize <edgelist> <out.summary> [--ratio R]"
      " [--alpha A] [--beta B] [--tmax T] [--seed S] [--targets a,b,c]"
      " [--threads N]\n"
      "  pegasus query     <summary> <neighbors|hop|rwr|php|degree|"
      "pagerank|clustering> <node> [--top K]\n"
      "  pegasus query     <summary> --queries <file> [--threads N]"
      " [--top K]\n"
      "  pegasus serve     <summary> [--threads N] [--top K] [--port P]\n"
      "  pegasus evaluate  <edgelist> <summary> [--alpha A]"
      " [--targets a,b,c]\n"
      "  pegasus compress  <edgelist> <out.summary> [--tmax T] [--seed S]\n"
      "  pegasus view      <file.psb> [--validate]\n"
      "  pegasus convert   <in> <out> [--compact]   (text <-> psb1 by"
      " magic)\n"
      "  pegasus shard-build  <edgelist> <outdir> [--shards N]"
      " [--partitioner P] [--ratio R] [--alpha A] [--beta B] [--tmax T]"
      " [--seed S] [--threads N] [--compact]\n"
      "  pegasus shard-worker <manifest> <index> [--port P] [--threads N]\n"
      "  pegasus serve     --shards <manifest> [--workers p1,p2,...]"
      " [--threads N] [--top K]\n");
  return 1;
}

// Lossless compression: summary + corrections, restorable exactly.
int CmdCompress(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  auto graph = LoadEdgeList(args.positional[0]);
  if (!graph) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 2;
  }
  LosslessConfig config;
  config.max_iterations = static_cast<int>(args.FlagInt("tmax", 20));
  config.seed = static_cast<uint64_t>(args.FlagInt("seed", 0));
  auto result = LosslessSummarize(*graph, config);
  if (!SaveSummary(result.summary, args.positional[1])) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 args.positional[1].c_str());
    return 2;
  }
  std::printf("lossless: %u supernodes, %llu superedges, "
              "%zu corrections\n",
              result.summary.num_supernodes(),
              static_cast<unsigned long long>(
                  result.summary.num_superedges()),
              result.corrections.TotalCount());
  std::printf("encoding: %.0f bits = %.1f%% of the input "
              "(restorable exactly)\n",
              result.total_bits, 100.0 * result.compression_ratio);
  return 0;
}

int CmdStats(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  auto graph = LoadEdgeList(args.positional[0]);
  if (!graph) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 2;
  }
  std::printf("nodes         %u\n", graph->num_nodes());
  std::printf("edges         %llu\n",
              static_cast<unsigned long long>(graph->num_edges()));
  std::printf("mean degree   %.2f\n", graph->MeanDegree());
  std::printf("max degree    %llu\n",
              static_cast<unsigned long long>(graph->MaxDegree()));
  std::printf("size (bits)   %.0f\n", graph->SizeInBits());
  std::printf("eff. diameter %.2f\n", EffectiveDiameter(*graph));
  return 0;
}

int CmdGenerate(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const std::string& kind = args.positional[0];
  const NodeId n = static_cast<NodeId>(args.FlagInt("nodes", 10000));
  const uint64_t seed = static_cast<uint64_t>(args.FlagInt("seed", 1));
  Graph g;
  if (kind == "ba") {
    g = GenerateBarabasiAlbert(n, 3, seed);
  } else if (kind == "ws") {
    g = GenerateWattsStrogatz(n, 10, 0.01, seed);
  } else if (kind == "er") {
    g = GenerateErdosRenyi(n, static_cast<EdgeId>(n) * 5, seed);
  } else if (kind == "grid") {
    NodeId side = 1;
    while (side * side < n) ++side;
    g = GenerateGrid(side, side, 0.1, seed);
  } else if (kind == "community-ring") {
    g = GenerateCommunityRing(16, std::max<NodeId>(n / 16, 8), 3, 12, seed,
                              0.5);
  } else {
    return Usage();
  }
  if (!SaveEdgeList(g, args.positional[1])) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 args.positional[1].c_str());
    return 2;
  }
  std::printf("wrote %u nodes, %llu edges to %s\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()),
              args.positional[1].c_str());
  return 0;
}

int CmdSummarize(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  auto graph = LoadEdgeList(args.positional[0]);
  if (!graph) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 2;
  }
  PegasusConfig config;
  config.alpha = args.FlagDouble("alpha", 1.25);
  config.beta = args.FlagDouble("beta", 0.1);
  config.max_iterations = static_cast<int>(args.FlagInt("tmax", 20));
  config.seed = static_cast<uint64_t>(args.FlagInt("seed", 0));
  // 1 = historical serial engine; 0 = parallel engine on all cores;
  // N >= 2 = parallel engine with N workers (see PegasusConfig).
  config.num_threads = static_cast<int>(args.FlagInt("threads", 1));
  const double ratio = args.FlagDouble("ratio", 0.5);
  std::vector<NodeId> targets;
  if (auto t = args.Flag("targets")) {
    auto parsed = UintListArg<NodeId>("--targets", *t);
    if (!parsed) return 1;
    targets = *std::move(parsed);
  }

  // Flags are untrusted input: surface the typed validation error
  // (bad ratio/alpha/beta/tmax/threads/targets) instead of dereferencing.
  auto summarized = SummarizeGraphToRatio(*graph, targets, ratio, config);
  if (!summarized) {
    std::fprintf(stderr, "error: %s\n",
                 summarized.status().ToString().c_str());
    return 1;
  }
  auto result = *std::move(summarized);
  if (!SaveSummary(result.summary, args.positional[1])) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 args.positional[1].c_str());
    return 2;
  }
  std::printf("summarized in %.2fs: %u supernodes, %llu superedges\n",
              result.elapsed_seconds, result.summary.num_supernodes(),
              static_cast<unsigned long long>(
                  result.summary.num_superedges()));
  std::printf("size: %.0f bits (%.1f%% of input)\n", result.final_size_bits,
              100.0 * CompressionRatio(*graph, result.summary));
  return 0;
}

// Batch mode: the whole file is one batch, answered through the service;
// stdout is exactly the socket reply body for the same text.
int RunQueryBatch(QueryService& service, const std::string& queries_path,
                  size_t top) {
  std::ifstream in(queries_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot load %s\n", queries_path.c_str());
    return 2;
  }
  std::stringstream text;
  text << in.rdbuf();
  auto requests =
      serve::ParseBatchText(text.str(), service.view()->num_nodes());
  if (!requests) {
    std::fprintf(stderr, "error: %s: %s\n", queries_path.c_str(),
                 requests.status().ToString().c_str());
    return 1;
  }
  if (Status s = serve::AnswerBatchText(service, *requests, top, std::cout,
                                        std::cerr);
      !s) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdQuery(const Args& args) {
  const bool batch = args.Flag("queries").has_value();
  if (batch ? args.positional.size() != 1 : args.positional.size() != 3) {
    return Usage();
  }
  // Text or PSB1, by magic; .psb files serve straight off the mmap arena.
  auto view = serve::LoadServingView(args.positional[0]);
  if (!view) {
    std::fprintf(stderr, "error: %s\n", view.status().ToString().c_str());
    return 2;
  }
  const size_t top = static_cast<size_t>(args.FlagInt("top", 10));

  QueryService::Options options;
  // Single-shot queries need no fan-out; batch mode defaults to all
  // cores.
  options.num_threads =
      batch ? static_cast<int>(args.FlagInt("threads", 0)) : 1;
  QueryService service(options);
  service.Publish(*std::move(view));

  if (batch) return RunQueryBatch(service, *args.Flag("queries"), top);

  const auto kind = ParseQueryKind(args.positional[1]);
  if (!kind) {
    std::fprintf(stderr, "error: unknown query kind '%s'; valid kinds: %s\n",
                 args.positional[1].c_str(), QueryKindList().c_str());
    return 1;
  }
  QueryRequest request;
  request.kind = *kind;
  if (IsNodeQuery(*kind)) {
    const auto node = UintArg("node", args.positional[2],
                              std::numeric_limits<NodeId>::max());
    if (!node) return 1;
    request.node = static_cast<NodeId>(*node);
  }
  const auto result = service.AnswerOne(request);
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::fputs(serve::FormatAnswer(request, *result, top).c_str(), stdout);
  return 0;
}

// Resident serving: the shared stdin loop (serve::ServeTextLoop) over one
// summary, plus the socket front end with --port.
int CmdServe(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  // Text or PSB1, by magic; a .psb summary mmaps in with no parse, so
  // cold start to first answer is independent of summary size.
  auto view = serve::LoadServingView(args.positional[0]);
  if (!view) {
    std::fprintf(stderr, "error: %s\n", view.status().ToString().c_str());
    return 2;
  }
  QueryService service(
      {.num_threads = static_cast<int>(args.FlagInt("threads", 0))});
  service.Publish(*std::move(view));
  const size_t top = static_cast<size_t>(args.FlagInt("top", 10));
  std::printf("serving %s: epoch %llu, %d threads (blank line answers the "
              "pending batch; directives: publish <path>, epoch, stats)\n",
              args.positional[0].c_str(),
              static_cast<unsigned long long>(service.epoch()),
              service.num_workers());

  // --port mounts the socket front end on the same service; the stdin
  // loop keeps running as a local client, and its EOF is what stops the
  // listener. The listener's connection lines are on its own `stats`
  // reply (kStats), not on stdin's.
  std::optional<serve::Server> server;
  if (const int64_t port = args.FlagInt("port", -1); port >= 0) {
    if (port > 65535) {
      std::fprintf(stderr, "error: --port must be in [0, 65535]\n");
      return 1;
    }
    server.emplace(service, serve::Server::Options{
                                .port = static_cast<uint16_t>(port),
                                .top = top});
    if (Status s = server->Start(); !s) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 2;
    }
    // Parse-friendly: with --port 0 this line is how a client learns the
    // ephemeral port (see tools/serve_smoke.py).
    std::printf("listening on 127.0.0.1:%u\n", server->port());
  }
  std::fflush(stdout);
  serve::ServeTextLoop(service, top, std::cin, std::cout, std::cerr);
  return 0;
}

// ---------------------------------------------------------------------------
// Sharded serving (src/shard).

int CmdShardBuild(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  auto graph = LoadEdgeList(args.positional[0]);
  if (!graph) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 2;
  }
  shard::ShardBuildOptions options;
  options.num_shards = static_cast<uint32_t>(args.FlagInt("shards", 1));
  const std::string partitioner_name =
      args.Flag("partitioner").value_or("louvain");
  if (auto kind = shard::ParsePartitionerKind(partitioner_name)) {
    options.partitioner = *kind;
  } else {
    std::fprintf(stderr, "error: unknown partitioner '%s'; valid: %s\n",
                 partitioner_name.c_str(),
                 shard::PartitionerList().c_str());
    return 1;
  }
  options.ratio = args.FlagDouble("ratio", 0.5);
  options.config.alpha = args.FlagDouble("alpha", 1.25);
  options.config.beta = args.FlagDouble("beta", 0.1);
  options.config.max_iterations = static_cast<int>(args.FlagInt("tmax", 20));
  options.config.seed = static_cast<uint64_t>(args.FlagInt("seed", 0));
  options.config.num_threads = static_cast<int>(args.FlagInt("threads", 0));
  options.compact = args.Flag("compact").has_value();
  auto result = shard::ShardBuild(*graph, args.positional[1], options);
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 2;
  }
  std::printf("built %u shard(s) of %u nodes with %s in %.2fs\n",
              result->manifest.num_shards, result->manifest.num_nodes,
              result->manifest.partitioner.c_str(), result->build_seconds);
  for (uint32_t i = 0; i < result->manifest.num_shards; ++i) {
    std::printf("shard %u: %s (%u supernodes, checksum %016llx)\n", i,
                result->manifest.shards[i].psb_path.c_str(),
                result->shard_supernodes[i],
                static_cast<unsigned long long>(
                    result->manifest.shards[i].checksum));
  }
  std::printf("manifest: %s\n", result->manifest_path.c_str());
  return 0;
}

int CmdShardWorker(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const auto parsed_index = UintArg("shard index", args.positional[1],
                                   std::numeric_limits<uint32_t>::max());
  if (!parsed_index) return 1;
  const uint32_t index = static_cast<uint32_t>(*parsed_index);
  shard::ShardWorker::Options options;
  const int64_t port = args.FlagInt("port", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "error: --port must be in [0, 65535]\n");
    return 1;
  }
  options.port = static_cast<uint16_t>(port);
  options.service.num_threads = static_cast<int>(args.FlagInt("threads", 0));
  auto worker = shard::ShardWorker::Start(args.positional[0], index, options);
  if (!worker) {
    std::fprintf(stderr, "error: %s\n", worker.status().ToString().c_str());
    return 2;
  }
  std::printf("shard %u of %u: %s\n", index,
              (*worker)->manifest().num_shards,
              (*worker)->manifest().shards[index].psb_path.c_str());
  // Same parse-friendly line as `serve --port`: a supervisor (the
  // coordinator CLI, tools/shard_smoke.py) reads the ephemeral port here.
  std::printf("listening on 127.0.0.1:%u\n", (*worker)->port());
  std::fflush(stdout);
  // Serve until stdin closes, mirroring `serve`: the worker is meant to
  // run as a supervised co-process, and EOF is the shutdown signal.
  std::string line;
  while (std::getline(std::cin, line)) {
  }
  return 0;
}

int CmdServeShards(const Args& args) {
  if (!args.positional.empty()) return Usage();
  if (args.Flag("port")) {
    std::fprintf(stderr, "error: serve --shards has no socket front end; "
                 "--port applies to `serve <summary>`\n");
    return 1;
  }
  const std::string manifest_path = *args.Flag("shards");
  auto manifest = shard::LoadManifest(manifest_path);
  if (!manifest) {
    std::fprintf(stderr, "error: %s\n", manifest.status().ToString().c_str());
    return 2;
  }
  const size_t top = static_cast<size_t>(args.FlagInt("top", 10));

  // Either connect to an already-running fleet (--workers, one loopback
  // port per shard in shard order) or start the workers in this process
  // on ephemeral ports. Both paths serve through the same sockets, so
  // answers are byte-identical; in-process is the one-command mode,
  // multi-process is what tools/shard_smoke.py drives.
  std::vector<std::unique_ptr<shard::ShardWorker>> local_workers;
  std::vector<uint16_t> ports;
  if (auto csv = args.Flag("workers")) {
    auto parsed = UintListArg<uint16_t>("--workers", *csv);
    if (!parsed) return 1;
    ports = *std::move(parsed);
  } else {
    shard::ShardWorker::Options options;
    options.service.num_threads =
        static_cast<int>(args.FlagInt("threads", 0));
    for (uint32_t i = 0; i < manifest->num_shards; ++i) {
      auto worker = shard::ShardWorker::Start(manifest_path, i, options);
      if (!worker) {
        std::fprintf(stderr, "error: shard %u: %s\n", i,
                     worker.status().ToString().c_str());
        return 2;
      }
      ports.push_back((*worker)->port());
      local_workers.push_back(*std::move(worker));
    }
  }
  auto coordinator = shard::Coordinator::Connect(*std::move(manifest), ports);
  if (!coordinator) {
    std::fprintf(stderr, "error: %s\n",
                 coordinator.status().ToString().c_str());
    return 2;
  }
  std::printf("serving %u shard(s) from %s (%s workers; blank line answers "
              "the pending batch; directives: epoch, stats)\n",
              (*coordinator)->num_shards(), manifest_path.c_str(),
              local_workers.empty() ? "external" : "in-process");
  std::fflush(stdout);
  serve::ServeTextLoop(**coordinator, top, std::cin, std::cout, std::cerr);
  return 0;
}

int CmdEvaluate(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  auto graph = LoadEdgeList(args.positional[0]);
  auto summary = LoadSummary(args.positional[1]);
  if (!graph || !summary) {
    const Status& bad = !graph ? graph.status() : summary.status();
    std::fprintf(stderr, "error: %s\n", bad.ToString().c_str());
    return 2;
  }
  if (summary->num_nodes() != graph->num_nodes()) {
    std::fprintf(stderr, "error: summary has %u nodes, graph has %u\n",
                 summary->num_nodes(), graph->num_nodes());
    return 1;
  }
  const double alpha = args.FlagDouble("alpha", 1.25);
  std::vector<NodeId> targets;
  if (auto t = args.Flag("targets")) {
    auto parsed = UintListArg<NodeId>("--targets", *t);
    if (!parsed) return 1;
    targets = *std::move(parsed);
  }

  auto weights = PersonalWeights::Compute(*graph, targets, alpha);
  std::printf("compression ratio      %.4f\n",
              CompressionRatio(*graph, *summary));
  std::printf("reconstruction error   %.1f\n",
              ReconstructionError(*graph, *summary));
  std::printf("personalized error     %.1f (alpha=%.2f, |T|=%zu)\n",
              PersonalizedError(*graph, *summary, weights), alpha,
              targets.size());
  auto corrections = ComputeCorrections(*graph, *summary);
  std::printf("lossless encoding      %.0f bits (%.1f%% of input; "
              "%zu corrections)\n",
              LosslessSizeInBits(*summary, corrections),
              100.0 * LosslessSizeInBits(*summary, corrections) /
                  graph->SizeInBits(),
              corrections.TotalCount());
  return 0;
}

// Dumps a PSB1 file's header and section table in the terms of the
// normative spec (docs/FORMAT.md), one field per line — the output is
// designed to be checked against the spec field-by-field. --validate
// additionally verifies every section checksum and the structural
// invariants (ValidatePsb); any violation is reported with the section
// name and the command exits 1.
int CmdView(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const std::string& path = args.positional[0];
  auto bytes = ReadFileBytes(path);
  if (!bytes) {
    std::fprintf(stderr, "error: %s\n", bytes.status().ToString().c_str());
    return 2;
  }
  auto header = psb::ParsePsbHeader(bytes->data(), bytes->size(),
                                    bytes->size(), path);
  if (!header) {
    std::fprintf(stderr, "error: %s\n", header.status().ToString().c_str());
    return 1;
  }
  std::printf("file:            %s (%zu bytes)\n", path.c_str(),
              bytes->size());
  std::printf("magic:           PSB1\n");
  std::printf("endianness:      little-endian (0x%02x)\n",
              header->endianness);
  std::printf("version:         %u\n", header->version);
  std::printf("nodes:           %llu\n",
              static_cast<unsigned long long>(header->num_nodes));
  std::printf("supernodes:      %llu\n",
              static_cast<unsigned long long>(header->num_supernodes));
  std::printf("superedges:      %llu\n",
              static_cast<unsigned long long>(header->num_superedges));
  std::printf("edge_slots:      %llu\n",
              static_cast<unsigned long long>(header->num_edge_slots));
  // ParsePsbHeader recomputed and matched this, so it prints as verified.
  std::printf("header_checksum: 0x%016llx (verified)\n",
              static_cast<unsigned long long>(header->header_checksum));
  std::printf("sections:        %u\n", psb::kSectionCount);
  std::printf(" id  %-16s %-12s %10s %10s %10s  %s\n", "name", "encoding",
              "offset", "length", "decoded", "checksum");
  for (const psb::SectionEntry& s : header->sections) {
    std::printf(" %2u  %-16s %-12s %10llu %10llu %10llu  0x%016llx\n", s.id,
                psb::SectionName(s.id),
                s.encoding ==
                        static_cast<uint32_t>(psb::SectionEncoding::kRaw)
                    ? "raw"
                    : "varint-delta",
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.length),
                static_cast<unsigned long long>(s.decoded_length),
                static_cast<unsigned long long>(s.checksum));
  }
  if (args.Flag("validate")) {
    if (Status s = ValidatePsb(bytes->data(), bytes->size(), path); !s) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("validate:        OK (section checksums, structure, and "
                "derived statistics verified)\n");
  }
  return 0;
}

// Round-trips a summary between the text format and PSB1; the direction
// is inferred from the input's magic bytes.
int CmdConvert(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const std::string& in = args.positional[0];
  const std::string& out = args.positional[1];
  const bool compact = args.Flag("compact").has_value();

  if (SniffPsbMagic(in)) {
    if (compact) {
      std::fprintf(stderr,
                   "error: --compact only applies when writing PSB1\n");
      return 1;
    }
    auto summary = LoadSummaryBinary(in);
    if (!summary) {
      std::fprintf(stderr, "error: %s\n",
                   summary.status().ToString().c_str());
      return 2;
    }
    if (!SaveSummary(*summary, out)) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 2;
    }
    std::printf("converted %s (psb1) -> %s (text): %u supernodes, "
                "%llu superedges\n",
                in.c_str(), out.c_str(), summary->num_supernodes(),
                static_cast<unsigned long long>(summary->num_superedges()));
    return 0;
  }

  auto summary = LoadSummary(in);
  if (!summary) {
    std::fprintf(stderr, "error: %s\n", summary.status().ToString().c_str());
    return 2;
  }
  // The writer takes the view's arrays: the file IS the serving layout.
  const SummaryView view(*summary);
  PsbWriteOptions opts;
  opts.compact = compact;
  if (Status s = SaveSummaryBinary(view.layout(), out, opts); !s) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  std::printf("converted %s (text) -> %s (psb1 %s): %u supernodes, "
              "%llu superedges\n",
              in.c_str(), out.c_str(), compact ? "varint-delta" : "raw",
              view.num_supernodes(),
              static_cast<unsigned long long>(view.num_superedges()));
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args = ParseArgs(argc, argv);
  if (command == "stats") return CmdStats(args);
  if (command == "generate") return CmdGenerate(args);
  if (command == "summarize") return CmdSummarize(args);
  if (command == "query") return CmdQuery(args);
  if (command == "serve") {
    // `serve --shards <manifest>` is the scatter-gather coordinator;
    // plain `serve <summary>` the single-view service.
    return args.Flag("shards") ? CmdServeShards(args) : CmdServe(args);
  }
  if (command == "evaluate") return CmdEvaluate(args);
  if (command == "shard-build") return CmdShardBuild(args);
  if (command == "shard-worker") return CmdShardWorker(args);
  if (command == "compress") return CmdCompress(args);
  if (command == "view") return CmdView(args);
  if (command == "convert") return CmdConvert(args);
  return Usage();
}

}  // namespace
}  // namespace pegasus::cli

int main(int argc, char** argv) { return pegasus::cli::Main(argc, argv); }
