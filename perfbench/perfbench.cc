// perfbench — the repo benchmark: one binary, four workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--set key=value ...]
//
// The --set pairs are the workload's entry of perfbench/workloads.json,
// flattened by perfbench/run.py; that file is the single record of every
// fixed rate, ladder, latency limit, mix, dataset and publish schedule.
// Workloads (see perfbench/README.md for why each exists):
//
//   serve-point      Server over the mmap'd Skitter* PSB, cheap point mix;
//                    its set-up is the closed-loop summarize -> PSB -> map
//                    -> publish -> first answer build path
//   serve-analytics  the same Server, rwr/php-heavy mix plus publish churn
//   shard-fanout     4 ShardWorkers behind one Coordinator per connection
//
// Every run: set-up (repeated kSetupReps times, median reported as
// setup_s), a timed open-loop rate ladder over real loopback sockets,
// then correctness checks. The last stdout line is one JSON object; with
// --trace 0 it carries the end-to-end metrics, with --trace 1 the
// per-layer ones. Exit code 1 on any answer mismatch, 2 on a set-up error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "perfbench/harness.h"
#include "src/core/binary_summary_io.h"
#include "src/core/candidate_groups.h"
#include "src/core/kernel_plan.h"
#include "src/core/pegasus.h"
#include "src/core/personal_weights.h"
#include "src/core/summary_arena.h"
#include "src/eval/metrics.h"
#include "src/graph/datasets.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"
#include "src/serve/query_service.h"
#include "src/serve/server.h"
#include "src/serve/shard_codec.h"
#include "src/serve/text_serving.h"
#include "src/serve/wire.h"
#include "src/shard/coordinator.h"
#include "src/shard/shard_build.h"
#include "src/shard/worker.h"
#include "src/util/parallel.h"

namespace perfbench {
namespace {

using pegasus::Graph;
using pegasus::QueryResult;
using pegasus::QueryService;
using pegasus::Status;
using pegasus::SummaryView;

// --- Arguments and configuration -------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
  std::map<std::string, std::string> cfg;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& s, const std::string& what) {
  if (!s) Die(what + ": " + s.ToString());
}

template <typename T>
T Take(pegasus::StatusOr<T> value, const std::string& what) {
  if (!value) Die(what + ": " + value.status().ToString());
  return *std::move(value);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
      have_seconds = args->seconds > 0;
    } else if (key == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--set") {
      const size_t eq = value.find('=');
      if (eq == std::string::npos) return false;
      args->cfg[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_seconds && have_trace && !args->workdir.empty();
}

class Config {
 public:
  explicit Config(const std::map<std::string, std::string>& kv) : kv_(kv) {}

  const std::string& Str(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) Die("workload config lacks '" + key + "'");
    return it->second;
  }
  double Num(const std::string& key) const {
    return std::atof(Str(key).c_str());
  }
  size_t Count(const std::string& key) const {
    return static_cast<size_t>(Num(key));
  }
  std::vector<double> List(const std::string& key) const {
    std::vector<double> out;
    const std::string& s = Str(key);
    size_t pos = 0;
    while (pos < s.size()) {
      size_t comma = s.find(',', pos);
      if (comma == std::string::npos) comma = s.size();
      out.push_back(std::atof(s.substr(pos, comma - pos).c_str()));
      pos = comma + 1;
    }
    return out;
  }

 private:
  const std::map<std::string, std::string>& kv_;
};

// --- Metrics output ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;    // sample count and context, printed for humans
  bool gated = true;   // carried in the result JSON
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.gated) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.12g", m.value);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string Samples(size_t n) { return "(n=" + std::to_string(n) + ")"; }

// Settings every workload shares.
constexpr size_t kSetupReps = 3;         // set-ups per run; setup_s is the median
constexpr size_t kFirstAnswerReps = 5;   // Map -> Publish -> AnswerOne per set-up
constexpr double kFixedShare = 0.5;      // of the window, at the fixed rate
constexpr size_t kSampleEvery = 16;      // 1 in N replies is byte-compared
constexpr size_t kSmapeNodes = 8;        // targets scored against exact RWR
constexpr double kReplayBudgetS = 1.0;   // per in-process replay pass
constexpr uint64_t kTargetSeed = 1;      // summary A's targets (and probes)
constexpr uint64_t kTargetSeedB = 2;     // summary B's targets (analytics)

// Generator threads = connections = coordinators, at most the 4 cores the
// workloads are sized for. The services and the summarizer use every
// core (num_threads = 0), as `pegasus serve` and `summarize` default to.
int GeneratorThreads() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

// --- Dataset and summary build ---------------------------------------------

pegasus::DatasetScale ParseScale(const std::string& name) {
  if (name == "tiny") return pegasus::DatasetScale::kTiny;
  if (name == "small") return pegasus::DatasetScale::kSmall;
  if (name == "default") return pegasus::DatasetScale::kDefault;
  if (name == "paper") return pegasus::DatasetScale::kPaper;
  Die("unknown scale '" + name + "'");
}

Graph MakeGraph(const Config& cfg) {
  if (cfg.Str("dataset") != "skitter") Die("only the skitter dataset is used");
  return pegasus::MakeDataset(pegasus::DatasetId::kSkitter,
                              ParseScale(cfg.Str("scale")))
      .graph;
}

std::vector<NodeId> SampleTargets(const Graph& graph, size_t count,
                                  uint64_t seed) {
  pegasus::Rng rng(pegasus::SplitMix64(seed));
  const auto raw = rng.SampleDistinct(
      graph.num_nodes(), std::min<uint64_t>(count, graph.num_nodes()));
  return std::vector<NodeId>(raw.begin(), raw.end());
}

pegasus::PegasusConfig SummarizerConfig() {
  pegasus::PegasusConfig config;
  config.seed = 1;
  config.num_threads = 0;
  return config;
}

// One build: edges in memory -> SummarizeGraphToRatio -> PSB1 file.
struct Build {
  double build_s = 0.0;
  double summarize_s = 0.0;
  double save_ms = 0.0;
  uint64_t psb_bytes = 0;
  int iterations = 0;
  pegasus::MergeStats merges;
  uint64_t superedges_dropped = 0;
};

Build BuildPsb(const Graph& graph, const std::vector<NodeId>& targets,
               const Config& cfg, const std::string& path) {
  Build b;
  const int64_t t0 = NowNs();
  auto result = Take(pegasus::SummarizeGraphToRatio(
                         graph, targets, cfg.Num("ratio"),
                         SummarizerConfig()),
                     "summarize");
  const int64_t t1 = NowNs();
  {
    const SummaryView view(result.summary);
    Check(pegasus::SaveSummaryBinary(view.layout(), path), "save " + path);
  }
  const int64_t t2 = NowNs();
  b.summarize_s = (t1 - t0) * 1e-9;
  b.save_ms = (t2 - t1) * 1e-6;
  b.build_s = (t2 - t0) * 1e-9;
  b.iterations = result.iterations_run;
  b.merges = result.merge_stats;
  b.superedges_dropped = result.superedges_dropped;
  b.psb_bytes = std::filesystem::file_size(path);
  return b;
}

QueryRequest RwrRequest(NodeId node) {
  QueryRequest r;
  r.kind = QueryKind::kRwr;
  r.node = node;
  return r;
}

// SummaryArena::Map -> QueryService::Publish -> first AnswerOne, in ms,
// appended to *ms once per repetition (each publish is a fresh epoch with
// an empty result cache).
void FirstAnswerMs(QueryService& service, const std::string& psb,
                   NodeId probe, size_t reps, std::vector<double>* ms) {
  for (size_t rep = 0; rep < reps; ++rep) {
    const int64_t t0 = NowNs();
    auto arena = Take(pegasus::SummaryArena::Map(psb), "map " + psb);
    service.Publish(std::make_shared<const SummaryView>(std::move(arena)));
    auto first = service.AnswerOne(RwrRequest(probe));
    if (!first) Die("first answer: " + first.status().ToString());
    ms->push_back((NowNs() - t0) * 1e-6);
  }
}

// Mean SMAPE of served RWR scores against ExactRwrScores over `nodes`.
template <typename Serve>
double RwrSmape(const Graph& graph, const std::vector<NodeId>& nodes,
                const Serve& serve) {
  double total = 0.0;
  for (NodeId q : nodes) {
    total += pegasus::Smape(pegasus::ExactRwrScores(graph, q), serve(q));
  }
  return nodes.empty() ? 0.0 : total / static_cast<double>(nodes.size());
}

// --- Socket client ----------------------------------------------------------

// Answers per query line in batch replies (the Server default).
const size_t kTop = pegasus::serve::Server::Options{}.top;

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Die("connect to port " + std::to_string(port) + " failed");
  }
  return fd;
}

class Connections {
 public:
  Connections(uint16_t port, int count) {
    for (int i = 0; i < count; ++i) fds_.push_back(ConnectLoopback(port));
  }
  ~Connections() {
    for (int fd : fds_) ::close(fd);
  }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  // One request frame, one reply frame; false on any transport error.
  bool RoundTrip(int conn, pegasus::serve::FrameType type,
                 const std::string& body, pegasus::serve::Frame* reply) {
    if (!pegasus::serve::WriteFrame(fds_[conn], type, body)) return false;
    auto frame = pegasus::serve::ReadFrame(fds_[conn]);
    if (!frame) return false;
    *reply = *std::move(frame);
    return true;
  }

 private:
  std::vector<int> fds_;
};

uint64_t ReplyEpoch(const std::string& body) {
  const size_t pos = body.rfind("epoch ");
  if (pos == std::string::npos) return 0;
  return std::strtoull(body.c_str() + pos + 6, nullptr, 10);
}

// --- Streams and the ladder -------------------------------------------------

// One rung of the ladder: pre-generated frames, bodies and publish slots.
struct Segment {
  size_t index = 0;
  double rate = 0.0;
  double duration_s = 0.0;
  bool fixed = false;  // the workload's fixed offered rate
  std::vector<Op> ops;
  std::vector<std::string> bodies;
  std::vector<int> publish;  // PSB index to publish, -1 for a batch frame
};

struct StreamSetup {
  StreamSpec spec;
  std::unique_ptr<ZipfNodes> zipf;
  double publish_every_s = 0.0;
};

StreamSetup MakeStreamSetup(const Config& cfg, NodeId num_nodes,
                            const std::vector<NodeId>& targets) {
  StreamSetup s;
  if (!ParseMix(cfg.Str("mix"), &s.spec.mix)) Die("bad mix " + cfg.Str("mix"));
  s.spec.batch16_share = cfg.Num("batch16_share");
  s.spec.target_share = cfg.Num("target_share");
  s.spec.targets = targets;
  s.zipf = std::make_unique<ZipfNodes>(num_nodes, 0x2a1f);
  s.publish_every_s = cfg.Num("publish_every_s");
  return s;
}

// The warm-up stream: `count` frames of the workload's mix, all due at
// once (they are replayed closed-loop).
std::vector<Op> WarmupStream(const StreamSetup& setup, size_t count,
                             uint64_t seed) {
  StreamSpec spec = setup.spec;
  spec.rate = 1.0;
  spec.duration_s = static_cast<double>(count);
  std::vector<Op> ops =
      GenerateStream(spec, *setup.zipf, pegasus::SplitMix64(~seed));
  for (Op& op : ops) op.at = 0.0;
  return ops;
}

// Rungs in ascending rate. The fixed rate gets fixed_share of the window,
// the other rungs split the rest evenly. Streams (and, with
// publish_every_s, publish frames alternating PSB 1, 0, 1, ... half a
// period into each period) are generated here, before any timing.
std::vector<Segment> PlanLadder(const Config& cfg, const StreamSetup& setup,
                                double window_s, uint64_t seed) {
  std::vector<double> rates = cfg.List("ladder");
  std::sort(rates.begin(), rates.end());
  const double fixed = cfg.Num("fixed_rate");
  const double fixed_share = rates.size() > 1 ? kFixedShare : 1.0;
  std::vector<Segment> rungs;
  int publish_count = 0;
  for (size_t r = 0; r < rates.size(); ++r) {
    Segment seg;
    seg.index = r;
    seg.rate = rates[r];
    seg.fixed = rates[r] == fixed;
    seg.duration_s = seg.fixed ? window_s * fixed_share
                               : window_s * (1.0 - fixed_share) /
                                     static_cast<double>(rates.size() - 1);
    StreamSpec spec = setup.spec;
    spec.rate = seg.rate;
    spec.duration_s = seg.duration_s;
    std::vector<Op> ops =
        GenerateStream(spec, *setup.zipf, pegasus::SplitMix64(seed * 131 + r));
    std::vector<double> publishes;
    if (setup.publish_every_s > 0) {
      for (double t = setup.publish_every_s / 2; t < seg.duration_s;
           t += setup.publish_every_s) {
        publishes.push_back(t);
      }
    }
    size_t next = 0;
    auto add_publish = [&] {
      seg.ops.push_back({publishes[next++], {}});
      seg.bodies.emplace_back();
      seg.publish.push_back(publish_count++ % 2 == 0 ? 1 : 0);
    };
    for (Op& op : ops) {
      while (next < publishes.size() && publishes[next] <= op.at) {
        add_publish();
      }
      seg.bodies.push_back(BatchText(op.requests));
      seg.publish.push_back(-1);
      seg.ops.push_back(std::move(op));
    }
    while (next < publishes.size()) add_publish();
    rungs.push_back(std::move(seg));
  }
  if (std::none_of(rungs.begin(), rungs.end(),
                   [](const Segment& s) { return s.fixed; })) {
    Die("fixed_rate is not on the ladder");
  }
  return rungs;
}

// One hash over every planned rung's frames: equal seeds (and equal
// workloads.json entries) replay byte-identical request streams.
uint64_t LadderHash(const std::vector<Segment>& rungs) {
  uint64_t h = Fnv1a(nullptr, 0);
  for (const Segment& seg : rungs) {
    const uint64_t rung = StreamHash(seg.ops);
    h = Fnv1a(&rung, sizeof(rung), h);
  }
  return h;
}

void PrintStreamHash(const std::vector<Segment>& rungs) {
  std::printf("request stream hash 0x%016llx\n",
              static_cast<unsigned long long>(LadderHash(rungs)));
}

// Everything a served op leaves behind.
struct OpOutcome {
  std::string reply;         // kept only for sampled ops
  uint64_t result_hash = 0;  // likewise (shard-fanout)
  uint32_t shards_touched = 0;
};

struct RungRun {
  const Segment* seg = nullptr;
  std::vector<Sample> samples;
  std::vector<OpOutcome> outcomes;
  int64_t t0_ns = 0;
};

RungResult SummarizeRung(const RungRun& run, size_t tail_windows) {
  RungResult r;
  std::vector<double> lat;
  int64_t last_end = run.t0_ns;
  size_t ok = 0;
  for (size_t i = 0; i < run.samples.size(); ++i) {
    last_end = std::max(last_end, run.samples[i].end_ns);
    if (run.samples[i].ok) {
      ++ok;
    } else {
      ++r.failed;
    }
    if (run.seg->publish[i] < 0) lat.push_back(run.samples[i].LatencyMs());
  }
  r.sent = run.samples.size();
  r.p99 = WindowedTail(lat, tail_windows, 99.0);
  const int64_t window_end =
      run.t0_ns + static_cast<int64_t>(run.seg->duration_s * 1e9);
  r.drain_ms = static_cast<double>(std::max<int64_t>(0, last_end - window_end)) *
               1e-6;
  r.achieved_qps = static_cast<double>(ok) * 1e9 /
                   static_cast<double>(std::max(last_end, window_end) -
                                       run.t0_ns);
  return r;
}

struct LadderRun {
  LadderResult ladder;
  std::vector<RungRun> runs;      // one per rung run; reserved, never moved
  const RungRun* fixed = nullptr; // the fixed-rate rung, if it was reached
};

// The per-op callback: (connection, rung, op index, outcome) -> ok.
using SendFn =
    std::function<bool(int, const Segment&, size_t, OpOutcome*)>;

// Runs the ladder over `connections` sender threads. With `traces`, odd
// ops carry a client round-trip span (even ops stay untraced, so one run
// measures the tracing overhead).
LadderRun RunLadder(const std::vector<Segment>& rungs, int connections,
                    double limit_ms, size_t tail_windows, const SendFn& send,
                    std::vector<Trace>* traces) {
  LadderRun out;
  out.runs.reserve(rungs.size());
  std::vector<double> rates;
  for (const Segment& s : rungs) rates.push_back(s.rate);
  size_t next = 0;
  out.ladder = SearchLadder(rates, limit_ms, [&](double) {
    const Segment& seg = rungs[next++];
    RungRun run;
    run.seg = &seg;
    run.outcomes.resize(seg.ops.size());
    std::vector<double> at;
    for (const Op& op : seg.ops) at.push_back(op.at);
    run.t0_ns = NowNs() + 2'000'000;  // let the senders reach their sleeps
    run.samples = RunOpenLoop(at, connections, run.t0_ns,
                              [&](int conn, size_t i) {
      const int span = traces != nullptr && i % 2
                           ? (*traces)[conn].Begin("client.roundtrip", i)
                           : -1;
      const bool ok = send(conn, seg, i, &run.outcomes[i]);
      if (span >= 0) (*traces)[conn].End(span);
      return ok;
    });
    out.runs.push_back(std::move(run));
    const RungResult r = SummarizeRung(out.runs.back(), tail_windows);
    std::fprintf(stderr,
                 "rung %g req/s: sent %zu failed %zu p%.2f %.3f ms "
                 "drain %.1f ms achieved %.1f req/s\n",
                 seg.rate, r.sent, r.failed, r.p99.percentile, r.p99.value,
                 r.drain_ms, r.achieved_qps);
    return r;
  });
  for (const RungRun& run : out.runs) {
    if (run.seg->fixed) out.fixed = &run;
  }
  return out;
}

bool Sampled(uint64_t seed, size_t rung, size_t i, size_t every) {
  return pegasus::SplitMix64(seed ^ (rung << 40) ^ i) % every == 0;
}

// End-to-end latency of the fixed-rate rung, plus generator health over
// every rung run.
struct Latency {
  double p50_ms = 0.0;
  Tail p99;
  size_t samples = 0;
  double lag_p99_ms = 0.0;
  std::vector<double> publish_ms;
  size_t sent = 0, ok = 0, failed = 0;
};

Latency Measure(const LadderRun& lr, size_t tail_windows) {
  Latency l;
  std::vector<double> lags;
  for (const RungRun& run : lr.runs) {
    for (size_t i = 0; i < run.samples.size(); ++i) {
      ++l.sent;
      if (run.samples[i].ok) {
        ++l.ok;
      } else {
        ++l.failed;
      }
      lags.push_back(static_cast<double>(run.samples[i].lag_ns) * 1e-6);
      if (run.seg->publish[i] >= 0) {
        l.publish_ms.push_back(run.samples[i].LatencyMs());
      }
    }
  }
  l.lag_p99_ms = TailPercentile(lags, 99.0).value;
  if (lr.fixed != nullptr) {
    std::vector<double> lat;
    for (size_t i = 0; i < lr.fixed->samples.size(); ++i) {
      if (lr.fixed->seg->publish[i] < 0) {
        lat.push_back(lr.fixed->samples[i].LatencyMs());
      }
    }
    l.p50_ms = Median(lat);
    l.p99 = WindowedTail(lat, tail_windows, 99.0);
    l.samples = lat.size();
  }
  return l;
}

// --- Per-layer accounting ---------------------------------------------------

// Per-layer metric table; every name is always reported (0 where the
// workload never runs that layer).
class Layers {
 public:
  Layers() {
    for (const auto& [name, unit] : Names()) values_[name] = 0.0;
  }
  void Set(const std::string& name, double value) {
    auto it = values_.find(name);
    if (it == values_.end()) Die("unknown per-layer metric " + name);
    it->second = value;
  }
  std::vector<Metric> Metrics() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : Names()) {
      out.push_back({name, values_.at(name), unit, ""});
    }
    return out;
  }

 private:
  static const std::vector<std::pair<std::string, std::string>>& Names() {
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"loadgen.lag_p99_ms", "ms"},
        {"loadgen.sent", "count"},
        {"loadgen.ok", "count"},
        {"loadgen.failed", "count"},
        {"serve.text.parse_us", "us"},
        {"serve.text.format_us", "us"},
        {"query.canonicalize_us", "us"},
        {"serve.dispatch_us", "us"},
        {"serve.socket_us", "us"},
        {"query.neighbors_us", "us"},
        {"query.hop_us", "us"},
        {"query.rwr_us", "us"},
        {"query.php_us", "us"},
        {"query.pagerank_us", "us"},
        {"query.clustering_us", "us"},
        {"query.kernel_bytes_per_sweep", "bytes"},
        {"serve.cache.hit_ratio", "ratio"},
        {"serve.cache.evictions", "count"},
        {"serve.publish_ms", "ms"},
        {"serve.inflight_max", "count"},
        {"server.rejected_overload", "count"},
        {"core.personal_weights_s", "s"},
        {"core.candidate_groups_s", "s"},
        {"core.summarize_s", "s"},
        {"core.iterations", "count"},
        {"core.merges", "count"},
        {"core.evaluations", "count"},
        {"core.merge_accept_ratio", "ratio"},
        {"core.superedges_dropped", "count"},
        {"core.psb_save_ms", "ms"},
        {"core.psb_bytes", "bytes"},
        {"core.arena_map_ms", "ms"},
        {"core.kernel_plan_ms", "ms"},
        {"shard.partition_s", "s"},
        {"shard.build_s", "s"},
        {"shard.fanout", "count"},
        {"shard.partial_bytes", "bytes"},
        {"shard.codec_us", "us"},
        {"shard.worker_max_us", "us"},
        {"shard.merge_us", "us"},
        {"e2e.p50_ms", "ms"},
        {"e2e.p99_ms", "ms"},
        {"e2e.build_s", "s"},
        {"e2e.first_answer_ms", "ms"},
        {"trace.p50_ms", "ms"},
        {"trace.overhead_p50_ms", "ms"},
        {"trace.spans", "count"}};
    return names;
  }
  std::map<std::string, double> values_;
};

double MeanOf(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

double SpanUs(const Trace& trace, int span) {
  const Span& s = trace.spans()[span];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
}

void SetLoadgenLayers(const Latency& l, Layers& layers) {
  layers.Set("loadgen.lag_p99_ms", l.lag_p99_ms);
  layers.Set("loadgen.sent", static_cast<double>(l.sent));
  layers.Set("loadgen.ok", static_cast<double>(l.ok));
  layers.Set("loadgen.failed", static_cast<double>(l.failed));
}

// Median latency of traced (odd) vs untraced (even) ops in the fixed rung.
void SetTraceOverhead(const LadderRun& lr, const std::vector<Trace>& traces,
                      Layers& layers) {
  std::vector<double> traced, untraced;
  if (lr.fixed != nullptr) {
    for (size_t i = 0; i < lr.fixed->samples.size(); ++i) {
      if (lr.fixed->seg->publish[i] >= 0) continue;
      (i % 2 ? traced : untraced).push_back(lr.fixed->samples[i].LatencyMs());
    }
  }
  size_t spans = 0;
  for (const Trace& t : traces) spans += t.spans().size();
  layers.Set("trace.p50_ms", Median(traced));
  layers.Set("trace.overhead_p50_ms", Median(traced) - Median(untraced));
  layers.Set("trace.spans", static_cast<double>(spans));
}

void SetCoreLayers(const Build& b, Layers& layers) {
  layers.Set("core.summarize_s", b.summarize_s);
  layers.Set("core.iterations", b.iterations);
  layers.Set("core.merges", static_cast<double>(b.merges.merges));
  layers.Set("core.evaluations", static_cast<double>(b.merges.evaluations));
  layers.Set("core.merge_accept_ratio",
             b.merges.evaluations
                 ? static_cast<double>(b.merges.merges) /
                       static_cast<double>(b.merges.evaluations)
                 : 0.0);
  layers.Set("core.superedges_dropped",
             static_cast<double>(b.superedges_dropped));
  layers.Set("core.psb_save_ms", b.save_ms);
  layers.Set("core.psb_bytes", static_cast<double>(b.psb_bytes));
}

// The core stages SummarizeGraph runs internally, timed through their
// public entry points: personal weights and one candidate-group round on
// the identity summary; then SummaryArena::Map and KernelPlan::Build.
void TraceCoreStages(const Graph& graph, const std::vector<NodeId>& targets,
                     const std::string& psb, Layers& layers) {
  const pegasus::PegasusConfig config = SummarizerConfig();
  int64_t t = NowNs();
  const auto weights =
      pegasus::PersonalWeights::Compute(graph, targets, config.alpha);
  layers.Set("core.personal_weights_s", (NowNs() - t) * 1e-9);
  const pegasus::SummaryGraph identity = pegasus::SummaryGraph::Identity(graph);
  pegasus::Executor pool(config.num_threads);
  t = NowNs();
  const auto groups = pegasus::GenerateCandidateGroupsParallel(
      graph, identity, pegasus::SplitMix64(config.seed), config.groups, pool);
  layers.Set("core.candidate_groups_s", (NowNs() - t) * 1e-9);
  t = NowNs();
  auto arena = Take(pegasus::SummaryArena::Map(psb), "map " + psb);
  layers.Set("core.arena_map_ms", (NowNs() - t) * 1e-6);
  t = NowNs();
  const pegasus::KernelPlan plan = pegasus::KernelPlan::Build(arena->layout());
  layers.Set("core.kernel_plan_ms", (NowNs() - t) * 1e-6);
  if (weights.pi().empty() || plan.num_rows() == 0) Die("empty core stage");
  (void)groups;
}

// Bytes one weighted gather sweep streams: the compacted CSR (row offsets,
// destinations, densities), the per-supernode self terms, and the three
// scratch vectors. Computed from array sizes, not measured.
double KernelBytesPerSweep(const pegasus::KernelPlan& plan) {
  const double s = plan.num_rows();
  return static_cast<double>(plan.row_begin.size() * 8 + plan.dst.size() * 4 +
                             plan.den_w.size() * 8) +
         s * (4 + 8 + 8) + 3 * 8 * s;
}

const char* LayerOfKind(QueryKind kind) {
  switch (kind) {
    case QueryKind::kNeighbors: return "query.neighbors_us";
    case QueryKind::kHop: return "query.hop_us";
    case QueryKind::kRwr: return "query.rwr_us";
    case QueryKind::kPhp: return "query.php_us";
    case QueryKind::kPageRank: return "query.pagerank_us";
    case QueryKind::kClustering: return "query.clustering_us";
    case QueryKind::kDegree: return "query.degree_us";
  }
  return "";
}

// Times CanonicalizeRequest and uncached AnswerQuery per request into a
// trace. Kernel spans are capped per family, so whole-graph kernels run a
// few times rather than once per request.
class KernelTimer {
 public:
  KernelTimer(const SummaryView& view, Trace& trace)
      : view_(view), trace_(trace) {}

  // The kernel's microseconds, or -1 once the family's cap is reached.
  double Time(const QueryRequest& req, uint64_t id) {
    int span = trace_.Begin("query.canonicalize", id);
    auto canonical = pegasus::CanonicalizeRequest(req, view_.num_nodes());
    trace_.End(span);
    if (!canonical) Die("canonicalize: " + canonical.status().ToString());
    const size_t cap = req.kind == QueryKind::kNeighbors ? 2000
                       : req.kind == QueryKind::kHop     ? 100
                       : pegasus::IsNodeQuery(req.kind)  ? 10
                                                         : 3;
    if (timed_[req.kind]++ >= cap) return -1.0;
    span = trace_.Begin(LayerOfKind(req.kind), id);
    const QueryResult result =
        pegasus::AnswerQuery(view_, *canonical, &scratch_);
    trace_.End(span);
    if (result.kind != req.kind) Die("kernel answered the wrong family");
    return SpanUs(trace_, span);
  }

 private:
  const SummaryView& view_;
  Trace& trace_;
  pegasus::KernelScratch scratch_;
  std::map<QueryKind, size_t> timed_;
};

// Mean self time per span name, microseconds.
std::map<std::string, double> MeanSelfUs(const Trace& trace) {
  std::map<std::string, std::vector<double>> self;
  const std::vector<int64_t> self_ns = SelfTimes(trace.spans());
  for (size_t i = 0; i < self_ns.size(); ++i) {
    self[trace.spans()[i].name].push_back(static_cast<double>(self_ns[i]) *
                                          1e-3);
  }
  std::map<std::string, double> out;
  for (const auto& [name, values] : self) out[name] = MeanOf(values);
  return out;
}

// The mean for `name`, 0 when no such span was recorded.
double MeanFor(const std::map<std::string, double>& mean,
               const std::string& name) {
  const auto it = mean.find(name);
  return it == mean.end() ? 0.0 : it->second;
}

void SetQueryLayers(const std::map<std::string, double>& mean,
                    const SummaryView& view, Layers& layers) {
  layers.Set("query.canonicalize_us", MeanFor(mean, "query.canonicalize"));
  for (QueryKind kind : pegasus::kAllQueryKinds) {
    if (kind != QueryKind::kDegree) {
      layers.Set(LayerOfKind(kind), MeanFor(mean, LayerOfKind(kind)));
    }
  }
  layers.Set("query.kernel_bytes_per_sweep",
             KernelBytesPerSweep(view.kernel_plan()));
}

// The second traced pass of the single-view workloads: replays the fixed
// rung's frames in-process through the calls Server::HandleBatch makes
// (ParseBatchText -> QueryService::Answer -> FormatBatchResponse), and
// times each request's kernel uncached right after. Over single-request
// frames, dispatch is Answer minus that same request's kernel time (none
// for whole-graph families, which Answer serves from the global-result
// cache), and socket time is the client's service time minus the
// in-process sum.
void ReplayInProcess(const LadderRun& lr, QueryService& service,
                     double budget_s, Layers& layers) {
  if (lr.fixed == nullptr) return;
  const RungRun& run = *lr.fixed;
  const auto view = service.view();
  Trace trace;
  KernelTimer kernels(*view, trace);
  std::vector<double> inproc_single, client_single, dispatch;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (size_t i = 0; i < run.seg->ops.size() && NowNs() < deadline; ++i) {
    if (run.seg->publish[i] >= 0) continue;
    const int root = trace.Begin("serve.inprocess", i);
    const int parse = trace.Begin("serve.text.parse", i, root);
    auto requests =
        pegasus::serve::ParseBatchText(run.seg->bodies[i], view->num_nodes());
    trace.End(parse);
    if (!requests) Die("replay parse: " + requests.status().ToString());
    const int answer = trace.Begin("serve.answer", i, root);
    auto batch = service.Answer(*requests);
    trace.End(answer);
    if (!batch) Die("replay answer: " + batch.status().ToString());
    const int format = trace.Begin("serve.text.format", i, root);
    const std::string body =
        pegasus::serve::FormatBatchResponse(*requests, *batch, kTop);
    trace.End(format);
    trace.End(root);
    for (const QueryRequest& req : run.seg->ops[i].requests) {
      const double kernel = kernels.Time(req, i);
      if (requests->size() != 1) continue;
      const bool cached = !pegasus::IsNodeQuery(req.kind);
      if (cached || kernel >= 0) {
        dispatch.push_back(SpanUs(trace, answer) - (cached ? 0.0 : kernel));
      }
      inproc_single.push_back(SpanUs(trace, root));
      const Sample& s = run.samples[i];
      client_single.push_back(static_cast<double>(s.end_ns - s.start_ns) *
                              1e-3);
    }
  }
  const auto mean = MeanSelfUs(trace);
  layers.Set("serve.text.parse_us", MeanFor(mean, "serve.text.parse"));
  layers.Set("serve.text.format_us", MeanFor(mean, "serve.text.format"));
  layers.Set("serve.dispatch_us", MeanOf(dispatch));
  layers.Set("serve.socket_us", MeanOf(client_single) - MeanOf(inproc_single));
  SetQueryLayers(mean, *view, layers);
}

// --- Single-view serving ----------------------------------------------------

struct ServingResult {
  LadderRun ladder;
  Latency latency;
  size_t checked = 0;
  size_t mismatches = 0;
  QueryService::CacheStats cache_before, cache_after;
};

// Drives `server` through the ladder, then byte-compares every sampled
// reply against FormatBatchResponse of an in-process Answer on the epoch
// the reply names (epoch_psb maps epochs to indices into `psbs`).
void ServeLadder(const Config& cfg, QueryService& service,
                 pegasus::serve::Server& server,
                 const std::vector<Segment>& rungs,
                 const std::vector<std::string>& psbs,
                 std::map<uint64_t, int>& epoch_psb, uint64_t seed,
                 std::vector<Trace>* traces, ServingResult* out) {
  const int connections = GeneratorThreads();
  const size_t every = kSampleEvery;
  Connections conns(server.port(), connections);
  std::mutex epoch_mu;  // guards epoch_psb while senders publish
  out->cache_before = service.cache_stats();
  const size_t windows = cfg.Count("tail_windows");
  out->ladder = RunLadder(
      rungs, connections, cfg.Num("limit_ms"), windows,
      [&](int conn, const Segment& seg, size_t i, OpOutcome* outcome) {
        pegasus::serve::Frame reply;
        const int publish = seg.publish[i];
        const bool sent =
            publish >= 0
                ? conns.RoundTrip(conn, pegasus::serve::FrameType::kPublish,
                                  psbs[publish], &reply)
                : conns.RoundTrip(conn, pegasus::serve::FrameType::kBatch,
                                  seg.bodies[i], &reply);
        if (!sent || reply.type != pegasus::serve::FrameType::kOk) {
          return false;
        }
        if (publish >= 0) {
          std::lock_guard<std::mutex> lock(epoch_mu);
          epoch_psb[ReplyEpoch(reply.body)] = publish;
        } else if (Sampled(seed, seg.index, i, every)) {
          outcome->reply = std::move(reply.body);
        }
        return true;
      },
      traces);
  out->cache_after = service.cache_stats();
  out->latency = Measure(out->ladder, windows);

  std::vector<std::unique_ptr<QueryService>> refs;
  for (const std::string& psb : psbs) {
    refs.push_back(std::make_unique<QueryService>(
        QueryService::Options{.num_threads = 1}));
    refs.back()->Publish(Take(pegasus::serve::LoadServingView(psb), psb));
  }
  for (const RungRun& run : out->ladder.runs) {
    for (size_t i = 0; i < run.outcomes.size(); ++i) {
      const OpOutcome& o = run.outcomes[i];
      if (!run.samples[i].ok || o.reply.empty()) continue;
      ++out->checked;
      const uint64_t epoch = ReplyEpoch(o.reply);
      const auto it = epoch_psb.find(epoch);
      bool match = false;
      if (it != epoch_psb.end()) {
        QueryService& ref = *refs[it->second];
        auto requests = pegasus::serve::ParseBatchText(
            run.seg->bodies[i], ref.view()->num_nodes());
        auto batch = requests ? ref.Answer(*requests)
                              : pegasus::StatusOr<QueryService::BatchResult>(
                                    requests.status());
        if (batch) {
          batch->epoch = epoch;
          match = pegasus::serve::FormatBatchResponse(*requests, *batch,
                                                      kTop) == o.reply;
        }
      }
      if (!match) ++out->mismatches;
    }
  }
}

// --- Workload results ---------------------------------------------------------

struct Outcome {
  std::vector<Metric> end_to_end;
  Layers layers;
  size_t attempted = 0;
  size_t failed = 0;
  size_t mismatches = 0;
};

// The values every workload reports; the serving ones come from `latency`
// and `ladder`, the rest from set-up and the checks.
struct EndToEnd {
  const Latency* latency = nullptr;
  const LadderResult* ladder = nullptr;
  size_t mismatches = 0;
  std::vector<double> setup_s, build_s, first_answer_ms;
  double rwr_smape = 0.0;
  size_t smape_nodes = 0;
  double fixed_rate = 0.0;
};

void Emit(const EndToEnd& e, Outcome& out) {
  const Latency& l = *e.latency;
  char at[160];
  std::snprintf(at, sizeof(at), "%s at %.0f req/s",
                Samples(l.samples).c_str(), e.fixed_rate);
  char tail[96];
  std::snprintf(tail, sizeof(tail), ", reported p%.2f, %zu beyond",
                l.p99.percentile, l.p99.beyond);
  char ladder[96];
  std::snprintf(ladder, sizeof(ladder), "(%zu rungs run, best rung %d)",
                e.ladder->rungs.size(), e.ladder->best);
  const size_t bad = l.failed + e.mismatches;
  // p50/p99, build_s and first_answer_ms are printed but not gated: on a
  // shared 4-vCPU host their run-to-run spread (0.14-0.86 of the median,
  // from minute-scale host drift) exceeds any usable regression bound.
  // Traced runs report them as e2e.* per-layer metrics.
  out.end_to_end = {
      {"p50_ms", l.p50_ms, "ms", at, false},
      {"p99_ms", l.p99.value, "ms", std::string(at) + tail, false},
      {"max_qps_at_slo", e.ladder->max_qps_at_slo, "req/s", ladder},
      {"ok_frac",
       l.sent ? static_cast<double>(l.sent - std::min(l.sent, bad)) /
                    static_cast<double>(l.sent)
              : 0.0,
       "ratio", Samples(l.sent) + " sent"},
      {"build_s", Median(e.build_s), "s", Samples(e.build_s.size()), false},
      {"first_answer_ms", Median(e.first_answer_ms), "ms",
       Samples(e.first_answer_ms.size()), false},
      {"rwr_smape", e.rwr_smape, "ratio", Samples(e.smape_nodes) + " nodes"},
      {"peak_rss_mb", PeakRssMb(), "MiB", ""},
      {"setup_s", Median(e.setup_s), "s", Samples(e.setup_s.size())},
  };
  for (const Metric& m : out.end_to_end) {
    if (!m.gated) out.layers.Set("e2e." + m.name, m.value);
  }
  out.attempted = l.sent;
  out.failed = bad;
  out.mismatches = e.mismatches;
}

void SetServiceLayers(const ServingResult& s, QueryService& service,
                      pegasus::serve::Server& server, Layers& layers) {
  SetLoadgenLayers(s.latency, layers);
  const uint64_t hits = s.cache_after.hits - s.cache_before.hits;
  const uint64_t comps =
      s.cache_after.computations - s.cache_before.computations;
  layers.Set("serve.cache.hit_ratio",
             hits + comps ? static_cast<double>(hits) /
                                static_cast<double>(hits + comps)
                          : 0.0);
  layers.Set("serve.cache.evictions",
             static_cast<double>(s.cache_after.evictions -
                                 s.cache_before.evictions));
  layers.Set("serve.publish_ms", Median(s.latency.publish_ms));
  layers.Set("serve.inflight_max",
             service.serving_stats().max_inflight_batches);
  layers.Set("server.rejected_overload",
             static_cast<double>(server.stats().rejected_overload));
}

std::vector<NodeId> Prefix(const std::vector<NodeId>& v, size_t n) {
  return {v.begin(), v.begin() + std::min(v.size(), n)};
}

// Closed-loop replay of `ops` over a fresh set of connections.
void WarmUp(uint16_t port, const std::vector<Op>& ops) {
  Connections conns(port, GeneratorThreads());
  std::vector<double> at(ops.size(), 0.0);
  RunOpenLoop(at, GeneratorThreads(), NowNs(), [&](int c, size_t i) {
    pegasus::serve::Frame reply;
    return conns.RoundTrip(c, pegasus::serve::FrameType::kBatch,
                           BatchText(ops[i].requests), &reply);
  });
}

// --- Workloads ----------------------------------------------------------------

// serve-point and serve-analytics: one Server over mmap'd PSBs.
Outcome RunSingleView(const Args& args, const Config& cfg, bool analytics) {
  const std::string psb_a = args.workdir + "/a.psb";
  const std::string psb_b = args.workdir + "/b.psb";
  std::vector<std::string> psbs = {psb_a};
  if (analytics) psbs.push_back(psb_b);

  // Set-up, repeated kSetupReps times: dataset, summary build(s), map +
  // publish + first answer, server start, warm-up. The last repetition's
  // products are served.
  EndToEnd e;
  Graph graph;
  std::vector<NodeId> targets;
  Build build_a;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<pegasus::serve::Server> server;
  std::map<uint64_t, int> epoch_psb;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    service.reset();
    epoch_psb.clear();
    const int64_t t0 = NowNs();
    graph = MakeGraph(cfg);
    targets = SampleTargets(graph, cfg.Count("targets"),
                            kTargetSeed);
    build_a = BuildPsb(graph, targets, cfg, psb_a);
    e.build_s.push_back(build_a.build_s);
    if (analytics) {
      const auto targets_b =
          SampleTargets(graph, cfg.Count("targets"),
                        kTargetSeedB);
      e.build_s.push_back(BuildPsb(graph, targets_b, cfg, psb_b).build_s);
    }
    service = std::make_unique<QueryService>(QueryService::Options{});
    FirstAnswerMs(*service, psb_a, targets[0], kFirstAnswerReps,
                  &e.first_answer_ms);
    epoch_psb[service->epoch()] = 0;
    server = std::make_unique<pegasus::serve::Server>(
        *service, pegasus::serve::Server::Options{});
    Check(server->Start(), "server start");
    // Warm-up: closed-loop passes fill the global-result cache and grow
    // the scratch pool; analytics maps and serves both PSBs once, ending
    // on A, so the timed window starts steady.
    const StreamSetup ss = MakeStreamSetup(cfg, graph.num_nodes(), targets);
    const auto warm = WarmupStream(ss, cfg.Count("warmup_ops"), args.seed);
    for (int p = analytics ? 1 : 0; p >= 0; --p) {
      if (analytics) {
        Connections conns(server->port(), 1);
        pegasus::serve::Frame reply;
        if (!conns.RoundTrip(0, pegasus::serve::FrameType::kPublish, psbs[p],
                             &reply) ||
            reply.type != pegasus::serve::FrameType::kOk) {
          Die("warm-up publish failed");
        }
        epoch_psb[ReplyEpoch(reply.body)] = p;
      }
      WarmUp(server->port(), warm);
    }
    e.setup_s.push_back((NowNs() - t0) * 1e-9);
  }

  const StreamSetup ss = MakeStreamSetup(cfg, graph.num_nodes(), targets);
  const std::vector<Segment> rungs =
      PlanLadder(cfg, ss, args.seconds, args.seed);
  PrintStreamHash(rungs);
  std::vector<Trace> traces(static_cast<size_t>(GeneratorThreads()));
  ServingResult serving;
  ServeLadder(cfg, *service, *server, rungs, psbs, epoch_psb, args.seed,
              args.trace ? &traces : nullptr, &serving);

  // Accuracy of summary A's served RWR against exact RWR.
  const std::vector<NodeId> smape_nodes =
      Prefix(targets, kSmapeNodes);
  QueryService ref(QueryService::Options{.num_threads = 1});
  ref.Publish(Take(pegasus::serve::LoadServingView(psb_a), psb_a));
  e.rwr_smape = RwrSmape(graph, smape_nodes, [&](NodeId q) {
    return Take(ref.AnswerOne(RwrRequest(q)), "rwr").scores;
  });
  e.smape_nodes = smape_nodes.size();
  e.latency = &serving.latency;
  e.ladder = &serving.ladder.ladder;
  e.mismatches = serving.mismatches;
  e.fixed_rate = cfg.Num("fixed_rate");

  Outcome out;
  Emit(e, out);
  if (args.trace) {
    SetServiceLayers(serving, *service, *server, out.layers);
    SetTraceOverhead(serving.ladder, traces, out.layers);
    SetCoreLayers(build_a, out.layers);
    TraceCoreStages(graph, targets, psb_a, out.layers);
    ReplayInProcess(serving.ladder, *service, kReplayBudgetS,
                    out.layers);
  }
  std::printf("checked %zu sampled replies: %zu mismatches\n", serving.checked,
              serving.mismatches);
  return out;
}

uint64_t ResultHash(const std::vector<QueryResult>& results) {
  uint64_t h = Fnv1a(nullptr, 0);
  for (const QueryResult& r : results) {
    h = Fnv1a(r.neighbors.data(), r.neighbors.size() * sizeof(NodeId), h);
    h = Fnv1a(r.hops.data(), r.hops.size() * sizeof(uint32_t), h);
    h = Fnv1a(r.scores.data(), r.scores.size() * sizeof(double), h);
  }
  return h;
}

// The traced in-process replay of the fleet: for each fixed-rung request,
// route as the Coordinator does, run the shard codec both ways and each
// involved worker's QueryService::Answer. Merge time is the client's
// Coordinator::Answer time minus the slowest worker and the codec.
void ReplayShards(
    const LadderRun& lr, const pegasus::shard::ShardManifest& manifest,
    const std::vector<std::unique_ptr<pegasus::shard::ShardWorker>>& workers,
    double budget_s, Layers& layers) {
  if (lr.fixed == nullptr) return;
  Trace trace;
  Trace kernel_trace;
  const auto view = workers[0]->service().view();
  KernelTimer kernels(*view, kernel_trace);
  std::vector<double> bytes_per_req, codec_us, worker_max_us, client_us;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (size_t i = 0; i < lr.fixed->samples.size() && NowNs() < deadline; ++i) {
    const auto& requests = lr.fixed->seg->ops[i].requests;
    const auto canonical = Take(
        pegasus::serve::CanonicalizeBatch(requests, manifest.num_nodes),
        "canonicalize");
    double codec = 0.0, worker_max = 0.0, bytes = 0.0;
    const int root = trace.Begin("shard.request", i);
    for (uint32_t s = 0; s < manifest.num_shards; ++s) {
      std::vector<QueryRequest> sub;
      for (size_t j = 0; j < requests.size(); ++j) {
        const QueryKind kind = canonical[j].kind;
        const bool scored =
            kind != QueryKind::kNeighbors && kind != QueryKind::kHop;
        if (scored || manifest.ShardOf(canonical[j].node) == s) {
          sub.push_back(requests[j]);
        }
      }
      if (sub.empty()) continue;
      int span = trace.Begin("shard.codec", i, root);
      const auto decoded = Take(pegasus::serve::DecodeShardBatchBody(
                                    pegasus::serve::EncodeShardBatchBody(sub)),
                                "decode batch");
      trace.End(span);
      codec += SpanUs(trace, span);
      span = trace.Begin("shard.worker", i, root);
      const auto answered =
          Take(workers[s]->service().Answer(decoded), "worker answer");
      trace.End(span);
      worker_max = std::max(worker_max, SpanUs(trace, span));
      span = trace.Begin("shard.codec", i, root);
      const std::string partial = pegasus::serve::EncodeShardPartialBody(
          answered.epoch, answered.results);
      const auto back =
          Take(pegasus::serve::DecodeShardPartialBody(partial), "decode");
      trace.End(span);
      codec += SpanUs(trace, span);
      bytes += static_cast<double>(partial.size());
      if (back.results.size() != sub.size()) Die("partial lost results");
    }
    trace.End(root);
    bytes_per_req.push_back(bytes);
    codec_us.push_back(codec);
    worker_max_us.push_back(worker_max);
    const Sample& s = lr.fixed->samples[i];
    client_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    for (const QueryRequest& req : requests) kernels.Time(req, i);
  }
  SetQueryLayers(MeanSelfUs(kernel_trace), *view, layers);
  std::vector<double> touched;
  for (const OpOutcome& o : lr.fixed->outcomes) {
    touched.push_back(o.shards_touched);
  }
  layers.Set("shard.fanout", MeanOf(touched));
  layers.Set("shard.partial_bytes", MeanOf(bytes_per_req));
  layers.Set("shard.codec_us", MeanOf(codec_us));
  layers.Set("shard.worker_max_us", MeanOf(worker_max_us));
  layers.Set("shard.merge_us", MeanOf(client_us) - MeanOf(worker_max_us) -
                                   MeanOf(codec_us));
}

// shard-fanout: ShardBuild -> ShardWorkers -> one Coordinator per
// generator connection.
Outcome RunShardFanout(const Args& args, const Config& cfg) {
  const int connections = GeneratorThreads();
  const uint32_t num_shards = static_cast<uint32_t>(cfg.Num("shards"));
  const auto partitioner =
      pegasus::shard::ParsePartitionerKind(cfg.Str("partitioner"));
  if (!partitioner) Die("unknown partitioner " + cfg.Str("partitioner"));

  EndToEnd e;
  Graph graph;
  std::vector<NodeId> probes;
  pegasus::shard::ShardBuildResult built;
  std::vector<std::unique_ptr<pegasus::shard::ShardWorker>> workers;
  std::vector<std::unique_ptr<pegasus::shard::Coordinator>> coords;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    coords.clear();
    workers.clear();
    const int64_t t0 = NowNs();
    graph = MakeGraph(cfg);
    probes = SampleTargets(graph, kSmapeNodes,
                           kTargetSeed);
    pegasus::shard::ShardBuildOptions opts;
    opts.num_shards = num_shards;
    opts.partitioner = *partitioner;
    opts.ratio = cfg.Num("ratio");
    opts.config = SummarizerConfig();
    const int64_t tb = NowNs();
    built = Take(pegasus::shard::ShardBuild(graph, args.workdir + "/shards",
                                            opts),
                 "shard build");
    e.build_s.push_back((NowNs() - tb) * 1e-9);
    // Cold start: workers verify, map and publish their shard, the
    // coordinators connect, and the first personalized answer returns.
    const int64_t tf = NowNs();
    std::vector<uint16_t> ports;
    pegasus::shard::ShardWorker::Options wopts;
    wopts.service.num_threads = 1;  // one core per shard worker
    for (uint32_t s = 0; s < num_shards; ++s) {
      workers.push_back(Take(
          pegasus::shard::ShardWorker::Start(built.manifest_path, s, wopts),
          "shard worker"));
      ports.push_back(workers.back()->port());
    }
    for (int c = 0; c < connections; ++c) {
      coords.push_back(Take(
          pegasus::shard::Coordinator::Connect(built.manifest, ports),
          "coordinator"));
    }
    Take(coords[0]->Answer({RwrRequest(probes[0])}), "first answer");
    e.first_answer_ms.push_back((NowNs() - tf) * 1e-6);
    const StreamSetup ss = MakeStreamSetup(cfg, graph.num_nodes(), {});
    const auto warm = WarmupStream(ss, cfg.Count("warmup_ops"), args.seed);
    std::vector<double> at(warm.size(), 0.0);
    RunOpenLoop(at, connections, NowNs(), [&](int c, size_t i) {
      return coords[c]->Answer(warm[i].requests).ok();
    });
    e.setup_s.push_back((NowNs() - t0) * 1e-9);
  }

  const StreamSetup ss = MakeStreamSetup(cfg, graph.num_nodes(), {});
  const std::vector<Segment> rungs =
      PlanLadder(cfg, ss, args.seconds, args.seed);
  PrintStreamHash(rungs);
  const size_t every = kSampleEvery;
  std::vector<Trace> traces(static_cast<size_t>(connections));
  const size_t windows = cfg.Count("tail_windows");
  const LadderRun lr = RunLadder(
      rungs, connections, cfg.Num("limit_ms"), windows,
      [&](int conn, const Segment& seg, size_t i, OpOutcome* o) {
        auto batch = coords[conn]->Answer(seg.ops[i].requests);
        if (!batch) return false;
        for (uint64_t epoch : batch->shard_epochs) {
          o->shards_touched += epoch != 0;
        }
        if (Sampled(args.seed, seg.index, i, every)) {
          o->result_hash = ResultHash(batch->results);
        }
        return true;
      },
      args.trace ? &traces : nullptr);
  const Latency latency = Measure(lr, windows);

  // Coordinator answers must repeat byte-for-byte on a sequential re-run.
  size_t checked = 0;
  for (const RungRun& run : lr.runs) {
    for (size_t i = 0; i < run.outcomes.size(); ++i) {
      const OpOutcome& o = run.outcomes[i];
      if (!run.samples[i].ok || o.result_hash == 0) continue;
      ++checked;
      auto again = coords[0]->Answer(run.seg->ops[i].requests);
      if (!again || ResultHash(again->results) != o.result_hash) {
        ++e.mismatches;
      }
    }
  }
  e.rwr_smape = RwrSmape(graph, probes, [&](NodeId q) {
    return Take(coords[0]->Answer({RwrRequest(q)}), "rwr").results[0].scores;
  });
  e.smape_nodes = probes.size();
  e.latency = &latency;
  e.ladder = &lr.ladder;
  e.fixed_rate = cfg.Num("fixed_rate");

  Outcome out;
  Emit(e, out);
  if (args.trace) {
    SetLoadgenLayers(latency, out.layers);
    SetTraceOverhead(lr, traces, out.layers);
    out.layers.Set("shard.build_s", Median(e.build_s));
    const int64_t t = NowNs();
    const auto partition = pegasus::shard::RunPartitioner(
        graph, num_shards, *partitioner, SummarizerConfig().seed);
    out.layers.Set("shard.partition_s", (NowNs() - t) * 1e-9);
    if (partition.num_parts != num_shards) Die("partition size");
    ReplayShards(lr, built.manifest, workers, kReplayBudgetS,
                 out.layers);
    uint64_t hits = 0, comps = 0, evictions = 0;
    int inflight = 0;
    for (const auto& w : workers) {
      const auto cs = w->service().cache_stats();
      hits += cs.hits;
      comps += cs.computations;
      evictions += cs.evictions;
      inflight = std::max(inflight,
                          w->service().serving_stats().max_inflight_batches);
    }
    out.layers.Set("serve.cache.hit_ratio",
                   hits + comps ? static_cast<double>(hits) /
                                      static_cast<double>(hits + comps)
                                : 0.0);
    out.layers.Set("serve.cache.evictions", static_cast<double>(evictions));
    out.layers.Set("serve.inflight_max", inflight);
  }
  std::printf("checked %zu sampled coordinator answers: %zu mismatches\n",
              checked, e.mismatches);
  coords.clear();
  workers.clear();
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir> [--set key=value ...]\n");
    return 2;
  }
  std::filesystem::create_directories(args.workdir);
  const Config cfg(args.cfg);
  Outcome out;
  if (args.workload == "serve-point") {
    out = RunSingleView(args, cfg, /*analytics=*/false);
  } else if (args.workload == "serve-analytics") {
    out = RunSingleView(args, cfg, /*analytics=*/true);
  } else if (args.workload == "shard-fanout") {
    out = RunShardFanout(args, cfg);
  } else {
    Die("unknown workload '" + args.workload + "'");
  }
  std::filesystem::remove_all(args.workdir);
  PrintResult(out.mismatches == 0, out.attempted, out.failed,
              args.trace ? out.layers.Metrics() : out.end_to_end);
  return out.mismatches == 0 ? 0 : 1;
}
