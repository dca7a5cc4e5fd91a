// Helpers of the perfbench harness: seeded request streams, the open-loop
// sender, tail percentiles, the rate-ladder search, and in-memory spans.
//
// Everything here is independent of the PeGaSus serving stack except for
// the QueryRequest type, so perfbench_selftest can pin each helper on
// synthetic inputs (a fake responder, a synthetic latency curve).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/query/query_engine.h"
#include "src/util/rng.h"

namespace perfbench {

using pegasus::NodeId;
using pegasus::QueryKind;
using pegasus::QueryRequest;

// Nanoseconds on the monotonic clock.
int64_t NowNs();

// --- Request streams --------------------------------------------------------

struct MixEntry {
  QueryKind kind;
  double weight;
};

// Parses "neighbors:50,hop:10" into a mix; false on an unknown family or
// a non-positive weight.
bool ParseMix(const std::string& spec, std::vector<MixEntry>* mix);

// Zipf(1.0) popularity over a seeded permutation of [0, num_nodes): rank r
// is drawn with probability proportional to 1/r.
class ZipfNodes {
 public:
  ZipfNodes(NodeId num_nodes, uint64_t seed);
  NodeId Sample(pegasus::Rng& rng) const;

 private:
  std::vector<NodeId> by_rank_;
  std::vector<double> cdf_;
};

struct StreamSpec {
  std::vector<MixEntry> mix;
  double rate = 1.0;          // mean offered requests (frames) per second
  double duration_s = 1.0;    // arrivals fall in [0, duration_s)
  double batch16_share = 0.0; // share of frames that carry 16 requests
  // Share of node draws taken uniformly from `targets` (the rest are Zipf).
  double target_share = 0.0;
  std::vector<NodeId> targets;
};

// One scheduled frame: `at` seconds after the segment start.
struct Op {
  double at = 0.0;
  std::vector<QueryRequest> requests;
};

// Bursty open-loop arrivals (two-state modulated Poisson: bursts at 4x the
// calm rate, entered with probability 0.02 and left with 0.1 per arrival),
// normalised so the long-run mean rate equals spec.rate. Families follow
// the mix, nodes the Zipf law (or the target set). Pure function of
// (spec, zipf, seed).
std::vector<Op> GenerateStream(const StreamSpec& spec, const ZipfNodes& zipf,
                               uint64_t seed);

// FNV-1a over every field of the stream: equal seeds give equal hashes.
uint64_t StreamHash(const std::vector<Op>& ops);

// The text body of a batch frame ("<kind> [node]\n" per request).
std::string BatchText(const std::vector<QueryRequest>& requests);

// FNV-1a over raw bytes, chainable.
uint64_t Fnv1a(const void* data, size_t size,
               uint64_t h = 14695981039346656037ULL);

// --- Open-loop sender -------------------------------------------------------

struct Sample {
  int64_t sched_ns = 0;  // when the op was due
  int64_t start_ns = 0;  // when the sender actually issued it
  int64_t end_ns = 0;    // when the full reply was in
  bool ok = false;
  // Time the connection was free and the op due, but the sender had not
  // issued it yet: the generator's own lateness.
  int64_t lag_ns = 0;
  double LatencyMs() const { return (end_ns - sched_ns) * 1e-6; }
};

// Replays `at` (seconds after t0_ns, ascending) over `connections` sender
// threads; op i goes to connection i % connections, and each connection
// issues its ops in order, one at a time, through send(conn, i) (true =
// answered correctly). Latency is measured from the scheduled time, so a
// stall delays — and is charged to — every op queued behind it.
std::vector<Sample> RunOpenLoop(const std::vector<double>& at,
                                int connections, int64_t t0_ns,
                                const std::function<bool(int, size_t)>& send);

// --- Percentiles ------------------------------------------------------------

struct Tail {
  double value = 0.0;       // the latency at `percentile`
  double percentile = 0.0;  // the percentile actually reported
  size_t samples = 0;
  size_t beyond = 0;        // samples strictly above the reported rank
};

// The q-th percentile (e.g. 99) of `values` if at least 10 samples lie
// beyond it; otherwise the highest percentile that still has 10 beyond.
// With 10 or fewer samples the median is reported.
Tail TailPercentile(std::vector<double> values, double q);

double Median(std::vector<double> values);

// TailPercentile of each of `windows` contiguous slices of `values` (in
// send order), then the slice whose tail is the median of those: a host
// stall that lands in one slice cannot move the result. windows = 1 is
// plain TailPercentile.
Tail WindowedTail(const std::vector<double>& values, size_t windows, double q);

// --- Rate ladder ------------------------------------------------------------

struct RungResult {
  double rate = 0.0;  // offered
  // Answered ok per second, over the rung plus its drain.
  double achieved_qps = 0.0;
  double drain_ms = 0.0;  // last reply's arrival after the rung's end
  Tail p99;
  size_t sent = 0;
  size_t failed = 0;
  bool passed = false;
};

// A rung passes when nothing failed, its p99 (TailPercentile rule) meets
// limit_ms, and it kept up: the last reply came within limit_ms of the
// rung's end, so no backlog grew.
bool RungPasses(const RungResult& rung, double limit_ms);

struct LadderResult {
  std::vector<RungResult> rungs;  // rungs run, ascending rate
  int best = -1;                  // highest passing rung, -1 if none
  double max_qps_at_slo = 0.0;    // achieved rate of rungs[best]
};

// Runs rates in ascending order through run_rung and reports the highest
// passing rung. It stops after two consecutive misses: one miss below a
// pass can be a scheduler stall on a shared machine, two in a row mean
// the rates above would only miss too.
LadderResult SearchLadder(const std::vector<double>& rates, double limit_ms,
                          const std::function<RungResult(double)>& run_rung);

// --- Spans ------------------------------------------------------------------

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       // index into the same span vector, -1 for roots
  uint64_t request = 0;  // spans of one request share this id
};

// Per-span self time: duration minus the part of [start, end) covered by
// its direct children (overlapping children are counted once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Records spans in memory; one recorder per thread.
class Trace {
 public:
  int Begin(const std::string& name, uint64_t request, int parent = -1);
  void End(int span);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// --- Process ----------------------------------------------------------------

// Peak resident set size of this process, MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
