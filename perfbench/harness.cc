#include "perfbench/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include <sys/resource.h>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Request streams --------------------------------------------------------

bool ParseMix(const std::string& spec, std::vector<MixEntry>* mix) {
  mix->clear();
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string term = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t colon = term.find(':');
    if (colon == std::string::npos) return false;
    const auto kind = pegasus::ParseQueryKind(term.substr(0, colon));
    const double weight = std::atof(term.c_str() + colon + 1);
    if (!kind || !(weight > 0)) return false;
    mix->push_back({*kind, weight});
  }
  return !mix->empty();
}

ZipfNodes::ZipfNodes(NodeId num_nodes, uint64_t seed) : by_rank_(num_nodes) {
  for (NodeId u = 0; u < num_nodes; ++u) by_rank_[u] = u;
  pegasus::Rng rng(pegasus::SplitMix64(seed));
  rng.Shuffle(by_rank_);
  cdf_.resize(num_nodes);
  double total = 0.0;
  for (NodeId r = 0; r < num_nodes; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

NodeId ZipfNodes::Sample(pegasus::Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const size_t rank = std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  return by_rank_[rank];
}

namespace {

QueryRequest DrawRequest(const StreamSpec& spec, const ZipfNodes& zipf,
                         double total_weight, pegasus::Rng& rng) {
  double pick = rng.UniformDouble() * total_weight;
  QueryKind kind = spec.mix.back().kind;
  for (const MixEntry& e : spec.mix) {
    if (pick < e.weight) {
      kind = e.kind;
      break;
    }
    pick -= e.weight;
  }
  QueryRequest req;
  req.kind = kind;
  if (pegasus::IsNodeQuery(kind)) {
    const bool from_targets =
        !spec.targets.empty() && rng.Bernoulli(spec.target_share);
    req.node = from_targets ? spec.targets[rng.Uniform(spec.targets.size())]
                            : zipf.Sample(rng);
  }
  return req;
}

}  // namespace

std::vector<Op> GenerateStream(const StreamSpec& spec, const ZipfNodes& zipf,
                               uint64_t seed) {
  double total_weight = 0.0;
  for (const MixEntry& e : spec.mix) total_weight += e.weight;
  pegasus::Rng rng(pegasus::SplitMix64(seed));
  // Exactly round(rate * duration) frames: arrival gaps come from the
  // burst process and are then rescaled so arrival N+1 lands on the end of
  // the segment. Every seed offers the same count at the same mean rate.
  const size_t count = std::max<size_t>(
      1, static_cast<size_t>(std::llround(spec.rate * spec.duration_s)));
  std::vector<Op> ops(count);
  double clock = 0.0;
  bool burst = false;
  for (size_t i = 0; i <= count; ++i) {
    const double rate = burst ? 4.0 : 1.0;
    clock += -std::log(1.0 - rng.UniformDouble()) / rate;
    burst = burst ? !rng.Bernoulli(0.1) : rng.Bernoulli(0.02);
    if (i == count) break;
    ops[i].at = clock;
    const size_t width = rng.Bernoulli(spec.batch16_share) ? 16 : 1;
    for (size_t j = 0; j < width; ++j) {
      ops[i].requests.push_back(DrawRequest(spec, zipf, total_weight, rng));
    }
  }
  const double scale = spec.duration_s / clock;
  for (Op& op : ops) op.at *= scale;
  return ops;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t StreamHash(const std::vector<Op>& ops) {
  uint64_t h = Fnv1a(nullptr, 0);
  for (const Op& op : ops) {
    h = Fnv1a(&op.at, sizeof(op.at), h);
    for (const QueryRequest& r : op.requests) {
      const uint8_t kind = static_cast<uint8_t>(r.kind);
      h = Fnv1a(&kind, 1, h);
      h = Fnv1a(&r.node, sizeof(r.node), h);
      h = Fnv1a(&r.param, sizeof(r.param), h);
    }
  }
  return h;
}

std::string BatchText(const std::vector<QueryRequest>& requests) {
  std::string out;
  for (const QueryRequest& r : requests) {
    out += pegasus::QueryKindName(r.kind);
    if (pegasus::IsNodeQuery(r.kind)) {
      out += ' ';
      out += std::to_string(r.node);
    }
    out += '\n';
  }
  return out;
}

// --- Open-loop sender -------------------------------------------------------

std::vector<Sample> RunOpenLoop(const std::vector<double>& at,
                                int connections, int64_t t0_ns,
                                const std::function<bool(int, size_t)>& send) {
  std::vector<Sample> samples(at.size());
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      int64_t free_ns = 0;  // when this connection's previous op ended
      for (size_t i = static_cast<size_t>(c); i < at.size();
           i += static_cast<size_t>(connections)) {
        Sample& s = samples[i];
        s.sched_ns = t0_ns + static_cast<int64_t>(at[i] * 1e9);
        if (NowNs() < s.sched_ns) {
          std::this_thread::sleep_until(
              std::chrono::steady_clock::time_point(
                  std::chrono::nanoseconds(s.sched_ns)));
        }
        s.start_ns = NowNs();
        s.lag_ns = std::max<int64_t>(
            0, s.start_ns - std::max(s.sched_ns, free_ns));
        s.ok = send(c, i);
        s.end_ns = NowNs();
        free_ns = s.end_ns;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return samples;
}

// --- Percentiles ------------------------------------------------------------

Tail TailPercentile(std::vector<double> values, double q) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= 10) {
    tail.value = values[(n - 1) / 2];
    tail.percentile = 50.0;
    tail.beyond = n - 1 - (n - 1) / 2;
    return tail;
  }
  // Rank of the q-th percentile: the smallest k with k >= q% of n; the
  // reported value is the k-th smallest, and n - k samples lie beyond it.
  size_t k = static_cast<size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
  k = std::clamp<size_t>(k, 1, n);
  if (n - k < 10) k = n - 10;
  tail.value = values[k - 1];
  tail.beyond = n - k;
  tail.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(n);
  if (tail.percentile > q) tail.percentile = q;
  return tail;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail WindowedTail(const std::vector<double>& values, size_t windows,
                  double q) {
  windows = std::clamp<size_t>(windows, 1, std::max<size_t>(1, values.size()));
  std::vector<Tail> tails;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = values.size() * w / windows;
    const size_t end = values.size() * (w + 1) / windows;
    tails.push_back(TailPercentile(
        std::vector<double>(values.begin() + begin, values.begin() + end), q));
  }
  std::sort(tails.begin(), tails.end(),
            [](const Tail& a, const Tail& b) { return a.value < b.value; });
  Tail out = tails[(tails.size() - 1) / 2];
  out.samples = values.size();
  return out;
}

// --- Rate ladder ------------------------------------------------------------

bool RungPasses(const RungResult& rung, double limit_ms) {
  return rung.sent > 0 && rung.failed == 0 && rung.p99.value <= limit_ms &&
         rung.drain_ms <= limit_ms;
}

LadderResult SearchLadder(const std::vector<double>& rates, double limit_ms,
                          const std::function<RungResult(double)>& run_rung) {
  LadderResult out;
  std::vector<double> sorted = rates;
  std::sort(sorted.begin(), sorted.end());
  int misses = 0;
  for (double rate : sorted) {
    RungResult rung = run_rung(rate);
    rung.rate = rate;
    rung.passed = RungPasses(rung, limit_ms);
    out.rungs.push_back(rung);
    if (!rung.passed) {
      if (++misses == 2) break;
      continue;
    }
    misses = 0;
    out.best = static_cast<int>(out.rungs.size()) - 1;
    out.max_qps_at_slo = rung.achieved_qps;
  }
  return out;
}

// --- Spans ------------------------------------------------------------------

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, cursor = lo;
    for (const auto& [b, e] : kids) {
      const int64_t begin = std::max(b, cursor), end = std::min(e, hi);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

int Trace::Begin(const std::string& name, uint64_t request, int parent) {
  spans_.push_back({name, NowNs(), 0, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::End(int span) { spans_[span].end_ns = NowNs(); }

// --- Process ----------------------------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
