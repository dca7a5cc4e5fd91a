// Self-test of the perfbench helpers (perfbench/harness.h). run.py runs
// it before every benchmark run; by hand:
//   .bench_build/perfbench/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

StreamSpec PointSpec() {
  StreamSpec spec;
  Expect(ParseMix("neighbors:50,hop:10,degree:15,pagerank:15,clustering:10",
                  &spec.mix),
         "mix parses");
  spec.rate = 500.0;
  spec.duration_s = 2.0;
  spec.batch16_share = 0.05;
  spec.target_share = 0.5;
  spec.targets = {3, 5, 7};
  return spec;
}

void TestStreamHashIsSeeded() {
  const ZipfNodes zipf(1000, 11);
  const StreamSpec spec = PointSpec();
  const auto a = GenerateStream(spec, zipf, 42);
  const auto b = GenerateStream(spec, zipf, 42);
  const auto c = GenerateStream(spec, zipf, 43);
  Expect(StreamHash(a) == StreamHash(b), "same seed, same stream hash");
  Expect(StreamHash(a) != StreamHash(c), "another seed, another hash");
  Expect(a.size() == 1000, "frame count is rate * duration");
  bool ascending = true, sized = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].at < a[i - 1].at) ascending = false;
    if (a[i].requests.size() != 1 && a[i].requests.size() != 16) sized = false;
  }
  Expect(ascending && a.front().at >= 0 && a.back().at < spec.duration_s,
         "arrivals ascend inside the segment");
  Expect(sized, "frames carry 1 or 16 requests");
  std::vector<MixEntry> bad;
  Expect(!ParseMix("teleport:3", &bad), "unknown family rejected");
}

void TestTailPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Tail t = TailPercentile(v, 99.0);
  Expect(t.value == 990 && t.beyond == 10 && t.percentile == 99.0,
         "p99 of 1000 samples keeps 10 beyond");
  v.resize(500);
  t = TailPercentile(v, 99.0);
  Expect(t.value == 490 && t.beyond == 10 && std::fabs(t.percentile - 98.0) <
                                                 1e-9,
         "500 samples fall back to p98, 10 beyond");
  v.resize(5);
  t = TailPercentile(v, 99.0);
  Expect(t.value == 3 && t.percentile == 50.0, "tiny samples report median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median");
  // Five windows of 1000; a stall inflates the tail of window 2 only.
  std::vector<double> w;
  for (int i = 0; i < 5000; ++i) w.push_back(1.0 + (i % 1000) * 0.001);
  for (int i = 2000; i < 2100; ++i) w[i] = 50.0;
  t = WindowedTail(w, 5, 99.0);
  Expect(t.value == 1.0 + 989 * 0.001 && t.samples == 5000,
         "one stalled window does not move the windowed p99");
  Expect(TailPercentile(w, 99.0).value == 50.0, "but it moves the plain p99");
}

void TestSelfTimeOfNestedSpans() {
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},   // overlaps b
      {"b", 20, 50, 0, 1},
      {"c", 90, 120, 0, 1},  // runs past its parent: clipped
      {"a.1", 15, 25, 1, 1},
  };
  const auto self = SelfTimes(spans);
  Expect(self[0] == 100 - 40 - 10, "root self time counts overlap once");
  Expect(self[1] == 20 - 10, "child minus its grandchild");
  Expect(self[2] == 30 && self[4] == 10, "leaves keep their duration");
  Trace t;
  const int root = t.Begin("r", 7);
  const int kid = t.Begin("k", 7, root);
  t.End(kid);
  t.End(root);
  Expect(t.spans()[kid].parent == root && t.spans()[kid].request == 7 &&
             t.spans()[root].end_ns >= t.spans()[kid].end_ns,
         "recorded spans keep parent, request id and nesting");
}

void TestLadderOnSyntheticCurve() {
  // p99 = 1000 / (100 - rate) ms: capacity 100, the 50 ms limit is met up
  // to rate 80. A stall makes rate 40 miss once.
  std::vector<double> asked;
  const LadderResult r =
      SearchLadder({90, 20, 60, 40, 80, 100, 120}, 50.0, [&](double rate) {
        asked.push_back(rate);
        RungResult rung;
        rung.sent = 100;
        rung.p99.value = rate < 100 ? 1000.0 / (100.0 - rate) : 1e9;
        if (rate == 40) rung.p99.value = 70;
        rung.achieved_qps = rate * 0.99;
        return rung;
      });
  Expect(r.best == 3 && r.max_qps_at_slo == 80 * 0.99,
         "highest passing rung is 80, past one stalled rung");
  Expect(asked == std::vector<double>({20, 40, 60, 80, 90, 100}),
         "rungs run ascending and stop after two misses in a row");
  RungResult failed;
  failed.sent = 10;
  failed.failed = 1;
  Expect(!RungPasses(failed, 50.0), "a failed request misses the limit");
  RungResult backlog;
  backlog.sent = 10;
  backlog.drain_ms = 80;
  Expect(!RungPasses(backlog, 50.0), "a growing backlog misses the limit");
}

void TestLatencyFromScheduledSend() {
  // One connection; op 0 stalls 50 ms, ops 1 and 2 were due at 10 and
  // 20 ms and answer instantly once sent.
  const std::vector<double> at = {0.0, 0.010, 0.020};
  const int64_t t0 = NowNs() + 1'000'000;
  const auto samples = RunOpenLoop(at, 1, t0, [](int, size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return true;
  });
  const Sample& s1 = samples[1];
  Expect(s1.LatencyMs() >= 35.0, "stall is charged from the scheduled time");
  Expect((s1.end_ns - s1.start_ns) * 1e-6 < 5.0,
         "the op itself was quick once sent");
  Expect(s1.lag_ns * 1e-6 < 5.0, "waiting behind the stall is not lag");
  Expect(samples[2].LatencyMs() >= 25.0, "the stall delays every later op");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestStreamHashIsSeeded();
  TestTailPercentile();
  TestSelfTimeOfNestedSpans();
  TestLadderOnSyntheticCurve();
  TestLatencyFromScheduledSend();
  if (failures) {
    std::fprintf(stderr, "perfbench_selftest: %d failures\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: ok\n");
  return 0;
}
