// Checks of the benchmark's own metric code (metrics.h) on hand-made
// inputs. Exits 0 when every check holds; prints each failure.
//
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics.h"

namespace kd::perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

// "Report a tail percentile only with at least ten samples beyond it."
void TestTailRule() {
  Check(SamplesBeyond(500, 0.98) == 10, "500 samples leave 10 beyond p98");
  Check(TailSupported(500, 0.98), "p98 is supported at 500 samples");
  Check(TailSupported(498, 0.98), "p98 is supported at 498 samples");
  Check(!TailSupported(500, 0.99), "p99 is not supported at 500 samples");
  Check(!TailSupported(400, 0.98), "p98 is not supported at 400 samples");
  Check(TailSupported(10'000, 0.999), "p99.9 is supported at 10k samples");
  Check(TailSupported(16'993, 0.999), "p99.9 is supported at 16993 samples");
  Check(!TailSupported(5'000, 0.999), "p99.9 is not supported at 5k samples");
  Check(SamplesBeyond(5, 0.5) == 2, "2 of 5 samples lie beyond the median");
  Check(SamplesBeyond(4, 0.5) == 2, "2 of 4 samples lie beyond the median");
  Check(!TailSupported(0, 0.5), "nothing is supported at 0 samples");
}

void TestQuantile() {
  Check(Near(Quantile({3, 1, 2}, 0.5), 2), "median of 1,2,3 is 2");
  Check(Near(Quantile({1, 2, 3, 4}, 0.5), 2.5), "median interpolates");
  Check(Near(Quantile({5}, 0.999), 5), "one sample is every quantile");
  Check(Quantile({}, 0.5) == 0, "empty sample quantile is 0");
  // Same rule as kd::Sample::Quantile, which the figure benches use.
  Sample s;
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) {
    const double x = static_cast<double>((i * 7919) % 1000) / 7.0;
    s.Add(x);
    v.push_back(x);
  }
  for (double q : {0.0, 0.5, 0.98, 0.999, 1.0}) {
    Check(Near(Quantile(v, q), s.Quantile(q)),
          "Quantile matches kd::Sample at q=" + std::to_string(q));
  }
}

// A replay's host time takes each deterministic segment at its fastest.
void TestSegmentMinima() {
  Check(Near(SumOfSegmentMinima({{1, 2, 3}}), 6), "one replay is its own sum");
  Check(Near(SumOfSegmentMinima({{1, 5, 3}, {2, 2, 9}}), 1 + 2 + 3),
        "each segment at its fastest");
  Check(Near(SumOfSegmentMinima({{4, 4}, {4, 4}, {4, 4}}), 8),
        "identical replays sum once");
  Check(SumOfSegmentMinima({{1, 2}, {1, 2, 3}}) == -1,
        "replays split differently are refused");
  Check(SumOfSegmentMinima({}) == -1, "no replays, no time");
  Check(SegmentMinima({{3, 1}, {2, 4}}) == std::vector<double>({2, 1}),
        "segment minima pick per segment");
}

// Incomplete invocations count as failed and as SLO misses.
void TestFailureAccounting() {
  FailureCounts all_done{1000, 1000, 0};
  Check(FailedFraction(all_done) == 0, "nothing failed when all completed");
  Check(SloMissFraction(all_done) == 0, "no misses when all fast");

  FailureCounts some_missing{1000, 990, 5};
  Check(Near(FailedFraction(some_missing), 0.01), "10 of 1000 missing");
  Check(Near(SloMissFraction(some_missing), 0.015),
        "10 missing + 5 slow = 15 misses of 1000");

  FailureCounts none{0, 0, 0};
  Check(FailedFraction(none) == 0 && SloMissFraction(none) == 0,
        "nothing sent, nothing failed");

  // The azure-knk8s seed-42 shortfall: 166846 of 168713 completed.
  FailureCounts knk8s{168713, 166846, 0};
  Check(Near(FailedFraction(knk8s), 1867.0 / 168713.0),
        "knk8s failed fraction counts the undrained tail");
}

// Counters sum over API-server shards; gauges take the max; samples
// merge.
void TestShardAggregation() {
  MetricsRecorder a, b, c;
  a.Count("api_writes", 3);
  b.Count("api_writes", 4);
  c.Count("api_reads", 1);
  a.RecordMax("api.inflight_max", 7);
  b.RecordMax("api.inflight_max", 5);
  a.RecordValue("api_call_latency", 1.0);
  b.RecordValue("api_call_latency", 2.0);
  b.RecordValue("api_call_latency", 3.0);
  const std::vector<const MetricsRecorder*> shards = {&a, &b, &c};
  Check(SumCounter(shards, "api_writes") == 7, "writes sum across shards");
  Check(SumCounter(shards, "api_reads") == 1, "a counter on one shard");
  Check(SumCounter(shards, "absent") == 0, "absent counter sums to 0");
  Check(MaxCounter(shards, "api.inflight_max") == 7, "gauges take the max");
  const std::vector<double> merged = MergeSamples(shards, "api_call_latency");
  Check(merged.size() == 3, "samples merge across shards");
  Check(Near(Quantile(merged, 0.5), 2.0), "merged median");
  Check(SumCounter({&a}, "api_writes") == 3, "one shard is its own total");

  MetricsRecorder m;
  m.Count("client.scheduler.retries", 2);
  m.Count("client.kubelet-node-0001.deadline", 3);
  m.Count("clients_total", 100);
  m.RecordMax("scheduler.queue_depth_max", 9);
  m.RecordMax("kubelet-node-0001.queue_depth_max", 4);
  Check(SumMatching(m, "client.") == 5, "client.*.* faults sum");
  Check(MaxMatching(m, "", ".queue_depth_max") == 9, "deepest loop queue");
  Check(!Matches("x.queue_depth_max", "x.queue", "queue_depth_max"),
        "prefix and suffix may not overlap");
}

}  // namespace
}  // namespace kd::perfbench

int main() {
  using namespace kd::perfbench;
  TestTailRule();
  TestQuantile();
  TestSegmentMinima();
  TestFailureAccounting();
  TestShardAggregation();
  std::printf("perfbench_selftest: %s (%d failure%s)\n",
              failures == 0 ? "ok" : "FAILED", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
