// The benchmark's own metric arithmetic, kept apart from the workload
// program so perfbench_selftest can check it on hand-made inputs:
//
//   - percentiles, and the rule that a tail percentile is reported only
//     when at least ten samples lie beyond it;
//   - the host time of a replay from several replays of one seed;
//   - failure accounting for the trace replays (an invocation that
//     never completes counts as failed and as an SLO miss);
//   - counter, gauge and sample aggregation over the API-server shards.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace kd::perfbench {

// Samples beyond quantile q of n samples: the order statistics above
// the interpolation position Quantile() uses, q * (n - 1). They lie
// strictly above the reported value (given distinct samples).
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double pos = q * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(std::floor(pos));
}

// A tail percentile is only meaningful with at least ten samples
// beyond it.
inline bool TailSupported(std::size_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

// Linear interpolation between order statistics, the same rule as
// kd::Sample::Quantile. `values` need not be sorted; empty gives 0.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Host time of a replay from several timed replays of the same seed.
// Each replay is split into segments that do identical simulated work
// on every replay (the simulation is deterministic), so segment j of
// every replay is a repeated measurement of one piece of work: take
// each segment at its fastest. Slowdowns from other tenants on the host
// then have to hit the same segment in every replay to show. Empty when
// the replays were not split alike.
inline std::vector<double> SegmentMinima(
    const std::vector<std::vector<double>>& replays) {
  if (replays.empty()) return {};
  std::vector<double> best = replays.front();
  for (const std::vector<double>& r : replays) {
    if (r.size() != best.size()) return {};
    for (std::size_t j = 0; j < best.size(); ++j) {
      best[j] = std::min(best[j], r[j]);
    }
  }
  return best;
}

// The replay's host time: the sum of SegmentMinima, -1 when the
// replays were not split alike.
inline double SumOfSegmentMinima(
    const std::vector<std::vector<double>>& replays) {
  const std::vector<double> best = SegmentMinima(replays);
  if (best.empty()) return -1;
  double total = 0;
  for (double s : best) total += s;
  return total;
}

// Invocation outcome counts of one trace replay.
struct FailureCounts {
  std::uint64_t sent = 0;       // invocations handed to the platform
  std::uint64_t completed = 0;  // invocations that finished executing
  std::uint64_t slow = 0;       // completed, but over the latency limit
};

// Invocations not completed, over invocations sent.
inline double FailedFraction(const FailureCounts& c) {
  if (c.sent == 0) return 0;
  const std::uint64_t missing = c.sent > c.completed ? c.sent - c.completed : 0;
  return static_cast<double>(missing) / static_cast<double>(c.sent);
}

// Invocations over the limit or never completed, over invocations sent.
inline double SloMissFraction(const FailureCounts& c) {
  if (c.sent == 0) return 0;
  const std::uint64_t missing = c.sent > c.completed ? c.sent - c.completed : 0;
  return static_cast<double>(c.slow + missing) / static_cast<double>(c.sent);
}

// --- aggregation over API-server shards ------------------------------

inline std::int64_t SumCounter(const std::vector<const MetricsRecorder*>& rs,
                               const std::string& name) {
  std::int64_t total = 0;
  for (const MetricsRecorder* r : rs) total += r->GetCount(name);
  return total;
}

// High-water gauges (RecordMax) combine by max, not by sum.
inline std::int64_t MaxCounter(const std::vector<const MetricsRecorder*>& rs,
                               const std::string& name) {
  std::int64_t best = 0;
  for (const MetricsRecorder* r : rs) best = std::max(best, r->GetCount(name));
  return best;
}

// Every recorded value of `name` across the recorders.
inline std::vector<double> MergeSamples(
    const std::vector<const MetricsRecorder*>& rs, const std::string& name) {
  std::vector<double> out;
  for (const MetricsRecorder* r : rs) {
    if (!r->HasSample(name)) continue;
    const std::vector<double>& v = r->GetSample(name).values();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

// True when `name` reads "<prefix>...<suffix>".
inline bool Matches(const std::string& name, const std::string& prefix,
                    const std::string& suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Sum of every counter named "<prefix>...<suffix>".
inline std::int64_t SumMatching(const MetricsRecorder& r,
                                const std::string& prefix,
                                const std::string& suffix = "") {
  std::int64_t total = 0;
  for (const auto& [name, value] : r.counters()) {
    if (Matches(name, prefix, suffix)) total += value;
  }
  return total;
}

// Max of every counter named "<prefix>...<suffix>".
inline std::int64_t MaxMatching(const MetricsRecorder& r,
                                const std::string& prefix,
                                const std::string& suffix) {
  std::int64_t best = 0;
  for (const auto& [name, value] : r.counters()) {
    if (Matches(name, prefix, suffix)) best = std::max(best, value);
  }
  return best;
}

}  // namespace kd::perfbench
