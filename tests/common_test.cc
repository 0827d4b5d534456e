// Unit tests for src/common: status, rng, metrics, strings, time.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <string_view>

#include "common/flat_map.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/time.h"

namespace kd {
namespace {

TEST(TimeTest, UnitConstruction) {
  EXPECT_EQ(Milliseconds(3), 3'000'000);
  EXPECT_EQ(Seconds(2), 2'000'000'000);
  EXPECT_EQ(Microseconds(7), 7'000);
  EXPECT_EQ(MillisecondsF(0.5), 500'000);
}

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(500), "500ns");
  EXPECT_EQ(FormatDuration(Microseconds(12)), "12us");
  EXPECT_EQ(FormatDuration(Milliseconds(3)), "3ms");
  EXPECT_EQ(FormatDuration(Seconds(4)), "4s");
}

TEST(TimeTest, ConversionRoundTrip) {
  EXPECT_DOUBLE_EQ(ToMillis(Milliseconds(42)), 42.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = ConflictError("resourceVersion mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kConflict);
  EXPECT_EQ(s.ToString(), "CONFLICT: resourceVersion mismatch");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(PermissionDeniedError("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(NotFoundError("pod"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(9));
  ASSERT_TRUE(v.ok());
  auto p = std::move(v).value();
  EXPECT_EQ(*p, 9);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(10), 10u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, ParetoAtLeastScale) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, ForkIndependentStreams) {
  Rng a(21);
  Rng fork = a.Fork();
  // Forked stream is not a prefix/copy of the parent.
  Rng b(21);
  b.Next();  // parent consumed one value during Fork
  EXPECT_NE(fork.Next(), b.Next());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(SampleTest, QuantilesExact) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Min(), 1);
  EXPECT_DOUBLE_EQ(s.Max(), 100);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.99), 99.01, 0.05);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
}

TEST(SampleTest, EmptySampleSafe) {
  Sample s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.Median(), 0.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_TRUE(s.Cdf().empty());
}

TEST(SampleTest, CdfMonotone) {
  Sample s;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) s.Add(rng.UniformDouble());
  auto cdf = s.Cdf(50);
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
}

TEST(SampleTest, AddAfterQuantileStillSorted) {
  Sample s;
  s.Add(5);
  s.Add(1);
  EXPECT_DOUBLE_EQ(s.Min(), 1);
  s.Add(0.5);
  EXPECT_DOUBLE_EQ(s.Min(), 0.5);  // re-sorts after mutation
}

TEST(MetricsRecorderTest, Counters) {
  MetricsRecorder m;
  m.Count("pods");
  m.Count("pods", 4);
  EXPECT_EQ(m.GetCount("pods"), 5);
  EXPECT_EQ(m.GetCount("missing"), 0);
}

// A handle resolved before a reset keeps counting into the same
// counter afterwards, and counters() prints what a plain name -> value
// map (the recorder's former representation) would hold after the same
// operations: reset counters vanish until counted again.
TEST(MetricsRecorderTest, CounterHandlesSurviveResets) {
  MetricsRecorder m;
  std::map<std::string, std::int64_t> want;
  const MetricsRecorder::CounterHandle sent = m.Counter("kd.sent");
  const MetricsRecorder::CounterHandle bytes = m.Counter("kd.bytes");
  const MetricsRecorder::CounterHandle depth = m.Counter("loop.depth_max");
  EXPECT_TRUE(m.counters().empty());  // resolving does not count

  m.Count(sent);
  m.Count(sent, 2);
  m.Count("kd.bytes", 100);
  m.RecordMax(depth, 7);
  m.RecordMax("loop.depth_max", 3);
  m.Count("other", 0);
  want = {{"kd.bytes", 100}, {"kd.sent", 3}, {"loop.depth_max", 7},
          {"other", 0}};
  EXPECT_EQ(m.counters(), want);
  EXPECT_EQ(m.GetCount("kd.sent"), 3);

  m.ResetCounter("kd.sent");
  want.erase("kd.sent");
  EXPECT_EQ(m.counters(), want);
  EXPECT_EQ(m.GetCount("kd.sent"), 0);
  m.Count(sent, 5);
  want["kd.sent"] = 5;
  EXPECT_EQ(m.counters(), want);

  m.ResetCounterPrefix("kd.");
  want.erase("kd.sent");
  want.erase("kd.bytes");
  EXPECT_EQ(m.counters(), want);
  m.Count(bytes, 1);
  m.Count("kd.sent");  // by name: the same slot as the handle
  m.Count(sent);
  want["kd.bytes"] = 1;
  want["kd.sent"] = 2;
  EXPECT_EQ(m.counters(), want);

  m.Clear();
  EXPECT_TRUE(m.counters().empty());
  EXPECT_EQ(m.GetCount("loop.depth_max"), 0);
  m.RecordMax(depth, -1);  // a gauge counted after a reset starts from 0
  m.Count(sent);
  want = {{"kd.sent", 1}, {"loop.depth_max", 0}};
  EXPECT_EQ(m.counters(), want);
}

TEST(FlatMapTest, SortedLookupInsertErase) {
  FlatMap<std::string, int> m;
  EXPECT_TRUE(m.emplace("b", 2).second);
  EXPECT_TRUE(m.emplace("a", 1).second);
  EXPECT_TRUE(m.emplace("c", 3).second);
  EXPECT_FALSE(m.emplace("b", 20).second);  // keeps the first value
  EXPECT_EQ(m.at("b"), 2);
  m["d"] = 4;
  m["a"] = 10;
  std::string keys;
  for (const auto& [k, v] : m) keys += k;
  EXPECT_EQ(keys, "abcd");
  EXPECT_EQ(m.at(std::string_view("a")), 10);
  EXPECT_TRUE(m.contains(std::string("c")));
  EXPECT_EQ(m.count("z"), 0u);
  EXPECT_EQ(m.find("z"), m.end());
  EXPECT_EQ(m.erase("c"), 1u);
  EXPECT_EQ(m.erase("c"), 0u);
  EXPECT_EQ(m.size(), 3u);
  FlatMap<std::string, int> copy = m;
  EXPECT_TRUE(copy == m);
  copy["a"] = 11;
  EXPECT_FALSE(copy == m);
}

// Maps past the linear-scan size take the binary search; a seeded walk
// of inserts and erases over up to 200 keys must agree with std::map.
TEST(FlatMapTest, LargeMapsMatchStdMap) {
  Rng rng(17);
  FlatMap<std::string, int> flat;
  std::map<std::string, int> want;
  for (int step = 0; step < 5000; ++step) {
    const std::string key = "k" + std::to_string(rng.UniformInt(200));
    const int value = static_cast<int>(rng.UniformInt(1000));
    switch (rng.UniformInt(3)) {
      case 0:
        EXPECT_EQ(flat.emplace(key, value).second,
                  want.emplace(key, value).second);
        break;
      case 1:
        flat[key] = value;
        want[key] = value;
        break;
      default:
        EXPECT_EQ(flat.erase(key), want.erase(key));
    }
    const std::string probe = "k" + std::to_string(rng.UniformInt(200));
    auto it = flat.find(probe);
    ASSERT_EQ(it != flat.end(), want.count(probe) == 1) << probe;
    if (it != flat.end()) {
      EXPECT_EQ(it->second, want.at(probe));
    }
  }
  ASSERT_GT(flat.size(), 16u);
  ASSERT_EQ(flat.size(), want.size());
  auto w = want.begin();
  for (const auto& [k, v] : flat) {
    EXPECT_EQ(k, w->first);
    EXPECT_EQ(v, w->second);
    ++w;
  }
}

TEST(MetricsRecorderTest, DurationsRecordedInMillis) {
  MetricsRecorder m;
  m.RecordDuration("api_call", Milliseconds(12));
  EXPECT_DOUBLE_EQ(m.GetSample("api_call").Mean(), 12.0);
}

TEST(MetricsRecorderTest, SpanTracksMakespan) {
  MetricsRecorder m;
  m.MarkStart("scheduler", Milliseconds(10));
  m.MarkStop("scheduler", Milliseconds(25));
  m.MarkStart("scheduler", Milliseconds(5));
  m.MarkStop("scheduler", Milliseconds(20));
  EXPECT_EQ(m.GetSpan("scheduler"), Milliseconds(20));
  EXPECT_EQ(m.GetFirstStart("scheduler"), Milliseconds(5));
  EXPECT_EQ(m.GetLastStop("scheduler"), Milliseconds(25));
}

TEST(MetricsRecorderTest, SpanUnmarkedIsZero) {
  MetricsRecorder m;
  EXPECT_EQ(m.GetSpan("nothing"), 0);
}

TEST(MetricsRecorderTest, BusyAccumulates) {
  MetricsRecorder m;
  m.AddBusy("rs", Milliseconds(2));
  m.AddBusy("rs", Milliseconds(3));
  EXPECT_EQ(m.GetBusy("rs"), Milliseconds(5));
}

TEST(MetricsRecorderTest, ClearResetsAll) {
  MetricsRecorder m;
  m.Count("a");
  m.RecordValue("b", 1.0);
  m.MarkStart("c", 1);
  m.Clear();
  EXPECT_EQ(m.GetCount("a"), 0);
  EXPECT_TRUE(m.GetSample("b").empty());
  EXPECT_EQ(m.GetSpan("c"), 0);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("pod-%d on %s", 3, "node1"), "pod-3 on node1");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringsTest, StrSplit) {
  auto parts = StrSplit("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_EQ(StrSplit("", '.').size(), 1u);
  EXPECT_EQ(StrSplit("a..b", '.').size(), 3u);
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("spec.nodeName", "spec"));
  EXPECT_FALSE(StartsWith("spec", "spec.nodeName"));
}

TEST(StringsTest, StrJoinSkipsEmpty) {
  EXPECT_EQ(StrJoin({"a", "", "b"}, "."), "a.b");
  EXPECT_EQ(StrJoin({}, "."), "");
}

}  // namespace
}  // namespace kd
