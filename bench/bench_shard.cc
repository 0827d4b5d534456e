// Sharded control plane at full scale: M = 16000 nodes and K = 10000
// functions, each function cold-started exactly once, pushed through
// an S = 16-way keyspace-partitioned API-server plane with APF flow
// control enabled (ROADMAP item 1 at its target scale).
//
// What this measures (numbers in BENCH_shard.json):
//   - K8s mode funnels every provisioning step (pod create, bind,
//     status, endpoints) through the API servers, so the K=10k burst
//     serializes behind the per-shard APF seats — cold-start p99 lands
//     ~40x above Kd's, which provisions over the hierarchy links;
//   - the per-shard queue/inflight maxima are dominated by the
//     M=16000 boot storm (node registration + kubelet adopt lists) in
//     BOTH modes: sharding+APF is what absorbs cluster bring-up, not
//     just the cold-start burst;
//   - Kd is not API-free at this scale: distributing K=10k ReplicaSet
//     templates to M=16k kubelet informers costs ~10M watch events
//     per shard (the O(M*K) materialization-cache sync) — the API load
//     Kd retains is reads/watches, which shard perfectly;
//   - FNV-1a routing keeps the keyspace balanced: per-shard object
//     counts come out near uniform with no placement coordination.
//
// Results are written to BENCH_shard.json (per-mode cold-start p99 +
// per-shard queue-depth/inflight maxima + keyspace balance).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apiserver/shard.h"
#include "faas/backend.h"
#include "faas/platform.h"
#include "harness.h"

namespace kd::bench {
namespace {

// BENCH_SHARD_NODES / BENCH_SHARD_FUNCTIONS override the full-run
// scale (e.g. the M=32000 sweep recorded in EXPERIMENTS.md) without
// touching the committed default shape of BENCH_shard.json.
int EnvScale(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const int n = std::atoi(env);
  return n > 0 ? n : fallback;
}

struct ShardBenchConfig {
  controllers::Mode mode = controllers::Mode::kKd;
  int num_nodes = EnvScale("BENCH_SHARD_NODES", 16000);
  int num_functions = EnvScale("BENCH_SHARD_FUNCTIONS", 10000);
  int num_shards = 16;
  int apf_seats = 64;  // per-shard concurrency seats (APF on)
  // First invocations are spread uniformly over this window; each
  // function is invoked exactly once, so every request is a
  // scale-from-zero cold start.
  Duration arrival_window = Seconds(10);
  Duration deadline = Minutes(60);
};

struct ShardStats {
  std::int64_t objects = 0;
  std::int64_t inflight_max = 0;
  std::int64_t apf_queue_depth_max = 0;
  std::int64_t watch_events = 0;
};

struct ShardBenchResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  Sample cold_ms;  // scheduling latency of cold-started requests
  double sim_s = 0;
  std::vector<ShardStats> shards;
  bool converged = false;  // every issued request completed
  PhaseTimes phases;
  EngineStats engine;
};

ShardBenchResult RunShardBench(const ShardBenchConfig& config) {
  ShardBenchResult result;
  PhaseClock clock;
  {
    sim::Engine engine;
    cluster::ClusterConfig cluster_config;
    cluster_config.mode = config.mode;
    cluster_config.num_nodes = config.num_nodes;
    cluster_config.num_shards = config.num_shards;
    cluster_config.cost.apf_seats = config.apf_seats;
    // Minimal pod template: K pods x several caches at M=16000 — the
    // load under test is API traffic volume, not wire size.
    cluster_config.realistic_pod_template = false;
    cluster::Cluster cluster(engine, std::move(cluster_config));
    cluster.Boot();
    faas::ClusterBackend backend(cluster);
    faas::Platform platform(engine, backend, faas::PolicyParams::Knative());

    for (int f = 0; f < config.num_functions; ++f) {
      faas::FunctionSpec spec;
      spec.name = StrFormat("fn-%05d", f);
      platform.RegisterFunction(spec);
    }
    platform.Start();
    const Duration kSettle = Milliseconds(500);
    engine.RunFor(kSettle);
    result.phases.setup_s = clock.Lap();

    const Duration kReqDuration = Milliseconds(100);
    result.issued = static_cast<std::uint64_t>(config.num_functions);
    for (int f = 0; f < config.num_functions; ++f) {
      const Duration at =
          kSettle + (config.arrival_window * f) / config.num_functions;
      const std::string name = StrFormat("fn-%05d", f);
      engine.ScheduleAt(at, [&platform, name, kReqDuration] {
        platform.Invoke(name, kReqDuration);
      });
    }

    // Run to convergence (every request completed) or the deadline.
    const Duration kChunk = Seconds(5);
    for (Duration ran = 0;
         ran < config.deadline &&
         platform.gateway().records().size() < result.issued;
         ran += kChunk) {
      engine.RunFor(kChunk);
    }
    result.phases.run_s = clock.Lap();

    for (const faas::RequestRecord& r : platform.gateway().records()) {
      result.completed++;
      if (r.cold_start) {
        result.cold_ms.Add(static_cast<double>(r.SchedulingLatency()) /
                           static_cast<double>(Milliseconds(1)));
      }
    }
    result.converged = result.completed == result.issued;
    result.sim_s = ToSeconds(engine.now());

    apiserver::ControlPlane& plane = cluster.apiserver();
    for (int s = 0; s < plane.num_shards(); ++s) {
      MetricsRecorder& m = plane.shard(s).metrics();
      ShardStats stats;
      stats.objects = static_cast<std::int64_t>(plane.shard(s).object_count());
      stats.inflight_max = m.GetCount("api.inflight_max");
      stats.apf_queue_depth_max = m.GetCount("apf.queue_depth_max");
      stats.watch_events = m.GetCount("watch_events");
      result.shards.push_back(stats);
    }
    result.engine = CaptureEngineStats(engine);
  }
  // Scrape + destruction (K x M informer caches) land in teardown.
  result.phases.teardown_s = clock.Lap();
  return result;
}

std::string VariantName(controllers::Mode mode) {
  return mode == controllers::Mode::kKd ? "Kd" : "K8s";
}

std::vector<std::pair<std::string, ShardBenchResult>>& Results() {
  static std::vector<std::pair<std::string, ShardBenchResult>> results;
  return results;
}

void BM_Shard(benchmark::State& state, controllers::Mode mode) {
  ShardBenchConfig config;
  config.mode = mode;
  ShardBenchResult result;
  for (auto _ : state) {
    result = RunShardBench(config);
  }
  state.counters["cold_p99_ms"] =
      result.cold_ms.empty() ? 0.0 : result.cold_ms.P99();
  state.counters["completed"] = static_cast<double>(result.completed);
  state.counters["converged"] = result.converged ? 1 : 0;
  std::int64_t queue_max = 0;
  for (const ShardStats& s : result.shards) {
    queue_max = std::max(queue_max, s.apf_queue_depth_max);
  }
  state.counters["apf_queue_depth_max"] = static_cast<double>(queue_max);
  Results().emplace_back(VariantName(mode), result);
}

BENCHMARK_CAPTURE(BM_Shard, K8s, kd::controllers::Mode::kK8s)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK_CAPTURE(BM_Shard, Kd, kd::controllers::Mode::kKd)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void WriteJson(const char* path) {
  // A --benchmark_filter that matched nothing leaves the last record
  // in place instead of overwriting it with an empty one.
  if (Results().empty()) return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  const ShardBenchConfig defaults;
  std::fprintf(f,
               "{\n"
               "  \"comment\": \"Sharded control plane at M=16000/K=10000: "
               "each function cold-started once through an S=16 plane with "
               "APF enabled. Regenerate with: build/bench/bench_shard "
               "(writes ./BENCH_shard.json).\",\n"
               "  \"config\": {\n"
               "    \"nodes\": %d,\n"
               "    \"functions\": %d,\n"
               "    \"shards\": %d,\n"
               "    \"apf_seats\": %d\n"
               "  },\n"
               "  \"modes\": {\n",
               defaults.num_nodes, defaults.num_functions, defaults.num_shards,
               defaults.apf_seats);
  for (std::size_t i = 0; i < Results().size(); ++i) {
    const auto& [name, r] = Results()[i];
    std::fprintf(f,
                 "    \"%s\": {\n"
                 "      \"issued\": %llu,\n"
                 "      \"completed\": %llu,\n"
                 "      \"converged\": %s,\n"
                 "      \"cold_starts\": %zu,\n"
                 "      \"cold_p50_ms\": %.1f,\n"
                 "      \"cold_p99_ms\": %.1f,\n"
                 "      \"sim_s\": %.1f,\n"
                 "      \"phases\": %s,\n"
                 "      \"engine\": %s,\n"
                 "      \"per_shard\": [\n",
                 name.c_str(), (unsigned long long)r.issued,
                 (unsigned long long)r.completed,
                 r.converged ? "true" : "false", r.cold_ms.count(),
                 r.cold_ms.empty() ? 0.0 : r.cold_ms.Median(),
                 r.cold_ms.empty() ? 0.0 : r.cold_ms.P99(), r.sim_s,
                 PhasesJson(r.phases).c_str(),
                 EngineStatsJson(r.engine).c_str());
    for (std::size_t s = 0; s < r.shards.size(); ++s) {
      const ShardStats& stats = r.shards[s];
      std::fprintf(f,
                   "        {\"shard\": %zu, \"objects\": %lld, "
                   "\"inflight_max\": %lld, \"apf_queue_depth_max\": %lld, "
                   "\"watch_events\": %lld}%s\n",
                   s, (long long)stats.objects, (long long)stats.inflight_max,
                   (long long)stats.apf_queue_depth_max,
                   (long long)stats.watch_events,
                   s + 1 < r.shards.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n",
                 i + 1 < Results().size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void PrintShardReport() {
  PrintHeader(
      "Sharded control plane (S=16, APF on): K=10000 cold starts at M=16000",
      {"mode", "completed", "cold p50", "cold p99", "queue max", "converged"});
  for (const auto& [name, r] : Results()) {
    std::int64_t queue_max = 0;
    std::int64_t inflight_max = 0;
    for (const ShardStats& s : r.shards) {
      queue_max = std::max(queue_max, s.apf_queue_depth_max);
      inflight_max = std::max(inflight_max, s.inflight_max);
    }
    PrintRow({name,
              StrFormat("%llu/%llu", (unsigned long long)r.completed,
                        (unsigned long long)r.issued),
              r.cold_ms.empty() ? "-" : StrFormat("%.0fms", r.cold_ms.Median()),
              r.cold_ms.empty() ? "-" : StrFormat("%.0fms", r.cold_ms.P99()),
              StrFormat("%lld", (long long)queue_max),
              r.converged ? "yes" : "NO"});
  }
  PrintHeader("per-shard load (max over shards / min over shards)",
              {"mode", "objects", "inflight max", "queue max", "watch evts"});
  for (const auto& [name, r] : Results()) {
    ShardStats lo = r.shards.empty() ? ShardStats{} : r.shards[0];
    ShardStats hi = lo;
    for (const ShardStats& s : r.shards) {
      lo.objects = std::min(lo.objects, s.objects);
      hi.objects = std::max(hi.objects, s.objects);
      lo.inflight_max = std::min(lo.inflight_max, s.inflight_max);
      hi.inflight_max = std::max(hi.inflight_max, s.inflight_max);
      lo.apf_queue_depth_max =
          std::min(lo.apf_queue_depth_max, s.apf_queue_depth_max);
      hi.apf_queue_depth_max =
          std::max(hi.apf_queue_depth_max, s.apf_queue_depth_max);
      lo.watch_events = std::min(lo.watch_events, s.watch_events);
      hi.watch_events = std::max(hi.watch_events, s.watch_events);
    }
    PrintRow({name,
              StrFormat("%lld/%lld", (long long)hi.objects,
                        (long long)lo.objects),
              StrFormat("%lld/%lld", (long long)hi.inflight_max,
                        (long long)lo.inflight_max),
              StrFormat("%lld/%lld", (long long)hi.apf_queue_depth_max,
                        (long long)lo.apf_queue_depth_max),
              StrFormat("%lld/%lld", (long long)hi.watch_events,
                        (long long)lo.watch_events)});
  }

  const ShardBenchResult* k8s = nullptr;
  const ShardBenchResult* kd = nullptr;
  for (const auto& [name, r] : Results()) {
    if (name == "K8s") k8s = &r;
    if (name == "Kd") kd = &r;
  }
  if (k8s != nullptr && kd != nullptr && !k8s->cold_ms.empty() &&
      !kd->cold_ms.empty()) {
    std::printf(
        "\nHeadline: Kd cold-start p99 %.0f ms vs K8s %.0f ms (%.1fx) — the "
        "K8s-mode burst serializes behind the per-shard APF seats; Kd's "
        "placement writes bypass the plane\n",
        kd->cold_ms.P99(), k8s->cold_ms.P99(),
        k8s->cold_ms.P99() / kd->cold_ms.P99());
  }
}

// --smoke: the same shape at M=60/K=24/S=4, both modes; checks
// convergence, that every request cold-started, and that FNV routing
// actually spread the keyspace across shards.
int RunSmoke() {
  bool ok = true;
  for (const controllers::Mode mode :
       {controllers::Mode::kK8s, controllers::Mode::kKd}) {
    ShardBenchConfig config;
    config.mode = mode;
    config.num_nodes = 60;
    config.num_functions = 24;
    config.num_shards = 4;
    config.apf_seats = 8;
    config.arrival_window = Seconds(2);
    config.deadline = Minutes(10);
    const ShardBenchResult result = RunShardBench(config);
    int shards_with_objects = 0;
    for (const ShardStats& s : result.shards) {
      if (s.objects > 0) ++shards_with_objects;
    }
    ok = ok && result.converged && result.cold_ms.count() == 24 &&
         shards_with_objects >= 2;
  }
  return SmokeVerdict(ok, "sharded control plane (S=4 clip, both modes)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  if (kd::bench::ConsumeSmokeFlag(argc, argv)) return kd::bench::RunSmoke();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  kd::bench::PrintShardReport();
  kd::bench::WriteJson("BENCH_shard.json");
  return 0;
}
