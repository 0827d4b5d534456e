// Operational-resilience scenarios (ROADMAP item 4): declarative
// fault/ops schedules replayed against a Kd cluster under live FaaS
// load, with explicit acceptance ratios per scenario.
//
// Scenarios (numbers in BENCH_scenarios.json):
//   spot-wave       — half the spot pool reclaimed with 10 s notice,
//                     respawning later: the Scheduler's reclaim drain
//                     moves capacity ahead of the pull, the Gateway
//                     fails the stragglers over; cold-start p99 must
//                     stay ≤ 2x the quiet baseline.
//   rolling-upgrade — serial downstream-first restart of every
//                     controller and control-plane shard under load
//                     (p99 ≤ 2x quiet).
//   flash-crowd     — a 6x arrival spike, ramped over 5 s
//                     (p99 ≤ 3x quiet).
//   reclaim-crowd   — the compound case: a reclaim wave lands inside a
//                     4x crowd (p99 ≤ 4x quiet).
//
// Every scenario additionally requires ZERO lost invocations: each
// request issued completes (reclaims and restarts may slow requests,
// never drop them). The same schedule + seed replays byte-identically.
#include <cstdio>
#include <string>
#include <vector>

#include "faas/backend.h"
#include "faas/platform.h"
#include "harness.h"
#include "scenario/runner.h"

namespace kd::bench {
namespace {

using scenario::ParseSchedule;
using scenario::RunnerConfig;
using scenario::Schedule;
using scenario::ScenarioRunner;
using scenario::SloGuard;

struct ScenarioConfig {
  int ondemand_nodes = 8;
  int spot_nodes = 8;
  int functions = 6;
  double base_rps = 2.0;  // per function
  Duration length = Seconds(120);
  std::string schedule_text;  // "" = quiet baseline
  // Quiet-run cold p99 (ms) for the in-run SloGuard; 0 disables it.
  double quiet_cold_p99_ms = 0;
  double accept_ratio = 0;
};

struct ScenarioResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  Sample cold_ms;       // scheduling latency of cold starts, whole run
  Sample late_cold_ms;  // cold starts arriving after warmup (t >= 15s):
                        // scenario-induced, not scale-from-zero boot
  std::uint64_t instances_failed = 0;
  std::uint64_t requeued = 0;
  std::int64_t nodes_drained = 0;
  std::vector<ScenarioRunner::LogEntry> op_log;
  std::vector<SloGuard::Breach> breaches;
  PhaseTimes phases;
  EngineStats engine;

  double ColdP99() const { return cold_ms.empty() ? 0.0 : cold_ms.P99(); }
  bool LostNone() const { return completed == issued; }
};

ScenarioResult RunScenario(const ScenarioConfig& config) {
  ScenarioResult result;
  PhaseClock clock;
  {
    sim::Engine engine;
    cluster::ClusterConfig cluster_config =
        cluster::ClusterConfig::Kd(config.ondemand_nodes + config.spot_nodes);
    cluster_config.cost.kd_direct_endpoint_publish = true;
    cluster_config.node_pools = {{"ondemand", config.ondemand_nodes},
                                 {"spot", config.spot_nodes}};
    // Upgrade-pause anti-flap: a freshly (re)started autoscaler holds
    // scale-downs until its view has been steady for a while.
    cluster_config.autoscaler.scale_down_hold = Seconds(10);
    cluster::Cluster cluster(engine, std::move(cluster_config));
    cluster.Boot();
    faas::ClusterBackend backend(cluster);
    faas::Platform platform(engine, backend, faas::PolicyParams::Knative());

    std::vector<std::string> names;
    for (int f = 0; f < config.functions; ++f) {
      names.push_back(StrFormat("fn-%02d", f));
      faas::FunctionSpec spec;
      spec.name = names.back();
      platform.RegisterFunction(spec);
    }
    platform.Start();
    const Duration kSettle = Milliseconds(500);
    engine.RunFor(kSettle);

    const Schedule schedule =
        ParseSchedule(config.schedule_text).value_or(Schedule{});

    RunnerConfig runner_config;
    runner_config.functions = names;
    runner_config.horizon = config.length + Minutes(2);
    runner_config.slo.check_no_lost = true;
    runner_config.slo.endpoint_staleness = Seconds(30);
    if (config.quiet_cold_p99_ms > 0 && config.accept_ratio > 0) {
      runner_config.slo.quiet_cold_p99_ms = config.quiet_cold_p99_ms;
      runner_config.slo.cold_p99_ratio = config.accept_ratio;
    }
    ScenarioRunner runner(cluster, schedule, runner_config, &platform);
    runner.Start();
    result.phases.setup_s = clock.Lap();

    // Flash crowds shape load plan-side: arrivals are integrated from
    // the schedule's crowd profile, phased per function so the fleet
    // does not invoke in lockstep.
    const Duration kReqDuration = Milliseconds(150);
    for (int f = 0; f < config.functions; ++f) {
      const std::vector<Duration> plan = scenario::ArrivalPlan(
          schedule, config.length, config.base_rps, f * Milliseconds(37));
      result.issued += plan.size();
      for (const Duration at : plan) {
        const std::string name = names[static_cast<std::size_t>(f)];
        engine.ScheduleAt(engine.now() + at, [&platform, name, kReqDuration] {
          platform.Invoke(name, kReqDuration);
        });
      }
    }
    engine.RunFor(config.length + Minutes(2));  // clip + drain
    result.phases.run_s = clock.Lap();

    for (const faas::RequestRecord& record : platform.gateway().records()) {
      if (record.cold_start) {
        result.cold_ms.Add(ToMillis(record.SchedulingLatency()));
        if (record.arrival - kSettle >= Seconds(15)) {
          result.late_cold_ms.Add(ToMillis(record.SchedulingLatency()));
        }
      }
    }
    result.completed = platform.gateway().records().size();
    result.instances_failed = platform.gateway().instances_failed();
    result.requeued = platform.gateway().requeued_on_failure();
    result.nodes_drained = cluster.metrics().GetCount("nodes_draining");
    result.op_log = runner.op_log();
    result.breaches = runner.guard().breaches();
    result.engine = CaptureEngineStats(engine);
  }
  result.phases.teardown_s = clock.Lap();
  return result;
}

struct ScenarioDef {
  const char* key;
  const char* schedule;
  double accept_ratio;  // cold-start p99 vs quiet baseline
};

const ScenarioDef kScenarios[] = {
    {"spot-wave",
     "at 30s spot-reclaim pool=spot fraction=0.5 notice=10s respawn=40s\n",
     2.0},
    {"rolling-upgrade",
     "at 30s rolling-upgrade order=downstream-first pause=2s down=500ms\n",
     2.0},
    {"flash-crowd", "at 30s flash-crowd factor=6 ramp=5s hold=20s\n", 3.0},
    {"reclaim-crowd",
     // The compound case, with NO grace notice (some providers give
     // none): the machines vanish mid-crowd, and whatever was running
     // on them fails over abruptly through Gateway::FailInstances.
     "at 30s flash-crowd factor=4 ramp=5s hold=30s\n"
     "at 40s spot-reclaim pool=spot fraction=0.5 notice=0s respawn=30s\n",
     4.0},
};

const ScenarioResult& QuietBaseline() {
  static const ScenarioResult result = RunScenario(ScenarioConfig{});
  return result;
}

struct Row {
  std::string key;
  double accept_ratio = 0;
  ScenarioResult result;
};

std::vector<Row>& Results() {
  static std::vector<Row> rows;
  return rows;
}

void BM_Scenario(benchmark::State& state, const ScenarioDef& def) {
  ScenarioConfig config;
  config.schedule_text = def.schedule;
  config.quiet_cold_p99_ms = QuietBaseline().ColdP99();
  config.accept_ratio = def.accept_ratio;
  ScenarioResult result;
  for (auto _ : state) {
    result = RunScenario(config);
  }
  state.counters["cold_p99_ms"] = result.ColdP99();
  state.counters["lost"] =
      static_cast<double>(result.issued - result.completed);
  state.counters["instances_failed"] =
      static_cast<double>(result.instances_failed);
  Results().push_back(Row{def.key, def.accept_ratio, result});
}

BENCHMARK_CAPTURE(BM_Scenario, SpotWave, kd::bench::kScenarios[0])
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK_CAPTURE(BM_Scenario, RollingUpgrade, kd::bench::kScenarios[1])
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK_CAPTURE(BM_Scenario, FlashCrowd, kd::bench::kScenarios[2])
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK_CAPTURE(BM_Scenario, ReclaimCrowd, kd::bench::kScenarios[3])
    ->Unit(benchmark::kMillisecond)->Iterations(1);

bool Accepted(const Row& row) {
  const double quiet = QuietBaseline().ColdP99();
  return row.result.LostNone() && quiet > 0 &&
         row.result.ColdP99() <= row.accept_ratio * quiet;
}

void PrintScenarioReport() {
  const ScenarioResult& quiet = QuietBaseline();
  PrintHeader("resilience scenarios — cold-start scheduling latency (ms)",
              {"scenario", "p50", "p99", "mean", "vs quiet", "limit",
               "lost", "verdict"});
  PrintRow(SummaryRow("quiet", quiet.cold_ms, 0, 0, 0));
  for (const Row& row : Results()) {
    std::vector<std::string> cells =
        SummaryRow(row.key, row.result.cold_ms, 0, 0, 0);
    cells.push_back(RatioF(row.result.ColdP99(), quiet.ColdP99()));
    cells.push_back(StrFormat("%.1fx", row.accept_ratio));
    cells.push_back(StrFormat(
        "%lld",
        static_cast<long long>(row.result.issued - row.result.completed)));
    cells.push_back(Accepted(row) ? "pass" : "FAIL");
    PrintRow(cells);
  }
  PrintHeader("scenario ops",
              {"scenario", "ops", "late colds", "drained", "failed",
               "requeued", "slo breaches"});
  for (const Row& row : Results()) {
    PrintRow({row.key, StrFormat("%zu", row.result.op_log.size()),
              StrFormat("%zu", row.result.late_cold_ms.count()),
              StrFormat("%lld", (long long)row.result.nodes_drained),
              StrFormat("%llu", (unsigned long long)row.result.instances_failed),
              StrFormat("%llu", (unsigned long long)row.result.requeued),
              StrFormat("%zu", row.result.breaches.size())});
  }
}

void WriteJson(const char* path) {
  // A --benchmark_filter that matched nothing leaves the last record
  // in place instead of overwriting it with an empty one.
  if (Results().empty()) return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  const ScenarioResult& quiet = QuietBaseline();
  std::fprintf(f,
               "{\n"
               "  \"comment\": \"Operational-resilience scenarios on a Kd "
               "cluster (8 ondemand + 8 spot nodes, 6 functions at 2 rps "
               "each). accept = cold-start p99 within the ratio of the "
               "quiet baseline AND zero lost invocations. Regenerate with: "
               "build/bench/bench_scenarios (writes "
               "./BENCH_scenarios.json).\",\n"
               "  \"quiet\": {\"cold_starts\": %zu, \"cold_p99_ms\": %.1f, "
               "\"late_cold_starts\": %zu},\n"
               "  \"scenarios\": {\n",
               quiet.cold_ms.count(), quiet.ColdP99(),
               quiet.late_cold_ms.count());
  for (std::size_t i = 0; i < Results().size(); ++i) {
    const Row& row = Results()[i];
    std::fprintf(
        f,
        "    \"%s\": {\n"
        "      \"issued\": %llu,\n"
        "      \"completed\": %llu,\n"
        "      \"lost\": %lld,\n"
        "      \"cold_starts\": %zu,\n"
        "      \"cold_p50_ms\": %.1f,\n"
        "      \"cold_p99_ms\": %.1f,\n"
        "      \"late_cold_starts\": %zu,\n"
        "      \"late_cold_p99_ms\": %.1f,\n"
        "      \"ratio_vs_quiet\": %.2f,\n"
        "      \"accept_ratio\": %.1f,\n"
        "      \"instances_failed\": %llu,\n"
        "      \"requeued_on_failure\": %llu,\n"
        "      \"nodes_drained\": %lld,\n"
        "      \"slo_breaches\": %zu,\n"
        "      \"accepted\": %s,\n"
        "      \"phases\": %s,\n"
        "      \"engine\": %s\n"
        "    }%s\n",
        row.key.c_str(), (unsigned long long)row.result.issued,
        (unsigned long long)row.result.completed,
        (long long)(row.result.issued - row.result.completed),
        row.result.cold_ms.count(),
        row.result.cold_ms.empty() ? 0.0 : row.result.cold_ms.Median(),
        row.result.ColdP99(), row.result.late_cold_ms.count(),
        row.result.late_cold_ms.empty() ? 0.0 : row.result.late_cold_ms.P99(),
        quiet.ColdP99() > 0 ? row.result.ColdP99() / quiet.ColdP99() : 0.0,
        row.accept_ratio, (unsigned long long)row.result.instances_failed,
        (unsigned long long)row.result.requeued,
        (long long)row.result.nodes_drained, row.result.breaches.size(),
        Accepted(row) ? "true" : "false",
        PhasesJson(row.result.phases).c_str(),
        EngineStatsJson(row.result.engine).c_str(),
        i + 1 < Results().size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

// --smoke: one tiny spot-wave clip; checks the reclaim pipeline end to
// end (notice honoured, instances failed over, nothing lost).
int RunSmoke() {
  ScenarioConfig config;
  config.ondemand_nodes = 2;
  config.spot_nodes = 2;
  config.functions = 2;
  config.length = Seconds(20);
  config.schedule_text =
      "at 6s spot-reclaim pool=spot fraction=1.0 notice=4s respawn=6s\n";
  const ScenarioResult result = RunScenario(config);
  const bool ok = result.LostNone() && result.nodes_drained == 2 &&
                  !result.op_log.empty();
  std::printf("[smoke] issued=%llu completed=%llu drained=%lld ops=%zu\n",
              (unsigned long long)result.issued,
              (unsigned long long)result.completed,
              (long long)result.nodes_drained, result.op_log.size());
  return SmokeVerdict(ok, "spot-reclaim scenario (Kd clip)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  if (kd::bench::ConsumeSmokeFlag(argc, argv)) return kd::bench::RunSmoke();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  kd::bench::PrintScenarioReport();
  kd::bench::WriteJson("BENCH_scenarios.json");
  return 0;
}
