// perfbench: the repository benchmark's workload program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//   perfbench --list-metrics
//
// Workloads (closed, one-shot replays on the virtual clock, all load
// from this one process, serial engine):
//
//   kd-upscale-m4000  Fig. 11: a Kd cluster of M=4000 nodes with the
//                     minimal pod template scales one function to 4000
//                     pods. A pure create burst at large M.
//   azure-knkd        Fig. 12 on Kn/Kd: the 30-min Azure-like trace
//                     (500 functions, ~168k invocations) on 80 nodes.
//   azure-knk8s       The same trace and seed on Kn/K8s: every step goes
//                     through the API server, and no Kd traffic at all.
//
// An untraced run (--trace 0) sets up several times (setup_s is their
// median) and replays the workload until --seconds have passed, at
// least twice. Each replay is timed in segments that do the same
// simulated work every time (each RunUntil slice, collection,
// teardown); run_s sums every segment at its fastest across the
// replays, and run_norm_s does the same after scaling each segment to
// a fixed host speed (host_speed.h). Both keep other tenants' bursts on
// a shared host out of the figure.
//
// A traced run (--trace 1) replays twice untraced and once traced. The
// traced replay records spans around every call perfbench makes into
// a layer, plus the host time between engine events; comparing it with
// the untraced replays gives the tracing overhead. It also runs the
// fixed-input layer probes.
//
// The last line of output is one JSON report with every metric by
// name, with its unit; run.py checks it and prints the result line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apiserver/apiserver.h"
#include "cluster/cluster.h"
#include "common/cost_model.h"
#include "common/strings.h"
#include "faas/backend.h"
#include "faas/platform.h"
#include "host_speed.h"
#include "kubedirect/message.h"
#include "metrics.h"
#include "model/objects.h"
#include "sim/engine.h"
#include "trace/azure.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace kd::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- metric catalogue ------------------------------------------------
// Every name the report may carry. `exact` metrics are simulated (or
// counts) and repeat bit-for-bit per seed: run.py compares them with
// the recorded values in expected.json.
enum class Kind { kEndToEnd, kHost, kSimulated, kLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
  bool exact;
};

constexpr MetricDef kCatalogue[] = {
    // End to end, host time and memory.
    {"run_norm_s", "s", Kind::kEndToEnd, false},
    {"setup_s", "s", Kind::kEndToEnd, false},
    {"peak_rss_mb", "MB", Kind::kEndToEnd, false},
    // End to end, simulated (defined on every workload).
    {"cp_msgs_per_pod", "msg/pod", Kind::kEndToEnd, true},
    {"cp_bytes_per_pod", "B/pod", Kind::kEndToEnd, true},
    // Host time as measured, not normalized (see run_norm_s).
    {"run_s", "s", Kind::kHost, false},
    // Simulated, defined on some workloads only.
    {"upscale_sim_s", "s", Kind::kSimulated, true},
    {"pods_requested", "count", Kind::kSimulated, true},
    {"pods_ready", "count", Kind::kSimulated, true},
    {"cold_start_p50_ms", "ms", Kind::kSimulated, true},
    {"cold_start_p999_ms", "ms", Kind::kSimulated, true},
    {"fn_samples", "count", Kind::kSimulated, true},
    {"fn_slowdown_p50", "x", Kind::kSimulated, true},
    {"fn_slowdown_p98", "x", Kind::kSimulated, true},
    {"fn_sched_latency_p50_ms", "ms", Kind::kSimulated, true},
    {"fn_sched_latency_p98_ms", "ms", Kind::kSimulated, true},
    {"slo_miss_frac", "frac", Kind::kSimulated, true},
    {"failed_frac", "frac", Kind::kSimulated, true},
    // Per layer.
    {"sim.events", "count", Kind::kLayer, true},
    {"sim.host_ns_per_event", "ns", Kind::kLayer, false},
    {"sim.event_host_us_p50", "us", Kind::kLayer, false},
    {"sim.event_host_us_p99", "us", Kind::kLayer, false},
    {"sim.event_host_us_max", "us", Kind::kLayer, false},
    {"sim.probe_sched_ns", "ns", Kind::kLayer, false},
    {"sim.probe_cancel_ns", "ns", Kind::kLayer, false},
    {"model.probe_pod_serialize_us", "us", Kind::kLayer, false},
    {"model.probe_pod_parse_us", "us", Kind::kLayer, false},
    {"model.probe_pod_copy_ns", "ns", Kind::kLayer, false},
    {"apiserver.writes", "count", Kind::kLayer, true},
    {"apiserver.reads", "count", Kind::kLayer, true},
    {"apiserver.watch_events", "count", Kind::kLayer, true},
    {"apiserver.bytes_out", "B", Kind::kLayer, true},
    {"apiserver.deadline_exceeded", "count", Kind::kLayer, true},
    {"apiserver.inflight_max", "count", Kind::kLayer, true},
    {"apiserver.call_latency_p50_ms", "ms", Kind::kLayer, true},
    {"apiserver.call_latency_p99_ms", "ms", Kind::kLayer, true},
    {"apiserver.probe_fanout_ns_per_delivery", "ns", Kind::kLayer, false},
    {"runtime.relists", "count", Kind::kLayer, true},
    {"runtime.queue_depth_max", "count", Kind::kLayer, true},
    {"runtime.client_faults", "count", Kind::kLayer, true},
    {"controllers.pods_created", "count", Kind::kLayer, true},
    {"controllers.pods_deleted", "count", Kind::kLayer, true},
    {"controllers.sandboxes_started", "count", Kind::kLayer, true},
    {"controllers.kubelet_pod_latency_p99_ms", "ms", Kind::kLayer, true},
    {"stage.autoscaler_ms", "ms", Kind::kLayer, true},
    {"stage.deployment_ms", "ms", Kind::kLayer, true},
    {"stage.replicaset_ms", "ms", Kind::kLayer, true},
    {"stage.scheduler_ms", "ms", Kind::kLayer, true},
    {"stage.kubelet_ms", "ms", Kind::kLayer, true},
    {"stage.endpoints_ms", "ms", Kind::kLayer, true},
    {"kubedirect.msgs", "count", Kind::kLayer, true},
    {"kubedirect.bytes", "B", Kind::kLayer, true},
    {"kubedirect.handshakes", "count", Kind::kLayer, true},
    {"kubedirect.probe_batch_codec_us", "us", Kind::kLayer, false},
    {"faas.invocations", "count", Kind::kLayer, true},
    {"faas.completed", "count", Kind::kLayer, true},
    {"faas.cold_starts", "count", Kind::kLayer, true},
    {"faas.queued_starts", "count", Kind::kLayer, true},
    {"faas.scale_calls", "count", Kind::kLayer, true},
    {"faas.invoke_host_us", "us", Kind::kLayer, false},
    {"trace.generate_s", "s", Kind::kLayer, false},
    {"cluster.boot_s", "s", Kind::kLayer, false},
    {"cluster.register_s", "s", Kind::kLayer, false},
    {"cluster.teardown_s", "s", Kind::kLayer, false},
    {"bench.poll_s", "s", Kind::kLayer, false},
    {"bench.poll_share", "frac", Kind::kLayer, false},
    {"bench.trace_overhead", "frac", Kind::kLayer, false},
    {"bench.host_reference_ms", "ms", Kind::kLayer, false},
};

const MetricDef* FindMetric(const std::string& name) {
  for (const MetricDef& m : kCatalogue) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kEndToEnd: return "end_to_end";
    case Kind::kHost: return "host";
    case Kind::kSimulated: return "simulated";
    case Kind::kLayer: return "per_layer";
  }
  return "?";
}

// Name -> value, restricted to the catalogue.
class Values {
 public:
  void Set(const std::string& name, double v) {
    if (FindMetric(name) == nullptr) {
      std::fprintf(stderr, "perfbench: metric %s is not in the catalogue\n",
                   name.c_str());
      std::abort();
    }
    values_[name] = v;
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  double Get(const std::string& name) const { return values_.at(name); }
  const std::map<std::string, double>& all() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

// --- spans -----------------------------------------------------------
// In-memory spans around perfbench's calls into each layer. A span
// records its name, host start/end, its parent span and a request id
// (invocation spans carry the invocation's index + 1; the others 0).
// Off by default: Begin/End are no-ops unless enabled.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::int32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  int Begin(const char* name, std::uint64_t id = 0) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, id, parent, Now(), 0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void End(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = Now();
    stack_.pop_back();
  }

  // Host-time gaps between consecutive engine events, fed by the
  // engine trace hook. A gap is the previous event's body plus the
  // queue pop; gaps that straddle the code between two RunUntil
  // slices are dropped (ResetGap at each slice start).
  void OnEvent() {
    const std::int64_t t = Now();
    if (last_event_ns_ >= 0) {
      gaps_ns_.push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(t - last_event_ns_, UINT32_MAX)));
    }
    last_event_ns_ = t;
  }
  void ResetGap() { last_event_ns_ = -1; }

  const std::vector<std::uint32_t>& gaps_ns() const { return gaps_ns_; }

  // Total and self host seconds per span name; self time is the span's
  // duration minus the part its child spans cover.
  std::map<std::string, std::pair<double, double>> TotalAndSelf() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double total =
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
      auto& [sum_total, sum_self] = out[spans_[i].name];
      sum_total += total;
      sum_self += total - static_cast<double>(child_ns[i]) * 1e-9;
    }
    return out;
  }

  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"span\": %zu, \"name\": \"%s\", \"id\": %llu, "
                   "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                   i, s.name, static_cast<unsigned long long>(s.id), s.parent,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns) * 1e-3);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::uint32_t> gaps_ns_;
  std::int64_t last_event_ns_ = -1;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t id = 0)
      : tracer_(t), index_(t.Begin(name, id)) {}
  ~Scope() { tracer_.End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// --- workloads -------------------------------------------------------

struct Workload {
  const char* name;
  bool trace_replay;  // false: one-shot upscale
  controllers::Mode mode;
  int nodes;
  bool realistic_pod_template;
  int pods;  // upscale target (upscale only)
};

constexpr Workload kWorkloads[] = {
    {"kd-upscale-m4000", false, controllers::Mode::kKd, 4000, false, 4000},
    {"azure-knkd", true, controllers::Mode::kKd, 80, true, 0},
    {"azure-knk8s", true, controllers::Mode::kK8s, 80, true, 0},
};

// The Fig. 12 trace (bench_e2e_knative's TraceSetup) for `seed`.
trace::TraceConfig AzureTraceConfig(std::uint64_t seed) {
  trace::TraceConfig config;
  config.num_functions = 500;
  config.length = Minutes(30);
  config.target_invocations = 168'000;
  config.burst_function_fraction = 0.12;
  config.burst_invocations_per_function = 2;
  config.seed = seed;
  return config;
}

constexpr Duration kWarmupUpscale = Milliseconds(200);
constexpr Duration kWarmupTrace = Milliseconds(500);
constexpr Duration kTraceDrain = Minutes(5);
constexpr Duration kTraceSlice = Minutes(1);
constexpr Duration kUpscaleDeadline = Minutes(60);
constexpr Duration kUpscaleTick = Milliseconds(5);
constexpr Duration kSloLimit = Seconds(1);

// Host seconds of each set-up step.
struct SetupTimes {
  double total = 0;
  double generate = 0;
  double boot = 0;
  double register_ = 0;
};

// Everything one replay consumes. Members are destroyed in reverse:
// the platform before its backend, the cluster before the engine.
struct World {
  sim::Engine engine;
  trace::AzureTrace trace;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<faas::ClusterBackend> backend;
  std::unique_ptr<faas::Platform> platform;
  Time start = 0;                    // virtual time at the end of set-up
  std::uint64_t events_at_start = 0;
  std::int64_t setup_handshakes = 0;
  std::vector<double> invoke_host_ns;  // traced replays only
};

cluster::ClusterConfig MakeClusterConfig(const Workload& w) {
  cluster::ClusterConfig config;
  config.mode = w.mode;
  config.num_nodes = w.nodes;
  config.sandbox = cluster::SandboxKind::kStock;
  config.realistic_pod_template = w.realistic_pod_template;
  // Serial engine, one API server, whatever KD_SHARDS / KD_LANES /
  // KD_THREADS say in the environment.
  config.num_shards = 1;
  config.lane_groups = 1;
  config.lane_threads = 1;
  return config;
}

std::vector<const MetricsRecorder*> ShardRecorders(cluster::Cluster& c) {
  std::vector<const MetricsRecorder*> out;
  for (int i = 0; i < c.apiserver().num_shards(); ++i) {
    out.push_back(&c.apiserver().shard(i).metrics());
  }
  return out;
}

std::unique_ptr<World> SetUp(const Workload& w, std::uint64_t seed,
                             Tracer& tracer, SetupTimes& times) {
  Scope setup_span(tracer, "setup");
  const Clock::time_point t0 = Clock::now();
  auto world = std::make_unique<World>();
  world->engine.SeedRng(seed);
  if (w.trace_replay) {
    Scope span(tracer, "trace.generate");
    const Clock::time_point t = Clock::now();
    world->trace = trace::AzureTrace::Generate(AzureTraceConfig(seed));
    times.generate = Since(t);
  }
  {
    Scope span(tracer, "cluster.construct");
    world->cluster = std::make_unique<cluster::Cluster>(world->engine,
                                                        MakeClusterConfig(w));
  }
  {
    Scope span(tracer, "cluster.boot");
    const Clock::time_point t = Clock::now();
    world->cluster->Boot();
    times.boot = Since(t);
  }
  cluster::Cluster& cluster = *world->cluster;
  {
    Scope span(tracer, "cluster.register");
    const Clock::time_point t = Clock::now();
    if (w.trace_replay) {
      world->backend = std::make_unique<faas::ClusterBackend>(cluster);
      world->platform = std::make_unique<faas::Platform>(
          world->engine, *world->backend, faas::PolicyParams::Knative());
      for (int f = 0; f < world->trace.num_functions(); ++f) {
        faas::FunctionSpec spec;
        spec.name = world->trace.FunctionName(f);
        world->platform->RegisterFunction(spec);
      }
      world->platform->Start();
    } else {
      cluster.RegisterFunction("fn-0000");
    }
    times.register_ = Since(t);
  }
  {
    Scope span(tracer, "warmup");
    world->engine.RunFor(w.trace_replay ? kWarmupTrace : kWarmupUpscale);
    if (w.trace_replay) {
      // Load the invocations: each fires Platform::Invoke at its trace
      // time (after the warm-up offset).
      World* wp = world.get();
      Tracer* tp = &tracer;
      const auto& events = world->trace.events();
      for (std::size_t i = 0; i < events.size(); ++i) {
        const trace::TraceEvent event = events[i];
        const std::uint64_t id = i + 1;
        world->engine.ScheduleAt(event.at + kWarmupTrace, [wp, tp, event, id] {
          const std::string fn = wp->trace.FunctionName(event.function);
          if (!tp->enabled()) {
            wp->platform->Invoke(fn, event.duration);
            return;
          }
          const Clock::time_point t1 = Clock::now();
          {
            Scope span(*tp, "faas.invoke", id);
            wp->platform->Invoke(fn, event.duration);
          }
          wp->invoke_host_ns.push_back(
              std::chrono::duration<double, std::nano>(Clock::now() - t1)
                  .count());
        });
      }
    }
    // Counters restart at the replay; handshakes happen at boot, so
    // keep that count.
    world->setup_handshakes = cluster.metrics().GetCount("kd_handshakes");
    cluster.metrics().Clear();
    for (int i = 0; i < cluster.apiserver().num_shards(); ++i) {
      cluster.apiserver().shard(i).metrics().Clear();
    }
  }
  world->start = world->engine.now();
  world->events_at_start = world->engine.processed_events();
  times.total = Since(t0);
  return world;
}

// Host seconds of one replay, split into segments that do the same
// simulated work on every replay of one seed: the scale call, each
// RunUntil slice (with the convergence check before it), result
// collection, and teardown. Every half second, between two segments,
// it also times the host-speed reference (host_speed.h); that time is
// in no segment.
class ReplayTimes {
 public:
  void Start() {
    TakeReference();
    lap_ = Clock::now();
  }
  // Closes the segment that began at the previous Start/Lap.
  void Lap() {
    const Clock::time_point now = Clock::now();
    segments_.push_back(std::chrono::duration<double>(now - lap_).count());
    if (now - last_reference_ >= kReferenceEvery) TakeReference();
    lap_ = Clock::now();
  }
  const std::vector<double>& segments() const { return segments_; }
  // The segments at the reference host speed: each one scaled by the
  // median of the (up to) five reference times taken nearest to it.
  std::vector<double> NormalizedSegments() const {
    std::vector<double> out(segments_.size());
    std::size_t k = 0;  // the last reference taken before segment j
    for (std::size_t j = 0; j < segments_.size(); ++j) {
      while (k + 1 < references_.size() && reference_before_[k + 1] <= j) ++k;
      const std::size_t lo = k < 2 ? 0 : k - 2;
      const std::size_t hi = std::min(references_.size(), lo + 5);
      const double local = Median(std::vector<double>(
          references_.begin() + static_cast<std::ptrdiff_t>(lo),
          references_.begin() + static_cast<std::ptrdiff_t>(hi)));
      out[j] = segments_[j] * kReferenceNominalS / local;
    }
    return out;
  }
  const std::vector<double>& references() const { return references_; }
  double total() const { return Sum(0, segments_.size()); }
  // The simulation part: everything before collection and teardown.
  double replay_s() const { return Sum(0, segments_.size() - 2); }
  double collect_s() const { return segments_[segments_.size() - 2]; }
  double teardown_s() const { return segments_.back(); }

  double poll_s = 0;  // inside the convergence checks

 private:
  double Sum(std::size_t from, std::size_t to) const {
    double s = 0;
    for (std::size_t i = from; i < to; ++i) s += segments_[i];
    return s;
  }
  void TakeReference() {
    references_.push_back(ReferenceSeconds());
    reference_before_.push_back(segments_.size());
    last_reference_ = Clock::now();
  }

  static constexpr auto kReferenceEvery = std::chrono::milliseconds(500);
  Clock::time_point lap_;
  Clock::time_point last_reference_;
  std::vector<double> segments_;
  std::vector<double> references_;
  std::vector<std::size_t> reference_before_;  // segment index it preceded
};

// Upscale: ScaleTo, then advance in 5 ms slices until every pod is
// Running in the API server (Cluster::RunUntil's loop, spelled out so
// each slice and check gets a span). The exact check walks every pod,
// so it only runs once the kubelets have started enough sandboxes:
// a pod is Running in the API server only after its kubelet counted
// "sandboxes_started", so below the target the exact check is false
// and the cheap counter proves it.
bool ReplayUpscale(const Workload& w, World& world, Tracer& tracer,
                   ReplayTimes& times) {
  cluster::Cluster& cluster = *world.cluster;
  sim::Engine& engine = world.engine;
  {
    Scope span(tracer, "cluster.scale_to");
    cluster.ScaleTo("fn-0000", w.pods);
  }
  times.Lap();
  const std::size_t target = static_cast<std::size_t>(w.pods);
  auto converged = [&] {
    Scope span(tracer, "bench.converge_check");
    const Clock::time_point t = Clock::now();
    const bool done =
        cluster.metrics().GetCount("sandboxes_started") >= w.pods &&
        cluster.TotalReadyPods() == target;
    times.poll_s += Since(t);
    return done;
  };
  const Time limit = engine.now() + kUpscaleDeadline;
  bool done = false;
  while (engine.now() < limit && !(done = converged())) {
    {
      Scope span(tracer, "engine.run_for");
      tracer.ResetGap();
      engine.RunUntil(std::min(limit, engine.now() + kUpscaleTick));
    }
    times.Lap();
  }
  if (!done) done = converged();
  times.Lap();
  return done;
}

void ReplayTrace(World& world, Tracer& tracer, ReplayTimes& times) {
  sim::Engine& engine = world.engine;
  const Time end = engine.now() + world.trace.length() + kTraceDrain;
  while (engine.now() < end) {
    {
      Scope span(tracer, "engine.run_for");
      tracer.ResetGap();
      engine.RunUntil(std::min(end, engine.now() + kTraceSlice));
    }
    times.Lap();
  }
}

// Reads the simulated outputs and the layer counters of a finished
// replay into `out`. Returns false (with a reason) when an output
// invariant fails.
bool Collect(const Workload& w, World& world, Tracer& tracer, Values& out,
             std::string& why) {
  Scope span(tracer, "bench.collect");
  cluster::Cluster& cluster = *world.cluster;
  const MetricsRecorder& m = cluster.metrics();
  const std::vector<const MetricsRecorder*> shards = ShardRecorders(cluster);
  bool ok = true;
  auto fail = [&](const std::string& reason) {
    ok = false;
    if (!why.empty()) why += "; ";
    why += reason;
  };

  const double pods_created = static_cast<double>(m.GetCount("pods_created"));
  const std::int64_t api_msgs = SumCounter(shards, "api_writes") +
                                SumCounter(shards, "api_reads") +
                                SumCounter(shards, "watch_events");
  const std::int64_t api_bytes =
      SumCounter(shards, "api_bytes_in") + SumCounter(shards, "api_bytes_out");
  const std::int64_t kd_msgs = m.GetCount("kd_messages_sent");
  const std::int64_t kd_bytes = m.GetCount("kd_bytes_sent");
  if (pods_created <= 0) fail("no pods created");
  out.Set("cp_msgs_per_pod", static_cast<double>(api_msgs + kd_msgs) /
                                 std::max(1.0, pods_created));
  out.Set("cp_bytes_per_pod", static_cast<double>(api_bytes + kd_bytes) /
                                  std::max(1.0, pods_created));

  if (w.trace_replay) {
    faas::Platform& platform = *world.platform;
    const faas::Report report = [&] {
      Scope report_span(tracer, "faas.build_report");
      return platform.BuildReport();
    }();
    const faas::Gateway& gateway = platform.gateway();
    FailureCounts counts;
    counts.sent = gateway.total_invocations();
    counts.completed = gateway.records().size();
    std::vector<double> cold_ms;
    for (const faas::RequestRecord& r : gateway.records()) {
      if (r.SchedulingLatency() > kSloLimit) ++counts.slow;
      if (r.cold_start) cold_ms.push_back(ToMillis(r.SchedulingLatency()));
    }
    // Gateway conservation: every invocation sent is completed, queued
    // or executing.
    std::uint64_t open = 0;
    for (int f = 0; f < world.trace.num_functions(); ++f) {
      const std::string fn = world.trace.FunctionName(f);
      open += static_cast<std::uint64_t>(gateway.Queued(fn) +
                                         gateway.Executing(fn));
    }
    if (counts.sent != counts.completed + open) {
      fail(StrFormat("gateway conservation: sent %llu != completed %llu + "
                     "open %llu",
                     static_cast<unsigned long long>(counts.sent),
                     static_cast<unsigned long long>(counts.completed),
                     static_cast<unsigned long long>(open)));
    }
    if (counts.sent != world.trace.events().size()) {
      fail("not every trace event reached the gateway");
    }
    if (report.completed_requests != counts.completed) {
      fail("report and gateway disagree on completions");
    }
    if (!TailSupported(cold_ms.size(), 0.999)) {
      fail("too few cold starts for p99.9");
    }
    if (!TailSupported(report.slowdown.count(), 0.98)) {
      fail("too few functions for p98");
    }
    out.Set("cold_start_p50_ms", Quantile(cold_ms, 0.5));
    out.Set("cold_start_p999_ms", Quantile(cold_ms, 0.999));
    out.Set("fn_samples", static_cast<double>(report.slowdown.count()));
    out.Set("fn_slowdown_p50", Quantile(report.slowdown.values(), 0.5));
    out.Set("fn_slowdown_p98", Quantile(report.slowdown.values(), 0.98));
    out.Set("fn_sched_latency_p50_ms",
            Quantile(report.scheduling_latency_ms.values(), 0.5));
    out.Set("fn_sched_latency_p98_ms",
            Quantile(report.scheduling_latency_ms.values(), 0.98));
    out.Set("slo_miss_frac", SloMissFraction(counts));
    out.Set("failed_frac", FailedFraction(counts));
    out.Set("faas.invocations", static_cast<double>(counts.sent));
    out.Set("faas.completed", static_cast<double>(counts.completed));
    // Also the sample count of the cold-start percentiles.
    out.Set("faas.cold_starts", static_cast<double>(cold_ms.size()));
    out.Set("faas.queued_starts", static_cast<double>(gateway.queued_starts()));
    out.Set("faas.scale_calls",
            static_cast<double>(platform.policy().scale_calls()));
  } else {
    const std::size_t ready = cluster.TotalReadyPods();
    out.Set("upscale_sim_s", ToSeconds(world.engine.now() - world.start));
    out.Set("pods_requested", w.pods);
    out.Set("pods_ready", static_cast<double>(ready));
    out.Set("failed_frac",
            static_cast<double>(static_cast<std::size_t>(w.pods) -
                                std::min<std::size_t>(ready, w.pods)) /
                static_cast<double>(w.pods));
    for (const char* name :
         {"faas.invocations", "faas.completed", "faas.cold_starts",
          "faas.queued_starts", "faas.scale_calls"}) {
      out.Set(name, 0);
    }
  }

  // Layers.
  out.Set("sim.events", static_cast<double>(world.engine.processed_events() -
                                            world.events_at_start));
  out.Set("apiserver.writes",
          static_cast<double>(SumCounter(shards, "api_writes")));
  out.Set("apiserver.reads",
          static_cast<double>(SumCounter(shards, "api_reads")));
  out.Set("apiserver.watch_events",
          static_cast<double>(SumCounter(shards, "watch_events")));
  out.Set("apiserver.bytes_out",
          static_cast<double>(SumCounter(shards, "api_bytes_out")));
  out.Set("apiserver.deadline_exceeded",
          static_cast<double>(SumCounter(shards, "api_deadline_exceeded")));
  out.Set("apiserver.inflight_max",
          static_cast<double>(MaxCounter(shards, "api.inflight_max")));
  const std::vector<double> api_ms = MergeSamples(shards, "api_call_latency");
  out.Set("apiserver.call_latency_p50_ms", Quantile(api_ms, 0.5));
  out.Set("apiserver.call_latency_p99_ms", Quantile(api_ms, 0.99));

  std::int64_t relists = 0;
  for (const auto& [name, value] : m.counters()) {
    // Sharded planes also count per shard; the total is enough.
    if (Matches(name, "informer.", ".relists_total") &&
        name.find(".shard") == std::string::npos) {
      relists += value;
    }
  }
  out.Set("runtime.relists", static_cast<double>(relists));
  out.Set("runtime.queue_depth_max",
          static_cast<double>(MaxMatching(m, "", ".queue_depth_max")));
  out.Set("runtime.client_faults",
          static_cast<double>(SumMatching(m, "client.")));

  out.Set("controllers.pods_created", pods_created);
  out.Set("controllers.pods_deleted",
          static_cast<double>(m.GetCount("pods_deleted")));
  out.Set("controllers.sandboxes_started",
          static_cast<double>(m.GetCount("sandboxes_started")));
  const std::vector<double> kubelet_ms =
      m.HasSample("kubelet_pod_latency")
          ? m.GetSample("kubelet_pod_latency").values()
          : std::vector<double>{};
  out.Set("controllers.kubelet_pod_latency_p99_ms", Quantile(kubelet_ms, 0.99));
  // Isolated stage time (bench/harness.h, Fig. 3 methodology): the max
  // of the control loop's and its API client's active time; the kubelet
  // stage is the worst per-pod bind -> published latency.
  auto stage = [&](const std::string& loop, const std::string& client) {
    return ToMillis(std::max(m.GetBusy(loop + ".active"),
                             m.GetBusy(client + ".active")));
  };
  out.Set("stage.autoscaler_ms", stage("autoscaler", "autoscaler"));
  out.Set("stage.deployment_ms", stage("deployment", "deployment-controller"));
  out.Set("stage.replicaset_ms", stage("replicaset", "replicaset-controller"));
  out.Set("stage.scheduler_ms", stage("scheduler", "scheduler"));
  out.Set("stage.kubelet_ms", Quantile(kubelet_ms, 1.0));
  out.Set("stage.endpoints_ms", stage("endpoints", "endpoints-controller"));

  out.Set("kubedirect.msgs", static_cast<double>(kd_msgs));
  out.Set("kubedirect.bytes", static_cast<double>(kd_bytes));
  out.Set("kubedirect.handshakes",
          static_cast<double>(world.setup_handshakes +
                              m.GetCount("kd_handshakes")));
  return ok;
}

// --- fixed-input layer probes (traced runs) ---------------------------

// Median of `reps` timings of fn(), each divided by `ops`, in `scale`
// units per second (1e9 = ns, 1e6 = us).
double Probe(int reps, double ops, double scale,
             const std::function<void()>& fn) {
  std::vector<double> per_op;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t = Clock::now();
    fn();
    per_op.push_back(Since(t) * scale / ops);
  }
  return Median(per_op);
}

void RunProbes(Values& out) {
  constexpr int kReps = 7;
  {
    constexpr int kEvents = 200'000;
    out.Set("sim.probe_sched_ns", Probe(kReps, kEvents, 1e9, [] {
              sim::Engine engine;
              std::uint64_t fired = 0;
              for (int i = 0; i < kEvents; ++i) {
                engine.ScheduleAfter(Microseconds((i * 7919) % 100'000),
                                     [&fired] { ++fired; });
              }
              engine.Run();
              if (fired != kEvents) std::abort();
            }));
    out.Set("sim.probe_cancel_ns", Probe(kReps, kEvents, 1e9, [] {
              sim::Engine engine;
              std::vector<sim::EventId> ids;
              ids.reserve(kEvents);
              for (int i = 0; i < kEvents; ++i) {
                ids.push_back(engine.ScheduleAfter(
                    Microseconds((i * 7919) % 100'000), [] {}));
              }
              for (sim::EventId id : ids) engine.Cancel(id);
              if (!engine.empty()) std::abort();
            }));
  }
  const model::ApiObject rs = model::MakeReplicaSet(
      "fn-v1", "fn", 1, 1, model::RealisticPodTemplateSpec("fn"));
  const model::ApiObject pod = model::MakePodFromTemplate("fn-v1-0", rs);
  const std::string text = pod.Serialize();
  {
    constexpr int kOps = 200;
    std::size_t bytes = 0;
    out.Set("model.probe_pod_serialize_us", Probe(kReps, kOps, 1e6, [&] {
              for (int i = 0; i < kOps; ++i) bytes += pod.Serialize().size();
            }));
    out.Set("model.probe_pod_parse_us", Probe(kReps, kOps, 1e6, [&] {
              for (int i = 0; i < kOps; ++i) {
                if (!model::ApiObject::Parse(text).ok()) std::abort();
              }
            }));
    constexpr int kCopies = 100'000;
    out.Set("model.probe_pod_copy_ns", Probe(kReps, kCopies, 1e9, [&] {
              for (int i = 0; i < kCopies; ++i) {
                model::ApiObject copy = pod;
                bytes += copy.name.size();
              }
            }));
    if (bytes == 0) std::abort();
  }
  {
    // One write broadcast to 1000 unfiltered Pod watchers.
    constexpr int kWatchers = 1000;
    constexpr int kUpdates = 50;
    std::uint64_t delivered = 0;
    out.Set("apiserver.probe_fanout_ns_per_delivery",
            Probe(kReps, kWatchers * kUpdates, 1e9, [&] {
              sim::Engine engine;
              apiserver::ApiServer server(engine, CostModel::Default());
              for (int w = 0; w < kWatchers; ++w) {
                server.Watch(model::kKindPod,
                             [&delivered](const apiserver::WatchEvent&) {
                               ++delivered;
                             });
              }
              model::ApiObject p = pod;
              for (int u = 0; u < kUpdates; ++u) {
                model::SetAnnotation(p, "touch", StrFormat("%d", u));
                server.SeedObject(p);
                engine.Run();
              }
            }));
    if (delivered == 0) std::abort();
  }
  {
    // A full Kd batch of pod-create upserts, serialized and re-parsed.
    const int batch_size = std::max(1, CostModel::Default().kd_batch);
    std::vector<kubedirect::WireMessage> batch;
    for (int i = 0; i < batch_size; ++i) {
      model::ApiObject p =
          model::MakePodFromTemplate(StrFormat("fn-v1-%d", i), rs);
      kubedirect::WireMessage msg;
      msg.type = kubedirect::WireMessage::Type::kUpsert;
      msg.message = kubedirect::PodCreateMessage(p, rs.Key());
      batch.push_back(std::move(msg));
    }
    constexpr int kOps = 50;
    out.Set("kubedirect.probe_batch_codec_us", Probe(kReps, kOps, 1e6, [&] {
              for (int i = 0; i < kOps; ++i) {
                auto parsed =
                    kubedirect::ParseBatch(kubedirect::SerializeBatch(batch));
                if (!parsed.ok() ||
                    parsed->size() != static_cast<std::size_t>(batch_size)) {
                  std::abort();
                }
              }
            }));
  }
}

// --- one replay, end to end ------------------------------------------

struct ReplayResult {
  ReplayTimes times;
  SetupTimes setup;
  Values values;
  bool ok = true;
  std::string why;
};

ReplayResult SetUpAndReplay(const Workload& w, std::uint64_t seed,
                            Tracer& tracer) {
  ReplayResult r;
  std::unique_ptr<World> world = SetUp(w, seed, tracer, r.setup);
  if (tracer.enabled()) {
    world->engine.set_trace_hook(
        [&tracer](Time, std::uint64_t, sim::EventId) { tracer.OnEvent(); });
  }
  Scope run_span(tracer, "run");
  r.times.Start();
  if (w.trace_replay) {
    ReplayTrace(*world, tracer, r.times);
  } else if (!ReplayUpscale(w, *world, tracer, r.times)) {
    r.ok = false;
    r.why = "upscale did not converge before the deadline";
  }
  std::string why;
  if (!Collect(w, *world, tracer, r.values, why)) {
    r.ok = false;
    r.why += (r.why.empty() ? "" : "; ") + why;
  }
  if (tracer.enabled() && !world->invoke_host_ns.empty()) {
    double sum = 0;
    for (double ns : world->invoke_host_ns) sum += ns;
    r.values.Set("faas.invoke_host_us",
                 sum / static_cast<double>(world->invoke_host_ns.size()) / 1e3);
  }
  r.times.Lap();
  {
    Scope span(tracer, "cluster.teardown");
    world.reset();
  }
  r.times.Lap();
  return r;
}

double TearDownTimed(std::unique_ptr<World> world) {
  const Clock::time_point t = Clock::now();
  world.reset();
  return Since(t);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- output ------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.17g", v);
}

void ListMetrics() {
  std::string out = "[";
  bool first = true;
  for (const MetricDef& m : kCatalogue) {
    out += StrFormat("%s{\"name\": %s, \"unit\": %s, \"kind\": \"%s\", "
                     "\"exact\": %s}",
                     first ? "" : ", ", JsonString(m.name).c_str(),
                     JsonString(m.unit).c_str(), KindName(m.kind),
                     m.exact ? "true" : "false");
    first = false;
  }
  std::printf("%s]\n", out.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  bool list = false;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || v.empty() || !(a.seconds >= 0)) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
  }
  return a.list || !a.workload.empty();
}

bool Optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>] | --list-metrics\n");
    return 2;
  }
  if (args.list) {
    ListMetrics();
    return 0;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (!Optimized()) {
    // Host times of an unoptimized build say nothing about the code.
    std::fprintf(stderr,
                 "perfbench: refusing to report host metrics from an "
                 "unoptimized build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  // Set-ups are cheap next to a replay; take several for the median.
  const int min_setups = w->trace_replay ? 5 : 3;
  std::vector<SetupTimes> setups;
  std::vector<double> teardowns;
  Tracer off(false);
  auto extra_setups = [&](int replays_to_come) {
    while (static_cast<int>(setups.size()) + replays_to_come < min_setups) {
      SetupTimes t;
      std::unique_ptr<World> world = SetUp(*w, args.seed, off, t);
      setups.push_back(t);
      teardowns.push_back(TearDownTimed(std::move(world)));
    }
  };

  Values values;
  std::vector<ReplayResult> replays;
  bool ok = true;
  std::string why;
  double trace_overhead = 0;
  std::map<std::string, std::pair<double, double>> span_times;
  std::vector<std::uint32_t> gaps;

  if (!args.trace) {
    extra_setups(2);
    const Clock::time_point start = Clock::now();
    // Replay until --seconds have passed, at least twice so that every
    // segment is timed more than once.
    do {
      replays.push_back(SetUpAndReplay(*w, args.seed, off));
    } while (replays.size() < 2 || Since(start) < args.seconds);
  } else {
    extra_setups(3);
    replays.push_back(SetUpAndReplay(*w, args.seed, off));
    replays.push_back(SetUpAndReplay(*w, args.seed, off));
    Tracer tracer(true);
    replays.push_back(SetUpAndReplay(*w, args.seed, tracer));
    // Median over segments of the traced time over the faster untraced
    // one. The first replay of a process also grows the heap, so the
    // traced replay is compared with two; one slowdown on the host
    // moves a few segments, not the median.
    const std::vector<double> plain =
        SegmentMinima({replays[0].times.segments(),
                       replays[1].times.segments()});
    const std::vector<double>& traced = replays[2].times.segments();
    std::vector<double> ratios;
    for (std::size_t j = 0; j < std::min(plain.size(), traced.size()); ++j) {
      if (plain[j] > 0) ratios.push_back(traced[j] / plain[j]);
    }
    trace_overhead = Median(ratios) - 1.0;
    span_times = tracer.TotalAndSelf();
    gaps = tracer.gaps_ns();
    if (!args.spans_path.empty() && !tracer.WriteJsonl(args.spans_path)) {
      ok = false;
      why = "could not write " + args.spans_path;
    }
  }

  // Every replay of one seed must produce the same simulated outputs,
  // traced or not.
  for (const ReplayResult& r : replays) {
    if (!r.ok) {
      ok = false;
      why += (why.empty() ? "" : "; ") + r.why;
    }
    for (const auto& [name, v] : r.values.all()) {
      if (FindMetric(name)->exact && v != replays[0].values.Get(name)) {
        ok = false;
        why += (why.empty() ? "" : "; ") +
               StrFormat("%s differs between replays", name.c_str());
      }
    }
  }
  for (const ReplayResult& r : replays) setups.push_back(r.setup);
  for (const ReplayResult& r : replays) {
    teardowns.push_back(r.times.teardown_s());
  }
  values = replays[0].values;

  // The host-time view comes from the untraced replays only.
  std::vector<std::vector<double>> segments, normalized;
  std::vector<double> setup_s, generate_s, boot_s, register_s, poll_s,
      references;
  const std::size_t untraced = args.trace ? 2 : replays.size();
  for (std::size_t i = 0; i < untraced; ++i) {
    segments.push_back(replays[i].times.segments());
    normalized.push_back(replays[i].times.NormalizedSegments());
    poll_s.push_back(replays[i].times.poll_s);
    const std::vector<double>& r = replays[i].times.references();
    references.insert(references.end(), r.begin(), r.end());
  }
  const double run_s = SumOfSegmentMinima(segments);
  const double run_norm_s = SumOfSegmentMinima(normalized);
  // The engine's part: every segment but collection and teardown.
  const std::vector<double> fastest = SegmentMinima(segments);
  double engine_s = 0;
  for (std::size_t j = 0; j + 2 < fastest.size(); ++j) engine_s += fastest[j];
  if (run_s <= 0 || run_norm_s <= 0) {
    ok = false;
    why += (why.empty() ? "" : "; ") +
           std::string("replays were not split into the same segments");
  }
  for (const SetupTimes& s : setups) {
    setup_s.push_back(s.total);
    generate_s.push_back(s.generate);
    boot_s.push_back(s.boot);
    register_s.push_back(s.register_);
  }
  values.Set("run_s", run_s);
  values.Set("run_norm_s", run_norm_s);
  values.Set("bench.host_reference_ms", Median(references) * 1e3);
  values.Set("setup_s", Median(setup_s));
  values.Set("peak_rss_mb", PeakRssMb());
  values.Set("trace.generate_s", Median(generate_s));
  values.Set("cluster.boot_s", Median(boot_s));
  values.Set("cluster.register_s", Median(register_s));
  values.Set("cluster.teardown_s", Median(teardowns));
  values.Set("bench.poll_s", Median(poll_s));
  values.Set("bench.poll_share", Median(poll_s) / run_s);
  values.Set("sim.host_ns_per_event",
             engine_s * 1e9 / std::max(1.0, values.Get("sim.events")));
  if (args.trace) {
    RunProbes(values);
    values.Set("bench.trace_overhead", trace_overhead);
    std::vector<double> gap_us(gaps.size());
    for (std::size_t i = 0; i < gaps.size(); ++i) gap_us[i] = gaps[i] * 1e-3;
    values.Set("sim.event_host_us_p50", Quantile(gap_us, 0.5));
    values.Set("sim.event_host_us_p99", Quantile(gap_us, 0.99));
    values.Set("sim.event_host_us_max", Quantile(gap_us, 1.0));
    const Values& traced = replays[2].values;
    values.Set("faas.invoke_host_us", traced.Has("faas.invoke_host_us")
                                          ? traced.Get("faas.invoke_host_us")
                                          : 0.0);
  }

  // Report.
  std::string metrics_json;
  for (const auto& [name, v] : values.all()) {
    const MetricDef* def = FindMetric(name);
    metrics_json += StrFormat(
        "%s%s: {\"value\": %s, \"unit\": %s, \"kind\": \"%s\", \"exact\": %s}",
        metrics_json.empty() ? "" : ", ", JsonString(name).c_str(),
        JsonNumber(v).c_str(), JsonString(def->unit).c_str(),
        KindName(def->kind), def->exact ? "true" : "false");
  }
  std::string spans_json;
  for (const auto& [name, ts] : span_times) {
    spans_json += StrFormat("%s%s: {\"total_s\": %s, \"self_s\": %s}",
                            spans_json.empty() ? "" : ", ",
                            JsonString(name).c_str(),
                            JsonNumber(ts.first).c_str(),
                            JsonNumber(ts.second).c_str());
  }
  std::string replay_json;
  for (const ReplayResult& r : replays) {
    replay_json += StrFormat(
        "%s{\"setup_s\": %s, \"run_s\": %s, \"replay_s\": %s, "
        "\"collect_s\": %s, \"teardown_s\": %s, \"poll_s\": %s}",
        replay_json.empty() ? "" : ", ", JsonNumber(r.setup.total).c_str(),
        JsonNumber(r.times.total()).c_str(),
        JsonNumber(r.times.replay_s()).c_str(),
        JsonNumber(r.times.collect_s()).c_str(),
        JsonNumber(r.times.teardown_s()).c_str(),
        JsonNumber(r.times.poll_s).c_str());
  }
  std::printf(
      "{\"perfbench_report\": {\"workload\": %s, \"seed\": %llu, "
      "\"trace\": %d, \"ok\": %s, \"why\": %s, "
      "\"host\": {\"nproc\": %ld, \"compiler\": %s, \"build_type\": %s, "
      "\"optimized\": true}, "
      "\"notes\": [\"cp_bytes_per_pod counts API request and response bytes "
      "and Kd link bytes; the API server counts no watch bytes\"], "
      "\"replays\": [%s], \"setups\": %zu, \"spans\": {%s}, "
      "\"metrics\": {%s}}}\n",
      JsonString(w->name).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, ok ? "true" : "false", JsonString(why).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), replay_json.c_str(),
      setups.size(), spans_json.c_str(), metrics_json.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace kd::perfbench

int main(int argc, char** argv) { return kd::perfbench::Main(argc, argv); }
