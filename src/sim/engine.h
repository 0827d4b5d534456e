// Deterministic discrete-event simulation engine.
//
// Everything in this repository — the API server, controllers, network
// links, FaaS requests — runs as callbacks scheduled on one Engine with
// a virtual clock. Two events at the same virtual time fire in the
// order they were scheduled (a monotone sequence number breaks ties),
// which makes every run bit-for-bit reproducible regardless of host
// load. That determinism is what lets the property tests replay exact
// failure interleavings from a seed.
//
// The event store (one LaneQueue, see sim/lane_queue.h) is a
// slot/generation arena plus one 4-ary (time, seq) min-heap: closures
// constructed in place in 64-byte slots, cancelled entries skimmed
// lazily and compacted away once they outnumber live ones. EventId
// encodes group+slot+generation, so Cancel is O(1) amortized and stale
// ids (fired, cancelled, recycled) safely return false.
//
// PARALLEL MODE (ConfigureParallel): the engine partitions events into
// per-lane-group queues that a worker pool executes concurrently
// between deterministic barrier epochs sized by conservative lookahead
// (the minimum cross-lane seam latency — SetLookahead). Cross-group
// schedules must go through ScheduleSeamAt/After, which routes them
// into per-group-pair mailboxes drained in fixed (time, seq) order at
// the barrier; a replay pass there reassigns the globally-serial
// sequence numbers, so the observable event trace — including the
// trace-hook fingerprints — is byte-identical to the serial engine at
// every thread count. See sim/parallel.h for the full argument.
//
// Serial-mode behavior is exactly the pre-parallel engine's; with one
// group the parallel paths are never entered.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/lane.h"
#include "common/rng.h"
#include "common/time.h"
#include "sim/lane_checker.h"
#include "sim/lane_queue.h"
#include "sim/parallel.h"

namespace kd::sim {

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const {
    const WorkerTls& tls = t_worker;
    if (tls.engine == this) return tls.now;
    return pstate_ == nullptr ? queues_[0]->now() : now_;
  }

  // Schedules `fn` at absolute virtual time `t` (clamped to now).
  // Accepts any nullary callable; the closure is stored in place in
  // the event slot (see sim/lane_queue.h). The event inherits the lane
  // of the scheduling context, so lane membership flows through
  // closure chains (see sim/lane_checker.h).
  template <class F>
  EventId ScheduleAt(Time t, F&& fn) {
    return ScheduleImpl(/*seam=*/false, kNoLane, t, std::forward<F>(fn));
  }

  // Schedules `fn` after `delay` from now (negative delays clamp to 0).
  template <class F>
  EventId ScheduleAfter(Duration delay, F&& fn) {
    return ScheduleAt(now() + (delay < 0 ? 0 : delay),
                      std::forward<F>(fn));
  }

  // Cross-lane seam schedule: the event executes in `target_lane`
  // (and, in parallel mode, in that lane's group) instead of
  // inheriting the scheduling context's lane. In serial mode this is
  // ScheduleAt plus lane bookkeeping — the trace is unchanged. In
  // parallel mode a cross-group seam must satisfy t - now >= lookahead
  // (KD_CHECKed); every sanctioned seam type (net delivery, informer
  // merges, ApiClient uplinks/completions, watch broadcast) clears
  // that bar by construction because the lookahead is derived as the
  // minimum of their latencies. From driver context (outside any
  // event) any target time is allowed. Cross-group seam events are not
  // cancellable from other groups; the returned id is
  // kInvalidEventId for mailboxed (worker-context cross-group) sends.
  template <class F>
  EventId ScheduleSeamAt(LaneId target_lane, Time t, F&& fn) {
    return ScheduleImpl(/*seam=*/true, target_lane, t, std::forward<F>(fn));
  }

  template <class F>
  EventId ScheduleSeamAfter(LaneId target_lane, Duration delay, F&& fn) {
    return ScheduleSeamAt(target_lane, now() + (delay < 0 ? 0 : delay),
                          std::forward<F>(fn));
  }

  // Lane of the context that scheduled the currently-executing event
  // (kNoLane outside events). A seam target uses this to learn who
  // called it — e.g. the API server captures the client's lane at
  // Serve() entry to route the completion back.
  LaneId seam_origin_lane() const {
    const WorkerTls& tls = t_worker;
    return tls.engine == this ? tls.origin : serial_origin_;
  }

  // Cancels a pending event. Returns false if it already fired or was
  // already cancelled. Safe to call with kInvalidEventId. In parallel
  // worker context only events of the caller's own group may be
  // cancelled (cross-group cancellation is not a sanctioned seam).
  bool Cancel(EventId id);

  // Runs one event; returns false when the queue is empty. Serial mode
  // only.
  bool Step();

  // Runs until the queue drains or Stop() is called. Returns the number
  // of events processed.
  std::uint64_t Run();

  // Processes all events with time <= t, then advances the clock to t
  // (even if no event fired). Returns the number of events processed.
  std::uint64_t RunUntil(Time t);

  std::uint64_t RunFor(Duration d) { return RunUntil(now() + d); }

  // Makes Run()/RunUntil() return after the current event completes
  // (serial) or after the current epoch completes (parallel — epoch
  // granularity keeps the stop point deterministic per thread count).
  void Stop() { stop_flag_.store(true, std::memory_order_relaxed); }

  bool empty() const { return pending_events() == 0; }
  std::size_t pending_events() const {
    std::size_t n = 0;
    for (const auto& q : queues_) n += q->live_events();
    return n;
  }
  std::uint64_t processed_events() const { return processed_; }

  // Hard cap on total events processed per Run*/Step sequence; guards
  // tests against livelock in buggy reconcile loops. 0 disables. In
  // parallel mode the budget is checked at epoch boundaries, so the
  // cap can overshoot by up to one epoch per group.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }
  bool hit_event_limit() const { return hit_event_limit_; }

  // The simulation-layer entropy source (kdlint R1: ambient entropy is
  // banned outside src/sim, so deterministic jitter — e.g. retry
  // backoff — draws from here). Seeded at construction; SeedRng makes
  // a run's stream reproducible from a test/bench seed. In parallel
  // mode each group gets an independent stream forked from the seed
  // (group 0 keeps the serial stream), so draws are reproducible per
  // group but the interleaved global stream differs from serial —
  // no fault-free path draws, so the pinned fingerprints are
  // unaffected.
  Rng& rng();
  void SeedRng(std::uint64_t seed);

  // Observer invoked as each event fires: (virtual time, scheduling
  // sequence number, event id). The determinism-replay regression test
  // fingerprints whole runs with it; it is unset (free) in normal use.
  // In parallel mode it fires during the barrier replay, on the main
  // thread, in exactly serial (time, seq) order.
  using TraceHook = std::function<void(Time, std::uint64_t, EventId)>;
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

  // Debug-only lane-access checker (disabled by default; enabling it
  // never changes the event trace). See sim/lane_checker.h.
  LaneChecker& lane_checker() { return lane_checker_; }

  // --- parallel mode ----------------------------------------------------

  // Splits the engine into `groups` lane groups executed by `threads`
  // workers (worker 0 is the caller's thread; threads is clamped to
  // groups). groups == 1 keeps the engine serial. Call once, outside
  // any run; events already scheduled stay in group 0. Lanes bind to
  // groups via BindLaneToGroup (default: group 0).
  void ConfigureParallel(int groups, int threads);

  // Routes events whose lane is `lane` to `group`'s queue. Unbound
  // lanes (and kNoLane — driver context) run in group 0.
  void BindLaneToGroup(LaneId lane, int group);

  // Conservative lookahead: the minimum latency of any cross-group
  // seam schedule. Epochs span [T, T + L). Must be >= 1 tick.
  void SetLookahead(Duration l);

  bool parallel() const {
    return pstate_ != nullptr && pstate_->num_groups > 1;
  }
  int num_groups() const {
    return pstate_ == nullptr ? 1 : pstate_->num_groups;
  }
  int threads_used() const {
    return pstate_ == nullptr ? 1 : pstate_->num_threads;
  }
  Duration lookahead() const { return lookahead_; }

  // Bench-attribution counters (satellite: every BENCH_*.json records
  // them). Serial runs report zero epochs.
  std::uint64_t epochs_executed() const {
    return pstate_ == nullptr ? 0 : pstate_->epochs;
  }
  double mean_lookahead() const {
    if (pstate_ == nullptr || pstate_->epochs == 0) return 0.0;
    return static_cast<double>(pstate_->lookahead_sum) /
           static_cast<double>(pstate_->epochs);
  }
  // Events on the per-epoch critical path (Σ max-group fires): the
  // wall-clock lower bound a perfectly parallel host would see.
  // processed_events() / critical_path_events() is the algorithmic
  // speedup the partition admits, independent of host core count.
  std::uint64_t critical_path_events() const {
    return pstate_ == nullptr ? 0 : pstate_->critical_path_events;
  }

 private:
  // EventId layout: group(10) | slot+1(30) | generation(24). slot+1
  // keeps 0 == kInvalidEventId. The generation compare is masked to 24
  // bits — 16M recycles per slot before a stale id could alias.
  static constexpr int kIdGenBits = 24;
  static constexpr int kIdSlotBits = 30;
  static constexpr std::uint32_t kIdGenMask = (1u << kIdGenBits) - 1;
  static constexpr std::uint32_t kIdSlotMask = (1u << kIdSlotBits) - 1;

  static EventId MakeEventId(int group, std::uint32_t slot,
                             std::uint32_t generation) {
    return (static_cast<EventId>(group) << (kIdSlotBits + kIdGenBits)) |
           (static_cast<EventId>(slot + 1) << kIdGenBits) |
           (generation & kIdGenMask);
  }

  int GroupOf(LaneId lane) const {
    if (pstate_ == nullptr || lane >= lane_group_.size()) return 0;
    return lane_group_[lane];
  }

  template <class F>
  EventId ScheduleImpl(bool seam, LaneId target, Time t, F&& fn) {
    WorkerTls& tls = t_worker;
    if (tls.engine == this) {
      return ScheduleInEpoch(seam, target, t, std::forward<F>(fn));
    }
    // Serial / driver-phase path: assign the seq now, insert directly.
    const LaneId current = lane_checker_.current_lane();
    const LaneId lane = seam ? target : current;
    const int group = seam ? GroupOf(lane) : 0;
    LaneQueue& q = *queues_[group];
    const std::uint32_t index = q.AcquireSlot();
    LaneQueue::Slot& slot = q.SlotAt(index);
    slot.lane = lane;
    slot.origin = current;
    LaneQueue::EmplaceClosure(slot, std::forward<F>(fn));
    const Time base = pstate_ == nullptr ? queues_[0]->now() : now_;
    q.Arm(index, t < base ? base : t, next_seq_++);
    return MakeEventId(group, index, slot.generation);
  }

  template <class F>
  EventId ScheduleInEpoch(bool seam, LaneId target, Time t, F&& fn) {
    WorkerTls& tls = t_worker;
    ParallelState& ps = *pstate_;
    if (t < tls.now) t = tls.now;
    const LaneId current = lane_checker_.current_lane();
    const LaneId lane = seam ? target : current;
    const int tg = seam ? GroupOf(lane) : tls.group;
    GroupRun& g = *ps.groups[static_cast<std::size_t>(tls.group)];
    if (tg == tls.group) {
      LaneQueue& q = *queues_[tg];
      const std::uint32_t index = q.AcquireSlot();
      LaneQueue::Slot& slot = q.SlotAt(index);
      slot.lane = lane;
      slot.origin = current;
      LaneQueue::EmplaceClosure(slot, std::forward<F>(fn));
      const std::uint32_t si = static_cast<std::uint32_t>(g.spawns.size());
      g.spawns.push_back(Spawn{t, index, -1, -1, 0});
      if (t < ps.epoch_end) {
        // Due this epoch: stage it with a tentative key after every
        // pre-existing event and every earlier spawn (sim/parallel.h).
        g.staged.push(StagedEntry{t, ps.seq_base + g.tentative++, si});
      }
      return MakeEventId(tg, index, slot.generation);
    }
    // Cross-group: the conservative-lookahead contract makes the
    // target time land at or after the epoch boundary.
    KD_CHECK(t - tls.now >= lookahead_,
             "cross-lane schedule below the conservative lookahead");
    auto& box = ps.mail[static_cast<std::size_t>(tls.group)]
                       [static_cast<std::size_t>(tg)];
    const std::uint32_t mi = static_cast<std::uint32_t>(box.size());
    box.push_back(MailEntry{t, lane, current, BoxClosure(std::forward<F>(fn))});
    g.spawns.push_back(Spawn{t, 0, -1, tg, mi});
    return kInvalidEventId;
  }

  // Fires one serially-popped event (shared by Step/Run/RunUntil).
  void FireSerial(LaneQueue& q, const LaneQueue::Fired& fired);

  // Parallel run loop: epochs until drained / t reached / stopped.
  std::uint64_t RunParallel(Time until, bool bounded);
  void RunEpochOnWorkers();
  void RunGroupEpoch(int group);
  std::uint64_t ReplayEpoch();
  void WorkerMain(int worker_index);
  void ShutdownPool();

  Time now_ = 0;  // parallel driver clock; serial mode uses queue 0's
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t event_limit_ = 0;
  bool hit_event_limit_ = false;
  std::atomic<bool> stop_flag_{false};
  LaneId serial_origin_ = kNoLane;
  std::vector<std::unique_ptr<LaneQueue>> queues_;
  std::vector<std::uint16_t> lane_group_;  // LaneId -> group
  Duration lookahead_ = 1;
  std::unique_ptr<ParallelState> pstate_;
  TraceHook trace_hook_;
  LaneChecker lane_checker_;
  Rng rng_;
  std::uint64_t rng_seed_;
};

}  // namespace kd::sim
