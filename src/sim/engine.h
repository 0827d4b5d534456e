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
// encodes slot+generation, so Cancel is O(1) amortized and stale ids
// (fired, cancelled, recycled) safely return false.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/time.h"
#include "sim/lane_queue.h"

namespace kd::sim {

class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return queue_.now(); }

  // Schedules `fn` at absolute virtual time `t` (clamped to now).
  // Accepts any nullary callable; the closure is stored in place in
  // the event slot (see sim/lane_queue.h).
  template <class F>
  EventId ScheduleAt(Time t, F&& fn) {
    const std::uint32_t index = queue_.AcquireSlot();
    LaneQueue::Slot& slot = queue_.SlotAt(index);
    LaneQueue::EmplaceClosure(slot, std::forward<F>(fn));
    queue_.Arm(index, t < now() ? now() : t, next_seq_++);
    return MakeEventId(index, slot.generation);
  }

  // Schedules `fn` after `delay` from now (negative delays clamp to 0).
  template <class F>
  EventId ScheduleAfter(Duration delay, F&& fn) {
    return ScheduleAt(now() + (delay < 0 ? 0 : delay),
                      std::forward<F>(fn));
  }

  // Cancels a pending event. Returns false if it already fired or was
  // already cancelled. Safe to call with kInvalidEventId.
  bool Cancel(EventId id);

  // Runs one event; returns false when the queue is empty.
  bool Step();

  // Runs until the queue drains or Stop() is called. Returns the number
  // of events processed.
  std::uint64_t Run();

  // Processes all events with time <= t, then advances the clock to t
  // (even if no event fired). Returns the number of events processed.
  std::uint64_t RunUntil(Time t);

  std::uint64_t RunFor(Duration d) { return RunUntil(now() + d); }

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stop_flag_ = true; }

  bool empty() const { return pending_events() == 0; }
  std::size_t pending_events() const { return queue_.live_events(); }
  std::uint64_t processed_events() const { return processed_; }

  // Hard cap on total events processed per Run*/Step sequence; guards
  // tests against livelock in buggy reconcile loops. 0 disables.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }
  bool hit_event_limit() const { return hit_event_limit_; }

  // The simulation-layer entropy source (kdlint R1: ambient entropy is
  // banned outside src/sim, so deterministic jitter — e.g. retry
  // backoff — draws from here). Seeded at construction; SeedRng makes
  // a run's stream reproducible from a test/bench seed.
  Rng& rng() { return rng_; }
  void SeedRng(std::uint64_t seed) { rng_.Seed(seed); }

  // Observer invoked as each event fires: (virtual time, scheduling
  // sequence number, event id). The determinism-replay regression test
  // fingerprints whole runs with it; it is unset (free) in normal use.
  using TraceHook = std::function<void(Time, std::uint64_t, EventId)>;
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

 private:
  // EventId layout: slot+1 (above bit 24) | generation (24 bits).
  // slot+1 keeps 0 == kInvalidEventId. The generation compare is
  // masked to 24 bits — 16M recycles per slot before a stale id could
  // alias.
  static constexpr int kIdGenBits = 24;
  static constexpr std::uint32_t kIdGenMask = (1u << kIdGenBits) - 1;

  static EventId MakeEventId(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot + 1) << kIdGenBits) |
           (generation & kIdGenMask);
  }

  // Fires one popped event (shared by Step/Run/RunUntil).
  void Fire(const LaneQueue::Fired& fired);
  // Fires due events (time <= t) until the queue has none, Stop() is
  // called or the event limit trips; returns how many fired.
  std::uint64_t RunLoop(Time t);

  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t event_limit_ = 0;
  bool hit_event_limit_ = false;
  bool stop_flag_ = false;
  LaneQueue queue_;
  TraceHook trace_hook_;
  Rng rng_;
};

}  // namespace kd::sim
