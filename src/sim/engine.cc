#include "sim/engine.h"

#include <limits>

namespace kd::sim {

namespace {
constexpr std::uint64_t kDefaultRngSeed = 0x9E3779B97F4A7C15ULL;
}  // namespace

Engine::Engine() : rng_(kDefaultRngSeed), rng_seed_(kDefaultRngSeed) {
  queues_.push_back(std::make_unique<LaneQueue>());
}

Engine::~Engine() { ShutdownPool(); }

Rng& Engine::rng() {
  WorkerTls& tls = t_worker;
  if (tls.engine == this && tls.group != 0) {
    return pstate_->groups[static_cast<std::size_t>(tls.group)]->rng;
  }
  return rng_;
}

void Engine::SeedRng(std::uint64_t seed) {
  rng_seed_ = seed;
  rng_.Seed(seed);
  if (pstate_ != nullptr) {
    for (std::size_t g = 1; g < pstate_->groups.size(); ++g) {
      pstate_->groups[g]->rng.Seed(seed ^
                                   (0xD1B54A32D192ED03ULL * (g + 1)));
    }
  }
}

bool Engine::Cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  const int group = static_cast<int>(id >> (kIdSlotBits + kIdGenBits));
  const std::uint32_t index =
      (static_cast<std::uint32_t>(id >> kIdGenBits) & kIdSlotMask) - 1;
  const std::uint32_t generation =
      static_cast<std::uint32_t>(id) & kIdGenMask;
  if (group >= static_cast<int>(queues_.size())) return false;
  const WorkerTls& tls = t_worker;
  if (tls.engine == this) {
    // Cross-group cancellation would race the owner's execution; no
    // sanctioned seam cancels another lane's events.
    KD_CHECK(group == tls.group,
             "cross-group Cancel is not a sanctioned seam");
  }
  LaneQueue& q = *queues_[static_cast<std::size_t>(group)];
  if (!q.has_slot(index)) return false;
  LaneQueue::Slot& slot = q.SlotAt(index);
  // Generation mismatch: the event already fired (slot recycled or
  // generation bumped). Disarmed: it was already cancelled.
  if ((slot.generation & kIdGenMask) != generation || !slot.armed) {
    return false;
  }
  slot.armed = false;
  LaneQueue::DestroyClosure(slot);  // drop captures now; entry skims lazily
  if (slot.queued) {
    // Queued events are counted live; epoch spawns not yet inserted by
    // the barrier replay are not (the replay burns their seq and
    // recycles the slot when it finds them disarmed).
    slot.queued = false;
    q.NoteCancelledQueued();
  }
  return true;
}

void Engine::FireSerial(LaneQueue& q, const LaneQueue::Fired& fired) {
  LaneQueue::Slot& slot = q.SlotAt(fired.slot);
  ++processed_;
  const EventId id = MakeEventId(0, fired.slot, fired.generation);
  if (trace_hook_) trace_hook_(q.now(), fired.seq, id);
  // Restore the event's lane for the lane checker; the guard resets it
  // when the closure unwinds (normally or by throw) so no lane leaks
  // into engine-internal code between events.
  if (lane_checker_.enabled()) {
    lane_checker_.BeginEvent(q.now(), fired.seq, slot.lane);
  }
  serial_origin_ = slot.origin;
  struct FireGuard {
    Engine* engine;
    LaneQueue* queue;
    std::uint32_t index;
    ~FireGuard() {
      engine->lane_checker_.SetCurrentLane(kNoLane);
      engine->serial_origin_ = kNoLane;
      LaneQueue::DestroyClosure(queue->SlotAt(index));
      queue->FreeSlot(index);
    }
  } guard{this, &q, fired.slot};
  slot.invoke(slot.closure);
}

bool Engine::Step() {
  KD_CHECK(!parallel(), "Step() is serial-mode only");
  LaneQueue& q = *queues_[0];
  LaneQueue::Fired fired;
  if (!q.PopDue(std::numeric_limits<Time>::max(), fired)) return false;
  FireSerial(q, fired);
  return true;
}

std::uint64_t Engine::Run() {
  if (parallel()) return RunParallel(0, /*bounded=*/false);
  stop_flag_.store(false, std::memory_order_relaxed);
  hit_event_limit_ = false;
  LaneQueue& q = *queues_[0];
  std::uint64_t n = 0;
  while (!stop_flag_.load(std::memory_order_relaxed)) {
    if (event_limit_ != 0 && n >= event_limit_) {
      hit_event_limit_ = true;
      break;
    }
    LaneQueue::Fired fired;
    if (!q.PopDue(std::numeric_limits<Time>::max(), fired)) break;
    FireSerial(q, fired);
    ++n;
  }
  return n;
}

std::uint64_t Engine::RunUntil(Time t) {
  if (parallel()) return RunParallel(t, /*bounded=*/true);
  stop_flag_.store(false, std::memory_order_relaxed);
  hit_event_limit_ = false;
  LaneQueue& q = *queues_[0];
  std::uint64_t n = 0;
  while (!stop_flag_.load(std::memory_order_relaxed)) {
    if (event_limit_ != 0 && n >= event_limit_) {
      hit_event_limit_ = true;
      break;
    }
    LaneQueue::Fired fired;
    if (!q.PopDue(t, fired)) break;
    FireSerial(q, fired);
    ++n;
  }
  // Advance the clock to t even when no event fired there. Skipped
  // when the event limit tripped: events earlier than t are still
  // pending, and the clock must not pass pending work.
  if (!stop_flag_.load(std::memory_order_relaxed) && !hit_event_limit_ &&
      q.now() < t) {
    q.AdvanceTo(t);
  }
  return n;
}

}  // namespace kd::sim
