#include "sim/engine.h"

#include <limits>

namespace kd::sim {

namespace {
constexpr std::uint64_t kDefaultRngSeed = 0x9E3779B97F4A7C15ULL;
}  // namespace

Engine::Engine() : rng_(kDefaultRngSeed) {}

bool Engine::Cancel(EventId id) {
  const EventId slot_plus_one = id >> kIdGenBits;
  if (slot_plus_one == 0 || slot_plus_one > queue_.slot_count()) return false;
  const auto index = static_cast<std::uint32_t>(slot_plus_one - 1);
  const std::uint32_t generation =
      static_cast<std::uint32_t>(id) & kIdGenMask;
  LaneQueue::Slot& slot = queue_.SlotAt(index);
  // Generation mismatch: the event already fired (slot recycled or
  // generation bumped). Disarmed: it was already cancelled.
  if ((slot.generation & kIdGenMask) != generation || !slot.armed) {
    return false;
  }
  slot.armed = false;
  LaneQueue::DestroyClosure(slot);  // drop captures now; entry skims lazily
  queue_.NoteCancelledQueued();
  return true;
}

void Engine::Fire(const LaneQueue::Fired& fired) {
  LaneQueue::Slot& slot = queue_.SlotAt(fired.slot);
  ++processed_;
  const EventId id = MakeEventId(fired.slot, fired.generation);
  if (trace_hook_) trace_hook_(now(), fired.seq, id);
  // The guard recycles the slot when the closure unwinds, normally or
  // by throw.
  struct FireGuard {
    Engine* engine;
    std::uint32_t index;
    ~FireGuard() {
      LaneQueue::DestroyClosure(engine->queue_.SlotAt(index));
      engine->queue_.FreeSlot(index);
    }
  } guard{this, fired.slot};
  slot.invoke(slot.closure);
}

bool Engine::Step() {
  LaneQueue::Fired fired;
  if (!queue_.PopDue(std::numeric_limits<Time>::max(), fired)) return false;
  Fire(fired);
  return true;
}

std::uint64_t Engine::RunLoop(Time t) {
  stop_flag_ = false;
  hit_event_limit_ = false;
  std::uint64_t n = 0;
  while (!stop_flag_) {
    if (event_limit_ != 0 && n >= event_limit_) {
      hit_event_limit_ = true;
      break;
    }
    LaneQueue::Fired fired;
    if (!queue_.PopDue(t, fired)) break;
    Fire(fired);
    ++n;
  }
  return n;
}

std::uint64_t Engine::Run() {
  return RunLoop(std::numeric_limits<Time>::max());
}

std::uint64_t Engine::RunUntil(Time t) {
  const std::uint64_t n = RunLoop(t);
  // Advance the clock to t even when no event fired there. Skipped
  // when the event limit tripped: events earlier than t are still
  // pending, and the clock must not pass pending work.
  if (!stop_flag_ && !hit_event_limit_ && now() < t) queue_.AdvanceTo(t);
  return n;
}

}  // namespace kd::sim
