// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/engine.h"

namespace kd::sim {
namespace {

TEST(EngineTest, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.empty());
}

TEST(EngineTest, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(Milliseconds(20), [&] { order.push_back(2); });
  e.ScheduleAt(Milliseconds(10), [&] { order.push_back(1); });
  e.ScheduleAt(Milliseconds(30), [&] { order.push_back(3); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), Milliseconds(30));
}

TEST(EngineTest, TiesBreakBySchedulingOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, ScheduleAfterUsesCurrentTime) {
  Engine e;
  Time fired_at = -1;
  e.ScheduleAt(Milliseconds(10), [&] {
    e.ScheduleAfter(Milliseconds(5), [&] { fired_at = e.now(); });
  });
  e.Run();
  EXPECT_EQ(fired_at, Milliseconds(15));
}

TEST(EngineTest, PastTimesClampToNow) {
  Engine e;
  e.ScheduleAt(Milliseconds(10), [&] {
    e.ScheduleAt(Milliseconds(1), [&] { EXPECT_EQ(e.now(), Milliseconds(10)); });
  });
  e.Run();
  EXPECT_EQ(e.now(), Milliseconds(10));
}

TEST(EngineTest, NegativeDelayClampsToZero) {
  Engine e;
  bool fired = false;
  e.ScheduleAfter(-5, [&] { fired = true; });
  e.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.now(), 0);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  EventId id = e.ScheduleAt(Milliseconds(10), [&] { fired = true; });
  EXPECT_TRUE(e.Cancel(id));
  e.Run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(e.empty());
}

TEST(EngineTest, CancelTwiceReturnsFalse) {
  Engine e;
  EventId id = e.ScheduleAt(1, [] {});
  EXPECT_TRUE(e.Cancel(id));
  EXPECT_FALSE(e.Cancel(id));
  EXPECT_FALSE(e.Cancel(kInvalidEventId));
}

TEST(EngineTest, CancelAfterFireReturnsFalse) {
  Engine e;
  EventId id = e.ScheduleAt(1, [] {});
  e.Run();
  EXPECT_FALSE(e.Cancel(id));
}

TEST(EngineTest, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  e.RunUntil(Seconds(5));
  EXPECT_EQ(e.now(), Seconds(5));
}

TEST(EngineTest, RunUntilLeavesFutureEvents) {
  Engine e;
  bool early = false, late = false;
  e.ScheduleAt(Milliseconds(10), [&] { early = true; });
  e.ScheduleAt(Milliseconds(100), [&] { late = true; });
  e.RunUntil(Milliseconds(50));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(e.now(), Milliseconds(50));
  EXPECT_EQ(e.pending_events(), 1u);
  e.Run();
  EXPECT_TRUE(late);
}

TEST(EngineTest, RunForIsRelative) {
  Engine e;
  e.RunUntil(Milliseconds(10));
  bool fired = false;
  e.ScheduleAfter(Milliseconds(5), [&] { fired = true; });
  e.RunFor(Milliseconds(5));
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.now(), Milliseconds(15));
}

TEST(EngineTest, StopHaltsRun) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(i, [&] {
      ++count;
      if (count == 3) e.Stop();
    });
  }
  e.Run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.pending_events(), 7u);
}

TEST(EngineTest, EventsCanScheduleEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.ScheduleAfter(1, recurse);
  };
  e.ScheduleAfter(0, recurse);
  e.Run();
  EXPECT_EQ(depth, 100);
}

TEST(EngineTest, EventLimitGuardsLivelock) {
  Engine e;
  e.set_event_limit(50);
  std::function<void()> forever = [&] { e.ScheduleAfter(1, forever); };
  e.ScheduleAfter(0, forever);
  e.Run();
  EXPECT_TRUE(e.hit_event_limit());
  EXPECT_EQ(e.processed_events(), 50u);
}

TEST(EngineTest, StepProcessesOneEvent) {
  Engine e;
  int count = 0;
  e.ScheduleAt(1, [&] { ++count; });
  e.ScheduleAt(2, [&] { ++count; });
  EXPECT_TRUE(e.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(e.Step());
}

TEST(EngineTest, CancelledEventsDontBlockRunUntil) {
  Engine e;
  EventId id = e.ScheduleAt(Milliseconds(1), [] {});
  bool fired = false;
  e.ScheduleAt(Milliseconds(2), [&] { fired = true; });
  e.Cancel(id);
  e.RunUntil(Milliseconds(5));
  EXPECT_TRUE(fired);
}

TEST(EngineTest, PendingEventsCountsLiveOnly) {
  Engine e;
  EventId a = e.ScheduleAt(1, [] {});
  e.ScheduleAt(2, [] {});
  EXPECT_EQ(e.pending_events(), 2u);
  e.Cancel(a);
  EXPECT_EQ(e.pending_events(), 1u);
}

// --- Differential test against a brute-force reference -----------------
//
// A seeded random walk drives the engine and a std::set of (time, key)
// side by side. Keys are handed out in scheduling order, exactly like
// the engine's sequence numbers, so the set's order is the fire order
// the engine must reproduce. The walk mixes the delay shapes the
// workloads produce (ms-scale with ns jitter) with zero delays, exact
// ties, cancel storms large enough to force heap compaction (also from
// inside a firing closure), schedules and cancels from inside firing
// closures, stale ids whose slots compaction has recycled, Step and
// RunUntil.

class QueueDifferential {
 public:
  explicit QueueDifferential(std::uint64_t seed) : rng_(seed) {}

  void Walk(int steps) {
    for (int i = 0; i < steps && !::testing::Test::HasFailure(); ++i) {
      const std::uint64_t op = rng_.UniformInt(20);
      if (op < 8) {
        Schedule();
      } else if (op < 11) {
        CancelRandom();
      } else if (op < 14) {
        EXPECT_EQ(engine_.Step(), !ref_.empty());
      } else if (op < 17) {
        RunUntil(engine_.now() + DrawDelay());
      } else if (op < 18) {
        CancelStorm();
      } else {
        // A bound at the current instant still fires its events.
        RunUntil(engine_.now());
      }
      ASSERT_EQ(engine_.pending_events(), ref_.size());
    }
    engine_.Run();
    EXPECT_TRUE(ref_.empty());
    EXPECT_TRUE(engine_.empty());
    // Every id is stale now: fired or cancelled.
    for (EventId id : ids_) EXPECT_FALSE(engine_.Cancel(id));
  }

  std::size_t fired() const { return fired_; }
  std::size_t cancelled() const { return cancelled_; }

 private:
  enum class State { kPending, kFired, kCancelled };

  Duration DrawDelay() {
    switch (rng_.UniformInt(8)) {
      case 0:
        return 0;
      case 1:  // sub-microsecond
        return static_cast<Duration>(rng_.UniformInt(1000));
      case 2:  // whole milliseconds: ties between independent schedules
        return Milliseconds(rng_.UniformRange(1, 4));
      case 3:
        return Seconds(rng_.UniformRange(1, 20));
      default:  // the cost model's shape: ms with ns jitter
        return Milliseconds(rng_.UniformRange(1, 50)) +
               static_cast<Duration>(rng_.UniformInt(1000));
    }
  }

  Time DrawTime() {
    // One in four lands exactly on a known event's time (if it has not
    // passed), tying with it.
    if (!times_.empty() && rng_.UniformInt(4) == 0) {
      const Time t = times_[rng_.UniformInt(times_.size())];
      if (t >= engine_.now()) return t;
    }
    return engine_.now() + DrawDelay();
  }

  std::size_t Schedule() {
    const Time t = DrawTime();
    const std::size_t key = ids_.size();
    ids_.push_back(engine_.ScheduleAt(t, [this, key] { OnFire(key); }));
    times_.push_back(t);
    states_.push_back(State::kPending);
    ref_.insert({t, key});
    return key;
  }

  bool Cancel(std::size_t key) {
    const bool expect = states_[key] == State::kPending;
    const bool got = engine_.Cancel(ids_[key]);
    EXPECT_EQ(got, expect) << "key " << key;
    if (expect) {
      states_[key] = State::kCancelled;
      ref_.erase({times_[key], key});
      ++cancelled_;
    }
    return got;
  }

  void CancelRandom() {
    if (!ids_.empty()) Cancel(rng_.UniformInt(ids_.size()));
  }

  // Schedules a burst and cancels nine in ten of it: the dead entries
  // outnumber the live ones, so the queue compacts. Then probes the
  // cancelled ids again after new schedules have had the chance to
  // reuse their slots.
  void CancelStorm() {
    const std::size_t n = ref_.size() + 100 + rng_.UniformInt(200);
    std::vector<std::size_t> burst;
    for (std::size_t i = 0; i < n; ++i) burst.push_back(Schedule());
    std::vector<std::size_t> dead;
    for (std::size_t key : burst) {
      if (rng_.UniformInt(10) != 0 && Cancel(key)) dead.push_back(key);
    }
    for (int i = 0; i < 50; ++i) Schedule();
    const std::size_t pending = engine_.pending_events();
    for (std::size_t key : dead) EXPECT_FALSE(Cancel(key));
    EXPECT_EQ(engine_.pending_events(), pending);
  }

  // Cancels three in four pending events: from inside a firing
  // closure, this compacts the heap under the running event.
  void CancelSweep() {
    std::vector<std::size_t> pending;
    for (const auto& [t, key] : ref_) pending.push_back(key);
    for (std::size_t key : pending) {
      if (rng_.UniformInt(4) != 0) Cancel(key);
    }
  }

  void RunUntil(Time bound) {
    const std::size_t before = fired_;
    const std::uint64_t n = engine_.RunUntil(bound);
    EXPECT_EQ(n, fired_ - before);
    EXPECT_EQ(engine_.now(), bound);
    EXPECT_TRUE(ref_.empty() || ref_.begin()->first > bound);
  }

  void OnFire(std::size_t key) {
    ASSERT_FALSE(ref_.empty());
    EXPECT_EQ(ref_.begin()->second, key) << "fired out of (time, seq) order";
    EXPECT_EQ(engine_.now(), times_[key]);
    ASSERT_EQ(ref_.erase({times_[key], key}), 1u);
    EXPECT_EQ(states_[key], State::kPending);
    states_[key] = State::kFired;
    ++fired_;
    EXPECT_EQ(engine_.pending_events(), ref_.size());
    // The firing event's own id is already spent.
    EXPECT_FALSE(engine_.Cancel(ids_[key]));
    // Reentrant work from inside the closure.
    switch (rng_.UniformInt(8)) {
      case 0:
        Schedule();
        break;
      case 1:
        CancelRandom();
        break;
      case 2:
        Schedule();
        Schedule();
        CancelRandom();
        break;
      case 3:
        if (rng_.UniformInt(8) == 0) CancelSweep();
        break;
      default:
        break;
    }
  }

  Engine engine_;
  Rng rng_;
  std::set<std::pair<Time, std::size_t>> ref_;
  std::vector<EventId> ids_;  // indexed by key
  std::vector<Time> times_;
  std::vector<State> states_;
  std::size_t fired_ = 0;
  std::size_t cancelled_ = 0;
};

TEST(EngineDifferentialTest, MatchesBruteForceReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    QueueDifferential walk(seed);
    walk.Walk(3000);
    if (HasFailure()) return;
    EXPECT_GT(walk.fired(), 1000u);
    EXPECT_GT(walk.cancelled(), 1000u);
  }
}

// Schedule-then-cancel churn behind a fixed set of live events: without
// compaction every cancelled entry (and its slot) would stay until the
// clock reached it, growing without bound.
TEST(LaneQueueTest, CancelChurnKeepsMemoryBounded) {
  LaneQueue q;
  std::uint64_t seq = 1;
  auto schedule = [&q, &seq](Time t) {
    const std::uint32_t index = q.AcquireSlot();
    LaneQueue::Slot& slot = q.SlotAt(index);
    LaneQueue::EmplaceClosure(slot, [] {});
    q.Arm(index, t, seq++);
    return index;
  };
  auto cancel = [&q](std::uint32_t index) {
    LaneQueue::Slot& slot = q.SlotAt(index);
    slot.armed = false;
    LaneQueue::DestroyClosure(slot);
    q.NoteCancelledQueued();
  };
  constexpr std::size_t kLive = 100;
  for (std::size_t i = 0; i < kLive; ++i) {
    schedule(Seconds(1) + static_cast<Time>(i));
  }
  const std::size_t bound = kLive + std::max(kLive, LaneQueue::kCompactFloor);
  std::size_t max_entries = 0;
  for (int i = 0; i < 100'000; ++i) {
    cancel(schedule(Seconds(2) + i));
    max_entries = std::max(max_entries, q.heap_entries());
  }
  EXPECT_EQ(q.live_events(), kLive);
  EXPECT_LE(max_entries, bound + 1);  // + the one just armed
  EXPECT_LE(q.slot_count(), bound + 1);
  // The survivors still pop in (time, seq) order.
  LaneQueue::Fired fired;
  for (std::size_t i = 0; i < kLive; ++i) {
    ASSERT_TRUE(q.PopDue(Seconds(3), fired));
    EXPECT_EQ(q.now(), Seconds(1) + static_cast<Time>(i));
    EXPECT_EQ(fired.seq, i + 1);
    LaneQueue::DestroyClosure(q.SlotAt(fired.slot));
    q.FreeSlot(fired.slot);
  }
  EXPECT_FALSE(q.PopDue(Seconds(3), fired));
}

}  // namespace
}  // namespace kd::sim
