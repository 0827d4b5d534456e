// The engine's event queue: a slot/generation arena plus a 4-ary
// (time, seq) min-heap. sim::Engine owns exactly one.
//
// Closures are stored in place in 64-byte slots that live in
// address-stable chunks; the heap holds (time, seq, slot) entries.
// Cancel disarms the slot and leaves its entry to skim lazily when it
// reaches the top; once dead entries outnumber live ones (above a
// small floor) the heap is compacted in one O(n) pass, so cancel churn
// stays amortized O(1) and the heap stays within about 2x the live
// events. Fire order is exactly sorted (time, seq) for whatever seq
// values the caller arms events with — the queue does not assign
// sequence numbers itself.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/lane.h"
#include "common/time.h"

namespace kd::sim {

using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

class LaneQueue {
 public:
  static constexpr std::size_t kInlineClosureBytes = 64;
  // Chunked arena: slot addresses must stay stable while a closure is
  // executing in place (it may schedule new events, growing the arena).
  static constexpr std::size_t kSlotChunkShift = 8;
  static constexpr std::size_t kSlotChunkSize = std::size_t{1}
                                                << kSlotChunkShift;
  // Dead (cancelled) heap entries tolerated before a compaction pass;
  // past this floor the heap compacts once they outnumber live ones.
  static constexpr std::size_t kCompactFloor = 64;
  static constexpr Time kNoEvent = -1;

  struct Slot {
    alignas(std::max_align_t) unsigned char closure[kInlineClosureBytes];
    void (*invoke)(void*) = nullptr;
    // nullptr when the captures are trivially destructible — the
    // common case pays no indirect call to drop them.
    void (*destroy)(void*) = nullptr;
    std::uint32_t generation = 1;
    LaneId lane = kNoLane;    // lane the event executes in
    LaneId origin = kNoLane;  // lane of the scheduling context
    bool armed = false;  // true while queued and not cancelled
  };

  // A fired event, handed back for the caller to invoke: the slot is
  // disarmed and its generation already bumped (so a Cancel or stale-id
  // probe from inside the closure sees "already fired"), but the
  // closure is NOT yet destroyed and the slot NOT yet recycled — the
  // caller invokes `SlotAt(slot).invoke(...)` and then must call
  // `DestroyClosure` + `FreeSlot`.
  struct Fired {
    std::uint32_t slot = 0;
    std::uint64_t seq = 0;
    std::uint32_t generation = 0;  // pre-bump value, for the EventId
  };

  LaneQueue() = default;
  ~LaneQueue();
  LaneQueue(const LaneQueue&) = delete;
  LaneQueue& operator=(const LaneQueue&) = delete;

  Time now() const { return now_; }
  std::size_t live_events() const { return live_events_; }
  // Arena slots ever allocated and heap entries held (live + dead):
  // the queue's memory footprint. Slot indices below slot_count() are
  // valid.
  std::size_t slot_count() const { return slot_count_; }
  std::size_t heap_entries() const { return heap_.size(); }

  Slot& SlotAt(std::uint32_t i) {
    return chunks_[i >> kSlotChunkShift][i & (kSlotChunkSize - 1)];
  }

  std::uint32_t AcquireSlot() {
    if (!free_slots_.empty()) {
      const std::uint32_t i = free_slots_.back();
      free_slots_.pop_back();
      return i;
    }
    if ((slot_count_ & (kSlotChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
    }
    return static_cast<std::uint32_t>(slot_count_++);
  }

  // Type-erases `fn` into the slot's inline buffer (heap box only for
  // oversized/overaligned captures) and marks the slot armed.
  template <class F>
  static void EmplaceClosure(Slot& slot, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineClosureBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(slot.closure)) Fn(std::forward<F>(fn));
      slot.invoke = [](void* c) { (*static_cast<Fn*>(c))(); };
      slot.destroy = std::is_trivially_destructible_v<Fn>
                         ? nullptr
                         : static_cast<void (*)(void*)>(
                               [](void* c) { static_cast<Fn*>(c)->~Fn(); });
    } else {
      // Oversized or overaligned closure: box it.
      ::new (static_cast<void*>(slot.closure))
          Fn*(new Fn(std::forward<F>(fn)));
      slot.invoke = [](void* c) { (**static_cast<Fn**>(c))(); };
      slot.destroy = [](void* c) { delete *static_cast<Fn**>(c); };
    }
    slot.armed = true;
  }

  static void DestroyClosure(Slot& slot) {
    if (slot.destroy != nullptr) slot.destroy(slot.closure);
    slot.invoke = nullptr;
    slot.destroy = nullptr;
  }

  // Recycles a fired slot WITHOUT bumping the generation again (the
  // fire already bumped it).
  void FreeSlot(std::uint32_t index) { free_slots_.push_back(index); }

  // Inserts the queue entry for an armed, closure-populated slot with
  // the caller-assigned sequence number. t must be >= now().
  void Arm(std::uint32_t index, Time t, std::uint64_t seq);

  // Accounts for a cancelled (disarmed) queued event: drops the
  // live-event count; the entry itself skims lazily, or goes in the
  // next compaction.
  void NoteCancelledQueued() {
    assert(live_events_ > 0);
    --live_events_;
    const std::size_t dead = heap_.size() - live_events_;
    if (dead > kCompactFloor && dead > live_events_) Compact();
  }

  // Advances the clock to t (t > now()). No live event may be queued
  // before t.
  void AdvanceTo(Time t) {
    assert(t > now_);
    now_ = t;
  }

  // Pops the next live queued event with time <= limit, advancing the
  // clock to its time. A false return means none is due by `limit`.
  // See Fired for the post-conditions.
  bool PopDue(Time limit, Fired& out);

 private:
  struct HeapEntry {
    Time time;
    std::uint64_t seq;  // tie-break: FIFO at equal times
    std::uint32_t slot;
  };

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  // Recycles a slot whose closure is already gone (fired or cancelled),
  // invalidating any outstanding EventId.
  void ReleaseSlot(std::uint32_t index) {
    Slot& slot = SlotAt(index);
    ++slot.generation;
    free_slots_.push_back(index);
  }

  // Skims dead (cancelled) entries, then returns the time of the next
  // live queued event without firing or advancing the clock (kNoEvent
  // if none).
  Time PeekNextTime();

  // Index of the least of the (up to four) children starting at
  // `first`, among the first n entries.
  std::size_t MinChild(std::size_t first, std::size_t n) const;
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);
  void PopTop();
  // Drops every dead entry (recycling its slot) and re-heapifies.
  void Compact();

  Time now_ = 0;
  std::size_t live_events_ = 0;
  std::size_t slot_count_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
};

}  // namespace kd::sim
