#include "sim/lane_queue.h"

namespace kd::sim {

LaneQueue::~LaneQueue() {
  // Destroy captures of still-pending events. Cancelled slots already
  // dropped theirs (destroy == nullptr after DestroyClosure).
  for (std::size_t i = 0; i < slot_count_; ++i) {
    Slot& slot = SlotAt(static_cast<std::uint32_t>(i));
    if (slot.destroy != nullptr) slot.destroy(slot.closure);
  }
}

void LaneQueue::Arm(std::uint32_t index, Time t, std::uint64_t seq) {
  assert(SlotAt(index).armed);
  assert(t >= now_);
  heap_.push_back({t, seq, index});
  SiftUp(heap_.size() - 1);
  ++live_events_;
}

// The heap is 4-ary: each sift level is a dependent cache access, so
// halving the depth (log4 vs log2) roughly halves the dependency chain
// while the four children sit in at most two cache lines. Pop ORDER is
// unaffected by arity or sift strategy — Before() is a strict total
// order (seq breaks all ties), so entries pop in exactly sorted
// (time, seq) order for any valid heap shape.
void LaneQueue::SiftUp(std::size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!Before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

std::size_t LaneQueue::MinChild(std::size_t first, std::size_t n) const {
  std::size_t best = first;
  const std::size_t last = first + 4 < n ? first + 4 : n;
  for (std::size_t c = first + 1; c < last; ++c) {
    if (Before(heap_[c], heap_[best])) best = c;
  }
  return best;
}

void LaneQueue::SiftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry entry = heap_[i];
  while (4 * i + 1 < n) {
    const std::size_t best = MinChild(4 * i + 1, n);
    if (!Before(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

void LaneQueue::PopTop() {
  const std::size_t n = heap_.size() - 1;  // entries excluding the back
  if (n == 0) {
    heap_.pop_back();
    return;
  }
  // Bottom-up extraction: sift the hole at the root down the min-child
  // path all the way to a leaf (a fixed, well-predicted descent — no
  // per-level "does the replacement belong here?" compare), then drop
  // the displaced back entry into the hole and bubble it up. The back
  // entry is almost always a recent, i.e. late, event, so the final
  // SiftUp is expected O(1).
  std::size_t hole = 0;
  while (4 * hole + 1 < n) {
    const std::size_t best = MinChild(4 * hole + 1, n);
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = heap_[n];
  heap_.pop_back();
  SiftUp(hole);
}

void LaneQueue::Compact() {
  std::size_t kept = 0;
  for (const HeapEntry& e : heap_) {
    if (SlotAt(e.slot).armed) {
      heap_[kept++] = e;
    } else {
      ReleaseSlot(e.slot);
    }
  }
  heap_.resize(kept);
  assert(kept == live_events_);
  // Floyd's heapify: sift down every parent, last first.
  if (kept < 2) return;
  for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;) SiftDown(i);
}

Time LaneQueue::PeekNextTime() {
  // Skim dead (cancelled) tops so heap_.front() is a live event.
  while (!heap_.empty() && !SlotAt(heap_.front().slot).armed) {
    const std::uint32_t index = heap_.front().slot;
    PopTop();
    ReleaseSlot(index);
  }
  return heap_.empty() ? kNoEvent : heap_.front().time;
}

bool LaneQueue::PopDue(Time limit, Fired& out) {
  const Time next = PeekNextTime();
  if (next == kNoEvent || next > limit) return false;
  const std::uint32_t index = heap_.front().slot;
  out.slot = index;
  out.seq = heap_.front().seq;
  PopTop();
  now_ = next;
  // Disarm and bump the generation here, before the caller invokes, so
  // a Cancel(id) or stale-id probe from inside the closure sees
  // "already fired". The slot is not on the free list yet, so nothing
  // the closure schedules can recycle it mid-invocation, and chunked
  // storage keeps its address stable while the arena grows.
  Slot& slot = SlotAt(index);
  out.generation = slot.generation;
  slot.armed = false;
  ++slot.generation;
  assert(live_events_ > 0);
  --live_events_;
  return true;
}

}  // namespace kd::sim
