// Concurrency wrappers for state that parallel lane execution shares.
//
// kdlint R9 bans raw thread primitives (std::thread / std::mutex /
// std::atomic) outside src/sim: product code must not invent its own
// synchronization, because anything beyond the sanctioned seam shapes
// would break the deterministic-replay argument (sim/parallel.h). The
// few pieces of genuinely shared state the parallel engine allows —
// the cluster-wide MetricsRecorder, the network's connection registry
// and byte counters, the API server's in-flight reply table, the
// shared payload nodes of model::Value — use these wrappers instead.
// They are exactly a mutex, a relaxed counter and a reference count;
// the value of the indirection is that every cross-lane
// shared object is greppable and R9 keeps the set closed.
//
// Rule of use: a SeamLock may only guard state whose operations
// commute (counters, maxima, set insertion, keyed erase), so the
// result of a run cannot depend on which lane won the lock. Anything
// order-sensitive must stay lane-owned and cross via ScheduleSeam.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

namespace kd::sim {

// A plain mutex. Uncontended in serial mode (the default), so the
// cost there is one atomic RMW per lock — noise next to the work the
// callers do under it.
class SeamLock {
 public:
  SeamLock() = default;
  SeamLock(const SeamLock&) = delete;
  SeamLock& operator=(const SeamLock&) = delete;

  void lock() { mu_.lock(); }
  void unlock() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

using SeamLockGuard = std::lock_guard<SeamLock>;

// A relaxed atomic counter for pure accounting (message/byte totals).
// Relaxed is sufficient: the totals are only read from the driver
// between runs, where the epoch barrier already ordered everything.
class SeamCounter {
 public:
  SeamCounter() = default;
  explicit SeamCounter(std::uint64_t v) : v_(v) {}
  SeamCounter(const SeamCounter&) = delete;
  SeamCounter& operator=(const SeamCounter&) = delete;

  void Add(std::uint64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  void store(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// The reference count of a payload that values share across lanes (the
// copy-on-write model::Value nodes): the atomic protocol of a
// std::shared_ptr control block. Its outcomes — free on the last
// release, detach a shared node before writing — move memory only,
// never the simulated run.
class SeamRefCount {
 public:
  SeamRefCount() = default;  // one owner
  SeamRefCount(const SeamRefCount&) = delete;
  SeamRefCount& operator=(const SeamRefCount&) = delete;

  void Acquire() { n_.fetch_add(1, std::memory_order_relaxed); }
  // True when the caller held the last reference.
  bool Release() { return n_.fetch_sub(1, std::memory_order_acq_rel) == 1; }
  bool shared() const { return n_.load(std::memory_order_acquire) > 1; }

 private:
  std::atomic<std::uint32_t> n_{1};
};

}  // namespace kd::sim
