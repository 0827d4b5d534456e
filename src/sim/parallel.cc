#include "sim/parallel.h"

#include <algorithm>
#include <cassert>

#include "sim/engine.h"

namespace kd::sim {

thread_local WorkerTls t_worker;

void AdoptBoxed(LaneQueue::Slot& slot, const BoxedFn& box) {
  // The slot's inline buffer holds just the box pointer; invoke and
  // destroy indirect through it.
  ::new (static_cast<void*>(slot.closure)) BoxedFn(box);
  slot.invoke = [](void* c) {
    const BoxedFn* b = static_cast<const BoxedFn*>(static_cast<void*>(c));
    b->invoke(b->obj);
  };
  slot.destroy = [](void* c) {
    const BoxedFn* b = static_cast<const BoxedFn*>(static_cast<void*>(c));
    b->drop(b->obj);
  };
  slot.armed = true;
  slot.queued = false;
}

void Engine::ConfigureParallel(int groups, int threads) {
  KD_CHECK(t_worker.engine == nullptr,
           "ConfigureParallel must be called outside events");
  KD_CHECK(pstate_ == nullptr, "ConfigureParallel may be called once");
  KD_CHECK(groups >= 1 && groups <= 1023,
           "lane group count must fit the EventId group field");
  if (groups <= 1) return;  // serial: keep the single-queue fast path
  if (threads < 1) threads = 1;
  if (threads > groups) threads = groups;
  pstate_ = std::make_unique<ParallelState>();
  ParallelState& ps = *pstate_;
  ps.num_groups = groups;
  ps.num_threads = threads;
  // The parallel driver clock takes over from queue 0's.
  now_ = queues_[0]->now();
  queues_.reserve(static_cast<std::size_t>(groups));
  for (int g = 1; g < groups; ++g) {
    queues_.push_back(std::make_unique<LaneQueue>());
  }
  ps.groups.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    ps.groups.push_back(std::make_unique<GroupRun>());
    if (g > 0) {
      // Independent per-group jitter streams, reproducible from the
      // engine seed (group 0 keeps the serial stream).
      ps.groups[static_cast<std::size_t>(g)]->rng.Seed(
          rng_seed_ ^ (0xD1B54A32D192ED03ULL *
                       (static_cast<std::uint64_t>(g) + 1)));
    }
  }
  ps.mail.assign(static_cast<std::size_t>(groups),
                 std::vector<std::vector<MailEntry>>(
                     static_cast<std::size_t>(groups)));
  lane_checker_.SetParallelMode(true);
  for (int w = 1; w < threads; ++w) {
    ps.threads.emplace_back([this, w] { WorkerMain(w); });
  }
}

void Engine::BindLaneToGroup(LaneId lane, int group) {
  KD_CHECK(pstate_ != nullptr,
           "BindLaneToGroup requires ConfigureParallel first");
  KD_CHECK(lane != kNoLane, "kNoLane cannot be bound to a group");
  KD_CHECK(group >= 0 && group < pstate_->num_groups,
           "lane group index out of range");
  if (lane >= lane_group_.size()) lane_group_.resize(lane + 1, 0);
  lane_group_[lane] = static_cast<std::uint16_t>(group);
}

void Engine::SetLookahead(Duration l) {
  KD_CHECK(l >= 1, "conservative lookahead must be at least one tick");
  lookahead_ = l;
}

std::uint64_t Engine::RunParallel(Time until, bool bounded) {
  ParallelState& ps = *pstate_;
  stop_flag_.store(false, std::memory_order_relaxed);
  hit_event_limit_ = false;
  std::uint64_t n = 0;
  for (;;) {
    if (stop_flag_.load(std::memory_order_relaxed)) break;
    if (event_limit_ != 0 && n >= event_limit_) {
      hit_event_limit_ = true;
      break;
    }
    // Epoch start T: the globally earliest queued event.
    Time t_min = LaneQueue::kNoEvent;
    for (auto& q : queues_) {
      const Time t = q->PeekNextTime();
      if (t != LaneQueue::kNoEvent &&
          (t_min == LaneQueue::kNoEvent || t < t_min)) {
        t_min = t;
      }
    }
    if (t_min == LaneQueue::kNoEvent) break;
    if (bounded && t_min > until) break;
    ps.epoch_end = t_min + lookahead_;
    if (bounded && ps.epoch_end > until + 1) ps.epoch_end = until + 1;
    ps.seq_base = next_seq_;
    ps.group_fire_cap =
        event_limit_ == 0 ? ~std::uint64_t{0} : event_limit_ - n;
    for (auto& g : ps.groups) {
      g->spawns.clear();
      g->records.clear();
      g->staged = StagedHeap();
      g->tentative = 0;
      g->epoch_events = 0;
    }
    RunEpochOnWorkers();
    n += ReplayEpoch();
    ++ps.epochs;
    ps.lookahead_sum += static_cast<std::uint64_t>(ps.epoch_end - t_min);
    std::uint64_t worst = 0;
    for (auto& g : ps.groups) worst = std::max(worst, g->epoch_events);
    ps.critical_path_events += worst;
    now_ = std::max(now_, ps.epoch_end - 1);
  }
  if (bounded && !stop_flag_.load(std::memory_order_relaxed) &&
      !hit_event_limit_) {
    // Advance every group clock to the bound. Safe: the last epoch
    // selection peeked every queue, so no live event earlier than
    // `until` remains.
    for (auto& q : queues_) {
      if (q->now() < until) q->AdvanceTo(until);
    }
    now_ = until;
  } else {
    for (auto& q : queues_) now_ = std::max(now_, q->now());
  }
  return n;
}

void Engine::RunEpochOnWorkers() {
  ParallelState& ps = *pstate_;
  const int nt = ps.num_threads;
  if (nt <= 1) {
    // Single-worker parallel mode: every group runs inline on the main
    // thread — the fully deterministic baseline the multi-thread runs
    // are compared against (they must match it byte for byte anyway).
    for (int g = 0; g < ps.num_groups; ++g) RunGroupEpoch(g);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(ps.mu);
    ++ps.ticket;
    ps.outstanding = nt - 1;
  }
  ps.cv_work.notify_all();
  for (int g = 0; g < ps.num_groups; g += nt) RunGroupEpoch(g);
  std::unique_lock<std::mutex> lock(ps.mu);
  ps.cv_done.wait(lock, [&ps] { return ps.outstanding == 0; });
}

void Engine::WorkerMain(int worker_index) {
  ParallelState& ps = *pstate_;
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(ps.mu);
      ps.cv_work.wait(lock,
                      [&] { return ps.shutdown || ps.ticket != seen; });
      if (ps.shutdown) return;
      seen = ps.ticket;
    }
    for (int g = worker_index; g < ps.num_groups; g += ps.num_threads) {
      RunGroupEpoch(g);
    }
    {
      std::lock_guard<std::mutex> lock(ps.mu);
      --ps.outstanding;
    }
    ps.cv_done.notify_one();
  }
}

void Engine::RunGroupEpoch(int group) {
  ParallelState& ps = *pstate_;
  LaneQueue& q = *queues_[static_cast<std::size_t>(group)];
  GroupRun& g = *ps.groups[static_cast<std::size_t>(group)];
  WorkerTls& tls = t_worker;
  tls.engine = this;
  tls.group = group;
  std::uint64_t fired = 0;
  while (fired < ps.group_fire_cap) {
    // Merge the group's main queue (pre-existing events, true seqs all
    // < seq_base) with the staged heap (in-epoch spawns, tentative
    // keys >= seq_base) on (time, key). At equal times the main queue
    // wins — exactly the serial tie-break, since every true seq is
    // smaller than every tentative key.
    const Time qt = q.PeekNextTime();
    while (!g.staged.empty() &&
           !q.SlotAt(g.spawns[g.staged.top().spawn].slot).armed) {
      // Cancelled in-epoch before firing; the barrier replay still
      // burns its seq and recycles the slot.
      g.staged.pop();
    }
    const bool has_q = qt != LaneQueue::kNoEvent && qt < ps.epoch_end;
    const bool has_s = !g.staged.empty();
    if (!has_q && !has_s) break;
    const bool from_staged = !has_q || (has_s && g.staged.top().time < qt);
    if (!from_staged) {
      LaneQueue::Fired f;
      // Cannot fail: the peek skimmed the heap to a live top due
      // before epoch_end.
      [[maybe_unused]] const bool popped = q.PopDue(ps.epoch_end - 1, f);
      assert(popped);
      LaneQueue::Slot& slot = q.SlotAt(f.slot);
      const std::uint32_t rec =
          static_cast<std::uint32_t>(g.records.size());
      g.records.push_back(ExecRecord{
          q.now(), f.seq, MakeEventId(group, f.slot, f.generation), 0, 0});
      tls.now = q.now();
      tls.origin = slot.origin;
      // Lane context is routing state in parallel mode (it decides
      // seam origins and the rng stream), not just a checker aid, so
      // it is maintained whether or not the checker is enabled.
      lane_checker_.BeginEventParallel(q.now(), slot.lane);
      const std::uint32_t spawn_begin =
          static_cast<std::uint32_t>(g.spawns.size());
      slot.invoke(slot.closure);
      lane_checker_.SetCurrentLane(kNoLane);
      LaneQueue::Slot& fired_slot = q.SlotAt(f.slot);
      LaneQueue::DestroyClosure(fired_slot);
      q.FreeSlot(f.slot);
      g.records[rec].spawn_begin = spawn_begin;
      g.records[rec].spawn_end =
          static_cast<std::uint32_t>(g.spawns.size());
    } else {
      const StagedEntry se = g.staged.top();
      g.staged.pop();
      const std::uint32_t index = g.spawns[se.spawn].slot;
      LaneQueue::Slot& slot = q.SlotAt(index);
      if (se.time > q.now()) q.AdvanceTo(se.time);
      // Fire an in-epoch spawn directly from its slot: it never held a
      // queue entry. Disarm + bump generation first, exactly like
      // PopDue, so in-closure Cancel sees "already fired".
      const std::uint32_t rec =
          static_cast<std::uint32_t>(g.records.size());
      g.spawns[se.spawn].exec_record = static_cast<std::int32_t>(rec);
      const std::uint32_t generation = slot.generation;
      slot.armed = false;
      ++slot.generation;
      g.records.push_back(ExecRecord{
          se.time, 0, MakeEventId(group, index, generation), 0, 0});
      tls.now = se.time;
      tls.origin = slot.origin;
      lane_checker_.BeginEventParallel(se.time, slot.lane);
      const std::uint32_t spawn_begin =
          static_cast<std::uint32_t>(g.spawns.size());
      slot.invoke(slot.closure);
      lane_checker_.SetCurrentLane(kNoLane);
      LaneQueue::Slot& fired_slot = q.SlotAt(index);
      LaneQueue::DestroyClosure(fired_slot);
      q.FreeSlot(index);
      g.records[rec].spawn_begin = spawn_begin;
      g.records[rec].spawn_end =
          static_cast<std::uint32_t>(g.spawns.size());
    }
    ++fired;
  }
  g.epoch_events = fired;
  g.processed += fired;
  tls.engine = nullptr;
  tls.origin = kNoLane;
  tls.now = 0;
  tls.group = 0;
}

std::uint64_t Engine::ReplayEpoch() {
  ParallelState& ps = *pstate_;
  auto& ready = ps.ready;  // drained empty by the previous replay
  std::uint64_t fired = 0;
  for (std::uint32_t gi = 0; gi < ps.groups.size(); ++gi) {
    GroupRun& g = *ps.groups[gi];
    fired += g.records.size();
    for (std::uint32_t ri = 0; ri < g.records.size(); ++ri) {
      // Pre-existing events carry their true seq (>= 1); in-epoch
      // spawns (seq 0) become ready when their parent pops below.
      if (g.records[ri].seq != 0) {
        ready.push(
            ParallelState::ReadyEntry{g.records[ri].time,
                                      g.records[ri].seq, gi, ri});
      }
    }
  }
  // Pop in global (time, seq) order, assigning the serial sequence
  // numbers to each popped record's spawns in program order — exactly
  // what the serial engine did at schedule time. Every spawned
  // record's key exceeds its parent's, so emission stays sorted and
  // the trace hook observes the serial order byte for byte.
  while (!ready.empty()) {
    const ParallelState::ReadyEntry top = ready.top();
    ready.pop();
    GroupRun& g = *ps.groups[top.group];
    const ExecRecord& rec = g.records[top.record];
    if (trace_hook_) trace_hook_(rec.time, rec.seq, rec.id);
    for (std::uint32_t si = rec.spawn_begin; si < rec.spawn_end; ++si) {
      Spawn& sp = g.spawns[si];
      const std::uint64_t seq = next_seq_++;
      if (sp.exec_record >= 0) {
        const std::uint32_t cr = static_cast<std::uint32_t>(sp.exec_record);
        g.records[cr].seq = seq;
        ready.push(ParallelState::ReadyEntry{g.records[cr].time, seq,
                                             top.group, cr});
      } else if (sp.mail_target >= 0) {
        // Cross-group spawn: insert into the target queue now, with
        // its true seq. Target clocks sit at most at epoch_end - 1 and
        // the lookahead contract puts sp.time at or past epoch_end.
        MailEntry& m = ps.mail[top.group]
                              [static_cast<std::size_t>(sp.mail_target)]
                              [sp.mail_index];
        LaneQueue& tq = *queues_[static_cast<std::size_t>(sp.mail_target)];
        const std::uint32_t index = tq.AcquireSlot();
        LaneQueue::Slot& slot = tq.SlotAt(index);
        slot.lane = m.lane;
        slot.origin = m.origin;
        AdoptBoxed(slot, m.fn);
        m.fn = BoxedFn{};  // ownership moved into the slot
        tq.Arm(index, m.time, seq);
      } else {
        LaneQueue& q = *queues_[top.group];
        LaneQueue::Slot& slot = q.SlotAt(sp.slot);
        if (slot.armed) {
          // Scheduled for a later epoch (or past the fire cap): insert
          // with the true seq.
          q.Arm(sp.slot, sp.time, seq);
        } else {
          // Cancelled in-epoch before entering the queue; the serial
          // engine burned this seq at schedule time all the same.
          q.ReleaseSlot(sp.slot);
        }
      }
    }
  }
  for (auto& row : ps.mail) {
    for (auto& box : row) box.clear();
  }
  processed_ += fired;
  return fired;
}

void Engine::ShutdownPool() {
  if (pstate_ == nullptr || pstate_->threads.empty()) return;
  {
    std::lock_guard<std::mutex> lock(pstate_->mu);
    pstate_->shutdown = true;
  }
  pstate_->cv_work.notify_all();
  for (std::thread& t : pstate_->threads) t.join();
  pstate_->threads.clear();
}

}  // namespace kd::sim
