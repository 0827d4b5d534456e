// Runtime lane-access checker: the dynamic half of the lane-ownership
// story (kdlint R7/R8 are the static half).
//
// The static pass proves that no *component type* reaches another
// component type's KD_LANE_OWNED state except through a sanctioned
// seam. It cannot prove per-instance isolation — that kubelet
// node-0001's event never touches node-0002's tables — because both
// instances share one type. This checker closes that gap at run time:
//
//   - every event carries the lane of the context that scheduled it
//     (Engine tags the slot at ScheduleAt and restores the lane before
//     the closure fires), so lane membership flows through arbitrary
//     closure chains for free;
//   - seams re-scope: a conduit that legitimately crosses lanes (net
//     delivery, the informer merge, the control-loop dispatch, the
//     harness lifecycle) opens a LaneScope for the *receiving* side
//     before running receiver code;
//   - instrumented state (ObjectCache) reports every touch; a touch
//     from a live lane that is not the owner is a conflict, recorded
//     with the provenance (virtual time, sequence number) of both the
//     violating event and the previous toucher in the same
//     virtual-time epoch.
//
// Touches from no lane at all (driver/test code poking a component
// from outside any event, or before lanes are wired) are exempt:
// kNoLane means "not a component context", not "lane zero".
//
// The checker is deterministic and inert by default: it never
// schedules events, never reads wall-clock state, and when disabled
// costs one predicted branch per touch — enabling it must not (and
// does not) change a run's event-trace fingerprint.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/lane.h"
#include "common/time.h"

namespace kd::sim {

class LaneChecker {
 public:
  // Dense ids from 1 (kNoLane = 0 stays "no lane"). Registering an
  // existing name returns its id — same-named instances share a lane.
  LaneId RegisterLane(const std::string& name);
  const std::string& lane_name(LaneId id) const;
  std::size_t lane_count() const { return names_.size() - 1; }

  void Enable(bool on = true) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Lane of the executing event (kNoLane outside events).
  LaneId current_lane() const { return ctx_.lane; }
  void SetCurrentLane(LaneId lane) { ctx_.lane = lane; }

  // Called by the engine as each event fires: restores the event's
  // lane and, when the virtual clock advanced, starts a new epoch
  // (clears the shadow map — conflicts are only meaningful between
  // events at the same virtual time, whose relative order is a
  // tie-break rather than causality).
  void BeginEvent(Time time, std::uint64_t seq, LaneId lane);

  // Reports one access to instrumented state. `site` identifies the
  // object (its address), `site_name` labels it in reports, `owner` is
  // the lane the state is bound to, `key` the touched entry.
  void Touch(const void* site, const std::string& site_name, LaneId owner,
             const std::string& key, bool is_write);

  struct Conflict {
    std::string site;  // site_name of the touched object
    std::string key;
    LaneId owner = kNoLane;   // lane the state belongs to
    LaneId actual = kNoLane;  // lane of the violating event
    Time time = 0;            // violating event's provenance
    std::uint64_t seq = 0;
    // Previous toucher in the same epoch (kNoLane when the violation
    // is a plain ownership breach with no prior touch this epoch).
    LaneId prev_lane = kNoLane;
    Time prev_time = 0;
    std::uint64_t prev_seq = 0;
  };

  // First kMaxRecorded conflicts in detail; total_conflicts() counts
  // every one (a broken run can conflict on every touch).
  const std::vector<Conflict>& conflicts() const { return conflicts_; }
  std::uint64_t total_conflicts() const { return total_conflicts_; }
  std::string FormatReport() const;
  void ClearConflicts();

 private:
  static constexpr std::size_t kMaxRecorded = 100;

  struct EventCtx {
    LaneId lane = kNoLane;
    Time time = 0;
    std::uint64_t seq = 0;
  };
  EventCtx ctx_;

  struct TouchRec {
    LaneId lane;
    Time time;
    std::uint64_t seq;
    bool write;
  };

  std::string FormatConflict(const Conflict& c) const;
  void Record(Conflict c);

  bool enabled_ = false;
  Time epoch_time_ = 0;
  std::vector<std::string> names_{"<none>"};  // index 0 = kNoLane
  std::map<std::string, LaneId> by_name_;
  // (object address, key) -> first touch this epoch.
  std::map<std::pair<const void*, std::string>, TouchRec> shadow_;
  std::vector<Conflict> conflicts_;
  std::uint64_t total_conflicts_ = 0;
};

// RAII re-scope used by sanctioned seams: runs the enclosed receiver
// code in `lane`, restoring the previous lane on exit (exception
// safe). The pointer overload tolerates unwired call sites.
class LaneScope {
 public:
  LaneScope(LaneChecker& checker, LaneId lane)
      : checker_(&checker), prev_(checker.current_lane()) {
    checker_->SetCurrentLane(lane);
  }
  LaneScope(LaneChecker* checker, LaneId lane)
      : checker_(checker), prev_(checker ? checker->current_lane() : kNoLane) {
    if (checker_ != nullptr) checker_->SetCurrentLane(lane);
  }
  ~LaneScope() {
    if (checker_ != nullptr) checker_->SetCurrentLane(prev_);
  }
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  LaneChecker* checker_;
  LaneId prev_;
};

}  // namespace kd::sim
