#include "sim/lane_checker.h"

#include "common/strings.h"

namespace kd::sim {

LaneId LaneChecker::RegisterLane(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const LaneId id = static_cast<LaneId>(names_.size());
  names_.push_back(name);
  by_name_.emplace(name, id);
  return id;
}

const std::string& LaneChecker::lane_name(LaneId id) const {
  static const std::string kUnknown = "<unknown>";
  return id < names_.size() ? names_[id] : kUnknown;
}

void LaneChecker::BeginEvent(Time time, std::uint64_t seq, LaneId lane) {
  if (time != epoch_time_) {
    epoch_time_ = time;
    shadow_.clear();
  }
  ctx_ = EventCtx{lane, time, seq};
}

void LaneChecker::Touch(const void* site, const std::string& site_name,
                        LaneId owner, const std::string& key, bool is_write) {
  if (!enabled_) return;
  const EventCtx& ctx = ctx_;
  if (ctx.lane == kNoLane) return;
  Conflict c;
  bool conflict = false;
  if (owner != kNoLane && ctx.lane != owner) {
    conflict = true;  // ownership breach: wrong lane on owned state
  }
  auto shadow_key = std::make_pair(site, key);
  auto it = shadow_.find(shadow_key);
  if (it != shadow_.end()) {
    const TouchRec& prev = it->second;
    // Same-epoch cross-lane overlap with a write involved: the two
    // events' order is a same-time tie-break, not causality.
    if (prev.lane != ctx.lane && (is_write || prev.write)) {
      conflict = true;
      c.prev_lane = prev.lane;
      c.prev_time = prev.time;
      c.prev_seq = prev.seq;
    }
    if (prev.lane == ctx.lane) it->second.write = prev.write || is_write;
  } else {
    shadow_.emplace(shadow_key,
                    TouchRec{ctx.lane, ctx.time, ctx.seq, is_write});
  }
  if (conflict) {
    c.site = site_name;
    c.key = key;
    c.owner = owner;
    c.actual = ctx.lane;
    c.time = ctx.time;
    c.seq = ctx.seq;
    Record(std::move(c));
  }
}

void LaneChecker::Record(Conflict c) {
  ++total_conflicts_;
  if (conflicts_.size() < kMaxRecorded) conflicts_.push_back(std::move(c));
}

std::string LaneChecker::FormatConflict(const Conflict& c) const {
  std::string out = StrFormat(
      "  %s[%s]: lane '%s' touched state owned by '%s' at t=%lld seq=%llu",
      c.site.c_str(), c.key.c_str(), lane_name(c.actual).c_str(),
      lane_name(c.owner).c_str(), static_cast<long long>(c.time),
      static_cast<unsigned long long>(c.seq));
  if (c.prev_lane != kNoLane) {
    out += StrFormat(" (prior toucher: lane '%s' at t=%lld seq=%llu)",
                     lane_name(c.prev_lane).c_str(),
                     static_cast<long long>(c.prev_time),
                     static_cast<unsigned long long>(c.prev_seq));
  }
  out += "\n";
  return out;
}

std::string LaneChecker::FormatReport() const {
  if (total_conflicts_ == 0) return "lane checker: no conflicts\n";
  std::string out = StrFormat("lane checker: %llu conflict(s)\n",
                              static_cast<unsigned long long>(total_conflicts_));
  for (const Conflict& c : conflicts_) out += FormatConflict(c);
  return out;
}

void LaneChecker::ClearConflicts() {
  conflicts_.clear();
  total_conflicts_ = 0;
}

}  // namespace kd::sim
