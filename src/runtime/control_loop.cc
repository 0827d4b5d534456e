#include "runtime/control_loop.h"

namespace kd::runtime {

ControlLoop::ControlLoop(sim::Engine& engine, const CostModel& cost,
                         std::string name, MetricsRecorder* metrics)
    : engine_(engine),
      cost_(cost),
      name_(std::move(name)),
      reconcile_metric_(name_ + ".reconcile"),
      depth_max_metric_(name_ + ".queue_depth_max"),
      metrics_(metrics),
      tracker_(metrics, name_ + ".active") {}

void ControlLoop::Enqueue(const std::string& key) {
  if (queued_keys_.count(key)) return;
  tracker_.Inc(engine_.now());
  queued_keys_.insert(key);
  queue_.push_back(key);
  if (queue_.size() > depth_max_) {
    depth_max_ = queue_.size();
    if (metrics_) {
      metrics_->RecordMax(depth_max_metric_,
                          static_cast<std::int64_t>(depth_max_));
    }
  }
  if (!dispatch_scheduled_ && !paused_) {
    // The loop picks up work when it is next free.
    ScheduleDispatch(std::max(engine_.now(), busy_until_));
  }
}

void ControlLoop::EnqueueAfter(const std::string& key, Duration delay) {
  const std::uint64_t generation = generation_;
  engine_.ScheduleAfter(delay, [this, key, generation] {
    if (generation != generation_) return;  // cleared since
    Enqueue(key);
  });
}

void ControlLoop::ScheduleDispatch(Time at) {
  dispatch_scheduled_ = true;
  const std::uint64_t generation = generation_;
  engine_.ScheduleAt(at, [this, generation] { Dispatch(generation); });
}

void ControlLoop::Dispatch(std::uint64_t generation) {
  if (generation != generation_) return;  // crashed/cleared since
  dispatch_scheduled_ = false;
  if (paused_ || queue_.empty()) return;
  // Sanctioned seam: whatever lane's event enqueued this key, the
  // reconcile itself runs in the owning component's lane.
  sim::LaneScope lane_scope(engine_.lane_checker(), lane_);

  const std::string key = queue_.front();
  queue_.pop_front();
  queued_keys_.erase(key);

  Duration extra = 0;
  if (reconcile_) extra = reconcile_(key);
  ++processed_;
  const Duration busy = cost_.reconcile_base + extra;
  busy_until_ = engine_.now() + busy;
  if (metrics_) metrics_->AddBusy(reconcile_metric_, busy);
  // The item stays "active" until its busy window ends.
  const std::uint64_t gen = generation_;
  engine_.ScheduleAt(busy_until_, [this, gen] {
    if (gen == generation_) tracker_.Dec(engine_.now());
  });

  if (!queue_.empty() && !paused_) ScheduleDispatch(busy_until_);
}

void ControlLoop::Clear() {
  tracker_.Reset(engine_.now());
  queue_.clear();
  queued_keys_.clear();
  dispatch_scheduled_ = false;
  paused_ = false;
  ++generation_;
  busy_until_ = engine_.now();
}

void ControlLoop::Pause() { paused_ = true; }

void ControlLoop::Resume() {
  if (!paused_) return;
  paused_ = false;
  if (!queue_.empty() && !dispatch_scheduled_) {
    ScheduleDispatch(std::max(engine_.now(), busy_until_));
  }
}

}  // namespace kd::runtime
