#include "faas/policy.h"

#include <algorithm>

namespace kd::faas {

AutoscalePolicy::AutoscalePolicy(sim::Engine& engine, Gateway& gateway,
                                 Backend& backend, PolicyParams params)
    : engine_(engine), gateway_(gateway), backend_(backend),
      params_(params) {}

void AutoscalePolicy::RegisterFunction(const FunctionSpec& spec) {
  FunctionState& state = functions_[spec.name];
  state.concurrency = std::max(1, spec.concurrency);
}

void AutoscalePolicy::Start() {
  if (running_) return;
  running_ = true;
  gateway_.set_on_queued([this](const std::string& function) {
    if (!running_) return;
    auto it = functions_.find(function);
    if (it == functions_.end()) return;
    FunctionState& state = it->second;
    // Activator fast path, throttled per function.
    const Time now = engine_.now();
    if (state.last_burst_react >= 0 &&
        now - state.last_burst_react < params_.burst_react_interval) {
      return;
    }
    state.last_burst_react = now;
    Evaluate(function, state);
  });
  Tick();
}

void AutoscalePolicy::Tick() {
  if (!running_) return;
  for (auto& [function, state] : functions_) Evaluate(function, state);
  engine_.ScheduleAfter(params_.tick, [this] { Tick(); });
}

void AutoscalePolicy::Evaluate(const std::string& function,
                               FunctionState& state) {
  const Time now = engine_.now();
  const Gateway::Load load = gateway_.LoadOf(function);
  const std::int64_t demand = load.queued + load.executing;
  state.demand_window.emplace_back(now, demand);
  const Time horizon = now - params_.scale_down_window;
  while (!state.demand_window.empty() &&
         state.demand_window.front().first < horizon) {
    state.demand_window.pop_front();
  }
  std::int64_t peak = 0;
  for (const auto& [t, d] : state.demand_window) peak = std::max(peak, d);

  std::int64_t desired =
      (peak + state.concurrency - 1) / state.concurrency;
  // Panic: sustained queueing means upscaling is not keeping up —
  // overshoot to compensate (and pay for it in cold starts).
  if (load.queued > load.executing &&
      params_.panic_factor > 1.0) {
    desired = static_cast<std::int64_t>(
        static_cast<double>(desired) * params_.panic_factor + 0.5);
  }
  desired = std::max(desired, params_.min_replicas);
  if (desired == state.last_desired) return;
  state.last_desired = desired;
  ++scale_calls_;
  backend_.ScaleTo(function, desired);
}

std::int64_t AutoscalePolicy::DesiredFor(const std::string& function) const {
  auto it = functions_.find(function);
  return it == functions_.end() ? 0 : it->second.last_desired;
}

}  // namespace kd::faas
