#include "faas/gateway.h"

#include "common/check.h"

namespace kd::faas {

Gateway::Gateway(sim::Engine& engine, Duration route_latency)
    : engine_(engine), route_latency_(route_latency) {}

void Gateway::RegisterFunction(const FunctionSpec& spec) {
  functions_[spec.name].spec = spec;
}

void Gateway::UpdateEndpoints(const std::string& function,
                              const std::vector<std::string>& addresses) {
  auto it = functions_.find(function);
  if (it == functions_.end()) return;
  FunctionState& state = it->second;

  std::set<std::string> fresh(addresses.begin(), addresses.end());
  // Retire instances that disappeared (they drain in-flight work).
  for (auto& [address, instance] : state.instances) {
    instance.retired = fresh.count(address) == 0;
  }
  // Add new instances.
  for (const std::string& address : fresh) {
    auto [ins, added] = state.instances.emplace(address, Instance{});
    if (!added) ins->second.retired = false;
  }
  // Fully drained retired instances can be dropped.
  for (auto it2 = state.instances.begin(); it2 != state.instances.end();) {
    if (it2->second.retired && it2->second.busy == 0) {
      it2 = state.instances.erase(it2);
    } else {
      ++it2;
    }
  }
  Dispatch(state);
}

std::string Gateway::FindFreeInstance(const FunctionState& state) const {
  const std::string* best = nullptr;
  int best_busy = state.spec.concurrency;
  for (const auto& [address, instance] : state.instances) {
    if (instance.retired) continue;
    if (instance.busy < best_busy) {
      best = &address;
      best_busy = instance.busy;
    }
  }
  return best == nullptr ? "" : *best;
}

void Gateway::Invoke(Invocation inv) {
  auto it = functions_.find(inv.function);
  KD_CHECK(it != functions_.end(), "Invoke of unregistered function");
  ++total_invocations_;
  FunctionState& state = it->second;
  const std::string address = FindFreeInstance(state);
  if (!address.empty() && state.queue.empty()) {
    StartOn(state, address, std::move(inv), /*was_queued=*/false);
    return;
  }
  const std::string function = inv.function;
  state.queue.push_back({std::move(inv)});
  if (on_queued_) on_queued_(function);
}

void Gateway::StartOn(FunctionState& state, const std::string& address,
                      Invocation inv, bool was_queued) {
  Instance& instance = state.instances[address];
  ++instance.busy;
  ++state.executing;
  if (was_queued) ++queued_starts_;

  RequestRecord record;
  record.function = inv.function;
  record.arrival = inv.arrival;
  record.started = engine_.now() + route_latency_;
  record.completed = record.started + inv.duration;
  record.cold_start = was_queued;

  const std::string function = inv.function;
  const std::uint64_t id = next_request_id_++;
  instance.inflight.emplace(id, std::move(inv));
  engine_.ScheduleAt(record.completed, [this, function, address, id, record] {
    auto it = functions_.find(function);
    if (it == functions_.end()) return;
    FunctionState& state2 = it->second;
    auto inst_it = state2.instances.find(address);
    if (inst_it == state2.instances.end() ||
        inst_it->second.inflight.erase(id) == 0) {
      // The instance died mid-request (FailInstances): the invocation
      // went back to the queue and this timer has nothing to settle.
      return;
    }
    --inst_it->second.busy;
    if (inst_it->second.retired && inst_it->second.busy == 0) {
      state2.instances.erase(inst_it);
    }
    --state2.executing;
    records_.push_back(record);
    Dispatch(state2);
  });
}

std::size_t Gateway::FailInstances(const std::vector<std::string>& addresses) {
  const std::set<std::string> dead(addresses.begin(), addresses.end());
  std::size_t removed = 0;
  for (auto& [function, state] : functions_) {
    bool touched = false;
    for (const std::string& address : dead) {
      auto inst_it = state.instances.find(address);
      if (inst_it == state.instances.end()) continue;
      Instance& instance = inst_it->second;
      // Requeue at the head, oldest first: these requests were already
      // running and should not wait behind the backlog again.
      for (auto rit = instance.inflight.rbegin();
           rit != instance.inflight.rend(); ++rit) {
        state.queue.push_front({std::move(rit->second)});
        ++requeued_on_failure_;
      }
      state.executing -= static_cast<std::int64_t>(instance.inflight.size());
      state.instances.erase(inst_it);
      ++removed;
      ++instances_failed_;
      touched = true;
    }
    if (touched) Dispatch(state);
  }
  return removed;
}

void Gateway::Dispatch(FunctionState& state) {
  while (!state.queue.empty()) {
    const std::string address = FindFreeInstance(state);
    if (address.empty()) return;
    PendingRequest pending = std::move(state.queue.front());
    state.queue.pop_front();
    StartOn(state, address, std::move(pending.inv), /*was_queued=*/true);
  }
}

Gateway::Load Gateway::LoadOf(const std::string& function) const {
  auto it = functions_.find(function);
  if (it == functions_.end()) return {};
  return {static_cast<std::int64_t>(it->second.queue.size()),
          it->second.executing};
}

std::vector<std::string> Gateway::Endpoints(const std::string& function) const {
  std::vector<std::string> out;
  auto it = functions_.find(function);
  if (it == functions_.end()) return out;
  for (const auto& [address, instance] : it->second.instances) {
    if (!instance.retired) out.push_back(address);
  }
  return out;
}

std::size_t Gateway::EndpointCount(const std::string& function) const {
  auto it = functions_.find(function);
  if (it == functions_.end()) return 0;
  std::size_t n = 0;
  for (const auto& [address, instance] : it->second.instances) {
    if (!instance.retired) ++n;
  }
  return n;
}

}  // namespace kd::faas
