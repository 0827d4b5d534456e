// The FaaS gateway / request router (the downstream data plane of
// Fig. 2): routes invocations to ready instances, queues excess
// requests until upscaling delivers capacity ("cold starts"), and
// records the per-request metrics of §6.2.
//
// Instances are identified by their endpoint address (pod IP). Each
// instance serves `concurrency` requests at once; a request occupies a
// slot for its requested duration (the SQRTSD busy loop of the paper's
// workload).
#pragma once

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/lane.h"
#include "common/metrics.h"
#include "common/time.h"
#include "faas/types.h"
#include "sim/engine.h"

namespace kd::faas {

class KD_LANE_OWNED(faas) Gateway {
 public:
  Gateway(sim::Engine& engine, Duration route_latency = MicrosecondsF(200));

  void RegisterFunction(const FunctionSpec& spec);

  // Full-list endpoint update from the discovery path (Backend sink).
  void UpdateEndpoints(const std::string& function,
                       const std::vector<std::string>& addresses);

  // Abrupt instance loss (spot reclamation): unlike the graceful
  // retirement of UpdateEndpoints, the instances die NOW — their
  // in-flight requests are pushed back to the head of the queue and
  // re-dispatched to surviving capacity, so no invocation is lost (it
  // just pays the retry as extra scheduling latency). Returns the
  // number of instances removed.
  std::size_t FailInstances(const std::vector<std::string>& addresses);

  // A request arrives. Dispatches immediately if an instance has a
  // free slot; otherwise queues (the request will be started when
  // capacity appears — a cold start if that capacity is a new
  // instance).
  void Invoke(Invocation inv);

  // A function's open requests: queued for capacity and executing.
  // The autoscaler reads both with one lookup per tick.
  struct Load {
    std::int64_t queued = 0;
    std::int64_t executing = 0;
  };
  Load LoadOf(const std::string& function) const;
  // Demand signal: executing + queued requests.
  std::int64_t Demand(const std::string& function) const {
    const Load load = LoadOf(function);
    return load.queued + load.executing;
  }
  // Single-count views of LoadOf (the benchmark's conservation check
  // reads them).
  std::int64_t Queued(const std::string& function) const {
    return LoadOf(function).queued;
  }
  std::int64_t Executing(const std::string& function) const {
    return LoadOf(function).executing;
  }
  std::size_t EndpointCount(const std::string& function) const;
  // Live (non-retired) instance addresses — what the gateway would
  // route to right now (the SloGuard's endpoint-staleness probe).
  std::vector<std::string> Endpoints(const std::string& function) const;

  // Fires when a request queues because no instance had a free slot —
  // the autoscaler's fast-path trigger (Knative's activator).
  void set_on_queued(std::function<void(const std::string& function)> cb) {
    on_queued_ = std::move(cb);
  }

  // Completed request records (append-only).
  const std::vector<RequestRecord>& records() const { return records_; }
  std::uint64_t total_invocations() const { return total_invocations_; }
  std::uint64_t queued_starts() const { return queued_starts_; }
  std::uint64_t instances_failed() const { return instances_failed_; }
  std::uint64_t requeued_on_failure() const { return requeued_on_failure_; }

 private:
  struct Instance {
    int busy = 0;       // occupied slots
    bool retired = false;  // removed from endpoints; drains, no new work
    // In-flight invocations by request id — what FailInstances pushes
    // back to the queue when the instance dies abruptly. A request's
    // completion timer only records if its id is still present here.
    std::map<std::uint64_t, Invocation> inflight;
  };
  struct PendingRequest {
    Invocation inv;
  };
  struct FunctionState {
    FunctionSpec spec;
    std::map<std::string, Instance> instances;
    std::deque<PendingRequest> queue;
    std::int64_t executing = 0;
  };

  void Dispatch(FunctionState& state);
  // Starts `inv` on `address` now.
  void StartOn(FunctionState& state, const std::string& address,
               Invocation inv, bool was_queued);
  std::string FindFreeInstance(const FunctionState& state) const;

  sim::Engine& engine_;
  Duration route_latency_;
  std::function<void(const std::string&)> on_queued_;
  std::map<std::string, FunctionState> functions_;
  std::vector<RequestRecord> records_;
  std::uint64_t total_invocations_ = 0;
  std::uint64_t queued_starts_ = 0;
  std::uint64_t instances_failed_ = 0;
  std::uint64_t requeued_on_failure_ = 0;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace kd::faas
