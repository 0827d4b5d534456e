// The Kubernetes API server + etcd model: the single source of truth
// controllers collaborate through in stock Kubernetes, and the
// bottleneck KubeDirect bypasses.
//
// What is modelled (because the paper's measurements depend on it):
//   - optimistic concurrency: every object carries a resourceVersion;
//     updates against a stale version fail with Conflict;
//   - persistence: every write pays an etcd raft-commit/fsync latency,
//     serialized through a single leader with group commit;
//   - pub-sub: watchers subscribe per kind and receive ordered
//     Added/Modified/Deleted events after a delivery latency;
//   - request service: a bounded worker pool; requests queue when the
//     server is saturated (the "high load on the API Server" effect of
//     Fig. 11);
//   - admission control: registered hooks can reject writes — used by
//     KubeDirect's exclusive-ownership guard (§5).
//
// Costs are charged in simulated time from the shared CostModel.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apiserver/apf.h"
#include "common/cost_model.h"
#include "common/fault_point.h"
#include "common/lane.h"
#include "common/metrics.h"
#include "common/status.h"
#include "model/objects.h"
#include "sim/engine.h"

namespace kd::apiserver {

enum class WatchEventType { kAdded, kModified, kDeleted };
const char* WatchEventTypeName(WatchEventType type);

struct WatchEvent {
  WatchEventType type;
  model::ApiObject object;
};

using WatchCallback = std::function<void(const WatchEvent&)>;
// Invoked once when the server crashes and the watch stream dies; the
// subscriber must re-Watch (and re-list) after the server returns.
using WatchBreakCallback = std::function<void()>;
using WatchId = std::uint64_t;

enum class AdmissionOp { kCreate, kUpdate, kDelete };

// Admission hook: may veto a write. `existing` is null for creates,
// `incoming` is null for deletes.
using AdmissionHook = std::function<Status(
    AdmissionOp op, const model::ApiObject* existing,
    const model::ApiObject* incoming)>;

class KD_LANE_OWNED(apiserver) ApiServer {
 public:
  ApiServer(sim::Engine& engine, CostModel cost);

  // --- server-side request handlers ----------------------------------
  // Invoked by ApiClient after client-side costs; `done` fires after
  // the response has travelled back. Handlers may also be called
  // directly by tests. `flow` is the APF flow identity (the client
  // name); the flow-less overloads use the anonymous flow — identical
  // behaviour unless apf_seats > 0.
  void HandleCreate(const std::string& flow, model::ApiObject obj,
                    std::function<void(StatusOr<model::ApiObject>)> done);
  void HandleCreate(model::ApiObject obj,
                    std::function<void(StatusOr<model::ApiObject>)> done) {
    HandleCreate(std::string(), std::move(obj), std::move(done));
  }
  // Optimistic concurrency: obj.resource_version must match the stored
  // version or the update fails with kConflict.
  void HandleUpdate(const std::string& flow, model::ApiObject obj,
                    std::function<void(StatusOr<model::ApiObject>)> done);
  void HandleUpdate(model::ApiObject obj,
                    std::function<void(StatusOr<model::ApiObject>)> done) {
    HandleUpdate(std::string(), std::move(obj), std::move(done));
  }
  void HandleDelete(const std::string& flow, const std::string& kind,
                    const std::string& name, std::function<void(Status)> done);
  void HandleDelete(const std::string& kind, const std::string& name,
                    std::function<void(Status)> done) {
    HandleDelete(std::string(), kind, name, std::move(done));
  }
  void HandleGet(const std::string& flow, const std::string& kind,
                 const std::string& name,
                 std::function<void(StatusOr<model::ApiObject>)> done);
  void HandleGet(const std::string& kind, const std::string& name,
                 std::function<void(StatusOr<model::ApiObject>)> done) {
    HandleGet(std::string(), kind, name, std::move(done));
  }
  void HandleList(
      const std::string& flow, const std::string& kind,
      std::function<void(StatusOr<std::vector<model::ApiObject>>)> done);
  void HandleList(
      const std::string& kind,
      std::function<void(StatusOr<std::vector<model::ApiObject>>)> done) {
    HandleList(std::string(), kind, std::move(done));
  }
  // List that also reports the store revision the snapshot was taken
  // at — what a reflector needs to diff a relist against its cache
  // (absence of a key with revision <= the snapshot's means deleted).
  // Costs exactly what HandleList costs.
  void HandleListAt(
      const std::string& flow, const std::string& kind,
      std::function<void(StatusOr<std::vector<model::ApiObject>>,
                         std::uint64_t revision)>
          done);
  void HandleListAt(
      const std::string& kind,
      std::function<void(StatusOr<std::vector<model::ApiObject>>,
                         std::uint64_t revision)>
          done) {
    HandleListAt(std::string(), kind, std::move(done));
  }

  // --- watch ------------------------------------------------------------
  // Registration is free (control-plane setup); events are delivered
  // with watch_delivery_latency, in commit order per watcher.
  // Returns 0 (no registration) while the server is down.
  WatchId Watch(const std::string& kind, WatchCallback cb);
  // Server-side filtered watch (field selectors — how each Kubelet
  // subscribes to only the Pods bound to its node). Delete events are
  // matched against the last state, which carried the field.
  // `on_break` (optional) fires when the server crashes and the stream
  // dies with it. `lane` (optional) is the subscriber's lane: event
  // deliveries execute there.
  WatchId Watch(const std::string& kind,
                std::function<bool(const model::ApiObject&)> filter,
                WatchCallback cb, WatchBreakCallback on_break = nullptr,
                LaneId lane = kNoLane);
  void Unwatch(WatchId id);

  // --- fault injection ------------------------------------------------
  // Crash(): the process dies. Every in-flight request fails with
  // kUnavailable (the client's connection resets), every watch breaks
  // (on_break fires after the delivery latency), queued work is lost.
  // The etcd store — every *committed* write, with its
  // resourceVersions — survives. Requests arriving while down hang
  // until the client-side api_request_deadline, then fail with
  // kDeadlineExceeded. Restart() brings a fresh process up over the
  // persisted store; watchers must re-subscribe.
  void Crash();
  void Restart();
  bool up() const { return up_; }
  // Cumulative time spent down (closed outages only).
  Duration outage_total() const { return outage_total_; }

  // Numbered-operation crash seam: every write that passes validation
  // ticks twice — once just before the store mutation (armed: the
  // crash loses the write, "the fsync never landed") and once just
  // after it and its watch broadcast (armed: the write is durable but
  // the response and the broadcast die with the process — committed
  // yet unacknowledged). Restart() disarms (the injected fault dies
  // with the process) and resets the per-incarnation fault counters
  // ("api_deadline_exceeded"), so sweep summaries count per
  // incarnation.
  FaultPoint& persist_fault() { return persist_fault_; }

  // --- admission ----------------------------------------------------------
  void AddAdmissionHook(AdmissionHook hook) {
    admission_hooks_.push_back(std::move(hook));
  }

  // --- direct store access (tests/benches; charges nothing) -----------
  const model::ApiObject* Peek(const std::string& kind,
                               const std::string& name) const;
  std::vector<const model::ApiObject*> PeekAll(const std::string& kind) const;
  // key -> committed resource version for `kind` — the ground truth an
  // informer cache must reconverge to after an outage.
  std::map<std::string, std::uint64_t> VersionMap(
      const std::string& kind) const;
  std::size_t object_count() const { return store_.size(); }
  // Writes without cost or admission — test setup only.
  void SeedObject(model::ApiObject obj);

  MetricsRecorder& metrics() { return metrics_; }
  const CostModel& cost() const { return cost_; }
  sim::Engine& engine() { return engine_; }
  const ApfQueue& apf() const { return apf_; }

  // Lane-checker seam: the server's own lane. Client uplinks
  // ScheduleSeam onto it so every Handle*/commit runs in the server's
  // lane.
  void SetLane(LaneId lane) { lane_ = lane; }
  LaneId lane() const { return lane_; }

  // Current store revision (tests/benches; charges nothing).
  std::uint64_t revision() const { return revision_; }

 private:
  struct CommitResult {
    Status status;
    model::ApiObject object;  // committed version (valid when status ok)
  };
  using RespondFn = std::function<void(CommitResult)>;

  // Schedules request service through the worker pool, behind APF
  // admission when apf_seats > 0 (`flow` picks the fair queue).
  // `commit` runs at service completion (at the server); its result is
  // delivered to `respond` after response serialization + network
  // latency.
  void Serve(const std::string& flow, std::size_t request_bytes,
             std::size_t response_bytes, bool is_write,
             std::function<CommitResult()> commit,
             std::function<void(CommitResult)> respond);

  Time AcquireWorker(Duration service_time);
  Time AcquireEtcd(Time ready);

  Status RunAdmission(AdmissionOp op, const model::ApiObject* existing,
                      const model::ApiObject* incoming) const;

  void Broadcast(WatchEventType type, const model::ApiObject& obj);

  using Store = std::map<std::string, model::ApiObject>;  // key -> object
  using StoreRange = std::pair<Store::const_iterator, Store::const_iterator>;
  // The stored objects of `kind`, in key order. Keys are "Kind/name"
  // (kinds contain no '/') and store_ is sorted, so a kind occupies one
  // contiguous key range: List/PeekAll/VersionMap cost O(kind
  // population), not O(store) — M kubelets each listing Pods at boot
  // would otherwise each walk all M Nodes.
  StoreRange KindRange(const std::string& kind) const;

  sim::Engine& engine_;
  CostModel cost_;
  Store store_;
  std::uint64_t revision_ = 0;

  std::vector<Time> worker_free_;  // min element = next available worker
  Time etcd_free_ = 0;

  struct Watcher {
    std::function<bool(const model::ApiObject&)> filter;  // may be null
    WatchCallback cb;
    WatchBreakCallback on_break;  // may be null
    LaneId lane = kNoLane;  // deliveries execute in this lane's group
  };
  // Watchers bucketed by kind, each bucket in WatchId order: a write
  // touches only the watchers of its object's kind, in the order they
  // registered.
  std::map<std::string, std::map<WatchId, Watcher>> watchers_;
  // Every live watch's kind, in WatchId order (Unwatch's lookup and
  // the global order in which Crash() breaks streams).
  std::map<WatchId, std::string> watch_kinds_;
  WatchId next_watch_id_ = 1;

  // --- fault-domain state ---------------------------------------------
  // Crash epoch: closures belonging to the pre-crash process check it
  // and abort, so queued service/response events die with the server.
  bool up_ = true;
  std::uint64_t epoch_ = 0;
  std::uint64_t next_request_id_ = 1;
  // In-flight requests (arrival .. response delivery), failed in id
  // order on Crash().
  std::map<std::uint64_t, std::shared_ptr<RespondFn>> pending_;
  Time outage_started_at_ = 0;
  Duration outage_total_ = 0;
  FaultPoint persist_fault_;
  // APF fair queueing in front of the worker pool (disabled unless
  // cost.apf_seats > 0; queued work dies on Crash()).
  ApfQueue apf_;

  std::vector<AdmissionHook> admission_hooks_;
  MetricsRecorder metrics_;
  LaneId lane_ = kNoLane;
};

}  // namespace kd::apiserver
