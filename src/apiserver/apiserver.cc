#include "apiserver/apiserver.h"

#include <algorithm>

#include "common/strings.h"

namespace kd::apiserver {

const char* WatchEventTypeName(WatchEventType type) {
  switch (type) {
    case WatchEventType::kAdded: return "Added";
    case WatchEventType::kModified: return "Modified";
    case WatchEventType::kDeleted: return "Deleted";
  }
  return "?";
}

ApiServer::ApiServer(sim::Engine& engine, CostModel cost)
    : engine_(engine), cost_(cost) {
  worker_free_.assign(static_cast<std::size_t>(
                          std::max(1, cost_.api_server_workers)),
                      0);
  apf_.Configure(cost_.apf_seats);
}

Time ApiServer::AcquireWorker(Duration service_time) {
  auto it = std::min_element(worker_free_.begin(), worker_free_.end());
  const Time start = std::max(engine_.now(), *it);
  const Time end = start + service_time;
  *it = end;
  return end;
}

Time ApiServer::AcquireEtcd(Time ready) {
  // Writes serialize through the etcd leader. An isolated write pays a
  // full raft-commit/fsync; writes that queue behind others share the
  // fsync window (group commit), paying 1/batch of it.
  Time end;
  if (etcd_free_ <= ready) {
    end = ready + cost_.etcd_persist_latency;
  } else {
    end = etcd_free_ +
          cost_.etcd_persist_latency / std::max(1, cost_.etcd_batch);
  }
  etcd_free_ = end;
  return end;
}

Status ApiServer::RunAdmission(AdmissionOp op,
                               const model::ApiObject* existing,
                               const model::ApiObject* incoming) const {
  for (const auto& hook : admission_hooks_) {
    Status s = hook(op, existing, incoming);
    if (!s.ok()) return s;
  }
  return OkStatus();
}

void ApiServer::Broadcast(WatchEventType type, const model::ApiObject& obj) {
  auto bucket = watchers_.find(obj.kind);
  if (bucket == watchers_.end()) return;
  const Duration delay =
      cost_.watch_delivery_latency +
      static_cast<Duration>(static_cast<double>(obj.SerializedSize()) *
                            cost_.serialize_ns_per_byte);
  for (const auto& [id, watcher] : bucket->second) {
    if (watcher.filter && !watcher.filter(obj)) continue;
    // Copy per watcher; delivery is ordered because events scheduled at
    // equal times fire in scheduling order.
    WatchCallback cb = watcher.cb;
    WatchEvent event{type, obj};
    const std::uint64_t epoch = epoch_;
    // Sanctioned seam: the delivery runs in the subscriber's lane.
    engine_.ScheduleSeamAfter(
        watcher.lane, delay,
        [this, epoch, cb = std::move(cb), event = std::move(event)]() mutable {
          // Deliveries in flight at crash time die with the stream.
          if (epoch != epoch_) return;
          cb(event);
        });
    metrics_.Count("watch_events");
  }
}

void ApiServer::Serve(const std::string& flow, std::size_t request_bytes,
                      std::size_t response_bytes, bool is_write,
                      std::function<CommitResult()> commit,
                      std::function<void(CommitResult)> respond) {
  // The lane of the context that dispatched the request (the client's
  // component). The response — and the dead-server deadline expiry —
  // travel back there.
  const LaneId reply_lane = engine_.seam_origin_lane();
  if (!up_) {
    // Dead server: the request neither queues nor commits — it hangs
    // until the client-side per-attempt deadline expires.
    metrics_.Count("api_deadline_exceeded");
    engine_.ScheduleSeamAfter(reply_lane, cost_.api_request_deadline,
                              [respond = std::move(respond)]() mutable {
                                respond({DeadlineExceededError(
                                             "API server unavailable"),
                                         {}});
                              });
    return;
  }
  metrics_.Count(is_write ? "api_writes" : "api_reads");
  metrics_.Count("api_bytes_in", static_cast<std::int64_t>(request_bytes));
  const Time arrival = engine_.now();

  // Registered until the response is delivered; Crash() fails every
  // registered request and bumps the epoch, which disarms the closures
  // below (queued service work and in-flight responses die with the
  // process — only the failure from Crash() reaches the client).
  auto respond_shared = std::make_shared<RespondFn>(std::move(respond));
  const std::uint64_t id = next_request_id_++;
  const std::uint64_t epoch = epoch_;
  pending_.emplace(id, respond_shared);
  metrics_.RecordMax("api.inflight_max",
                     static_cast<std::int64_t>(pending_.size()));

  auto finish = [this, id, epoch, arrival, response_bytes, reply_lane,
                 respond_shared](CommitResult result, Time commit_done) {
    const Duration response_ser = static_cast<Duration>(
        static_cast<double>(response_bytes) * cost_.serialize_ns_per_byte);
    const Time respond_at =
        commit_done + response_ser + cost_.api_network_latency;
    metrics_.Count("api_bytes_out",
                   static_cast<std::int64_t>(response_bytes));
    engine_.ScheduleSeamAt(reply_lane, respond_at,
                           [this, id, epoch, arrival, respond_shared,
                            result = std::move(result)]() mutable {
                             if (epoch != epoch_) return;
                             pending_.erase(id);
                             metrics_.RecordDuration("api_call_latency",
                                                     engine_.now() - arrival);
                             (*respond_shared)(std::move(result));
                           });
  };

  // Admission, then the worker pool. With APF disabled `Submit` runs
  // the closure inline, so this path is event-for-event identical to
  // the unsharded server. A queued request holds no worker; it gets
  // one when a seat frees (Release below), which is when admission
  // control actually changes who waits: the worker-pool backlog is
  // FIFO by arrival, the APF queue is fair across flows.
  apf_.Submit(flow, [this, epoch, is_write, request_bytes,
                     commit = std::move(commit),
                     finish = std::move(finish)]() mutable {
    if (epoch != epoch_) return;  // crashed while queued (defensive)
    const Duration service =
        cost_.api_processing +
        static_cast<Duration>(static_cast<double>(request_bytes) *
                              cost_.serialize_ns_per_byte);
    const Time service_done = AcquireWorker(service);
    engine_.ScheduleAt(
        service_done,
        [this, epoch, is_write, commit = std::move(commit),
         finish = std::move(finish)]() mutable {
          if (epoch != epoch_) return;  // died before servicing: no commit
          CommitResult result = commit();
          Time done = engine_.now();
          if (is_write && result.status.ok()) {
            done = AcquireEtcd(done);
          }
          // Seat frees at service completion; the next queued flow is
          // dispatched synchronously (no-op when APF is disabled or
          // the process crashed inside commit — Reset cleared it).
          apf_.Release();
          finish(std::move(result), done);
        });
  });
  if (apf_.enabled()) {
    metrics_.RecordMax("apf.queue_depth_max",
                       static_cast<std::int64_t>(apf_.queued()));
  }
}

void ApiServer::Crash() {
  if (!up_) return;
  up_ = false;
  ++epoch_;
  outage_started_at_ = engine_.now();
  metrics_.Count("apiserver.crashes");
  // Every in-flight request fails fast — the TCP connections reset, so
  // clients learn after one network latency, not a full deadline.
  for (auto& [id, respond] : pending_) {
    (void)id;
    engine_.ScheduleAfter(
        cost_.api_network_latency, [respond]() {
          (*respond)({UnavailableError("API server crashed"), {}});
        });
  }
  pending_.clear();
  // Queued-but-unadmitted requests die with the process (their
  // responses were failed above via pending_); every APF seat frees.
  apf_.Reset();
  // Watch streams die; subscribers that registered a break handler
  // learn after the delivery latency and must re-list on reconnect.
  for (const auto& [id, kind] : watch_kinds_) {
    const Watcher& watcher = watchers_[kind][id];
    if (!watcher.on_break) continue;
    engine_.ScheduleAfter(cost_.watch_delivery_latency,
                          [cb = watcher.on_break] { cb(); });
  }
  watchers_.clear();
  watch_kinds_.clear();
}

void ApiServer::Restart() {
  if (up_) return;
  up_ = true;
  // The injected fault dies with the crashed process; per-incarnation
  // fault counters restart from zero with it.
  persist_fault_.Disarm();
  metrics_.ResetCounter("api_deadline_exceeded");
  const Duration outage = engine_.now() - outage_started_at_;
  outage_total_ += outage;
  metrics_.RecordValue("apiserver.outage_seconds", ToSeconds(outage));
  metrics_.Count("apiserver.restarts");
  // Fresh process over the persisted store: empty worker pool, empty
  // etcd pipeline, no watchers. store_/revision_ replay from etcd.
  std::fill(worker_free_.begin(), worker_free_.end(), Time{0});
  etcd_free_ = 0;
}

void ApiServer::HandleCreate(
    const std::string& flow, model::ApiObject obj,
    std::function<void(StatusOr<model::ApiObject>)> done) {
  const std::size_t bytes = obj.SerializedSize();
  Serve(
      flow, bytes, bytes, /*is_write=*/true,
      [this, obj = std::move(obj)]() mutable -> CommitResult {
        const std::string key = obj.Key();
        auto it = store_.find(key);
        if (it != store_.end()) {
          return {AlreadyExistsError(key), {}};
        }
        Status admission =
            RunAdmission(AdmissionOp::kCreate, nullptr, &obj);
        if (!admission.ok()) return {admission, {}};
        if (persist_fault_.Tick()) {  // crash before the fsync lands
          Crash();
          return {UnavailableError("surprise shutdown at persist"), {}};
        }
        obj.resource_version = ++revision_;
        auto [ins, ok] = store_.emplace(key, std::move(obj));
        (void)ok;
        Broadcast(WatchEventType::kAdded, ins->second);
        if (persist_fault_.Tick()) Crash();  // committed, unacknowledged
        return {OkStatus(), ins->second};
      },
      [done = std::move(done)](CommitResult r) {
        if (r.status.ok()) {
          done(std::move(r.object));
        } else {
          done(r.status);
        }
      });
}

void ApiServer::HandleUpdate(
    const std::string& flow, model::ApiObject obj,
    std::function<void(StatusOr<model::ApiObject>)> done) {
  const std::size_t bytes = obj.SerializedSize();
  Serve(
      flow, bytes, bytes, /*is_write=*/true,
      [this, obj = std::move(obj)]() mutable -> CommitResult {
        const std::string key = obj.Key();
        auto it = store_.find(key);
        if (it == store_.end()) {
          return {NotFoundError(key), {}};
        }
        if (obj.resource_version != it->second.resource_version) {
          return {ConflictError(StrFormat(
                      "%s: stale resourceVersion %llu (current %llu)",
                      key.c_str(),
                      static_cast<unsigned long long>(obj.resource_version),
                      static_cast<unsigned long long>(
                          it->second.resource_version))),
                  {}};
        }
        Status admission =
            RunAdmission(AdmissionOp::kUpdate, &it->second, &obj);
        if (!admission.ok()) return {admission, {}};
        if (persist_fault_.Tick()) {  // crash before the fsync lands
          Crash();
          return {UnavailableError("surprise shutdown at persist"), {}};
        }
        obj.resource_version = ++revision_;
        it->second = std::move(obj);
        Broadcast(WatchEventType::kModified, it->second);
        if (persist_fault_.Tick()) Crash();  // committed, unacknowledged
        return {OkStatus(), it->second};
      },
      [done = std::move(done)](CommitResult r) {
        if (r.status.ok()) {
          done(std::move(r.object));
        } else {
          done(r.status);
        }
      });
}

void ApiServer::HandleDelete(const std::string& flow,
                             const std::string& kind, const std::string& name,
                             std::function<void(Status)> done) {
  Serve(
      flow, kind.size() + name.size() + 64, 64, /*is_write=*/true,
      [this, kind, name]() -> CommitResult {
        const std::string key = model::ApiObject::MakeKey(kind, name);
        auto it = store_.find(key);
        if (it == store_.end()) {
          return {NotFoundError(key), {}};
        }
        Status admission =
            RunAdmission(AdmissionOp::kDelete, &it->second, nullptr);
        if (!admission.ok()) return {admission, {}};
        if (persist_fault_.Tick()) {  // crash before the fsync lands
          Crash();
          return {UnavailableError("surprise shutdown at persist"), {}};
        }
        model::ApiObject removed = std::move(it->second);
        store_.erase(it);
        removed.resource_version = ++revision_;
        Broadcast(WatchEventType::kDeleted, removed);
        if (persist_fault_.Tick()) Crash();  // committed, unacknowledged
        return {OkStatus(), std::move(removed)};
      },
      [done = std::move(done)](CommitResult r) { done(r.status); });
}

void ApiServer::HandleGet(
    const std::string& flow, const std::string& kind, const std::string& name,
    std::function<void(StatusOr<model::ApiObject>)> done) {
  const std::string key = model::ApiObject::MakeKey(kind, name);
  auto it = store_.find(key);
  const std::size_t response_bytes =
      it == store_.end() ? 64 : it->second.SerializedSize();
  Serve(
      flow, key.size() + 64, response_bytes, /*is_write=*/false,
      [this, key]() -> CommitResult {
        auto it2 = store_.find(key);
        if (it2 == store_.end()) return {NotFoundError(key), {}};
        return {OkStatus(), it2->second};
      },
      [done = std::move(done)](CommitResult r) {
        if (r.status.ok()) {
          done(std::move(r.object));
        } else {
          done(r.status);
        }
      });
}

void ApiServer::HandleList(
    const std::string& flow, const std::string& kind,
    std::function<void(StatusOr<std::vector<model::ApiObject>>)> done) {
  HandleListAt(flow, kind,
               [done = std::move(done)](
                   StatusOr<std::vector<model::ApiObject>> result,
                   std::uint64_t) mutable { done(std::move(result)); });
}

void ApiServer::HandleListAt(
    const std::string& flow, const std::string& kind,
    std::function<void(StatusOr<std::vector<model::ApiObject>>,
                       std::uint64_t)>
        done) {
  // Response size is the whole collection — the expensive part of a
  // relist, which is why informers avoid them.
  std::size_t response_bytes = 64;
  for (auto [it, last] = KindRange(kind); it != last; ++it) {
    response_bytes += it->second.SerializedSize();
  }
  // Snapshot at commit time (server-side), deliver after response
  // latency; the snapshot is shared between the two closures.
  auto snapshot = std::make_shared<std::vector<model::ApiObject>>();
  auto at_revision = std::make_shared<std::uint64_t>(0);
  Serve(
      flow, kind.size() + 64, response_bytes, /*is_write=*/false,
      [this, kind, snapshot, at_revision]() -> CommitResult {
        for (auto [it, last] = KindRange(kind); it != last; ++it) {
          snapshot->push_back(it->second);
        }
        *at_revision = revision_;
        return {OkStatus(), {}};
      },
      [snapshot, at_revision, done = std::move(done)](CommitResult r) {
        if (!r.status.ok()) {
          done(r.status, *at_revision);
          return;
        }
        done(std::move(*snapshot), *at_revision);
      });
}

WatchId ApiServer::Watch(const std::string& kind, WatchCallback cb) {
  return Watch(kind, nullptr, std::move(cb), nullptr, kNoLane);
}

WatchId ApiServer::Watch(const std::string& kind,
                         std::function<bool(const model::ApiObject&)> filter,
                         WatchCallback cb, WatchBreakCallback on_break,
                         LaneId lane) {
  if (!up_) return 0;  // nothing to connect to; caller retries
  const WatchId id = next_watch_id_++;
  watchers_[kind][id] =
      Watcher{std::move(filter), std::move(cb), std::move(on_break), lane};
  watch_kinds_[id] = kind;
  return id;
}

void ApiServer::Unwatch(WatchId id) {
  auto it = watch_kinds_.find(id);
  if (it == watch_kinds_.end()) return;
  auto bucket = watchers_.find(it->second);
  bucket->second.erase(id);
  if (bucket->second.empty()) watchers_.erase(bucket);
  watch_kinds_.erase(it);
}

const model::ApiObject* ApiServer::Peek(const std::string& kind,
                                        const std::string& name) const {
  auto it = store_.find(model::ApiObject::MakeKey(kind, name));
  return it == store_.end() ? nullptr : &it->second;
}

std::vector<const model::ApiObject*> ApiServer::PeekAll(
    const std::string& kind) const {
  std::vector<const model::ApiObject*> out;
  for (auto [it, last] = KindRange(kind); it != last; ++it) {
    out.push_back(&it->second);
  }
  return out;
}

std::map<std::string, std::uint64_t> ApiServer::VersionMap(
    const std::string& kind) const {
  std::map<std::string, std::uint64_t> out;
  for (auto [it, last] = KindRange(kind); it != last; ++it) {
    out.emplace_hint(out.end(), it->first, it->second.resource_version);
  }
  return out;
}

ApiServer::StoreRange ApiServer::KindRange(const std::string& kind) const {
  // '0' is the character after '/': ["Kind/", "Kind0") holds exactly the
  // keys prefixed "Kind/".
  return {store_.lower_bound(kind + '/'), store_.lower_bound(kind + '0')};
}

void ApiServer::SeedObject(model::ApiObject obj) {
  obj.resource_version = ++revision_;
  const std::string key = obj.Key();
  auto it = store_.find(key);
  if (it == store_.end()) {
    auto [ins, ok] = store_.emplace(key, std::move(obj));
    (void)ok;
    Broadcast(WatchEventType::kAdded, ins->second);
  } else {
    it->second = std::move(obj);
    Broadcast(WatchEventType::kModified, it->second);
  }
}

}  // namespace kd::apiserver
