#include "runtime/harness.h"

#include <set>

namespace kd::runtime {

ControllerHarness::ControllerHarness(Env& env, Mode mode, Options options)
    : env_(env),
      mode_(mode),
      options_(std::move(options)),
      api_(env.engine, env.apiserver, options_.client_id, options_.qps,
           options_.burst, options_.api_metrics ? &env.metrics : nullptr),
      loop_(env.engine, env.cost, options_.name, &env.metrics),
      endpoint_(env.network, options_.address) {
  // One runtime lane per controller instance: reconciles, message
  // handlers, and lifecycle hooks all execute inside it, and the
  // tracked caches are bound to it (see sim/lane_checker.h).
  lane_ = env_.engine.lane_checker().RegisterLane(options_.name);
  loop_.SetLane(lane_);
  endpoint_.SetLane(lane_);
  api_.SetLane(lane_);
  // A fired crash seam surprise-shuts this controller down. The crash
  // is deferred one engine step: the seam fires from inside a
  // HierarchyClient/Server message handler or a tombstone Add — code
  // owned by the very objects Crash() destroys. The session capture
  // dead-letters the deferred crash if an intervening Crash()/Restart()
  // already happened.
  auto surprise_shutdown = [this] {
    const std::uint64_t armed_session = session_;
    env_.engine.ScheduleAfter(0, [this, armed_session] {
      if (!crashed_ && session_ == armed_session) Crash();
    });
  };
  handshake_fault_.set_on_fire(surprise_shutdown);
  tombstone_fault_.set_on_fire(surprise_shutdown);
  tombstones_.set_fault(&tombstone_fault_);
}

ControllerHarness::~ControllerHarness() {
  for (auto& [id, client] : dynamic_downstreams_) {
    if (client) client->Stop();
  }
  if (static_downstream_) static_downstream_->Stop();
  if (upstream_) upstream_->Stop();
  for (WatchBinding& watch : watches_) {
    for (std::size_t s = 0; s < watch.shards.size(); ++s) {
      if (watch.shards[s].active) {
        env_.apiserver.shard(static_cast<int>(s)).Unwatch(watch.shards[s].id);
      }
    }
  }
}

void ControllerHarness::SyncKind(ObjectCache& cache, std::string kind,
                                 When when, std::function<void()> on_synced) {
  TrackCache(cache);
  SyncBinding binding;
  binding.cache = &cache;
  binding.kind = std::move(kind);
  binding.when = when;
  binding.on_synced = std::move(on_synced);
  binding.informer =
      std::make_unique<Informer>(api_, env_.apiserver, cache, &env_.metrics);
  syncs_.push_back(std::move(binding));
}

void ControllerHarness::WatchFiltered(
    std::string kind, std::function<bool(const model::ApiObject&)> filter,
    std::function<void(const apiserver::WatchEvent&)> handler, When when) {
  WatchBinding binding;
  binding.kind = std::move(kind);
  binding.filter = std::move(filter);
  binding.handler = std::move(handler);
  binding.when = when;
  binding.shards.resize(
      static_cast<std::size_t>(env_.apiserver.num_shards()));
  watches_.push_back(std::move(binding));
}

void ControllerHarness::SetReconciler(ControlLoop::Reconciler reconcile) {
  loop_.SetReconciler(std::move(reconcile));
}

void ControllerHarness::ServeUpstream(UpstreamSpec spec) {
  have_upstream_spec_ = true;
  upstream_spec_ = std::move(spec);
}

void ControllerHarness::ConnectDownstream(DownstreamSpec spec) {
  have_downstream_spec_ = true;
  downstream_spec_ = std::move(spec);
}

void ControllerHarness::TrackCache(ObjectCache& cache) {
  for (ObjectCache* tracked : tracked_caches_) {
    if (tracked == &cache) return;
  }
  cache.BindLane(&env_.engine.lane_checker(), lane_,
                 options_.name + ".cache");
  tracked_caches_.push_back(&cache);
}

std::unique_ptr<kubedirect::HierarchyClient> ControllerHarness::MakeClient(
    DownstreamSpec spec) {
  return std::make_unique<kubedirect::HierarchyClient>(
      env_.engine, env_.cost, endpoint_, spec.peer,
      spec.cache != nullptr ? *spec.cache : scratch_, spec.kind_filter,
      std::move(spec.scope), std::move(spec.callbacks), &env_.metrics,
      &handshake_fault_);
}

void ControllerHarness::OnStaticLinkReady(const kubedirect::ChangeSet&) {
  if (options_.pause_while_link_not_ready) loop_.Resume();
  // Replay reconciles deferred while the link was down (§4.1:
  // opportunistic forwarding drops are repaired level-triggered).
  std::vector<std::string> replay = std::move(deferred_keys_);
  deferred_keys_.clear();
  deferred_set_.clear();
  for (const std::string& key : replay) loop_.Enqueue(key);
}

void ControllerHarness::OnStaticLinkDown() {
  if (options_.pause_while_link_not_ready) loop_.Pause();
}

void ControllerHarness::ArmRawWatch(std::size_t index, int shard,
                                    bool relist) {
  WatchBinding& binding = watches_[index];
  WatchShardState& st = binding.shards[static_cast<std::size_t>(shard)];
  const std::uint64_t epoch = ++st.arm_epoch;
  st.id = env_.apiserver.shard(shard).Watch(
      binding.kind, binding.filter,
      [this, index](const apiserver::WatchEvent& e) {
        if (crashed_) return;
        // Sanctioned seam: raw-watch delivery runs the policy handler
        // in this controller's lane.
        sim::LaneScope lane_scope(env_.engine.lane_checker(), lane_);
        WatchBinding& b = watches_[index];
        switch (e.type) {
          case apiserver::WatchEventType::kAdded:
          case apiserver::WatchEventType::kModified:
            b.last_seen[e.object.Key()] = e.object;
            break;
          case apiserver::WatchEventType::kDeleted:
            b.last_seen.erase(e.object.Key());
            break;
        }
        b.handler(e);
      },
      [this, index, shard, epoch] { OnRawWatchBreak(index, shard, epoch); },
      lane_);
  if (st.id == 0) {
    // Shard down: keep retrying until registration sticks.
    env_.engine.ScheduleAfter(
        env_.cost.watch_retry_backoff, [this, index, shard, epoch, relist] {
          if (crashed_ ||
              watches_[index].shards[static_cast<std::size_t>(shard)]
                      .arm_epoch != epoch) {
            return;
          }
          ArmRawWatch(index, shard, relist);
        });
    return;
  }
  st.active = true;
  if (relist) RelistRawWatch(index, shard, epoch);
}

void ControllerHarness::OnRawWatchBreak(std::size_t index, int shard,
                                        std::uint64_t epoch) {
  if (crashed_) return;
  WatchShardState& st =
      watches_[index].shards[static_cast<std::size_t>(shard)];
  if (st.arm_epoch != epoch) return;
  st.active = false;
  st.id = 0;
  const std::uint64_t next = ++st.arm_epoch;
  env_.engine.ScheduleAfter(
      env_.cost.watch_retry_backoff, [this, index, shard, next] {
        if (crashed_ ||
            watches_[index].shards[static_cast<std::size_t>(shard)]
                    .arm_epoch != next) {
          return;
        }
        ArmRawWatch(index, shard, /*relist=*/true);
      });
}

void ControllerHarness::RelistRawWatch(std::size_t index, int shard,
                                       std::uint64_t epoch) {
  api_.ListShardAt(
      shard, watches_[index].kind,
      [this, index, shard,
       epoch](StatusOr<std::vector<model::ApiObject>> objects,
              std::uint64_t revision) {
        WatchBinding& b = watches_[index];
        WatchShardState& st = b.shards[static_cast<std::size_t>(shard)];
        if (crashed_ || st.arm_epoch != epoch) return;
        sim::LaneScope lane_scope(env_.engine.lane_checker(), lane_);
        if (!objects.ok()) {
          // Crashed again before the list landed: restart the chain.
          if (st.active) {
            env_.apiserver.shard(shard).Unwatch(st.id);
            st.active = false;
            st.id = 0;
          }
          const std::uint64_t next = ++st.arm_epoch;
          env_.engine.ScheduleAfter(
              env_.cost.watch_retry_backoff, [this, index, shard, next] {
                if (crashed_ ||
                    watches_[index].shards[static_cast<std::size_t>(shard)]
                            .arm_epoch != next) {
                  return;
                }
                ArmRawWatch(index, shard, /*relist=*/true);
              });
          return;
        }
        // Diff the snapshot against the shadow map, synthesizing the
        // events the broken watch missed. The filter is applied
        // client-side: an in-scope object absent from the filtered
        // snapshot (deleted, or mutated out of scope) is a Deleted,
        // matched — as the server does — against its last seen state.
        // The snapshot only covers this shard's slice, so keys the
        // other shards own are skipped in the delete scan.
        const bool sharded = env_.apiserver.num_shards() > 1;
        std::set<std::string> present;
        for (auto& obj : *objects) {
          if (b.filter && !b.filter(obj)) continue;
          present.insert(obj.Key());
          auto it = b.last_seen.find(obj.Key());
          if (it == b.last_seen.end()) {
            b.last_seen[obj.Key()] = obj;
            b.handler({apiserver::WatchEventType::kAdded, std::move(obj)});
          } else if (obj.resource_version > it->second.resource_version) {
            it->second = obj;
            b.handler({apiserver::WatchEventType::kModified, std::move(obj)});
          }
        }
        std::vector<model::ApiObject> deleted;
        for (const auto& [key, last] : b.last_seen) {
          if (sharded &&
              env_.apiserver.router().ShardForKey(key) != shard) {
            continue;
          }
          if (present.count(key) != 0) continue;
          // A shadow entry newer than the snapshot was delivered by the
          // fresh watch; the snapshot simply predates it.
          if (last.resource_version > revision) continue;
          deleted.push_back(last);
        }
        for (auto& last : deleted) {
          b.last_seen.erase(last.Key());
          b.handler({apiserver::WatchEventType::kDeleted, std::move(last)});
        }
      });
}

void ControllerHarness::Start() {
  // Lifecycle runs in the component's own lane: informer seeding,
  // cache clears, and policy hooks count as the owner's touches even
  // when the driver (no lane) or a deferred crash event triggers them.
  sim::LaneScope lane_scope(env_.engine.lane_checker(), lane_);
  if (crashed_) {
    // Restart after a crash: injected faults die with the process, and
    // the client's fault counters zero like a fresh exporter's
    // (per-incarnation counts; lifetime totals such as
    // "apiserver.crashes" live outside any process and survive).
    handshake_fault_.Disarm();
    tombstone_fault_.Disarm();
    env_.metrics.ResetCounterPrefix("client." + options_.client_id + ".");
  }
  crashed_ = false;
  ++session_;
  if (have_upstream_spec_ && upstream_spec_.downstream_first) {
    upstream_started_ = false;
    baseline_synced_ = false;
  }

  for (SyncBinding& binding : syncs_) {
    if (!ModeMatches(binding.when)) continue;
    binding.informer->Start(binding.kind, binding.on_synced);
  }
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    if (!ModeMatches(watches_[i].when)) continue;
    for (int s = 0; s < static_cast<int>(watches_[i].shards.size()); ++s) {
      ArmRawWatch(i, s, /*relist=*/false);
    }
  }

  if (mode_ == Mode::kKd && have_upstream_spec_) {
    upstream_ = std::make_unique<kubedirect::HierarchyServer>(
        env_.engine, env_.cost, endpoint_,
        upstream_spec_.cache != nullptr ? *upstream_spec_.cache : scratch_,
        upstream_spec_.kind_filter, upstream_spec_.callbacks, &env_.metrics,
        &handshake_fault_);
    if (!upstream_spec_.downstream_first) {
      upstream_started_ = true;
      upstream_->Start();
    }
  }
  if (mode_ == Mode::kKd && have_downstream_spec_) {
    DownstreamSpec spec = downstream_spec_;  // callbacks copied per session
    auto user_ready = spec.callbacks.on_ready;
    spec.callbacks.on_ready =
        [this, user_ready](const kubedirect::ChangeSet& changes) {
          OnStaticLinkReady(changes);
          if (user_ready) user_ready(changes);
        };
    auto user_down = spec.callbacks.on_down;
    spec.callbacks.on_down = [this, user_down] {
      OnStaticLinkDown();
      if (user_down) user_down();
    };
    static_downstream_ = MakeClient(std::move(spec));
    if (options_.pause_while_link_not_ready) loop_.Pause();
    static_downstream_->Start();
  }
  if (have_upstream_spec_ && upstream_spec_.downstream_first) {
    MaybeStartUpstream();
  }
  if (on_start_) on_start_();
}

void ControllerHarness::Crash() {
  sim::LaneScope lane_scope(env_.engine.lane_checker(), lane_);
  crashed_ = true;
  if (on_crash_) on_crash_();
  // A dead process cannot re-send: its client's queued retries must
  // not land writes after the crash (ghost records no incarnation
  // owns). In-flight chains complete with kCancelled instead.
  api_.AbandonPending();
  tombstones_.Clear();  // session-scoped intents (§4.3)
  deferred_keys_.clear();
  deferred_set_.clear();
  for (ObjectCache* cache : tracked_caches_) cache->Clear();
  loop_.Clear();
  for (SyncBinding& binding : syncs_) binding.informer->Stop();
  for (WatchBinding& binding : watches_) {
    for (std::size_t s = 0; s < binding.shards.size(); ++s) {
      WatchShardState& st = binding.shards[s];
      if (st.active) {
        env_.apiserver.shard(static_cast<int>(s)).Unwatch(st.id);
        st.active = false;
      }
      st.id = 0;
      ++st.arm_epoch;  // kills in-flight rearm/relist chains
    }
    binding.last_seen.clear();
  }
  // Crash the endpoint first: connections die silently (no FIN), the
  // peers detect the loss via keepalive timeout — then tear down the
  // link objects locally.
  env_.network.CrashEndpoint(endpoint_.address());
  for (auto& [id, client] : dynamic_downstreams_) {
    if (client) client->Stop();
  }
  dynamic_downstreams_.clear();
  downstream_exempt_.clear();
  unsettled_.clear();
  if (static_downstream_) {
    static_downstream_->Stop();
    static_downstream_.reset();
  }
  if (upstream_) {
    upstream_->Stop();
    upstream_.reset();
  }
  upstream_started_ = false;
}

void ControllerHarness::EnsureDownstream(const std::string& id,
                                         DownstreamSpec spec) {
  auto& slot = dynamic_downstreams_[id];
  if (slot) return;
  // The gate re-evaluates whenever a fan-out link completes its
  // handshake; policy logic runs after (Listen is synchronous, so the
  // relative order is unobservable). Both link transitions refresh the
  // link's entry in the unsettled set first.
  auto user_ready = spec.callbacks.on_ready;
  spec.callbacks.on_ready =
      [this, id, user_ready](const kubedirect::ChangeSet& changes) {
        UpdateSettled(id);
        MaybeStartUpstream();
        if (user_ready) user_ready(changes);
      };
  auto user_down = spec.callbacks.on_down;
  spec.callbacks.on_down = [this, id, user_down] {
    UpdateSettled(id);
    if (user_down) user_down();
  };
  slot = MakeClient(std::move(spec));
  UpdateSettled(id);
  slot->Start();
}

kubedirect::HierarchyClient* ControllerHarness::downstream(
    const std::string& id) {
  auto it = dynamic_downstreams_.find(id);
  return it == dynamic_downstreams_.end() ? nullptr : it->second.get();
}

bool ControllerHarness::DownstreamReady(const std::string& id) const {
  auto it = dynamic_downstreams_.find(id);
  return it != dynamic_downstreams_.end() && it->second != nullptr &&
         it->second->ready();
}

void ControllerHarness::SetDownstreamExempt(const std::string& id,
                                            bool exempt) {
  downstream_exempt_[id] = exempt;
  UpdateSettled(id);
}

bool ControllerHarness::DownstreamExempt(const std::string& id) const {
  auto it = downstream_exempt_.find(id);
  return it != downstream_exempt_.end() && it->second;
}

void ControllerHarness::UpdateSettled(const std::string& id) {
  auto it = dynamic_downstreams_.find(id);
  if (it != dynamic_downstreams_.end() && !DownstreamExempt(id) &&
      !(it->second && it->second->ready())) {
    unsettled_.insert(id);
  } else {
    unsettled_.erase(id);
  }
}

bool ControllerHarness::DownstreamsSettled() const {
  return baseline_synced_ && unsettled_.empty();
}

void ControllerHarness::MaybeStartUpstream() {
  if (upstream_started_ || !upstream_ || crashed_) return;
  if (!DownstreamsSettled()) return;
  upstream_started_ = true;
  upstream_->Start();
}

void ControllerHarness::DeferUntilLinkReady(const std::string& key) {
  if (deferred_set_.count(key)) return;
  deferred_set_.insert(key);
  deferred_keys_.push_back(key);
}

}  // namespace kd::runtime
