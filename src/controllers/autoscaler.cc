#include "controllers/autoscaler.h"

#include "common/logging.h"
#include "model/objects.h"

namespace kd::controllers {

using model::ApiObject;
using model::kKindDeployment;

Autoscaler::Autoscaler(runtime::Env& env, Mode mode,
                       AutoscalerOptions options)
    : env_(env),
      mode_(mode),
      options_(options),
      harness_(env, mode,
               {.name = "autoscaler",
                .client_id = "autoscaler",
                .address = Addresses::Autoscaler(),
                .qps = env.cost.controller_qps,
                .burst = env.cost.controller_burst}) {
  harness_.SetReconciler(
      [this](const std::string& key) { return Reconcile(key); });
  harness_.SyncKind(cache_, kKindDeployment);

  // Level-triggered link: after any (re)handshake, re-send every
  // desired value that is not known to have landed.
  runtime::ControllerHarness::DownstreamSpec link;
  link.peer = Addresses::DeploymentController();
  link.kind_filter = "__none__";
  link.callbacks.on_ready = [this](const kubedirect::ChangeSet&) {
    // A re-handshake opens a fresh steady period: the chain just came
    // back, so demand-driven scale-downs wait out the hold window.
    if (options_.scale_down_hold > 0) steady_since_ = env_.engine.now();
    for (auto& [name, state] : scale_) {
      state.last_sent.reset();
      harness_.loop().Enqueue(name);
    }
  };
  link.callbacks.on_down = [this] {
    for (auto& [name, state] : scale_) state.last_sent.reset();
  };
  harness_.ConnectDownstream(std::move(link));

  harness_.OnCrash([this] { scale_.clear(); });
}

void Autoscaler::Restart() {
  if (options_.scale_down_hold > 0) steady_since_ = env_.engine.now();
  harness_.Restart();
}

void Autoscaler::ScaleTo(const std::string& deployment_name,
                         std::int64_t replicas) {
  if (harness_.crashed()) return;
  scale_[deployment_name].desired = replicas;
  harness_.loop().Enqueue(deployment_name);
}

std::int64_t Autoscaler::DesiredFor(const std::string& deployment_name) const {
  auto it = scale_.find(deployment_name);
  return it == scale_.end() ? -1 : it->second.desired;
}

bool Autoscaler::HoldScaleDown(const ScaleState& state) const {
  if (options_.scale_down_hold <= 0) return false;
  if (env_.engine.now() >= steady_since_ + options_.scale_down_hold) {
    return false;
  }
  return state.last_applied.has_value() && state.desired < *state.last_applied;
}

Duration Autoscaler::Reconcile(const std::string& deployment_name) {
  auto it = scale_.find(deployment_name);
  if (it == scale_.end()) return 0;
  ScaleState& state = it->second;
  if (state.last_sent == state.desired) return 0;
  if (HoldScaleDown(state)) {
    // Upgrade-pause anti-flap: defer the scale-down until the hold
    // window expires; the deferred reconcile re-reads desired, so a
    // demand recovery in the meantime simply wins.
    env_.metrics.Count("autoscaler.scale_down_held");
    harness_.loop().EnqueueAfter(
        deployment_name,
        steady_since_ + options_.scale_down_hold - env_.engine.now());
    return 0;
  }
  SendScale(deployment_name, state);
  return 0;
}

void Autoscaler::SendScale(const std::string& deployment_name,
                           ScaleState& state) {
  const std::int64_t replicas = state.desired;
  env_.metrics.MarkStart("autoscaler", env_.engine.now());
  if (mode_ == Mode::kKd) {
    kubedirect::HierarchyClient* downstream = harness_.downstream();
    if (downstream == nullptr || !downstream->ready()) {
      // Link down: the value stays desired; the on_ready callback
      // re-enqueues (opportunistic forwarding, §4.1).
      return;
    }
    kubedirect::KdMessage msg;
    msg.obj_key = ApiObject::MakeKey(kKindDeployment, deployment_name);
    msg.attrs.emplace("spec.replicas",
                      kubedirect::KdValue::Literal(replicas));
    downstream->SendUpsert(msg);
    state.last_sent = replicas;
    state.last_applied = replicas;
    env_.metrics.MarkStop("autoscaler", env_.engine.now());
    return;
  }

  // K8s mode: read-modify-write against the API server.
  const ApiObject* cached =
      cache_.Get(ApiObject::MakeKey(kKindDeployment, deployment_name));
  if (cached == nullptr) {
    // Informer not synced yet; retry shortly.
    harness_.loop().EnqueueAfter(deployment_name, Milliseconds(10));
    return;
  }
  state.last_sent = replicas;
  state.last_applied = replicas;
  if (model::GetReplicas(*cached) == replicas) {
    env_.metrics.MarkStop("autoscaler", env_.engine.now());
    return;
  }
  ApiObject updated = *cached;
  model::SetReplicas(updated, replicas);
  harness_.api().Update(
      updated, [this, deployment_name](StatusOr<ApiObject> result) {
        env_.metrics.MarkStop("autoscaler", env_.engine.now());
        if (!result.ok()) {
          // Conflict or transient failure: forget the send and retry
          // with the refreshed cache (level-triggered).
          if (auto it = scale_.find(deployment_name); it != scale_.end()) {
            it->second.last_sent.reset();
          }
          if (!harness_.crashed()) {
            harness_.loop().EnqueueAfter(deployment_name, Milliseconds(5));
          }
          return;
        }
        // kdlint: allow(R5) write-through of the API response; waiting for the watch echo would double round-trip latency
        cache_.Upsert(std::move(*result));
      });
}

}  // namespace kd::controllers
