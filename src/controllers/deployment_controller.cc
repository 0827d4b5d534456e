#include "controllers/deployment_controller.h"

#include "common/logging.h"
#include "model/objects.h"

namespace kd::controllers {

using model::ApiObject;
using model::kKindDeployment;
using model::kKindReplicaSet;

DeploymentController::DeploymentController(runtime::Env& env, Mode mode)
    : env_(env),
      mode_(mode),
      harness_(env, mode,
               {.name = "deployment",
                .client_id = "deployment-controller",
                .address = Addresses::DeploymentController(),
                .qps = env.cost.controller_qps,
                .burst = env.cost.controller_burst}) {
  harness_.SetReconciler(
      [this](const std::string& key) { return Reconcile(key); });
  // A Deployment change (watch event or direct message) triggers its
  // reconcile; ReplicaSet changes trigger the owning Deployment's.
  cache_.AddChangeHandler([this](const std::string& key,
                                 const ApiObject* before,
                                 const ApiObject* after) {
    if (before != nullptr && before->kind == kKindReplicaSet) {
      auto it = rs_index_.find(
          {model::GetOwnerName(*before), model::GetRevision(*before)});
      it->second.erase(key);
      if (it->second.empty()) rs_index_.erase(it);
    }
    if (after != nullptr && after->kind == kKindReplicaSet) {
      rs_index_[{model::GetOwnerName(*after), model::GetRevision(*after)}]
          .insert(key);
    }
    const ApiObject* obj = after != nullptr ? after : before;
    if (obj == nullptr) return;
    if (obj->kind == kKindDeployment) {
      harness_.loop().Enqueue(obj->name);
    } else if (obj->kind == kKindReplicaSet) {
      harness_.loop().Enqueue(model::GetOwnerName(*obj));
    }
  });
  harness_.SyncKind(cache_, kKindDeployment);
  harness_.SyncKind(cache_, kKindReplicaSet);

  runtime::ControllerHarness::UpstreamSpec upstream;
  upstream.kind_filter = "__none__";
  upstream.callbacks.on_upsert = [this](const kubedirect::KdMessage& msg) {
    OnScaleMessage(msg);
  };
  harness_.ServeUpstream(std::move(upstream));

  runtime::ControllerHarness::DownstreamSpec link;
  link.peer = Addresses::ReplicaSetController();
  link.kind_filter = "__none__";
  link.callbacks.on_ready = [this](const kubedirect::ChangeSet&) {
    for (auto& [name, state] : scale_) {
      state.last_sent.clear();
      harness_.loop().Enqueue(name);
    }
  };
  link.callbacks.on_down = [this] {
    for (auto& [name, state] : scale_) state.last_sent.clear();
  };
  harness_.ConnectDownstream(std::move(link));

  harness_.OnCrash([this] {
    scale_.clear();
    rs_index_.clear();  // the caches clear without change events
  });
}

void DeploymentController::OnScaleMessage(const kubedirect::KdMessage& msg) {
  // Expected shape: {Deployment/<name>, spec.replicas -> N}.
  const std::size_t slash = msg.obj_key.find('/');
  if (slash == std::string::npos) return;
  const std::string name = msg.obj_key.substr(slash + 1);
  auto it = msg.attrs.find("spec.replicas");
  if (it == msg.attrs.end() || it->second.is_pointer()) return;
  scale_[name].desired = it->second.literal().as_int();
  harness_.loop().Enqueue(name);
}

const ApiObject* DeploymentController::FindReplicaSet(
    const ApiObject& deployment) {
  auto it =
      rs_index_.find({deployment.name, model::GetRevision(deployment)});
  if (it == rs_index_.end()) return nullptr;
  return cache_.Get(*it->second.begin());
}

Duration DeploymentController::Reconcile(const std::string& deployment_name) {
  const ApiObject* deployment =
      cache_.Get(ApiObject::MakeKey(kKindDeployment, deployment_name));
  if (deployment == nullptr) return 0;

  std::int64_t desired;
  ScaleState* state = nullptr;
  if (mode_ == Mode::kKd) {
    auto it = scale_.find(deployment_name);
    if (it == scale_.end()) return 0;  // no scale decision yet
    state = &it->second;
    desired = state->desired;
  } else {
    desired = model::GetReplicas(*deployment);
  }

  const ApiObject* rs = FindReplicaSet(*deployment);
  if (rs == nullptr) {
    // ReplicaSet not registered yet (platform still configuring);
    // retry once it appears in the cache.
    harness_.loop().EnqueueAfter(deployment_name, Milliseconds(20));
    return 0;
  }

  env_.metrics.MarkStart("deployment", env_.engine.now());
  if (mode_ == Mode::kKd) {
    const std::string rs_key = rs->Key();
    auto sent = state->last_sent.find(rs_key);
    if (sent != state->last_sent.end() && sent->second == desired) return 0;
    kubedirect::HierarchyClient* downstream = harness_.downstream();
    if (downstream == nullptr || !downstream->ready()) {
      return 0;  // re-sent on_ready
    }
    kubedirect::KdMessage msg;
    msg.obj_key = rs_key;
    msg.attrs.emplace("spec.replicas", kubedirect::KdValue::Literal(desired));
    downstream->SendUpsert(msg);
    state->last_sent[rs_key] = desired;
    env_.metrics.MarkStop("deployment", env_.engine.now());
    return 0;
  }

  if (model::GetReplicas(*rs) == desired) {
    env_.metrics.MarkStop("deployment", env_.engine.now());
    return 0;
  }
  ApiObject updated = *rs;
  model::SetReplicas(updated, desired);
  harness_.api().Update(
      updated, [this, deployment_name](StatusOr<ApiObject> result) {
        env_.metrics.MarkStop("deployment", env_.engine.now());
        if (!result.ok()) {
          if (!harness_.crashed()) {
            harness_.loop().EnqueueAfter(deployment_name, Milliseconds(5));
          }
          return;
        }
        // kdlint: allow(R5) write-through of the API response; waiting for the watch echo would double round-trip latency
        cache_.Upsert(std::move(*result));
      });
  return 0;
}

}  // namespace kd::controllers
