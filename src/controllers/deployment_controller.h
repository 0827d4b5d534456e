// The Deployment controller — step ② of the critical path (Fig. 1).
//
// Selects the ReplicaSet of the Deployment's current revision and
// propagates the desired replica count to it. Like the Autoscaler it
// is level-triggered and idempotent (§4.1): it tracks the last value
// sent per ReplicaSet and re-forwards after link resets.
//
// ReplicaSet *creation* (new function versions / rollouts) is an
// offline upstream operation in both modes and goes through the API
// server — matching the paper's observation that platform
// configuration is not on the scaling critical path.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/flat_map.h"
#include "common/lane.h"
#include "controllers/types.h"
#include "runtime/harness.h"

namespace kd::controllers {

class KD_LANE_OWNED(deployment) DeploymentController {
 public:
  DeploymentController(runtime::Env& env, Mode mode);

  void Start() { harness_.Start(); }
  void Crash() { harness_.Crash(); }
  void Restart() { harness_.Restart(); }

  // Fault-injection seams (crash-point sweep).
  runtime::ControllerHarness& harness() { return harness_; }

  bool link_ready() const { return harness_.link_ready(); }

 private:
  Duration Reconcile(const std::string& deployment_name);
  void OnScaleMessage(const kubedirect::KdMessage& msg);
  // Finds the ReplicaSet matching the deployment's current revision
  // (the first in key order if several do).
  const model::ApiObject* FindReplicaSet(const model::ApiObject& deployment);

  runtime::Env& env_;
  Mode mode_;
  runtime::ControllerHarness harness_;
  runtime::ObjectCache cache_;  // Deployments + ReplicaSets (informer)

  // Kd mode, per Deployment: the authoritative desired replicas (fed
  // by direct messages; the API-server copy is guarded and stale), and
  // the last value sent to each of its ReplicaSets, by ReplicaSet key.
  // An entry exists once a scale message named the Deployment; it is
  // looked up once per reconcile.
  struct ScaleState {
    std::int64_t desired = 0;
    FlatMap<std::string, std::int64_t> last_sent;
  };
  std::map<std::string, ScaleState> scale_;
  // (owner Deployment, revision) -> keys of the visible ReplicaSets
  // carrying them, in key order; kept by the cache change handler.
  std::map<std::pair<std::string, std::int64_t>, std::set<std::string>>
      rs_index_;
};

}  // namespace kd::controllers
