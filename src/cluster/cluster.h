// Cluster: assembles the full narrow waist on one simulation engine —
// the "cluster manager" rows of Fig. 8a:
//
//   K8s  — stock control plane, stock Kubelet sandbox manager
//   Kd   — KubeDirect control plane, stock Kubelet sandbox manager
//   K8s+ — stock control plane, Dirigent's sandbox manager
//   Kd+  — KubeDirect control plane, Dirigent's sandbox manager
//
// Owns the network, API server, the four narrow-waist controllers, one
// Kubelet per node, and the endpoint-propagation leg (Endpoints
// controller + KubeProxy) the data plane routes with. Function
// registration (Deployment + ReplicaSet + Service creation) is the
// offline upstream path and is seeded directly.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apiserver/apiserver.h"
#include "apiserver/shard.h"
#include "common/cost_model.h"
#include "common/metrics.h"
#include "controllers/autoscaler.h"
#include "controllers/deployment_controller.h"
#include "controllers/endpoints_controller.h"
#include "controllers/kube_proxy.h"
#include "controllers/kubelet.h"
#include "controllers/replicaset_controller.h"
#include "controllers/scheduler.h"
#include "controllers/types.h"
#include "net/network.h"
#include "runtime/env.h"
#include "sim/engine.h"

namespace kd::cluster {

enum class SandboxKind { kStock, kDirigent };

// Control-plane shard count for newly built clusters: the KD_SHARDS
// environment variable (the CI S∈{1,4} matrix), defaulting to 1.
int DefaultNumShards();

// Heterogeneous node pools ("ondemand" vs "spot", scenario engine):
// nodes are assigned to pools in index order, `count` nodes each; any
// remainder stays in the unnamed default pool. An empty pool list
// leaves the Node objects exactly as before (no pool field), so every
// pre-pool fingerprint is preserved.
struct NodePool {
  std::string name;
  int count = 0;
};

struct ClusterConfig {
  controllers::Mode mode = controllers::Mode::kK8s;
  SandboxKind sandbox = SandboxKind::kStock;
  int num_nodes = 8;
  std::int64_t node_cpu_milli = 10'000;  // ten cores (the x1170 testbed)
  std::int64_t node_memory_mb = 64 * 1024;
  CostModel cost = CostModel::Default();
  controllers::SchedulerOptions scheduler;
  controllers::AutoscalerOptions autoscaler;
  std::vector<NodePool> node_pools;
  // Use the padded ~17 KB pod template (realistic wire sizes). Tests
  // that only exercise logic can switch to the minimal template.
  bool realistic_pod_template = true;
  // Control-plane shards (S-way keyspace partitioning). 1 = the
  // paper's single API server; every trace is byte-identical to the
  // pre-sharding tree at 1.
  int num_shards = DefaultNumShards();
  // Inert: the engine is serial, and the constructor rejects any
  // value but 1. Kept only because perfbench/main.cc still assigns
  // them.
  int lane_groups = 1;
  int lane_threads = 1;

  static ClusterConfig K8s(int nodes) {
    ClusterConfig c;
    c.mode = controllers::Mode::kK8s;
    c.num_nodes = nodes;
    return c;
  }
  static ClusterConfig Kd(int nodes) {
    ClusterConfig c;
    c.mode = controllers::Mode::kKd;
    c.num_nodes = nodes;
    return c;
  }
  static ClusterConfig K8sPlus(int nodes) {
    ClusterConfig c = K8s(nodes);
    c.sandbox = SandboxKind::kDirigent;
    return c;
  }
  static ClusterConfig KdPlus(int nodes) {
    ClusterConfig c = Kd(nodes);
    c.sandbox = SandboxKind::kDirigent;
    return c;
  }
};

class Cluster {
 public:
  Cluster(sim::Engine& engine, ClusterConfig config);
  ~Cluster();

  // Brings every controller up and runs the engine until the control
  // plane is synced and all Kd links are established.
  void Boot();

  // Registers a FaaS function: Deployment (KubeDirect-annotated in Kd
  // mode) + its revision-1 ReplicaSet. Offline path: seeded directly
  // into the API server (no simulated cost), matching the paper's
  // "upstream is offline" observation.
  void RegisterFunction(const std::string& name,
                        std::int64_t cpu_milli = 250,
                        std::int64_t memory_mb = 256);

  // The narrow-waist entry point (step ①).
  void ScaleTo(const std::string& function_name, std::int64_t replicas);

  // What the downstream data plane sees: Running pods of `function`
  // published in the API server.
  std::size_t ReadyPodCount(const std::string& function_name) const;
  std::size_t TotalReadyPods() const;
  std::vector<std::string> ReadyPodAddresses(
      const std::string& function_name) const;

  // Runs the engine until `predicate` holds or `deadline` passes;
  // returns true if the predicate held. Polls at `tick` granularity.
  bool RunUntil(const std::function<bool()>& predicate, Duration deadline,
                Duration tick = Milliseconds(5));

  // --- accessors -------------------------------------------------------
  sim::Engine& engine() { return engine_; }
  net::Network& network() { return *network_; }
  apiserver::ControlPlane& apiserver() { return *control_plane_; }
  runtime::Env& env() { return *env_; }
  MetricsRecorder& metrics() { return metrics_; }
  const ClusterConfig& config() const { return config_; }

  controllers::Autoscaler& autoscaler() { return *autoscaler_; }
  controllers::DeploymentController& deployment_controller() {
    return *deployment_controller_;
  }
  controllers::ReplicaSetController& replicaset_controller() {
    return *replicaset_controller_;
  }
  controllers::Scheduler& scheduler() { return *scheduler_; }
  controllers::EndpointsController& endpoints_controller() {
    return *endpoints_controller_;
  }
  controllers::KubeProxy& kube_proxy() { return *kube_proxy_; }
  controllers::Kubelet& kubelet(int index) { return *kubelets_[index]; }
  controllers::Kubelet* kubelet_by_node(const std::string& node_name);
  int num_nodes() const { return config_.num_nodes; }

  static std::string NodeName(int index);
  std::string RsName(const std::string& function_name) const {
    return function_name + "-v1";
  }

  // Pool of node `index` per config_.node_pools ("" = default pool).
  std::string PoolOfNode(int index) const;
  // Node names belonging to `pool`, in index order.
  std::vector<std::string> NodesInPool(const std::string& pool) const;

 private:
  sim::Engine& engine_;
  ClusterConfig config_;
  MetricsRecorder metrics_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<apiserver::ControlPlane> control_plane_;
  std::unique_ptr<runtime::Env> env_;
  std::unique_ptr<controllers::Autoscaler> autoscaler_;
  std::unique_ptr<controllers::DeploymentController> deployment_controller_;
  std::unique_ptr<controllers::ReplicaSetController> replicaset_controller_;
  std::unique_ptr<controllers::Scheduler> scheduler_;
  std::unique_ptr<controllers::EndpointsController> endpoints_controller_;
  std::unique_ptr<controllers::KubeProxy> kube_proxy_;
  std::vector<std::unique_ptr<controllers::Kubelet>> kubelets_;
};

}  // namespace kd::cluster
