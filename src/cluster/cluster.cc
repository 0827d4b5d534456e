#include "cluster/cluster.h"

#include <algorithm>
#include <cstdlib>

#include "common/strings.h"
#include "kubedirect/ownership.h"
#include "model/objects.h"

namespace kd::cluster {

using controllers::Mode;
using model::ApiObject;

int DefaultNumShards() {
  // The CI shard-matrix knob, read once at cluster construction —
  // never inside simulated time, so runs stay reproducible per value.
  // kdlint: allow(R1) config knob read outside simulated time
  const char* env = std::getenv("KD_SHARDS");
  if (env == nullptr) return 1;
  const int n = std::atoi(env);
  return n < 1 ? 1 : n;
}

Cluster::Cluster(sim::Engine& engine, ClusterConfig config)
    : engine_(engine), config_(std::move(config)) {
  KD_CHECK(config_.lane_groups == 1 && config_.lane_threads == 1,
           "the engine is serial: lane_groups and lane_threads must be 1");
  network_ = std::make_unique<net::Network>(engine_);
  control_plane_ = std::make_unique<apiserver::ControlPlane>(
      engine_, config_.cost, config_.num_shards);
  env_ = std::make_unique<runtime::Env>(runtime::Env{
      engine_, *network_, *control_plane_, config_.cost, metrics_});

  if (config_.mode == Mode::kKd) {
    control_plane_->AddAdmissionHook(kubedirect::MakeReplicasGuard());
  }

  autoscaler_ = std::make_unique<controllers::Autoscaler>(*env_, config_.mode,
                                                          config_.autoscaler);
  deployment_controller_ =
      std::make_unique<controllers::DeploymentController>(*env_, config_.mode);
  replicaset_controller_ =
      std::make_unique<controllers::ReplicaSetController>(*env_, config_.mode);
  scheduler_ = std::make_unique<controllers::Scheduler>(*env_, config_.mode,
                                                        config_.scheduler);
  kube_proxy_ = std::make_unique<controllers::KubeProxy>(*env_, config_.mode);
  endpoints_controller_ =
      std::make_unique<controllers::EndpointsController>(*env_, config_.mode);

  const controllers::SandboxParams sandbox =
      config_.sandbox == SandboxKind::kStock
          ? controllers::SandboxParams::Stock(config_.cost)
          : controllers::SandboxParams::Dirigent(config_.cost);
  kubelets_.reserve(static_cast<std::size_t>(config_.num_nodes));
  for (int i = 0; i < config_.num_nodes; ++i) {
    kubelets_.push_back(std::make_unique<controllers::Kubelet>(
        *env_, config_.mode, NodeName(i), sandbox));
  }

}

Cluster::~Cluster() = default;

std::string Cluster::NodeName(int index) {
  return StrFormat("node-%04d", index);
}

std::string Cluster::PoolOfNode(int index) const {
  int base = 0;
  for (const NodePool& pool : config_.node_pools) {
    if (index < base + pool.count) return pool.name;
    base += pool.count;
  }
  return "";
}

std::vector<std::string> Cluster::NodesInPool(const std::string& pool) const {
  std::vector<std::string> out;
  for (int i = 0; i < config_.num_nodes; ++i) {
    if (PoolOfNode(i) == pool) out.push_back(NodeName(i));
  }
  return out;
}

controllers::Kubelet* Cluster::kubelet_by_node(const std::string& node_name) {
  for (auto& kubelet : kubelets_) {
    if (kubelet->node_name() == node_name) return kubelet.get();
  }
  return nullptr;
}

void Cluster::Boot() {
  // Node objects first (the Scheduler's informer discovers them and, in
  // Kd mode, dials each Kubelet).
  for (int i = 0; i < config_.num_nodes; ++i) {
    ApiObject node = model::MakeNode(NodeName(i), config_.node_cpu_milli,
                                     config_.node_memory_mb);
    const std::string pool = PoolOfNode(i);
    if (!pool.empty()) model::SetNodePool(node, pool);
    control_plane_->SeedObject(std::move(node));
  }
  for (auto& kubelet : kubelets_) kubelet->Start();
  scheduler_->Start();
  replicaset_controller_->Start();
  deployment_controller_->Start();
  autoscaler_->Start();
  kube_proxy_->Start();
  endpoints_controller_->Start();

  // Let informers sync and Kd links handshake.
  if (config_.mode == Mode::kKd) {
    RunUntil(
        [this] {
          if (!autoscaler_->link_ready()) return false;
          if (!deployment_controller_->link_ready()) return false;
          if (!replicaset_controller_->link_ready()) return false;
          if (!endpoints_controller_->link_ready()) return false;
          for (int i = 0; i < config_.num_nodes; ++i) {
            if (!scheduler_->KubeletLinkReady(NodeName(i))) return false;
          }
          return true;
        },
        Seconds(30));
  } else {
    engine_.RunFor(Milliseconds(100));
  }
}

void Cluster::RegisterFunction(const std::string& name,
                               std::int64_t cpu_milli,
                               std::int64_t memory_mb) {
  model::Value tmpl =
      config_.realistic_pod_template
          ? model::RealisticPodTemplateSpec(name, cpu_milli, memory_mb)
          : model::MinimalPodTemplateSpec(name);
  if (!config_.realistic_pod_template) {
    tmpl["resources"]["cpuMilli"] = cpu_milli;
    tmpl["resources"]["memoryMb"] = memory_mb;
  }
  ApiObject deployment = model::MakeDeployment(name, 0, tmpl);
  if (config_.mode == Mode::kKd) {
    model::SetKubeDirectManaged(deployment, true);
  }
  ApiObject rs = model::MakeReplicaSet(RsName(name), name, /*revision=*/1,
                                       /*replicas=*/0, tmpl);
  if (config_.mode == Mode::kKd) {
    model::SetKubeDirectManaged(rs, true);
  }
  control_plane_->SeedObject(std::move(deployment));
  control_plane_->SeedObject(std::move(rs));
  control_plane_->SeedObject(model::MakeService(name));
}

void Cluster::ScaleTo(const std::string& function_name,
                      std::int64_t replicas) {
  autoscaler_->ScaleTo(function_name, replicas);
}

std::size_t Cluster::ReadyPodCount(const std::string& function_name) const {
  std::size_t n = 0;
  for (const ApiObject* pod : control_plane_->PeekAll(model::kKindPod)) {
    if (model::GetLabel(*pod, "app") == function_name &&
        model::GetPodPhase(*pod) == model::PodPhase::kRunning) {
      ++n;
    }
  }
  return n;
}

std::size_t Cluster::TotalReadyPods() const {
  std::size_t n = 0;
  for (const ApiObject* pod : control_plane_->PeekAll(model::kKindPod)) {
    if (model::GetPodPhase(*pod) == model::PodPhase::kRunning) ++n;
  }
  return n;
}

std::vector<std::string> Cluster::ReadyPodAddresses(
    const std::string& function_name) const {
  std::vector<std::string> out;
  for (const ApiObject* pod : control_plane_->PeekAll(model::kKindPod)) {
    if (model::GetLabel(*pod, "app") == function_name &&
        model::GetPodPhase(*pod) == model::PodPhase::kRunning) {
      out.push_back(model::GetPodIp(*pod));
    }
  }
  return out;
}

bool Cluster::RunUntil(const std::function<bool()>& predicate,
                       Duration deadline, Duration tick) {
  const Time limit = engine_.now() + deadline;
  while (engine_.now() < limit) {
    if (predicate()) return true;
    const Time next = std::min(limit, engine_.now() + tick);
    engine_.RunUntil(next);
  }
  return predicate();
}

}  // namespace kd::cluster
