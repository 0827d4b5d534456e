// The Scheduler — step ④ of the critical path (Fig. 1).
//
// Assigns Pending pods to nodes with a least-allocated-CPU policy whose
// cost grows linearly with the node count (the Fig. 11 M-scalability
// effect). Sits mid-chain in the hierarchical cache: server towards the
// ReplicaSet controller, one client per Kubelet (the harness's dynamic
// downstream fan-out).
//
// Termination duties (§4.3):
//   - forwards Tombstones towards the owning Kubelet (async downscale);
//   - synchronous preemption: replicates the tombstone with an
//     immediate flush and *blocks the dependent action* until the
//     Kubelet's invalidation signal returns;
//   - cancellation: when a Kubelet is unreachable, marks its Node
//     invalid through the API server, assumes its pods terminated, and
//     invalidates them upstream. Cancelled nodes are exempt from the
//     harness's §4.2 downstream-first gate.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/lane.h"
#include "controllers/types.h"
#include "runtime/harness.h"

namespace kd::controllers {

struct SchedulerOptions {
  // Consecutive failed connect attempts to one Kubelet before the
  // Scheduler cancels the node (§4.3 "Cancellation"). 0 disables.
  int cancel_after_failures = 10;
};

class KD_LANE_OWNED(scheduler) Scheduler {
 public:
  Scheduler(runtime::Env& env, Mode mode, SchedulerOptions options = {});

  void Start() { harness_.Start(); }
  void Crash() { harness_.Crash(); }
  void Restart() { harness_.Restart(); }

  // Fault-injection seams (crash-point sweep).
  runtime::ControllerHarness& harness() { return harness_; }

  // Synchronous termination (§4.3): terminates `pod_key` and invokes
  // `done` only after the owning Kubelet's invalidation signal arrives
  // (Kd mode) or the API delete completes (K8s mode).
  void Preempt(const std::string& pod_key, std::function<void(Status)> done);

  // Cancels an unreachable node explicitly (also triggered
  // automatically after repeated connect failures).
  void CancelNode(const std::string& node_name);

  // The node a pod requesting `cpu_milli` goes to: the least-allocated
  // placeable node with room, ties to the smallest name; "" if none
  // fits. Reads the placement index (O(log M) when the least-allocated
  // placeable node has room); Reconcile still charges the simulated
  // scan of every node.
  std::string PickNode(std::int64_t cpu_milli) const;

  // Observability.
  // Per-node placement inputs (the index-equivalence tests rebuild
  // PickNode's answer from these by a full scan).
  struct NodeView {
    std::string name;
    std::int64_t cpu_capacity = 0;
    std::int64_t cpu_allocated = 0;
    bool cancelled = false;
    bool draining = false;
  };
  std::vector<NodeView> NodeViews() const;
  std::int64_t AllocatedCpuOn(const std::string& node_name) const;
  // True while the node carries a reclaim notice: excluded from
  // placement, pods draining toward other nodes (scenario engine).
  bool IsNodeDraining(const std::string& node_name) const;
  const runtime::ObjectCache& pod_cache() const { return pod_cache_; }
  bool KubeletLinkReady(const std::string& node_name) const {
    return harness_.DownstreamReady(node_name);
  }
  std::size_t tombstone_count() const { return harness_.tombstones().size(); }

 private:
  struct NodeState {
    std::int64_t cpu_capacity = 0;
    std::int64_t cpu_allocated = 0;
    int consecutive_failures = 0;
    bool cancelled = false;
    // A reclaim notice is pending (spot reclamation, §scenario): the
    // node takes no new pods and its current pods are drained toward
    // the rest of the cluster within the grace window.
    bool draining = false;
    std::int64_t reclaim_at_ms = 0;  // last observed notice (0 = none)
    // An invalid=false Node write is in flight (un-cancel commit gate).
    bool uncancel_inflight = false;
    // Highest resourceVersion among our own committed Node writes —
    // lets the informer handler tell our own write echoes from invalid
    // marks we did not (knowingly) put there.
    std::uint64_t last_node_write_rv = 0;
    // Kd mode: the harness-owned link to this node's Kubelet (null
    // until EnsureKubeletLink; it lives until Crash, which also clears
    // nodes_). Placement skips the node while the link is not ready.
    kubedirect::HierarchyClient* link = nullptr;

    // Takes pods, link readiness and room aside.
    bool placeable() const {
      return !cancelled && !draining && cpu_capacity > 0;
    }
  };
  using NodeMap = std::map<std::string, NodeState>;
  // Placement index entry: placeable nodes ordered by (allocation at
  // insertion, name) — PickNode's preference order.
  struct IndexKey {
    std::int64_t cpu_allocated;
    const NodeMap::value_type* node;
    bool operator<(const IndexKey& other) const {
      if (cpu_allocated != other.cpu_allocated) {
        return cpu_allocated < other.cpu_allocated;
      }
      return node->first < other.node->first;
    }
  };

  Duration Reconcile(const std::string& pod_key);
  // Reverses CancelNode once the node is reachable again. The node
  // resumes taking pods only after the cleared invalid mark COMMITS to
  // the API server: the mark is committed state, and a Kubelet that
  // observes it — however late (e.g. a watch relist after an API
  // outage) — drains every pod on the node (§4.3). Placing before the
  // commit hands that drain fresh victims.
  void UncancelNode(const std::string& node_name);
  // Reacts to a reclaim-notice change on a Node object: marks the node
  // draining and terminates its pods gracefully (Kd: tombstone path;
  // K8s: API deletes) so the ReplicaSet controller replaces them on
  // healthy nodes before the provider pulls the machine.
  void OnReclaimNotice(const std::string& node_name,
                       std::int64_t reclaim_at_ms);
  void DrainNode(const std::string& node_name);
  // Applies `change` to the node's state (creating it if new) and
  // moves the node within the placement index to match. Every write of
  // a field placeable() or the index order reads goes through here.
  template <typename Change>
  void UpdateNode(const std::string& node_name, Change change);
  void EnsureKubeletLink(const std::string& node_name);
  void OnPodMessage(const kubedirect::KdMessage& msg);
  void OnTombstone(const std::string& pod_key);
  void OnKubeletRemove(const std::string& node_name,
                       const std::string& pod_key);
  void OnKubeletReady(const std::string& node_name,
                      const kubedirect::ChangeSet& changes);
  void ForwardRemoveUpstream(const std::string& pod_key);
  void ResolvePreemption(const std::string& pod_key, Status status);

  runtime::Env& env_;
  Mode mode_;
  SchedulerOptions options_;
  runtime::ControllerHarness harness_;
  runtime::ObjectCache node_cache_;  // Nodes (informer)
  runtime::ObjectCache pod_cache_;   // K8s: informer; Kd: ephemeral

  // Per-node scheduling state (capacity, allocation, cancellation).
  // The per-Kubelet HierarchyClients live in the harness fan-out.
  NodeMap nodes_;
  // The placeable nodes of nodes_, in PickNode's preference order.
  std::set<IndexKey> placement_index_;
  // Pods whose Upsert is between arrival and cache insertion (the
  // kd_materialize window); tombstones for them are deferred, not
  // answered as unknown.
  std::set<std::string> materializing_;
  std::map<std::string, std::function<void(Status)>> pending_preemptions_;
};

}  // namespace kd::controllers
