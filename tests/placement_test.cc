// Index-equivalence property test for the Scheduler's placement index.
//
// PickNode reads an ordered (allocation, name) index of placeable nodes
// instead of scanning every node. A seeded walk over a Kd cluster
// varies what the index must track — capacities (mixed, including
// zero), allocations (two functions with different CPU requests scaled
// up and down), cancellations, reclaim drains and their clears, link
// flaps (partitions, kubelet crashes) and scheduler restarts — and
// before every engine event compares PickNode with a brute-force scan
// of the scheduler's node table, the pre-index algorithm: the
// least-allocated feasible node, ties to the smallest name.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "model/objects.h"

namespace kd::cluster {
namespace {

using controllers::Addresses;
using model::ApiObject;

constexpr int kNodes = 6;
constexpr std::int64_t kSmallCpu = 250;
constexpr std::int64_t kBigCpu = 1500;

// The scan PickNode replaced.
std::string BruteForcePick(const controllers::Scheduler& scheduler,
                           std::int64_t cpu) {
  const std::vector<controllers::Scheduler::NodeView> nodes =
      scheduler.NodeViews();
  const controllers::Scheduler::NodeView* best = nullptr;
  for (const auto& node : nodes) {  // name order
    if (node.cancelled || node.draining || node.cpu_capacity <= 0) continue;
    if (!scheduler.KubeletLinkReady(node.name)) continue;
    if (node.cpu_allocated + cpu > node.cpu_capacity) continue;
    if (best == nullptr || node.cpu_allocated < best->cpu_allocated) {
      best = &node;
    }
  }
  return best == nullptr ? "" : best->name;
}

class PlacementWalk {
 public:
  explicit PlacementWalk(std::uint64_t seed) : rng_(seed) {
    ClusterConfig config = ClusterConfig::Kd(kNodes);
    config.realistic_pod_template = false;
    config.node_cpu_milli = 4000;
    config.scheduler.cancel_after_failures = 5;
    cluster_ = std::make_unique<Cluster>(engine_, std::move(config));
    cluster_->Boot();
    cluster_->RegisterFunction("small", kSmallCpu);
    cluster_->RegisterFunction("big", kBigCpu);
    engine_.set_trace_hook(
        [this](Time, std::uint64_t, sim::EventId) { Check(); });
  }

  void Run(int steps) {
    for (int i = 0; i < steps; ++i) {
      Step();
      engine_.RunFor(Milliseconds(
          static_cast<std::int64_t>(1 + rng_.UniformInt(300))));
    }
    engine_.RunFor(Seconds(5));
    Check();
  }

  int checks() const { return checks_; }
  const std::set<std::string>& picked() const { return picked_; }
  int empty_picks() const { return empty_picks_; }

 private:
  void Check() {
    const controllers::Scheduler& scheduler = cluster_->scheduler();
    for (std::int64_t cpu : {std::int64_t{0}, kSmallCpu, kBigCpu,
                             std::int64_t{3000}}) {
      const std::string indexed = scheduler.PickNode(cpu);
      const std::string scanned = BruteForcePick(scheduler, cpu);
      ASSERT_EQ(indexed, scanned) << "cpu=" << cpu << " at "
                                  << ToMillis(engine_.now()) << " ms";
      ++checks_;
      if (indexed.empty()) {
        ++empty_picks_;
      } else {
        picked_.insert(indexed);
      }
    }
  }

  std::string RandomNode() {
    return Cluster::NodeName(static_cast<int>(rng_.UniformInt(kNodes)));
  }

  // Rewrites a Node object through the API server (the scheduler's
  // informer picks the change up like any other Node update).
  template <typename Edit>
  void EditNode(const std::string& name, Edit edit) {
    const ApiObject* current =
        cluster_->apiserver().Peek(model::kKindNode, name);
    if (current == nullptr) return;
    ApiObject copy = *current;
    edit(copy);
    cluster_->apiserver().SeedObject(std::move(copy));
  }

  void Step() {
    switch (rng_.UniformInt(10)) {
      case 0:
      case 1:
        cluster_->ScaleTo("small",
                          static_cast<std::int64_t>(rng_.UniformInt(30)));
        break;
      case 2:
        cluster_->ScaleTo("big",
                          static_cast<std::int64_t>(rng_.UniformInt(12)));
        break;
      case 3: {  // mixed capacities, zero included
        static constexpr std::int64_t kCapacities[] = {0, 500, 1500, 2000,
                                                       4000, 8000};
        const std::int64_t cpu = kCapacities[rng_.UniformInt(6)];
        EditNode(RandomNode(),
                 [cpu](ApiObject& node) { model::SetCpuMilli(node, cpu); });
        break;
      }
      case 4:
        cluster_->scheduler().CancelNode(RandomNode());
        break;
      case 5: {  // reclaim notice, or its clear
        const std::int64_t at_ms =
            rng_.UniformInt(2) == 0
                ? 0
                : static_cast<std::int64_t>(ToMillis(engine_.now())) + 600'000;
        EditNode(RandomNode(), [at_ms](ApiObject& node) {
          model::SetNodeReclaimAtMs(node, at_ms);
        });
        break;
      }
      case 6: {  // link flap: partition or heal scheduler <-> kubelet
        const std::string kubelet = Addresses::Kubelet(RandomNode());
        if (rng_.UniformInt(2) == 0) {
          cluster_->network().Partition(Addresses::Scheduler(), kubelet);
        } else {
          cluster_->network().Heal(Addresses::Scheduler(), kubelet);
        }
        break;
      }
      case 7: {  // link flap: kubelet crash + restart
        const int k = static_cast<int>(rng_.UniformInt(kNodes));
        cluster_->kubelet(k).Crash();
        cluster_->kubelet(k).Restart();
        break;
      }
      case 8:  // the index is soft state: rebuilt after a restart
        cluster_->scheduler().Crash();
        cluster_->scheduler().Restart();
        break;
      default:
        break;  // time passes (Run advances after every step)
    }
  }

  sim::Engine engine_;
  Rng rng_;
  std::unique_ptr<Cluster> cluster_;
  int checks_ = 0;
  int empty_picks_ = 0;
  std::set<std::string> picked_;
};

class PlacementIndexTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlacementIndexTest, IndexPicksWhatAFullScanPicks) {
  PlacementWalk walk(GetParam());
  walk.Run(60);
  // The walk reached both answers and spread placements around.
  EXPECT_GT(walk.checks(), 1000);
  EXPECT_GT(walk.empty_picks(), 0);
  EXPECT_GE(walk.picked().size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementIndexTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace kd::cluster
