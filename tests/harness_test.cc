// Tests for the shared ControllerHarness substrate every narrow-waist
// controller runs on: crash/restart epoch invalidation, declarative
// wiring (SyncKind / WatchFiltered), §4.2 pause-during-handshake and
// downstream-first gating (including the tracked settled gate against a
// brute-force scan), and deferred-reconcile replay.
#include "runtime/harness.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "apiserver/apiserver.h"
#include "model/objects.h"
#include "net/network.h"
#include "runtime/env.h"
#include "sim/engine.h"

namespace kd::runtime {
namespace {

using model::ApiObject;

ApiObject Pod(const std::string& name) {
  ApiObject pod;
  pod.kind = model::kKindPod;
  pod.name = name;
  model::SetPodPhase(pod, model::PodPhase::kPending);
  return pod;
}

class HarnessTest : public ::testing::TestWithParam<Mode> {
 protected:
  HarnessTest()
      : network_(engine_),
        cost_(CostModel::Default()),
        apiserver_(engine_, cost_),
        plane_(apiserver_),
        env_{engine_, network_, plane_, cost_, metrics_} {}

  Mode mode() const { return GetParam(); }

  ControllerHarness::Options Opts(const std::string& name,
                                  bool pause = false) {
    ControllerHarness::Options options;
    options.name = name;
    options.client_id = name + "-client";
    options.address = "kd.test." + name;
    options.qps = cost_.controller_qps;
    options.burst = cost_.controller_burst;
    options.pause_while_link_not_ready = pause;
    return options;
  }

  // A parent that serves a level-triggered "__none__" upstream — what
  // a child harness's static downstream link handshakes against.
  void ServeNoneUpstream(ControllerHarness& parent,
                         bool downstream_first = false) {
    ControllerHarness::UpstreamSpec spec;
    spec.kind_filter = "__none__";
    spec.downstream_first = downstream_first;
    parent.ServeUpstream(std::move(spec));
  }

  void DialParent(ControllerHarness& child, const std::string& parent_name) {
    ControllerHarness::DownstreamSpec spec;
    spec.peer = "kd.test." + parent_name;
    spec.kind_filter = "__none__";
    child.ConnectDownstream(std::move(spec));
  }

  sim::Engine engine_;
  net::Network network_;
  CostModel cost_;
  apiserver::ApiServer apiserver_;
  apiserver::ControlPlane plane_;  // 1-shard view over apiserver_
  MetricsRecorder metrics_;
  Env env_;
};

TEST_P(HarnessTest, SessionEpochBumpsAcrossRestarts) {
  ControllerHarness harness(env_, mode(), Opts("epoch"));
  EXPECT_EQ(harness.session(), 0u);
  harness.Start();
  EXPECT_EQ(harness.session(), 1u);
  EXPECT_FALSE(harness.crashed());
  harness.Crash();
  EXPECT_TRUE(harness.crashed());
  harness.Restart();
  EXPECT_EQ(harness.session(), 2u);
  EXPECT_FALSE(harness.crashed());
}

TEST_P(HarnessTest, CrashClearsSyncedCacheAndRestartResyncs) {
  apiserver_.SeedObject(model::MakeNode("node-0", 10'000, 64 * 1024));
  ObjectCache cache;
  ControllerHarness harness(env_, mode(), Opts("sync"));
  harness.SyncKind(cache, model::kKindNode);
  harness.Start();
  engine_.RunFor(Seconds(1));
  EXPECT_NE(cache.Get("Node/node-0"), nullptr);

  // The cache is invalidated synchronously at crash (recover mode
  // starts from empty state), and resynced by the informer on restart.
  harness.Crash();
  EXPECT_EQ(cache.Get("Node/node-0"), nullptr);
  harness.Restart();
  engine_.RunFor(Seconds(1));
  EXPECT_NE(cache.Get("Node/node-0"), nullptr);
}

TEST_P(HarnessTest, WatchEventsStopAtCrashAndResumeOnRestart) {
  int events = 0;
  ControllerHarness harness(env_, mode(), Opts("watch"));
  harness.WatchFiltered(
      model::kKindPod, [](const ApiObject&) { return true; },
      [&](const apiserver::WatchEvent&) { ++events; });
  harness.Start();
  apiserver_.SeedObject(Pod("p1"));
  engine_.RunFor(Seconds(1));
  EXPECT_EQ(events, 1);

  harness.Crash();
  apiserver_.SeedObject(Pod("p2"));
  engine_.RunFor(Seconds(1));
  EXPECT_EQ(events, 1);  // unwatched: the crashed epoch sees nothing

  harness.Restart();
  apiserver_.SeedObject(Pod("p3"));
  engine_.RunFor(Seconds(1));
  EXPECT_EQ(events, 2);
}

TEST_P(HarnessTest, CrashHookRunsBeforeCacheTeardown) {
  apiserver_.SeedObject(model::MakeNode("node-0", 10'000, 64 * 1024));
  ObjectCache cache;
  ControllerHarness harness(env_, mode(), Opts("hooks"));
  harness.SyncKind(cache, model::kKindNode);
  bool saw_cache_populated = false;
  harness.OnCrash([&] {
    // Policy hooks drop soft state first, while caches still hold the
    // pre-crash view.
    saw_cache_populated = cache.Get("Node/node-0") != nullptr;
  });
  harness.Start();
  engine_.RunFor(Seconds(1));
  harness.Crash();
  EXPECT_TRUE(saw_cache_populated);
  EXPECT_EQ(cache.Get("Node/node-0"), nullptr);
}

TEST_P(HarnessTest, PauseDuringHandshakeGatesReconciles) {
  ControllerHarness parent(env_, mode(), Opts("parent"));
  ServeNoneUpstream(parent);
  ControllerHarness child(env_, mode(), Opts("child", /*pause=*/true));
  DialParent(child, "parent");
  std::vector<std::string> reconciled;
  child.SetReconciler([&](const std::string& key) {
    reconciled.push_back(key);
    return Milliseconds(0);
  });

  child.Start();  // the parent is not listening yet
  child.loop().Enqueue("Pod/a");
  engine_.RunFor(Seconds(1));
  if (mode() == Mode::kKd) {
    // No reconcile may act on state mid-invalidation: the loop stays
    // paused until the handshake completes.
    EXPECT_FALSE(child.link_ready());
    EXPECT_TRUE(reconciled.empty());
    parent.Start();
    engine_.RunFor(Seconds(5));
    EXPECT_TRUE(child.link_ready());
  }
  // K8s mode has no Kd link, so the loop is never gated.
  EXPECT_EQ(reconciled, std::vector<std::string>{"Pod/a"});
}

TEST_P(HarnessTest, ReHandshakeAfterPeerCrashPausesAgain) {
  ControllerHarness parent(env_, mode(), Opts("parent"));
  ServeNoneUpstream(parent);
  ControllerHarness child(env_, mode(), Opts("child", /*pause=*/true));
  DialParent(child, "parent");
  std::vector<std::string> reconciled;
  child.SetReconciler([&](const std::string& key) {
    reconciled.push_back(key);
    return Milliseconds(0);
  });
  if (mode() == Mode::kK8s) return;  // link lifecycle is Kd-only

  parent.Start();
  child.Start();
  engine_.RunFor(Seconds(5));
  ASSERT_TRUE(child.link_ready());

  parent.Crash();
  engine_.RunFor(Seconds(5));  // keepalive notices the silent drop
  ASSERT_FALSE(child.link_ready());
  child.loop().Enqueue("Pod/b");
  engine_.RunFor(Seconds(1));
  EXPECT_TRUE(reconciled.empty());  // paused across the outage

  parent.Restart();
  engine_.RunFor(Seconds(10));
  EXPECT_TRUE(child.link_ready());
  EXPECT_EQ(reconciled, std::vector<std::string>{"Pod/b"});
}

TEST_P(HarnessTest, DeferredReconcilesReplayOnHandshake) {
  ControllerHarness parent(env_, mode(), Opts("parent"));
  ServeNoneUpstream(parent);
  ControllerHarness child(env_, mode(), Opts("child"));
  DialParent(child, "parent");
  std::vector<std::string> reconciled;
  child.SetReconciler([&](const std::string& key) {
    reconciled.push_back(key);
    return Milliseconds(0);
  });

  child.Start();  // link down: the parent is not listening
  child.DeferUntilLinkReady("Pod/a");
  child.DeferUntilLinkReady("Pod/b");
  child.DeferUntilLinkReady("Pod/a");  // deduped while parked
  engine_.RunFor(Seconds(1));
  EXPECT_TRUE(reconciled.empty());

  parent.Start();
  engine_.RunFor(Seconds(5));
  if (mode() == Mode::kKd) {
    EXPECT_EQ(reconciled, (std::vector<std::string>{"Pod/a", "Pod/b"}));
  } else {
    // K8s controllers never park keys; without a link there is no
    // handshake to replay them.
    EXPECT_TRUE(reconciled.empty());
  }
}

TEST_P(HarnessTest, CrashDropsDeferredKeys) {
  ControllerHarness parent(env_, mode(), Opts("parent"));
  ServeNoneUpstream(parent);
  ControllerHarness child(env_, mode(), Opts("child"));
  DialParent(child, "parent");
  std::vector<std::string> reconciled;
  child.SetReconciler([&](const std::string& key) {
    reconciled.push_back(key);
    return Milliseconds(0);
  });

  child.Start();
  child.DeferUntilLinkReady("Pod/a");
  child.Crash();  // deferred intents are session-scoped
  child.Restart();
  parent.Start();
  engine_.RunFor(Seconds(5));
  EXPECT_TRUE(reconciled.empty());
}

TEST_P(HarnessTest, DownstreamFirstUpstreamWaitsForBaseline) {
  ControllerHarness parent(env_, mode(), Opts("parent"));
  ServeNoneUpstream(parent, /*downstream_first=*/true);
  ControllerHarness child(env_, mode(), Opts("child"));
  DialParent(child, "parent");

  parent.Start();
  child.Start();
  engine_.RunFor(Seconds(2));
  // §4.2: the recovering parent must not accept a handshake before its
  // own source of truth is rebuilt.
  EXPECT_FALSE(child.link_ready());
  if (mode() == Mode::kK8s) return;

  parent.SetBaselineSynced(true);
  parent.MaybeStartUpstream();
  engine_.RunFor(Seconds(10));
  EXPECT_TRUE(child.link_ready());
}

// DownstreamsSettled() is tracked incrementally. A seeded walk over
// every transition that can move it — links created, handshakes
// completing, peer crashes and partitions dropping links, exempt flips,
// the baseline flag, the owner's own crash and restart — checks it
// after every engine event against a brute-force scan over
// DownstreamReady/DownstreamExempt.
TEST_P(HarnessTest, SettledGateMatchesBruteForceScan) {
  constexpr std::size_t kPeers = 5;
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    // A fresh simulation per seed: harnesses die at the end of each
    // walk, and their pending events must die with them.
    sim::Engine engine;
    net::Network network(engine);
    apiserver::ApiServer server(engine, cost_);
    apiserver::ControlPlane plane(server);
    MetricsRecorder metrics;
    Env env{engine, network, plane, cost_, metrics};

    ControllerHarness owner(env, mode(), Opts("owner"));
    ServeNoneUpstream(owner, /*downstream_first=*/true);
    std::vector<std::unique_ptr<ControllerHarness>> peers;
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < kPeers; ++i) {
      ids.push_back("peer" + std::to_string(i));
      peers.push_back(
          std::make_unique<ControllerHarness>(env, mode(), Opts(ids.back())));
      ServeNoneUpstream(*peers.back());
      peers.back()->Start();
    }
    ids.push_back("ghost");  // no peer listens there: never ready
    std::vector<bool> partitioned(kPeers, false);

    // The brute-force model: links ensured this owner session (they die
    // with its Crash) and the baseline flag (Start clears it for a
    // downstream-first upstream).
    std::set<std::string> ensured;
    bool baseline = false;
    owner.Start();
    auto brute_force = [&] {
      if (!baseline) return false;
      for (const std::string& id : ensured) {
        if (!owner.DownstreamExempt(id) && !owner.DownstreamReady(id)) {
          return false;
        }
      }
      return true;
    };

    for (int op = 0; op < 400; ++op) {
      const std::size_t which = pick(ids.size());
      const std::string& id = ids[which];
      const std::size_t peer = which % kPeers;
      const std::string peer_address = "kd.test." + ids[peer];
      switch (pick(7)) {
        case 0:
        case 1: {
          if (owner.crashed()) break;
          ControllerHarness::DownstreamSpec spec;
          spec.peer = "kd.test." + id;
          spec.kind_filter = "__none__";
          ensured.insert(id);
          owner.EnsureDownstream(id, std::move(spec));
          break;
        }
        case 2:
          if (peers[peer]->crashed()) {
            peers[peer]->Restart();
          } else {
            peers[peer]->Crash();
          }
          break;
        case 3:
          if (partitioned[peer]) {
            network.Heal("kd.test.owner", peer_address);
          } else {
            network.Partition("kd.test.owner", peer_address);
          }
          partitioned[peer] = !partitioned[peer];
          break;
        case 4:
          if (owner.crashed()) break;
          owner.SetDownstreamExempt(id, pick(2) == 0);
          break;
        case 5:
          if (owner.crashed()) break;
          baseline = pick(3) != 0;
          owner.SetBaselineSynced(baseline);
          owner.MaybeStartUpstream();
          break;
        case 6:
          if (pick(4) != 0) break;  // rarer: the owner's own crash
          if (owner.crashed()) {
            owner.Restart();
            baseline = false;
          } else {
            owner.Crash();
            ensured.clear();
          }
          break;
      }
      ASSERT_EQ(owner.DownstreamsSettled(), brute_force()) << "op " << op;
      const std::size_t steps = 1 + pick(60);
      for (std::size_t i = 0; i < steps && engine.Step(); ++i) {
        ASSERT_EQ(owner.DownstreamsSettled(), brute_force())
            << "op " << op << " step " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, HarnessTest,
                         ::testing::Values(Mode::kK8s, Mode::kKd),
                         [](const ::testing::TestParamInfo<Mode>& param_info) {
                           return std::string(ModeName(param_info.param));
                         });

}  // namespace
}  // namespace kd::runtime
