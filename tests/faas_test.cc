// Tests for the FaaS platform layer: gateway routing/queueing, the
// autoscaling policy, the Dirigent clean-slate backend, and the full
// platform on both cluster-manager modes.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "faas/backend.h"
#include "faas/platform.h"

namespace kd::faas {
namespace {

FunctionSpec Fn(const std::string& name, int concurrency = 1) {
  FunctionSpec spec;
  spec.name = name;
  spec.concurrency = concurrency;
  return spec;
}

// --- Gateway -----------------------------------------------------------

class GatewayTest : public ::testing::Test {
 protected:
  GatewayTest() : gateway_(engine_, /*route_latency=*/0) {}
  sim::Engine engine_;
  Gateway gateway_;
};

TEST_F(GatewayTest, DispatchesToFreeInstance) {
  gateway_.RegisterFunction(Fn("f"));
  gateway_.UpdateEndpoints("f", {"10.0.0.1"});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(10)});
  EXPECT_EQ(gateway_.LoadOf("f").executing, 1);
  engine_.Run();
  ASSERT_EQ(gateway_.records().size(), 1u);
  const RequestRecord& r = gateway_.records()[0];
  EXPECT_EQ(r.SchedulingLatency(), 0);
  EXPECT_EQ(r.E2eLatency(), Milliseconds(10));
  EXPECT_FALSE(r.cold_start);
}

TEST_F(GatewayTest, QueuesWhenNoCapacity) {
  gateway_.RegisterFunction(Fn("f"));
  gateway_.UpdateEndpoints("f", {"a"});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(100)});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(100)});
  EXPECT_EQ(gateway_.LoadOf("f").executing, 1);
  EXPECT_EQ(gateway_.LoadOf("f").queued, 1);
  EXPECT_EQ(gateway_.Demand("f"), 2);
  EXPECT_EQ(gateway_.Queued("f"), 1);
  EXPECT_EQ(gateway_.Executing("f"), 1);
  EXPECT_EQ(gateway_.LoadOf("unknown").queued, 0);
  EXPECT_EQ(gateway_.LoadOf("unknown").executing, 0);
  engine_.Run();
  ASSERT_EQ(gateway_.records().size(), 2u);
  // Second request waited for the first to finish.
  EXPECT_EQ(gateway_.records()[1].SchedulingLatency(), Milliseconds(100));
  EXPECT_TRUE(gateway_.records()[1].cold_start);
  EXPECT_EQ(gateway_.queued_starts(), 1u);
}

TEST_F(GatewayTest, ConcurrencySharesInstance) {
  gateway_.RegisterFunction(Fn("f", /*concurrency=*/2));
  gateway_.UpdateEndpoints("f", {"a"});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(50)});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(50)});
  EXPECT_EQ(gateway_.LoadOf("f").executing, 2);
  EXPECT_EQ(gateway_.LoadOf("f").queued, 0);
}

TEST_F(GatewayTest, NewEndpointDrainsQueue) {
  gateway_.RegisterFunction(Fn("f"));
  gateway_.Invoke({"f", engine_.now(), Milliseconds(10)});
  EXPECT_EQ(gateway_.LoadOf("f").queued, 1);
  engine_.RunFor(Milliseconds(30));  // cold wait
  gateway_.UpdateEndpoints("f", {"a"});
  engine_.Run();
  ASSERT_EQ(gateway_.records().size(), 1u);
  EXPECT_EQ(gateway_.records()[0].SchedulingLatency(), Milliseconds(30));
  EXPECT_TRUE(gateway_.records()[0].cold_start);
}

TEST_F(GatewayTest, RetiredInstanceTakesNoNewWorkButDrains) {
  gateway_.RegisterFunction(Fn("f"));
  gateway_.UpdateEndpoints("f", {"a"});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(100)});
  gateway_.UpdateEndpoints("f", {});  // scaled to zero
  EXPECT_EQ(gateway_.EndpointCount("f"), 0u);
  gateway_.Invoke({"f", engine_.now(), Milliseconds(10)});
  // Not routed to the retired one.
  EXPECT_EQ(gateway_.LoadOf("f").queued, 1);
  engine_.Run();
  // First request completed on the draining instance.
  ASSERT_GE(gateway_.records().size(), 1u);
  EXPECT_EQ(gateway_.records()[0].E2eLatency(), Milliseconds(100));
}

TEST_F(GatewayTest, LeastLoadedRouting) {
  gateway_.RegisterFunction(Fn("f", 4));
  gateway_.UpdateEndpoints("f", {"a", "b"});
  for (int i = 0; i < 4; ++i) {
    gateway_.Invoke({"f", engine_.now(), Seconds(1)});
  }
  EXPECT_EQ(gateway_.LoadOf("f").executing, 4);
  // Spread 2+2 across instances.
  EXPECT_EQ(gateway_.LoadOf("f").queued, 0);
}

TEST_F(GatewayTest, OnQueuedFires) {
  gateway_.RegisterFunction(Fn("f"));
  int fired = 0;
  gateway_.set_on_queued([&](const std::string&) { ++fired; });
  gateway_.Invoke({"f", engine_.now(), Milliseconds(1)});
  EXPECT_EQ(fired, 1);
}

// --- DirigentBackend ------------------------------------------------------

TEST(DirigentBackendTest, ScaleUpDeliversEndpointsFast) {
  sim::Engine engine;
  CostModel cost = CostModel::Default();
  DirigentBackend backend(engine, cost, /*num_nodes=*/4);
  std::vector<std::string> latest;
  backend.SetEndpointSink(
      [&](const std::string&, const std::vector<std::string>& addresses) {
        latest = addresses;
      });
  backend.RegisterFunction(Fn("f"));
  backend.ScaleTo("f", 5);
  engine.Run();
  EXPECT_EQ(latest.size(), 5u);
  // Clean-slate control plane: well under 100 ms for 5 instances.
  EXPECT_LT(engine.now(), Milliseconds(100));
}

TEST(DirigentBackendTest, ScaleDownRemovesEndpoints) {
  sim::Engine engine;
  CostModel cost = CostModel::Default();
  DirigentBackend backend(engine, cost, 4);
  std::vector<std::string> latest;
  backend.SetEndpointSink(
      [&](const std::string&, const std::vector<std::string>& a) {
        latest = a;
      });
  backend.RegisterFunction(Fn("f"));
  backend.ScaleTo("f", 5);
  engine.Run();
  backend.ScaleTo("f", 1);
  engine.Run();
  EXPECT_EQ(latest.size(), 1u);
}

TEST(DirigentBackendTest, CapacityBound) {
  sim::Engine engine;
  CostModel cost = CostModel::Default();
  DirigentBackend backend(engine, cost, /*num_nodes=*/1,
                          /*node_cpu_milli=*/1000);  // 4 pods of 250m
  std::vector<std::string> latest;
  backend.SetEndpointSink(
      [&](const std::string&, const std::vector<std::string>& a) {
        latest = a;
      });
  backend.RegisterFunction(Fn("f"));
  backend.ScaleTo("f", 10);
  engine.Run();
  EXPECT_EQ(latest.size(), 4u);
}

// --- Platform end-to-end ---------------------------------------------------

class PlatformTest : public ::testing::TestWithParam<controllers::Mode> {};

TEST_P(PlatformTest, ColdThenWarmInvocations) {
  sim::Engine engine;
  cluster::ClusterConfig config;
  config.mode = GetParam();
  config.num_nodes = 4;
  config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();

  ClusterBackend backend(cluster);
  Platform platform(engine, backend, PolicyParams::Knative());
  platform.RegisterFunction(Fn("f"));
  platform.Start();
  engine.RunFor(Milliseconds(100));

  // Cold invocation: queues, triggers scale-up, runs.
  platform.Invoke("f", Milliseconds(50));
  engine.RunFor(Seconds(30));
  ASSERT_EQ(platform.gateway().records().size(), 1u);
  const RequestRecord cold = platform.gateway().records()[0];
  EXPECT_TRUE(cold.cold_start);
  EXPECT_GT(cold.SchedulingLatency(), Milliseconds(10));

  // Warm invocation: the instance is up; near-zero scheduling latency.
  platform.Invoke("f", Milliseconds(50));
  engine.RunFor(Seconds(5));
  ASSERT_EQ(platform.gateway().records().size(), 2u);
  const RequestRecord warm = platform.gateway().records()[1];
  EXPECT_FALSE(warm.cold_start);
  EXPECT_LT(warm.SchedulingLatency(), Milliseconds(5));

  // Kd's cold start must beat K8s's by a wide margin; assert mode
  // specific bounds.
  if (GetParam() == controllers::Mode::kKd) {
    // Dominated by the real sandbox cold start (~800 ms), not the
    // control plane.
    EXPECT_LT(cold.SchedulingLatency(), Milliseconds(1500));
  } else {
    // The K8s path stacks API round trips on top of the cold start.
    EXPECT_GT(cold.SchedulingLatency(), Milliseconds(800));
  }
}

TEST_P(PlatformTest, ScaleToZeroAfterIdle) {
  sim::Engine engine;
  cluster::ClusterConfig config;
  config.mode = GetParam();
  config.num_nodes = 2;
  config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();

  ClusterBackend backend(cluster);
  PolicyParams params = PolicyParams::Knative();
  params.scale_down_window = Seconds(5);
  Platform platform(engine, backend, params);
  platform.RegisterFunction(Fn("f"));
  platform.Start();

  platform.Invoke("f", Milliseconds(20));
  engine.RunFor(Seconds(30));
  EXPECT_EQ(platform.gateway().records().size(), 1u);
  // Idle past the window: scaled to zero.
  engine.RunFor(Seconds(60));
  EXPECT_EQ(cluster.TotalReadyPods(), 0u);
  EXPECT_EQ(platform.gateway().EndpointCount("f"), 0u);
}

TEST_P(PlatformTest, BurstScalesOut) {
  sim::Engine engine;
  cluster::ClusterConfig config;
  config.mode = GetParam();
  config.num_nodes = 8;
  config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();

  ClusterBackend backend(cluster);
  Platform platform(engine, backend, PolicyParams::Knative());
  platform.RegisterFunction(Fn("f"));
  platform.Start();
  engine.RunFor(Milliseconds(100));

  // 30 concurrent long requests demand ~30 instances.
  for (int i = 0; i < 30; ++i) platform.Invoke("f", Seconds(20));
  engine.RunFor(Seconds(15));  // within the scale-down window
  EXPECT_GE(cluster.TotalReadyPods(), 25u);
  engine.RunFor(Seconds(105));
  EXPECT_EQ(platform.gateway().records().size(), 30u);
  // And after the demand subsided + hysteresis, capacity was released.
  EXPECT_LT(cluster.TotalReadyPods(), 5u);
}

INSTANTIATE_TEST_SUITE_P(Modes, PlatformTest,
                         ::testing::Values(controllers::Mode::kK8s,
                                           controllers::Mode::kKd),
                         [](const ::testing::TestParamInfo<controllers::Mode>&
                                param_info) {
                           return controllers::ModeName(param_info.param);
                         });

TEST(PlatformDirigentTest, EndToEndOnCleanSlate) {
  sim::Engine engine;
  CostModel cost = CostModel::Default();
  DirigentBackend backend(engine, cost, 8);
  Platform platform(engine, backend, PolicyParams::Dirigent());
  platform.RegisterFunction(Fn("f"));
  platform.Start();

  platform.Invoke("f", Milliseconds(50));
  engine.RunFor(Seconds(5));
  ASSERT_EQ(platform.gateway().records().size(), 1u);
  // Clean-slate cold start: tens of milliseconds.
  EXPECT_LT(platform.gateway().records()[0].SchedulingLatency(),
            Milliseconds(200));
}

TEST(ReportTest, GroupsByFunction) {
  sim::Engine engine;
  Gateway gateway(engine, 0);
  gateway.RegisterFunction(Fn("a"));
  gateway.RegisterFunction(Fn("b", 4));
  gateway.UpdateEndpoints("a", {"x"});
  gateway.UpdateEndpoints("b", {"y"});
  // 'a': two requests back to back (second slowed 2x);
  // 'b': one clean request.
  gateway.Invoke({"a", engine.now(), Milliseconds(100)});
  gateway.Invoke({"a", engine.now(), Milliseconds(100)});
  gateway.Invoke({"b", engine.now(), Milliseconds(100)});
  engine.Run();

  CostModel cost = CostModel::Default();
  DirigentBackend backend(engine, cost, 1);
  // Build the report through a platform-shaped aggregation by reusing
  // the same math here.
  Sample slowdown;
  std::map<std::string, std::pair<double, int>> agg;
  for (const RequestRecord& r : gateway.records()) {
    const Duration requested = r.completed - r.started;
    agg[r.function].first += r.Slowdown(requested);
    agg[r.function].second += 1;
  }
  for (auto& [fn, v] : agg) slowdown.Add(v.first / v.second);
  ASSERT_EQ(slowdown.count(), 2u);
  EXPECT_NEAR(slowdown.Min(), 1.0, 1e-9);   // 'b'
  EXPECT_NEAR(slowdown.Max(), 1.5, 1e-9);   // 'a': (1 + 2) / 2
}

}  // namespace
}  // namespace kd::faas
