// Tests for the API server substrate: rate limiter, CRUD + optimistic
// concurrency, watch pub-sub, admission control, and cost accounting.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apiserver/apiserver.h"
#include "apiserver/client.h"
#include "apiserver/shard.h"
#include "model/objects.h"

namespace kd::apiserver {
namespace {

using model::ApiObject;
using model::kKindDeployment;
using model::kKindPod;
using model::MakeDeployment;
using model::MinimalPodTemplateSpec;

// --- TokenBucket -------------------------------------------------------

TEST(TokenBucketTest, BurstPassesImmediately) {
  sim::Engine engine;
  TokenBucket bucket(engine, 10.0, 5.0);
  int fired = 0;
  for (int i = 0; i < 5; ++i) bucket.Acquire([&] { ++fired; });
  EXPECT_EQ(fired, 5);  // all within burst, same instant
  EXPECT_EQ(engine.now(), 0);
}

TEST(TokenBucketTest, BeyondBurstWaitsForRefill) {
  sim::Engine engine;
  TokenBucket bucket(engine, 10.0, 1.0);  // 1 token, 10/s refill
  std::vector<Time> fire_times;
  for (int i = 0; i < 4; ++i) {
    bucket.Acquire([&] { fire_times.push_back(engine.now()); });
  }
  engine.Run();
  ASSERT_EQ(fire_times.size(), 4u);
  EXPECT_EQ(fire_times[0], 0);
  // Subsequent fires ~100ms apart (1/qps).
  for (int i = 1; i < 4; ++i) {
    EXPECT_NEAR(ToMillis(fire_times[i] - fire_times[i - 1]), 100.0, 1.0);
  }
}

TEST(TokenBucketTest, FifoOrder) {
  sim::Engine engine;
  TokenBucket bucket(engine, 1000.0, 1.0);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    bucket.Acquire([&order, i] { order.push_back(i); });
  }
  engine.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(TokenBucketTest, IdleRefillRestoresBurst) {
  sim::Engine engine;
  TokenBucket bucket(engine, 10.0, 5.0);
  for (int i = 0; i < 5; ++i) bucket.Acquire([] {});
  engine.Run();
  engine.RunUntil(engine.now() + Seconds(10));
  EXPECT_NEAR(bucket.available(), 5.0, 1e-6);  // capped at burst
}

TEST(TokenBucketTest, TracksWaitTime) {
  sim::Engine engine;
  TokenBucket bucket(engine, 10.0, 1.0);
  bucket.Acquire([] {});
  bucket.Acquire([] {});
  engine.Run();
  EXPECT_GT(bucket.total_wait(), Milliseconds(90));
  EXPECT_EQ(bucket.total_acquired(), 2u);
}

// --- ApiServer fixture ---------------------------------------------------

class ApiServerTest : public ::testing::Test {
 protected:
  ApiServerTest()
      : server_(engine_, CostModel::Default()),
        client_(engine_, server_, "test-client", 1e6, 1e6) {}

  ApiObject NewDeployment(const std::string& name, int replicas) {
    return MakeDeployment(name, replicas, MinimalPodTemplateSpec(name));
  }

  StatusOr<ApiObject> CreateSync(ApiObject obj) {
    StatusOr<ApiObject> result = InternalError("callback never ran");
    client_.Create(std::move(obj),
                   [&](StatusOr<ApiObject> r) { result = std::move(r); });
    engine_.Run();
    return result;
  }

  StatusOr<ApiObject> UpdateSync(ApiObject obj) {
    StatusOr<ApiObject> result = InternalError("callback never ran");
    client_.Update(std::move(obj),
                   [&](StatusOr<ApiObject> r) { result = std::move(r); });
    engine_.Run();
    return result;
  }

  sim::Engine engine_;
  ApiServer server_;
  ApiClient client_;
};

TEST_F(ApiServerTest, CreateAssignsResourceVersion) {
  auto created = CreateSync(NewDeployment("fn", 1));
  ASSERT_TRUE(created.ok());
  EXPECT_GT(created->resource_version, 0u);
  EXPECT_NE(server_.Peek(kKindDeployment, "fn"), nullptr);
}

TEST_F(ApiServerTest, CreateDuplicateFails) {
  ASSERT_TRUE(CreateSync(NewDeployment("fn", 1)).ok());
  auto dup = CreateSync(NewDeployment("fn", 2));
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(ApiServerTest, UpdateWithCurrentVersionSucceeds) {
  auto created = CreateSync(NewDeployment("fn", 1));
  ASSERT_TRUE(created.ok());
  ApiObject obj = *created;
  model::SetReplicas(obj, 5);
  auto updated = UpdateSync(obj);
  ASSERT_TRUE(updated.ok());
  EXPECT_GT(updated->resource_version, created->resource_version);
  EXPECT_EQ(model::GetReplicas(*server_.Peek(kKindDeployment, "fn")), 5);
}

TEST_F(ApiServerTest, UpdateWithStaleVersionConflicts) {
  auto created = CreateSync(NewDeployment("fn", 1));
  ASSERT_TRUE(created.ok());
  ApiObject fresh = *created;
  model::SetReplicas(fresh, 2);
  ASSERT_TRUE(UpdateSync(fresh).ok());
  // Second update still using the original (now stale) version.
  ApiObject stale = *created;
  model::SetReplicas(stale, 9);
  auto conflict = UpdateSync(stale);
  EXPECT_EQ(conflict.status().code(), StatusCode::kConflict);
  EXPECT_EQ(model::GetReplicas(*server_.Peek(kKindDeployment, "fn")), 2);
}

TEST_F(ApiServerTest, UpdateMissingObjectNotFound) {
  auto r = UpdateSync(NewDeployment("ghost", 1));
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ApiServerTest, DeleteRemovesObject) {
  ASSERT_TRUE(CreateSync(NewDeployment("fn", 1)).ok());
  Status status = InternalError("never");
  client_.Delete(kKindDeployment, "fn", [&](Status s) { status = s; });
  engine_.Run();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(server_.Peek(kKindDeployment, "fn"), nullptr);
}

TEST_F(ApiServerTest, DeleteMissingNotFound) {
  Status status = OkStatus();
  client_.Delete(kKindDeployment, "ghost", [&](Status s) { status = s; });
  engine_.Run();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ApiServerTest, GetReturnsObject) {
  ASSERT_TRUE(CreateSync(NewDeployment("fn", 3)).ok());
  StatusOr<ApiObject> got = InternalError("never");
  client_.Get(kKindDeployment, "fn",
              [&](StatusOr<ApiObject> r) { got = std::move(r); });
  engine_.Run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(model::GetReplicas(*got), 3);
}

TEST_F(ApiServerTest, ListFiltersByKind) {
  ASSERT_TRUE(CreateSync(NewDeployment("a", 1)).ok());
  ASSERT_TRUE(CreateSync(NewDeployment("b", 1)).ok());
  ApiObject node = model::MakeNode("n1", 1000, 1024);
  ASSERT_TRUE(CreateSync(node).ok());
  StatusOr<std::vector<ApiObject>> listed = InternalError("never");
  client_.List(kKindDeployment,
               [&](StatusOr<std::vector<ApiObject>> r) { listed = std::move(r); });
  engine_.Run();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 2u);
}

TEST_F(ApiServerTest, WatchReceivesLifecycleEvents) {
  std::vector<WatchEventType> events;
  server_.Watch(kKindDeployment,
                [&](const WatchEvent& e) { events.push_back(e.type); });
  auto created = CreateSync(NewDeployment("fn", 1));
  ASSERT_TRUE(created.ok());
  ApiObject obj = *created;
  model::SetReplicas(obj, 2);
  ASSERT_TRUE(UpdateSync(obj).ok());
  client_.Delete(kKindDeployment, "fn", [](Status) {});
  engine_.Run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], WatchEventType::kAdded);
  EXPECT_EQ(events[1], WatchEventType::kModified);
  EXPECT_EQ(events[2], WatchEventType::kDeleted);
}

TEST_F(ApiServerTest, WatchFiltersKind) {
  int pod_events = 0;
  server_.Watch(kKindPod, [&](const WatchEvent&) { ++pod_events; });
  ASSERT_TRUE(CreateSync(NewDeployment("fn", 1)).ok());
  engine_.Run();
  EXPECT_EQ(pod_events, 0);
}

TEST_F(ApiServerTest, UnwatchStopsDelivery) {
  int events = 0;
  WatchId id = server_.Watch(kKindDeployment,
                             [&](const WatchEvent&) { ++events; });
  ASSERT_TRUE(CreateSync(NewDeployment("a", 1)).ok());
  EXPECT_EQ(events, 1);
  server_.Unwatch(id);
  ASSERT_TRUE(CreateSync(NewDeployment("b", 1)).ok());
  EXPECT_EQ(events, 1);
}

// Watchers live in per-kind buckets. A write must still reach the
// watchers of its kind in registration order — filtered or not, with
// other kinds registered in between, across Unwatch — and a crash must
// break every stream in global registration order.
TEST_F(ApiServerTest, KindBucketsKeepDeliveryAndBreakOrder) {
  std::vector<std::string> log;
  auto record = [&log](const std::string& who) {
    return [&log, who](const WatchEvent& e) {
      log.push_back(who + ":" + e.object.name);
    };
  };
  auto broke = [&log](const std::string& who) {
    return [&log, who] { log.push_back("break:" + who); };
  };
  auto named = [](const std::string& name) {
    return [name](const ApiObject& obj) { return obj.name == name; };
  };
  // One write, delivered: the log of its deliveries in firing order.
  auto write = [&](ApiObject obj) {
    log.clear();
    server_.SeedObject(std::move(obj));
    engine_.Run();
    return log;
  };
  auto pod = [](const std::string& name) {
    ApiObject obj;
    obj.kind = kKindPod;
    obj.name = name;
    return obj;
  };
  using Log = std::vector<std::string>;

  const WatchId p1 =
      server_.Watch(kKindPod, nullptr, record("p1"), broke("p1"));
  server_.Watch(kKindDeployment, nullptr, record("d1"), broke("d1"));
  server_.Watch(kKindPod, named("b"), record("p2"), broke("p2"));
  server_.Watch(kKindDeployment, named("x"), record("d2"), broke("d2"));
  server_.Watch(kKindPod, nullptr, record("p3"));  // no break handler
  const WatchId n1 =
      server_.Watch(model::kKindNode, nullptr, record("n1"), broke("n1"));

  EXPECT_EQ(write(pod("a")), (Log{"p1:a", "p3:a"}));
  EXPECT_EQ(write(NewDeployment("x", 1)), (Log{"d1:x", "d2:x"}));
  EXPECT_EQ(write(pod("b")), (Log{"p1:b", "p2:b", "p3:b"}));
  EXPECT_EQ(write(NewDeployment("y", 1)), (Log{"d1:y"}));

  // Mid-stream Unwatch: a delivery already scheduled still lands; the
  // next write skips the watcher. Emptying a bucket (n1) and unknown
  // ids are harmless.
  log.clear();
  server_.SeedObject(pod("b"));
  server_.Unwatch(p1);
  server_.Unwatch(n1);
  server_.Unwatch(9999);
  engine_.Run();
  EXPECT_EQ(log, (Log{"p1:b", "p2:b", "p3:b"}));
  EXPECT_EQ(write(pod("b")), (Log{"p2:b", "p3:b"}));
  EXPECT_EQ(write(NewDeployment("x", 2)), (Log{"d1:x", "d2:x"}));

  // A late registration goes last in its bucket and in the break order.
  server_.Watch(kKindPod, nullptr, record("p4"), broke("p4"));
  EXPECT_EQ(write(pod("b")), (Log{"p2:b", "p3:b", "p4:b"}));
  log.clear();
  server_.Crash();
  server_.SeedObject(pod("a"));  // store write while down: no watchers
  engine_.Run();
  EXPECT_EQ(log, (Log{"break:d1", "break:p2", "break:d2", "break:p4"}));
}

TEST_F(ApiServerTest, AdmissionHookCanReject) {
  server_.AddAdmissionHook(
      [](AdmissionOp op, const ApiObject*, const ApiObject* incoming) {
        if (op == AdmissionOp::kUpdate && incoming &&
            model::GetReplicas(*incoming) > 10) {
          return PermissionDeniedError("replicas guarded");
        }
        return OkStatus();
      });
  auto created = CreateSync(NewDeployment("fn", 1));
  ASSERT_TRUE(created.ok());
  ApiObject obj = *created;
  model::SetReplicas(obj, 100);
  auto rejected = UpdateSync(obj);
  EXPECT_EQ(rejected.status().code(), StatusCode::kPermissionDenied);
  // Store unchanged; version not bumped.
  EXPECT_EQ(model::GetReplicas(*server_.Peek(kKindDeployment, "fn")), 1);
}

TEST_F(ApiServerTest, RejectedWriteEmitsNoWatchEvent) {
  server_.AddAdmissionHook(
      [](AdmissionOp op, const ApiObject*, const ApiObject*) {
        return op == AdmissionOp::kCreate
                   ? PermissionDeniedError("no creates")
                   : OkStatus();
      });
  int events = 0;
  server_.Watch(kKindDeployment, [&](const WatchEvent&) { ++events; });
  auto r = CreateSync(NewDeployment("fn", 1));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(events, 0);
}

TEST_F(ApiServerTest, ApiCallTakesMilliseconds) {
  // The paper reports 10-35 ms for a standard API call under load and
  // a handful of milliseconds unloaded; an isolated write should land
  // in the low-millisecond band (etcd fsync dominates).
  const Time start = engine_.now();
  auto created = CreateSync(NewDeployment("fn", 1));
  ASSERT_TRUE(created.ok());
  const Duration latency = engine_.now() - start;
  EXPECT_GT(latency, Milliseconds(2));
  EXPECT_LT(latency, Milliseconds(35));
}

TEST_F(ApiServerTest, SaturationQueuesRequests) {
  // Blast more concurrent writes than the server has workers; the
  // later responses must be pushed out by queueing.
  const int n = 200;
  int completed = 0;
  Time last_done = 0;
  for (int i = 0; i < n; ++i) {
    client_.Create(NewDeployment("fn-" + std::to_string(i), 1),
                   [&](StatusOr<ApiObject> r) {
                     ASSERT_TRUE(r.ok());
                     ++completed;
                     last_done = engine_.now();
                   });
  }
  engine_.Run();
  EXPECT_EQ(completed, n);
  const auto& sample = server_.metrics().GetSample("api_call_latency");
  EXPECT_GT(sample.Max(), 2 * sample.Min());
  EXPECT_GT(last_done, Milliseconds(10));
}

TEST_F(ApiServerTest, MetricsCountReadsAndWrites) {
  ASSERT_TRUE(CreateSync(NewDeployment("fn", 1)).ok());
  StatusOr<ApiObject> got = InternalError("never");
  client_.Get(kKindDeployment, "fn",
              [&](StatusOr<ApiObject> r) { got = std::move(r); });
  engine_.Run();
  EXPECT_EQ(server_.metrics().GetCount("api_writes"), 1);
  EXPECT_EQ(server_.metrics().GetCount("api_reads"), 1);
  EXPECT_GT(server_.metrics().GetCount("api_bytes_in"), 0);
}

TEST_F(ApiServerTest, SeedObjectBypassesCosts) {
  server_.SeedObject(NewDeployment("fn", 7));
  const ApiObject* obj = server_.Peek(kKindDeployment, "fn");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(model::GetReplicas(*obj), 7);
  EXPECT_EQ(engine_.now(), 0);  // no simulated time passed
}

// --- kind-range scans ----------------------------------------------------

// A store holding all six kinds, thousands of Nodes, and names chosen
// to sort right next to other kinds' keys and to the "Kind/" range
// bounds ('.' < '/' < '0').
std::vector<ApiObject> MixedStore() {
  const std::vector<std::string> edge_names = {
      "", "-", ".", "/", "0", "Node", "Pod", "Pod/", "ReplicaSet", "Service",
      "a", "zzz", "~"};
  std::vector<ApiObject> objects;
  for (int i = 0; i < 3000; ++i) {
    objects.push_back(model::MakeNode("node-" + std::to_string(i),
                                      1000 + i % 7, 1024));
  }
  for (const std::string& name : edge_names) {
    objects.push_back(model::MakeNode(name, 1000, 1024));
    objects.push_back(MakeDeployment(name, 1, MinimalPodTemplateSpec(name)));
    objects.push_back(model::MakeReplicaSet(name, name, 1, 1,
                                            MinimalPodTemplateSpec(name)));
    objects.push_back(model::MakeService(name));
    objects.push_back(model::MakeEndpoints(name, {"10.0.0.1"}));
    ApiObject pod;
    pod.kind = kKindPod;
    pod.name = name;
    model::SetPodPhase(pod, model::PodPhase::kPending);
    objects.push_back(std::move(pod));
  }
  for (int i = 0; i < 40; ++i) {
    ApiObject pod;
    pod.kind = kKindPod;
    pod.name = "pod-" + std::to_string(i);
    objects.push_back(std::move(pod));
  }
  return objects;
}

const std::vector<std::string>& AllKinds() {
  static const std::vector<std::string> kinds = {
      model::kKindDeployment, model::kKindReplicaSet, model::kKindPod,
      model::kKindNode,       model::kKindEndpoints,  model::kKindService};
  return kinds;
}

// key -> object, for every object seeded into one store.
using Seeded = std::map<std::string, ApiObject>;

// Brute force: a whole-store filter on obj.kind, in key order, read
// back by point lookup (so it sees the versions the server assigned).
template <typename Store>
std::vector<const ApiObject*> BruteForceKind(const Store& store,
                                             const Seeded& seeded,
                                             const std::string& kind) {
  std::vector<const ApiObject*> out;
  for (const auto& [key, obj] : seeded) {
    if (obj.kind != kind) continue;
    const ApiObject* stored = store.Peek(obj.kind, obj.name);
    EXPECT_NE(stored, nullptr) << key;
    if (stored != nullptr) out.push_back(stored);
  }
  return out;
}

// Asserts List (objects, order, revision, charged response bytes),
// PeekAll and VersionMap of every kind on `server` against the brute
// force over `seeded`, the objects seeded into this server.
void ExpectKindRangesMatch(sim::Engine& engine, ApiServer& server,
                           const Seeded& seeded) {
  for (const std::string& kind : AllKinds()) {
    SCOPED_TRACE(kind);
    const std::vector<const ApiObject*> expected =
        BruteForceKind(server, seeded, kind);
    std::size_t expected_bytes = 64;
    std::map<std::string, std::uint64_t> expected_versions;
    for (const ApiObject* obj : expected) {
      expected_bytes += obj->SerializedSize();
      expected_versions.emplace(obj->Key(), obj->resource_version);
    }

    EXPECT_EQ(server.PeekAll(kind), expected);
    EXPECT_EQ(server.VersionMap(kind), expected_versions);

    const std::int64_t bytes_before =
        server.metrics().GetCount("api_bytes_out");
    StatusOr<std::vector<ApiObject>> listed = InternalError("never");
    std::uint64_t at_revision = 0;
    server.HandleListAt(kind, [&](StatusOr<std::vector<ApiObject>> r,
                                  std::uint64_t revision) {
      listed = std::move(r);
      at_revision = revision;
    });
    engine.Run();
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(at_revision, server.revision());
    EXPECT_EQ(server.metrics().GetCount("api_bytes_out") - bytes_before,
              static_cast<std::int64_t>(expected_bytes));
    ASSERT_EQ(listed->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*listed)[i].Key(), expected[i]->Key());
      EXPECT_EQ((*listed)[i].resource_version, expected[i]->resource_version);
    }
  }
}

TEST_F(ApiServerTest, ListScansOnlyItsKindRange) {
  Seeded seeded;
  for (ApiObject& obj : MixedStore()) {
    seeded.emplace(obj.Key(), obj);
    server_.SeedObject(std::move(obj));
  }
  ASSERT_EQ(server_.object_count(), seeded.size());
  ExpectKindRangesMatch(engine_, server_, seeded);

  // The same through the control plane: each shard's scans against
  // the keys routed to it, and the merged peeks against all of them.
  for (int num_shards : {1, 4}) {
    SCOPED_TRACE(num_shards);
    sim::Engine engine;
    ControlPlane plane(engine, CostModel::Default(), num_shards);
    std::vector<Seeded> routed(static_cast<std::size_t>(num_shards));
    for (ApiObject& obj : MixedStore()) {
      const int shard = plane.router().ShardForKey(obj.Key());
      routed[static_cast<std::size_t>(shard)].emplace(obj.Key(), obj);
      plane.SeedObject(std::move(obj));
    }
    for (int s = 0; s < num_shards; ++s) {
      ExpectKindRangesMatch(engine, plane.shard(s),
                            routed[static_cast<std::size_t>(s)]);
    }
    for (const std::string& kind : AllKinds()) {
      std::map<std::string, std::uint64_t> expected_versions;
      for (const ApiObject* obj : BruteForceKind(plane, seeded, kind)) {
        expected_versions.emplace(obj->Key(), obj->resource_version);
      }
      EXPECT_EQ(plane.PeekAll(kind), BruteForceKind(plane, seeded, kind))
          << kind;
      EXPECT_EQ(plane.VersionMap(kind), expected_versions) << kind;
    }
  }
}

// --- client rate limiting ------------------------------------------------

TEST(ApiClientRateLimitTest, LimiterThrottlesBeyondBurst) {
  sim::Engine engine;
  ApiServer server(engine, CostModel::Default());
  // 10 QPS, burst 5: 50 creates should take roughly 4.5 s.
  ApiClient slow(engine, server, "slow", 10.0, 5.0);
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    slow.Create(
        MakeDeployment("fn-" + std::to_string(i), 1,
                       MinimalPodTemplateSpec("fn")),
        [&](StatusOr<ApiObject> r) {
          ASSERT_TRUE(r.ok());
          ++completed;
        });
  }
  engine.Run();
  EXPECT_EQ(completed, 50);
  EXPECT_GT(engine.now(), Seconds(4));
  EXPECT_LT(engine.now(), Seconds(6));
}

TEST(ApiClientRateLimitTest, LargeObjectsCostMoreThanSmall) {
  sim::Engine engine;
  ApiServer server(engine, CostModel::Default());
  ApiClient client(engine, server, "c", 1e6, 1e6);

  Time small_done = 0, large_done = 0;
  ApiObject small = MakeDeployment("small", 1, MinimalPodTemplateSpec("s"));
  client.Create(small, [&](StatusOr<ApiObject>) { small_done = engine.now(); });
  engine.Run();
  const Duration small_latency = small_done;

  ApiObject large =
      MakeDeployment("large", 1, model::RealisticPodTemplateSpec("l"));
  const Time t0 = engine.now();
  client.Create(large, [&](StatusOr<ApiObject>) { large_done = engine.now(); });
  engine.Run();
  EXPECT_GT(large_done - t0, small_latency);
}

}  // namespace
}  // namespace kd::apiserver
