// Tests for the minimal message format (§3.2): encoding round trips,
// wire sizes, batching, and dynamic materialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "kubedirect/link.h"
#include "kubedirect/materialize.h"
#include "kubedirect/message.h"
#include "model/objects.h"
#include "net/network.h"
#include "runtime/cache.h"
#include "sim/engine.h"

namespace kd::kubedirect {
namespace {

using model::ApiObject;
using model::MakePodFromTemplate;
using model::MakeReplicaSet;
using model::RealisticPodTemplateSpec;

ApiObject Rs(const std::string& name, int replicas = 1) {
  return MakeReplicaSet(name, "fn", 1, replicas,
                        RealisticPodTemplateSpec("fn"));
}

TEST(KdMessageTest, UpsertRoundTrip) {
  KdMessage msg;
  msg.obj_key = "Pod/p1";
  msg.attrs.emplace("spec.nodeName", KdValue::Literal("worker1"));
  msg.attrs.emplace("spec",
                    KdValue::Pointer("ReplicaSet/rs1", "spec.template.spec"));
  WireMessage wire;
  wire.type = WireMessage::Type::kUpsert;
  wire.message = msg;
  auto parsed = WireMessage::Parse(wire.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, WireMessage::Type::kUpsert);
  EXPECT_EQ(parsed->message, msg);
}

TEST(KdMessageTest, AllScalarTypesRoundTrip) {
  for (auto type :
       {WireMessage::Type::kRemove, WireMessage::Type::kTombstone,
        WireMessage::Type::kAck}) {
    WireMessage wire;
    wire.type = type;
    wire.key = "Pod/p9";
    auto parsed = WireMessage::Parse(wire.Serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->type, type);
    EXPECT_EQ(parsed->key, "Pod/p9");
  }
}

TEST(KdMessageTest, StateVersionsRoundTrip) {
  WireMessage wire;
  wire.type = WireMessage::Type::kStateVersions;
  wire.versions["Pod/a"] = 0xDEADBEEFCAFEF00DULL;
  wire.versions["Pod/b"] = 42;
  auto parsed = WireMessage::Parse(wire.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->versions, wire.versions);
}

TEST(KdMessageTest, StateRequestAndSnapshotRoundTrip) {
  WireMessage request;
  request.type = WireMessage::Type::kStateRequest;
  request.keys = {"Pod/a", "Pod/b"};
  auto parsed_request = WireMessage::Parse(request.Serialize());
  ASSERT_TRUE(parsed_request.ok());
  EXPECT_EQ(parsed_request->keys, request.keys);

  WireMessage snapshot;
  snapshot.type = WireMessage::Type::kStateSnapshot;
  snapshot.objects.push_back(Rs("rs1"));
  auto parsed_snapshot = WireMessage::Parse(snapshot.Serialize());
  ASSERT_TRUE(parsed_snapshot.ok());
  ASSERT_EQ(parsed_snapshot->objects.size(), 1u);
  EXPECT_EQ(parsed_snapshot->objects[0], snapshot.objects[0]);
}

TEST(KdMessageTest, ParseRejectsGarbage) {
  EXPECT_FALSE(WireMessage::Parse("nonsense").ok());
  EXPECT_FALSE(WireMessage::Parse("{\"t\":\"zz\"}").ok());
  EXPECT_FALSE(WireMessage::Parse("{\"t\":\"u\",\"m\":{\"a\":1}}").ok());
}

TEST(KdMessageTest, BatchRoundTrip) {
  std::vector<WireMessage> batch;
  for (int i = 0; i < 5; ++i) {
    WireMessage wire;
    wire.type = WireMessage::Type::kTombstone;
    wire.key = "Pod/p" + std::to_string(i);
    batch.push_back(wire);
  }
  auto parsed = ParseBatch(SerializeBatch(batch));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 5u);
  EXPECT_EQ((*parsed)[3].key, "Pod/p3");
}

// The headline size claim: a pod-creation message is two orders of
// magnitude smaller than the full serialized pod (~100 B vs ~17 KB).
TEST(KdMessageTest, PodCreateMessageIsTiny) {
  ApiObject rs = Rs("fn-v1");
  ApiObject pod = MakePodFromTemplate("fn-v1-0", rs);
  KdMessage msg = PodCreateMessage(pod, rs.Key());
  WireMessage wire;
  wire.type = WireMessage::Type::kUpsert;
  wire.message = msg;
  const std::size_t kd_size = wire.SerializedSize();
  const std::size_t full_size = pod.SerializedSize();
  EXPECT_LT(kd_size, 400u);
  EXPECT_GT(full_size, 10'000u);
  EXPECT_GT(full_size / kd_size, 30u);
}

TEST(KdMessageTest, DiffMessageCarriesOnlyChanges) {
  ApiObject rs = Rs("fn-v1");
  ApiObject pod = MakePodFromTemplate("p", rs);
  ApiObject scheduled = pod;
  model::SetNodeName(scheduled, "worker7");
  KdMessage msg = DiffMessage(pod, scheduled);
  ASSERT_EQ(msg.attrs.size(), 1u);
  EXPECT_TRUE(msg.attrs.count("spec.nodeName"));
  EXPECT_EQ(msg.attrs.at("spec.nodeName").literal().as_string(), "worker7");
}

TEST(KdMessageTest, FullObjectMessageMatchesObjectSize) {
  ApiObject rs = Rs("fn-v1");
  ApiObject pod = MakePodFromTemplate("p", rs);
  WireMessage wire;
  wire.type = WireMessage::Type::kUpsert;
  wire.message = FullObjectMessage(pod);
  // Naive full-object passing (Fig. 14 baseline) is the same order of
  // magnitude as the API object itself.
  EXPECT_GT(wire.SerializedSize(), pod.SerializedSize() / 2);
}

// --- Wire sizes and structured delivery ---------------------------------

// Strings that exercise every escape the codec emits, plus bytes it
// passes through raw.
const std::vector<std::string>& AwkwardStrings() {
  static const std::vector<std::string> kStrings = {
      "",
      "plain",
      "quo\"te",
      "back\\slash",
      "nl\ntab\tcr\r",
      std::string("ctl\x01\x1f") + std::string(1, '\0') + "nul",
      "del\x7f utf8 \xc3\xa9",
      "\"\\\"\\",
  };
  return kStrings;
}

model::Value AwkwardValue() {
  model::Value v = model::Value::MakeObject();
  v["empty_obj"] = model::Value::MakeObject();
  v["empty_arr"] = model::Value::MakeArray();
  v["null"] = model::Value();
  v["t"] = true;
  v["f"] = false;
  v["min"] = std::numeric_limits<std::int64_t>::min();
  v["max"] = std::numeric_limits<std::int64_t>::max();
  v["neg"] = std::int64_t{-42};
  v["zero"] = 0;
  model::Value doubles = model::Value::MakeArray();
  for (double d : {5.0, -0.0, 0.1, -2.5, 1e300, 1e-7, 1e17, 123456789.0}) {
    doubles.push_back(d);
  }
  v["doubles"] = std::move(doubles);
  model::Value strings = model::Value::MakeArray();
  for (const std::string& s : AwkwardStrings()) strings.push_back(s);
  v["strings"] = std::move(strings);
  for (const std::string& s : AwkwardStrings()) v["key:" + s]["nested"] = s;
  return v;
}

// One message of every type, each carrying awkward content — and,
// where a type ignores a field, junk in that field.
std::vector<WireMessage> EveryTypeBatch() {
  ApiObject rs = Rs("fn-v1");
  ApiObject pod = MakePodFromTemplate("fn-v1-0", rs);
  pod.spec["awkward"] = AwkwardValue();

  std::vector<WireMessage> batch;
  WireMessage upsert;
  upsert.type = WireMessage::Type::kUpsert;
  upsert.message = PodCreateMessage(pod, rs.Key());
  upsert.message.attrs.emplace("spec.nodeName", KdValue::Literal("w\"1"));
  upsert.message.attrs.emplace(
      "spec.weird", KdValue::Pointer("Rs/a#b\"c", "spec.x#y"));
  upsert.key = "ignored by upserts";
  batch.push_back(upsert);

  WireMessage soft;
  soft.type = WireMessage::Type::kSoftInvalidate;
  soft.message.obj_key = "Pod/\\odd\n";
  soft.message.attrs.emplace("status", KdValue::Literal(AwkwardValue()));
  soft.versions["ignored"] = 1;
  batch.push_back(soft);

  WireMessage empty_upsert;  // no attrs at all
  empty_upsert.type = WireMessage::Type::kUpsert;
  empty_upsert.message.obj_key = "Pod/empty";
  batch.push_back(empty_upsert);

  for (auto type : {WireMessage::Type::kRemove, WireMessage::Type::kTombstone,
                    WireMessage::Type::kAck}) {
    for (const std::string& key : AwkwardStrings()) {
      WireMessage m;
      m.type = type;
      m.key = key;
      m.keys = {"ignored"};
      batch.push_back(m);
    }
  }

  WireMessage versions;
  versions.type = WireMessage::Type::kStateVersions;
  versions.versions["Pod/big"] = 0xDEADBEEFCAFEF00DULL;  // > INT64_MAX
  versions.versions["Pod/max"] = std::numeric_limits<std::uint64_t>::max();
  versions.versions["Pod/zero"] = 0;
  versions.versions["Pod/q\"\\"] = 7;
  batch.push_back(versions);
  WireMessage no_versions;
  no_versions.type = WireMessage::Type::kStateVersions;
  batch.push_back(no_versions);

  WireMessage request;
  request.type = WireMessage::Type::kStateRequest;
  request.keys = AwkwardStrings();
  batch.push_back(request);
  WireMessage no_keys;
  no_keys.type = WireMessage::Type::kStateRequest;
  batch.push_back(no_keys);

  WireMessage snapshot;
  snapshot.type = WireMessage::Type::kStateSnapshot;
  snapshot.objects = {rs, pod};
  snapshot.objects[1].name = "na\"me\\";
  snapshot.objects[1].resource_version = 0xFFFFFFFFFFFFFFF0ULL;
  snapshot.message.obj_key = "ignored by snapshots";
  batch.push_back(snapshot);
  WireMessage no_objects;
  no_objects.type = WireMessage::Type::kStateSnapshot;
  batch.push_back(no_objects);
  return batch;
}

std::size_t QuoteAndBackslashCount(const std::string& text) {
  std::size_t n = 0;
  for (char c : text) n += (c == '"' || c == '\\') ? 1 : 0;
  return n;
}

TEST(WireSizeTest, ValueEscapeCountMatchesSerialization) {
  const model::Value v = AwkwardValue();
  EXPECT_EQ(v.SerializedEscapeCount(), QuoteAndBackslashCount(v.Serialize()));
  for (const auto& [key, child] : v.object()) {
    EXPECT_EQ(child.SerializedEscapeCount(),
              QuoteAndBackslashCount(child.Serialize()))
        << key;
  }
  ApiObject pod = MakePodFromTemplate("p", Rs("fn-v1"));
  pod.metadata["labels"]["x"] = "a\"b";
  EXPECT_EQ(pod.SerializedEscapeCount(),
            QuoteAndBackslashCount(pod.Serialize()));
  // Mutation invalidates the memoized count along the written path.
  model::Value w = v;
  w["strings"].push_back("\"\"");
  EXPECT_EQ(w.SerializedEscapeCount(), QuoteAndBackslashCount(w.Serialize()));
  EXPECT_EQ(v.SerializedEscapeCount(), QuoteAndBackslashCount(v.Serialize()));
}

TEST(WireSizeTest, MessageSizeMatchesSerializeForEveryType) {
  std::set<WireMessage::Type> types;
  for (const WireMessage& m : EveryTypeBatch()) {
    types.insert(m.type);
    EXPECT_EQ(m.SerializedSize(), m.Serialize().size())
        << WireMessageTypeName(m.type) << ": " << m.Serialize();
  }
  EXPECT_EQ(types.size(), 8u);
}

TEST(WireSizeTest, BatchSizeMatchesSerializeBatch) {
  const std::vector<WireMessage> all = EveryTypeBatch();
  EXPECT_EQ(SerializedBatchSize({}), SerializeBatch({}).size());
  for (const WireMessage& m : all) {
    EXPECT_EQ(SerializedBatchSize({m}), SerializeBatch({m}).size())
        << WireMessageTypeName(m.type);
  }
  EXPECT_EQ(SerializedBatchSize(all), SerializeBatch(all).size());
  // Full objects (the Fig. 14 ablation's message) in a batch.
  ApiObject pod = MakePodFromTemplate("fn-v1-3", Rs("fn-v1"));
  WireMessage full;
  full.type = WireMessage::Type::kUpsert;
  full.message = FullObjectMessage(pod);
  const std::vector<WireMessage> fulls = {full, full, full};
  EXPECT_EQ(SerializedBatchSize(fulls), SerializeBatch(fulls).size());
}

// Renders a value with its types, so that int 5 and double 5.0 (equal
// under Value::operator==) compare unequal here.
std::string Typed(const model::Value& v) {
  switch (v.type()) {
    case model::Value::Type::kInt: return "i" + v.Serialize();
    case model::Value::Type::kDouble: return "d" + v.Serialize();
    case model::Value::Type::kArray: {
      std::string out = "[";
      for (const model::Value& e : v.array()) out += Typed(e) + ",";
      return out + "]";
    }
    case model::Value::Type::kObject: {
      std::string out = "{";
      for (const auto& [k, e] : v.object()) out += k + ":" + Typed(e) + ",";
      return out + "}";
    }
    default: return v.Serialize();
  }
}

std::string Typed(const WireMessage& m) {
  std::string out = std::string(WireMessageTypeName(m.type)) + "|" +
                    m.message.obj_key + "|";
  for (const auto& [path, value] : m.message.attrs) {
    out += path + "=" +
           (value.is_pointer()
                ? "ptr(" + value.pointer().obj_key + "," +
                      value.pointer().attr_path + ")"
                : Typed(value.literal())) +
           ";";
  }
  out += "|" + m.key + "|";
  for (const auto& [k, h] : m.versions) {
    out += k + "=" + std::to_string(h) + ";";
  }
  out += "|";
  for (const auto& k : m.keys) out += k + ";";
  out += "|";
  for (const auto& o : m.objects) {
    out += o.kind + "/" + o.name + "@" + std::to_string(o.resource_version) +
           Typed(o.metadata) + Typed(o.spec) + Typed(o.status) + ";";
  }
  return out;
}

// What the receiver of the text would get, message by message.
std::vector<std::string> TypedViaText(const std::vector<WireMessage>& batch) {
  auto parsed = ParseBatch(SerializeBatch(batch));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::vector<std::string> out;
  if (parsed.ok()) {
    for (const WireMessage& m : *parsed) out.push_back(Typed(m));
  }
  return out;
}

TEST(StructuredDeliveryTest, NormalizeMatchesTextRoundTrip) {
  const std::vector<WireMessage> batch = EveryTypeBatch();
  const std::vector<std::string> via_text = TypedViaText(batch);
  ASSERT_EQ(via_text.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    WireMessage m = batch[i];
    ASSERT_TRUE(NormalizeAsParsed(m));
    EXPECT_EQ(Typed(m), via_text[i]) << i;
  }
}

TEST(StructuredDeliveryTest, IntegralDoubleArrivesAsInt) {
  WireMessage m;
  m.type = WireMessage::Type::kUpsert;
  m.message.obj_key = "Pod/p";
  m.message.attrs.emplace("spec.n", KdValue::Literal(5.0));
  m.message.attrs.emplace("spec.half", KdValue::Literal(0.5));
  ASSERT_TRUE(NormalizeAsParsed(m));
  EXPECT_TRUE(m.message.attrs.at("spec.n").literal().is_int());
  EXPECT_EQ(m.message.attrs.at("spec.n").literal().as_int(), 5);
  EXPECT_TRUE(m.message.attrs.at("spec.half").literal().is_double());
}

TEST(StructuredDeliveryTest, NonFiniteDoubleFailsLikeParse) {
  WireMessage m;
  m.type = WireMessage::Type::kSoftInvalidate;
  m.message.obj_key = "Pod/p";
  m.message.attrs.emplace(
      "status.x", KdValue::Literal(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(ParseBatch(SerializeBatch({m})).ok());
  EXPECT_FALSE(NormalizeAsParsed(m));
}

// End to end over the simulated connection: the receiving link hands
// its owner exactly the parsed text, and the bytes charged are the
// text's length — for pointer-compressed and full-object (Fig. 14
// ablation, kd_naive_full_objects) pod creation alike.
TEST(StructuredDeliveryTest, LinkDeliversWhatTheTextWouldCarry) {
  for (bool full_objects : {false, true}) {
    sim::Engine engine;
    net::Network network(engine);
    net::Endpoint a(network, "a"), b(network, "b");
    CostModel cost = CostModel::Default();
    cost.kd_naive_full_objects = full_objects;
    KdLinkPtr receiver;
    std::vector<WireMessage> got;
    b.Listen([&](net::ConnHandlePtr conn) {
      receiver = std::make_shared<KdLink>(engine, cost, conn);
      receiver->Bind([&](WireMessage m) { got.push_back(std::move(m)); },
                     [] {});
    });
    KdLinkPtr sender;
    a.Connect("b", [&](StatusOr<net::ConnHandlePtr> conn) {
      ASSERT_TRUE(conn.ok());
      sender = std::make_shared<KdLink>(engine, cost, *conn);
      sender->Bind([](WireMessage) {}, [] {});
    });
    engine.Run();
    ASSERT_NE(sender, nullptr);

    ApiObject rs = Rs("fn-v1");
    std::vector<WireMessage> batch = EveryTypeBatch();
    for (int i = 0; i < 3; ++i) {
      ApiObject pod = MakePodFromTemplate("fn-v1-" + std::to_string(i), rs);
      pod.spec["ratio"] = 2.0;  // integral double: arrives as int 2
      WireMessage create;
      create.type = WireMessage::Type::kUpsert;
      create.message = full_objects ? FullObjectMessage(pod)
                                    : PodCreateMessage(pod, rs.Key());
      batch.push_back(create);
    }
    const std::vector<std::string> via_text = TypedViaText(batch);
    const std::size_t text_bytes = SerializeBatch(batch).size();
    const std::uint64_t net_bytes_before = network.total_bytes();
    for (const WireMessage& m : batch) sender->Send(m);
    engine.Run();

    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(Typed(got[i]), via_text[i]) << i;
    }
    EXPECT_EQ(sender->messages_sent(), batch.size());
    EXPECT_EQ(sender->bytes_sent(), text_bytes);
    EXPECT_EQ(network.total_bytes() - net_bytes_before, text_bytes);
  }
}

// --- Materialization -----------------------------------------------------

class MaterializeTest : public ::testing::Test {
 protected:
  MaterializeTest() {
    rs_ = Rs("fn-v1", 3);
    cache_.Upsert(rs_);
  }
  runtime::ObjectCache cache_;
  ApiObject rs_;
};

TEST_F(MaterializeTest, PodCreateResolvesTemplatePointer) {
  ApiObject pod = MakePodFromTemplate("fn-v1-0", rs_);
  KdMessage msg = PodCreateMessage(pod, rs_.Key());
  auto materialized = Materialize(msg, cache_);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_EQ(materialized->kind, model::kKindPod);
  EXPECT_EQ(materialized->name, "fn-v1-0");
  // The materialized pod is byte-identical to the original.
  EXPECT_EQ(materialized->spec, pod.spec);
  EXPECT_EQ(materialized->metadata, pod.metadata);
  EXPECT_EQ(model::GetPodPhase(*materialized), model::PodPhase::kPending);
}

TEST_F(MaterializeTest, PatchesExistingCachedObject) {
  ApiObject pod = MakePodFromTemplate("fn-v1-0", rs_);
  cache_.Upsert(pod);
  KdMessage msg;
  msg.obj_key = pod.Key();
  msg.attrs.emplace("spec.nodeName", KdValue::Literal("worker3"));
  auto materialized = Materialize(msg, cache_);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(model::GetNodeName(*materialized), "worker3");
  // Untouched attributes survive the patch.
  EXPECT_EQ(materialized->spec["functionName"].as_string(), "fn");
}

TEST_F(MaterializeTest, DanglingPointerFailsPrecondition) {
  KdMessage msg;
  msg.obj_key = "Pod/orphan";
  msg.attrs.emplace("spec", KdValue::Pointer("ReplicaSet/missing",
                                             "spec.template.spec"));
  auto result = Materialize(msg, cache_);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(MaterializeTest, BadPointerPathFails) {
  KdMessage msg;
  msg.obj_key = "Pod/p";
  msg.attrs.emplace("spec",
                    KdValue::Pointer(rs_.Key(), "spec.no.such.path"));
  EXPECT_EQ(Materialize(msg, cache_).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(MaterializeTest, MalformedKeysRejected) {
  KdMessage msg;
  msg.obj_key = "no-slash";
  EXPECT_EQ(Materialize(msg, cache_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MaterializeTest, NullLiteralErasesAttr) {
  ApiObject pod = MakePodFromTemplate("p", rs_);
  model::SetNodeName(pod, "w1");
  cache_.Upsert(pod);
  KdMessage msg;
  msg.obj_key = pod.Key();
  msg.attrs.emplace("spec.nodeName", KdValue::Literal(model::Value()));
  auto materialized = Materialize(msg, cache_);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(model::GetNodeName(*materialized), "");
}

TEST_F(MaterializeTest, UnknownSectionRejected) {
  ApiObject obj;
  obj.kind = "Pod";
  obj.name = "p";
  EXPECT_FALSE(ApplyAttr(obj, "bogus.path", model::Value(1)).ok());
  EXPECT_TRUE(ApplyAttr(obj, "status.phase", model::Value("Pending")).ok());
}

TEST_F(MaterializeTest, RoundTripThroughWirePreservesEquality) {
  // Sender: create message; wire: serialize+parse; receiver:
  // materialize. End-to-end transparency check (§3.2).
  ApiObject pod = MakePodFromTemplate("fn-v1-9", rs_);
  model::SetNodeName(pod, "worker2");
  KdMessage create = PodCreateMessage(pod, rs_.Key());
  create.attrs.emplace("spec.nodeName", KdValue::Literal("worker2"));
  WireMessage wire;
  wire.type = WireMessage::Type::kUpsert;
  wire.message = create;
  auto parsed = WireMessage::Parse(wire.Serialize());
  ASSERT_TRUE(parsed.ok());
  auto materialized = Materialize(parsed->message, cache_);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(materialized->spec, pod.spec);
}

}  // namespace
}  // namespace kd::kubedirect
