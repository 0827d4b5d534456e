#include "kubedirect/message.h"

#include "common/strings.h"

namespace kd::kubedirect {

namespace {

// Short type tags keep the wire format terse; the whole point of the
// format is byte economy.
const char* TypeTag(WireMessage::Type type) {
  switch (type) {
    case WireMessage::Type::kUpsert: return "u";
    case WireMessage::Type::kRemove: return "r";
    case WireMessage::Type::kTombstone: return "t";
    case WireMessage::Type::kSoftInvalidate: return "i";
    case WireMessage::Type::kAck: return "a";
    case WireMessage::Type::kStateVersions: return "V";
    case WireMessage::Type::kStateRequest: return "R";
    case WireMessage::Type::kStateSnapshot: return "S";
  }
  return "?";
}

StatusOr<WireMessage::Type> ParseTypeTag(const std::string& tag) {
  if (tag == "u") return WireMessage::Type::kUpsert;
  if (tag == "r") return WireMessage::Type::kRemove;
  if (tag == "t") return WireMessage::Type::kTombstone;
  if (tag == "i") return WireMessage::Type::kSoftInvalidate;
  if (tag == "a") return WireMessage::Type::kAck;
  if (tag == "V") return WireMessage::Type::kStateVersions;
  if (tag == "R") return WireMessage::Type::kStateRequest;
  if (tag == "S") return WireMessage::Type::kStateSnapshot;
  return InvalidArgumentError("unknown wire message tag: " + tag);
}

model::Value EncodeKdMessage(const KdMessage& msg) {
  model::Value out = model::Value::MakeObject();
  out["o"] = msg.obj_key;
  model::Value attrs = model::Value::MakeObject();
  for (const auto& [path, value] : msg.attrs) {
    if (value.is_pointer()) {
      // Pointer encoded as "objKey#attrPath" under "p".
      model::Value p = model::Value::MakeObject();
      p["p"] = value.pointer().obj_key + "#" + value.pointer().attr_path;
      attrs[path] = std::move(p);
    } else {
      model::Value l = model::Value::MakeObject();
      l["v"] = value.literal();
      attrs[path] = std::move(l);
    }
  }
  out["a"] = std::move(attrs);
  return out;
}

StatusOr<KdMessage> DecodeKdMessage(const model::Value& v) {
  if (!v.is_object() || !v["o"].is_string()) {
    return InvalidArgumentError("malformed KdMessage");
  }
  KdMessage msg;
  msg.obj_key = v["o"].as_string();
  const model::Value& attrs = v["a"];
  if (!attrs.is_object() && !attrs.is_null()) {
    return InvalidArgumentError("malformed KdMessage attrs");
  }
  if (attrs.is_object()) {
    for (const auto& [path, encoded] : attrs.object()) {
      if (encoded.contains("p")) {
        const std::string& ref = encoded["p"].as_string();
        const std::size_t hash_pos = ref.find('#');
        if (hash_pos == std::string::npos) {
          return InvalidArgumentError("malformed pointer: " + ref);
        }
        msg.attrs.emplace(path,
                          KdValue::Pointer(ref.substr(0, hash_pos),
                                           ref.substr(hash_pos + 1)));
      } else if (encoded.contains("v")) {
        msg.attrs.emplace(path, KdValue::Literal(encoded["v"]));
      } else {
        return InvalidArgumentError("attr neither literal nor pointer");
      }
    }
  }
  return msg;
}

// Length of a compact-JSON rendering plus its '"'/'\\' byte count —
// enough to size the rendering and, when it is itself embedded as a
// JSON string, that string too.
struct JsonSize {
  std::size_t bytes = 0;
  std::size_t escapes = 0;
};

JsonSize StringSize(const std::string& s) {
  return {model::JsonStringSize(s), model::JsonStringEscapeCount(s)};
}

JsonSize ValueSize(const model::Value& v) {
  return {v.SerializedSize(), v.SerializedEscapeCount()};
}

// The rendering embedded as a JSON string: surrounding quotes, and a
// backslash before each '"' and '\\' (JSON text holds no raw control
// bytes, so nothing else is escaped).
JsonSize Nested(JsonSize text) {
  return {text.bytes + 2 + text.escapes, 2 + 2 * text.escapes};
}

// Accumulates the members of a JSON object or array.
class Composite {
 public:
  void Add(JsonSize v) {
    if (count_++ > 0) ++size_.bytes;  // comma
    size_.bytes += v.bytes;
    size_.escapes += v.escapes;
  }
  void Add(const std::string& key, JsonSize v) {
    Add(StringSize(key));
    size_.bytes += 1 + v.bytes;  // colon
    size_.escapes += v.escapes;
  }
  JsonSize Close() const { return {size_.bytes + 2, size_.escapes}; }

 private:
  std::size_t count_ = 0;
  JsonSize size_;
};

JsonSize KdMessageSize(const KdMessage& msg) {
  Composite attrs;
  for (const auto& [path, value] : msg.attrs) {
    Composite encoded;
    if (value.is_pointer()) {
      // "objKey#attrPath": the two strings share one pair of quotes.
      const JsonSize key = StringSize(value.pointer().obj_key);
      const JsonSize attr = StringSize(value.pointer().attr_path);
      encoded.Add("p", {key.bytes + attr.bytes - 1,
                        key.escapes + attr.escapes - 2});
    } else {
      encoded.Add("v", ValueSize(value.literal()));
    }
    attrs.Add(path, encoded.Close());
  }
  Composite out;
  out.Add("a", attrs.Close());
  out.Add("o", StringSize(msg.obj_key));
  return out.Close();
}

JsonSize WireSize(const WireMessage& msg) {
  Composite out;
  out.Add("t", StringSize(TypeTag(msg.type)));
  switch (msg.type) {
    case WireMessage::Type::kUpsert:
    case WireMessage::Type::kSoftInvalidate:
      out.Add("m", KdMessageSize(msg.message));
      break;
    case WireMessage::Type::kRemove:
    case WireMessage::Type::kTombstone:
    case WireMessage::Type::kAck:
      out.Add("k", StringSize(msg.key));
      break;
    case WireMessage::Type::kStateVersions: {
      Composite v;
      for (const auto& [k, hash] : msg.versions) {
        v.Add(k, {model::JsonIntSize(static_cast<std::int64_t>(hash)), 0});
      }
      out.Add("v", v.Close());
      break;
    }
    case WireMessage::Type::kStateRequest: {
      Composite ks;
      for (const auto& k : msg.keys) ks.Add(StringSize(k));
      out.Add("K", ks.Close());
      break;
    }
    case WireMessage::Type::kStateSnapshot: {
      Composite os;
      for (const auto& obj : msg.objects) {
        os.Add(Nested({obj.SerializedSize(), obj.SerializedEscapeCount()}));
      }
      out.Add("O", os.Close());
      break;
    }
  }
  return out.Close();
}

bool HasDouble(const model::Value& v) {
  switch (v.type()) {
    case model::Value::Type::kDouble:
      return true;
    case model::Value::Type::kArray:
      for (const model::Value& e : v.array()) {
        if (HasDouble(e)) return true;
      }
      return false;
    case model::Value::Type::kObject:
      for (const auto& [k, e] : v.object()) {
        if (HasDouble(e)) return true;
      }
      return false;
    default:
      return false;
  }
}

// NormalizeAsParsed for one value: re-types the doubles whose text
// parses back as an int; false on a double whose text does not parse.
// Subtrees without doubles are left untouched (no copy-on-write
// detach).
bool NormalizeValue(model::Value& v) {
  if (!HasDouble(v)) return true;
  if (v.is_double()) {
    StatusOr<model::Value> parsed = model::Value::Parse(v.Serialize());
    if (!parsed.ok()) return false;
    v = std::move(*parsed);
    return true;
  }
  if (v.is_array()) {
    for (model::Value& e : v.array()) {
      if (!NormalizeValue(e)) return false;
    }
    return true;
  }
  for (auto& [k, e] : v.object()) {
    if (!NormalizeValue(e)) return false;
  }
  return true;
}

bool NormalizeKdMessage(KdMessage& msg) {
  for (auto& [path, value] : msg.attrs) {
    if (value.is_pointer()) {
      // The wire joins "objKey#attrPath"; the parser splits at the
      // first '#'.
      KdPointer& p = std::get<KdPointer>(value.repr);
      const std::size_t hash_pos = p.obj_key.find('#');
      if (hash_pos != std::string::npos) {
        p.attr_path = p.obj_key.substr(hash_pos + 1) + "#" + p.attr_path;
        p.obj_key.resize(hash_pos);
      }
    } else if (!NormalizeValue(std::get<model::Value>(value.repr))) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* WireMessageTypeName(WireMessage::Type type) {
  switch (type) {
    case WireMessage::Type::kUpsert: return "Upsert";
    case WireMessage::Type::kRemove: return "Remove";
    case WireMessage::Type::kTombstone: return "Tombstone";
    case WireMessage::Type::kSoftInvalidate: return "SoftInvalidate";
    case WireMessage::Type::kAck: return "Ack";
    case WireMessage::Type::kStateVersions: return "StateVersions";
    case WireMessage::Type::kStateRequest: return "StateRequest";
    case WireMessage::Type::kStateSnapshot: return "StateSnapshot";
  }
  return "?";
}

std::string WireMessage::Serialize() const {
  model::Value out = model::Value::MakeObject();
  out["t"] = TypeTag(type);
  switch (type) {
    case Type::kUpsert:
    case Type::kSoftInvalidate:
      out["m"] = EncodeKdMessage(message);
      break;
    case Type::kRemove:
    case Type::kTombstone:
    case Type::kAck:
      out["k"] = key;
      break;
    case Type::kStateVersions: {
      model::Value v = model::Value::MakeObject();
      for (const auto& [k, hash] : versions) {
        v[k] = static_cast<std::int64_t>(hash);
      }
      out["v"] = std::move(v);
      break;
    }
    case Type::kStateRequest: {
      model::Value ks = model::Value::MakeArray();
      for (const auto& k : keys) ks.push_back(k);
      out["K"] = std::move(ks);
      break;
    }
    case Type::kStateSnapshot: {
      model::Value os = model::Value::MakeArray();
      for (const auto& obj : objects) os.push_back(obj.Serialize());
      out["O"] = std::move(os);
      break;
    }
  }
  return out.Serialize();
}

StatusOr<WireMessage> WireMessage::Parse(const std::string& text) {
  StatusOr<model::Value> parsed = model::Value::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const model::Value& v = *parsed;
  StatusOr<Type> type = ParseTypeTag(v["t"].as_string());
  if (!type.ok()) return type.status();
  WireMessage out;
  out.type = *type;
  switch (out.type) {
    case Type::kUpsert:
    case Type::kSoftInvalidate: {
      StatusOr<KdMessage> msg = DecodeKdMessage(v["m"]);
      if (!msg.ok()) return msg.status();
      out.message = std::move(*msg);
      break;
    }
    case Type::kRemove:
    case Type::kTombstone:
    case Type::kAck:
      out.key = v["k"].as_string();
      break;
    case Type::kStateVersions:
      for (const auto& [k, hash] : v["v"].object()) {
        out.versions[k] = static_cast<std::uint64_t>(hash.as_int());
      }
      break;
    case Type::kStateRequest:
      for (const auto& k : v["K"].array()) out.keys.push_back(k.as_string());
      break;
    case Type::kStateSnapshot:
      for (const auto& encoded : v["O"].array()) {
        StatusOr<model::ApiObject> obj =
            model::ApiObject::Parse(encoded.as_string());
        if (!obj.ok()) return obj.status();
        out.objects.push_back(std::move(*obj));
      }
      break;
  }
  return out;
}

std::size_t WireMessage::SerializedSize() const {
  return WireSize(*this).bytes;
}

std::size_t SerializedBatchSize(const std::vector<WireMessage>& batch) {
  Composite arr;
  for (const auto& msg : batch) arr.Add(Nested(WireSize(msg)));
  return arr.Close().bytes;
}

bool NormalizeAsParsed(WireMessage& msg) {
  // Only the fields Serialize writes for this type survive the trip.
  WireMessage out;
  out.type = msg.type;
  switch (msg.type) {
    case WireMessage::Type::kUpsert:
    case WireMessage::Type::kSoftInvalidate:
      out.message = std::move(msg.message);
      if (!NormalizeKdMessage(out.message)) return false;
      break;
    case WireMessage::Type::kRemove:
    case WireMessage::Type::kTombstone:
    case WireMessage::Type::kAck:
      out.key = std::move(msg.key);
      break;
    case WireMessage::Type::kStateVersions:
      out.versions = std::move(msg.versions);
      break;
    case WireMessage::Type::kStateRequest:
      out.keys = std::move(msg.keys);
      break;
    case WireMessage::Type::kStateSnapshot:
      out.objects = std::move(msg.objects);
      for (model::ApiObject& obj : out.objects) {
        if (!NormalizeValue(obj.metadata) || !NormalizeValue(obj.spec) ||
            !NormalizeValue(obj.status)) {
          return false;
        }
      }
      break;
  }
  msg = std::move(out);
  return true;
}

std::string SerializeBatch(const std::vector<WireMessage>& batch) {
  model::Value arr = model::Value::MakeArray();
  for (const auto& msg : batch) arr.push_back(msg.Serialize());
  return arr.Serialize();
}

StatusOr<std::vector<WireMessage>> ParseBatch(const std::string& text) {
  StatusOr<model::Value> parsed = model::Value::Parse(text);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_array()) return InvalidArgumentError("batch not an array");
  std::vector<WireMessage> out;
  out.reserve(parsed->size());
  for (const auto& item : parsed->array()) {
    StatusOr<WireMessage> msg = WireMessage::Parse(item.as_string());
    if (!msg.ok()) return msg.status();
    out.push_back(std::move(*msg));
  }
  return out;
}

KdMessage PodCreateMessage(const model::ApiObject& pod,
                           const std::string& replicaset_key) {
  KdMessage msg;
  msg.obj_key = pod.Key();
  msg.attrs.reserve(3);
  // The static bulk — the container spec — travels as a pointer into
  // the ReplicaSet the receiver already caches (§3.2's example).
  msg.attrs.emplace("spec",
                    KdValue::Pointer(replicaset_key, "spec.template.spec"));
  // Dynamic attributes the creating controller decided.
  msg.attrs.emplace("metadata", KdValue::Literal(pod.metadata));
  msg.attrs.emplace("status.phase",
                    KdValue::Literal(pod.status["phase"]));
  return msg;
}

KdMessage DiffMessage(const model::ApiObject& before,
                      const model::ApiObject& after) {
  KdMessage msg;
  msg.obj_key = after.Key();
  for (const char* section : {"metadata", "spec", "status"}) {
    const model::Value& b = section == std::string("metadata") ? before.metadata
                            : section == std::string("spec")   ? before.spec
                                                                : before.status;
    const model::Value& a = section == std::string("metadata") ? after.metadata
                            : section == std::string("spec")   ? after.spec
                                                                : after.status;
    for (auto& [path, value] : model::Value::Diff(b, a)) {
      msg.attrs.emplace(std::string(section) + "." + path,
                        KdValue::Literal(std::move(value)));
    }
  }
  return msg;
}

KdMessage FullObjectMessage(const model::ApiObject& obj) {
  KdMessage msg;
  msg.obj_key = obj.Key();
  msg.attrs.reserve(3);
  msg.attrs.emplace("metadata", KdValue::Literal(obj.metadata));
  msg.attrs.emplace("spec", KdValue::Literal(obj.spec));
  msg.attrs.emplace("status", KdValue::Literal(obj.status));
  return msg;
}

bool IsSelfContained(const KdMessage& msg) {
  return msg.attrs.count("metadata") != 0 && msg.attrs.count("spec") != 0 &&
         msg.attrs.count("status") != 0;
}

}  // namespace kd::kubedirect
