// JSON-like dynamic value, the representation of Kubernetes API object
// bodies (spec/status/metadata).
//
// Three capabilities drive the design, all needed by the paper:
//   - dotted-path access ("spec.template.spec.containers"), because
//     KubeDirect messages reference attributes by path (§3.2);
//   - byte-accurate serialization, because the whole point of the
//     minimal message format is wire size (64 B vs 17 KB);
//   - structural diff, because soft invalidation and the handshake's
//     change-set exchange ship only what changed (§4.2).
//
// Value is a regular value type: copies are deep *semantically*,
// equality is structural. The representation is copy-on-write: string,
// array, and object payloads live in a shared, refcounted node and are
// only cloned when a writer mutates a shared value (the clone is
// shallow — children keep sharing until written themselves). This is
// what makes the simulator's "copy per watcher / copy per cache"
// convention affordable for 17 KB pod objects: the copies are pointer
// bumps until somebody writes.
//
// Every payload node also memoizes its compact-JSON byte length
// (SerializedSize), because byte accounting runs on every simulated
// network message. All mutation routes through MutableData(), which
// both detaches and invalidates the cache. One caveat follows from
// that: the cache of an *ancestor* is invalidated when the path to the
// child is traversed through the mutable accessors (`v["a"]["b"] = x`),
// so do not hold a `Value&` into a tree across an ancestor's
// SerializedSize() call and then write through it — re-index instead.
//
// An object's members live in one sorted vector (kd::FlatMap), so a
// reference to a member also dies when a sibling is inserted or erased:
// `Value& a = v["a"]; v["b"] = 1; a = 2;` writes through a dangling
// reference once "b" is new. The same holds for `v["x"] = v["y"]` on a
// non-const `v`, because the right side is evaluated first. Take a copy
// (`Value y = v["y"]; v["x"] = y;`) or re-index. The codebase mutates
// exclusively via full-expression chains that touch one member per
// object, which are always safe.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/status.h"

namespace kd::model {

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject
  };

  using Array = std::vector<Value>;
  // Sorted keys keep serialization deterministic; see the header
  // comment for what a sibling insert does to held references.
  using Object = FlatMap<std::string, Value>;

  Value() : type_(Type::kNull), int_(0) {}
  Value(std::nullptr_t) : Value() {}
  Value(bool b) : type_(Type::kBool), int_(0) { bool_ = b; }
  Value(int i) : type_(Type::kInt), int_(i) {}
  Value(std::int64_t i) : type_(Type::kInt), int_(i) {}
  Value(double d) : type_(Type::kDouble), double_(d) {}
  Value(const char* s) : Value(std::string(s)) {}
  Value(std::string s) : type_(Type::kString), data_(new Data(std::move(s))) {}
  Value(Array a) : type_(Type::kArray), data_(new Data(std::move(a))) {}
  Value(Object o) : type_(Type::kObject), data_(new Data(std::move(o))) {}

  // Copies share the payload node (O(1)); the first mutation through
  // either copy detaches it. A moved-from Value is null.
  Value(const Value& other) : type_(other.type_) {
    CopyPayloadBits(other);
    if (has_payload()) ++data_->refs;
  }
  Value(Value&& other) noexcept : type_(other.type_) {
    CopyPayloadBits(other);
    other.type_ = Type::kNull;
    other.int_ = 0;
  }
  Value& operator=(const Value& other) {
    Value copy(other);
    Swap(copy);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    Value moved(std::move(other));
    Swap(moved);
    return *this;
  }
  ~Value() { Release(); }

  static Value MakeObject() { return Value(Object{}); }
  static Value MakeArray() { return Value(Array{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // True when this value shares its payload node with another Value —
  // observability for the CoW tests; scalars are never shared.
  bool SharesPayloadWith(const Value& other) const {
    return has_payload() && other.has_payload() && data_ == other.data_;
  }

  // Accessors assert-check the type in debug; in release, mismatched
  // access returns a zero value (defensive: API objects come off the
  // wire).
  bool as_bool() const { return is_bool() ? bool_ : false; }
  std::int64_t as_int() const {
    if (is_int()) return int_;
    if (is_double()) return static_cast<std::int64_t>(double_);
    return 0;
  }
  double as_double() const {
    if (is_double()) return double_;
    if (is_int()) return static_cast<double>(int_);
    return 0.0;
  }
  const std::string& as_string() const {
    static const std::string kEmpty;
    return is_string() ? data_->string : kEmpty;
  }

  // --- array access ---------------------------------------------------
  std::size_t size() const;
  const Value& at(std::size_t i) const;
  Value& at(std::size_t i);
  void push_back(Value v);
  const Array& array() const;
  // Mutable view: detaches. Do not hold across an ancestor's
  // SerializedSize() (see header comment).
  Array& array();

  // --- object access ---------------------------------------------------
  // Field lookup; returns null Value reference for missing keys.
  const Value& operator[](std::string_view key) const;
  // Inserting lookup; converts a null value into an object first.
  Value& operator[](std::string_view key);
  bool contains(std::string_view key) const;
  void erase(std::string_view key);
  const Object& object() const;
  // Mutable view: detaches (same caveat as array()).
  Object& object();

  // --- dotted-path access ----------------------------------------------
  // Path syntax: "spec.template.spec.nodeName". Array elements are not
  // addressable by path (Kubernetes strategic-merge semantics treat the
  // containers list as a unit, which is all the narrow waist needs).
  const Value* FindPath(std::string_view path) const;
  // Creates intermediate objects as needed.
  void SetPath(std::string_view path, Value v);
  // Removes the leaf if present; returns true if removed.
  bool ErasePath(std::string_view path);

  // --- serialization -----------------------------------------------------
  // Compact JSON. Keys are emitted sorted, so equal values serialize
  // identically (used for version hashing in the handshake protocol).
  std::string Serialize() const;
  // Byte length of Serialize(), without materializing the string.
  // Memoized per payload node; every mutation invalidates the caches
  // along the mutated path.
  std::size_t SerializedSize() const;
  // Number of '"' and '\\' bytes in Serialize() — the bytes that double
  // when the serialization is itself embedded as a JSON string (the Kd
  // wire nests each message's text inside its batch array, see
  // kubedirect/message.h). Memoized like SerializedSize.
  std::size_t SerializedEscapeCount() const;
  static StatusOr<Value> Parse(const std::string& text);

  // FNV-1a over the serialized form; the "any unique number" version
  // tag used by the handshake's two-round optimization (§4.2).
  std::uint64_t Hash() const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  // --- diff ---------------------------------------------------------------
  // Paths at which `after` differs from `before` (added/changed leaves,
  // plus removed paths reported with a null value). Arrays and scalars
  // are compared as units.
  static std::vector<std::pair<std::string, Value>> Diff(const Value& before,
                                                         const Value& after);

 private:
  // Shared payload node, reference-counted by the Values that point at
  // it (an intrusive count keeps a Value at 16 bytes — the handle every
  // array element and object member pays). Exactly one of the three
  // members is active, selected by the owning Value's type_.
  // cached_size memoizes the subtree's compact-JSON length; 0 means
  // "not computed" (no JSON rendering is ever empty, so 0 is never a
  // valid length). cached_escapes memoizes SerializedEscapeCount() + 1
  // (0 = not computed). A count that does not fit 32 bits is recomputed
  // instead of cached.
  struct Data {
    explicit Data(std::string s) : string(std::move(s)) {}
    explicit Data(Array a) : array(std::move(a)) {}
    explicit Data(Object o) : object(std::move(o)) {}
    // A detached clone: same content and caches, one owner. A clone is
    // made to be written, and writing a field an object lacks (a pod's
    // spec.nodeName, status.podIP) is the common case, so an object
    // clone leaves room for one insert instead of regrowing on it.
    Data(const Data& other)
        : string(other.string),
          array(other.array),
          cached_size(other.cached_size),
          cached_escapes(other.cached_escapes) {
      if (!other.object.empty()) {
        object.reserve(other.object.size() + 1);
        object = other.object;
      }
    }

    std::string string;
    Array array;
    Object object;
    mutable std::uint32_t cached_size = 0;
    mutable std::uint32_t cached_escapes = 0;
    std::uint32_t refs = 1;  // one owner at construction and on clone
  };

  bool has_payload() const {
    return type_ == Type::kString || type_ == Type::kArray ||
           type_ == Type::kObject;
  }
  // The union's bytes, whichever member is active.
  void CopyPayloadBits(const Value& other) {
    std::memcpy(&int_, &other.int_, sizeof(int_));
  }
  void Swap(Value& other) noexcept {
    std::swap(type_, other.type_);
    std::int64_t bits;
    std::memcpy(&bits, &int_, sizeof(bits));
    CopyPayloadBits(other);
    std::memcpy(&other.int_, &bits, sizeof(bits));
  }
  // Drops this Value's reference to its payload (freeing the node with
  // the last one) and leaves the Value null.
  void Release() {
    if (has_payload() && --data_->refs == 0) delete data_;
    type_ = Type::kNull;
    int_ = 0;
  }

  // Detach-on-write: clones the payload node if shared and invalidates
  // its size cache. Callers of mutable accessors reach their node
  // through the mutable path, so ancestors invalidate transitively.
  Data& MutableData();
  // Converts to `t` (resetting the payload) unless already of type `t`;
  // then detaches. Backbone of the inserting accessors.
  Data& MutableDataAs(Type t);

  void SerializeTo(std::string& out) const;
  static void DiffInto(const std::string& prefix, const Value& before,
                       const Value& after,
                       std::vector<std::pair<std::string, Value>>& out);

  Type type_;
  union {
    bool bool_;
    std::int64_t int_;  // spans the union (CopyPayloadBits)
    double double_;
    Data* data_;  // string/array/object
  };
};

// Byte lengths of the compact-JSON renderings of a string (quoted and
// escaped) and an integer — the primitives composite objects use to sum
// their wire size without serializing (see ApiObject::SerializedSize).
std::size_t JsonStringSize(const std::string& s);
std::size_t JsonIntSize(std::int64_t v);
// Number of '"' and '\\' bytes in the rendering JsonStringSize measures.
std::size_t JsonStringEscapeCount(const std::string& s);

}  // namespace kd::model
