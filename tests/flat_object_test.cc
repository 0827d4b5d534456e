// Differential test of Value's flat sorted objects against a reference
// built on std::map<std::string, ...>, the representation objects had
// before. Seeded random walks apply inserts, overwrites, erases,
// SetPath/ErasePath, duplicate-key Parse, Diff and ==; after each step
// both sides must render the same bytes, measured four ways
// (Serialize, SerializedSize, SerializedEscapeCount, Hash). The walks
// also check that copies share payloads until written (copy-on-write).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "model/value.h"

namespace kd::model {
namespace {

// Reference value: a leaf (never an object) or a sorted map of members.
struct Ref {
  bool is_object = false;
  Value leaf;
  std::map<std::string, Ref> members;

  static Ref Object() {
    Ref r;
    r.is_object = true;
    return r;
  }
  static Ref Leaf(Value v) {
    Ref r;
    r.leaf = std::move(v);
    return r;
  }
};

std::string Render(const Ref& r) {
  if (!r.is_object) return r.leaf.Serialize();
  std::string out = "{";
  for (const auto& [k, v] : r.members) {
    if (out.size() > 1) out += ',';
    out += Value(k).Serialize();  // the quoted, escaped key
    out += ':';
    out += Render(v);
  }
  return out + "}";
}

Value ToValue(const Ref& r) {
  if (!r.is_object) return r.leaf;
  Value v = Value::MakeObject();
  for (const auto& [k, m] : r.members) v[k] = ToValue(m);
  return v;
}

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::size_t QuotesAndBackslashes(const std::string& s) {
  std::size_t n = 0;
  for (char c : s) n += (c == '"' || c == '\\') ? 1 : 0;
  return n;
}

void ExpectSame(const Value& v, const Ref& r) {
  const std::string want = Render(r);
  ASSERT_EQ(v.Serialize(), want);
  EXPECT_EQ(v.SerializedSize(), want.size());
  EXPECT_EQ(v.SerializedEscapeCount(), QuotesAndBackslashes(want));
  EXPECT_EQ(v.Hash(), Fnv1a(want));
}

// Keys without dots (so a key is also a one-part path), some of them
// needing escapes, some prefixes of others.
const std::vector<std::string>& Keys() {
  static const std::vector<std::string> keys = {
      "a", "b", "c", "ab", "ba", "spec", "status", "k\"q", "z\\", "phase"};
  return keys;
}

class Walk {
 public:
  explicit Walk(std::uint64_t seed) : rng_(seed) {}

  std::string Key() { return Keys()[rng_.UniformInt(Keys().size())]; }

  std::vector<std::string> Path() {
    std::vector<std::string> parts(1 + rng_.UniformInt(3));
    for (std::string& p : parts) p = Key();
    return parts;
  }

  static std::string Join(const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& p : parts) out += (out.empty() ? "" : ".") + p;
    return out;
  }

  // Scalars and small arrays; objects are grown through paths.
  Value Leaf() {
    switch (rng_.UniformInt(6)) {
      case 0: return Value();
      case 1: return Value(rng_.Bernoulli(0.5));
      case 2: return Value(rng_.UniformRange(-1000, 1000));
      case 3: return Value(Key() + "\n");
      case 4: return Value(Key());
      default: {
        Value a = Value::MakeArray();
        a.push_back(Value(Key()));
        a.push_back(Value(rng_.UniformRange(0, 9)));
        return a;
      }
    }
  }

  // Applies one random mutation to both sides.
  void Mutate(Value& v, Ref& r) {
    const std::vector<std::string> path = Path();
    switch (rng_.UniformInt(5)) {
      case 0: {  // insert or overwrite one member
        const std::string key = path.front();
        const Value leaf = Leaf();
        v[key] = leaf;
        r.members[key] = Ref::Leaf(leaf);
        break;
      }
      case 1: {  // erase one member
        v.erase(path.front());
        r.members.erase(path.front());
        break;
      }
      case 2: {  // an inserting chain, v[a][b]... = leaf
        const Value leaf = Leaf();
        Value* cur = &v;
        for (const std::string& p : path) cur = &(*cur)[p];
        *cur = leaf;
        SetPath(r, path, leaf);
        break;
      }
      case 3: {
        const Value leaf = Leaf();
        v.SetPath(Join(path), leaf);
        SetPath(r, path, leaf);
        break;
      }
      default: {
        EXPECT_EQ(v.ErasePath(Join(path)), ErasePath(r, path));
        break;
      }
    }
  }

  // Text of an object with duplicate keys, nested up to `depth`, and
  // its reference, which keeps the first of two duplicates.
  std::pair<std::string, Ref> DuplicateKeyText(int depth) {
    std::string text = "{";
    Ref r = Ref::Object();
    const std::uint64_t n = rng_.UniformInt(6);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::string key = Key();
      std::string member;
      Ref child;
      if (depth > 0 && rng_.Bernoulli(0.3)) {
        std::tie(member, child) = DuplicateKeyText(depth - 1);
      } else {
        child = Ref::Leaf(Leaf());
        member = Render(child);
      }
      if (i > 0) text += ", ";
      text += Value(key).Serialize() + " : " + member;
      r.members.emplace(key, std::move(child));
    }
    return {text + "}", r};
  }

  Rng& rng() { return rng_; }

  // Value::SetPath's semantics: a non-object on the way becomes an
  // empty object.
  static void SetPath(Ref& r, const std::vector<std::string>& path,
                      const Value& leaf) {
    Ref* cur = &r;
    for (const std::string& p : path) {
      if (!cur->is_object) *cur = Ref::Object();
      cur = &cur->members[p];
    }
    *cur = Ref::Leaf(leaf);
  }

  // Value::ErasePath's: every step but the leaf must be an object.
  static bool ErasePath(Ref& r, const std::vector<std::string>& path) {
    Ref* cur = &r;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (!cur->is_object) return false;
      auto it = cur->members.find(path[i]);
      if (it == cur->members.end()) return false;
      cur = &it->second;
    }
    return cur->is_object && cur->members.erase(path.back()) > 0;
  }

 private:
  Rng rng_;
};

void RefDiff(const std::string& prefix, const Ref& before, const Ref& after,
             std::vector<std::pair<std::string, Value>>& out) {
  if (Render(before) == Render(after)) return;
  if (!before.is_object || !after.is_object) {
    out.emplace_back(prefix, ToValue(after));
    return;
  }
  auto join = [&](const std::string& k) {
    return prefix.empty() ? k : prefix + "." + k;
  };
  for (const auto& [k, v] : before.members) {
    if (after.members.count(k) == 0) out.emplace_back(join(k), Value());
  }
  for (const auto& [k, v] : after.members) {
    auto it = before.members.find(k);
    if (it == before.members.end()) {
      out.emplace_back(join(k), ToValue(v));
    } else {
      RefDiff(join(k), it->second, v, out);
    }
  }
}

constexpr int kWalks = 150;
constexpr int kSteps = 60;

TEST(FlatObjectTest, MutationsRenderLikeTheMapReference) {
  for (int seed = 1; seed <= kWalks; ++seed) {
    SCOPED_TRACE(seed);
    Walk walk(static_cast<std::uint64_t>(seed));
    Value v = Value::MakeObject();
    Ref r = Ref::Object();
    for (int step = 0; step < kSteps; ++step) {
      walk.Mutate(v, r);
      ExpectSame(v, r);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FlatObjectTest, ParseKeepsTheFirstDuplicateKey) {
  for (int seed = 1; seed <= kWalks; ++seed) {
    SCOPED_TRACE(seed);
    Walk walk(static_cast<std::uint64_t>(seed));
    const auto [text, r] = walk.DuplicateKeyText(2);
    StatusOr<Value> parsed = Value::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    ExpectSame(*parsed, r);
    // A second round trip is the identity.
    StatusOr<Value> again = Value::Parse(parsed->Serialize());
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(*again == *parsed);
  }
}

TEST(FlatObjectTest, DiffAndEqualityMatchTheMapReference) {
  for (int seed = 1; seed <= kWalks; ++seed) {
    SCOPED_TRACE(seed);
    Walk walk(static_cast<std::uint64_t>(seed));
    Value base = Value::MakeObject();
    Ref base_ref = Ref::Object();
    for (int step = 0; step < kSteps / 2; ++step) walk.Mutate(base, base_ref);
    // Two descendants that share most of their subtrees with the base.
    Value a = base;
    Value b = base;
    Ref a_ref = base_ref;
    Ref b_ref = base_ref;
    const std::uint64_t a_steps = walk.rng().UniformInt(4);
    const std::uint64_t b_steps = walk.rng().UniformInt(4);
    for (std::uint64_t i = 0; i < a_steps; ++i) walk.Mutate(a, a_ref);
    for (std::uint64_t i = 0; i < b_steps; ++i) walk.Mutate(b, b_ref);
    ExpectSame(a, a_ref);
    ExpectSame(b, b_ref);
    EXPECT_EQ(a == b, Render(a_ref) == Render(b_ref));

    const auto diff = Value::Diff(a, b);
    std::vector<std::pair<std::string, Value>> want;
    RefDiff("", a_ref, b_ref, want);
    ASSERT_EQ(diff.size(), want.size());
    for (std::size_t i = 0; i < diff.size(); ++i) {
      EXPECT_EQ(diff[i].first, want[i].first);
      EXPECT_EQ(diff[i].second.Serialize(), want[i].second.Serialize());
    }
    // Applying the diff to `a` yields `b` (nulls stand for removals).
    Value patched = a;
    for (const auto& [path, value] : diff) {
      if (value.is_null() && b.FindPath(path) == nullptr) {
        patched.ErasePath(path);
      } else {
        patched.SetPath(path, value);
      }
    }
    EXPECT_EQ(patched.Serialize(), b.Serialize());
  }
}

TEST(FlatObjectTest, CopiesShareUntilWritten) {
  for (int seed = 1; seed <= kWalks; ++seed) {
    SCOPED_TRACE(seed);
    Walk walk(static_cast<std::uint64_t>(seed));
    Value v = Value::MakeObject();
    Ref r = Ref::Object();
    for (int step = 0; step < kSteps; ++step) walk.Mutate(v, r);
    v.SetPath("spec.x", Value(1));  // at least one object member
    Walk::SetPath(r, {"spec", "x"}, Value(1));
    const Value& cv = v;

    Value copy = v;
    EXPECT_TRUE(copy.SharesPayloadWith(v));
    copy["a"] = Value("written");
    EXPECT_FALSE(copy.SharesPayloadWith(v));
    // The write cloned only the top level: untouched members still
    // share their payloads with the original.
    const Value& ccopy = copy;
    EXPECT_TRUE(ccopy["spec"].SharesPayloadWith(cv["spec"]));
    ExpectSame(v, r);

    Value deep = v;
    deep.SetPath("spec.y", Value(2));
    const Value& cdeep = deep;
    EXPECT_FALSE(cdeep["spec"].SharesPayloadWith(cv["spec"]));
    EXPECT_EQ(cv.FindPath("spec.y"), nullptr);
    ExpectSame(v, r);
  }
}

}  // namespace
}  // namespace kd::model
