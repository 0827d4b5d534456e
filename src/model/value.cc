#include "model/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace kd::model {

namespace {
const Value kNullValue;
const Value::Array kEmptyArray;
const Value::Object kEmptyObject;
}  // namespace

Value::Data& Value::MutableData() {
  if (data_->refs > 1) {
    --data_->refs;
    data_ = new Data(*data_);
  }
  data_->cached_size = 0;
  data_->cached_escapes = 0;
  return *data_;
}

Value::Data& Value::MutableDataAs(Type t) {
  if (type_ != t) {
    Release();
    type_ = t;
    switch (t) {
      case Type::kString: data_ = new Data(std::string()); break;
      case Type::kArray: data_ = new Data(Array{}); break;
      case Type::kObject: data_ = new Data(Object{}); break;
      default: break;
    }
    return *data_;
  }
  return MutableData();
}

std::size_t Value::size() const {
  if (is_array()) return data_->array.size();
  if (is_object()) return data_->object.size();
  return 0;
}

const Value& Value::at(std::size_t i) const {
  if (!is_array() || i >= data_->array.size()) return kNullValue;
  return data_->array[i];
}

Value& Value::at(std::size_t i) {
  // Defensive like the const overload: out-of-range (or non-array)
  // access yields a scratch null whose writes are discarded, instead of
  // indexing past the end.
  if (!is_array() || i >= data_->array.size()) {
    static Value scratch;
    scratch = Value();
    return scratch;
  }
  return MutableData().array[i];
}

void Value::push_back(Value v) {
  MutableDataAs(Type::kArray).array.push_back(std::move(v));
}

const Value::Array& Value::array() const {
  return is_array() ? data_->array : kEmptyArray;
}

Value::Array& Value::array() { return MutableDataAs(Type::kArray).array; }

const Value& Value::operator[](std::string_view key) const {
  if (!is_object()) return kNullValue;
  auto it = data_->object.find(key);
  return it == data_->object.end() ? kNullValue : it->second;
}

Value& Value::operator[](std::string_view key) {
  return MutableDataAs(Type::kObject).object[key];
}

bool Value::contains(std::string_view key) const {
  return is_object() && data_->object.contains(key);
}

void Value::erase(std::string_view key) {
  if (!is_object()) return;
  MutableData().object.erase(key);
}

const Value::Object& Value::object() const {
  return is_object() ? data_->object : kEmptyObject;
}

Value::Object& Value::object() { return MutableDataAs(Type::kObject).object; }

const Value* Value::FindPath(std::string_view path) const {
  const Value* cur = this;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t dot = path.find('.', start);
    const std::string_view part =
        path.substr(start, dot == std::string_view::npos ? dot : dot - start);
    if (!cur->is_object()) return nullptr;
    auto it = cur->data_->object.find(part);
    if (it == cur->data_->object.end()) return nullptr;
    cur = &it->second;
    if (dot == std::string_view::npos) return cur;
    start = dot + 1;
  }
  return nullptr;
}

void Value::SetPath(std::string_view path, Value v) {
  Value* cur = this;
  std::size_t start = 0;
  for (;;) {
    const std::size_t dot = path.find('.', start);
    const std::string_view part =
        path.substr(start, dot == std::string_view::npos ? dot : dot - start);
    Data& data = cur->MutableDataAs(Type::kObject);
    if (dot == std::string_view::npos) {
      data.object[part] = std::move(v);
      return;
    }
    cur = &data.object[part];
    start = dot + 1;
  }
}

bool Value::ErasePath(std::string_view path) {
  // Const pre-check so a miss neither detaches nor dirties any caches.
  if (FindPath(path) == nullptr) return false;
  const std::size_t dot = path.rfind('.');
  if (dot == std::string_view::npos) {
    MutableData().object.erase(path);
    return true;
  }
  // Walk to the parent through the mutable path (detaching + cache
  // invalidation along the way), then erase the leaf.
  Value* cur = this;
  std::size_t start = 0;
  const std::string_view parent_path = path.substr(0, dot);
  for (;;) {
    const std::size_t d = parent_path.find('.', start);
    const std::string_view part =
        parent_path.substr(start, d == std::string_view::npos ? d : d - start);
    cur = &cur->MutableData().object[part];
    if (d == std::string_view::npos) break;
    start = d + 1;
  }
  cur->MutableData().object.erase(path.substr(dot + 1));
  return true;
}

namespace {

void EscapeInto(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// Byte length EscapeInto would produce, without producing it.
std::size_t EscapedJsonSize(const std::string& s) {
  std::size_t n = 2;  // quotes
  for (char c : s) {
    switch (c) {
      case '"':
      case '\\':
      case '\n':
      case '\t':
      case '\r':
        n += 2;
        break;
      default:
        n += static_cast<unsigned char>(c) < 0x20 ? 6 : 1;
    }
  }
  return n;
}

// Number of '"' and '\\' bytes EscapeInto would produce: the two
// quotes, both bytes of \" and \\, and the backslash of every other
// escape.
std::size_t EscapedJsonEscapeCount(const std::string& s) {
  std::size_t n = 2;  // quotes
  for (char c : s) {
    if (c == '"' || c == '\\') {
      n += 2;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      n += 1;
    }
  }
  return n;
}

// Stores `n` in a 32-bit memo slot (offset by `bias`, so a valid
// value never reads as "not computed"); counts that do not fit stay
// uncached.
void Memoize(std::uint32_t& slot, std::size_t n, std::size_t bias) {
  if (n + bias <= UINT32_MAX) slot = static_cast<std::uint32_t>(n + bias);
}

std::size_t IntJsonSize(std::int64_t v) {
  char buf[24];
  return static_cast<std::size_t>(
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v)));
}

std::size_t DoubleJsonSize(double d) {
  char buf[32];
  return static_cast<std::size_t>(
      std::snprintf(buf, sizeof(buf), "%.17g", d));
}

}  // namespace

void Value::SerializeTo(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(int_));
      out += buf;
      break;
    }
    case Type::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      out += buf;
      break;
    }
    case Type::kString:
      EscapeInto(data_->string, out);
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Value& v : data_->array) {
        if (!first) out += ',';
        first = false;
        v.SerializeTo(out);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : data_->object) {
        if (!first) out += ',';
        first = false;
        EscapeInto(k, out);
        out += ':';
        v.SerializeTo(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Value::Serialize() const {
  std::string out;
  out.reserve(64);
  SerializeTo(out);
  return out;
}

std::size_t Value::SerializedSize() const {
  switch (type_) {
    case Type::kNull:
      return 4;
    case Type::kBool:
      return bool_ ? 4 : 5;
    case Type::kInt:
      return IntJsonSize(int_);
    case Type::kDouble:
      return DoubleJsonSize(double_);
    case Type::kString:
    case Type::kArray:
    case Type::kObject:
      break;
  }
  if (data_->cached_size != 0) return data_->cached_size;
  std::size_t n = 0;
  if (type_ == Type::kString) {
    n = EscapedJsonSize(data_->string);
  } else if (type_ == Type::kArray) {
    n = 2;  // brackets
    if (!data_->array.empty()) n += data_->array.size() - 1;  // commas
    for (const Value& v : data_->array) n += v.SerializedSize();
  } else {
    n = 2;  // braces
    if (!data_->object.empty()) n += data_->object.size() - 1;  // commas
    for (const auto& [k, v] : data_->object) {
      n += EscapedJsonSize(k) + 1 + v.SerializedSize();  // key : value
    }
  }
  Memoize(data_->cached_size, n, 0);
  return n;
}

std::size_t Value::SerializedEscapeCount() const {
  if (!has_payload()) return 0;  // scalars render without quotes
  if (data_->cached_escapes != 0) return data_->cached_escapes - 1;
  std::size_t n = 0;
  if (type_ == Type::kString) {
    n = EscapedJsonEscapeCount(data_->string);
  } else if (type_ == Type::kArray) {
    for (const Value& v : data_->array) n += v.SerializedEscapeCount();
  } else {
    for (const auto& [k, v] : data_->object) {
      n += EscapedJsonEscapeCount(k) + v.SerializedEscapeCount();
    }
  }
  Memoize(data_->cached_escapes, n, 1);
  return n;
}

namespace {

// Recursive-descent JSON parser over the compact subset Serialize emits
// (plus whitespace tolerance, so hand-written test fixtures work).
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<Value> Parse() {
    StatusOr<Value> v = ParseValue();
    if (!v.ok()) return v;
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) {
    return InvalidArgumentError(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  StatusOr<Value> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      StatusOr<std::string> s = ParseString();
      if (!s.ok()) return s.status();
      return Value(std::move(s).value());
    }
    if (ConsumeLiteral("null")) return Value();
    if (ConsumeLiteral("true")) return Value(true);
    if (ConsumeLiteral("false")) return Value(false);
    return ParseNumber();
  }

  StatusOr<Value> ParseObject() {
    if (!Consume('{')) return Error("expected '{'");
    Value::Object obj;
    SkipWs();
    if (Consume('}')) return Value(std::move(obj));
    for (;;) {
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Error("expected ':'");
      StatusOr<Value> val = ParseValue();
      if (!val.ok()) return val;
      obj.emplace(std::move(key).value(), std::move(val).value());
      if (Consume(',')) continue;
      if (Consume('}')) return Value(std::move(obj));
      return Error("expected ',' or '}'");
    }
  }

  StatusOr<Value> ParseArray() {
    if (!Consume('[')) return Error("expected '['");
    Value::Array arr;
    SkipWs();
    if (Consume(']')) return Value(std::move(arr));
    for (;;) {
      StatusOr<Value> val = ParseValue();
      if (!val.ok()) return val;
      arr.push_back(std::move(val).value());
      if (Consume(',')) continue;
      if (Consume(']')) return Value(std::move(arr));
      return Error("expected ',' or ']'");
    }
  }

  StatusOr<std::string> ParseString() {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Status(StatusCode::kInvalidArgument, "expected string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case '/': out += '/'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Status(StatusCode::kInvalidArgument, "bad \\u escape");
            }
            const unsigned code = static_cast<unsigned>(
                std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            out += static_cast<char>(code & 0x7F);
            break;
          }
          default:
            return Status(StatusCode::kInvalidArgument, "bad escape");
        }
      } else {
        out += c;
      }
    }
    return Status(StatusCode::kInvalidArgument, "unterminated string");
  }

  StatusOr<Value> ParseNumber() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected number");
    const std::string token = text_.substr(start, pos_ - start);
    if (is_double) {
      return Value(std::strtod(token.c_str(), nullptr));
    }
    return Value(static_cast<std::int64_t>(
        std::strtoll(token.c_str(), nullptr, 10)));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<Value> Value::Parse(const std::string& text) {
  return Parser(text).Parse();
}

std::size_t JsonStringSize(const std::string& s) { return EscapedJsonSize(s); }
std::size_t JsonIntSize(std::int64_t v) { return IntJsonSize(v); }
std::size_t JsonStringEscapeCount(const std::string& s) {
  return EscapedJsonEscapeCount(s);
}

std::uint64_t Value::Hash() const {
  const std::string s = Serialize();
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

bool Value::operator==(const Value& other) const {
  // Shared payload node => structurally equal, no walk needed. (Scalars
  // have no node, so they never take this path.)
  if (has_payload() && type_ == other.type_ && data_ == other.data_) {
    return true;
  }
  if (type_ != other.type_) {
    // Int/double compare numerically so 5 == 5.0.
    if (is_number() && other.is_number()) {
      return as_double() == other.as_double();
    }
    return false;
  }
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kInt: return int_ == other.int_;
    case Type::kDouble: return double_ == other.double_;
    case Type::kString: return data_->string == other.data_->string;
    case Type::kArray: return data_->array == other.data_->array;
    case Type::kObject: return data_->object == other.data_->object;
  }
  return false;
}

void Value::DiffInto(const std::string& prefix, const Value& before,
                     const Value& after,
                     std::vector<std::pair<std::string, Value>>& out) {
  if (before == after) return;
  if (!before.is_object() || !after.is_object()) {
    out.emplace_back(prefix, after);
    return;
  }
  // Keys removed in `after` surface as explicit nulls.
  for (const auto& [k, v] : before.data_->object) {
    if (!after.contains(k)) {
      out.emplace_back(prefix.empty() ? k : prefix + "." + k, Value());
    }
  }
  for (const auto& [k, v] : after.data_->object) {
    const std::string path = prefix.empty() ? k : prefix + "." + k;
    if (!before.contains(k)) {
      out.emplace_back(path, v);
    } else {
      DiffInto(path, before[k], v, out);
    }
  }
}

std::vector<std::pair<std::string, Value>> Value::Diff(const Value& before,
                                                       const Value& after) {
  std::vector<std::pair<std::string, Value>> out;
  DiffInto("", before, after, out);
  return out;
}

}  // namespace kd::model
