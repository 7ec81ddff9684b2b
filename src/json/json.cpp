#include "json/json.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace flux {

namespace {
const Json kNull{};

[[noreturn]] void type_error(const char* what) {
  throw FluxException(Error(errc::inval, std::string("json: not a ") + what));
}
}  // namespace

const Json& JsonObject::at(std::string_view key) const {
  auto it = find(key);
  if (it == end())
    throw std::out_of_range("JsonObject::at: no key " + std::string(key));
  return it->second;
}

Json::Json(unsigned long v) {
  if (v > static_cast<unsigned long>(std::numeric_limits<std::int64_t>::max()))
    value_ = static_cast<double>(v);
  else
    value_ = static_cast<std::int64_t>(v);
}

Json::Json(unsigned long long v) {
  if (v > static_cast<unsigned long long>(std::numeric_limits<std::int64_t>::max()))
    value_ = static_cast<double>(v);
  else
    value_ = static_cast<std::int64_t>(v);
}

Json Json::array(std::initializer_list<JsonArrayItem> items) {
  JsonArray arr;
  arr.reserve(items.size());
  for (const JsonArrayItem& item : items) arr.push_back(std::move(item.value));
  return Json(std::move(arr));
}

Json Json::object(std::initializer_list<JsonObjectItem> items) {
  return Json(JsonObject(items));
}

Json::Type Json::type() const noexcept {
  return static_cast<Type>(value_.index());
}

bool Json::as_bool() const {
  if (auto* b = std::get_if<bool>(&value_)) return *b;
  type_error("bool");
}

std::int64_t Json::as_int() const {
  if (auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  type_error("int");
}

double Json::as_double() const {
  if (auto* d = std::get_if<double>(&value_)) return *d;
  if (auto* i = std::get_if<std::int64_t>(&value_))
    return static_cast<double>(*i);
  type_error("number");
}

const std::string& Json::as_string() const {
  if (auto* s = std::get_if<std::string>(&value_)) return *s;
  type_error("string");
}

const JsonArray& Json::as_array() const {
  if (auto* a = std::get_if<JsonArray>(&value_)) return *a;
  type_error("array");
}

JsonArray& Json::as_array() {
  if (auto* a = std::get_if<JsonArray>(&value_)) return *a;
  type_error("array");
}

const JsonObject& Json::as_object() const {
  if (auto* o = std::get_if<JsonObject>(&value_)) return *o;
  type_error("object");
}

JsonObject& Json::as_object() {
  if (auto* o = std::get_if<JsonObject>(&value_)) return *o;
  type_error("object");
}

bool Json::contains(std::string_view key) const noexcept {
  auto* o = std::get_if<JsonObject>(&value_);
  return o != nullptr && o->find(key) != o->end();
}

const Json& Json::at(std::string_view key) const {
  if (auto* o = std::get_if<JsonObject>(&value_)) {
    auto it = o->find(key);
    if (it != o->end()) return it->second;
  }
  return kNull;
}

Json& Json::operator[](std::string_view key) {
  if (is_null()) value_ = JsonObject{};
  auto& obj = as_object();
  return obj.emplace(std::string(key), Json()).first->second;
}

std::int64_t Json::get_int(std::string_view key, std::int64_t dflt) const {
  const Json& v = at(key);
  if (v.is_int()) return v.as_int();
  if (v.is_double()) return static_cast<std::int64_t>(v.as_double());
  return dflt;
}

std::string Json::get_string(std::string_view key, std::string dflt) const {
  const Json& v = at(key);
  return v.is_string() ? v.as_string() : std::move(dflt);
}

bool Json::get_bool(std::string_view key, bool dflt) const {
  const Json& v = at(key);
  return v.is_bool() ? v.as_bool() : dflt;
}

double Json::get_double(std::string_view key, double dflt) const {
  const Json& v = at(key);
  return v.is_number() ? v.as_double() : dflt;
}

std::size_t Json::size() const noexcept {
  switch (type()) {
    case Type::Array: return std::get<JsonArray>(value_).size();
    case Type::Object: return std::get<JsonObject>(value_).size();
    case Type::String: return std::get<std::string>(value_).size();
    default: return 0;
  }
}

void Json::push_back(Json v) {
  if (is_null()) value_ = JsonArray{};
  as_array().push_back(std::move(v));
}

bool operator==(const Json& a, const Json& b) noexcept {
  return a.value_ == b.value_;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

/// True for bytes that can be copied into a string literal verbatim.
inline bool plain_char(unsigned char c) noexcept {
  return c >= 0x20 && c != '"' && c != '\\';
}

}  // namespace

void json_escape_to(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t i = 0;
  while (i < s.size()) {
    // Bulk-copy the run of plain characters (the whole string, usually).
    std::size_t run = i;
    while (run < s.size() && plain_char(static_cast<unsigned char>(s[run])))
      ++run;
    out.append(s.data() + i, run - i);
    i = run;
    if (i >= s.size()) break;
    const auto c = static_cast<unsigned char>(s[i++]);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.push_back('"');
}

std::size_t json_escaped_size(std::string_view s) noexcept {
  std::size_t n = 2;  // quotes
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    if (plain_char(c))
      n += 1;
    else
      switch (c) {
        case '"': case '\\': case '\b': case '\f':
        case '\n': case '\r': case '\t': n += 2; break;
        default: n += 6; break;  // \uXXXX
      }
  }
  return n;
}

namespace {

void dump_double_to(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON has no NaN/Inf; emit null (matches common library behaviour).
    out += "null";
    return;
  }
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d);
  assert(ec == std::errc());
  out.append(buf, ptr);
  // Ensure a double never parses back as an int (canonical round-trip).
  if (std::memchr(buf, '.', static_cast<std::size_t>(ptr - buf)) == nullptr &&
      std::memchr(buf, 'e', static_cast<std::size_t>(ptr - buf)) == nullptr &&
      std::memchr(buf, 'E', static_cast<std::size_t>(ptr - buf)) == nullptr &&
      std::memchr(buf, 'n', static_cast<std::size_t>(ptr - buf)) == nullptr)
    out += ".0";
}

std::size_t double_dump_size(double d) {
  char buf[40];
  std::string tmp;  // small; stays in SSO
  tmp.reserve(sizeof buf);
  dump_double_to(tmp, d);
  return tmp.size();
}

}  // namespace

void Json::dump_into(std::string& out) const {
  switch (type()) {
    case Type::Null: out += "null"; return;
    case Type::Bool: out += (std::get<bool>(value_) ? "true" : "false"); return;
    case Type::Int: {
      char buf[24];
      auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf,
                                     std::get<std::int64_t>(value_));
      assert(ec == std::errc());
      out.append(buf, ptr);
      return;
    }
    case Type::Double: dump_double_to(out, std::get<double>(value_)); return;
    case Type::String: json_escape_to(out, std::get<std::string>(value_)); return;
    case Type::Array: {
      out.push_back('[');
      const auto& arr = std::get<JsonArray>(value_);
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out.push_back(',');
        arr[i].dump_into(out);
      }
      out.push_back(']');
      return;
    }
    case Type::Object: {
      out.push_back('{');
      const auto& obj = std::get<JsonObject>(value_);
      bool first = true;
      for (const auto& [k, v] : obj) {
        if (!first) out.push_back(',');
        first = false;
        json_escape_to(out, k);
        out.push_back(':');
        v.dump_into(out);
      }
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  // Single pass: amortized growth beats a full pre-walk for sizing. Callers
  // on the hot path should prefer dump_into with a reused buffer.
  std::string out;
  dump_into(out);
  return out;
}

std::size_t Json::dump_size() const {
  switch (type()) {
    case Type::Null: return 4;
    case Type::Bool: return std::get<bool>(value_) ? 4 : 5;
    case Type::Int: {
      char buf[24];
      auto [ptr, ec] =
          std::to_chars(buf, buf + sizeof buf, std::get<std::int64_t>(value_));
      (void)ec;
      return static_cast<std::size_t>(ptr - buf);
    }
    case Type::Double: return double_dump_size(std::get<double>(value_));
    case Type::String: return json_escaped_size(std::get<std::string>(value_));
    case Type::Array: {
      const auto& arr = std::get<JsonArray>(value_);
      std::size_t n = 2 + (arr.empty() ? 0 : arr.size() - 1);
      for (const auto& v : arr) n += v.dump_size();
      return n;
    }
    case Type::Object: {
      const auto& obj = std::get<JsonObject>(value_);
      std::size_t n = 2 + (obj.empty() ? 0 : obj.size() - 1);
      for (const auto& [k, v] : obj)
        n += json_escaped_size(k) + 1 + v.dump_size();
      return n;
    }
  }
  return 0;
}

void Json::dump_pretty_to(std::string& out, int indent, int depth) const {
  auto pad = [&](int d) { out.append(static_cast<std::size_t>(indent * d), ' '); };
  switch (type()) {
    case Type::Array: {
      const auto& arr = std::get<JsonArray>(value_);
      if (arr.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < arr.size(); ++i) {
        pad(depth + 1);
        arr[i].dump_pretty_to(out, indent, depth + 1);
        if (i + 1 < arr.size()) out.push_back(',');
        out.push_back('\n');
      }
      pad(depth);
      out.push_back(']');
      return;
    }
    case Type::Object: {
      const auto& obj = std::get<JsonObject>(value_);
      if (obj.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      std::size_t i = 0;
      for (const auto& [k, v] : obj) {
        pad(depth + 1);
        json_escape_to(out, k);
        out += ": ";
        v.dump_pretty_to(out, indent, depth + 1);
        if (++i < obj.size()) out.push_back(',');
        out.push_back('\n');
      }
      pad(depth);
      out.push_back('}');
      return;
    }
    default:
      dump_into(out);
  }
}

std::string Json::dump_pretty(int indent) const {
  std::string out;
  dump_pretty_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Expected<Json> run() {
    skip_ws();
    Json v;
    if (auto st = parse_value(v, 0); !st) return st.error();
    skip_ws();
    if (pos_ != text_.size()) return err("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 200;

  Error err(const std::string& what) const {
    return Error(errc::proto,
                 "json parse error at byte " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) return err("nesting too deep");
    if (pos_ >= text_.size()) return err("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        if (auto st = expect("null"); !st) return st;
        out = Json();
        return {};
      case 't':
        if (auto st = expect("true"); !st) return st;
        out = Json(true);
        return {};
      case 'f':
        if (auto st = expect("false"); !st) return st;
        out = Json(false);
        return {};
      case '"': {
        std::string s;
        if (auto st = parse_string(s); !st) return st;
        out = Json(std::move(s));
        return {};
      }
      case '[': return parse_array(out, depth);
      case '{': return parse_object(out, depth);
      default: return parse_number(out);
    }
  }

  Status expect(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return err("invalid literal");
    pos_ += lit.size();
    return {};
  }

  Status parse_array(Json& out, int depth) {
    ++pos_;  // '['
    JsonArray arr;
    skip_ws();
    if (eat(']')) {
      out = Json(std::move(arr));
      return {};
    }
    // A non-empty array element costs >= 2 input bytes ("x," / "1,"), so the
    // remaining input bounds the element count; seed the vector with a
    // conservative slice of that instead of growing from zero.
    arr.reserve(std::min<std::size_t>((text_.size() - pos_) / 2 + 1, 64));
    while (true) {
      Json v;
      skip_ws();
      if (auto st = parse_value(v, depth + 1); !st) return st;
      arr.push_back(std::move(v));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) break;
      return err("expected ',' or ']'");
    }
    out = Json(std::move(arr));
    return {};
  }

  Status parse_object(Json& out, int depth) {
    ++pos_;  // '{'
    JsonObject obj;
    skip_ws();
    if (eat('}')) {
      out = Json(std::move(obj));
      return {};
    }
    // A member costs >= 5 input bytes ("k":v, quotes included).
    obj.reserve(std::min<std::size_t>((text_.size() - pos_) / 5 + 1, 64));
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return err("expected object key");
      std::string key;
      if (auto st = parse_string(key); !st) return st;
      skip_ws();
      if (!eat(':')) return err("expected ':'");
      skip_ws();
      Json v;
      if (auto st = parse_value(v, depth + 1); !st) return st;
      // Canonical input arrives sorted, so insert_or_assign's append fast
      // path makes this loop linear; duplicate keys stay last-wins.
      obj.insert_or_assign(std::move(key), std::move(v));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) break;
      return err("expected ',' or '}'");
    }
    out = Json(std::move(obj));
    return {};
  }

  Status parse_string(std::string& out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      // Bulk-copy the run up to the next quote, escape, or control byte —
      // for typical payloads that is the entire string in one append.
      std::size_t run = pos_;
      while (run < text_.size()) {
        const auto c = static_cast<unsigned char>(text_[run]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++run;
      }
      out.append(text_.data() + pos_, run - pos_);
      pos_ = run;
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return {};
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return err("control character in string");
      // Escape sequence.
      ++pos_;
      if (pos_ >= text_.size()) return err("bad escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (auto st = parse_hex4(cp); !st) return st;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // Surrogate pair.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              return err("unpaired surrogate");
            pos_ += 2;
            unsigned lo = 0;
            if (auto st = parse_hex4(lo); !st) return st;
            if (lo < 0xDC00 || lo > 0xDFFF) return err("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return err("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return err("bad escape character");
      }
    }
    return err("unterminated string");
  }

  Status parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return err("bad \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<unsigned>(c - 'A' + 10);
      else
        return err("bad \\u escape");
    }
    pos_ += 4;
    out = v;
    return {};
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status parse_number(Json& out) {
    const std::size_t start = pos_;
    if (eat('-')) { /* sign */ }
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9'))
      return err("invalid number");
    bool is_double = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      if (pos_ >= text_.size() || !(text_[pos_] >= '0' && text_[pos_] <= '9'))
        return err("invalid fraction");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !(text_[pos_] >= '0' && text_[pos_] <= '9'))
        return err("invalid exponent");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t v = 0;
      auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc() && ptr == tok.data() + tok.size()) {
        out = Json(v);
        return {};
      }
      // Out of int64 range: fall through to double.
    }
    double d = 0;
    auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || ptr != tok.data() + tok.size())
      return err("invalid number");
    out = Json(d);
    return {};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Expected<Json> Json::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace flux
