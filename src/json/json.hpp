// Minimal JSON value model, parser and serializer.
//
// Every CMB message carries a JSON payload frame (paper §IV-A) and every KVS
// object is a JSON value (§IV-B), so this sits on the hot path. Design notes:
//  - Objects keep keys sorted so serialization is *canonical*: equal values
//    serialize to equal bytes, which the content-addressed KVS relies on for
//    SHA1 dedup. The backing store is a sorted flat vector (JsonObject), not
//    a node-based map: iteration is a linear scan, lookup a binary search,
//    and building from canonical (already-sorted) input is a pure append.
//  - Scalars live inline in the variant (no heap node per value); the flat
//    object also shrinks the variant's largest alternative, so a Json is one
//    vector header instead of a red-black tree.
//  - Integers are kept distinct from doubles (resource counts, versions and
//    sequence numbers must round-trip exactly).
//  - Parser is a straightforward recursive-descent over UTF-8 bytes with a
//    depth limit; errors carry byte offsets. Serialization is single-pass
//    into a caller-reusable buffer (dump_into).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "base/error.hpp"

namespace flux {

class Json;
struct JsonArrayItem;
struct JsonObjectItem;

using JsonArray = std::vector<Json>;

/// Object storage: a vector of (key, value) pairs kept sorted by key —
/// canonical order is the storage order. The interface mirrors the subset of
/// std::map the codebase uses (find/at/contains/emplace/insert_or_assign and
/// structured-binding iteration); duplicate-key semantics match std::map:
/// the initializer-list constructor keeps the FIRST occurrence, emplace
/// refuses duplicates, insert_or_assign overwrites.
class JsonObject {
 public:
  using value_type = std::pair<std::string, Json>;
  using storage = std::vector<value_type>;
  using iterator = storage::iterator;
  using const_iterator = storage::const_iterator;

  JsonObject() = default;
  JsonObject(std::initializer_list<JsonObjectItem> items);

  [[nodiscard]] iterator begin() noexcept;
  [[nodiscard]] iterator end() noexcept;
  [[nodiscard]] const_iterator begin() const noexcept;
  [[nodiscard]] const_iterator end() const noexcept;
  [[nodiscard]] const_iterator cbegin() const noexcept;
  [[nodiscard]] const_iterator cend() const noexcept;

  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] bool empty() const noexcept;
  void clear() noexcept;
  /// Pre-size the backing vector (parser fast path).
  void reserve(std::size_t n);

  [[nodiscard]] iterator find(std::string_view key) noexcept;
  [[nodiscard]] const_iterator find(std::string_view key) const noexcept;
  [[nodiscard]] bool contains(std::string_view key) const noexcept;
  /// Checked lookup; throws std::out_of_range like std::map::at.
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// Insert if absent (first-wins); returns {position, inserted}.
  std::pair<iterator, bool> emplace(std::string key, Json value);
  /// Insert or overwrite (last-wins); returns {position, inserted}.
  std::pair<iterator, bool> insert_or_assign(std::string key, Json value);
  /// Remove a key if present; returns the number of elements removed (0/1).
  std::size_t erase(std::string_view key);

  friend bool operator==(const JsonObject& a, const JsonObject& b) noexcept;
  friend bool operator!=(const JsonObject& a, const JsonObject& b) noexcept {
    return !(a == b);
  }

 private:
  /// First position whose key is >= `key`. Appends being common (canonical
  /// input is sorted), the back element is checked before binary search.
  [[nodiscard]] iterator lower_bound(std::string_view key) noexcept;

  storage items_;
};

/// A JSON value. Cheap to move; copying deep-copies.
class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}                 // NOLINT
  Json(bool b) : value_(b) {}                               // NOLINT
  Json(int v) : value_(static_cast<std::int64_t>(v)) {}     // NOLINT
  Json(unsigned v) : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(long v) : value_(static_cast<std::int64_t>(v)) {}    // NOLINT
  Json(long long v) : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(unsigned long v);                                    // NOLINT
  Json(unsigned long long v);                               // NOLINT
  Json(double v) : value_(v) {}                             // NOLINT
  Json(const char* s) : value_(std::string(s)) {}           // NOLINT
  Json(std::string_view s) : value_(std::string(s)) {}      // NOLINT
  Json(std::string s) : value_(std::move(s)) {}             // NOLINT
  Json(JsonArray a) : value_(std::move(a)) {}               // NOLINT
  Json(JsonObject o) : value_(std::move(o)) {}              // NOLINT

  /// Build an array: Json::array({1, "two", 3.0}). Rvalue items are moved
  /// in, lvalues copied (see JsonArrayItem).
  static Json array(std::initializer_list<JsonArrayItem> items = {});
  /// Build an object: Json::object({{"k", 1}, {"v", "x"}}). Rvalue keys and
  /// values are moved in, lvalues copied (see JsonObjectItem).
  static Json object(std::initializer_list<JsonObjectItem> items = {});

  [[nodiscard]] Type type() const noexcept;
  [[nodiscard]] bool is_null() const noexcept { return type() == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type() == Type::Bool; }
  [[nodiscard]] bool is_int() const noexcept { return type() == Type::Int; }
  [[nodiscard]] bool is_double() const noexcept { return type() == Type::Double; }
  [[nodiscard]] bool is_number() const noexcept { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const noexcept { return type() == Type::String; }
  [[nodiscard]] bool is_array() const noexcept { return type() == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept { return type() == Type::Object; }

  // Checked accessors; throw FluxException(EINVAL) on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;  ///< accepts Int too
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] JsonArray& as_array();
  [[nodiscard]] const JsonObject& as_object() const;
  [[nodiscard]] JsonObject& as_object();

  // Convenience object access.
  /// True if this is an object containing `key`.
  [[nodiscard]] bool contains(std::string_view key) const noexcept;
  /// Object lookup; returns a shared Null for missing keys (no insertion).
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// Mutable object lookup with insertion (value must be an object or null;
  /// null is promoted to an empty object).
  Json& operator[](std::string_view key);

  // Typed object getters with defaults — the idiom modules use to parse
  // request payloads without boilerplate.
  [[nodiscard]] std::int64_t get_int(std::string_view key, std::int64_t dflt = 0) const;
  [[nodiscard]] std::string get_string(std::string_view key, std::string dflt = {}) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool dflt = false) const;
  [[nodiscard]] double get_double(std::string_view key, double dflt = 0.0) const;

  /// Array/string size, object member count; 0 for scalars.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Append to an array (value must be array or null; null promotes).
  void push_back(Json v);

  /// Canonical serialization (sorted keys, no whitespace, shortest doubles).
  [[nodiscard]] std::string dump() const;
  /// Canonical serialization appended to `out` in a single pass — the
  /// hot-path entry point: callers clear() and reuse one buffer across
  /// messages, so steady state does no allocation at all.
  void dump_into(std::string& out) const;
  /// Pretty-printed serialization for diagnostics.
  [[nodiscard]] std::string dump_pretty(int indent = 2) const;

  /// Parse; returns Error{Proto} with a byte offset on malformed input.
  static Expected<Json> parse(std::string_view text);

  /// Deep structural equality (Int 1 != Double 1.0 by design).
  friend bool operator==(const Json& a, const Json& b) noexcept;
  friend bool operator!=(const Json& a, const Json& b) noexcept {
    return !(a == b);
  }

  /// Serialized size without building the string (sim wire-size accounting).
  /// Exact, and allocation-free.
  [[nodiscard]] std::size_t dump_size() const;

 private:
  using Value = std::variant<std::nullptr_t, bool, std::int64_t, double,
                             std::string, JsonArray, JsonObject>;

  void dump_pretty_to(std::string& out, int indent, int depth) const;

  Value value_;
};

// ---------------------------------------------------------------------------
// Initializer-list items of the Json::array / Json::object factories.
// ---------------------------------------------------------------------------
// An initializer_list's backing array is const, so factories over plain Json
// elements could only deep-copy each member out of it. These item types take
// the argument by forwarding (an rvalue is moved in, an lvalue copied once)
// and hold it in `mutable` members, so the factory moves it out again: a
// freshly built subtree passed as `std::move(x)` is never copied. Each list
// is consumed by the factory it is passed to.

/// One element of Json::array({...}).
struct JsonArrayItem {
  template <class T>
    requires std::is_constructible_v<Json, T&&>
  JsonArrayItem(T&& v) : value(std::forward<T>(v)) {}  // NOLINT
  mutable Json value;
};

/// One member of Json::object({{"key", value}, ...}); keeps the first of
/// duplicate keys, as std::map's initializer-list constructor does.
struct JsonObjectItem {
  JsonObjectItem(std::string k, Json v) : key(std::move(k)), value(std::move(v)) {}
  mutable std::string key;
  mutable Json value;
};

/// Escape a string into a JSON string literal (with surrounding quotes).
void json_escape_to(std::string& out, std::string_view s);
/// Length json_escape_to would append, without writing anything.
[[nodiscard]] std::size_t json_escaped_size(std::string_view s) noexcept;

// ---------------------------------------------------------------------------
// JsonObject inline definitions (Json is complete from here on).
// ---------------------------------------------------------------------------

inline JsonObject::iterator JsonObject::begin() noexcept { return items_.begin(); }
inline JsonObject::iterator JsonObject::end() noexcept { return items_.end(); }
inline JsonObject::const_iterator JsonObject::begin() const noexcept {
  return items_.begin();
}
inline JsonObject::const_iterator JsonObject::end() const noexcept {
  return items_.end();
}
inline JsonObject::const_iterator JsonObject::cbegin() const noexcept {
  return items_.begin();
}
inline JsonObject::const_iterator JsonObject::cend() const noexcept {
  return items_.end();
}
inline std::size_t JsonObject::size() const noexcept { return items_.size(); }
inline bool JsonObject::empty() const noexcept { return items_.empty(); }
inline void JsonObject::clear() noexcept { items_.clear(); }
inline void JsonObject::reserve(std::size_t n) { items_.reserve(n); }

inline JsonObject::iterator JsonObject::lower_bound(std::string_view key) noexcept {
  if (items_.empty() || items_.back().first < key) return items_.end();
  auto lo = items_.begin();
  auto hi = items_.end();
  while (lo != hi) {
    auto mid = lo + (hi - lo) / 2;
    if (mid->first < key)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

inline JsonObject::iterator JsonObject::find(std::string_view key) noexcept {
  auto it = lower_bound(key);
  return (it != items_.end() && it->first == key) ? it : items_.end();
}

inline JsonObject::const_iterator JsonObject::find(std::string_view key) const noexcept {
  return const_cast<JsonObject*>(this)->find(key);
}

inline bool JsonObject::contains(std::string_view key) const noexcept {
  return find(key) != items_.end();
}

inline std::pair<JsonObject::iterator, bool> JsonObject::emplace(std::string key,
                                                                 Json value) {
  auto it = lower_bound(key);
  if (it != items_.end() && it->first == key) return {it, false};
  it = items_.emplace(it, std::move(key), std::move(value));
  return {it, true};
}

inline std::pair<JsonObject::iterator, bool> JsonObject::insert_or_assign(
    std::string key, Json value) {
  auto it = lower_bound(key);
  if (it != items_.end() && it->first == key) {
    it->second = std::move(value);
    return {it, false};
  }
  it = items_.emplace(it, std::move(key), std::move(value));
  return {it, true};
}

inline std::size_t JsonObject::erase(std::string_view key) {
  auto it = find(key);
  if (it == items_.end()) return 0;
  items_.erase(it);
  return 1;
}

inline JsonObject::JsonObject(std::initializer_list<JsonObjectItem> items) {
  items_.reserve(items.size());
  for (const JsonObjectItem& item : items)
    emplace(std::move(item.key), std::move(item.value));
}

inline bool operator==(const JsonObject& a, const JsonObject& b) noexcept {
  return a.items_ == b.items_;
}

}  // namespace flux
