#pragma once

/// \file json.h
/// Minimal JSON layer for machine-readable scenario output and for reading
/// it back (slice merge, artifact validation).
///
/// JsonValue is the one JSON type: a strict recursive-descent parser
/// (depth-capped, bounds-checked), a small builder API, and the one
/// emitter behind dump() and write_file():
///
///   JsonValue doc = JsonValue::object();
///   doc.set("nodes", JsonValue::of(600));
///   doc.set("schemes", JsonValue::array().push(JsonValue::of("GF")));
///   std::string text = doc.dump();  // {"nodes":600,"schemes":["GF"]}
///
/// Output is compact, and object members keep insertion (or document)
/// order. Numbers keep an exact int64/uint64 representation when the token
/// is integral, so 64-bit seeds and counters round-trip exactly; doubles
/// are emitted with %.17g (a non-finite double as null) and parsed with
/// from_chars, so finite doubles round-trip bit-exactly too.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spr {

/// A parsed (or programmatically built) JSON document node.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  /// One object member; members keep insertion/document order.
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  ///< null

  // ------------------------------------------------------------ builders
  /// An empty array with room for `capacity` items.
  static JsonValue array(std::size_t capacity = 0);
  static JsonValue object();
  static JsonValue of(bool flag);
  static JsonValue of(double number);
  static JsonValue of(std::int64_t number);
  static JsonValue of(std::uint64_t number);
  static JsonValue of(int number) { return of(static_cast<std::int64_t>(number)); }
  static JsonValue of(std::string_view text);
  static JsonValue of(const char* text) { return of(std::string_view(text)); }

  /// Appends to an array. A non-array target (null or scalar) is replaced
  /// by a fresh array first.
  JsonValue& push(JsonValue item);
  /// Sets an object member, replacing an existing key. A non-object target
  /// (null or scalar) is replaced by a fresh object first. Returns *this
  /// for chaining.
  JsonValue& set(std::string key, JsonValue value);

  // ------------------------------------------------------------ inspection
  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  /// True for numbers carried exactly as int64/uint64 (an integral token,
  /// or a value built from an integer) — what strict integer readers check
  /// so "1.7" can't silently truncate into an index.
  bool is_integer() const noexcept {
    return kind_ == Kind::kNumber && repr_ != NumRepr::kDouble;
  }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool(bool fallback = false) const noexcept;
  double as_double(double fallback = 0.0) const noexcept;
  std::int64_t as_int64(std::int64_t fallback = 0) const noexcept;
  std::uint64_t as_uint64(std::uint64_t fallback = 0) const noexcept;
  /// String payload; empty for non-strings.
  const std::string& as_string() const noexcept;

  /// Element / member count (0 for scalars).
  std::size_t size() const noexcept;
  /// Array element, or a shared null when out of range / not an array.
  const JsonValue& at(std::size_t index) const noexcept;
  /// Object member by key, or nullptr when absent / not an object.
  const JsonValue* find(std::string_view key) const noexcept;
  /// Object member by key, or a shared null when absent.
  const JsonValue& get(std::string_view key) const noexcept;

  const std::vector<JsonValue>& items() const noexcept { return items_; }
  const std::vector<Member>& members() const noexcept { return members_; }

  // ------------------------------------------------------------ round-trip
  /// The value as a standalone compact document.
  std::string dump() const;
  /// Writes dump() and a newline to `path`; returns false on I/O error.
  bool write_file(const std::string& path) const;

  /// Strict parse of a complete document (one value plus whitespace).
  /// Returns false on malformed input; `error`, when non-null, receives a
  /// short message with the byte offset. Never throws, never reads out of
  /// bounds; nesting deeper than 200 levels is rejected.
  static bool parse(std::string_view text, JsonValue& out,
                    std::string* error = nullptr);
  /// parse() over a file's contents; false on I/O error too.
  static bool parse_file(const std::string& path, JsonValue& out,
                         std::string* error = nullptr);

 private:
  enum class NumRepr : std::uint8_t { kDouble, kInt64, kUint64 };

  /// Appends this value's compact text to `out`.
  void dump_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  NumRepr repr_ = NumRepr::kDouble;
  bool bool_ = false;
  union {  // the one `repr_` names
    double number_ = 0.0;
    std::int64_t int_;
    std::uint64_t uint_;
  };
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;

  friend class JsonParser;
};

}  // namespace spr
