#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <unordered_map>

namespace spr {

namespace {

void append_escaped(std::string& out, std::string_view text) {
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Appends what std::to_chars prints for `number` (and `format`, if any).
template <typename Number, typename... Format>
void append_chars(std::string& out, Number number, Format... format) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, number, format...).ptr);
}

const JsonValue kNullValue{};

}  // namespace

JsonValue JsonValue::array(std::size_t capacity) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_.reserve(capacity);
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue JsonValue::of(bool flag) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = flag;
  return v;
}

JsonValue JsonValue::of(double number) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = number;
  v.repr_ = NumRepr::kDouble;
  return v;
}

JsonValue JsonValue::of(std::int64_t number) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.int_ = number;
  v.repr_ = NumRepr::kInt64;
  return v;
}

JsonValue JsonValue::of(std::uint64_t number) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.uint_ = number;
  v.repr_ = NumRepr::kUint64;
  return v;
}

JsonValue JsonValue::of(std::string_view text) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::string(text);
  return v;
}

JsonValue& JsonValue::push(JsonValue item) {
  if (kind_ != Kind::kArray) *this = array();
  items_.push_back(std::move(item));
  return *this;
}

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  if (kind_ != Kind::kObject) *this = object();
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

bool JsonValue::as_bool(bool fallback) const noexcept {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double JsonValue::as_double(double fallback) const noexcept {
  if (kind_ != Kind::kNumber) return fallback;
  switch (repr_) {
    case NumRepr::kInt64: return static_cast<double>(int_);
    case NumRepr::kUint64: return static_cast<double>(uint_);
    default: return number_;
  }
}

std::int64_t JsonValue::as_int64(std::int64_t fallback) const noexcept {
  if (kind_ != Kind::kNumber) return fallback;
  switch (repr_) {
    case NumRepr::kInt64: return int_;
    case NumRepr::kUint64:
      return uint_ <= static_cast<std::uint64_t>(INT64_MAX)
                 ? static_cast<std::int64_t>(uint_)
                 : fallback;
    default:
      // Range-checked: casting an out-of-range double is UB. 2^63 is
      // exactly representable, so [-2^63, 2^63) is the safe window.
      return std::isfinite(number_) && number_ >= -9223372036854775808.0 &&
                     number_ < 9223372036854775808.0
                 ? static_cast<std::int64_t>(number_)
                 : fallback;
  }
}

std::uint64_t JsonValue::as_uint64(std::uint64_t fallback) const noexcept {
  if (kind_ != Kind::kNumber) return fallback;
  switch (repr_) {
    case NumRepr::kInt64:
      return int_ >= 0 ? static_cast<std::uint64_t>(int_) : fallback;
    case NumRepr::kUint64: return uint_;
    default:
      // Range-checked as in as_int64: [0, 2^64) casts safely.
      return std::isfinite(number_) && number_ >= 0.0 &&
                     number_ < 18446744073709551616.0
                 ? static_cast<std::uint64_t>(number_)
                 : fallback;
  }
}

const std::string& JsonValue::as_string() const noexcept {
  static const std::string kEmpty;
  return kind_ == Kind::kString ? string_ : kEmpty;
}

std::size_t JsonValue::size() const noexcept {
  if (kind_ == Kind::kArray) return items_.size();
  if (kind_ == Kind::kObject) return members_.size();
  return 0;
}

const JsonValue& JsonValue::at(std::size_t index) const noexcept {
  if (kind_ != Kind::kArray || index >= items_.size()) return kNullValue;
  return items_[index];
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::get(std::string_view key) const noexcept {
  const JsonValue* v = find(key);
  return v != nullptr ? *v : kNullValue;
}

void JsonValue::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber:
      switch (repr_) {
        case NumRepr::kInt64: append_chars(out, int_); break;
        case NumRepr::kUint64: append_chars(out, uint_); break;
        default:
          if (std::isfinite(number_)) {
            // With a precision, to_chars prints what printf's %.17g prints.
            append_chars(out, number_, std::chars_format::general, 17);
          } else {
            out += "null";  // JSON has no Inf/NaN
          }
      }
      break;
    case Kind::kString: append_escaped(out, string_); break;
    case Kind::kArray:
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out.push_back(',');
        items_[i].dump_to(out);
      }
      out.push_back(']');
      break;
    case Kind::kObject:
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out.push_back(',');
        append_escaped(out, members_[i].first);
        out.push_back(':');
        members_[i].second.dump_to(out);
      }
      out.push_back('}');
      break;
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

bool JsonValue::write_file(const std::string& path) const {
  const std::string text = dump();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

// ------------------------------------------------------------------ parser

/// Strict, bounds-checked recursive-descent parser. Keeps a byte cursor
/// into the input view; every advance checks the remaining length.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse_document(JsonValue& out, std::string* error) {
    skip_ws();
    if (!parse_value(out, 0)) {
      if (error != nullptr) *error = error_ + " at byte " + std::to_string(pos_);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing characters at byte " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 200;

  bool fail(const char* message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  bool eof() const noexcept { return pos_ >= text_.size(); }
  char peek() const noexcept { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) return fail("invalid literal");
        out = JsonValue();
        return true;
      case 't':
        if (!consume_literal("true")) return fail("invalid literal");
        out = JsonValue::of(true);
        return true;
      case 'f':
        if (!consume_literal("false")) return fail("invalid literal");
        out = JsonValue::of(false);
        return true;
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue::of(std::string_view(s));
        return true;
      }
      case '[': return parse_array(out, depth);
      case '{': return parse_object(out, depth);
      default: return parse_number(out);
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    ++pos_;  // '['
    out = JsonValue::array();
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue item;
      skip_ws();
      if (!parse_value(item, depth + 1)) return false;
      out.push(std::move(item));
      skip_ws();
      if (eof()) return fail("unterminated array");
      char c = peek();
      ++pos_;
      if (c == ']') return true;
      if (c != ',') return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out = JsonValue::object();
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':' after key");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members_.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (eof()) return fail("unterminated object");
      char c = peek();
      ++pos_;
      if (c == '}') {
        drop_duplicate_keys(out.members_);
        return true;
      }
      if (c != ',') return fail("expected ',' or '}' in object");
    }
  }

  /// Duplicate keys, like most readers and like `set` member by member:
  /// the last value wins, at the first key's position. One hashed pass, so
  /// a wide object parses in linear time.
  static void drop_duplicate_keys(std::vector<JsonValue::Member>& members) {
    if (members.size() < 2) return;
    std::unordered_map<std::string_view, std::size_t> first;
    first.reserve(members.size());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      auto seen = first.find(members[i].first);
      if (seen != first.end()) {
        members[seen->second].second = std::move(members[i].second);
        continue;
      }
      if (kept != i) members[kept] = std::move(members[i]);
      // The view is taken after the move: it names the kept key's bytes.
      first.emplace(members[kept].first, kept);
      ++kept;
    }
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(kept),
                  members.end());
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
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

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + static_cast<std::size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("invalid \\u escape");
    }
    pos_ += 4;
    out = value;
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (eof()) return fail("unterminated string");
      char c = peek();
      ++pos_;
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) return fail("unterminated escape");
      char e = peek();
      ++pos_;
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
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("lone high surrogate");
            }
            pos_ += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return fail("invalid surrogate pair");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("invalid escape character");
      }
    }
  }

  bool parse_number(JsonValue& out) {
    std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') return fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    bool integral = true;
    if (!eof() && peek() == '.') {
      integral = false;
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') return fail("digits expected after '.'");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') return fail("digits expected in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral) {
      std::int64_t i = 0;
      auto [p, ec] = std::from_chars(first, last, i);
      if (ec == std::errc() && p == last) {
        // "-0" must stay a negative-zero double to round-trip bit-exactly.
        out = (i == 0 && *first == '-') ? JsonValue::of(-0.0)
                                        : JsonValue::of(i);
        return true;
      }
      if (*first != '-') {
        std::uint64_t u = 0;
        auto [pu, ecu] = std::from_chars(first, last, u);
        if (ecu == std::errc() && pu == last) {
          out = JsonValue::of(u);
          return true;
        }
      }
      // Integer too large for 64 bits: fall through to double.
    }
    double d = 0.0;
    auto [pd, ecd] = std::from_chars(first, last, d);
    if (ecd == std::errc{} && pd == last) {
      out = JsonValue::of(d);
      return true;
    }
    if (ecd == std::errc::result_out_of_range) {
      // from_chars leaves the output unmodified here; strtod gives the
      // IEEE-correct result for the rare out-of-range token (+-HUGE_VAL on
      // overflow, signed zero on underflow). JSON allows the token.
      std::string token(first, last);
      out = JsonValue::of(std::strtod(token.c_str(), nullptr));
      return true;
    }
    return fail("invalid number");
  }

  // spr-analyze: allow(view-lifetime) parser is a stack local consumed
  // inside JsonValue::parse before the text argument goes out of scope
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

bool JsonValue::parse(std::string_view text, JsonValue& out,
                      std::string* error) {
  JsonParser parser(text);
  JsonValue result;
  if (!parser.parse_document(result, error)) return false;
  out = std::move(result);
  return true;
}

bool JsonValue::parse_file(const std::string& path, JsonValue& out,
                           std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::string contents;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, got);
  }
  bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    if (error != nullptr) *error = "read error on " + path;
    return false;
  }
  return parse(contents, out, error);
}

}  // namespace spr
