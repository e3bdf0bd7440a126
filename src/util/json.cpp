#include "util/json.hpp"

#include <cerrno>
#include <climits>
#include <cstdlib>

namespace ep {

namespace {

/// Deep enough for any real plan/report file, shallow enough that a
/// pathological input cannot exhaust the parser's stack.
constexpr int kMaxDepth = 128;

}  // namespace

std::string_view JsonValue::type_name() const {
  switch (type_) {
    case Type::null: return "null";
    case Type::boolean: return "boolean";
    case Type::number: return "number";
    case Type::string: return "string";
    case Type::array: return "array";
    case Type::object: return "object";
  }
  return "?";
}

bool JsonValue::as_bool() const {
  if (type_ != Type::boolean)
    throw JsonError("expected boolean, got " + std::string(type_name()));
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::number)
    throw JsonError("expected number, got " + std::string(type_name()));
  return number_;
}

long long JsonValue::as_int() const {
  double n = as_number();
  if (exact_int_) {
    // -(m - 1) - 1 negates 2^63 without overflowing long long.
    if (negative_) return -static_cast<long long>(magnitude_ - 1) - 1;
    if (magnitude_ > static_cast<std::uint64_t>(LLONG_MAX))
      throw JsonError("integer out of range");
    return static_cast<long long>(magnitude_);
  }
  // Range-check before the cast: double -> long long outside the
  // representable range is UB, and the number came from untrusted input.
  if (n < -9223372036854775808.0 || n >= 9223372036854775808.0)
    throw JsonError("integer out of range");
  auto i = static_cast<long long>(n);
  if (static_cast<double>(i) != n)
    throw JsonError("expected integer, got non-integral number");
  return i;
}

std::uint64_t JsonValue::as_uint64() const {
  double n = as_number();
  if (exact_int_) {
    if (negative_) throw JsonError("integer out of range");
    return magnitude_;
  }
  if (n < 0.0 || n >= 18446744073709551616.0)
    throw JsonError("integer out of range");
  auto u = static_cast<std::uint64_t>(n);
  if (static_cast<double>(u) != n)
    throw JsonError("expected integer, got non-integral number");
  return u;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::string)
    throw JsonError("expected string, got " + std::string(type_name()));
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::array)
    throw JsonError("expected array, got " + std::string(type_name()));
  return items_;
}

const JsonValue::Members& JsonValue::members() const {
  if (type_ != Type::object)
    throw JsonError("expected object, got " + std::string(type_name()));
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::object) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (type_ != Type::object)
    throw JsonError("expected object with key '" + std::string(key) +
                    "', got " + std::string(type_name()));
  if (const JsonValue* v = find(key)) return *v;
  throw JsonError("missing key '" + std::string(key) + "'");
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::boolean;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.type_ = Type::number;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_int(long long n) {
  JsonValue v = make_number(static_cast<double>(n));
  v.exact_int_ = true;
  v.negative_ = n < 0;
  // |n| in unsigned arithmetic, which holds 2^63 too.
  v.magnitude_ = n < 0 ? 0 - static_cast<std::uint64_t>(n)
                       : static_cast<std::uint64_t>(n);
  return v;
}

JsonValue JsonValue::make_uint64(std::uint64_t n) {
  JsonValue v = make_number(static_cast<double>(n));
  v.exact_int_ = true;
  v.magnitude_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::string;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::array;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(Members members) {
  JsonValue v;
  v.type_ = Type::object;
  v.members_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after JSON document");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError(msg, line, col);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      ++pos_;
    }
  }

  void expect(char c, const char* what) {
    if (eof() || peek() != c)
      fail(std::string("expected ") + what + " ('" + c + "')");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{', "object");
    JsonValue::Members members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      for (const auto& [k, v] : members)
        if (k == key) fail("duplicate object key '" + key + "'");
      skip_ws();
      expect(':', "':' after object key");
      skip_ws();
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}', "'}' or ',' in object");
      return JsonValue::make_object(std::move(members));
    }
  }

  JsonValue parse_array(int depth) {
    expect('[', "array");
    std::vector<JsonValue> items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(parse_value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']', "']' or ',' in array");
      return JsonValue::make_array(std::move(items));
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("unterminated \\u escape");
      char c = peek();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
      ++pos_;
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"', "string");
    std::string out;
    for (;;) {
      // Bulk-copy the run of plain characters up to the next quote,
      // escape, or control byte: wire files are mostly paths and
      // descriptions, and appending them per character dominated the
      // parse profile.
      std::size_t run = pos_;
      while (run < text_.size()) {
        unsigned char c = static_cast<unsigned char>(text_[run]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++run;
      }
      if (run > pos_) {
        out.append(text_.data() + pos_, run - pos_);
        pos_ = run;
      }
      if (eof()) fail("unterminated string");
      char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape sequence");
      char e = peek();
      ++pos_;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // A high surrogate is only half a code point: the very next
            // characters must be the `\u` of its low half. Anything else
            // — the closing quote, literal text, another escape, or end
            // of input — leaves it unpaired.
            if (!consume_literal("\\u"))
              fail("unpaired high surrogate (\\u low-surrogate escape "
                   "must follow)");
            unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF)
              fail("invalid low surrogate in \\u pair");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate (no preceding high surrogate)");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape sequence");
      }
    }
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    bool leading_zero = peek() == '0';
    while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    if (leading_zero && pos_ - start > (text_[start] == '-' ? 2u : 1u))
      fail("leading zero in number");
    bool integral = eof() || (peek() != '.' && peek() != 'e' && peek() != 'E');
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        fail("digit expected after decimal point");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        fail("digit expected in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    // Integral literals are read exactly over [-2^63, 2^64 - 1], not
    // through a double: search-generated params reach 2^63 - 1, seeds
    // 2^64 - 1, and a double holds integers exactly only up to 2^53. It
    // is also the fast path (ids, counts, lines) — no strtod, no heap
    // slice. Past the range the literal falls through to strtod, and
    // as_int() and as_uint64() reject it.
    if (integral) {
      const bool neg = text_[start] == '-';
      const std::uint64_t cap =
          neg ? 9223372036854775808ULL : 18446744073709551615ULL;
      std::uint64_t mag = 0;
      std::size_t i = start + (neg ? 1 : 0);
      for (; i < pos_; ++i) {
        auto digit = static_cast<std::uint64_t>(text_[i] - '0');
        if (mag > (cap - digit) / 10) break;
        mag = mag * 10 + digit;
      }
      if (i == pos_) {
        if (!neg || mag == 0) return JsonValue::make_uint64(mag);
        // -(mag - 1) - 1 negates 2^63 without overflowing long long.
        return JsonValue::make_int(-static_cast<long long>(mag - 1) - 1);
      }
    }
    std::string slice(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(slice.c_str(), &end);
    if (end != slice.c_str() + slice.size() || errno == ERANGE)
      fail("number out of range");
    return JsonValue::make_number(v);
  }
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace ep
