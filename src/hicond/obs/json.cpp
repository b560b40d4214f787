#include "hicond/obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "hicond/util/common.hpp"

namespace hicond::obs {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void JsonWriter::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  if (!std::isfinite(d)) return null();
  comma();
  append_double(out_, d);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  comma();
  out_ += std::to_string(i);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  need_comma_ = true;
  return *this;
}

void append_double(std::string& out, double d) {
  // to_chars with a precision is specified as printf's %.*g in the C
  // locale, so these are the bytes "%.17g" printed, without the format
  // parsing and locale lookups of snprintf. 32 bytes hold the longest,
  // "-2.2250738585072014e-308".
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17);
  HICOND_ASSERT(r.ec == std::errc{});
  out.append(buf, r.ptr);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// Containers nested deeper than this are rejected. The parser recurses
  /// once per level, so the limit is what bounds stack usage on adversarial
  /// input ("[[[[..."); 128 is far beyond anything the exporters emit.
  static constexpr int kMaxDepth = 128;

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw invalid_argument_error("JSON parse error at byte " +
                                 std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::string;
        v.string = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::boolean;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::boolean;
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    if (++depth_ > kMaxDepth) fail("nesting deeper than 128 levels");
    JsonValue v;
    v.kind = JsonValue::Kind::object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string name = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(name), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    if (++depth_ > kMaxDepth) fail("nesting deeper than 128 levels");
    JsonValue v;
    v.kind = JsonValue::Kind::array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // the exporters never emit them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  // RFC 8259 number grammar: optional '-' (no '+'), mandatory integer part,
  // fraction and exponent each require at least one digit. The scan checks
  // the grammar; std::from_chars converts the checked span.
  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t count = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++count;
      }
      return count;
    };
    const std::size_t int_begin = pos_;
    if (digits() == 0) fail("expected a value");
    const std::size_t int_end = pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("digits required after decimal point");
    }
    const std::size_t mantissa_end = pos_;
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      if (digits() == 0) fail("digits required in exponent");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::number;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const std::from_chars_result r = std::from_chars(first, last, v.number);
    if (r.ec == std::errc::result_out_of_range) {
      // from_chars reports overflow and underflow alike and leaves the value
      // untouched. JSON has no non-finite numbers, so an overflow ("1e999")
      // is rejected; an underflow keeps strtod's result, a signed zero.
      if (decimal_order(int_begin, int_end, mantissa_end) >= 0) {
        fail("number out of double range");
      }
      v.number = text_[start] == '-' ? -0.0 : 0.0;
    } else if (r.ec != std::errc{} || r.ptr != last) {
      fail("malformed number");
    }
    return v;
  }

  /// Decimal exponent of the leading nonzero digit (floor(log10 |x|) of the
  /// value as written) of the number scanned just before pos_, whose
  /// integer digits are [int_begin, int_end) and whose mantissa ends at
  /// mantissa_end. Only called when from_chars found the value out of
  /// range, so a nonzero digit exists and the order lies beyond +-300.
  [[nodiscard]] long decimal_order(std::size_t int_begin, std::size_t int_end,
                                   std::size_t mantissa_end) const {
    long order = static_cast<long>(int_end - int_begin) - 1;
    for (std::size_t i = int_begin; i < mantissa_end; ++i) {
      if (text_[i] == '.') continue;
      if (text_[i] != '0') break;
      --order;
    }
    // The exponent, saturated: its digits may overflow any integer type.
    long exponent = 0;
    std::size_t i = mantissa_end;
    if (i < pos_) {
      ++i;  // 'e' or 'E'
      const bool negative = text_[i] == '-';
      if (text_[i] == '-' || text_[i] == '+') ++i;
      for (; i < pos_ && exponent < 100000; ++i) {
        exponent = exponent * 10 + (text_[i] - '0');
      }
      if (negative) exponent = -exponent;
    }
    return order + exponent;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view name) const noexcept {
  if (kind != Kind::object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == name) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view name) const {
  const JsonValue* v = find(name);
  HICOND_CHECK(v != nullptr, "missing JSON member '" + std::string(name) + "'");
  return *v;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

void write_json(JsonWriter& w, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::null:
      w.null();
      return;
    case JsonValue::Kind::boolean:
      w.value(v.boolean);
      return;
    case JsonValue::Kind::number:
      w.value(v.number);
      return;
    case JsonValue::Kind::string:
      w.value(v.string);
      return;
    case JsonValue::Kind::array:
      w.begin_array();
      for (const JsonValue& item : v.array) {
        write_json(w, item);
      }
      w.end_array();
      return;
    case JsonValue::Kind::object:
      w.begin_object();
      for (const auto& [key, value] : v.object) {
        w.key(key);
        write_json(w, value);
      }
      w.end_object();
      return;
  }
}

}  // namespace hicond::obs
