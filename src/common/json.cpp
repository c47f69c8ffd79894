#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace tc::common {

namespace {

/// Append a Unicode code point as UTF-8.
void append_utf8(std::string& out, u32 cp) {
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

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError(what, pos_);
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) throw JsonError("unexpected end of input", pos_);
    return text_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::String;
        v.str_ = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        {
          JsonValue v;
          v.type_ = JsonValue::Type::Bool;
          v.bool_ = true;
          return v;
        }
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        {
          JsonValue v;
          v.type_ = JsonValue::Type::Bool;
          v.bool_ = false;
          return v;
        }
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value());
      skip_ws();
      char c = take();
      if (c == '}') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value());
      skip_ws();
      char c = take();
      if (c == ']') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      char e = take();
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          u32 cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              u32 lo = parse_hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              fail("unpaired high surrogate");
            }
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("invalid escape sequence");
      }
    }
  }

  u32 parse_hex4() {
    u32 v = 0;
    for (i32 i = 0; i < 4; ++i) {
      char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= narrow<u32>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= narrow<u32>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= narrow<u32>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    return v;
  }

  JsonValue parse_number() {
    const usize start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&]() {
      usize n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("invalid number: missing fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("invalid number: missing exponent digits");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    f64 value = 0.0;
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (res.ec != std::errc{}) fail("unparsable number");
    JsonValue v;
    v.type_ = JsonValue::Type::Number;
    v.num_ = value;
    return v;
  }

  std::string_view text_;
  usize pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).run();
}

bool JsonValue::as_bool() const {
  if (type_ != Type::Bool) throw JsonError("not a bool", 0);
  return bool_;
}

f64 JsonValue::as_f64() const {
  if (type_ != Type::Number) throw JsonError("not a number", 0);
  return num_;
}

i64 JsonValue::as_i64() const { return static_cast<i64>(as_f64()); }

const std::string& JsonValue::as_string() const {
  if (type_ != Type::String) throw JsonError("not a string", 0);
  return str_;
}

usize JsonValue::size() const {
  if (type_ == Type::Array) return array_.size();
  if (type_ == Type::Object) return object_.size();
  return 0;
}

const JsonValue& JsonValue::at(usize index) const {
  if (type_ != Type::Array) throw JsonError("not an array", 0);
  if (index >= array_.size()) throw JsonError("array index out of range", 0);
  return array_[index];
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::Array) throw JsonError("not an array", 0);
  return array_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::get(std::string_view key) const {
  static const JsonValue null_value;
  const JsonValue* v = find(key);
  return v != nullptr ? *v : null_value;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::Object) throw JsonError("not an object", 0);
  return object_;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  return out;
}

std::string json_number(f64 v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace tc::common
