// Minimal recursive-descent JSON reader (RFC 8259 subset: UTF-8 text,
// \uXXXX escapes decoded to UTF-8, no trailing commas, no comments).
//
// The observability layer *writes* JSON by hand (Chrome traces, post-mortem
// bundles, bench results); this is the matching reader used by the
// triplec_postmortem CLI and by tests that want to assert on written
// bundles without regex-matching raw text.  It is a diagnostics-path
// parser: values are owned copies (no zero-copy string views), and parse
// errors throw JsonError with a byte offset.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace tc::common {

class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& what, usize offset)
      : std::runtime_error(what + " at byte " + std::to_string(offset)),
        offset_(offset) {}
  [[nodiscard]] usize offset() const { return offset_; }

 private:
  usize offset_;
};

class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  /// Parse a complete JSON document (throws JsonError on malformed input or
  /// trailing garbage).
  [[nodiscard]] static JsonValue parse(std::string_view text);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::Number; }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }
  [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

  /// Typed accessors; throw JsonError(offset 0) on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] f64 as_f64() const;
  [[nodiscard]] i64 as_i64() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array/object element count (0 for scalars).
  [[nodiscard]] usize size() const;

  /// Array element access (throws when not an array / out of range).
  [[nodiscard]] const JsonValue& at(usize index) const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;

  /// Object member access.  find() returns nullptr when absent; get()
  /// returns a Null value when absent so lookups can chain.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] const JsonValue& get(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  /// Object members in document order.
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const;

  /// Scalar conveniences with defaults (Null/missing-friendly).
  [[nodiscard]] f64 number_or(f64 fallback) const {
    return is_number() ? num_ : fallback;
  }
  [[nodiscard]] std::string string_or(std::string fallback) const {
    return is_string() ? str_ : fallback;
  }
  /// Keyed variants: object member lookup + scalar default in one step
  /// (fallback when this is not an object, the key is absent, or the member
  /// has the wrong type).
  [[nodiscard]] f64 number_or(std::string_view key, f64 fallback) const {
    const JsonValue* v = find(key);
    return v != nullptr ? v->number_or(fallback) : fallback;
  }
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback) const {
    const JsonValue* v = find(key);
    return v != nullptr ? v->string_or(std::move(fallback)) : fallback;
  }

 private:
  friend class JsonParser;

  Type type_ = Type::Null;
  bool bool_ = false;
  f64 num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Escape a string for embedding in hand-written JSON output (quotes not
/// included): `"`, `\`, control characters.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Shortest text that parses back to exactly `v` ("null" when not finite):
/// what the writers use for numbers a reader must recover bit for bit.
[[nodiscard]] std::string json_number(f64 v);

}  // namespace tc::common
