// The one JSON module (DESIGN.md §2). Every artifact the repo writes — the
// sweep results JSON — is built as a json::Value and serialized by dump(),
// and every reader parses into the same type. A leaf library: it includes
// no other repo header (check_conventions.sh rule 15), so src/report can
// read artifacts without linking any model library (rule 13).
//
// Objects preserve insertion order (vector of pairs, linear lookup): the
// artifacts are small, and ordered keys keep every emitted file and every
// rendered report byte-stable. Numbers are doubles: dump() prints an
// integral value within ±2^53 as an exact integer and any other value via
// "%.12g" (12 significant digits). Strings are escaped per RFC 8259.
#pragma once

#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dynaq::json {

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t line, std::size_t column)
      : std::runtime_error(message + " at line " + std::to_string(line) + ", column " +
                           std::to_string(column)),
        line_(line),
        column_(column) {}
  std::size_t line() const { return line_; }
  std::size_t column() const { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Value>;
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() = default;
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  template <typename T>
    requires(std::integral<T> || std::floating_point<T>) && (!std::same_as<T, bool>)
  Value(T n) : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Value(const char* s) : Value(std::string(s)) {}
  Value(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Value(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  // Empty containers; dump() prints them as [] and {}, not null.
  static Value array() { return Value(Array{}); }
  static Value object() { return Value(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_bool() const { return type_ == Type::kBool; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  const Object& as_object() const { return object_; }

  // Building. set() replaces the value of an existing key and otherwise
  // appends the key; push() appends an element. Both turn a null Value into
  // an empty container first, throw std::logic_error on any other type, and
  // return *this so calls chain.
  Value& set(std::string key, Value v);
  Value& push(Value v);

  // Object lookup by key; nullptr when absent or when this is not an object.
  const Value* find(std::string_view key) const;

  // Typed lookups with fallbacks, for optional artifact fields. integer_or
  // also falls back on a number beyond the range of int64.
  double number_or(std::string_view key, double fallback) const;
  std::int64_t integer_or(std::string_view key, std::int64_t fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;

  // Compact serialization (no whitespace, no trailing newline).
  std::string dump() const;

  bool operator==(const Value&) const = default;

 private:
  void dump_to(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// How dump() prints a number, for text that quotes artifact values.
std::string format_number(double d);

// Parses one JSON document; throws ParseError (1-based line/column) on
// malformed input or trailing characters.
Value parse(std::string_view text);

}  // namespace dynaq::json
