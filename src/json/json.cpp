#include "json/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dynaq::json {
namespace {

void escape_to(std::string& out, const std::string& s) {
  out += '"';
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
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ParseError(what, line, col);
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
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

  Value parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value();
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value::Object members;
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    while (true) {
      if (peek() != '"') fail("expected string");
      std::string key = parse_string();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value::Array elements;
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(elements));
    }
    while (true) {
      elements.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value(std::move(elements));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    // caller guarantees text_[pos_] == '"'
    ++pos_;
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
          // Artifacts are ASCII; encode BMP code points as UTF-8 so the
          // parser is still lossless if one ever is not.
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

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool saw_digit = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        saw_digit = saw_digit || (c >= '0' && c <= '9');
        ++pos_;
      } else {
        break;
      }
    }
    if (!saw_digit) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number '" + token + "'");
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value& Value::set(std::string key, Value v) {
  if (is_null()) type_ = Type::kObject;
  if (!is_object()) throw std::logic_error("json::Value::set on a non-object");
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
  return *this;
}

Value& Value::push(Value v) {
  if (is_null()) type_ = Type::kArray;
  if (!is_array()) throw std::logic_error("json::Value::push on a non-array");
  array_.push_back(std::move(v));
  return *this;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_number() ? v->number_ : fallback;
}

std::int64_t Value::integer_or(std::string_view key, std::int64_t fallback) const {
  const Value* v = find(key);
  // Casting a double beyond int64 (a parsed 1e300, say) is undefined.
  const bool fits = v != nullptr && v->is_number() && std::fabs(v->number_) < 9.2e18;
  return fits ? static_cast<std::int64_t>(v->number_) : fallback;
}

std::string Value::string_or(std::string_view key, std::string fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_string() ? v->string_ : std::move(fallback);
}

bool Value::bool_or(std::string_view key, bool fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_bool() ? v->bool_ : fallback;
}

std::string format_number(double d) {
  // Every integer within ±2^53 is exact in a double, so it prints exactly.
  // The range check comes first: casting NaN, or a double beyond the range
  // of int64, is undefined behaviour.
  constexpr double kExactIntegers = 9007199254740992.0;  // 2^53
  if (d >= -kExactIntegers && d <= kExactIntegers &&
      d == static_cast<double>(static_cast<std::int64_t>(d))) {
    return std::to_string(static_cast<std::int64_t>(d));
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", d);
  return buf;
}

std::string Value::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Value::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: out += format_number(number_); break;
    case Type::kString: escape_to(out, string_); break;
    case Type::kArray:
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        array_[i].dump_to(out);
      }
      out += ']';
      break;
    case Type::kObject:
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        escape_to(out, object_[i].first);
        out += ':';
        object_[i].second.dump_to(out);
      }
      out += '}';
      break;
  }
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace dynaq::json
