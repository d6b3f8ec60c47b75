#include "src/obs/json.h"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace ctobs {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : object_items) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipSpace();
    if (pos_ != text_.size()) {
      Fail("trailing characters");
    }
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) {
    throw std::runtime_error("json parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool ConsumeLiteral(const char* literal) {
    size_t len = 0;
    while (literal[len] != '\0') {
      ++len;
    }
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue ParseValue() {
    SkipSpace();
    char c = Peek();
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        JsonValue value;
        value.kind = JsonValue::Kind::kString;
        value.string_value = ParseString();
        return value;
      }
      case 't': {
        if (!ConsumeLiteral("true")) Fail("bad literal");
        JsonValue value;
        value.kind = JsonValue::Kind::kBool;
        value.bool_value = true;
        return value;
      }
      case 'f': {
        if (!ConsumeLiteral("false")) Fail("bad literal");
        JsonValue value;
        value.kind = JsonValue::Kind::kBool;
        return value;
      }
      case 'n': {
        if (!ConsumeLiteral("null")) Fail("bad literal");
        return JsonValue{};
      }
      default:
        return ParseNumber();
    }
  }

  // Containers nest by recursion, so unbounded input could overflow the
  // stack; nothing this library writes nests more than a few levels.
  static constexpr int kMaxDepth = 256;

  // Counts one level of container nesting for the lifetime of a parse call.
  class DepthGuard {
   public:
    explicit DepthGuard(Parser* parser) : parser_(parser) {
      if (++parser_->depth_ > kMaxDepth) {
        parser_->Fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
    }
    ~DepthGuard() { --parser_->depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    Parser* parser_;
  };

  JsonValue ParseObject() {
    DepthGuard depth(this);
    Expect('{');
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      SkipSpace();
      std::string key = ParseString();
      SkipSpace();
      Expect(':');
      value.object_items.emplace_back(std::move(key), ParseValue());
      SkipSpace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return value;
      }
      Fail("expected ',' or '}'");
    }
  }

  JsonValue ParseArray() {
    DepthGuard depth(this);
    Expect('[');
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array_items.push_back(ParseValue());
      SkipSpace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return value;
      }
      Fail("expected ',' or ']'");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        Fail("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("unterminated escape");
      }
      char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("bad \\u escape");
            }
          }
          // The writers only emit \u00xx control escapes; anything wider is
          // decoded as UTF-8 for completeness.
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
        default:
          Fail("bad escape");
      }
    }
  }

  JsonValue ParseNumber() {
    size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("expected value");
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number_value = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue ParseJson(const std::string& text) { return Parser(text).Parse(); }

}  // namespace ctobs
