#include "utils/json.h"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "utils/logging.h"

namespace edde {

bool JsonValue::AsBool() const {
  EDDE_CHECK(is_bool());
  return bool_;
}

double JsonValue::AsNumber() const {
  EDDE_CHECK(is_number());
  return number_;
}

const std::string& JsonValue::AsString() const {
  EDDE_CHECK(is_string());
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  EDDE_CHECK(is_array());
  return array_;
}

double JsonValue::NumberOrNaN() const {
  if (is_null()) return std::numeric_limits<double>::quiet_NaN();
  EDDE_CHECK(is_number()) << "NumberOrNaN on a non-number, non-null value";
  return number_;
}

bool JsonValue::Has(const std::string& key) const {
  return Get(key) != nullptr;
}

const JsonValue* JsonValue::Get(const std::string& key) const {
  if (!is_object()) return nullptr;
  auto it = index_.find(key);
  return it == index_.end() ? nullptr : &members_[it->second];
}

double JsonValue::GetNumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Get(key);
  return v != nullptr && v->is_number() ? v->number_ : fallback;
}

double JsonValue::GetNumberOrNaN(const std::string& key) const {
  const JsonValue* v = Get(key);
  if (v == nullptr || (!v->is_number() && !v->is_null())) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return v->NumberOrNaN();
}

std::string JsonValue::GetStringOr(const std::string& key,
                                   const std::string& fallback) const {
  const JsonValue* v = Get(key);
  return v != nullptr && v->is_string() ? v->string_ : fallback;
}

const std::vector<std::string>& JsonValue::ObjectKeys() const {
  return keys_;
}

JsonValue::Kind JsonReader::Peek() {
  SkipWhitespace();
  if (pos_ >= text_.size()) return JsonValue::Kind::kNumber;
  switch (text_[pos_]) {
    case '{':
      return JsonValue::Kind::kObject;
    case '[':
      return JsonValue::Kind::kArray;
    case '"':
      return JsonValue::Kind::kString;
    case 't':
    case 'f':
      return JsonValue::Kind::kBool;
    case 'n':
      return JsonValue::Kind::kNull;
    default:
      return JsonValue::Kind::kNumber;
  }
}

Status JsonReader::ReadScalar(int depth, JsonScalar* out) {
  if (depth > kMaxDepth) return Error("nesting too deep");
  SkipWhitespace();
  if (pos_ >= text_.size()) return Error("unexpected end of input");
  out->kind = Peek();
  switch (out->kind) {
    case JsonValue::Kind::kObject:
    case JsonValue::Kind::kArray:
      return SkipValue(depth);
    case JsonValue::Kind::kString:
      return ReadString(&out->string);
    case JsonValue::Kind::kNumber:
      return ReadNumber(&out->number);
    default:
      return ReadLiteral(out);
  }
}

Status JsonReader::SkipValue(int depth) {
  if (depth > kMaxDepth) return Error("nesting too deep");
  bool more = false;
  switch (Peek()) {
    case JsonValue::Kind::kObject: {
      BeginObject(&more);
      std::string key;
      while (more) {
        EDDE_RETURN_NOT_OK(ReadKey(&key));
        EDDE_RETURN_NOT_OK(SkipValue(depth + 1));
        EDDE_RETURN_NOT_OK(NextMember(&more));
      }
      return Status::OK();
    }
    case JsonValue::Kind::kArray:
      BeginArray(&more);
      while (more) {
        EDDE_RETURN_NOT_OK(SkipValue(depth + 1));
        EDDE_RETURN_NOT_OK(NextElement(&more));
      }
      return Status::OK();
    default: {
      JsonScalar scalar;
      return ReadScalar(depth, &scalar);
    }
  }
}

void JsonReader::BeginObject(bool* more) {
  ++pos_;  // '{'
  SkipWhitespace();
  *more = !Consume('}');
}

Status JsonReader::ReadKey(std::string* key) {
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Error("expected object key string");
  }
  EDDE_RETURN_NOT_OK(ReadString(key));
  SkipWhitespace();
  if (!Consume(':')) return Error("expected ':' after object key");
  return Status::OK();
}

Status JsonReader::NextMember(bool* more) {
  SkipWhitespace();
  if (Consume('}')) {
    *more = false;
    return Status::OK();
  }
  if (!Consume(',')) return Error("expected ',' or '}' in object");
  *more = true;
  return Status::OK();
}

void JsonReader::BeginArray(bool* more) {
  ++pos_;  // '['
  SkipWhitespace();
  *more = !Consume(']');
}

Status JsonReader::NextElement(bool* more) {
  SkipWhitespace();
  if (Consume(']')) {
    *more = false;
    return Status::OK();
  }
  if (!Consume(',')) return Error("expected ',' or ']' in array");
  *more = true;
  return Status::OK();
}

Status JsonReader::Finish() {
  SkipWhitespace();
  if (pos_ != text_.size()) {
    return Error("trailing characters after JSON document");
  }
  return Status::OK();
}

void JsonReader::SkipWhitespace() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

bool JsonReader::Consume(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

Status JsonReader::Error(const std::string& message) const {
  return Status::InvalidArgument("JSON parse error at offset " +
                                 std::to_string(pos_) + ": " + message);
}

Status JsonValue::Read(JsonReader* reader, int depth, JsonValue* out) {
  if (depth > JsonReader::kMaxDepth) {
    return reader->Error("nesting too deep");
  }
  bool more = false;
  switch (reader->Peek()) {
    case Kind::kObject:
      out->kind_ = Kind::kObject;
      reader->BeginObject(&more);
      while (more) {
        std::string key;
        EDDE_RETURN_NOT_OK(reader->ReadKey(&key));
        JsonValue value;
        EDDE_RETURN_NOT_OK(Read(reader, depth + 1, &value));
        // Duplicate keys: last one wins, like most readers.
        auto it = out->index_.find(key);
        if (it != out->index_.end()) {
          out->members_[it->second] = std::move(value);
        } else {
          out->index_[key] = out->members_.size();
          out->keys_.push_back(key);
          out->members_.push_back(std::move(value));
        }
        EDDE_RETURN_NOT_OK(reader->NextMember(&more));
      }
      return Status::OK();
    case Kind::kArray:
      out->kind_ = Kind::kArray;
      reader->BeginArray(&more);
      while (more) {
        JsonValue element;
        EDDE_RETURN_NOT_OK(Read(reader, depth + 1, &element));
        out->array_.push_back(std::move(element));
        EDDE_RETURN_NOT_OK(reader->NextElement(&more));
      }
      return Status::OK();
    default: {
      JsonScalar scalar;
      EDDE_RETURN_NOT_OK(reader->ReadScalar(depth, &scalar));
      out->kind_ = scalar.kind;
      out->number_ = scalar.number;
      out->bool_ = scalar.boolean;
      out->string_ = std::move(scalar.string);
      return Status::OK();
    }
  }
}

Status JsonReader::ReadString(std::string* out) {
  ++pos_;  // opening quote
  out->clear();
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') return Status::OK();
    if (static_cast<unsigned char>(c) < 0x20) {
      return Error("unescaped control character in string");
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) break;
    const char esc = text_[pos_++];
    switch (esc) {
      case '"':
      case '\\':
      case '/':
        out->push_back(esc);
        break;
      case 'b':
        out->push_back('\b');
        break;
      case 'f':
        out->push_back('\f');
        break;
      case 'n':
        out->push_back('\n');
        break;
      case 'r':
        out->push_back('\r');
        break;
      case 't':
        out->push_back('\t');
        break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
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
            return Error("invalid \\u escape digit");
          }
        }
        // UTF-8 encode the code point (surrogate pairs are passed through
        // as two 3-byte sequences — enough for our own ASCII output).
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        return Error("invalid escape character");
    }
  }
  return Error("unterminated string");
}

Status JsonReader::ReadNumber(double* out) {
  const size_t start = pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-')) {
      break;
    }
    ++pos_;
  }
  if (pos_ == start) return Error("expected a value");
  // from_chars is the fast path and rounds exactly as strtod does. Tokens
  // it refuses or does not fully consume (a leading '+', overflow to
  // ±inf, underflow) take strtod, which sets the accepted token set.
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  const std::from_chars_result fast = std::from_chars(first, last, *out);
  if (fast.ec == std::errc() && fast.ptr == last) return Status::OK();
  const std::string token(first, last);
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return Error("malformed number: " + token);
  }
  return Status::OK();
}

Status JsonReader::ReadLiteral(JsonScalar* out) {
  const auto match = [&](std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  };
  if (match("true")) {
    out->kind = JsonValue::Kind::kBool;
    out->boolean = true;
    return Status::OK();
  }
  if (match("false")) {
    out->kind = JsonValue::Kind::kBool;
    out->boolean = false;
    return Status::OK();
  }
  if (match("null")) {
    out->kind = JsonValue::Kind::kNull;
    return Status::OK();
  }
  return Error("invalid literal");
}

Status JsonValue::Parse(const std::string& text, JsonValue* out) {
  EDDE_CHECK(out != nullptr);
  *out = JsonValue();
  JsonReader reader(text);
  EDDE_RETURN_NOT_OK(Read(&reader, /*depth=*/0, out));
  return reader.Finish();
}

Status JsonValue::ParseFile(const std::string& path, JsonValue* out) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open JSON file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str(), out);
}

}  // namespace edde
