#ifndef EDDE_UTILS_JSON_H_
#define EDDE_UTILS_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "utils/status.h"

namespace edde {

class JsonReader;

/// JSON document tree for this repo's own machine-readable artifacts
/// (metrics JSONL lines, Chrome trace files, BENCH_*.json), built by
/// JsonReader below. Writing stays with JsonBuilder (utils/metrics.h).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; EDDE_CHECK on kind mismatch.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;

  /// Non-finite-double convention: JSON has no NaN/Inf literal, so
  /// JsonBuilder writes such values as `null` and readers map `null` back
  /// to NaN through this accessor. Returns the number for kNumber, NaN for
  /// kNull; EDDE_CHECK on any other kind. Consumers that must distinguish
  /// "absent" from "present but non-finite" pair Has() with this.
  double NumberOrNaN() const;

  /// Object member access. `Get` returns nullptr when the key is absent
  /// (or the value is not an object); `Has` is the presence test.
  bool Has(const std::string& key) const;
  const JsonValue* Get(const std::string& key) const;

  /// Convenience lookups with fallbacks for absent / mistyped members.
  /// Note GetNumberOr maps a `null` member (the non-finite encoding, see
  /// NumberOrNaN) to `fallback` — callers that care use GetNumberOrNaN.
  double GetNumberOr(const std::string& key, double fallback) const;

  /// Number member, honoring the null-means-NaN convention: absent or
  /// mistyped members and `null` members all yield NaN.
  double GetNumberOrNaN(const std::string& key) const;
  std::string GetStringOr(const std::string& key,
                          const std::string& fallback) const;

  /// Object keys in document order (empty unless is_object()).
  const std::vector<std::string>& ObjectKeys() const;

  /// Parses one complete JSON document from `text` (trailing whitespace
  /// allowed, trailing garbage is an error).
  static Status Parse(const std::string& text, JsonValue* out);

  /// Parse() over the whole content of `path`.
  static Status ParseFile(const std::string& path, JsonValue* out);

 private:
  /// The tree builder behind Parse: one value at nesting `depth`.
  static Status Read(JsonReader* reader, int depth, JsonValue* out);

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  // Document order preserved for ObjectKeys(); lookup goes through index_.
  std::vector<std::string> keys_;
  std::vector<JsonValue> members_;
  std::map<std::string, size_t> index_;
};

/// One decoded scalar: what JsonReader::ReadScalar leaves behind. `kind`
/// says which field holds the value; kArray/kObject mean a container was
/// validated and skipped.
struct JsonScalar {
  JsonValue::Kind kind = JsonValue::Kind::kNull;
  double number = 0.0;
  bool boolean = false;
  std::string string;
};

/// The one JSON grammar of the repo: a pull-style cursor over a document.
/// A strict RFC-8259 subset — no comments, no trailing commas — plus the
/// laxer number tokens strtod accepts (`+1`, `.5`, `1.`, leading zeros);
/// numbers decode with from_chars, falling back to strtod, so every
/// decoded double is strtod's. It owns whitespace, string, number and
/// literal scanning, the nesting limit, and the offset-stamped
/// "JSON parse error at offset N: ..." messages. JsonValue::Parse builds
/// a tree with it; the serving wire parsers (serve/protocol.h) walk
/// untrusted frames with it directly, decoding the values they want in
/// place and skipping the rest.
///
/// Every value read takes its nesting depth (the document root is 0) and
/// fails past kMaxDepth, so hostile input cannot exhaust the stack. A
/// failed read leaves the cursor where the error was found; the caller
/// returns the Status rather than reading on.
///
///   JsonReader r(text);
///   bool more = false;
///   if (r.Peek() != JsonValue::Kind::kObject) ...;
///   r.BeginObject(&more);
///   while (more) {
///     EDDE_RETURN_NOT_OK(r.ReadKey(&key));
///     EDDE_RETURN_NOT_OK(r.SkipValue(/*depth=*/1));
///     EDDE_RETURN_NOT_OK(r.NextMember(&more));
///   }
///   EDDE_RETURN_NOT_OK(r.Finish());
class JsonReader {
 public:
  static constexpr int kMaxDepth = 64;

  /// Reads `text` in place; it must outlive the reader.
  explicit JsonReader(const std::string& text) : text_(text) {}
  explicit JsonReader(std::string&&) = delete;

  /// Skips whitespace and names the kind of the next value from its first
  /// byte. kNumber also stands for end of input and for any byte that
  /// starts no other kind; reading the value then reports the error.
  JsonValue::Kind Peek();

  /// Reads the next value at nesting `depth`. Numbers, booleans and
  /// strings are decoded into *out; null, arrays and objects are validated
  /// and skipped, leaving only out->kind.
  Status ReadScalar(int depth, JsonScalar* out);

  /// Validates and skips the next value at nesting `depth`.
  Status SkipValue(int depth);

  /// Object iteration, after Peek() returned kObject: consumes '{' and sets
  /// *more to whether a member follows. Per member, ReadKey consumes the
  /// key and ':', the caller reads the value at depth + 1, and NextMember
  /// consumes ',' (more members) or '}' (done).
  void BeginObject(bool* more);
  Status ReadKey(std::string* key);
  Status NextMember(bool* more);

  /// Array iteration, after Peek() returned kArray; same shape as objects.
  void BeginArray(bool* more);
  Status NextElement(bool* more);

  /// Succeeds when only whitespace is left after the document.
  Status Finish();

  /// InvalidArgument "JSON parse error at offset N: <message>", N being
  /// the cursor's offset.
  Status Error(const std::string& message) const;

 private:
  void SkipWhitespace();
  bool Consume(char c);
  Status ReadString(std::string* out);
  Status ReadNumber(double* out);
  Status ReadLiteral(JsonScalar* out);

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace edde

#endif  // EDDE_UTILS_JSON_H_
