#include "serve/protocol.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>

#include "utils/json.h"
#include "utils/metrics.h"
#include "utils/trace.h"

namespace edde {
namespace serve {

namespace {

/// Compact float formatting for the feature/prob arrays: %.9g round-trips
/// float32 exactly and stays much shorter than the default double path.
void AppendFloat(std::string* out, float v) {
  char buf[32];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  } else {
    // Same convention as JsonBuilder: JSON has no NaN/Inf literal.
    std::snprintf(buf, sizeof(buf), "null");
  }
  out->append(buf);
}

template <typename T, typename Fn>
std::string JsonArray(const std::vector<T>& values, Fn&& append_one) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_one(&out, values[i]);
  }
  out.push_back(']');
  return out;
}

constexpr double kInt31End = 2147483648.0;           // 2^31
constexpr double kInt63End = 9223372036854775808.0;  // 2^63

/// A captured top-level member: absent, or the value of its last duplicate.
using Member = std::optional<JsonScalar>;

bool IsNumber(const Member& m) {
  return m && m->kind == JsonValue::Kind::kNumber;
}

/// Range checks come before any integer cast, so no hostile value can
/// overflow one.
bool NumberIn(const JsonScalar& v, double lo, double end) {
  return v.kind == JsonValue::Kind::kNumber && v.number >= lo &&
         v.number < end;
}

/// `m`'s number truncated to an integer when it is a number in [lo, end);
/// `fallback` otherwise.
int64_t IntOr(const Member& m, double lo, double end, int64_t fallback) {
  return m && NumberIn(*m, lo, end) ? static_cast<int64_t>(m->number)
                                    : fallback;
}

const std::string* StringOf(const Member& m) {
  return m && m->kind == JsonValue::Kind::kString ? &m->string : nullptr;
}

/// One pass over a wire message. The document is validated to the end;
/// each top-level member's key goes to `on_member(reader, key)`, which
/// reads or skips the value (depth 1). *is_object is false when the root
/// is some other value, which is then validated and skipped whole.
template <typename Fn>
Status ReadTopLevel(const std::string& json, bool* is_object, Fn&& on_member) {
  JsonReader r(json);
  *is_object = r.Peek() == JsonValue::Kind::kObject;
  if (!*is_object) {
    EDDE_RETURN_NOT_OK(r.SkipValue(/*depth=*/0));
    return r.Finish();
  }
  bool more = false;
  r.BeginObject(&more);
  std::string key;
  while (more) {
    EDDE_RETURN_NOT_OK(r.ReadKey(&key));
    EDDE_RETURN_NOT_OK(on_member(&r, key));
    EDDE_RETURN_NOT_OK(r.NextMember(&more));
  }
  return r.Finish();
}

/// Streams a top-level member's array value element by element through
/// `on_element(const JsonScalar&)`, with no per-element node. Any other
/// value is skipped and leaves *is_array false.
template <typename Fn>
Status ReadArray(JsonReader* r, bool* is_array, Fn&& on_element) {
  *is_array = r->Peek() == JsonValue::Kind::kArray;
  if (!*is_array) return r->SkipValue(/*depth=*/1);
  bool more = false;
  r->BeginArray(&more);
  JsonScalar element;
  while (more) {
    EDDE_RETURN_NOT_OK(r->ReadScalar(/*depth=*/2, &element));
    on_element(element);
    EDDE_RETURN_NOT_OK(r->NextElement(&more));
  }
  return Status::OK();
}

}  // namespace

std::string WireErrorCode(StatusCode code) {
  std::string name = StatusCodeName(code);
  // CamelCase -> lower_snake ("DeadlineExceeded" -> "deadline_exceeded").
  std::string out;
  out.reserve(name.size() + 4);
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c >= 'A' && c <= 'Z') {
      if (i > 0) out.push_back('_');
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else {
      out.push_back(c);
    }
  }
  if (out.empty() || out == "unknown") return "internal";
  return out;
}

std::string BuildPredictRequest(const PredictRequest& req) {
  JsonBuilder b;
  b.Add("type", "predict");
  b.Add("id", req.id);
  b.Add("rows", req.rows);
  b.Add("dim", req.dim);
  b.AddRaw("features", JsonArray(req.features, [](std::string* out, float v) {
             AppendFloat(out, v);
           }));
  if (req.want_probs) b.Add("want_probs", true);
  if (req.trace_id != 0) b.Add("trace_id", FormatTraceId(req.trace_id));
  if (req.deadline_ms > 0) b.Add("deadline_ms", req.deadline_ms);
  return b.Build();
}

Status ParsePredictRequest(const std::string& json, PredictRequest* out) {
  *out = PredictRequest{};
  out->id = -1;
  Member id, type, rows, dim, want_probs, trace_id, deadline_ms;
  bool is_object = false;
  bool have_features = false;
  int64_t num_features = 0;
  const char* bad_feature = nullptr;  // the first bad element's error
  const auto on_member = [&](JsonReader* r, const std::string& key) {
    if (key == "features") {
      out->features.clear();
      num_features = 0;
      bad_feature = nullptr;
      // Reserve when the geometry came first (BuildPredictRequest's
      // order), capped by what the payload can hold: each value takes at
      // least two bytes with its separator.
      const int64_t want = IntOr(rows, 1, kInt31End, 0) *
                           IntOr(dim, 1, kInt31End, 0);
      out->features.reserve(static_cast<size_t>(
          std::min<int64_t>(want, static_cast<int64_t>(json.size() / 2))));
      return ReadArray(r, &have_features, [&](const JsonScalar& v) {
        ++num_features;
        if (bad_feature != nullptr) return;
        if (v.kind != JsonValue::Kind::kNumber) {
          bad_feature = "non-numeric (or null) feature value";
          return;
        }
        // Checked after the cast: a finite double beyond float range
        // (1e39) would otherwise reach the ensemble as inf.
        const float f = static_cast<float>(v.number);
        if (!std::isfinite(f)) {
          bad_feature = "non-finite feature value";
          return;
        }
        out->features.push_back(f);
      });
    }
    Member* slot = key == "id"            ? &id
                   : key == "type"        ? &type
                   : key == "rows"        ? &rows
                   : key == "dim"         ? &dim
                   : key == "want_probs"  ? &want_probs
                   : key == "trace_id"    ? &trace_id
                   : key == "deadline_ms" ? &deadline_ms
                                          : nullptr;
    if (slot == nullptr) return r->SkipValue(/*depth=*/1);
    return r->ReadScalar(/*depth=*/1, &slot->emplace());
  };
  EDDE_RETURN_NOT_OK(ReadTopLevel(json, &is_object, on_member));
  // Semantic checks, only once the whole document parsed: a syntax error
  // anywhere wins.
  if (!is_object) {
    return Status::InvalidArgument("request is not a JSON object");
  }
  // An id outside int64 is as good as absent.
  out->id = IntOr(id, -kInt63End, kInt63End, -1);
  const std::string* type_name = StringOf(type);
  if (type_name == nullptr || *type_name != "predict") {
    return Status::InvalidArgument("unknown request type");
  }
  const double num_rows = IsNumber(rows) ? rows->number : 0.0;
  const double num_dim = IsNumber(dim) ? dim->number : 0.0;
  if (num_rows < 1.0 || num_dim < 1.0) {
    return Status::InvalidArgument("rows and dim must be >= 1");
  }
  if (num_rows >= kInt31End || num_dim >= kInt31End) {
    return Status::InvalidArgument("rows and dim must be < 2^31");
  }
  out->rows = static_cast<int64_t>(num_rows);
  out->dim = static_cast<int64_t>(num_dim);
  if (!have_features) {
    return Status::InvalidArgument("missing features array");
  }
  // Both factors are below 2^31, so the product cannot overflow.
  if (num_features != out->rows * out->dim) {
    return Status::InvalidArgument(
        "features has " + std::to_string(num_features) +
        " values, want rows*dim = " + std::to_string(out->rows * out->dim));
  }
  if (bad_feature != nullptr) return Status::InvalidArgument(bad_feature);
  out->want_probs = want_probs && want_probs->kind == JsonValue::Kind::kBool &&
                    want_probs->boolean;
  if (trace_id) {
    const std::string* hex = StringOf(trace_id);
    if (hex == nullptr || !IsValidTraceId(*hex)) {
      return Status::InvalidArgument("trace_id must be 1-16 hex digits");
    }
    out->trace_id = ParseTraceId(*hex);
  }
  if (deadline_ms) {
    // Range-checked before the cast: 1e300 would cast to INT64_MIN, i.e.
    // no deadline at all. 2^31 ms is 24 days.
    out->deadline_ms = IntOr(deadline_ms, 1.0, kInt31End, 0);
    if (out->deadline_ms == 0) {
      return Status::InvalidArgument("deadline_ms must be an integer >= 1");
    }
  }
  return Status::OK();
}

std::string BuildPredictResponse(const PredictResponse& resp) {
  if (!resp.ok) {
    return BuildErrorResponse(resp.id, resp.error,
                              resp.code.empty() ? "internal" : resp.code);
  }
  JsonBuilder b;
  b.Add("id", resp.id);
  b.Add("ok", true);
  if (resp.trace_id != 0) b.Add("trace_id", FormatTraceId(resp.trace_id));
  if (resp.generation != 0) {
    b.Add("gen", static_cast<int64_t>(resp.generation));
  }
  b.AddRaw("labels", JsonArray(resp.labels, [](std::string* out, int v) {
             out->append(std::to_string(v));
           }));
  b.AddRaw("depth", JsonArray(resp.depth, [](std::string* out, int64_t v) {
             out->append(std::to_string(v));
           }));
  if (!resp.probs.empty()) {
    b.Add("k", resp.k);
    b.AddRaw("probs", JsonArray(resp.probs, [](std::string* out, float v) {
               AppendFloat(out, v);
             }));
  }
  return b.Build();
}

std::string BuildErrorResponse(int64_t id, const std::string& error,
                               const std::string& code) {
  JsonBuilder b;
  b.Add("id", id);
  b.Add("ok", false);
  b.Add("error", error);
  b.Add("code", code);
  return b.Build();
}

Status ParsePredictResponse(const std::string& json, PredictResponse* out) {
  *out = PredictResponse{};
  Member id, trace_id, gen, ok, error, code, k;
  bool is_object = false;
  bool have_labels = false, have_depth = false, have_probs = false;
  bool bad_label = false, bad_depth = false, bad_prob = false;
  const auto on_member = [&](JsonReader* r, const std::string& key) {
    if (key == "labels") {
      out->labels.clear();
      bad_label = false;
      return ReadArray(r, &have_labels, [&](const JsonScalar& v) {
        const bool fits = NumberIn(v, -kInt31End, kInt31End);
        bad_label |= !fits;
        out->labels.push_back(fits ? static_cast<int>(v.number) : 0);
      });
    }
    if (key == "depth") {
      out->depth.clear();
      bad_depth = false;
      return ReadArray(r, &have_depth, [&](const JsonScalar& v) {
        const bool fits = NumberIn(v, -kInt63End, kInt63End);
        bad_depth |= !fits;
        out->depth.push_back(fits ? static_cast<int64_t>(v.number) : 0);
      });
    }
    if (key == "probs") {  // optional: any value but an array is ignored
      out->probs.clear();
      bad_prob = false;
      return ReadArray(r, &have_probs, [&](const JsonScalar& v) {
        // null encodes a non-finite prob (shouldn't happen, but don't
        // choke).
        bad_prob |= v.kind != JsonValue::Kind::kNumber &&
                    v.kind != JsonValue::Kind::kNull;
        out->probs.push_back(v.kind == JsonValue::Kind::kNumber
                                 ? static_cast<float>(v.number)
                                 : std::numeric_limits<float>::quiet_NaN());
      });
    }
    Member* slot = key == "id"         ? &id
                   : key == "trace_id" ? &trace_id
                   : key == "gen"      ? &gen
                   : key == "ok"       ? &ok
                   : key == "error"    ? &error
                   : key == "code"     ? &code
                   : key == "k"        ? &k
                                       : nullptr;
    if (slot == nullptr) return r->SkipValue(/*depth=*/1);
    return r->ReadScalar(/*depth=*/1, &slot->emplace());
  };
  EDDE_RETURN_NOT_OK(ReadTopLevel(json, &is_object, on_member));
  if (!is_object) {
    return Status::InvalidArgument("response is not a JSON object");
  }
  out->id = IntOr(id, -kInt63End, kInt63End, -1);
  const std::string* trace_hex = StringOf(trace_id);
  out->trace_id = trace_hex != nullptr ? ParseTraceId(*trace_hex) : 0;
  out->generation = static_cast<uint64_t>(IntOr(gen, 0.0, kInt63End, 0));
  out->ok = ok && ok->kind == JsonValue::Kind::kBool && ok->boolean;
  if (!out->ok) {
    out->labels.clear();
    out->depth.clear();
    out->probs.clear();
    const std::string* message = StringOf(error);
    out->error = message != nullptr ? *message : "(no error message)";
    const std::string* tag = StringOf(code);
    out->code = tag != nullptr ? *tag : "internal";
    return Status::OK();
  }
  if (!have_labels || !have_depth) {
    return Status::InvalidArgument("ok response missing labels/depth");
  }
  if (bad_label) {
    return Status::InvalidArgument("label is not a number in int range");
  }
  if (bad_depth) {
    return Status::InvalidArgument("depth is not a number in int64 range");
  }
  out->k = IntOr(k, -kInt63End, kInt63End, 0);
  if (bad_prob) {
    return Status::InvalidArgument("prob is neither a number nor null");
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace edde
