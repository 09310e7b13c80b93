/// edde-serve wire protocol tests: build/parse round trips and the
/// malformed-payload edge cases the server's reader loop leans on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "utils/json.h"
#include "utils/trace.h"

namespace edde {
namespace serve {
namespace {

PredictRequest SampleRequest() {
  PredictRequest req;
  req.id = 42;
  req.rows = 2;
  req.dim = 3;
  req.features = {0.5f, -1.25f, 3.0f, 0.0f, 1e-7f, -2.5f};
  return req;
}

TEST(ServeProtocolTest, RequestRoundTripsExactly) {
  const PredictRequest req = SampleRequest();
  PredictRequest parsed;
  ASSERT_TRUE(ParsePredictRequest(BuildPredictRequest(req), &parsed).ok());
  EXPECT_EQ(parsed.id, req.id);
  EXPECT_EQ(parsed.rows, req.rows);
  EXPECT_EQ(parsed.dim, req.dim);
  EXPECT_FALSE(parsed.want_probs);
  // %.9g must round-trip float32 bit-for-bit.
  ASSERT_EQ(parsed.features.size(), req.features.size());
  for (size_t i = 0; i < req.features.size(); ++i) {
    EXPECT_EQ(parsed.features[i], req.features[i]) << "feature " << i;
  }
}

TEST(ServeProtocolTest, WantProbsSurvivesRoundTrip) {
  PredictRequest req = SampleRequest();
  req.want_probs = true;
  PredictRequest parsed;
  ASSERT_TRUE(ParsePredictRequest(BuildPredictRequest(req), &parsed).ok());
  EXPECT_TRUE(parsed.want_probs);
}

TEST(ServeProtocolTest, MalformedJsonIsInvalidArgument) {
  PredictRequest parsed;
  const Status s = ParsePredictRequest("{\"type\": \"predict\",", &parsed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, UnknownTypeIsRejectedButIdIsRecovered) {
  PredictRequest parsed;
  const Status s =
      ParsePredictRequest("{\"type\": \"train\", \"id\": 9}", &parsed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The server addresses its error response with the recovered id.
  EXPECT_EQ(parsed.id, 9);
}

TEST(ServeProtocolTest, IdDefaultsToMinusOneWhenAbsent) {
  PredictRequest parsed;
  const Status s = ParsePredictRequest("{\"type\": \"train\"}", &parsed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parsed.id, -1);
}

TEST(ServeProtocolTest, GeometryMismatchIsRejected) {
  PredictRequest req = SampleRequest();
  req.features.pop_back();  // rows*dim no longer matches
  PredictRequest parsed;
  const Status s = ParsePredictRequest(BuildPredictRequest(req), &parsed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parsed.id, req.id);
}

TEST(ServeProtocolTest, ZeroRowsIsRejected) {
  PredictRequest parsed;
  const Status s = ParsePredictRequest(
      "{\"type\": \"predict\", \"id\": 1, \"rows\": 0, \"dim\": 3, "
      "\"features\": []}",
      &parsed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, NonFiniteFeaturesAreRejected) {
  // A NaN feature serializes as null (the JSON non-finite convention);
  // the parser must refuse it rather than feed NaN to the ensemble.
  PredictRequest req = SampleRequest();
  req.features[2] = std::numeric_limits<float>::quiet_NaN();
  PredictRequest parsed;
  const Status s = ParsePredictRequest(BuildPredictRequest(req), &parsed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parsed.id, req.id);
}

TEST(ServeProtocolTest, OkResponseRoundTrips) {
  PredictResponse resp;
  resp.id = 7;
  resp.ok = true;
  resp.labels = {3, 0, 1};
  resp.depth = {2, 5, 1};
  PredictResponse parsed;
  ASSERT_TRUE(ParsePredictResponse(BuildPredictResponse(resp), &parsed).ok());
  EXPECT_EQ(parsed.id, 7);
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.labels, resp.labels);
  EXPECT_EQ(parsed.depth, resp.depth);
  EXPECT_EQ(parsed.k, 0);
  EXPECT_TRUE(parsed.probs.empty());
}

TEST(ServeProtocolTest, ProbsPayloadRoundTripsExactly) {
  PredictResponse resp;
  resp.id = 1;
  resp.ok = true;
  resp.labels = {1};
  resp.depth = {3};
  resp.k = 3;
  resp.probs = {0.25f, 0.5f, 0.25f};
  PredictResponse parsed;
  ASSERT_TRUE(ParsePredictResponse(BuildPredictResponse(resp), &parsed).ok());
  EXPECT_EQ(parsed.k, 3);
  ASSERT_EQ(parsed.probs.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed.probs[i], resp.probs[i]);
  }
}

TEST(ServeProtocolTest, ErrorResponseRoundTrips) {
  PredictResponse parsed;
  ASSERT_TRUE(
      ParsePredictResponse(BuildErrorResponse(-1, "bad frame"), &parsed)
          .ok());
  EXPECT_EQ(parsed.id, -1);
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.error, "bad frame");
  // The code defaults to "internal" when the builder was not given one.
  EXPECT_EQ(parsed.code, "internal");
}

TEST(ServeProtocolTest, ErrorCodeSurvivesRoundTrip) {
  PredictResponse parsed;
  ASSERT_TRUE(ParsePredictResponse(
                  BuildErrorResponse(5, "shedding load", "unavailable"),
                  &parsed)
                  .ok());
  EXPECT_EQ(parsed.id, 5);
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.code, "unavailable");
}

TEST(ServeProtocolTest, DeadlineMsSurvivesRoundTrip) {
  PredictRequest req = SampleRequest();
  req.deadline_ms = 250;
  PredictRequest parsed;
  ASSERT_TRUE(ParsePredictRequest(BuildPredictRequest(req), &parsed).ok());
  EXPECT_EQ(parsed.deadline_ms, 250);
  // Absent deadline parses as 0 (no client deadline).
  req.deadline_ms = 0;
  ASSERT_TRUE(ParsePredictRequest(BuildPredictRequest(req), &parsed).ok());
  EXPECT_EQ(parsed.deadline_ms, 0);
}

TEST(ServeProtocolTest, BadDeadlineMsIsRejected) {
  PredictRequest parsed;
  const Status s = ParsePredictRequest(
      "{\"type\": \"predict\", \"id\": 1, \"rows\": 1, \"dim\": 1, "
      "\"deadline_ms\": 0, \"features\": [1.0]}",
      &parsed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  const Status neg = ParsePredictRequest(
      "{\"type\": \"predict\", \"id\": 1, \"rows\": 1, \"dim\": 1, "
      "\"deadline_ms\": -5, \"features\": [1.0]}",
      &parsed);
  EXPECT_EQ(neg.code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, GenerationSurvivesRoundTrip) {
  PredictResponse resp;
  resp.id = 9;
  resp.ok = true;
  resp.labels = {1};
  resp.depth = {1};
  resp.generation = 3;
  PredictResponse parsed;
  ASSERT_TRUE(ParsePredictResponse(BuildPredictResponse(resp), &parsed).ok());
  EXPECT_EQ(parsed.generation, 3u);
  // Generation 0 (unset) is simply omitted from the wire.
  resp.generation = 0;
  ASSERT_TRUE(ParsePredictResponse(BuildPredictResponse(resp), &parsed).ok());
  EXPECT_EQ(parsed.generation, 0u);
}

TEST(ServeProtocolTest, WireErrorCodeIsLowerSnake) {
  EXPECT_EQ(WireErrorCode(StatusCode::kInvalidArgument), "invalid_argument");
  EXPECT_EQ(WireErrorCode(StatusCode::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(WireErrorCode(StatusCode::kUnavailable), "unavailable");
  EXPECT_EQ(WireErrorCode(StatusCode::kFailedPrecondition),
            "failed_precondition");
  EXPECT_EQ(WireErrorCode(StatusCode::kInternal), "internal");
}

// --- Hostile numeric fields -------------------------------------------

std::string RequestWith(const std::string& fields) {
  return "{\"type\":\"predict\"," + fields + "}";
}

TEST(ServeProtocolTest, HugeRowsCannotOverflowTheFeatureCount) {
  // rows*dim = 2^62 * 108 would wrap to 0 in int64 and match the empty
  // features array.
  PredictRequest parsed;
  const Status s = ParsePredictRequest(
      RequestWith("\"id\":1,\"rows\":4611686018427387904,\"dim\":108,"
                  "\"features\":[]"),
      &parsed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "rows and dim must be < 2^31");
  EXPECT_EQ(parsed.id, 1);
  const Status dim = ParsePredictRequest(
      RequestWith("\"id\":1,\"rows\":1,\"dim\":2147483648,\"features\":[]"),
      &parsed);
  EXPECT_EQ(dim.code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, HugeDeadlineIsRejectedNotDropped) {
  // 1e300 would cast to INT64_MIN: a request with no deadline at all,
  // past the server's max_request_ms cap.
  PredictRequest parsed;
  for (const char* deadline : {"1e300", "2147483648", "1e999"}) {
    const Status s = ParsePredictRequest(
        RequestWith("\"id\":1,\"rows\":1,\"dim\":1,\"features\":[1.0],"
                    "\"deadline_ms\":" +
                    std::string(deadline)),
        &parsed);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << deadline;
    EXPECT_EQ(s.message(), "deadline_ms must be an integer >= 1") << deadline;
  }
  ASSERT_TRUE(ParsePredictRequest(
                  RequestWith("\"id\":1,\"rows\":1,\"dim\":1,"
                              "\"features\":[1.0],\"deadline_ms\":2147483647"),
                  &parsed)
                  .ok());
  EXPECT_EQ(parsed.deadline_ms, 2147483647);
}

TEST(ServeProtocolTest, IdOutsideInt64IsTreatedAsAbsent) {
  PredictRequest parsed;
  Status s = ParsePredictRequest(
      "{\"type\":\"train\",\"id\":1e300}", &parsed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parsed.id, -1);
  s = ParsePredictRequest("{\"type\":\"train\",\"id\":-9.3e18}", &parsed);
  EXPECT_EQ(parsed.id, -1);
  // The int64 extremes that a double holds exactly still count.
  s = ParsePredictRequest("{\"type\":\"train\",\"id\":-9223372036854775808}",
                          &parsed);
  EXPECT_EQ(parsed.id, std::numeric_limits<int64_t>::min());
}

TEST(ServeProtocolTest, FeatureBeyondFloatRangeIsNonFinite) {
  // 1e39 is a finite double but overflows float to inf.
  PredictRequest parsed;
  const Status s = ParsePredictRequest(
      RequestWith("\"id\":4,\"rows\":1,\"dim\":2,\"features\":[0.5,1e39]"),
      &parsed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "non-finite feature value");
  EXPECT_EQ(parsed.id, 4);
  // FLT_MAX itself, spelled as %.9g writes it, still round-trips.
  ASSERT_TRUE(ParsePredictRequest(
                  RequestWith("\"id\":4,\"rows\":1,\"dim\":1,"
                              "\"features\":[3.40282347e+38]"),
                  &parsed)
                  .ok());
  EXPECT_EQ(parsed.features[0], std::numeric_limits<float>::max());
}

TEST(ServeProtocolTest, SyntaxErrorWinsOverSemanticErrors) {
  // Semantically broken up front (unknown type), syntactically broken at
  // the end: the syntax error is reported and no id is recovered.
  PredictRequest parsed;
  const Status s =
      ParsePredictRequest("{\"type\":\"train\",\"id\":5,\"x\":[1,}", &parsed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message().rfind("JSON parse error at offset 30:", 0), 0u)
      << s.message();
  EXPECT_EQ(parsed.id, -1);
}

TEST(ServeProtocolTest, DuplicateKeysLastOneWins) {
  PredictRequest parsed;
  ASSERT_TRUE(ParsePredictRequest(
                  "{\"type\":\"predict\",\"id\":1,\"rows\":1,\"dim\":2,"
                  "\"features\":[9],\"features\":[1,2],\"id\":3,"
                  "\"extra\":{\"nested\":[{\"features\":[]}]}}",
                  &parsed)
                  .ok());
  EXPECT_EQ(parsed.id, 3);
  EXPECT_EQ(parsed.features, (std::vector<float>{1.0f, 2.0f}));
}

TEST(ServeProtocolTest, MalformedOkResponseIsAnErrorNotACrash) {
  PredictResponse parsed;
  EXPECT_EQ(ParsePredictResponse(
                "{\"id\":1,\"ok\":true,\"labels\":[\"x\"],\"depth\":[1]}",
                &parsed)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParsePredictResponse(
                "{\"id\":1,\"ok\":true,\"labels\":[1],\"depth\":[1e300]}",
                &parsed)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParsePredictResponse("{\"id\":1,\"ok\":true,\"labels\":[1],"
                                 "\"depth\":[1],\"probs\":[{}]}",
                                 &parsed)
                .code(),
            StatusCode::kInvalidArgument);
}

// --- Differential fuzz against the tree-based reference ----------------

constexpr double kInt31End = 2147483648.0;
constexpr double kInt63End = 9223372036854775808.0;

bool NumberIn(const JsonValue* v, double lo, double end) {
  return v != nullptr && v->is_number() && v->AsNumber() >= lo &&
         v->AsNumber() < end;
}

/// The tree-based request parser the single-pass one replaced — whole
/// document into a JsonValue, then the checks — plus the range rules.
Status ReferenceParseRequest(const std::string& json, PredictRequest* out) {
  *out = PredictRequest{};
  out->id = -1;
  JsonValue root;
  EDDE_RETURN_NOT_OK(JsonValue::Parse(json, &root));
  if (!root.is_object()) {
    return Status::InvalidArgument("request is not a JSON object");
  }
  const JsonValue* id = root.Get("id");
  if (NumberIn(id, -kInt63End, kInt63End)) {
    out->id = static_cast<int64_t>(id->AsNumber());
  }
  if (root.GetStringOr("type", "") != "predict") {
    return Status::InvalidArgument("unknown request type");
  }
  const double rows = root.GetNumberOr("rows", 0);
  const double dim = root.GetNumberOr("dim", 0);
  if (rows < 1 || dim < 1) {
    return Status::InvalidArgument("rows and dim must be >= 1");
  }
  if (rows >= kInt31End || dim >= kInt31End) {
    return Status::InvalidArgument("rows and dim must be < 2^31");
  }
  out->rows = static_cast<int64_t>(rows);
  out->dim = static_cast<int64_t>(dim);
  const JsonValue* features = root.Get("features");
  if (features == nullptr || !features->is_array()) {
    return Status::InvalidArgument("missing features array");
  }
  const std::vector<JsonValue>& arr = features->AsArray();
  if (static_cast<int64_t>(arr.size()) != out->rows * out->dim) {
    return Status::InvalidArgument(
        "features has " + std::to_string(arr.size()) +
        " values, want rows*dim = " + std::to_string(out->rows * out->dim));
  }
  for (const JsonValue& v : arr) {
    if (!v.is_number()) {
      return Status::InvalidArgument("non-numeric (or null) feature value");
    }
    const float f = static_cast<float>(v.AsNumber());
    if (!std::isfinite(f)) {
      return Status::InvalidArgument("non-finite feature value");
    }
    out->features.push_back(f);
  }
  const JsonValue* want = root.Get("want_probs");
  out->want_probs = want != nullptr && want->is_bool() && want->AsBool();
  if (const JsonValue* trace = root.Get("trace_id"); trace != nullptr) {
    if (!trace->is_string() || !IsValidTraceId(trace->AsString())) {
      return Status::InvalidArgument("trace_id must be 1-16 hex digits");
    }
    out->trace_id = ParseTraceId(trace->AsString());
  }
  if (const JsonValue* deadline = root.Get("deadline_ms");
      deadline != nullptr) {
    if (!NumberIn(deadline, 1.0, kInt31End)) {
      return Status::InvalidArgument("deadline_ms must be an integer >= 1");
    }
    out->deadline_ms = static_cast<int64_t>(deadline->AsNumber());
  }
  return Status::OK();
}

/// Same for responses.
Status ReferenceParseResponse(const std::string& json, PredictResponse* out) {
  *out = PredictResponse{};
  JsonValue root;
  EDDE_RETURN_NOT_OK(JsonValue::Parse(json, &root));
  if (!root.is_object()) {
    return Status::InvalidArgument("response is not a JSON object");
  }
  const JsonValue* id = root.Get("id");
  out->id = NumberIn(id, -kInt63End, kInt63End)
                ? static_cast<int64_t>(id->AsNumber())
                : -1;
  out->trace_id = ParseTraceId(root.GetStringOr("trace_id", ""));
  const JsonValue* gen = root.Get("gen");
  out->generation = NumberIn(gen, 0.0, kInt63End)
                        ? static_cast<uint64_t>(gen->AsNumber())
                        : 0;
  const JsonValue* ok = root.Get("ok");
  out->ok = ok != nullptr && ok->is_bool() && ok->AsBool();
  if (!out->ok) {
    out->error = root.GetStringOr("error", "(no error message)");
    out->code = root.GetStringOr("code", "internal");
    return Status::OK();
  }
  const JsonValue* labels = root.Get("labels");
  const JsonValue* depth = root.Get("depth");
  if (labels == nullptr || !labels->is_array() || depth == nullptr ||
      !depth->is_array()) {
    return Status::InvalidArgument("ok response missing labels/depth");
  }
  for (const JsonValue& v : labels->AsArray()) {
    if (!NumberIn(&v, -kInt31End, kInt31End)) {
      return Status::InvalidArgument("label is not a number in int range");
    }
    out->labels.push_back(static_cast<int>(v.AsNumber()));
  }
  for (const JsonValue& v : depth->AsArray()) {
    if (!NumberIn(&v, -kInt63End, kInt63End)) {
      return Status::InvalidArgument("depth is not a number in int64 range");
    }
    out->depth.push_back(static_cast<int64_t>(v.AsNumber()));
  }
  const JsonValue* k = root.Get("k");
  out->k = NumberIn(k, -kInt63End, kInt63End)
               ? static_cast<int64_t>(k->AsNumber())
               : 0;
  if (const JsonValue* probs = root.Get("probs");
      probs != nullptr && probs->is_array()) {
    for (const JsonValue& v : probs->AsArray()) {
      if (!v.is_number() && !v.is_null()) {
        return Status::InvalidArgument("prob is neither a number nor null");
      }
      out->probs.push_back(static_cast<float>(v.NumberOrNaN()));
    }
  }
  return Status::OK();
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Empty when both parsers agree on `doc`, else what differed.
std::string DiffRequest(const std::string& doc) {
  PredictRequest got, want;
  const Status gs = ParsePredictRequest(doc, &got);
  const Status ws = ReferenceParseRequest(doc, &want);
  if (gs.code() != ws.code() || gs.message() != ws.message()) {
    return "status: " + gs.ToString() + " vs " + ws.ToString();
  }
  if (got.id != want.id) return "id";
  if (!gs.ok()) return "";
  if (got.rows != want.rows || got.dim != want.dim ||
      !SameBits(got.features, want.features) ||
      got.want_probs != want.want_probs || got.trace_id != want.trace_id ||
      got.deadline_ms != want.deadline_ms) {
    return "fields";
  }
  return "";
}

std::string DiffResponse(const std::string& doc) {
  PredictResponse got, want;
  const Status gs = ParsePredictResponse(doc, &got);
  const Status ws = ReferenceParseResponse(doc, &want);
  if (gs.code() != ws.code() || gs.message() != ws.message()) {
    return "status: " + gs.ToString() + " vs " + ws.ToString();
  }
  if (got.id != want.id) return "id";
  if (!gs.ok()) return "";
  if (got.ok != want.ok || got.error != want.error ||
      got.code != want.code || got.trace_id != want.trace_id ||
      got.generation != want.generation || got.labels != want.labels ||
      got.depth != want.depth || got.k != want.k ||
      !SameBits(got.probs, want.probs)) {
    return "fields";
  }
  return "";
}

/// Seeded structure-blind mutations of wire documents.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  size_t Below(size_t n) { return n == 0 ? 0 : rng_() % n; }

  std::string Mutate(std::string doc, const std::vector<std::string>& corpus) {
    static const char kPunct[] = "{}[],:\"\\ -+.eE0n";
    static const char* const kHostile[] = {
        "4611686018427387904", "1e300", "-1e300", "2147483648", "-1",
        "1e39", "1e999", "-0", "1e-320", "+1", ".5", "1.", "null",
        "\"7\"", "[]", "{}", "true", "9223372036854775807"};
    const int rounds = 1 + static_cast<int>(Below(3));
    for (int i = 0; i < rounds; ++i) {
      const size_t at = Below(doc.size() + 1);
      switch (Below(7)) {
        case 0:  // bit flip
          if (!doc.empty()) {
            doc[Below(doc.size())] ^= static_cast<char>(1u << Below(8));
          }
          break;
        case 1:  // truncation
          doc.resize(at);
          break;
        case 2: {  // splice with another document
          const std::string& other = corpus[Below(corpus.size())];
          doc = doc.substr(0, at) + other.substr(Below(other.size() + 1));
          break;
        }
        case 3:  // inserted punctuation
          doc.insert(at, 1, kPunct[Below(sizeof(kPunct) - 1)]);
          break;
        case 4:  // replaced punctuation
          if (!doc.empty()) {
            doc[Below(doc.size())] = kPunct[Below(sizeof(kPunct) - 1)];
          }
          break;
        case 5: {  // length-field inflation: a hostile value for a field
          static const char* const kFields[] = {
              "\"rows\":", "\"dim\":", "\"id\":", "\"deadline_ms\":",
              "\"k\":", "\"gen\":"};
          const size_t key = doc.find(kFields[Below(6)]);
          if (key == std::string::npos) break;
          const size_t start = doc.find(':', key) + 1;
          size_t end = start;
          while (end < doc.size() && doc[end] != ',' && doc[end] != '}') ++end;
          doc.replace(start, end - start, kHostile[Below(18)]);
          break;
        }
        default: {  // a hostile value in place of a number
          const size_t digit = doc.find_first_of("0123456789", at);
          if (digit == std::string::npos) break;
          size_t end = digit;
          while (end < doc.size() &&
                 std::strchr("0123456789.eE+-", doc[end]) != nullptr) {
            ++end;
          }
          doc.replace(digit, end - digit, kHostile[Below(18)]);
          break;
        }
      }
    }
    return doc;
  }

  float RandomFeature() {
    switch (Below(4)) {
      case 0:  // any finite float, by its bits
        for (;;) {
          const uint32_t bits = static_cast<uint32_t>(rng_());
          float f;
          std::memcpy(&f, &bits, sizeof(f));
          if (std::isfinite(f)) return f;
        }
      case 1:
        return 0.0f;
      default:
        return std::uniform_real_distribution<float>(-4.0f, 4.0f)(rng_);
    }
  }

 private:
  std::mt19937_64 rng_;
};

std::vector<std::string> SeedCorpus(Mutator* m) {
  std::vector<std::string> corpus = {
      // Duplicate keys, nested unknown keys, escaped keys, odd numbers.
      "{\"type\":\"predict\",\"id\":1,\"rows\":1,\"dim\":2,\"features\":[1,2],"
      "\"features\":[3,4],\"id\":2,\"rows\":\"x\",\"rows\":1}",
      "{\"u\":{\"v\":[1,{\"w\":null,\"x\":[[[]]]}],\"y\":\"\\u00e9\"},"
      "\"type\":\"predict\",\"id\":3,\"rows\":2,\"dim\":3,"
      "\"features\":[+1,.5,1.,1e-320,-0,0.25]}",
      "{\"\\u0074ype\":\"pre\\u0064ict\",\"id\":4,\"rows\":1,\"dim\":1,"
      "\"features\":[1e999]}",
      "{\"type\":\"predict\",\"id\":5,\"rows\":1,\"dim\":2,"
      "\"features\":[null,1]}",
      "{\"type\":\"predict\",\"id\":6,\"rows\":1,\"dim\":1,\"features\":[1],"
      "\"want_probs\":true,\"trace_id\":\"00aBcD\",\"deadline_ms\":1.5}",
      "[1,2,3]", "\"predict\"", "42", "null", "{}",
      // The four hostile numeric fields.
      "{\"type\":\"predict\",\"id\":1,\"rows\":4611686018427387904,"
      "\"dim\":108,\"features\":[]}",
      "{\"type\":\"predict\",\"id\":1,\"rows\":1,\"dim\":1,"
      "\"features\":[1],\"deadline_ms\":1e300}",
      "{\"type\":\"predict\",\"id\":1e300,\"rows\":1,\"dim\":1,"
      "\"features\":[1]}",
      "{\"type\":\"predict\",\"id\":1,\"rows\":1,\"dim\":1,"
      "\"features\":[1e39]}",
      // Responses.
      "{\"id\":1,\"ok\":true,\"labels\":[1,2],\"depth\":[3,4],\"k\":2,"
      "\"probs\":[0.5,null,0.25,1],\"gen\":-1,\"trace_id\":\"zz\"}",
      "{\"id\":2,\"ok\":false,\"error\":\"x\",\"code\":7,\"labels\":[1]}",
  };
  for (int i = 0; i < 24; ++i) {
    PredictRequest req;
    req.id = static_cast<int64_t>(m->Below(1000)) - 2;
    req.rows = 1 + static_cast<int64_t>(m->Below(3));
    req.dim = 1 + static_cast<int64_t>(m->Below(5));
    for (int64_t j = 0; j < req.rows * req.dim; ++j) {
      req.features.push_back(m->RandomFeature());
    }
    req.want_probs = m->Below(2) == 0;
    req.trace_id = m->Below(2) == 0 ? 0 : 0xfeed0000u + m->Below(99);
    req.deadline_ms = static_cast<int64_t>(m->Below(3)) * 100;
    corpus.push_back(BuildPredictRequest(req));

    PredictResponse resp;
    resp.id = req.id;
    resp.ok = m->Below(4) != 0;
    resp.error = "shed";
    resp.code = "unavailable";
    resp.trace_id = req.trace_id;
    resp.generation = m->Below(3);
    for (int64_t r = 0; r < req.rows; ++r) {
      resp.labels.push_back(static_cast<int>(m->Below(4)));
      resp.depth.push_back(1 + static_cast<int64_t>(m->Below(12)));
    }
    if (req.want_probs) {
      resp.k = 2;
      for (int64_t j = 0; j < req.rows * 2; ++j) {
        resp.probs.push_back(m->RandomFeature());
      }
    }
    corpus.push_back(BuildPredictResponse(resp));
  }
  return corpus;
}

TEST(ServeProtocolFuzzTest, SinglePassParsersMatchTheTreeReference) {
  Mutator m(20201017);
  const std::vector<std::string> corpus = SeedCorpus(&m);
  int mismatches = 0;
  int accepted_requests = 0;
  const auto check = [&](const std::string& doc) {
    for (const std::string& diff : {DiffRequest(doc), DiffResponse(doc)}) {
      if (!diff.empty() && ++mismatches <= 5) {
        ADD_FAILURE() << diff << "\n  on: " << doc;
      }
    }
    PredictRequest req;
    accepted_requests += ParsePredictRequest(doc, &req).ok() ? 1 : 0;
  };
  for (const std::string& doc : corpus) check(doc);
  constexpr int kCases = 20000;
  for (int i = 0; i < kCases; ++i) {
    check(m.Mutate(corpus[m.Below(corpus.size())], corpus));
  }
  EXPECT_EQ(mismatches, 0);
  // The mutants must still reach the semantic checks, not only the
  // syntax errors.
  EXPECT_GT(accepted_requests, kCases / 50);
}

}  // namespace
}  // namespace serve
}  // namespace edde
