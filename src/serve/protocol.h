#ifndef EDDE_SERVE_PROTOCOL_H_
#define EDDE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "utils/status.h"

namespace edde {
namespace serve {

/// edde-serve wire protocol (DESIGN.md §12).
///
/// Every message is one socket frame (utils/socket.h: u32-LE length prefix
/// + payload) whose payload is a single flat JSON object. Requests carry a
/// client-chosen `id` that the matching response echoes, so one connection
/// may pipeline requests; responses come back in completion order.
///
/// Request:  {"type": "predict", "id": 7, "rows": 2, "dim": 16,
///            "features": [r0c0, r0c1, ..., r1c15], "want_probs": false}
///   `features` is row-major, length rows*dim. `want_probs` asks for the
///   per-class distribution in addition to the labels (bigger responses).
///   An optional "trace_id" (1–16 hex digits, see utils/trace.h) tags the
///   request for the observability plane: the server stamps it onto the
///   request's queue/batch/cascade spans and echoes it back; when absent
///   the server mints one. A malformed trace_id is InvalidArgument — a
///   silently dropped tag would defeat the point of supplying one.
///   An optional "deadline_ms" (integer in [1, 2^31)) bounds how long the
///   client is willing to wait from the server's admission of the frame: a
///   request still queued when its deadline passes is shed with a
///   `deadline_exceeded` error instead of being evaluated (DESIGN.md §16).
///   The server additionally caps every request at its own
///   max_request_ms; the tighter of the two wins.
/// Response: {"id": 7, "ok": true, "labels": [3, 1], "depth": [2, 5],
///            "trace_id": "00f3...", "gen": 1}
///   plus "k" and row-major "probs" (rows*k) when want_probs was set.
///   `depth[i]` is the cascade depth: how many ensemble members were
///   consumed when row i's argmax became final (== ensemble size when the
///   cascade is off or the row fell through). `gen` is the serving model
///   generation (>= 1, bumped by each hot reload) that produced the
///   prediction — the handle that lets a client attribute an answer to a
///   specific model version across a swap.
/// Error:    {"id": 7, "ok": false, "error": "...", "code": "..."}
///   Sent per-request (malformed JSON that still yielded an id, bad
///   geometry, too many rows, expired deadline, shed load). `code` is a
///   stable machine-readable tag (lower_snake of the StatusCode —
///   "invalid_argument", "deadline_exceeded", "unavailable", ...) so
///   clients can classify without parsing prose; "unavailable" and
///   "failed_precondition" (lame-duck shutdown) are the retryable ones. A
///   frame so broken that no id can be recovered gets id -1 and the
///   server drops the connection after it.

struct PredictRequest {
  int64_t id = 0;
  int64_t rows = 0;
  int64_t dim = 0;
  std::vector<float> features;  // row-major, rows * dim
  bool want_probs = false;
  uint64_t trace_id = 0;    // 0 = none supplied; the server mints one
  int64_t deadline_ms = 0;  // 0 = no client deadline
};

struct PredictResponse {
  int64_t id = 0;
  bool ok = false;
  std::string error;
  std::string code;       // machine-readable error tag; empty when ok
  uint64_t trace_id = 0;  // echo of the request's (possibly minted) tag
  uint64_t generation = 0;  // serving model generation; 0 = not stamped
  std::vector<int> labels;
  std::vector<int64_t> depth;  // cascade depth per row
  int64_t k = 0;               // classes (0 when probs absent)
  std::vector<float> probs;    // row-major, rows * k; empty unless asked
};

/// The stable wire tag for a StatusCode ("deadline_exceeded",
/// "unavailable", ...). Lower_snake of StatusCodeName; "internal" for
/// anything unrecognized.
std::string WireErrorCode(StatusCode code);

/// Serializes `req` as the wire JSON (payload only — framing is the
/// socket layer's job).
std::string BuildPredictRequest(const PredictRequest& req);

/// Parses and validates a request payload in one pass, decoding features
/// straight into out->features: the geometry must be coherent (rows and
/// dim in [1, 2^31), features.size() == rows*dim), every feature finite as
/// a float, and deadline_ms, when present, in [1, 2^31). InvalidArgument
/// on any violation; a syntax error anywhere wins over the semantic
/// checks. *out->id is filled whenever the payload parsed and carried a
/// numeric id within int64, so the caller can address the error response.
Status ParsePredictRequest(const std::string& json, PredictRequest* out);

std::string BuildPredictResponse(const PredictResponse& resp);
std::string BuildErrorResponse(int64_t id, const std::string& error,
                               const std::string& code = "internal");

/// One pass, like ParsePredictRequest. An ok response needs `labels` and
/// `depth` arrays of numbers in int / int64 range, and `probs` elements
/// that are numbers or null; an id or gen outside int64 reads as absent.
Status ParsePredictResponse(const std::string& json, PredictResponse* out);

}  // namespace serve
}  // namespace edde

#endif  // EDDE_SERVE_PROTOCOL_H_
