#ifndef SOI_SERVICE_PROTOCOL_H_
#define SOI_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "service/engine.h"
#include "util/status.h"

namespace soi::service {

/// Line-delimited JSON wire protocol for the engine ("soi-service").
///
/// One request per line, one response line per request, in request order.
/// Two envelope versions coexist on the same stream, selected per line by
/// the optional "v" field (default 1); a server answers each line in the
/// shape of the version it was asked in.
///
/// -- v1 (legacy, the shape since PR 4; lines with no "v" or "v":1) -------
///
///   {"op":"typical","seeds":[4],"id":1}
///   {"op":"cascade","seeds":[0,3],"world":2,"id":2}
///   {"op":"spread","seeds":[4],"id":3}
///   {"op":"seed_select","k":5,"method":"tc","id":4}
///   {"op":"reliability","seeds":[4],"threshold":0.5,"id":5}
///   {"op":"update","ops":[{"op":"insert","src":0,"dst":7,"prob":0.2},
///                         {"op":"delete","src":3,"dst":1},
///                         {"op":"prob","src":0,"dst":7,"prob":0.4}],"id":6}
///
/// Optional fields on every request: "id" (integer echoed back, default -1),
/// "timeout_ms" (per-request deadline, 0 = server default). "typical" also
/// takes "local_search" (bool).
///
/// v1 responses: {"id":N,"status":"ok","op":...,<payload>} on success, or
/// {"id":N,"status":"invalid_argument","error":"..."} on failure — status
/// strings are the snake_case of StatusCode. v1 requests always run on the
/// exact tier, so their payloads stay byte-identical across releases.
///
/// -- v2 ("v":2 on the request line) --------------------------------------
///
/// Same ops and required fields as v1, plus two uniform optional fields on
/// every op:
///
///   "accuracy": "exact" (default) | "sketch" | "auto"
///       exact  — answer from the closure cache, always.
///       sketch — demand the bottom-k sketch tier; fails with code
///                FAILED_PRECONDITION when the server has no sketches or
///                the op has no sketch path (only spread and seed_select
///                have one).
///       auto   — exact while headroom exists; degrades to the sketch tier
///                under load or deadline pressure instead of shedding.
///   "max_error": largest acceptable relative error for "auto" (number,
///       default 0 = any). When the sketch tier's 1/sqrt(k-2) bound exceeds
///       it, auto stays exact.
///
///   {"v":2,"op":"spread","seeds":[4],"accuracy":"sketch","id":7}
///   {"v":2,"op":"seed_select","k":5,"accuracy":"auto","max_error":0.2,"id":8}
///
/// v2 success responses carry response metadata after the payload fields:
///
///   {"id":7,"status":"ok","op":"spread","spread":12.25,
///    "tier":"sketch","est_error":0.2672612419,"elapsed_us":42}
///
/// "tier" is the tier that actually answered ("exact" | "sketch"),
/// "est_error" its a-priori relative error bound (0 for exact), and
/// "elapsed_us" the handler wall time. v2 failures are structured,
/// machine-readable codes instead of free-text-only:
///
///   {"id":9,"status":"error","code":"DEADLINE_EXCEEDED","message":"..."}
///
/// with "code" the UPPER_SNAKE of StatusCode (StatusCodeToErrorCode).
///
/// Both versions: "update" requires the server to run a dynamic engine
/// (serve --dynamic); static servers answer it with failed_precondition /
/// FAILED_PRECONDITION. Its ops apply atomically, in order; the response
/// reports applied/affected counts plus the engine's cumulative drift. A
/// malformed line yields an error response (id -1 unless an id could be
/// salvaged, in the v1 shape unless a "v":2 could be salvaged) and the
/// stream keeps serving: one bad client line never kills the connection.
/// v2 fields on a v1 line ("accuracy"/"max_error" without "v":2) are an
/// error naming the fix rather than being silently ignored.

/// A parsed request: wire correlation id, envelope version (decides the
/// response shape), and the engine request.
struct ProtocolRequest {
  int64_t id = -1;
  int version = 1;
  Request request;
};

/// Parses one request line. Unknown "op" values, missing required fields,
/// wrong types, and trailing garbage are all InvalidArgument with a message
/// naming the offending field. A thin wrapper over ParseRequestLineInto.
Result<ProtocolRequest> ParseRequestLine(std::string_view line);

/// The request parser: parses `line` into `*out`, reusing whatever storage
/// `*out` already holds (seed vectors, method strings, the payload variant's
/// current alternative), so a warm slot parses without a heap allocation.
/// On error `*out` holds no meaningful request.
///
/// One forward scan over the line checks the whole JSON text (the leftmost
/// syntax error is the one reported) and keeps the first occurrence of each
/// key the schema knows; unknown keys and later duplicates are checked and
/// ignored, and escapes are decoded in keys and strings alike. Containers
/// nest at most 64 levels deep (the schema needs 3); a deeper line is
/// InvalidArgument naming the limit, so no line sets how deep the scan
/// recurses. Integer fields ("id", "v", "timeout_ms", "world", "k", "seeds"
/// entries, "src", "dst") take a plain integer token, read exactly as an
/// int64, or a token with a fraction or exponent that is integral; a value
/// outside int64 in either form is `field "X" must be an integer` (for a
/// seed, the seeds message), never a wrapped or clamped number.
Status ParseRequestLineInto(std::string_view line, ProtocolRequest* out);

/// Appends one response line (terminated with '\n') in the shape of
/// `version` to `*out` — the allocation-free serialization primitive the
/// serving data plane builds per-connection output buffers with. Appending
/// into a warm buffer performs no heap allocation on success paths.
void AppendResponseLine(std::string* out, int64_t id, int version,
                        const Result<Response>& result);

/// Formats one v1 response line (terminated with '\n'). Kept as the
/// two-argument overload so every v1 producer stays byte-identical.
std::string FormatResponseLine(int64_t id, const Result<Response>& result);

/// Formats one response line in the shape of `version` (1 or 2; anything
/// else is treated as 1, the permissive default for salvaged error paths).
std::string FormatResponseLine(int64_t id, int version,
                               const Result<Response>& result);

/// Best-effort recovery of the correlation id from a line that failed to
/// parse, so the client can still match the error to its request. Scans
/// for a quoted "id" KEY — a quote-aware tokenizer, not a substring match,
/// so an "id" embedded inside a string value never counts — tolerating
/// arbitrary whitespace around the ':'. Returns -1 when no id key with an
/// integer value inside int64 is found.
int64_t SalvageId(std::string_view line);

/// Best-effort recovery of the envelope version from a malformed line (same
/// key scanner as SalvageId), so a v2 client gets its parse errors in the
/// v2 error shape. Returns 2 only for a "v" key with integer value 2;
/// everything else (absent, string-embedded, non-integer) is 1.
int SalvageVersion(std::string_view line);

/// snake_case wire name of a status code ("ok", "invalid_argument",
/// "deadline_exceeded", ...) — v1 "status" values.
const char* StatusCodeToWireString(StatusCode code);

/// UPPER_SNAKE machine-readable error code ("INVALID_ARGUMENT",
/// "DEADLINE_EXCEEDED", ...) — v2 "code" values.
const char* StatusCodeToErrorCode(StatusCode code);

}  // namespace soi::service

#endif  // SOI_SERVICE_PROTOCOL_H_
