#include "service/protocol.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace soi::service {

namespace {

// ---------------------------------------------------------------------------
// Request scanner. One forward pass checks the whole line as JSON — the
// leftmost error wins, with the messages below — and notes where the first
// occurrence of each key the schema knows lies. Values stay views into the
// line, so a scan copies and allocates nothing; the schema pass reads them.
// ---------------------------------------------------------------------------

// Deepest container nesting a line may use. The schema needs three levels
// (request object, "ops" array, update object); the cap bounds the scan's
// recursion, and so its stack, whatever the line holds.
constexpr int kMaxDepth = 64;

// One JSON value of a scanned line.
struct JsonToken {
  enum class Kind : uint8_t {
    kAbsent,  // a key the object does not carry
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };
  Kind kind = Kind::kAbsent;
  bool boolean = false;  // kBool
  bool escaped = false;  // kString: `text` holds a backslash escape
  // kNumber: the token; kString: the body between the quotes, undecoded;
  // kArray and kObject: the whole value, brackets included.
  std::string_view text;
};
using Kind = JsonToken::Kind;

// The keys one object's scan captures: fields[i] receives the value of the
// first member whose decoded key is keys[i]; other members are checked and
// skipped.
using KeyNames = std::span<const std::string_view>;

// Longer than every key and every string value the schema matches on.
constexpr size_t kMaxNameBytes = 16;

bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

int HexDigit(char h) {
  if (h >= '0' && h <= '9') return h - '0';
  if (h >= 'a' && h <= 'f') return h - 'a' + 10;
  if (h >= 'A' && h <= 'F') return h - 'A' + 10;
  return -1;
}

// The decimal grammar strtod accepts, which a number token must match
// whole: -?(D+(.D*)?|.D+)([eE][+-]?D+)?
bool IsDecimal(std::string_view t) {
  size_t i = 0;
  const auto digits = [&] {
    const size_t begin = i;
    while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
    return i - begin;
  };
  if (i < t.size() && t[i] == '-') ++i;
  size_t mantissa = digits();
  if (i < t.size() && t[i] == '.') {
    ++i;
    mantissa += digits();
  }
  if (mantissa == 0) return false;
  if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
    ++i;
    if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
    if (digits() == 0) return false;
  }
  return i == t.size();
}

// Decodes the body of a string the scan accepted into out[0, cap) and
// returns its length, or cap + 1 once it does not fit. A \u escape becomes
// its UTF-8 encoding (basic multilingual plane only; protocol strings are
// ASCII identifiers).
size_t Unescape(std::string_view body, char* out, size_t cap) {
  size_t n = 0;
  for (size_t i = 0; i < body.size();) {
    char bytes[3] = {body[i++], 0, 0};
    size_t len = 1;
    if (bytes[0] == '\\') {
      const char esc = body[i++];
      switch (esc) {
        case 'b': bytes[0] = '\b'; break;
        case 'f': bytes[0] = '\f'; break;
        case 'n': bytes[0] = '\n'; break;
        case 'r': bytes[0] = '\r'; break;
        case 't': bytes[0] = '\t'; break;
        case 'u': {
          uint32_t code = 0;
          for (int k = 0; k < 4; ++k) {
            code = code << 4 | static_cast<uint32_t>(HexDigit(body[i++]));
          }
          if (code < 0x80) {
            bytes[0] = static_cast<char>(code);
          } else if (code < 0x800) {
            bytes[0] = static_cast<char>(0xC0 | (code >> 6));
            bytes[1] = static_cast<char>(0x80 | (code & 0x3F));
            len = 2;
          } else {
            bytes[0] = static_cast<char>(0xE0 | (code >> 12));
            bytes[1] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            bytes[2] = static_cast<char>(0x80 | (code & 0x3F));
            len = 3;
          }
          break;
        }
        default: bytes[0] = esc;  // '"', '\\' or '/'
      }
    }
    if (n + len > cap) return cap + 1;
    std::memcpy(out + n, bytes, len);
    n += len;
  }
  return n;
}

// A string's decoded text for matching against the names the schema knows:
// the body itself when it holds no escape, else decoded into `buf` — empty
// when it outgrows `buf`, which no known name does.
std::string_view NameOf(const JsonToken& s, char (&buf)[kMaxNameBytes]) {
  if (!s.escaped) return s.text;
  const size_t n = Unescape(s.text, buf, sizeof(buf));
  return n <= sizeof(buf) ? std::string_view(buf, n) : std::string_view();
}

// A string's decoded text, for a value copied into a request (reusing
// `*out`'s storage) or into an error message.
void AssignDecoded(const JsonToken& s, std::string* out) {
  if (!s.escaped) {
    out->assign(s.text);
    return;
  }
  out->resize(s.text.size());  // decoding never lengthens
  out->resize(Unescape(s.text, out->data(), out->size()));
}

std::string Decoded(const JsonToken& s) {
  std::string out;
  AssignDecoded(s, &out);
  return out;
}

// The index of `name` in `keys`, or keys.size().
size_t KeySlot(std::string_view name, KeyNames keys) {
  size_t slot = 0;
  while (slot < keys.size() &&
         !(keys[slot].size() == name.size() && keys[slot][0] == name[0] &&
           keys[slot] == name)) {
    ++slot;
  }
  return slot;
}

class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  // Scans the whole text as one value with nothing but space after it. When
  // the value is an object, `fields` receives its members named in `keys`.
  bool Document(JsonToken* value, KeyNames keys, JsonToken* fields) {
    if (!Value(0, value, keys, fields)) return false;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON value");
    }
    return true;
  }

  // Calls visit(element) for each element of the array that is the whole
  // text — one a Document scan accepted, so the scan cannot fail here — and
  // returns the first error visit returns. For an object element, `fields`
  // holds its members named in `keys`.
  template <typename Visit>
  Status Elements(KeyNames keys, JsonToken* fields, Visit visit) {
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) return Status::OK();
    do {
      std::fill(fields, fields + keys.size(), JsonToken{});
      JsonToken element;
      Value(0, &element, keys, fields);
      SOI_RETURN_IF_ERROR(visit(element));
      SkipSpace();
    } while (Consume(','));
    return Status::OK();
  }

  // The first error, once a scan returned false.
  const Status& error() const { return error_; }

 private:
  bool Fail(std::string message) {
    error_ = Status::InvalidArgument(std::move(message));
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // The text from `begin` up to the cursor.
  std::string_view Slice(size_t begin) const {
    return std::string_view(text_.data() + begin, pos_ - begin);
  }

  // Scans one value inside `depth` containers into *out.
  bool Value(int depth, JsonToken* out, KeyNames keys = {},
             JsonToken* fields = nullptr) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of JSON input");
    const size_t begin = pos_;
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth >= kMaxDepth) {
        return Fail("JSON nesting deeper than " + std::to_string(kMaxDepth) +
                    " levels");
      }
      out->kind = c == '{' ? Kind::kObject : Kind::kArray;
      if (!(c == '{' ? Object(depth + 1, keys, fields) : Array(depth + 1))) {
        return false;
      }
      out->text = Slice(begin);
      return true;
    }
    if (c == '"') return String(out);
    if (c == 't' || c == 'f' || c == 'n') return Literal(out);
    if (c == '-' || (c >= '0' && c <= '9')) return Number(out);
    return Fail(std::string("unexpected character '") + c + "' in JSON");
  }

  bool Object(int depth, KeyNames keys, JsonToken* fields) {
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) return true;
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected string key in JSON object");
      }
      JsonToken key;
      if (!String(&key)) return false;
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':' in JSON object");
      JsonToken value;
      if (!Value(depth, &value)) return false;
      if (!keys.empty()) {
        char buf[kMaxNameBytes];
        const size_t slot = KeySlot(NameOf(key, buf), keys);
        if (slot < keys.size() && fields[slot].kind == Kind::kAbsent) {
          fields[slot] = value;
        }
      }
      SkipSpace();
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("expected ',' or '}' in JSON object");
    }
  }

  bool Array(int depth) {
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) return true;
    while (true) {
      JsonToken element;
      if (!Value(depth, &element)) return false;
      SkipSpace();
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("expected ',' or ']' in JSON array");
    }
  }

  bool String(JsonToken* out) {
    const size_t begin = ++pos_;  // past '"'
    out->kind = Kind::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        out->text = std::string_view(text_.data() + begin, pos_ - 1 - begin);
        return true;
      }
      if (c != '\\') continue;
      if (pos_ >= text_.size()) break;
      out->escaped = true;
      const char esc = text_[pos_++];
      if (esc == 'u') {
        if (pos_ + 4 > text_.size()) {
          return Fail("truncated \\u escape in JSON");
        }
        for (int i = 0; i < 4; ++i) {
          if (HexDigit(text_[pos_++]) < 0) {
            return Fail("bad \\u escape in JSON");
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                 std::string_view::npos) {
        return Fail("bad escape in JSON string");
      }
    }
    return Fail("unterminated JSON string");
  }

  // true, false or null (the first letter is one of t, f, n).
  bool Literal(JsonToken* out) {
    const std::string_view rest = text_.substr(pos_);
    out->kind = Kind::kBool;
    if (rest.starts_with("true")) {
      out->boolean = true;
      pos_ += 4;
    } else if (rest.starts_with("false")) {
      pos_ += 5;
    } else if (rest.starts_with("null")) {
      out->kind = Kind::kNull;
      pos_ += 4;
    } else {
      return Fail("bad literal in JSON");
    }
    return true;
  }

  // The token is the longest run of number characters after an optional
  // '-', and must then match strtod's grammar whole (as -?D+ always does).
  bool Number(JsonToken* out) {
    const size_t begin = pos_;
    Consume('-');
    const size_t digits = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    const bool plain = pos_ > digits;
    const size_t plain_end = pos_;
    while (pos_ < text_.size() && IsNumberChar(text_[pos_])) ++pos_;
    out->kind = Kind::kNumber;
    out->text = Slice(begin);
    if (!(plain && pos_ == plain_end) && !IsDecimal(out->text)) {
      return Fail("bad number '" + std::string(out->text) + "' in JSON");
    }
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  Status error_;
};

// ---------------------------------------------------------------------------
// Schema pass: reads the captured fields in a fixed order, so the first
// failed check names its field, and writes them into the caller's request.
// ---------------------------------------------------------------------------

enum RootKey : size_t {
  kId, kV, kTimeoutMs, kAccuracy, kMaxError, kOp, kSeeds, kLocalSearch,
  kWorld, kK, kMethod, kThreshold, kOps, kRootKeyCount
};
constexpr std::string_view kRootKeys[kRootKeyCount] = {
    "id",    "v", "timeout_ms", "accuracy",  "max_error", "op",  "seeds",
    "local_search", "world", "k", "method", "threshold", "ops"};

enum UpdateKey : size_t { kUpdateOp, kSrc, kDst, kProb, kUpdateKeyCount };
constexpr std::string_view kUpdateKeys[kUpdateKeyCount] = {"op", "src", "dst",
                                                           "prob"};

// A number token the scan accepted, as strtod reads it. from_chars agrees
// with strtod inside double's range; outside it, strtod's ±HUGE_VAL or
// underflow is the value (a rare enough case to copy the token).
double ToDouble(std::string_view token) {
  double value = 0.0;
  if (std::from_chars(token.data(), token.data() + token.size(), value).ec ==
      std::errc()) {
    return value;
  }
  return std::strtod(std::string(token).c_str(), nullptr);
}

// An integer field's token: a plain integer is read exactly, a token with
// a fraction or exponent as a double that must be integral. False when the
// value lies outside int64 in either form; nothing is cast then.
bool ToInt64(std::string_view token, int64_t* out) {
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, *out);
  if (stop == end) return ec == std::errc();
  const double value = ToDouble(token);
  if (value != std::floor(value) || !(value >= -0x1p63 && value < 0x1p63)) {
    return false;
  }
  *out = static_cast<int64_t>(value);
  return true;
}

// Reads integer field `name` into *out, which keeps its default when the
// field is absent and not `required`.
Status ReadInt(const JsonToken& t, std::string_view name, bool required,
               int64_t* out) {
  if (t.kind == Kind::kAbsent) {
    if (!required) return Status::OK();
    return Status::InvalidArgument("missing required field \"" +
                                   std::string(name) + "\"");
  }
  if (t.kind != Kind::kNumber || !ToInt64(t.text, out)) {
    return Status::InvalidArgument("field \"" + std::string(name) +
                                   "\" must be an integer");
  }
  return Status::OK();
}

Status ReadSeeds(const JsonToken& t, std::vector<NodeId>* seeds) {
  if (t.kind != Kind::kArray) {
    return Status::InvalidArgument(
        "missing required field \"seeds\" (array of node ids)");
  }
  seeds->clear();
  // The scan accepted the array, so it is '[', values split by ',' with
  // space around them, and ']': a walk needs no bounds checks, and the first
  // element that is not a number token fails before it needs skipping.
  for (const char* p = t.text.data() + 1;; ++p) {
    while (IsSpace(*p)) ++p;
    if (*p == ']') return Status::OK();  // empty array
    const char* token = p;
    while (IsNumberChar(*p)) ++p;
    int64_t v = -1;
    if (p == token || !ToInt64({token, static_cast<size_t>(p - token)}, &v) ||
        v < 0 || v > static_cast<int64_t>(UINT32_MAX)) {
      return Status::InvalidArgument(
          "\"seeds\" entries must be non-negative 32-bit node ids");
    }
    seeds->push_back(static_cast<NodeId>(v));
    while (IsSpace(*p)) ++p;
    if (*p == ']') return Status::OK();
  }
}

// An update request's "ops" array, whose entries are
//   {"op":"insert","src":U,"dst":V,"prob":P}
//   {"op":"delete","src":U,"dst":V}
//   {"op":"prob","src":U,"dst":V,"prob":P}
Status ReadUpdateOps(const JsonToken& t, std::vector<GraphUpdate>* ops) {
  if (t.kind != Kind::kArray) {
    return Status::InvalidArgument(
        "missing required field \"ops\" (array of update objects)");
  }
  ops->clear();
  JsonToken f[kUpdateKeyCount];
  return JsonScanner(t.text).Elements(
      kUpdateKeys, f, [&](const JsonToken& entry) -> Status {
        if (entry.kind != Kind::kObject) {
          return Status::InvalidArgument(
              "\"ops\" entries must be JSON objects");
        }
        const JsonToken& op = f[kUpdateOp];
        if (op.kind != Kind::kString) {
          return Status::InvalidArgument(
              "update op missing \"op\" (insert|delete|prob)");
        }
        GraphUpdate update;
        char buf[kMaxNameBytes];
        const std::string_view name = NameOf(op, buf);
        if (name == "insert") {
          update.kind = UpdateKind::kEdgeInsert;
        } else if (name == "delete") {
          update.kind = UpdateKind::kEdgeDelete;
        } else if (name == "prob") {
          update.kind = UpdateKind::kProbUpdate;
        } else {
          return Status::InvalidArgument("unknown update op \"" +
                                         Decoded(op) +
                                         "\" (expected insert|delete|prob)");
        }
        int64_t src = 0;
        int64_t dst = 0;
        SOI_RETURN_IF_ERROR(ReadInt(f[kSrc], "src", /*required=*/true, &src));
        SOI_RETURN_IF_ERROR(ReadInt(f[kDst], "dst", /*required=*/true, &dst));
        if (src < 0 || src > static_cast<int64_t>(UINT32_MAX) || dst < 0 ||
            dst > static_cast<int64_t>(UINT32_MAX)) {
          return Status::InvalidArgument(
              "\"src\"/\"dst\" must be non-negative 32-bit node ids");
        }
        update.src = static_cast<NodeId>(src);
        update.dst = static_cast<NodeId>(dst);
        if (update.kind != UpdateKind::kEdgeDelete) {
          if (f[kProb].kind != Kind::kNumber) {
            return Status::InvalidArgument("update op \"" + Decoded(op) +
                                           "\" requires a numeric \"prob\"");
          }
          update.prob = ToDouble(f[kProb].text);
        }
        ops->push_back(update);
        return Status::OK();
      });
}

// Reuse-or-emplace: keeps the payload's current alternative (and its heap
// capacity) when the type already matches.
template <typename T>
T* PayloadSlot(Request* request) {
  if (T* existing = std::get_if<T>(&request->payload)) return existing;
  return &request->payload.emplace<T>();
}

// Integer serialization without the std::to_string temporary: to_chars into
// a stack buffer, then append. The output bytes are identical (both emit
// minimal decimal digits), but a warm output buffer absorbs the append
// without touching the heap.
template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

void AppendNodes(std::string* out, const std::vector<NodeId>& nodes) {
  out->push_back('[');
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) out->push_back(',');
    AppendInt(out, nodes[i]);
  }
  out->push_back(']');
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out->append(buf);
}

void AppendEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

struct ResponseBodyWriter {
  std::string* out;

  void operator()(const TypicalCascadeResponse& r) const {
    out->append(",\"op\":\"typical\",\"cascade\":");
    AppendNodes(out, r.cascade);
    out->append(",\"in_sample_cost\":");
    AppendDouble(out, r.in_sample_cost);
    out->append(",\"mean_sample_size\":");
    AppendDouble(out, r.mean_sample_size);
  }
  void operator()(const CascadeResponse& r) const {
    out->append(",\"op\":\"cascade\",\"cascade\":");
    AppendNodes(out, r.cascade);
  }
  void operator()(const SpreadResponse& r) const {
    out->append(",\"op\":\"spread\",\"spread\":");
    AppendDouble(out, r.spread);
  }
  void operator()(const SeedSelectResponse& r) const {
    out->append(",\"op\":\"seed_select\",\"seeds\":");
    AppendNodes(out, r.seeds);
    out->append(",\"objective\":");
    AppendDouble(out, r.objective);
  }
  void operator()(const ReliabilityResponse& r) const {
    out->append(",\"op\":\"reliability\",\"nodes\":");
    AppendNodes(out, r.nodes);
  }
  void operator()(const UpdateResponse& r) const {
    out->append(",\"op\":\"update\",\"applied\":");
    AppendInt(out, r.applied);
    out->append(",\"affected_worlds\":");
    AppendInt(out, r.affected_worlds);
    out->append(",\"affected_nodes\":");
    AppendInt(out, r.affected_nodes);
    out->append(",\"drift\":");
    AppendInt(out, r.drift);
  }
};

// Quote-aware scan for a top-level  "key" ws* ':' ws* <integer>  pattern.
// Tracks string boundaries (honoring backslash escapes) so a key embedded
// inside a string VALUE is never matched, and a quoted token only counts as
// a key when a ':' follows it.
bool SalvageIntField(std::string_view line, std::string_view key,
                     int64_t* out) {
  const size_t n = line.size();
  size_t i = 0;
  const auto is_ws = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (i < n) {
    if (line[i] != '"') {
      ++i;
      continue;
    }
    const size_t token_begin = ++i;
    bool has_escape = false;
    while (i < n && line[i] != '"') {
      if (line[i] == '\\') {
        has_escape = true;
        ++i;
        if (i < n) ++i;  // skip the escaped character (handles \")
      } else {
        ++i;
      }
    }
    if (i >= n) return false;  // unterminated string: nothing after it
    const std::string_view token = line.substr(token_begin, i - token_begin);
    ++i;  // closing quote
    if (has_escape || token != key) continue;
    size_t j = i;
    while (j < n && is_ws(line[j])) ++j;
    if (j >= n || line[j] != ':') continue;  // a string value, not a key
    ++j;
    while (j < n && is_ws(line[j])) ++j;
    const size_t begin = j;
    if (j < n && line[j] == '-') ++j;
    if (j >= n || line[j] < '0' || line[j] > '9') continue;
    // Digits past int64's range make no integer either, and neither do
    // digits that do not end the value ("1e300", "2.5", "7x").
    const auto [end, ec] =
        std::from_chars(line.data() + begin, line.data() + n, *out);
    if (ec != std::errc()) continue;
    const size_t after = static_cast<size_t>(end - line.data());
    if (after < n && !is_ws(line[after]) && line[after] != ',' &&
        line[after] != '}') {
      continue;
    }
    return true;
  }
  return false;
}

}  // namespace

const char* StatusCodeToWireString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kIOError: return "io_error";
    case StatusCode::kUnimplemented: return "unimplemented";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
  }
  return "unknown";
}

const char* StatusCodeToErrorCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kIOError: return "IO_ERROR";
    case StatusCode::kUnimplemented: return "UNIMPLEMENTED";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
  }
  return "UNKNOWN";
}

Status ParseRequestLineInto(std::string_view line, ProtocolRequest* out) {
  JsonToken root;
  JsonToken f[kRootKeyCount];
  JsonScanner scanner(line);
  if (!scanner.Document(&root, kRootKeys, f)) return scanner.error();
  if (root.kind != Kind::kObject) {
    return Status::InvalidArgument("request line must be a JSON object");
  }

  int64_t id = -1;
  int64_t version = 1;
  int64_t timeout_ms = 0;
  SOI_RETURN_IF_ERROR(ReadInt(f[kId], "id", /*required=*/false, &id));
  SOI_RETURN_IF_ERROR(ReadInt(f[kV], "v", /*required=*/false, &version));
  if (version != 1 && version != 2) {
    return Status::InvalidArgument(
        "unsupported protocol version \"v\":" + std::to_string(version) +
        " (this server speaks v1 and v2)");
  }
  SOI_RETURN_IF_ERROR(
      ReadInt(f[kTimeoutMs], "timeout_ms", /*required=*/false, &timeout_ms));
  if (timeout_ms < 0) {
    return Status::InvalidArgument("\"timeout_ms\" must be >= 0");
  }

  // Accuracy envelope fields are v2-only and uniform across ops. On a v1
  // line they are an error naming the fix — silently ignoring them would
  // serve exact answers to a client that asked for routing.
  const JsonToken& accuracy = f[kAccuracy];
  const JsonToken& max_error = f[kMaxError];
  if (version < 2 &&
      (accuracy.kind != Kind::kAbsent || max_error.kind != Kind::kAbsent)) {
    return Status::InvalidArgument(
        "\"accuracy\"/\"max_error\" require the v2 envelope; add \"v\":2 to "
        "the request");
  }
  Request& request = out->request;
  char name[kMaxNameBytes];
  request.accuracy = Accuracy::kExact;
  if (accuracy.kind != Kind::kAbsent) {
    if (accuracy.kind != Kind::kString) {
      return Status::InvalidArgument("\"accuracy\" must be a string");
    }
    const std::string_view value = NameOf(accuracy, name);
    if (value == "exact") {
      request.accuracy = Accuracy::kExact;
    } else if (value == "sketch") {
      request.accuracy = Accuracy::kSketch;
    } else if (value == "auto") {
      request.accuracy = Accuracy::kAuto;
    } else {
      return Status::InvalidArgument("unknown accuracy \"" +
                                     Decoded(accuracy) +
                                     "\" (expected exact|sketch|auto)");
    }
  }
  request.max_error =
      max_error.kind == Kind::kNumber ? ToDouble(max_error.text) : 0.0;
  if ((max_error.kind != Kind::kAbsent && max_error.kind != Kind::kNumber) ||
      request.max_error < 0.0) {
    return Status::InvalidArgument("\"max_error\" must be a number >= 0");
  }

  const JsonToken& op = f[kOp];
  if (op.kind != Kind::kString) {
    return Status::InvalidArgument("missing required field \"op\" (string)");
  }
  const std::string_view op_name = NameOf(op, name);
  if (op_name == "typical") {
    auto* req = PayloadSlot<TypicalCascadeRequest>(&request);
    SOI_RETURN_IF_ERROR(ReadSeeds(f[kSeeds], &req->seeds));
    const JsonToken& local_search = f[kLocalSearch];
    if (local_search.kind != Kind::kAbsent &&
        local_search.kind != Kind::kBool) {
      return Status::InvalidArgument("\"local_search\" must be a boolean");
    }
    req->local_search = local_search.boolean;
  } else if (op_name == "cascade") {
    auto* req = PayloadSlot<CascadeRequest>(&request);
    SOI_RETURN_IF_ERROR(ReadSeeds(f[kSeeds], &req->seeds));
    int64_t world = 0;
    SOI_RETURN_IF_ERROR(ReadInt(f[kWorld], "world", /*required=*/true, &world));
    if (world < 0 || world > static_cast<int64_t>(UINT32_MAX)) {
      return Status::InvalidArgument("\"world\" must be a 32-bit world index");
    }
    req->world = static_cast<uint32_t>(world);
  } else if (op_name == "spread") {
    SOI_RETURN_IF_ERROR(
        ReadSeeds(f[kSeeds], &PayloadSlot<SpreadRequest>(&request)->seeds));
  } else if (op_name == "seed_select") {
    auto* req = PayloadSlot<SeedSelectRequest>(&request);
    int64_t k = 0;
    SOI_RETURN_IF_ERROR(ReadInt(f[kK], "k", /*required=*/true, &k));
    if (k <= 0 || k > static_cast<int64_t>(UINT32_MAX)) {
      return Status::InvalidArgument("\"k\" must be a positive integer");
    }
    req->k = static_cast<uint32_t>(k);
    const JsonToken& method = f[kMethod];
    if (method.kind == Kind::kAbsent) {
      req->method.assign("tc");
    } else if (method.kind != Kind::kString) {
      return Status::InvalidArgument("\"method\" must be a string");
    } else {
      AssignDecoded(method, &req->method);
    }
  } else if (op_name == "reliability") {
    auto* req = PayloadSlot<ReliabilityRequest>(&request);
    SOI_RETURN_IF_ERROR(ReadSeeds(f[kSeeds], &req->seeds));
    const JsonToken& threshold = f[kThreshold];
    if (threshold.kind != Kind::kAbsent && threshold.kind != Kind::kNumber) {
      return Status::InvalidArgument("\"threshold\" must be a number");
    }
    req->threshold =
        threshold.kind == Kind::kNumber ? ToDouble(threshold.text) : 0.5;
  } else if (op_name == "update") {
    SOI_RETURN_IF_ERROR(
        ReadUpdateOps(f[kOps], &PayloadSlot<UpdateRequest>(&request)->ops));
  } else {
    return Status::InvalidArgument(
        "unknown op \"" + Decoded(op) +
        "\" (expected typical|cascade|spread|seed_select|reliability|"
        "update)");
  }
  out->id = id;
  out->version = static_cast<int>(version);
  request.timeout_ms = static_cast<uint64_t>(timeout_ms);
  return Status::OK();
}

Result<ProtocolRequest> ParseRequestLine(std::string_view line) {
  ProtocolRequest out;
  SOI_RETURN_IF_ERROR(ParseRequestLineInto(line, &out));
  return out;
}

int64_t SalvageId(std::string_view line) {
  int64_t id = -1;
  return SalvageIntField(line, "id", &id) ? id : -1;
}

int SalvageVersion(std::string_view line) {
  int64_t v = 1;
  return SalvageIntField(line, "v", &v) && v == 2 ? 2 : 1;
}

void AppendResponseLine(std::string* out, int64_t id, int version,
                        const Result<Response>& result) {
  out->append("{\"id\":");
  AppendInt(out, id);
  if (version < 2) {
    out->append(",\"status\":\"");
    out->append(StatusCodeToWireString(result.ok() ? StatusCode::kOk
                                                   : result.status().code()));
    out->append("\"");
    if (result.ok()) {
      std::visit(ResponseBodyWriter{out}, result->payload);
    } else {
      out->append(",\"error\":\"");
      AppendEscaped(out, result.status().message());
      out->append("\"");
    }
  } else if (result.ok()) {
    out->append(",\"status\":\"ok\"");
    std::visit(ResponseBodyWriter{out}, result->payload);
    out->append(",\"tier\":\"");
    out->append(result->meta.tier);
    out->append("\",\"est_error\":");
    AppendDouble(out, result->meta.est_error);
    out->append(",\"elapsed_us\":");
    AppendInt(out, result->meta.elapsed_us);
  } else {
    out->append(",\"status\":\"error\",\"code\":\"");
    out->append(StatusCodeToErrorCode(result.status().code()));
    out->append("\",\"message\":\"");
    AppendEscaped(out, result.status().message());
    out->append("\"");
  }
  out->append("}\n");
}

std::string FormatResponseLine(int64_t id, const Result<Response>& result) {
  std::string out;
  AppendResponseLine(&out, id, /*version=*/1, result);
  return out;
}

std::string FormatResponseLine(int64_t id, int version,
                               const Result<Response>& result) {
  std::string out;
  AppendResponseLine(&out, id, version, result);
  return out;
}

}  // namespace soi::service
