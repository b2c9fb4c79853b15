#ifndef SOI_SERVICE_ENGINE_H_
#define SOI_SERVICE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "graph/prob_graph.h"
#include "index/cascade_index.h"
#include "infmax/sketch_oracle.h"
#include "util/flat_sets.h"
#include "util/status.h"

namespace soi::service {

/// The query service facade: one loaded graph + cascade index behind a
/// thread-safe request/response API. Every query the CLI answers by
/// rebuilding an index from scratch is answered here against the one index
/// the engine owns, so per-query latency is micro- to milliseconds instead
/// of a full rebuild.
///
/// Error model: invalid input NEVER aborts the process. Every request
/// returns Result<Response>; malformed requests come back as
/// InvalidArgument with an actionable message, expired deadlines as
/// DeadlineExceeded, admission-control rejections as ResourceExhausted.
/// SOI_CHECK remains reserved for internal invariants.
///
/// Determinism: batch execution follows the runtime contract
/// (src/runtime/parallel_for.h) — each request is executed independently,
/// results land in per-request slots, and no handler draws fresh
/// randomness — so a batch's responses are byte-identical at every thread
/// count. The single best-effort exception is per-request deadlines, which
/// compare wall clocks; batches that use no deadlines are fully
/// deterministic.

/// Per-request accuracy knob. kExact always answers from the exact tier
/// (closure cache); kSketch demands the bottom-k sketch tier (fails with
/// FailedPrecondition when the engine has no sketches or the op has no
/// sketch path); kAuto answers exact while headroom exists and degrades to
/// the sketch tier under pressure — admission depth at/above the configured
/// threshold, or deadline slack mostly consumed — instead of shedding.
/// Only spread and seed_select have a sketch path; kAuto on other ops is
/// accepted and served exact.
enum class Accuracy : uint8_t {
  kExact = 0,
  kSketch = 1,
  kAuto = 2,
};

/// Sphere of influence (Algorithm 2) of a seed set.
struct TypicalCascadeRequest {
  std::vector<NodeId> seeds;
  /// Enable the 1-swap local-search refinement of the Jaccard median.
  bool local_search = false;
};

/// Exact cascade of a seed set in one sampled world.
struct CascadeRequest {
  std::vector<NodeId> seeds;
  uint32_t world = 0;
};

/// Expected spread (mean reachable-set size over the index's worlds).
struct SpreadRequest {
  std::vector<NodeId> seeds;
};

/// Seed selection: "tc" = InfMax_TC (Algorithm 3, coverage over typical
/// cascades, lazily computed once per engine), "std" = InfMax_std (greedy
/// over the index's spread oracle, built lazily once per engine). Both
/// methods reuse cached state and draw no fresh randomness, so repeated
/// requests return identical answers.
struct SeedSelectRequest {
  uint32_t k = 10;
  std::string method = "tc";
};

/// Reliability search: all nodes reachable from the seeds with probability
/// >= threshold on the index's worlds.
struct ReliabilityRequest {
  std::vector<NodeId> seeds;
  double threshold = 0.5;
};

/// Graph mutation batch (dynamic engines only; see src/dynamic/). The ops
/// apply atomically and in order: on any validation error nothing changes
/// and the request fails whole. A static engine (Create/FromParts) answers
/// with FailedPrecondition.
struct UpdateRequest {
  std::vector<GraphUpdate> ops;
};

/// A typed request plus its per-request deadline. The deadline is measured
/// from batch admission; a request whose deadline has expired before it is
/// picked up returns DeadlineExceeded. Partial-result policy: a request
/// that has already STARTED executing always runs to completion — deadlines
/// shed queued work, they never truncate an answer.
struct Request {
  std::variant<TypicalCascadeRequest, CascadeRequest, SpreadRequest,
               SeedSelectRequest, ReliabilityRequest, UpdateRequest>
      payload;
  /// Per-request timeout in milliseconds; 0 = EngineOptions default.
  uint64_t timeout_ms = 0;
  /// Which tier may answer (defaults to exact: v1 clients see byte-identical
  /// behavior).
  Accuracy accuracy = Accuracy::kExact;
  /// With kAuto: largest acceptable relative error. 0 = any. When the sketch
  /// tier's 1/sqrt(k-2) bound exceeds this, auto stays exact even under
  /// pressure (correctness beats degradation).
  double max_error = 0.0;
};

struct TypicalCascadeResponse {
  std::vector<NodeId> cascade;
  double in_sample_cost = 0.0;
  double mean_sample_size = 0.0;
};

struct CascadeResponse {
  std::vector<NodeId> cascade;
};

struct SpreadResponse {
  double spread = 0.0;
};

struct SeedSelectResponse {
  std::vector<NodeId> seeds;  // in selection order
  /// Objective after the last committed seed (expected spread for "std",
  /// covered-node count for "tc").
  double objective = 0.0;
};

struct ReliabilityResponse {
  std::vector<NodeId> nodes;
};

struct UpdateResponse {
  /// Ops applied (== batch size; failures apply nothing).
  uint32_t applied = 0;
  /// Worlds re-derived by this batch (see UpdateStats).
  uint32_t affected_worlds = 0;
  /// Typical-cascade entries recomputed (0 when the table isn't built yet).
  uint32_t affected_nodes = 0;
  /// Cumulative applied updates since the engine was built — the signal the
  /// drift-rebuild policy thresholds on.
  uint64_t drift = 0;
};

using ResponsePayload =
    std::variant<TypicalCascadeResponse, CascadeResponse, SpreadResponse,
                 SeedSelectResponse, ReliabilityResponse, UpdateResponse>;

/// Answer provenance attached to every response: which tier produced it,
/// its a-priori relative error bound (0 = exact on the sampled worlds), and
/// the handler's wall time. Protocol v2 serializes all three; v1 responses
/// ignore them (v1 only ever sees the exact tier).
struct ResponseMeta {
  const char* tier = "exact";
  double est_error = 0.0;
  uint64_t elapsed_us = 0;
};

struct Response {
  Response() = default;
  Response(ResponsePayload p) : payload(std::move(p)) {}  // NOLINT: implicit
  ResponsePayload payload;
  ResponseMeta meta;
};

/// Stable lowercase name of a request's type ("typical", "cascade",
/// "spread", "seed_select", "reliability", "update") — used for metrics and
/// the wire protocol.
const char* RequestTypeName(const Request& request);

/// Engine configuration: index construction plus admission control.
struct EngineOptions {
  /// Worlds / model / closure budget for the index the engine builds.
  CascadeIndexOptions index;
  /// Seed for world sampling (same seed + graph => same index => same
  /// answers).
  uint64_t seed = 1;
  /// When nonzero, sets the process-global thread budget at Create time
  /// (equivalent to SetGlobalThreads). 0 leaves the current budget alone.
  uint32_t threads = 0;

  // -- Admission control --------------------------------------------------
  /// Largest batch RunBatch accepts; bigger batches are rejected whole with
  /// ResourceExhausted (no partial execution).
  uint32_t max_batch = 1024;
  /// Maximum concurrently admitted RunBatch/Run calls; excess callers are
  /// rejected with ResourceExhausted instead of queueing unboundedly.
  uint32_t max_in_flight = 4;
  /// Default per-request timeout in milliseconds (0 = none). Overridable
  /// per request via Request::timeout_ms.
  uint64_t default_timeout_ms = 0;
  /// Injectable monotonic clock (nanoseconds) for deadline checks; nullptr
  /// uses the real clock. Tests inject a fake clock to exercise deadlines
  /// deterministically.
  uint64_t (*clock_ns)() = nullptr;

  // -- Sketch tier / accuracy routing -------------------------------------
  /// Bottom-k sketch size for the approximate serving tier; 0 disables the
  /// tier (explicit accuracy:sketch requests fail with FailedPrecondition
  /// and auto never degrades). Sketches are built lazily on first use
  /// (deterministically from `seed`), or adopted from EngineParts::sketches
  /// on the snapshot path. Relative error ~ 1/sqrt(k-2).
  uint32_t sketch_k = 0;
  /// In-flight batch depth at which auto requests degrade to the sketch
  /// tier; 0 = max_in_flight (degrade only at admission saturation). Lower
  /// values trade accuracy for latency earlier.
  uint32_t sketch_pressure_in_flight = 0;

  // -- Dynamic updates (CreateDynamic engines only) -----------------------
  /// When nonzero, the serving layer (soi_cli serve --dynamic, or any
  /// EngineHandle owner) is expected to rebuild the engine from its
  /// materialized graph and hot-swap it once drift() crosses this many
  /// applied updates. The engine itself only counts drift — orchestration
  /// lives with whoever owns the EngineHandle, because only the handle can
  /// perform the atomic swap. 0 disables the policy.
  uint64_t drift_rebuild_threshold = 0;
};

/// Pre-assembled serving state for Engine::FromParts — the restart path
/// that skips every build step. The graph and index may be borrowed views
/// into an external mapping; `storage` is the opaque lifetime anchor that
/// keeps that mapping alive for as long as the engine exists (the service
/// layer never depends on the snapshot layer — it just holds the anchor).
struct EngineParts {
  ProbGraph graph;
  CascadeIndex index;
  /// Pre-computed typical-cascade table (one set per node). When present it
  /// seeds the engine's "tc" seed-selection cache, so even the first
  /// seed_select skips the full typical sweep. Must equal what
  /// TypicalCascadeComputer::ComputeAllFlat() would produce for `index`
  /// (both are deterministic, so a table captured at snapshot-create time
  /// qualifies) — otherwise seed_select answers would diverge from an
  /// owned engine's.
  std::optional<FlatSets> typical;
  /// Pre-built sketch tier (snapshot kinds 27-29, via MakeSketchParts).
  /// When present the engine adopts it instead of building sketches lazily,
  /// and enables routing with the parts' k. The spans may borrow from
  /// `storage`.
  std::optional<SketchParts> sketches;
  /// Opaque anchor for whatever backs borrowed views (e.g. a
  /// snapshot::Snapshot). May be null when everything is owned.
  std::shared_ptr<const void> storage;
};

/// A consistent capture of a dynamic engine's state, taken under the update
/// lock: the materialized graph plus the journal position it corresponds
/// to. The drift-rebuild flow builds a fresh engine from `graph` (same
/// options + seed => byte-identical index, see src/dynamic/), replays
/// JournalSince(journal_seq) onto it, and swaps it in via EngineHandle —
/// a semantic no-op that compacts arenas and revives dropped caches.
struct DynamicState {
  ProbGraph graph;
  uint64_t journal_seq = 0;
};

/// Thread-safe, movable facade owning the graph, the index, and the lazily
/// built seed-selection caches. Create once, answer many.
///
/// Dynamic mode (CreateDynamic): the engine additionally owns a
/// DynamicIndex and accepts UpdateRequest batches. A batch containing any
/// update runs sequentially under an exclusive state lock (updates mutate
/// the index; sequential execution also keeps update batches deterministic
/// at every thread count); pure-query batches share the state lock and run
/// on the parallel path as usual.
class Engine {
 public:
  /// Builds the index from `graph` (which the engine takes ownership of)
  /// and validates the options.
  static Result<Engine> Create(ProbGraph graph,
                               const EngineOptions& options = {});

  /// Builds an incrementally maintainable engine (see src/dynamic/) over
  /// the same index Create builds: accepts UpdateRequest batches, keeps a
  /// journal for drift rebuilds, and stays byte-identical to a fresh Create
  /// or CreateDynamic on the updated graph after every batch.
  static Result<Engine> CreateDynamic(ProbGraph graph,
                                      const EngineOptions& options = {});

  /// Wraps pre-assembled serving state (the snapshot restart path): no
  /// sampling, no SCC runs, no closure rebuild — the engine answers its
  /// first query straight from `parts`. `options.index`/`options.seed` are
  /// ignored (the index already exists); admission-control options apply
  /// as in Create.
  static Result<Engine> FromParts(EngineParts parts,
                                  const EngineOptions& options = {});

  ~Engine();
  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes one request (a batch of one: same admission control, same
  /// error model).
  Result<Response> Run(const Request& request);

  /// Executes a batch. The outer Status rejects the whole batch (too big,
  /// too many batches in flight); the inner results are per-request and
  /// ordered like the input. Deterministic at every thread count when no
  /// deadlines are set.
  Result<std::vector<Result<Response>>> RunBatch(
      std::span<const Request> requests);

  /// Zero-allocation batch entry point for the serving data plane: executes
  /// `*requests[i]` (pointers let the caller gather a cross-connection
  /// batch without copying request payloads) into `*results`, which is
  /// resized to the batch and whose storage is reused call over call.
  /// Admission control, ordering, and determinism match RunBatch exactly;
  /// the returned Status is RunBatch's outer status (on error `*results`
  /// is left cleared). At a single-thread budget the batch runs inline on
  /// the caller with one reused scratch — no task dispatch, no heap
  /// traffic for fixed-size responses.
  Status RunBatchInto(std::span<const Request* const> requests,
                      std::vector<Result<Response>>* results);

  /// The graph the engine was BUILT from. For a dynamic engine this does
  /// not reflect applied updates (an immutable reference can't track a
  /// mutating graph) — use CaptureDynamicState()/fingerprint() for current
  /// state.
  const ProbGraph& graph() const;
  const CascadeIndex& index() const;
  const EngineOptions& options() const;
  /// Currently admitted Run/RunBatch calls (admission-control observability).
  uint32_t in_flight() const;

  /// Runs every first-use check now: a snapshot-backed engine's per-world
  /// closure and sketch runs (CascadeIndex::PrepareWorld,
  /// SketchSpreadOracle::PrepareWorld), sequentially. The first failure,
  /// naming its world; OK at once for engines built in memory. A hot reload
  /// runs it before swapping a file in, so a malformed world is refused
  /// instead of served.
  Status PrepareAllWorlds() const;

  // -- Dynamic-mode observability & drift-rebuild hooks -------------------
  /// True for CreateDynamic engines.
  bool dynamic() const;
  /// Applied updates since construction (0 for static engines and after a
  /// hot swap to a freshly rebuilt engine, modulo catch-up replay).
  uint64_t drift() const;
  /// Fingerprint of the CURRENT graph (updates included); for a static
  /// engine, of the build-time graph. Pairs with snapshot staleness checks.
  uint64_t fingerprint() const;
  /// Captures the current graph + journal position, consistent w.r.t.
  /// concurrent update batches. FailedPrecondition on static engines.
  Result<DynamicState> CaptureDynamicState() const;
  /// Updates applied after journal position `seq` (in application order).
  /// Empty for static engines.
  std::vector<GraphUpdate> JournalSince(uint64_t seq) const;

 private:
  Engine();
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace soi::service

#endif  // SOI_SERVICE_ENGINE_H_
