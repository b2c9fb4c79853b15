#ifndef SOI_INDEX_CASCADE_INDEX_H_
#define SOI_INDEX_CASCADE_INDEX_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "graph/prob_graph.h"
#include "scc/closure.h"
#include "scc/condensation.h"
#include "scc/labels.h"
#include "scc/transitive.h"
#include "util/bitvector.h"
#include "util/flat_sets.h"
#include "util/once_table.h"
#include "util/rng.h"
#include "util/status.h"

namespace soi {

/// Diffusion model whose live-edge worlds the index samples. Both models
/// admit a live-edge view (KKT 2003), so everything downstream — typical
/// cascades, spread oracles, InfMax — is model-agnostic.
enum class PropagationModel {
  /// Independent Cascade: every edge flips its own coin (the paper's model).
  kIndependentCascade,
  /// Linear Threshold: every node keeps at most one incoming edge, chosen
  /// with probability equal to its weight (requires per-node in-weights
  /// summing to <= 1; see cascade/threshold.h).
  kLinearThreshold,
};

/// Default retained-size budget for the per-world reachability cache
/// (closures + labels), in MiB: `SOI_CLOSURE_BUDGET_MB` when set to a valid
/// integer, otherwise 512. 0 disables the cache entirely (pure traversal
/// paths).
uint64_t DefaultClosureBudgetMb();

/// Per-world storage tier for reachability state, cheapest first. Query
/// results are byte-identical across tiers; only footprint and per-query
/// cost differ.
enum class WorldTier : uint8_t {
  /// Nothing retained: every query runs the condensation-DAG traversal.
  kTraversal = 0,
  /// Succinct interval labels (scc/labels.h): O(1) single-source size,
  /// streaming enumeration, typically 1–2 orders of magnitude smaller than
  /// the materialized closure.
  kLabels = 1,
  /// Fully materialized closure + cascade runs (scc/closure.h): zero-copy
  /// single-source cascades.
  kMaterialized = 2,
};

/// Which tiers BuildClosureCache may assign.
enum class ClosureTierPolicy : uint8_t {
  /// Per-world greedy, in world order: materialize while the budget lasts,
  /// then labels, then traversal. When everything fits this is exactly the
  /// materialized-only cache (same bytes, same stats).
  kAuto = 0,
  /// Legacy all-or-nothing: materialize every world or retain nothing.
  kMaterialized = 1,
  /// Labels only (greedy under the budget, never materializes) — the
  /// benchmarking tier for the labels-vs-materialized latency ratio.
  kLabels = 2,
  /// Retain nothing; all queries traverse.
  kTraversal = 3,
};

/// Default tier policy: `SOI_CLOSURE_TIER` when set to one of
/// auto|materialized|labels|traversal, otherwise kAuto.
ClosureTierPolicy DefaultClosureTierPolicy();

/// Parses a tier-policy name (the CLI flag / env-var vocabulary).
bool ParseClosureTierPolicy(const char* name, ClosureTierPolicy* out);
const char* ClosureTierPolicyName(ClosureTierPolicy policy);

/// Options for index construction.
struct CascadeIndexOptions {
  /// Number of sampled possible worlds l. Theorem 2: a constant number of
  /// samples suffices for a multiplicative approximation; the paper uses
  /// 1000, we default lower for single-core sweeps.
  uint32_t num_worlds = 128;
  PropagationModel model = PropagationModel::kIndependentCascade;
  /// Apply the transitive reduction to each condensation (the space step of
  /// paper §4). Off by default: it removes only 1–3% of DAG arcs and changes
  /// no answer (closures, labels and tiers depend only on reachability),
  /// yet on the perfbench `serve`/`update` graph it costs more per world
  /// than the closure build. Kept as the DESIGN §8 ablation.
  bool transitive_reduction = false;
  ReductionOptions reduction;
  /// Memory budget for the per-world reachability cache (closures +
  /// labels). Under the default kAuto policy each world is assigned the
  /// richest tier that still fits: materialized closure, then interval
  /// labels, then nothing (per-query DAG traversal). Outputs are
  /// byte-identical across tiers. 0 disables the cache.
  uint64_t closure_budget_mb = DefaultClosureBudgetMb();
  /// Which tiers the budget logic may assign (kAuto unless overridden by
  /// the `--closure-tier` flag / `SOI_CLOSURE_TIER`).
  ClosureTierPolicy tier_policy = DefaultClosureTierPolicy();
};

/// Aggregate construction statistics (reported by benches).
struct CascadeIndexStats {
  double build_seconds = 0.0;
  double avg_components = 0.0;
  double avg_dag_edges_before = 0.0;
  double avg_dag_edges_after = 0.0;
  /// Estimated resident bytes of the index payload: condensations plus the
  /// retained reachability cache (closures + labels). Build and FromParts
  /// share one accounting.
  uint64_t approx_bytes = 0;
  /// Bytes of the retained materialized closures (0 when none).
  uint64_t closure_bytes = 0;
  /// Bytes of the retained interval labels (0 when none).
  uint64_t label_bytes = 0;
  /// Tier population (sums to num_worlds after construction).
  uint32_t worlds_materialized = 0;
  uint32_t worlds_labeled = 0;
  uint32_t worlds_traversal = 0;
};

/// The cascade index of Algorithm 1 (paper §4, Figure 2): for each of the l
/// sampled worlds G_i it stores the SCC condensation DAG (transitively
/// reduced only when CascadeIndexOptions::transitive_reduction is set) plus
/// the node→component matrix I[v, i]. The cascade of v in G_i is then the
/// union of the members of all components reachable from I[v, i], obtained
/// by one DAG traversal — typically far cheaper than re-traversing G_i.
///
/// On top of that, the index memoizes per-world reachability through a
/// three-tier memory hierarchy picked per world under
/// CascadeIndexOptions::closure_budget_mb (see WorldTier):
///
///  - kMaterialized (scc/closure.h): the world's full component closure and
///    cascade runs, computed once in reverse-topological order. A
///    single-source cascade query is a zero-copy span into the runs CSR
///    (CachedCascade), a size query an offset subtraction.
///  - kLabels (scc/labels.h): succinct interval labels over the
///    reverse-topological id order. Size queries stay O(1)
///    (precomputed reach_nodes); enumeration marks each interval's slice
///    of the members array in a node bitmap and drains it ascending —
///    nothing the size of a closure is ever stored.
///  - kTraversal: per-query DAG traversal, zero retained bytes.
///
/// Query results are byte-identical across tiers and thread counts; the
/// tiers trade only memory against per-query constant factors.
class CascadeIndex {
 public:
  /// Reusable per-thread scratch for cascade queries; sized on first use.
  /// Every cascade that is not a materialized single-source span is
  /// assembled through its node bitmap: the members of each reached
  /// component are marked once, then drained in ascending order.
  class Workspace {
   public:
    Workspace() = default;

   private:
    friend class CascadeIndex;
    void Prepare(uint32_t num_components);

    std::vector<uint32_t> stamp_;
    uint32_t stamp_id_ = 0;
    std::vector<uint32_t> comps_;
    // Labels-tier multi-seed interval union.
    std::vector<std::pair<uint32_t, uint32_t>> intervals_;
    SortedIdMarks marks_;  // node bitmap every assembled cascade drains
  };

  /// Flat reusable arena for batches of extracted cascades: one contiguous
  /// buffer instead of one heap allocation per (seed set, world). Backed by
  /// a FlatSets arena, so batches feed straight into the cover engine /
  /// InfMaxTC flat paths without repacking. Views are only valid until the
  /// next append/Clear.
  class CascadeArena {
   public:
    void Clear() { sets_.Clear(); }
    size_t num_cascades() const { return sets_.num_sets(); }
    std::span<const NodeId> View(size_t i) const { return sets_.Set(i); }
    /// The underlying flat storage (same indexing as View()).
    const FlatSets& flat() const { return sets_; }
    /// All cascades as spans (rebuilt on every call; the return stays valid
    /// as long as the arena is not appended to or cleared).
    const std::vector<std::span<const NodeId>>& Views() {
      views_.clear();
      views_.reserve(sets_.num_sets());
      for (size_t i = 0; i < sets_.num_sets(); ++i) views_.push_back(View(i));
      return views_;
    }

   private:
    friend class CascadeIndex;
    FlatSets sets_;
    std::vector<std::span<const NodeId>> views_;
  };

  /// First-use hook for snapshot-backed closures (see FromParts): checks
  /// world `world`'s stored closure runs and, for a packed layout, decodes
  /// them into `closure` (whose offsets are already in place). An error
  /// names the world and what is malformed.
  using ClosureLoader =
      std::function<Status(uint32_t world, ReachabilityClosure* closure)>;

  /// Samples l worlds from `graph` and builds their condensations (and the
  /// closure cache, budget permitting).
  static Result<CascadeIndex> Build(const ProbGraph& graph,
                                    const CascadeIndexOptions& options,
                                    Rng* rng);

  /// Assembles an index from prebuilt condensations AND prebuilt
  /// reachability state (the snapshot load path: everything typically
  /// borrows spans into one mmap'd file, so assembly is O(num_worlds)
  /// bookkeeping — no sampling, no SCC runs, no closure sweep).
  ///
  /// With `tiers` empty the legacy two-state contract applies: `closures`
  /// must be empty (all worlds traverse) or have exactly one closure per
  /// world (all worlds materialized). With `tiers` given (one per world),
  /// `closures`/`labels` are indexed per world and must be populated — with
  /// matching component counts — exactly where the tier says so.
  ///
  /// With a `loader`, every materialized world starts unprepared: its
  /// closure offsets answer size queries at once, and the loader runs once,
  /// on the world's first PrepareWorld (see there). Without one, every world
  /// is ready.
  static Result<CascadeIndex> FromParts(
      NodeId num_nodes, std::vector<Condensation> worlds,
      std::vector<ReachabilityClosure> closures,
      std::vector<ReachLabels> labels = {},
      std::vector<WorldTier> tiers = {}, ClosureLoader loader = {});

  uint32_t num_worlds() const { return static_cast<uint32_t>(worlds_.size()); }
  NodeId num_nodes() const { return num_nodes_; }
  const CascadeIndexStats& stats() const { return stats_; }

  /// The condensation of world i.
  const Condensation& world(uint32_t i) const {
    SOI_DCHECK(i < worlds_.size());
    return worlds_[i];
  }

  /// True when EVERY world carries a materialized closure — the strongest
  /// cache state, in which CachedCascade is valid for any world. Mixed-tier
  /// and labels-only indexes answer the same queries byte-identically
  /// through Cascade/CascadeSize/AppendCascade, just not via zero-copy
  /// spans for non-materialized worlds.
  bool has_closure_cache() const {
    return !worlds_.empty() && num_materialized_ == worlds_.size();
  }

  /// Storage tier of world i.
  WorldTier tier(uint32_t i) const {
    SOI_DCHECK(i < tiers_.size());
    return tiers_[i];
  }

  /// True when every world answers size queries in O(1) — i.e. no world is
  /// on the traversal tier (the spread oracle's first-round fast path).
  bool has_fast_counts() const {
    return !worlds_.empty() &&
           num_materialized_ + num_labeled_ == worlds_.size();
  }

  /// The reachability closure of world i; only valid when
  /// tier(i) == kMaterialized and the world is prepared (PrepareWorld).
  const ReachabilityClosure& closure(uint32_t i) const {
    SOI_DCHECK(i < closures_.size());
    SOI_DCHECK(tiers_[i] == WorldTier::kMaterialized && prepared(i));
    return closures_[i];
  }

  /// Readies world i for the unchecked kernels (CachedCascade,
  /// AppendCascade, closure). A snapshot-backed materialized world has its
  /// closure runs checked, and decoded when packed, on the first call from
  /// any thread; concurrent first callers wait for that one pass, and every
  /// later call returns its Status — a world that fails stays failed while
  /// the others keep serving. Sequential: opens no parallel region. OK at
  /// once for worlds built in memory and for the other tiers. The validated
  /// entry points below call it themselves.
  Status PrepareWorld(uint32_t i) const {
    SOI_DCHECK(i < tiers_.size());
    if (!loader_ || tiers_[i] != WorldTier::kMaterialized) {
      return Status::OK();
    }
    return first_touch_.Run(i, [&] { return loader_(i, &closures_[i]); });
  }

  /// PrepareWorld for every world, in world order; the first failure.
  Status PrepareAllWorlds() const;

  /// The interval labels of world i; only valid when tier(i) == kLabels.
  const ReachLabels& labels(uint32_t i) const {
    SOI_DCHECK(i < labels_.size());
    SOI_DCHECK(tiers_[i] == WorldTier::kLabels);
    return labels_[i];
  }

  /// Cascade size of component `comp` in world i, O(1); only valid when
  /// tier(i) != kTraversal. Reads offsets only, so it needs no
  /// PrepareWorld.
  uint32_t ReachNodeCount(uint32_t comp, uint32_t i) const {
    SOI_DCHECK(i < tiers_.size());
    SOI_DCHECK(tiers_[i] != WorldTier::kTraversal);
    return tiers_[i] == WorldTier::kMaterialized
               ? closures_[i].NodeCount(comp)
               : labels_[i].NodeCount(comp);
  }

  /// The I[v, i] matrix entry: component of v in world i.
  uint32_t ComponentOf(NodeId v, uint32_t i) const {
    return world(i).ComponentOf(v);
  }

  // -- In-place world patching (dynamic-update path; see src/dynamic/) ----

  /// Replaces the condensation of world i. Owned-mode condensation covering
  /// num_nodes() nodes; the caller (DynamicIndex) guarantees it was built
  /// from the world's current live-edge set. Does NOT touch the
  /// reachability cache or stats — the caller must restore cache
  /// consistency (SetClosure / DropClosureCache / RebuildClosureTiers) and
  /// finish the batch with RecomputeStats().
  void ReplaceWorld(uint32_t i, Condensation cond);

  /// Replaces the cached closure of world i; only valid while
  /// has_closure_cache() (component count must match the world's current
  /// condensation).
  void SetClosure(uint32_t i, ReachabilityClosure closure);

  /// Drops the whole reachability cache — every world falls back to DAG
  /// traversal with byte-identical answers. The dynamic layer calls this
  /// when a patch pushes the cache past its budget — mirroring the
  /// all-or-nothing policy of the kMaterialized tier policy.
  void DropClosureCache();

  /// Recomputes the full tier assignment from the current worlds (the
  /// dynamic layer's recovery path after patching a mixed-tier index).
  /// Deterministic: depends only on the worlds, budget and policy. Stats
  /// are updated in place.
  void RebuildClosureTiers(uint64_t budget_mb, ClosureTierPolicy policy);

  /// Byte-granular variant of RebuildClosureTiers for callers that need
  /// exact budget boundaries (tests, embedders metering their own pools).
  /// A world whose retained bytes land exactly on the remaining budget is
  /// admitted (<=, not <).
  void RebuildClosureTiersBytes(uint64_t budget_bytes,
                                ClosureTierPolicy policy);

  /// Re-derives avg_components / avg_dag_edges / approx_bytes /
  /// closure_bytes from the current worlds and closures after a patch
  /// batch. Pre-reduction DAG edge counts are not observable here, so
  /// avg_dag_edges_before is reported equal to the stored count (the same
  /// convention as FromParts).
  void RecomputeStats();

  /// Validates a query seed set: non-empty, every id < num_nodes(). The
  /// query entry points below call this themselves; it is public so batch
  /// drivers (the service layer) can validate once and then use the
  /// unchecked per-world kernels.
  Status ValidateSeeds(std::span<const NodeId> seeds) const;

  /// Validates a world index against num_worlds().
  Status ValidateWorld(uint32_t i) const;

  /// Zero-copy cascade of single source v in world i: a span into the
  /// memoized run, sorted ascending, valid for the index's lifetime.
  ///
  /// Unchecked hot kernel: requires tier(i) == kMaterialized, a prepared
  /// world, v < num_nodes() and i < num_worlds() (pre-validated by the
  /// caller; debug-checked). Identical content to Cascade(v, i, ws).
  std::span<const NodeId> CachedCascade(NodeId v, uint32_t i) const {
    SOI_DCHECK(i < tiers_.size() && tiers_[i] == WorldTier::kMaterialized);
    SOI_DCHECK(prepared(i));
    SOI_DCHECK(v < num_nodes_);
    return closures_[i].Cascade(world(i).ComponentOf(v));
  }

  /// Cascade of the seed set in world i, sorted ascending (includes seeds).
  /// Validated entry point: bad seeds, world index or stored world state
  /// return a Status instead of aborting.
  Result<std::vector<NodeId>> Cascade(std::span<const NodeId> seeds,
                                      uint32_t i, Workspace* ws) const;
  Result<std::vector<NodeId>> Cascade(NodeId v, uint32_t i,
                                      Workspace* ws) const {
    const NodeId seeds[1] = {v};
    return Cascade(std::span<const NodeId>(seeds, 1), i, ws);
  }

  /// Appends the cascade of the seed set in world i to `arena` (allocation
  /// amortized across the arena's lifetime).
  ///
  /// Unchecked hot kernel: seeds and world index must be pre-validated
  /// (ValidateSeeds/ValidateWorld) and the world prepared (PrepareWorld);
  /// anything else is a programming error, debug-checked only.
  void AppendCascade(std::span<const NodeId> seeds, uint32_t i, Workspace* ws,
                     CascadeArena* arena) const;
  void AppendCascade(NodeId v, uint32_t i, Workspace* ws,
                     CascadeArena* arena) const {
    const NodeId seeds[1] = {v};
    AppendCascade(std::span<const NodeId>(seeds, 1), i, ws, arena);
  }

  /// Number of nodes in the cascade, without materializing them. O(1) for a
  /// single seed when the closure cache is present, and then it needs no
  /// PrepareWorld. Validated entry point.
  Result<uint64_t> CascadeSize(std::span<const NodeId> seeds, uint32_t i,
                               Workspace* ws) const;
  Result<uint64_t> CascadeSize(NodeId v, uint32_t i, Workspace* ws) const {
    const NodeId seeds[1] = {v};
    return CascadeSize(std::span<const NodeId>(seeds, 1), i, ws);
  }

  /// All l cascades of a seed set (the sample fed to the Jaccard median).
  /// Validated entry point.
  Result<std::vector<std::vector<NodeId>>> AllCascades(
      std::span<const NodeId> seeds, Workspace* ws) const;
  Result<std::vector<std::vector<NodeId>>> AllCascades(NodeId v,
                                                       Workspace* ws) const {
    const NodeId seeds[1] = {v};
    return AllCascades(std::span<const NodeId>(seeds, 1), ws);
  }

  /// All l cascades of a seed set into a reusable arena (clears it first).
  /// The zero-allocation sibling of AllCascades for sweep loops. Validated
  /// entry point; on error the arena is left cleared.
  Status AllCascadesInto(std::span<const NodeId> seeds, Workspace* ws,
                         CascadeArena* arena) const;

 private:
  // True when world i's closure runs may be read (debug checks).
  bool prepared(uint32_t i) const {
    return !loader_ || tiers_[i] != WorldTier::kMaterialized ||
           first_touch_.ready(i);
  }

  // Appends the cascade of `seeds` in world i to *out (sorted ascending).
  void CascadeInto(std::span<const NodeId> seeds, uint32_t i, Workspace* ws,
                   std::vector<NodeId>* out) const;

  // Fills avg_components / avg_dag_edges_after / approx_bytes from worlds_
  // (one accounting shared by every construction path; closure bytes are
  // added by BuildClosureCache). Leaves avg_dag_edges_before to the caller:
  // only Build observes pre-reduction edge counts, FromParts sets it equal
  // to the stored (post-reduction) count.
  void ComputeSharedStats();

  // Assigns every world its storage tier under `budget_bytes` and `policy`
  // and builds the retained state (closures / labels). Re-entrant: strips
  // any previous cache contribution from the stats first. The assignment
  // depends only on the worlds, the budget and the policy, never on the
  // thread count: tier choice is a sequential world-order greedy over
  // deterministic per-world sizes.
  void BuildClosureCache(uint64_t budget_bytes, ClosureTierPolicy policy);

  // Recomputes num_materialized_/num_labeled_, the stats tier population
  // and the cache byte totals from tiers_/closures_/labels_ (adds cache
  // bytes to stats_.approx_bytes).
  void AccountCacheStats();

  NodeId num_nodes_ = 0;
  std::vector<Condensation> worlds_;
  // Tier state. tiers_ always has one entry per world. closures_ is either
  // empty or one entry per world, populated exactly where
  // tiers_[i] == kMaterialized; labels_ likewise for kLabels. closures_ is
  // mutable for PrepareWorld alone: it fills a snapshot world's runs once,
  // under first_touch_, and nothing reads them before that publishes.
  std::vector<WorldTier> tiers_;
  mutable std::vector<ReachabilityClosure> closures_;
  std::vector<ReachLabels> labels_;
  // Snapshot-backed worlds (FromParts with a loader): the loader and one
  // slot per world. Empty when every world is ready.
  ClosureLoader loader_;
  OnceTable first_touch_;
  uint32_t num_materialized_ = 0;
  uint32_t num_labeled_ = 0;
  CascadeIndexStats stats_;
};

}  // namespace soi

#endif  // SOI_INDEX_CASCADE_INDEX_H_
