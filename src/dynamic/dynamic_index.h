#ifndef SOI_DYNAMIC_DYNAMIC_INDEX_H_
#define SOI_DYNAMIC_DYNAMIC_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cascade/world.h"
#include "dynamic/dynamic_graph.h"
#include "index/cascade_index.h"
#include "util/flat_sets.h"
#include "util/status.h"

namespace soi {

/// Per-batch maintenance report.
struct UpdateStats {
  /// Updates applied (== the batch size on success).
  uint32_t applied_ops = 0;
  /// Worlds whose live-edge set changed and were re-derived (sample →
  /// SCC → closure or labels, plus the transitive reduction when the
  /// options ask for it). The complement was left byte-untouched.
  uint32_t affected_worlds = 0;
  /// Typical-cascade table entries recomputed (0 when the table is not
  /// materialized).
  uint32_t affected_nodes = 0;
  /// Cumulative applied updates since Build (the staleness signal the
  /// service layer's drift-rebuild policy thresholds on).
  uint64_t drift = 0;
  double seconds = 0.0;
};

/// An incrementally maintained cascade index (DESIGN §13): the mutable
/// DynamicGraph, the CascadeIndex over its sampled worlds, and (lazily) the
/// typical-cascade table, kept consistent under EdgeInsert / EdgeDelete /
/// UpdateProb streams.
///
/// Build is CascadeIndex::Build(graph, options, Rng(seed)), so a dynamic
/// and a static index of one graph, options and seed are the same index.
/// The maintenance contract is *exact rebuild equivalence*: after any
/// sequence of successful ApplyUpdates batches, the index (serialized
/// bytes) and every query answer are byte-identical to those of
/// `CascadeIndex::Build(materialized graph, same options, Rng(seed))`.
/// This is possible because world sampling is keyed — every draw is a pure
/// function of (seed, world, arc or node), see WorldCoins in
/// cascade/world.h — so a batch only needs to re-derive the worlds whose
/// touched-arc draws actually changed the live-edge set; all other worlds
/// are provably bit-identical to what a fresh build would produce.
///
/// Closure-cache policy under updates mirrors the build-time all-or-nothing
/// budget: affected worlds' closures are recomputed; if the patched total
/// would exceed the budget the whole cache is dropped (queries fall back to
/// traversal, byte-identical answers) and stays dropped until a full
/// rebuild. Snapshot bytes (snapshot/writer.h) carry the retained cache,
/// so byte parity with a fresh build covers it too; a cache dropped here
/// differs from a fresh build's once the patched total fits the budget
/// again.
///
/// Thread-safety: none. The service layer serializes updates against
/// queries (service::Engine holds a shared_mutex); standalone users must do
/// the same.
class DynamicIndex {
 public:
  /// Builds the index as CascadeIndex::Build(graph, options, Rng(seed))
  /// does and keeps a mutable copy of the graph. `seed` plays the role of
  /// EngineOptions::seed: same graph + options + seed => same index,
  /// forever, updates included.
  static Result<DynamicIndex> Build(const ProbGraph& graph,
                                    const CascadeIndexOptions& options,
                                    uint64_t seed);

  /// Applies one batch atomically: every update validates against the
  /// state left by its predecessors (an insert may re-weight-then-delete
  /// within one batch), and on any validation error the graph is rolled
  /// back and the index left untouched. On success, re-derives exactly the
  /// affected worlds and patches the typical table (when materialized) for
  /// exactly the nodes whose cascades changed.
  Result<UpdateStats> ApplyUpdates(std::span<const GraphUpdate> updates);

  const CascadeIndex& index() const { return index_; }
  const DynamicGraph& graph() const { return graph_; }
  const CascadeIndexOptions& options() const { return options_; }

  /// Applied updates since Build. The drift-rebuild policy (DESIGN §13.4)
  /// swaps in a freshly built engine when this crosses a threshold —
  /// semantically a no-op thanks to rebuild equivalence, operationally a
  /// compaction (arenas defragment, dropped closure caches come back).
  uint64_t drift() const { return drift_; }

  /// Immutable snapshot of the current graph (for rebuilds and snapshots).
  Result<ProbGraph> MaterializeGraph() const { return graph_.Materialize(); }

  /// Fingerprint of the current graph (matches GraphFingerprint of the
  /// materialized graph; the stale-snapshot guard).
  uint64_t fingerprint() const { return graph_.Fingerprint(); }

  /// Materializes the per-node typical-cascade table (Algorithm 2 sweep)
  /// if absent; later ApplyUpdates batches patch it incrementally. The
  /// table equals TypicalCascadeComputer::ComputeAllFlat on the current
  /// index, always.
  Status EnsureTypical();
  bool has_typical() const { return typical_ready_; }
  const FlatSets& typical() const {
    SOI_CHECK(typical_ready_);
    return typical_;
  }

 private:
  DynamicIndex() = default;

  // Re-derives world i's condensation from the current graph, as
  // CascadeIndex::Build derives it from the materialized graph: the same
  // WorldCoins over the same (src, dst) order → SCC → optional transitive
  // reduction.
  Condensation DeriveWorld(uint32_t i) const;

  // Applies a validated `update` to the graph, adds to `affected`
  // (deduplicated via world_mark_) every world whose live-edge set it
  // changes, and returns its inverse. IC: the arc's liveness differs under
  // its old and new probability. LT: dst's selected in-arc differs before
  // and after the update.
  GraphUpdate ApplyAndMark(const GraphUpdate& update,
                           std::vector<uint32_t>* affected);

  // LT-only: incremental weight-budget check for an op (in-weights of the
  // target must stay <= 1).
  Status ValidateLtBudget(const GraphUpdate& update) const;

  DynamicGraph graph_;
  CascadeIndexOptions options_;
  CascadeIndex index_;
  std::vector<WorldCoins> coins_;  // world i's draws, as Build sampled them
  uint64_t drift_ = 0;

  bool typical_ready_ = false;
  FlatSets typical_;  // node v -> typical cascade, when typical_ready_

  // Per-call scratch (world stamp marks for affected-set dedup).
  std::vector<uint32_t> world_mark_;
  uint32_t world_stamp_ = 0;
};

}  // namespace soi

#endif  // SOI_DYNAMIC_DYNAMIC_INDEX_H_
