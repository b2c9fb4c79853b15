#ifndef SOI_INFMAX_SKETCH_ORACLE_H_
#define SOI_INFMAX_SKETCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "index/cascade_index.h"
#include "infmax/spread_estimator.h"
#include "infmax/types.h"
#include "util/once_table.h"
#include "util/rng.h"
#include "util/status.h"

namespace soi {

/// Bottom-k combined reachability sketches (Cohen, Delling, Pajor, Werneck;
/// CIKM 2014 — the sketch-based influence oracle in the paper's related
/// work). Every (node, world) pair gets an independent uniform 64-bit rank;
/// the sketch of a component is the k smallest ranks among all (node, world)
/// pairs reachable from it. Spread queries then reduce to order-statistics
/// estimation:
///
///   |R| ~= (k - 1) / tau_k        (tau_k = k-th smallest normalized rank)
///
/// with exact counting when fewer than k ranks are reachable. Sketches are
/// built bottom-up over each condensation DAG (children before parents, by
/// the Tarjan id invariant), so construction is O(total DAG size * k). The
/// worlds build in parallel on the thread budget, each into its own slice
/// of one pool: ranks are distinct within a world, so a component's sketch
/// holds exactly min(k, |R(c)|) ranks, and the closure and labels tiers
/// count R(c) in O(1). The pools are identical at every thread budget.
///
/// Compared to SpreadOracle this trades exactness for O(k log) query time
/// independent of cascade size; BENCH_sketch.json quantifies the trade
/// (error vs latency, per k).
struct SketchOptions {
  /// Sketch size k: relative error ~ 1/sqrt(k - 2). Must be >= 3 — below
  /// that the estimator's error bound is undefined (division by
  /// sqrt(k - 2) <= 0) and Build returns InvalidArgument.
  uint32_t k = 16;
};

/// Borrowed sketch-tier state (e.g. spans into an mmap'd snapshot;
/// snapshot/format.h kinds 27-29). `offsets` holds one
/// (num_components + 1)-entry table per world, back-to-back in world order,
/// with values absolute into `entries`.
struct SketchParts {
  uint32_t k = 0;
  uint64_t salt = 0;
  std::span<const uint64_t> offsets;
  std::span<const uint64_t> entries;
};

class SketchSpreadOracle : public SpreadEstimator {
 public:
  /// Builds per-(world, component) sketches over the index's worlds.
  /// `index` must outlive the oracle; `rng` seeds the rank assignment.
  /// Opens a parallel region. Fails with InvalidArgument when a world's
  /// stored reach counts disagree with its condensation (a damaged
  /// snapshot), without writing outside that world's slice.
  static Result<SketchSpreadOracle> Build(const CascadeIndex& index,
                                          const SketchOptions& options,
                                          Rng* rng);

  /// Build variant whose rank salt is a pure function of `seed` (not of an
  /// Rng stream position): the same (index, k, seed) triple always yields
  /// byte-identical sketches. This is what the serving stack uses, so an
  /// engine that builds its own sketches and an engine loading them from a
  /// snapshot created with the same seed answer identically.
  static Result<SketchSpreadOracle> BuildDeterministic(
      const CascadeIndex& index, uint32_t k, uint64_t seed);

  /// Wraps pre-built sketch state without copying it (the snapshot restart
  /// path). `index` must outlive the oracle and describe the same worlds the
  /// parts were built over; the spans must outlive the oracle (the caller
  /// anchors the backing mapping). Runs CheckExtents over the index's
  /// worlds — O(worlds) — and leaves each world's runs to PrepareWorld.
  static Result<SketchSpreadOracle> FromParts(const CascadeIndex* index,
                                              const SketchParts& parts);

  /// The O(worlds) shape check every use of `parts` relies on: k >= 3, and
  /// one table per world — world i's is offsets[table_start[i],
  /// table_start[i + 1]), at least two entries, with table_start.back()
  /// closing the offsets pool — whose first and last entries tile the
  /// entries pool in world order. Entries inside a table are PrepareWorld's.
  static Status CheckExtents(const SketchParts& parts,
                             std::span<const uint64_t> table_start);

  /// Checks world i's sketch runs on first use: its table non-decreasing,
  /// each run at most k strictly increasing ranks. Once per world across
  /// threads; a failure stays failed (InvalidArgument naming the world).
  /// OK at once for oracles built in memory. EstimateSpread and
  /// SelectSeeds call it themselves.
  Status PrepareWorld(uint32_t i) const {
    if (first_touch_.size() == 0) return Status::OK();
    return first_touch_.Run(i, [&] { return CheckWorld(i); });
  }

  /// PrepareWorld for every world, in world order; the first failure.
  Status PrepareAllWorlds() const;

  /// The a-priori relative error bound 1/sqrt(k - 2) of a size-k bottom-k
  /// estimator. Tests and BENCH_sketch.json calibrate measured error
  /// against it.
  static double RelativeErrorBound(uint32_t k);

  NodeId num_nodes() const { return index_->num_nodes(); }
  uint32_t sketch_k() const { return k_; }
  uint64_t salt() const { return salt_; }
  uint64_t total_sketch_entries() const { return entries_.size(); }

  /// Raw tier state for the snapshot writer (offsets absolute into
  /// entries; one num_components + 1 table per world, in world order).
  std::span<const uint64_t> offsets_view() const { return sketch_offsets_; }
  std::span<const uint64_t> entries_view() const { return entries_; }

  // SpreadEstimator interface.
  /// Estimated expected spread of a seed set: the per-world union sizes are
  /// estimated from merged bottom-k sketches and averaged.
  Result<double> EstimateSpread(std::span<const NodeId> seeds) const override;
  const char* name() const override { return "sketch"; }
  EstimatorTier tier() const override { return EstimatorTier::kSketch; }
  double relative_error_bound() const override {
    return RelativeErrorBound(k_);
  }

  /// Single-seed convenience for oracles whose worlds are known good (built
  /// in memory): CHECK-fails on any error. Over snapshot parts, call the
  /// Result overload.
  double EstimateSpread(NodeId v) const;

  /// CELF-style greedy seed selection on the sketch tier: marginal gains are
  /// estimated from merged committed sketches, with lazy re-evaluation and
  /// lowest-id tie-breaking, so selections are deterministic. Objective
  /// values are sketch estimates (within relative_error_bound of exact).
  Result<GreedyResult> SelectSeeds(uint32_t k) const;

 private:
  SketchSpreadOracle() = default;

  static Result<SketchSpreadOracle> BuildWithSalt(const CascadeIndex& index,
                                                  uint32_t k, uint64_t salt);

  std::span<const uint64_t> Sketch(uint32_t world, uint32_t comp) const;
  Status CheckWorld(uint32_t i) const;
  double EstimateMerged(std::span<const uint64_t> merged) const;

  const CascadeIndex* index_ = nullptr;
  uint32_t k_ = 0;
  uint64_t salt_ = 0;
  // Per world: offsets into entries_ per component (flattened; per-world
  // table starts are world_base_, which ends with the pool size). Views
  // point at the owned vectors or, in FromParts mode, at externally
  // anchored storage.
  std::vector<uint64_t> world_base_;            // world -> offset table start
  std::vector<uint64_t> own_offsets_;
  std::unique_ptr<uint64_t[]> own_entries_;
  std::span<const uint64_t> sketch_offsets_;    // flattened comp offsets
  std::span<const uint64_t> entries_;           // sorted ranks per sketch
  // FromParts mode: one slot per world for CheckWorld. Empty when built.
  OnceTable first_touch_;
};

}  // namespace soi

#endif  // SOI_INFMAX_SKETCH_ORACLE_H_
