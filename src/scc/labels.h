#ifndef SOI_SCC_LABELS_H_
#define SOI_SCC_LABELS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "scc/condensation.h"

namespace soi {

/// Succinct reachability labels over a condensation DAG: for every component
/// c, the reachable component set closure(c) stored as a short list of
/// *maximally coalesced id intervals* [lo, hi] over the component-id order,
/// plus the precomputed reachable-node total.
///
/// Why intervals work here: component ids are assigned in reverse
/// topological order (every DAG edge (c, c') has c' < c — see
/// scc/condensation.h), and Tarjan emits components of one DFS tree
/// contiguously, so reachable sets are unions of few dense id ranges. The
/// label of c is computed exactly, in one ascending pass, as the coalesced
/// interval union
///
///   intervals(c) = merge({[c, c]} ∪ intervals(s_1) ∪ ... ∪ intervals(s_k))
///
/// over the DAG successors s_i < c (already final). No approximation is
/// involved: the union of the intervals is exactly closure(c).
///
/// What the label answers:
///  - CascadeSize: reach_nodes[c] is precomputed at build time from the
///    members-offset prefix sums, so a single-source size query is O(1) —
///    the same complexity the materialized closure offers at a tiny fraction
///    of its footprint (per-component cost is O(#intervals), not
///    O(#reachable nodes)).
///  - Reachability test: binary search over the interval list.
///  - Membership enumeration: the members of components [lo, hi] are one
///    contiguous slice of the condensation's members array,
///    members[mo[lo], mo[hi + 1]), so the index marks each interval's slice
///    in a node bitmap and drains it ascending (index/cascade_index.h) —
///    the materialized run, byte for byte, with no component id expanded
///    and nothing stored.
///
/// Storage is dual-mode like the other serving-state arenas: owned vectors
/// (BuildReachLabels) or spans borrowed from an mmap'd snapshot section.
struct ReachLabels {
  /// bounds[2k], bounds[2k+1] for k in [offsets[c], offsets[c+1]) are the
  /// inclusive [lo, hi] intervals of component c, ascending and disjoint
  /// with gaps >= 2 (maximally coalesced).
  std::vector<uint64_t> offsets;  // nc + 1, in interval units
  std::vector<uint32_t> bounds;   // 2 * total_intervals
  /// reach_nodes[c]: total member count over closure(c) — the cascade size
  /// of any node in c.
  std::vector<uint32_t> reach_nodes;  // nc

  /// Wraps spans from an external mapping without copying. Structural
  /// validity is the loader's responsibility (snapshot/reader.cc).
  static ReachLabels Borrowed(std::span<const uint64_t> offsets,
                              std::span<const uint32_t> bounds,
                              std::span<const uint32_t> reach_nodes) {
    ReachLabels out;
    out.borrowed_ = true;
    out.b_offsets_ = offsets;
    out.b_bounds_ = bounds;
    out.b_reach_nodes_ = reach_nodes;
    return out;
  }

  bool borrowed() const { return borrowed_; }

  /// True for a default-constructed / failed build (no offsets at all). A
  /// successful build always has offsets.size() == nc + 1 >= 1.
  bool empty() const { return offsets_view().empty(); }

  uint32_t num_components() const {
    const auto off = offsets_view();
    return off.empty() ? 0 : static_cast<uint32_t>(off.size() - 1);
  }

  uint64_t NumIntervals(uint32_t c) const {
    const auto off = offsets_view();
    SOI_DCHECK(c + 1 < off.size());
    return off[c + 1] - off[c];
  }

  /// Flattened [lo0, hi0, lo1, hi1, ...] interval list of component c.
  std::span<const uint32_t> Bounds(uint32_t c) const {
    const auto off = offsets_view();
    const auto b = bounds_view();
    SOI_DCHECK(c + 1 < off.size());
    return std::span<const uint32_t>(b.data() + 2 * off[c],
                                     b.data() + 2 * off[c + 1]);
  }

  /// Cascade size of any node in component c, O(1).
  uint32_t NodeCount(uint32_t c) const {
    const auto rn = reach_nodes_view();
    SOI_DCHECK(c < rn.size());
    return rn[c];
  }

  /// Number of components in closure(c): sum of interval widths.
  uint64_t ClosureLength(uint32_t c) const {
    uint64_t total = 0;
    const auto b = Bounds(c);
    for (size_t k = 0; k < b.size(); k += 2) total += b[k + 1] - b[k] + 1;
    return total;
  }

  /// True iff component x is reachable from c (binary search over the
  /// interval lows).
  bool Reaches(uint32_t c, uint32_t x) const {
    const auto b = Bounds(c);
    size_t lo = 0, hi = b.size() / 2;  // intervals with bounds[2k] <= x
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (b[2 * mid] <= x) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo > 0 && x <= b[2 * lo - 1];
  }

  /// Appends closure(c) — ascending component ids — to *out.
  void AppendClosure(uint32_t c, std::vector<uint32_t>* out) const {
    const auto b = Bounds(c);
    for (size_t k = 0; k < b.size(); k += 2) {
      for (uint32_t x = b[k]; x <= b[k + 1]; ++x) out->push_back(x);
    }
  }

  /// Heap/mapped footprint (what the tier budget meters for labels-tier
  /// worlds).
  uint64_t ApproxBytes() const {
    return 8ull * offsets_view().size() + 4ull * bounds_view().size() +
           4ull * reach_nodes_view().size();
  }

  std::span<const uint64_t> offsets_view() const {
    return borrowed_ ? b_offsets_ : std::span<const uint64_t>(offsets);
  }
  std::span<const uint32_t> bounds_view() const {
    return borrowed_ ? b_bounds_ : std::span<const uint32_t>(bounds);
  }
  std::span<const uint32_t> reach_nodes_view() const {
    return borrowed_ ? b_reach_nodes_
                     : std::span<const uint32_t>(reach_nodes);
  }

 private:
  bool borrowed_ = false;
  std::span<const uint64_t> b_offsets_;
  std::span<const uint32_t> b_bounds_;
  std::span<const uint32_t> b_reach_nodes_;
};

/// Byte-exact sizes of the closure a label set describes, accumulated during
/// the label build. The tier assignment uses these to price the materialized
/// alternative without building it: `closure_comps`/`closure_nodes` equal
/// the comps/nodes array lengths BuildReachabilityClosure would produce, so
///
///   materialized_bytes = 16 * (nc + 1) + 4 * closure_comps
///                                      + 4 * closure_nodes
///
/// matches ReachabilityClosure::ApproxBytes() exactly.
struct ReachLabelStats {
  uint64_t total_intervals = 0;
  uint64_t closure_comps = 0;
  uint64_t closure_nodes = 0;
};

/// Reusable scratch for BuildReachLabels (interval gather + merge buffers);
/// caller-owned to amortize allocations across worlds.
struct ReachLabelScratch {
  std::vector<std::pair<uint32_t, uint32_t>> gather;
};

/// Builds the interval labels of `cond` in one ascending
/// (reverse-topological) pass. Deterministic: depends only on the DAG.
///
/// `max_total_intervals` caps the stored interval count; when a DAG
/// fragments so badly that the cap would be exceeded the build stops and
/// returns empty labels (num_components() == 0) so the caller can fall back
/// to per-query traversal. Pass UINT64_MAX for an unbounded build.
ReachLabels BuildReachLabels(const Condensation& cond,
                             uint64_t max_total_intervals,
                             ReachLabelScratch* scratch = nullptr,
                             ReachLabelStats* stats = nullptr);

}  // namespace soi

#endif  // SOI_SCC_LABELS_H_
