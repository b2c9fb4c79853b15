#ifndef SOI_SCC_CLOSURE_H_
#define SOI_SCC_CLOSURE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "scc/condensation.h"

namespace soi {

/// Reachability closure of a condensation DAG: for every component c, the
/// full set of components reachable from c (including c itself) as a CSR of
/// ascending component-id lists, plus the *materialized cascade run* — the
/// ascending node ids of those components' members, i.e. the exact cascade
/// of any node in c.
///
/// This is the "share reachability across sources" idea of Cohen et al.
/// (sketch-based influence oracles) applied exactly: the condensation
/// invariant that every DAG edge (c, c') has c' < c makes increasing
/// component id a reverse topological order (see scc/condensation.h), so one
/// ascending pass computes every closure as
///
///   closure(c) = {c} ∪ closure(s_1) ∪ ... ∪ closure(s_k),   s_i = succ(c),
///
/// with all successor closures already final, and likewise
///
///   run(c) = members(c) ∪ run(s_1) ∪ ... ∪ run(s_k).
///
/// Both are unions of lists that are already sorted, so the build merges
/// them and never sorts. After the build a single-source cascade query is a
/// span into the runs CSR (no traversal, no sort, no copy), a cascade size is
/// a subtraction of two offsets, and a multi-source cascade is a stamped
/// union of closure lists followed by one run merge.
///
/// Storage is per array pair: the offsets and the runs are each either
/// owned (the vectors below, filled by BuildReachabilityClosure) or
/// *borrowed* from an external read-only mapping (see src/snapshot/).
/// Borrowed() borrows all four arrays; BorrowedOffsets() borrows the two
/// offset arrays and leaves the runs to be decoded into the owned vectors
/// (the packed snapshot layout, whose runs are not stored as plain ids).
/// Queries go through the accessors, which dispatch on the mode; every mode
/// answers identically. Copies and moves are safe in all modes: an owned
/// array is never read through a view span, and a borrowed one shares the
/// external memory (whose lifetime the snapshot mapping owns).
struct ReachabilityClosure {
  /// comps[comp_offsets[c], comp_offsets[c+1]) is the closure of component
  /// c, component ids strictly ascending. 64-bit offsets: total closure
  /// length is quadratic in the worst case and routinely exceeds 32 bits
  /// before the memory budget does. Owned storage; empty in borrowed mode.
  std::vector<uint64_t> comp_offsets;
  std::vector<uint32_t> comps;
  /// nodes[node_offsets[c], node_offsets[c+1]) is the cascade run of
  /// component c: the members of its closure, node ids strictly ascending.
  std::vector<uint64_t> node_offsets;
  std::vector<NodeId> nodes;

  /// Wraps spans into an external mapping (e.g. an mmap'd snapshot section)
  /// without copying. The spans must stay valid for the closure's lifetime;
  /// structural validity (monotonic offsets, in-range ids) is the loader's
  /// responsibility (snapshot/reader.h validates before assembling).
  static ReachabilityClosure Borrowed(std::span<const uint64_t> comp_offsets,
                                      std::span<const uint32_t> comps,
                                      std::span<const uint64_t> node_offsets,
                                      std::span<const NodeId> nodes) {
    ReachabilityClosure out = BorrowedOffsets(comp_offsets, node_offsets);
    out.borrowed_runs_ = true;
    out.b_comps_ = comps;
    out.b_nodes_ = nodes;
    return out;
  }

  /// Borrows only the offset arrays; the runs are the owned `comps` and
  /// `nodes`, empty until the caller fills them (sized to the offsets'
  /// totals). Size queries (NodeCount, ApproxBytes) answer at once, since
  /// they read only offsets; Closure and Cascade need the runs. Filling the
  /// runs writes neither the offsets nor the mode, so size queries may run
  /// concurrently with it.
  static ReachabilityClosure BorrowedOffsets(
      std::span<const uint64_t> comp_offsets,
      std::span<const uint64_t> node_offsets) {
    ReachabilityClosure out;
    out.borrowed_offsets_ = true;
    out.b_comp_offsets_ = comp_offsets;
    out.b_node_offsets_ = node_offsets;
    return out;
  }

  uint32_t num_components() const {
    const auto co = comp_offsets_view();
    return co.empty() ? 0 : static_cast<uint32_t>(co.size() - 1);
  }

  /// Components reachable from c (ascending, includes c).
  std::span<const uint32_t> Closure(uint32_t c) const {
    const auto co = comp_offsets_view();
    const auto cs = comps_view();
    SOI_DCHECK(c + 1 < co.size());
    return std::span<const uint32_t>(cs.data() + co[c], cs.data() + co[c + 1]);
  }

  /// Cascade of any node in component c (ascending node ids).
  std::span<const NodeId> Cascade(uint32_t c) const {
    const auto no = node_offsets_view();
    const auto ns = nodes_view();
    SOI_DCHECK(c + 1 < no.size());
    return std::span<const NodeId>(ns.data() + no[c], ns.data() + no[c + 1]);
  }

  /// Cascade size of any node in component c. Fits uint32: a cascade never
  /// exceeds the node count.
  uint32_t NodeCount(uint32_t c) const {
    const auto no = node_offsets_view();
    SOI_DCHECK(c + 1 < no.size());
    return static_cast<uint32_t>(no[c + 1] - no[c]);
  }

  /// Heap footprint of the CSR arrays (the quantity the index's
  /// closure-cache memory budget meters). For a borrowed closure this is the
  /// mapped footprint — the same bytes, just owned by the page cache. Read
  /// off the offsets alone, so runs not yet decoded count at full size.
  uint64_t ApproxBytes() const {
    const auto co = comp_offsets_view();
    const auto no = node_offsets_view();
    return 8ull * co.size() + 4ull * (co.empty() ? 0 : co.back()) +
           8ull * no.size() + 4ull * (no.empty() ? 0 : no.back());
  }

  /// The four CSR arrays as spans, mode-independent (what the snapshot
  /// writer serializes).
  std::span<const uint64_t> comp_offsets_view() const {
    return borrowed_offsets_ ? b_comp_offsets_
                             : std::span<const uint64_t>(comp_offsets);
  }
  std::span<const uint32_t> comps_view() const {
    return borrowed_runs_ ? b_comps_ : std::span<const uint32_t>(comps);
  }
  std::span<const uint64_t> node_offsets_view() const {
    return borrowed_offsets_ ? b_node_offsets_
                             : std::span<const uint64_t>(node_offsets);
  }
  std::span<const NodeId> nodes_view() const {
    return borrowed_runs_ ? b_nodes_ : std::span<const NodeId>(nodes);
  }

 private:
  bool borrowed_offsets_ = false;
  bool borrowed_runs_ = false;
  std::span<const uint64_t> b_comp_offsets_;
  std::span<const uint32_t> b_comps_;
  std::span<const uint64_t> b_node_offsets_;
  std::span<const NodeId> b_nodes_;
};

/// Reusable scratch for MergeComponentMemberRuns (ping-pong buffers + run
/// bounds); caller-owned to amortize allocations across queries.
struct RunMergeScratch {
  std::vector<NodeId> a, b;
  std::vector<size_t> bounds_a, bounds_b;
};

/// Appends the ascending union of the member runs of `comps` (distinct,
/// ascending component ids — their member runs are disjoint and pre-sorted)
/// to *out. O(S log k) for S output nodes and k runs, vs O(S log S) for
/// gather + sort.
void MergeComponentMemberRuns(const Condensation& cond,
                              std::span<const uint32_t> comps,
                              RunMergeScratch* scratch,
                              std::vector<NodeId>* out);

/// Builds the full reachability closure of `cond` in one ascending
/// (reverse-topological) pass. Deterministic: the output depends only on the
/// reachability relation, so a transitively reduced DAG and the unreduced
/// one give the same bytes. Each component's lists are unioned from its k
/// successors' in pairwise rounds: O(S log k) for S ids read.
///
/// `max_total_nodes` caps the total materialized run length (the dominant
/// memory term; the component lists it bounds are never longer); when the
/// cap would be exceeded the build stops and returns an empty closure
/// (num_components() == 0) so callers can fall back to per-query traversal.
/// Pass UINT64_MAX for an unbounded build.
ReachabilityClosure BuildReachabilityClosure(const Condensation& cond,
                                             uint64_t max_total_nodes);

}  // namespace soi

#endif  // SOI_SCC_CLOSURE_H_
