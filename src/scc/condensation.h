#ifndef SOI_SCC_CONDENSATION_H_
#define SOI_SCC_CONDENSATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "scc/tarjan.h"
#include "util/status.h"

namespace soi {

/// The condensation of a sampled possible world: the DAG obtained by
/// contracting each strongly connected component to a single vertex
/// (paper §4, Figure 2). This is the per-world payload of the cascade index.
///
/// Invariant inherited from TarjanScc: every DAG edge (c, c') satisfies
/// c' < c, i.e. increasing component id is a reverse topological order.
///
/// Storage is dual-mode: a condensation built by Build() owns its arrays;
/// one assembled by Borrowed() wraps spans into an external read-only
/// mapping (see src/snapshot/) with zero copy. Query accessors dispatch on
/// the mode and answer identically. Build-time mutation (ReplaceDag, dag())
/// is owned-mode only.
class Condensation {
 public:
  Condensation() = default;

  /// Builds the condensation of `world` (deduplicating parallel DAG edges).
  /// `scratch` (optional) bump-allocates the SCC working arrays and the
  /// member-bucketing cursor; callers condensing many worlds Reset() one
  /// arena between calls (see util/arena.h).
  static Condensation Build(const Csr& world, BumpArena* scratch = nullptr);

  /// Wraps pre-built CSR arrays from an external mapping without copying.
  /// `members_offsets`/`dag_offsets` have num_components+1 entries each;
  /// the spans must outlive the condensation. Structural validity (monotone
  /// offsets, in-range ids, the c' < c edge invariant) is the loader's
  /// responsibility — snapshot/reader.h validates before assembling.
  static Condensation Borrowed(std::span<const uint32_t> comp_of,
                               uint32_t num_components,
                               std::span<const uint32_t> members_offsets,
                               std::span<const NodeId> members_targets,
                               std::span<const uint32_t> dag_offsets,
                               std::span<const uint32_t> dag_targets) {
    Condensation cond;
    cond.borrowed_ = true;
    cond.num_components_ = num_components;
    cond.b_comp_of_ = comp_of;
    cond.b_members_offsets_ = members_offsets;
    cond.b_members_targets_ = members_targets;
    cond.b_dag_offsets_ = dag_offsets;
    cond.b_dag_targets_ = dag_targets;
    return cond;
  }

  bool borrowed() const { return borrowed_; }

  uint32_t num_nodes() const {
    return static_cast<uint32_t>(comp_of().size());
  }
  uint32_t num_components() const { return num_components_; }
  uint32_t num_dag_edges() const {
    return static_cast<uint32_t>(dag_targets().size());
  }

  uint32_t ComponentOf(NodeId v) const {
    const auto co = comp_of();
    SOI_DCHECK(v < co.size());
    return co[v];
  }
  std::span<const uint32_t> comp_of() const {
    return borrowed_ ? b_comp_of_ : std::span<const uint32_t>(comp_of_);
  }

  /// Number of original nodes inside component c.
  uint32_t ComponentSize(uint32_t c) const {
    SOI_DCHECK(c < num_components_);
    const auto mo = members_offsets();
    return mo[c + 1] - mo[c];
  }

  /// Original nodes of component c (ascending node id).
  std::span<const NodeId> ComponentMembers(uint32_t c) const {
    SOI_DCHECK(c < num_components_);
    const auto mo = members_offsets();
    const auto mt = members_targets();
    return std::span<const NodeId>(mt.data() + mo[c], mt.data() + mo[c + 1]);
  }

  /// Successor components of c in the DAG (each id < c).
  std::span<const uint32_t> DagSuccessors(uint32_t c) const {
    SOI_DCHECK(c < num_components_);
    const auto off = dag_offsets();
    const auto tgt = dag_targets();
    return std::span<const uint32_t>(tgt.data() + off[c], tgt.data() + off[c + 1]);
  }

  /// Raw CSR arrays, mode-independent (what the snapshot writer serializes).
  /// Offsets are local to this condensation (offsets[0] == 0).
  std::span<const uint32_t> members_offsets() const {
    return borrowed_ ? b_members_offsets_
                     : std::span<const uint32_t>(members_.offsets);
  }
  std::span<const NodeId> members_targets() const {
    return borrowed_ ? b_members_targets_
                     : std::span<const NodeId>(members_.targets);
  }
  std::span<const uint32_t> dag_offsets() const {
    return borrowed_ ? b_dag_offsets_
                     : std::span<const uint32_t>(dag_.offsets);
  }
  std::span<const uint32_t> dag_targets() const {
    return borrowed_ ? b_dag_targets_
                     : std::span<const uint32_t>(dag_.targets);
  }

  /// Replaces the DAG adjacency (used by transitive reduction). The new DAG
  /// must preserve reachability; callers are responsible for that.
  /// Owned-mode only: a borrowed condensation is immutable serving state.
  void ReplaceDag(Csr dag) {
    SOI_CHECK(!borrowed_);
    dag_ = std::move(dag);
  }
  const Csr& dag() const {
    SOI_CHECK(!borrowed_);
    return dag_;
  }

 private:
  std::vector<uint32_t> comp_of_;
  uint32_t num_components_ = 0;
  Csr members_;  // component -> member nodes
  Csr dag_;      // component -> successor components

  bool borrowed_ = false;
  std::span<const uint32_t> b_comp_of_;
  std::span<const uint32_t> b_members_offsets_;
  std::span<const NodeId> b_members_targets_;
  std::span<const uint32_t> b_dag_offsets_;
  std::span<const uint32_t> b_dag_targets_;
};

/// Collects all components reachable from `start` (inclusive) by DFS over the
/// condensation DAG, appending them to `out` (unordered). `stamp`/`stamp_id`
/// implement O(1) reset across repeated calls: pass a vector sized
/// num_components() filled with 0 and a fresh ++stamp_id per call.
void ReachableComponents(const Condensation& cond, uint32_t start,
                         std::vector<uint32_t>* stamp, uint32_t stamp_id,
                         std::vector<uint32_t>* out);

}  // namespace soi

#endif  // SOI_SCC_CONDENSATION_H_
