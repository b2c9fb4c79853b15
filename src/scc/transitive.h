#ifndef SOI_SCC_TRANSITIVE_H_
#define SOI_SCC_TRANSITIVE_H_

#include <cstdint>

#include "scc/condensation.h"

namespace soi {

/// Strategy for the DAG transitive reduction applied to each condensation
/// (paper §4 uses Aho–Garey–Ullman [3]; for a DAG the reduction is the unique
/// minimal subgraph with the same reachability, obtainable by deleting edges
/// that are implied by longer paths).
///
/// The values are fixed because test and benchmark names print them; 1 is
/// unused.
enum class ReductionStrategy {
  /// Pick kDenseBitset for small DAGs, kDfs otherwise.
  kAuto = 0,
  /// Per-component reachability bitsets, O(nc * m / 64). Fast but needs
  /// nc^2 bits of transient memory; used when nc <= dense_limit.
  kDenseBitset = 2,
  /// Incremental DFS marking per parent; O(sum of reachable sets) worst
  /// case with a global visit budget guard (partial reductions are safe).
  kDfs = 3,
};

struct ReductionOptions {
  ReductionStrategy strategy = ReductionStrategy::kAuto;
  /// Largest component count for which the dense strategy is attempted.
  uint32_t dense_limit = 8192;
  /// Visit budget for the DFS strategy; when exhausted the remaining
  /// parents keep their edges unreduced.
  uint64_t dfs_visit_budget = 50'000'000;
};

struct ReductionStats {
  uint32_t edges_before = 0;
  uint32_t edges_after = 0;
  /// True if the DFS budget ran out and some redundant edges survive.
  bool truncated = false;
};

/// Replaces the condensation's DAG with its transitive reduction in place.
/// Exploits the Tarjan invariant (edges go from higher to lower component
/// ids): among the children of a parent, any child reachable from another
/// child has a strictly smaller id, so scanning children in decreasing id
/// order with an accumulated reachability set identifies redundant edges.
ReductionStats TransitiveReduce(Condensation* cond,
                                const ReductionOptions& options = {});

/// Returns true iff `a` and `b` define the same reachability relation over
/// components (brute-force; test utility, O(nc * (nc + m))).
bool SameReachability(const Condensation& a, const Csr& other_dag);

}  // namespace soi

#endif  // SOI_SCC_TRANSITIVE_H_
