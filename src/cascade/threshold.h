#ifndef SOI_CASCADE_THRESHOLD_H_
#define SOI_CASCADE_THRESHOLD_H_

#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/prob_graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace soi {

/// Linear Threshold (LT) propagation model (Kempe, Kleinberg, Tardos 2003),
/// the other canonical diffusion model alongside Independent Cascade. Each
/// node v has incoming influence weights w(u, v) with sum_u w(u, v) <= 1 and
/// a threshold theta_v ~ U[0, 1]; v activates once the weight of its active
/// in-neighbors reaches theta_v.
///
/// KKT's live-edge equivalence: sampling, for every node v, at most ONE
/// incoming edge (edge (u, v) with probability w(u, v), no edge with
/// probability 1 - sum_u w(u, v)) yields a random subgraph whose
/// reachability sets are distributed exactly like LT cascades. That makes
/// the whole spheres-of-influence machinery (condensation index, Jaccard
/// median, typical cascades) apply to LT unchanged — only the world sampler
/// differs.

/// Validates that `graph` is a legal LT instance: for every node, the
/// incoming weights sum to at most 1 (+ eps tolerance).
Status ValidateLtWeights(const ProbGraph& graph, double eps = 1e-9);

/// Returns a copy of `graph` whose incoming weights are scaled down (per
/// node) to sum to at most `target` (< = 1). Nodes already below target are
/// untouched. Convenient for reusing IC-probability graphs as LT instances.
Result<ProbGraph> NormalizeLtWeights(const ProbGraph& graph,
                                     double target = 1.0);

/// LT world sampler: validates the weights once (ValidateLtWeights; call
/// NormalizeLtWeights first if unsure) and precomputes per-node cumulative
/// in-weights, so each Sample() is O(n + m) with no edge lookups.
class LtWorldSampler {
 public:
  /// `graph` must outlive the sampler.
  static Result<LtWorldSampler> Create(const ProbGraph& graph);

  /// Draws one live-edge world: node v keeps in-arc (u, v) with probability
  /// w(u, v) and none with probability 1 - sum_u w(u, v), decided by its
  /// WorldCoins::Node draw. The CSR is over the same node ids (forward
  /// direction). Advances `rng` by one word.
  Csr Sample(Rng* rng) const;

 private:
  explicit LtWorldSampler(const ProbGraph* graph) : graph_(graph) {}

  const ProbGraph* graph_;
  // Reverse-aligned: for node v, in-edges rev_offsets_[v]..rev_offsets_[v+1)
  // with sources rev_sources_[i] and cumulative weights rev_cumulative_[i].
  std::vector<uint64_t> rev_offsets_;
  std::vector<NodeId> rev_sources_;
  std::vector<double> rev_cumulative_;
};

/// Direct LT simulation with explicit random thresholds; distributionally
/// identical to ReachableFromSet(LtWorldSampler::Sample, seeds). Provided for
/// testing the equivalence and for callers that want activation order.
Result<std::vector<NodeId>> SimulateLtCascade(const ProbGraph& graph,
                                              std::span<const NodeId> seeds,
                                              Rng* rng);

/// Monte-Carlo estimate of LT expected spread.
Result<double> EstimateLtSpread(const ProbGraph& graph,
                                std::span<const NodeId> seeds,
                                uint32_t num_samples, Rng* rng);

}  // namespace soi

#endif  // SOI_CASCADE_THRESHOLD_H_
