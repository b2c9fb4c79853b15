#ifndef SOI_DYNAMIC_DYNAMIC_GRAPH_H_
#define SOI_DYNAMIC_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/prob_graph.h"
#include "util/status.h"

namespace soi {

/// One mutation of the probabilistic graph. The node universe is fixed:
/// updates add, remove, or re-weight arcs between existing node ids (the
/// serving story is "the social graph's edges and learned p(u,v) drift";
/// node churn is a re-shard, not an update).
enum class UpdateKind : uint8_t {
  /// Add arc (src, dst) with probability `prob`; the arc must not exist.
  kEdgeInsert,
  /// Remove arc (src, dst); the arc must exist. `prob` is ignored.
  kEdgeDelete,
  /// Replace the probability of existing arc (src, dst) with `prob`.
  kProbUpdate,
};

struct GraphUpdate {
  UpdateKind kind = UpdateKind::kEdgeInsert;
  NodeId src = 0;
  NodeId dst = 0;
  double prob = 0.0;
};

/// A mutable edge-weighted adjacency over a fixed node universe — the
/// updatable twin of the immutable ProbGraph. Both directions are kept
/// sorted (out-edges by dst, in-edges by src), so iteration order is
/// canonical: materializing to a ProbGraph and sampling worlds straight off
/// this structure visit edges in exactly the same (src, dst) order, which
/// is what makes incremental re-sampling byte-identical to a fresh build
/// (see WorldCoins in cascade/world.h).
///
/// Mutations are O(degree) (vector insert into a sorted neighborhood);
/// fine for the update-stream workloads this serves, where per-update index
/// maintenance dominates by orders of magnitude.
class DynamicGraph {
 public:
  DynamicGraph() = default;
  explicit DynamicGraph(NodeId num_nodes)
      : out_(num_nodes), in_(num_nodes) {}

  /// Copies an immutable graph into mutable form.
  static DynamicGraph FromGraph(const ProbGraph& graph);

  NodeId num_nodes() const { return static_cast<NodeId>(out_.size()); }
  uint64_t num_edges() const { return num_edges_; }

  /// Out-neighborhood of u as (dst, prob), sorted by dst ascending.
  std::span<const std::pair<NodeId, double>> Out(NodeId u) const {
    SOI_DCHECK(u < out_.size());
    return out_[u];
  }

  /// In-neighborhood of v as (src, prob), sorted by src ascending.
  std::span<const std::pair<NodeId, double>> In(NodeId v) const {
    SOI_DCHECK(v < in_.size());
    return in_[v];
  }

  /// Probability of arc (u, v), or NotFound.
  Result<double> EdgeProb(NodeId u, NodeId v) const;

  bool HasEdge(NodeId u, NodeId v) const;

  /// Sum of incoming probabilities of v (the Linear Threshold budget).
  double InWeight(NodeId v) const;

  /// Checks whether `update` would apply cleanly to the current state
  /// (unknown node, duplicate insert, missing edge, probability outside
  /// (0, 1], self-loop) without mutating anything. Apply() performs the
  /// same checks; this exists so batch drivers can validate-then-commit.
  Status Validate(const GraphUpdate& update) const;

  /// Applies one mutation. Errors (same conditions as Validate) leave the
  /// graph untouched and name the offending arc.
  Status Apply(const GraphUpdate& update);

  /// Inverts `update` against the *pre-application* state: the returned
  /// update undoes it. Call before Apply (it reads the current probability
  /// of the arc for deletes/re-weights).
  Result<GraphUpdate> Inverse(const GraphUpdate& update) const;

  /// Builds the equivalent immutable ProbGraph (canonical CSR form).
  Result<ProbGraph> Materialize() const;

  /// Equals GraphFingerprint(*Materialize()) without materializing: the
  /// identity check a stale-snapshot guard or a rebuild-parity assert uses.
  uint64_t Fingerprint() const;

 private:
  // Both neighborhoods store (neighbor, prob) and stay sorted by neighbor.
  std::vector<std::vector<std::pair<NodeId, double>>> out_;
  std::vector<std::vector<std::pair<NodeId, double>>> in_;
  uint64_t num_edges_ = 0;
};

}  // namespace soi

#endif  // SOI_DYNAMIC_DYNAMIC_GRAPH_H_
