#include "cascade/threshold.h"

#include <algorithm>
#include <cmath>

#include "cascade/world.h"
#include "util/bitvector.h"

namespace soi {

Status ValidateLtWeights(const ProbGraph& graph, double eps) {
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    double total = 0.0;
    for (NodeId u : graph.InNeighbors(v)) {
      const auto e = graph.FindEdge(u, v);
      SOI_CHECK(e.ok());
      total += graph.EdgeProb(*e);
    }
    if (total > 1.0 + eps) {
      return Status::FailedPrecondition(
          "node " + std::to_string(v) + " has incoming LT weight " +
          std::to_string(total) + " > 1; call NormalizeLtWeights first");
    }
  }
  return Status::OK();
}

Result<ProbGraph> NormalizeLtWeights(const ProbGraph& graph, double target) {
  if (!(target > 0.0 && target <= 1.0)) {
    return Status::InvalidArgument("target must be in (0, 1]");
  }
  // Per-target-node scale factor.
  std::vector<double> in_sum(graph.num_nodes(), 0.0);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    in_sum[graph.EdgeTarget(e)] += graph.EdgeProb(e);
  }
  std::vector<double> probs(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const double sum = in_sum[graph.EdgeTarget(e)];
    const double scale = sum > target ? target / sum : 1.0;
    probs[e] = graph.EdgeProb(e) * scale;
  }
  return graph.WithProbs(std::move(probs));
}

Result<LtWorldSampler> LtWorldSampler::Create(const ProbGraph& graph) {
  SOI_RETURN_IF_ERROR(ValidateLtWeights(graph));
  LtWorldSampler sampler(&graph);
  const NodeId n = graph.num_nodes();
  sampler.rev_offsets_.assign(n + 1, 0);
  sampler.rev_sources_.reserve(graph.num_edges());
  sampler.rev_cumulative_.reserve(graph.num_edges());
  for (NodeId v = 0; v < n; ++v) {
    double cumulative = 0.0;
    for (NodeId u : graph.InNeighbors(v)) {
      const auto e = graph.FindEdge(u, v);
      SOI_CHECK(e.ok());
      cumulative += graph.EdgeProb(*e);
      sampler.rev_sources_.push_back(u);
      sampler.rev_cumulative_.push_back(cumulative);
    }
    sampler.rev_offsets_[v + 1] = sampler.rev_sources_.size();
  }
  return sampler;
}

Csr LtWorldSampler::Sample(Rng* rng) const {
  const WorldCoins coins(rng);
  const NodeId n = graph_->num_nodes();
  std::vector<std::pair<NodeId, NodeId>> live_edges;
  live_edges.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    const uint64_t begin = rev_offsets_[v];
    const uint64_t end = rev_offsets_[v + 1];
    if (begin == end) continue;
    const double r = coins.Node(v);
    if (r >= rev_cumulative_[end - 1]) continue;  // keep no in-edge
    // First cumulative weight exceeding r identifies the live in-edge.
    const auto it = std::upper_bound(rev_cumulative_.begin() + begin,
                                     rev_cumulative_.begin() + end, r);
    const uint64_t idx =
        static_cast<uint64_t>(it - rev_cumulative_.begin());
    live_edges.emplace_back(rev_sources_[idx], v);
  }
  return Csr::FromEdges(n, std::move(live_edges), /*dedupe=*/false);
}

Result<std::vector<NodeId>> SimulateLtCascade(const ProbGraph& graph,
                                              std::span<const NodeId> seeds,
                                              Rng* rng) {
  SOI_RETURN_IF_ERROR(ValidateLtWeights(graph));
  SOI_RETURN_IF_ERROR(ValidateSeedSet(seeds, graph.num_nodes()));
  const NodeId n = graph.num_nodes();
  // Lazily drawn thresholds; accumulated incoming active weight per node.
  std::vector<double> threshold(n, -1.0);
  std::vector<double> incoming(n, 0.0);
  BitVector active(n);
  std::vector<NodeId> order;
  auto activate = [&](NodeId v) {
    if (active.TestAndSet(v)) order.push_back(v);
  };
  for (NodeId s : seeds) activate(s);
  for (size_t read = 0; read < order.size(); ++read) {
    const NodeId u = order[read];
    const auto nbrs = graph.OutNeighbors(u);
    const auto probs = graph.OutProbs(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      if (active.Test(v)) continue;
      if (threshold[v] < 0.0) {
        // U(0,1]: a zero threshold would activate v unconditionally.
        threshold[v] = 1.0 - rng->NextDouble();
      }
      incoming[v] += probs[i];
      if (incoming[v] >= threshold[v]) activate(v);
    }
  }
  std::sort(order.begin(), order.end());
  return order;
}

Result<double> EstimateLtSpread(const ProbGraph& graph,
                                std::span<const NodeId> seeds,
                                uint32_t num_samples, Rng* rng) {
  if (num_samples == 0) {
    return Status::InvalidArgument("num_samples must be >= 1");
  }
  uint64_t total = 0;
  for (uint32_t i = 0; i < num_samples; ++i) {
    SOI_ASSIGN_OR_RETURN(const auto cascade,
                         SimulateLtCascade(graph, seeds, rng));
    total += cascade.size();
  }
  return static_cast<double>(total) / num_samples;
}

}  // namespace soi
