#include "cascade/world.h"

#include <algorithm>

namespace soi {

Csr WorldFromMask(const ProbGraph& graph, const BitVector& mask) {
  SOI_CHECK(mask.size() == graph.num_edges());
  const NodeId n = graph.num_nodes();
  Csr world;
  world.offsets.assign(n + 1, 0);
  world.targets.reserve(mask.Count());
  for (NodeId u = 0; u < n; ++u) {
    const EdgeId begin = graph.OutBegin(u);
    const auto nbrs = graph.OutNeighbors(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (mask.Test(begin + i)) world.targets.push_back(nbrs[i]);
    }
    world.offsets[u + 1] = static_cast<uint32_t>(world.targets.size());
  }
  return world;
}

Csr SampleWorld(const ProbGraph& graph, Rng* rng) {
  const WorldCoins coins(rng);
  const NodeId n = graph.num_nodes();
  Csr world;
  world.offsets.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = graph.OutNeighbors(u);
    const auto probs = graph.OutProbs(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (coins.Arc(u, nbrs[i]) < probs[i]) world.targets.push_back(nbrs[i]);
    }
    world.offsets[u + 1] = static_cast<uint32_t>(world.targets.size());
  }
  return world;
}

std::vector<NodeId> ReachableFrom(const Csr& world, NodeId source) {
  const NodeId seeds[1] = {source};
  return ReachableFromSet(world, seeds);
}

std::vector<NodeId> ReachableFromSet(const Csr& world,
                                     std::span<const NodeId> seeds) {
  std::vector<NodeId> out;
  BitVector visited(world.num_nodes());
  for (NodeId s : seeds) {
    SOI_CHECK(s < world.num_nodes());
    if (visited.TestAndSet(s)) out.push_back(s);
  }
  for (size_t read = 0; read < out.size(); ++read) {
    for (NodeId v : world.Neighbors(out[read])) {
      if (visited.TestAndSet(v)) out.push_back(v);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace soi
