#ifndef SOI_CASCADE_WORLD_H_
#define SOI_CASCADE_WORLD_H_

#include <vector>

#include "graph/csr.h"
#include "graph/prob_graph.h"
#include "util/bitvector.h"
#include "util/rng.h"

namespace soi {

/// Possible-world sampling (paper §2.1): a world G ⊑ G keeps each edge e
/// independently with probability p(e). By the standard live-edge argument
/// the reachable set of s in a sampled world has exactly the distribution of
/// the IC cascade from s, which is what the whole index machinery exploits.

/// The random draws of one world (DESIGN §13.1). A world takes ONE 64-bit
/// key from its stream; every draw in it is then a pure function of that key
/// and of what the draw decides: an arc (u, v) under Independent Cascade, a
/// node v under Linear Threshold. No draw depends on edge order or on any
/// other edge, so inserting, deleting or re-weighting one arc leaves every
/// other draw of every world unchanged — which is what lets src/dynamic/
/// re-derive a world from an updated graph and get exactly the world a fresh
/// build of that graph samples.
class WorldCoins {
 public:
  /// Draws the world key: the first word of the world's stream.
  explicit WorldCoins(Rng* stream) : key_(stream->Next()) {}

  /// IC coin of arc (u, v), uniform in [0, 1): the arc is live iff the coin
  /// is below p(u, v).
  double Arc(NodeId u, NodeId v) const {
    return Unit(((static_cast<uint64_t>(u) + 1) << 32) | v);
  }

  /// LT draw of node v, uniform in [0, 1): it selects the first in-arc (in
  /// ascending source order) whose cumulative in-weight exceeds it, or none.
  double Node(NodeId v) const { return Unit(v); }

 private:
  // One mix step over the world key and the draw's key. Arc keys have a
  // nonzero high half and node keys a zero one, so the key spaces are
  // disjoint.
  double Unit(uint64_t what) const {
    const uint64_t z = SplitMix64::Mix(key_ ^ (what * 0x9E3779B97F4A7C15ull));
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }

  uint64_t key_;
};

/// Materializes a world's adjacency from an edge mask (bit e set iff edge e
/// is live).
Csr WorldFromMask(const ProbGraph& graph, const BitVector& mask);

/// Samples an Independent Cascade world: arc (u, v) is live iff its
/// WorldCoins::Arc coin is below p(u, v). Advances `rng` by one word.
Csr SampleWorld(const ProbGraph& graph, Rng* rng);

/// Set of nodes reachable from `source` in a deterministic world
/// (sorted ascending, includes `source`).
std::vector<NodeId> ReachableFrom(const Csr& world, NodeId source);

/// Multi-source variant: nodes reachable from any seed (sorted ascending,
/// includes the seeds).
std::vector<NodeId> ReachableFromSet(const Csr& world,
                                     std::span<const NodeId> seeds);

}  // namespace soi

#endif  // SOI_CASCADE_WORLD_H_
