// The SketchSpreadOracle build loop as it stood before each world was sized
// from its reach counts and filled on the thread budget, kept verbatim as a
// test-only reference: one world after another, on one thread, each
// component's sketch sorted from its members' ranks and its successors'
// sketches. sketch_test.cc requires the library's pools to equal these at
// every thread budget. Not part of the library; do not optimize it.

#ifndef SOI_TESTS_REFERENCE_SKETCH_H_
#define SOI_TESTS_REFERENCE_SKETCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "index/cascade_index.h"
#include "util/rng.h"

namespace soi::reference {

// Deterministic per-(node, world) rank derived from one build salt.
inline uint64_t RankOf(uint64_t salt, uint32_t world, NodeId v) {
  SplitMix64 mixer(salt ^ (static_cast<uint64_t>(world) * 0x9E3779B97F4A7C15ull) ^
                   (static_cast<uint64_t>(v) << 1));
  return mixer.Next();
}

struct SketchPools {
  std::vector<uint64_t> offsets;  // one nc + 1 table per world, absolute
  std::vector<uint64_t> entries;
};

inline SketchPools SequentialSketchPools(const CascadeIndex& index, uint32_t k,
                                         uint64_t salt) {
  SketchPools pools;
  std::vector<uint64_t> buf;
  for (uint32_t i = 0; i < index.num_worlds(); ++i) {
    const Condensation& cond = index.world(i);
    const uint32_t nc = cond.num_components();
    // Offset table for this world: nc + 1 entries. Filled as we go.
    const size_t table_start = pools.offsets.size();
    pools.offsets.resize(table_start + nc + 1);
    pools.offsets[table_start] = pools.entries.size();

    // Children (DAG successors) have smaller ids, so ascending order is a
    // valid bottom-up schedule.
    for (uint32_t c = 0; c < nc; ++c) {
      buf.clear();
      for (NodeId v : cond.ComponentMembers(c)) {
        buf.push_back(RankOf(salt, i, v));
      }
      for (uint32_t succ : cond.DagSuccessors(c)) {
        const uint64_t begin = pools.offsets[table_start + succ];
        const uint64_t end = pools.offsets[table_start + succ + 1];
        buf.insert(buf.end(), pools.entries.begin() + begin,
                   pools.entries.begin() + end);
      }
      std::sort(buf.begin(), buf.end());
      buf.erase(std::unique(buf.begin(), buf.end()), buf.end());
      if (buf.size() > k) buf.resize(k);
      pools.entries.insert(pools.entries.end(), buf.begin(), buf.end());
      pools.offsets[table_start + c + 1] = pools.entries.size();
    }
  }
  return pools;
}

}  // namespace soi::reference

#endif  // SOI_TESTS_REFERENCE_SKETCH_H_
