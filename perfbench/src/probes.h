// Direct, span-wrapped calls into single layers: the traced run's way of
// splitting a composite call (CascadeIndex::Build, the typical sweep, a
// request) into the layers that do its work, on the workload's own inputs.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "graph/prob_graph.h"
#include "index/cascade_index.h"
#include "util/status.h"

namespace perfbench {

// Per-layer seconds of one sequential replay of CascadeIndex::Build.
struct ReplayTotals {
  double sample_s = 0;
  double condense_s = 0;
  double reduce_s = 0;
  double labels_s = 0;
  double closure_s = 0;
  double total() const {
    return sample_s + condense_s + reduce_s + labels_s + closure_s;
  }
};

// Replays what CascadeIndex::Build(graph, options, Rng(seed)) does per world
// — the same world streams (rng.Fork().Fork(i)) through SampleWorld,
// Condensation::Build and TransitiveReduce, then the kAuto tier policy's
// BuildReachLabels, and BuildReachabilityClosure for the worlds `built`
// materialized — one call at a time at one thread, each inside its own span.
// `built` is the index the real call produced; the replay must reproduce its
// per-world component counts, which is checked.
soi::Result<ReplayTotals> ReplayIndexBuild(const soi::ProbGraph& graph,
                                           const soi::CascadeIndexOptions& options,
                                           uint64_t seed,
                                           const soi::CascadeIndex& built,
                                           Tracer* tracer);

// Cascade extraction and Jaccard median per source node, over `nodes`.
soi::Status ProbeExtractMedian(const soi::CascadeIndex& index,
                               const std::vector<soi::NodeId>& nodes,
                               Samples* extract_us, Samples* median_us,
                               Tracer* tracer);

// Sketch tier on this index: build time (k, seed) and per-query time of
// two-seed spread estimates over `seeds`.
soi::Status ProbeSketch(const soi::CascadeIndex& index, uint32_t k,
                        uint64_t seed, const std::vector<soi::NodeId>& seeds,
                        double* build_s, Samples* query_us, Tracer* tracer);

// Keyed (dynamic) index on this graph: build time, then `num_updates`
// seeded single-edge updates applied one at a time.
struct DynamicProbe {
  double build_s = 0;
  Samples update_us;
  Samples affected_worlds;
};
soi::Status ProbeDynamic(const soi::ProbGraph& graph,
                         const soi::CascadeIndexOptions& options,
                         uint64_t seed, uint32_t num_updates,
                         DynamicProbe* out, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
