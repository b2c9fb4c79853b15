#include "probes.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "cascade/world.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/dynamic_index.h"
#include "infmax/sketch_oracle.h"
#include "inputs.h"
#include "jaccard/median.h"
#include "scc/closure.h"
#include "scc/condensation.h"
#include "scc/labels.h"
#include "scc/transitive.h"
#include "util/arena.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// Times one call inside a span and adds its seconds to `*total`.
template <typename Fn>
auto Timed(Tracer* tracer, const char* span, double* total, Fn&& fn) {
  ScopedSpan s(tracer, span);
  const uint64_t t0 = NowNs();
  auto out = fn();
  *total += SecondsSince(t0);
  return out;
}

}  // namespace

soi::Result<ReplayTotals> ReplayIndexBuild(
    const soi::ProbGraph& graph, const soi::CascadeIndexOptions& options,
    uint64_t seed, const soi::CascadeIndex& built, Tracer* tracer) {
  if (options.model != soi::PropagationModel::kIndependentCascade ||
      options.tier_policy != soi::ClosureTierPolicy::kAuto) {
    return soi::Status::InvalidArgument(
        "replay covers the IC model under the auto tier policy only");
  }
  ReplayTotals t;
  const uint64_t budget = options.closure_budget_mb << 20;
  soi::Rng master(seed);
  const soi::Rng streams = master.Fork();
  soi::BumpArena arena;
  soi::ReachLabelScratch scratch;
  for (uint32_t i = 0; i < options.num_worlds; ++i) {
    arena.Reset();
    soi::Rng world_rng = streams.Fork(i);
    soi::Csr sampled = Timed(tracer, "cascade.sample", &t.sample_s, [&] {
      return soi::SampleWorld(graph, &world_rng);
    });
    soi::Condensation world = Timed(tracer, "scc.condense", &t.condense_s, [&] {
      return soi::Condensation::Build(sampled, &arena);
    });
    if (options.transitive_reduction) {
      Timed(tracer, "scc.reduce", &t.reduce_s, [&] {
        return soi::TransitiveReduce(&world, options.reduction);
      });
    }
    if (world.num_components() != built.world(i).num_components()) {
      return soi::Status::Internal("replay: world " + std::to_string(i) +
                                   " differs from the built index");
    }
    // The auto policy sizes every world's labels; which worlds then get a
    // closure is the built index's own choice, read back from it.
    Timed(tracer, "scc.labels", &t.labels_s, [&] {
      return soi::BuildReachLabels(world, std::max<uint64_t>(budget / 8, 1),
                                   &scratch);
    });
    if (built.tier(i) == soi::WorldTier::kMaterialized) {
      Timed(tracer, "scc.closure", &t.closure_s, [&] {
        return soi::BuildReachabilityClosure(world, budget / 4);
      });
    }
  }
  return t;
}

soi::Status ProbeExtractMedian(const soi::CascadeIndex& index,
                               const std::vector<soi::NodeId>& nodes,
                               Samples* extract_us, Samples* median_us,
                               Tracer* tracer) {
  soi::CascadeIndex::Workspace ws;
  soi::CascadeIndex::CascadeArena arena;
  soi::JaccardMedianSolver solver(index.num_nodes());
  for (soi::NodeId v : nodes) {
    const soi::NodeId seeds[1] = {v};
    uint64_t t0 = NowNs();
    {
      ScopedSpan s(tracer, "index.extract");
      SOI_RETURN_IF_ERROR(index.AllCascadesInto(seeds, &ws, &arena));
    }
    extract_us->Add(static_cast<double>(NowNs() - t0) * 1e-3);
    t0 = NowNs();
    {
      ScopedSpan s(tracer, "jaccard.median");
      const auto median = solver.Compute(arena.Views());
      if (!median.ok()) return median.status();
    }
    median_us->Add(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  return soi::Status::OK();
}

soi::Status ProbeSketch(const soi::CascadeIndex& index, uint32_t k,
                        uint64_t seed, const std::vector<soi::NodeId>& seeds,
                        double* build_s, Samples* query_us, Tracer* tracer) {
  std::optional<soi::SketchSpreadOracle> oracle;
  {
    ScopedSpan s(tracer, "infmax.sketch_build");
    const uint64_t t0 = NowNs();
    auto built = soi::SketchSpreadOracle::BuildDeterministic(index, k, seed);
    if (!built.ok()) return built.status();
    oracle.emplace(std::move(*built));
    *build_s = SecondsSince(t0);
  }
  for (size_t i = 0; i + 1 < seeds.size(); i += 2) {
    const soi::NodeId pair[2] = {seeds[i], seeds[i + 1]};
    ScopedSpan s(tracer, "infmax.sketch_spread");
    const uint64_t t0 = NowNs();
    const auto est = oracle->EstimateSpread(pair);
    query_us->Add(static_cast<double>(NowNs() - t0) * 1e-3);
    if (!est.ok()) return est.status();
  }
  return soi::Status::OK();
}

soi::Status ProbeDynamic(const soi::ProbGraph& graph,
                         const soi::CascadeIndexOptions& options,
                         uint64_t seed, uint32_t num_updates,
                         DynamicProbe* out, Tracer* tracer) {
  std::optional<soi::DynamicIndex> index;
  {
    ScopedSpan s(tracer, "dynamic.keyed_build");
    const uint64_t t0 = NowNs();
    auto built = soi::DynamicIndex::Build(graph, options, seed);
    if (!built.ok()) return built.status();
    index.emplace(std::move(*built));
    out->build_s = SecondsSince(t0);
  }
  soi::DynamicGraph shadow = soi::DynamicGraph::FromGraph(graph);
  soi::Rng rng(DeriveSeed(seed, "probe-updates"));
  for (uint32_t i = 0; i < num_updates; ++i) {
    const soi::GraphUpdate u = DrawUpdate(&shadow, &rng);
    ScopedSpan s(tracer, "dynamic.apply_update");
    const uint64_t t0 = NowNs();
    const auto stats = index->ApplyUpdates(std::span<const soi::GraphUpdate>(&u, 1));
    out->update_us.Add(static_cast<double>(NowNs() - t0) * 1e-3);
    if (!stats.ok()) return stats.status();
    out->affected_worlds.Add(stats->affected_worlds);
  }
  return soi::Status::OK();
}

}  // namespace perfbench
