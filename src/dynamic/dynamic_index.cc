#include "dynamic/dynamic_index.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "core/typical_cascade.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "scc/transitive.h"
#include "util/stats.h"

namespace soi {

namespace {

// Tolerance of the LT in-weight budget, matching ValidateLtWeights.
constexpr double kLtEps = 1e-9;

bool SameCascade(std::span<const NodeId> a, std::span<const NodeId> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// The in-arc of v that LT `draw` selects: the first source, in ascending
// order, whose cumulative in-weight exceeds the draw, or kInvalidNode. The
// weights accumulate in LtWorldSampler's order, so both pick the same arc.
NodeId LtSelect(const DynamicGraph& graph, NodeId v, double draw) {
  double cum = 0.0;
  for (const auto& [src, p] : graph.In(v)) {
    cum += p;
    if (draw < cum) return src;
  }
  return kInvalidNode;
}

// The world `coins` decide over the current graph. Arcs are visited in
// (src, dst) order like SampleWorld and LtWorldSampler::Sample visit the
// materialized graph, so the CSR is the one a fresh build samples.
Csr SampleWorld(const DynamicGraph& graph, PropagationModel model,
                const WorldCoins& coins) {
  const NodeId n = graph.num_nodes();
  if (model == PropagationModel::kLinearThreshold) {
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId v = 0; v < n; ++v) {
      const NodeId src = LtSelect(graph, v, coins.Node(v));
      if (src != kInvalidNode) edges.emplace_back(src, v);
    }
    return Csr::FromEdges(n, std::move(edges), /*dedupe=*/false);
  }
  Csr world;
  world.offsets.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (const auto& [v, p] : graph.Out(u)) {
      if (coins.Arc(u, v) < p) world.targets.push_back(v);
    }
    world.offsets[u + 1] = static_cast<uint32_t>(world.targets.size());
  }
  return world;
}

}  // namespace

Result<DynamicIndex> DynamicIndex::Build(const ProbGraph& graph,
                                         const CascadeIndexOptions& options,
                                         uint64_t seed) {
  SOI_OBS_SPAN("dynamic/build");
  DynamicIndex out;
  Rng rng(seed);
  SOI_ASSIGN_OR_RETURN(out.index_, CascadeIndex::Build(graph, options, &rng));
  out.graph_ = DynamicGraph::FromGraph(graph);
  out.options_ = options;
  // World i's stream is Rng(seed).Fork().Fork(i), as in CascadeIndex::Build.
  Rng master(seed);
  const Rng streams = master.Fork();
  out.coins_.reserve(options.num_worlds);
  for (uint32_t i = 0; i < options.num_worlds; ++i) {
    Rng stream = streams.Fork(i);
    out.coins_.emplace_back(&stream);
  }
  return out;
}

Condensation DynamicIndex::DeriveWorld(uint32_t i) const {
  Condensation cond =
      Condensation::Build(SampleWorld(graph_, options_.model, coins_[i]));
  if (options_.transitive_reduction) {
    TransitiveReduce(&cond, options_.reduction);
  }
  return cond;
}

GraphUpdate DynamicIndex::ApplyAndMark(const GraphUpdate& update,
                                       std::vector<uint32_t>* affected) {
  const NodeId src = update.src;
  const NodeId dst = update.dst;
  const bool lt = options_.model == PropagationModel::kLinearThreshold;
  // World i's live in-arc of dst among those the update can change: under
  // IC the touched arc itself (src, or none; `p` is its probability, 0 when
  // absent), under LT dst's selected one.
  const auto live_source = [&](uint32_t i, double p) {
    if (lt) return LtSelect(graph_, dst, coins_[i].Node(dst));
    return coins_[i].Arc(src, dst) < p ? src : kInvalidNode;
  };
  const auto arc_prob = [&] {
    const Result<double> p = graph_.EdgeProb(src, dst);
    return p.ok() ? *p : 0.0;
  };
  const uint32_t num_worlds = index_.num_worlds();
  const double p_old = arc_prob();
  std::vector<NodeId> before(num_worlds);
  for (uint32_t i = 0; i < num_worlds; ++i) before[i] = live_source(i, p_old);
  Result<GraphUpdate> inverse = graph_.Inverse(update);
  SOI_CHECK(inverse.ok());  // validated by the caller; the arc state is known
  const Status applied = graph_.Apply(update);
  SOI_CHECK(applied.ok());
  const double p_new = arc_prob();
  for (uint32_t i = 0; i < num_worlds; ++i) {
    if (live_source(i, p_new) != before[i] &&
        world_mark_[i] != world_stamp_) {
      world_mark_[i] = world_stamp_;
      affected->push_back(i);
    }
  }
  return std::move(*inverse);
}

Status DynamicIndex::ValidateLtBudget(const GraphUpdate& update) const {
  if (update.kind == UpdateKind::kEdgeDelete) return Status::OK();
  const NodeId v = update.dst;
  double budget = graph_.InWeight(v) + update.prob;
  if (update.kind == UpdateKind::kProbUpdate) {
    SOI_ASSIGN_OR_RETURN(const double old, graph_.EdgeProb(update.src, v));
    budget -= old;
  }
  if (budget > 1.0 + kLtEps) {
    return Status::InvalidArgument(
        "Linear Threshold update on arc (" + std::to_string(update.src) +
        "," + std::to_string(v) + ") would push node " + std::to_string(v) +
        "'s incoming weight to " + std::to_string(budget) +
        " > 1; re-weight its other in-arcs first");
  }
  return Status::OK();
}

Result<UpdateStats> DynamicIndex::ApplyUpdates(
    std::span<const GraphUpdate> updates) {
  WallTimer timer;
  UpdateStats stats;
  if (updates.empty()) {
    stats.drift = drift_;
    return stats;
  }
  SOI_OBS_SPAN("dynamic/apply_updates");

  const uint32_t num_worlds = index_.num_worlds();
  if (world_mark_.size() < num_worlds) world_mark_.assign(num_worlds, 0);
  if (++world_stamp_ == 0) {  // stamp wrapped: hard reset
    std::fill(world_mark_.begin(), world_mark_.end(), 0);
    world_stamp_ = 1;
  }

  // Phase 1 — apply the batch to the graph, atomically. Each update
  // validates against the state its predecessors left, and its affected
  // worlds are those whose live-edge set it changes at that step (the
  // keyed draws never move, so per-op affected sets compose by union: a
  // world outside the union kept its live-edge selection at every step).
  std::vector<uint32_t> affected;
  std::vector<GraphUpdate> undo;
  undo.reserve(updates.size());
  Status failure = Status::OK();
  for (const GraphUpdate& update : updates) {
    failure = graph_.Validate(update);
    if (failure.ok() &&
        options_.model == PropagationModel::kLinearThreshold) {
      failure = ValidateLtBudget(update);
    }
    if (!failure.ok()) break;
    undo.push_back(ApplyAndMark(update, &affected));
  }
  if (!failure.ok()) {
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      const Status undone = graph_.Apply(*it);
      SOI_CHECK(undone.ok());
    }
    return failure;
  }

  stats.applied_ops = static_cast<uint32_t>(updates.size());
  drift_ += updates.size();
  stats.drift = drift_;

  if (affected.empty()) {
    stats.seconds = timer.ElapsedSeconds();
    return stats;
  }
  std::sort(affected.begin(), affected.end());
  stats.affected_worlds = static_cast<uint32_t>(affected.size());
  SOI_OBS_COUNTER_ADD("dynamic/worlds_recomputed", affected.size());

  // Phase 2 — re-derive exactly the affected worlds (and, when the cache
  // is live, their closures) from the updated graph. Per-world results are
  // pure functions of (seed, world, graph), so this parallel loop is
  // thread-count independent.
  //
  // Cache strategy by tier state: a fully materialized index is patched
  // incrementally (per-world closure swap, byte-identical to a rebuild). A
  // mixed-tier or labels index instead gets a full deterministic tier
  // reassignment after the world swap — per-world incremental accounting
  // has no meaning when the greedy assignment itself depends on world
  // order. A pure-traversal index keeps no cache either way.
  const bool had_cache = index_.has_closure_cache();
  const bool tiered_cache =
      !had_cache && index_.stats().worlds_traversal != index_.num_worlds();
  const uint64_t budget_bytes = options_.closure_budget_mb << 20;
  std::vector<Condensation> new_worlds(affected.size());
  std::vector<ReachabilityClosure> new_closures(had_cache ? affected.size()
                                                          : 0);
  std::atomic<bool> closure_over{false};
  ParallelFor(0, affected.size(), /*grain=*/1, [&](uint64_t k) {
    new_worlds[k] = DeriveWorld(affected[k]);
    if (had_cache) {
      ReachabilityClosure cl =
          BuildReachabilityClosure(new_worlds[k], budget_bytes / 4);
      if (cl.num_components() != new_worlds[k].num_components()) {
        closure_over.store(true, std::memory_order_relaxed);
      } else {
        new_closures[k] = std::move(cl);
      }
    }
  });

  // Closure-cache fate, mirroring the all-or-nothing build policy: patch
  // when every affected world rebuilt under the per-world cap AND the
  // patched total stays within budget; otherwise drop the whole cache
  // (queries fall back to traversal, byte-identical answers).
  bool keep_cache = had_cache && !closure_over.load();
  if (keep_cache) {
    uint64_t total = index_.stats().closure_bytes;
    for (size_t k = 0; k < affected.size(); ++k) {
      total -= index_.closure(affected[k]).ApproxBytes();
      total += new_closures[k].ApproxBytes();
    }
    keep_cache = total <= budget_bytes;
  }

  // Phase 3 — with old and new state both in hand, find the nodes whose
  // typical cascade may change: exactly those whose cascade differs in
  // some affected world. Needs the closure cache on both sides for cheap
  // span compares; without it, fall back to re-sweeping every node.
  const NodeId num_nodes = index_.num_nodes();
  std::vector<uint8_t> node_changed;
  bool mark_all = false;
  if (typical_ready_) {
    if (!had_cache || !keep_cache) {
      mark_all = true;
    } else {
      node_changed.assign(num_nodes, 0);
      ParallelFor(0, num_nodes, /*grain=*/512, [&](uint64_t v) {
        for (size_t k = 0; k < affected.size(); ++k) {
          const uint32_t i = affected[k];
          const auto old_run = index_.closure(i).Cascade(
              index_.world(i).ComponentOf(static_cast<NodeId>(v)));
          const auto new_run = new_closures[k].Cascade(
              new_worlds[k].ComponentOf(static_cast<NodeId>(v)));
          if (!SameCascade(old_run, new_run)) {
            node_changed[v] = 1;
            return;
          }
        }
      });
    }
  }

  // Phase 4 — patch the index in place. When the all-materialized patch
  // went over budget under a tier-capable policy, reassign tiers instead of
  // dropping to traversal — labels usually still fit.
  const bool rebuild_tiers =
      tiered_cache ||
      (had_cache && !keep_cache &&
       options_.tier_policy != ClosureTierPolicy::kMaterialized);
  if (had_cache && !keep_cache && !rebuild_tiers) {
    index_.DropClosureCache();
  }
  for (size_t k = 0; k < affected.size(); ++k) {
    index_.ReplaceWorld(affected[k], std::move(new_worlds[k]));
    if (keep_cache) {
      index_.SetClosure(affected[k], std::move(new_closures[k]));
    }
  }
  if (rebuild_tiers) {
    index_.RebuildClosureTiers(options_.closure_budget_mb,
                               options_.tier_policy);
  }
  index_.RecomputeStats();

  // Phase 5 — patch the typical-cascade table for the changed nodes.
  if (typical_ready_) {
    if (mark_all) {
      typical_ready_ = false;
      typical_ = FlatSets();
      SOI_RETURN_IF_ERROR(EnsureTypical());
      stats.affected_nodes = num_nodes;
    } else {
      std::vector<NodeId> changed;
      for (NodeId v = 0; v < num_nodes; ++v) {
        if (node_changed[v]) changed.push_back(v);
      }
      stats.affected_nodes = static_cast<uint32_t>(changed.size());
      if (!changed.empty()) {
        // Per-node recompute matches the full sweep byte-for-byte: both
        // run the same median solver over the node's l cascade views.
        std::vector<std::vector<NodeId>> recomputed(changed.size());
        std::atomic<bool> failed{false};
        ParallelForChunks(
            0, changed.size(), /*grain=*/1,
            [&](uint32_t /*chunk*/, uint64_t b, uint64_t e) {
              TypicalCascadeComputer computer(&index_);
              for (uint64_t k = b; k < e; ++k) {
                Result<TypicalCascadeResult> r = computer.Compute(changed[k]);
                if (!r.ok()) {
                  failed.store(true, std::memory_order_relaxed);
                  return;
                }
                recomputed[k] = std::move(r->cascade);
              }
            });
        if (failed.load()) {
          return Status::Internal(
              "typical-cascade patch failed mid-batch; index is consistent "
              "but the typical table was left stale — rebuild via "
              "EnsureTypical()");
        }
        FlatSets patched;
        size_t next = 0;
        for (NodeId v = 0; v < num_nodes; ++v) {
          if (node_changed[v]) {
            patched.AddSet(recomputed[next++]);
          } else {
            patched.AddSet(typical_.Set(v));
          }
        }
        typical_ = std::move(patched);
      }
    }
  }

  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

Status DynamicIndex::EnsureTypical() {
  if (typical_ready_) return Status::OK();
  SOI_OBS_SPAN("dynamic/ensure_typical");
  TypicalCascadeComputer computer(&index_);
  SOI_ASSIGN_OR_RETURN(TypicalCascadeSweep sweep, computer.ComputeAllFlat());
  typical_ = std::move(sweep.cascades);
  typical_ready_ = true;
  return Status::OK();
}

}  // namespace soi
