#include "index/cascade_index.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <string_view>

#include "cascade/threshold.h"
#include "cascade/world.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "util/arena.h"
#include "util/stats.h"

namespace soi {

namespace {

// Resident-byte estimate of one condensation: the I[v, i] column, the
// members CSR and the DAG CSR. One formula for every construction path so
// Build and FromParts report identical approx_bytes.
uint64_t CondensationApproxBytes(const Condensation& c) {
  return 4ull * c.comp_of().size() +         // I[v, i] column
         4ull * (c.num_components() + 1) +   // members offsets
         4ull * c.num_nodes() +              // members targets
         4ull * (c.num_components() + 1) +   // dag offsets
         4ull * c.num_dag_edges();           // dag targets
}

}  // namespace

uint64_t DefaultClosureBudgetMb() {
  static const uint64_t budget = [] {
    const char* env = std::getenv("SOI_CLOSURE_BUDGET_MB");
    if (env == nullptr || *env == '\0') return uint64_t{512};
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0') return uint64_t{512};
    return static_cast<uint64_t>(parsed);
  }();
  return budget;
}

bool ParseClosureTierPolicy(const char* name, ClosureTierPolicy* out) {
  const std::string_view s(name);
  if (s == "auto") {
    *out = ClosureTierPolicy::kAuto;
  } else if (s == "materialized") {
    *out = ClosureTierPolicy::kMaterialized;
  } else if (s == "labels") {
    *out = ClosureTierPolicy::kLabels;
  } else if (s == "traversal") {
    *out = ClosureTierPolicy::kTraversal;
  } else {
    return false;
  }
  return true;
}

const char* ClosureTierPolicyName(ClosureTierPolicy policy) {
  switch (policy) {
    case ClosureTierPolicy::kAuto:
      return "auto";
    case ClosureTierPolicy::kMaterialized:
      return "materialized";
    case ClosureTierPolicy::kLabels:
      return "labels";
    case ClosureTierPolicy::kTraversal:
      return "traversal";
  }
  return "auto";
}

ClosureTierPolicy DefaultClosureTierPolicy() {
  static const ClosureTierPolicy policy = [] {
    ClosureTierPolicy p = ClosureTierPolicy::kAuto;
    const char* env = std::getenv("SOI_CLOSURE_TIER");
    if (env != nullptr && *env != '\0') ParseClosureTierPolicy(env, &p);
    return p;
  }();
  return policy;
}

void CascadeIndex::Workspace::Prepare(uint32_t num_components) {
  if (stamp_.size() < num_components) {
    stamp_.assign(num_components, 0);
    stamp_id_ = 0;
  }
  if (++stamp_id_ == 0) {  // stamp counter wrapped: hard reset
    std::fill(stamp_.begin(), stamp_.end(), 0);
    stamp_id_ = 1;
  }
  comps_.clear();
}

void CascadeIndex::ComputeSharedStats() {
  RunningStats comps, edges;
  uint64_t bytes = 0;
  for (const Condensation& c : worlds_) {
    comps.Add(c.num_components());
    edges.Add(c.num_dag_edges());
    bytes += CondensationApproxBytes(c);
  }
  stats_.avg_components = comps.mean();
  stats_.avg_dag_edges_after = edges.mean();
  stats_.approx_bytes = bytes;
}

void CascadeIndex::AccountCacheStats() {
  num_materialized_ = 0;
  num_labeled_ = 0;
  uint64_t closure_bytes = 0;
  uint64_t label_bytes = 0;
  for (size_t i = 0; i < tiers_.size(); ++i) {
    if (tiers_[i] == WorldTier::kMaterialized) {
      ++num_materialized_;
      closure_bytes += closures_[i].ApproxBytes();
    } else if (tiers_[i] == WorldTier::kLabels) {
      ++num_labeled_;
      label_bytes += labels_[i].ApproxBytes();
    }
  }
  stats_.closure_bytes = closure_bytes;
  stats_.label_bytes = label_bytes;
  stats_.approx_bytes += closure_bytes + label_bytes;
  stats_.worlds_materialized = num_materialized_;
  stats_.worlds_labeled = num_labeled_;
  stats_.worlds_traversal =
      num_worlds() - num_materialized_ - num_labeled_;
}

void CascadeIndex::BuildClosureCache(uint64_t budget_bytes,
                                     ClosureTierPolicy policy) {
  // Re-entrant: strip any previous cache contribution first.
  loader_ = nullptr;
  first_touch_ = OnceTable();
  stats_.approx_bytes -= stats_.closure_bytes + stats_.label_bytes;
  stats_.closure_bytes = 0;
  stats_.label_bytes = 0;
  stats_.worlds_materialized = 0;
  stats_.worlds_labeled = 0;
  stats_.worlds_traversal = num_worlds();
  closures_.clear();
  labels_.clear();
  tiers_.assign(worlds_.size(), WorldTier::kTraversal);
  num_materialized_ = 0;
  num_labeled_ = 0;
  if (budget_bytes == 0 || policy == ClosureTierPolicy::kTraversal) {
    SOI_OBS_COUNTER_ADD("index/closure_cache_disabled", 1);
    return;
  }
  SOI_OBS_SPAN("index/build_closure_cache");
  const size_t n = worlds_.size();

  if (policy == ClosureTierPolicy::kMaterialized) {
    // Legacy all-or-nothing: materialize every world or retain nothing.
    std::vector<ReachabilityClosure> closures(n);
    // The kept/dropped outcome is thread-count independent: per-world
    // closures are deterministic, and `over` can only ever be set when the
    // true total exceeds the budget (any subset sum of a within-budget
    // total is within budget), in which case the cache is dropped no matter
    // which worlds were skipped after the flag went up.
    std::atomic<uint64_t> used{0};
    std::atomic<bool> over{false};
    ParallelFor(0, n, /*grain=*/1, [&](uint64_t i) {
      if (over.load(std::memory_order_relaxed)) return;
      ReachabilityClosure cl =
          BuildReachabilityClosure(worlds_[i], budget_bytes / 4);
      if (cl.num_components() != worlds_[i].num_components()) {
        over.store(true, std::memory_order_relaxed);
        return;
      }
      const uint64_t bytes = cl.ApproxBytes();
      if (used.fetch_add(bytes, std::memory_order_relaxed) + bytes >
          budget_bytes) {
        over.store(true, std::memory_order_relaxed);
        return;
      }
      closures[i] = std::move(cl);
    });
    if (over.load()) {
      SOI_OBS_COUNTER_ADD("index/closure_cache_skipped_budget", 1);
      return;
    }
    closures_ = std::move(closures);
    tiers_.assign(n, WorldTier::kMaterialized);
    AccountCacheStats();
    SOI_OBS_COUNTER_ADD("index/closure_cache_built", 1);
    return;
  }

  // kAuto / kLabels: three deterministic passes.
  //
  // Pass A (parallel): build every world's interval labels. The label build
  // also prices the materialized alternative exactly (ReachLabelStats), so
  // no closure has to be built just to be measured. The per-world interval
  // cap bounds pathological label growth to the budget.
  const bool allow_materialized = policy == ClosureTierPolicy::kAuto;
  const uint64_t max_intervals = std::max<uint64_t>(budget_bytes / 8, 1);
  std::vector<ReachLabels> labels(n);
  std::vector<ReachLabelStats> label_stats(n);
  ParallelForChunks(0, n, /*grain=*/1,
                    [&](uint32_t /*chunk*/, uint64_t b, uint64_t e) {
                      ReachLabelScratch scratch;
                      for (uint64_t i = b; i < e; ++i) {
                        labels[i] = BuildReachLabels(
                            worlds_[i], max_intervals, &scratch,
                            &label_stats[i]);
                      }
                    });

  // Pass B (sequential, world order): greedy tier assignment under the
  // budget — richest tier first. Sequential accounting over deterministic
  // per-world sizes makes the assignment thread-count independent.
  std::vector<ReachabilityClosure> closures(n);
  std::vector<uint8_t> materialize(n, 0);
  uint64_t used = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t nc1 = worlds_[i].num_components() + uint64_t{1};
    if (!labels[i].empty()) {
      // Exact byte cost BuildReachabilityClosure would incur (matches
      // ReachabilityClosure::ApproxBytes).
      const uint64_t mat_bytes =
          16 * nc1 + 4 * (label_stats[i].closure_comps +
                          label_stats[i].closure_nodes);
      const uint64_t lab_bytes = labels[i].ApproxBytes();
      if (allow_materialized && used + mat_bytes <= budget_bytes) {
        tiers_[i] = WorldTier::kMaterialized;
        materialize[i] = 1;
        used += mat_bytes;
        labels[i] = ReachLabels{};
      } else if (used + lab_bytes <= budget_bytes) {
        tiers_[i] = WorldTier::kLabels;
        used += lab_bytes;
      } else {
        labels[i] = ReachLabels{};  // traversal
      }
    } else if (allow_materialized) {
      // The interval cap blew up (pathologically fragmented DAG), so the
      // materialized cost is unknown; build the closure under the remaining
      // budget to find out. Rare, and sequential on purpose: the outcome
      // feeds the running budget.
      ReachabilityClosure cl =
          BuildReachabilityClosure(worlds_[i], (budget_bytes - used) / 4);
      if (cl.num_components() == worlds_[i].num_components() &&
          used + cl.ApproxBytes() <= budget_bytes) {
        used += cl.ApproxBytes();
        closures[i] = std::move(cl);
        tiers_[i] = WorldTier::kMaterialized;
      }
    }
  }

  // Pass C (parallel): materialize the assigned worlds. The cap cannot
  // trigger — pass B proved each world's node total fits the budget.
  ParallelFor(0, n, /*grain=*/1, [&](uint64_t i) {
    if (!materialize[i]) return;
    closures[i] = BuildReachabilityClosure(worlds_[i], budget_bytes / 4);
    SOI_DCHECK(closures[i].num_components() ==
               worlds_[i].num_components());
  });

  uint32_t n_mat = 0;
  uint32_t n_lab = 0;
  for (WorldTier t : tiers_) {
    n_mat += t == WorldTier::kMaterialized;
    n_lab += t == WorldTier::kLabels;
  }
  if (n_mat > 0) closures_ = std::move(closures);
  if (n_lab > 0) labels_ = std::move(labels);
  AccountCacheStats();
  if (has_closure_cache()) {
    SOI_OBS_COUNTER_ADD("index/closure_cache_built", 1);
  }
  SOI_OBS_COUNTER_ADD("index/worlds_materialized", n_mat);
  SOI_OBS_COUNTER_ADD("index/worlds_labeled", n_lab);
  SOI_OBS_COUNTER_ADD("index/worlds_traversal", n - n_mat - n_lab);
}

Result<CascadeIndex> CascadeIndex::Build(const ProbGraph& graph,
                                         const CascadeIndexOptions& options,
                                         Rng* rng) {
  if (options.num_worlds == 0) {
    return Status::InvalidArgument("CascadeIndex: num_worlds must be >= 1");
  }
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("CascadeIndex: empty graph");
  }
  WallTimer timer;
  SOI_OBS_SPAN("index/build");
  CascadeIndex index;
  index.num_nodes_ = graph.num_nodes();

  // Linear Threshold worlds share an amortized sampler (validates weights
  // and precomputes cumulative in-weights once).
  std::optional<LtWorldSampler> lt_sampler;
  if (options.model == PropagationModel::kLinearThreshold) {
    SOI_ASSIGN_OR_RETURN(lt_sampler, LtWorldSampler::Create(graph));
  }

  // World i samples from its own stream, so the built index is identical
  // for every thread count; the master rng advances exactly once per Build,
  // so consecutive Builds from one rng still get fresh worlds.
  const Rng streams = rng->Fork();
  struct WorldStats {
    uint32_t edges_before = 0;
    uint32_t edges_after = 0;
  };
  std::vector<Condensation> worlds(options.num_worlds);
  std::vector<WorldStats> world_stats(options.num_worlds);
  // Chunked so each worker threads ONE bump arena through its worlds: the
  // SCC scratch costs O(1) heap allocations per chunk instead of five per
  // world. Per-world results are slot writes, so the chunking (like the
  // thread count) cannot change the built index.
  ParallelForChunks(
      0, options.num_worlds, /*grain=*/1,
      [&](uint32_t /*chunk*/, uint64_t b, uint64_t e) {
        BumpArena scratch;
        for (uint64_t i = b; i < e; ++i) {
          scratch.Reset();
          Rng world_rng = streams.Fork(i);
          std::optional<Csr> world;
          {
            SOI_OBS_SPAN("index/sample_world");
            world.emplace(lt_sampler.has_value()
                              ? lt_sampler->Sample(&world_rng)
                              : SampleWorld(graph, &world_rng));
          }
          std::optional<Condensation> cond;
          {
            SOI_OBS_SPAN("index/scc_condense");
            cond.emplace(Condensation::Build(*world, &scratch));
          }
          uint32_t before = cond->num_dag_edges();
          uint32_t after = before;
          if (options.transitive_reduction) {
            SOI_OBS_SPAN("index/transitive_reduce");
            const ReductionStats rstats =
                TransitiveReduce(&*cond, options.reduction);
            before = rstats.edges_before;
            after = rstats.edges_after;
          }
          world_stats[i] = {before, after};
          worlds[i] = std::move(*cond);
        }
      });
  SOI_OBS_COUNTER_ADD("index/worlds_built", options.num_worlds);

  // Ordered reduction: accumulate floating-point stats in world order.
  RunningStats edges_before;
  uint64_t edges_removed = 0;
  for (uint32_t i = 0; i < options.num_worlds; ++i) {
    edges_before.Add(world_stats[i].edges_before);
    edges_removed += world_stats[i].edges_before - world_stats[i].edges_after;
  }
  SOI_OBS_COUNTER_ADD("index/dag_edges_removed", edges_removed);
  index.worlds_ = std::move(worlds);
  index.tiers_.assign(index.worlds_.size(), WorldTier::kTraversal);
  index.ComputeSharedStats();
  index.stats_.avg_dag_edges_before = edges_before.mean();
  index.BuildClosureCache(options.closure_budget_mb << 20,
                          options.tier_policy);
  index.stats_.build_seconds = timer.ElapsedSeconds();
  return index;
}

Result<CascadeIndex> CascadeIndex::FromParts(
    NodeId num_nodes, std::vector<Condensation> worlds,
    std::vector<ReachabilityClosure> closures, std::vector<ReachLabels> labels,
    std::vector<WorldTier> tiers, ClosureLoader loader) {
  const size_t n = worlds.size();
  if (tiers.empty()) {
    // Legacy two-state contract: closures empty (all traversal) or full
    // (all materialized); labels are a tiered-mode concept.
    if (!labels.empty()) {
      return Status::InvalidArgument(
          "labels require an explicit tier assignment");
    }
    if (!closures.empty() && closures.size() != n) {
      return Status::InvalidArgument(
          "closure count (" + std::to_string(closures.size()) +
          ") does not match world count (" + std::to_string(n) + ")");
    }
    tiers.assign(n, closures.empty() ? WorldTier::kTraversal
                                     : WorldTier::kMaterialized);
  } else {
    if (tiers.size() != n) {
      return Status::InvalidArgument(
          "tier count (" + std::to_string(tiers.size()) +
          ") does not match world count (" + std::to_string(n) + ")");
    }
    if (closures.empty()) {
      closures.resize(n);
    } else if (closures.size() != n) {
      return Status::InvalidArgument("closure count does not match worlds");
    }
    if (labels.empty()) {
      labels.resize(n);
    } else if (labels.size() != n) {
      return Status::InvalidArgument("label count does not match worlds");
    }
  }
  uint32_t n_mat = 0;
  uint32_t n_lab = 0;
  for (size_t i = 0; i < n; ++i) {
    if (tiers[i] == WorldTier::kMaterialized) {
      ++n_mat;
      if (closures[i].num_components() != worlds[i].num_components()) {
        return Status::InvalidArgument(
            "closure component count mismatch in world " + std::to_string(i));
      }
    } else if (tiers[i] == WorldTier::kLabels) {
      ++n_lab;
      if (labels[i].num_components() != worlds[i].num_components()) {
        return Status::InvalidArgument(
            "label component count mismatch in world " + std::to_string(i));
      }
    }
  }
  if (num_nodes == 0) return Status::InvalidArgument("empty node set");
  if (n == 0) return Status::InvalidArgument("no worlds");
  for (const Condensation& c : worlds) {
    if (c.num_nodes() != num_nodes) {
      return Status::InvalidArgument("condensation node count mismatch");
    }
  }
  CascadeIndex index;
  index.num_nodes_ = num_nodes;
  index.worlds_ = std::move(worlds);
  index.ComputeSharedStats();
  // Prebuilt condensations carry only the stored (possibly reduced) DAG, so
  // the pre-reduction edge count is unrecoverable here; report the stored
  // count for both so the stats stay self-consistent.
  index.stats_.avg_dag_edges_before = index.stats_.avg_dag_edges_after;
  index.tiers_ = std::move(tiers);
  if (n_mat > 0) index.closures_ = std::move(closures);
  if (n_lab > 0) index.labels_ = std::move(labels);
  if (n_mat > 0 && loader) {
    index.loader_ = std::move(loader);
    index.first_touch_ = OnceTable(n);
  }
  index.AccountCacheStats();
  return index;
}

void CascadeIndex::ReplaceWorld(uint32_t i, Condensation cond) {
  SOI_CHECK(i < worlds_.size());
  SOI_CHECK(!cond.borrowed());
  SOI_CHECK(cond.num_nodes() == num_nodes_);
  worlds_[i] = std::move(cond);
}

void CascadeIndex::SetClosure(uint32_t i, ReachabilityClosure closure) {
  SOI_CHECK(has_closure_cache());
  SOI_CHECK(i < closures_.size());
  SOI_CHECK(closure.num_components() == worlds_[i].num_components());
  closures_[i] = std::move(closure);
}

void CascadeIndex::DropClosureCache() {
  loader_ = nullptr;
  first_touch_ = OnceTable();
  closures_.clear();
  labels_.clear();
  tiers_.assign(worlds_.size(), WorldTier::kTraversal);
  num_materialized_ = 0;
  num_labeled_ = 0;
  SOI_OBS_COUNTER_ADD("index/closure_cache_dropped", 1);
}

void CascadeIndex::RebuildClosureTiers(uint64_t budget_mb,
                                       ClosureTierPolicy policy) {
  BuildClosureCache(budget_mb << 20, policy);
}

void CascadeIndex::RebuildClosureTiersBytes(uint64_t budget_bytes,
                                            ClosureTierPolicy policy) {
  BuildClosureCache(budget_bytes, policy);
}

void CascadeIndex::RecomputeStats() {
  const double build_seconds = stats_.build_seconds;
  stats_ = CascadeIndexStats{};
  stats_.build_seconds = build_seconds;
  ComputeSharedStats();
  stats_.avg_dag_edges_before = stats_.avg_dag_edges_after;
  AccountCacheStats();
}

Status CascadeIndex::ValidateSeeds(std::span<const NodeId> seeds) const {
  SOI_RETURN_IF_ERROR(ValidateSeedSet(seeds, num_nodes_));
  return Status::OK();
}

Status CascadeIndex::PrepareAllWorlds() const {
  for (uint32_t i = 0; i < num_worlds(); ++i) {
    SOI_RETURN_IF_ERROR(PrepareWorld(i));
  }
  return Status::OK();
}

Status CascadeIndex::ValidateWorld(uint32_t i) const {
  if (i >= num_worlds()) {
    return Status::InvalidArgument(
        "world index " + std::to_string(i) + " is out of range; index has " +
        std::to_string(num_worlds()) + " worlds (valid: 0.." +
        std::to_string(num_worlds() - 1) + ")");
  }
  return Status::OK();
}

void CascadeIndex::CascadeInto(std::span<const NodeId> seeds, uint32_t i,
                               Workspace* ws, std::vector<NodeId>* out) const {
  // Precondition (debug-checked): seeds/world validated by the caller.
  const Condensation& cond = world(i);
  if (tiers_[i] == WorldTier::kMaterialized && seeds.size() == 1) {
    SOI_DCHECK(prepared(i));
    SOI_DCHECK(seeds[0] < num_nodes_);
    const auto run = closures_[i].Cascade(cond.ComponentOf(seeds[0]));
    out->insert(out->end(), run.begin(), run.end());
    return;
  }
  // Every other cascade is assembled one way: mark the members of each
  // reached component once in the node bitmap, then drain it ascending.
  // That is the exact run the materialized tier stores. Components
  // [lo, hi] own the contiguous slice members[mo[lo], mo[hi + 1]).
  ws->marks_.Reserve(num_nodes_);
  const auto mo = cond.members_offsets();
  const auto members = cond.members_targets();
  uint64_t marked = 0;
  const auto mark_components = [&](uint32_t lo, uint32_t hi) {
    for (uint32_t k = mo[lo]; k < mo[hi + 1]; ++k) ws->marks_.Mark(members[k]);
    marked += mo[hi + 1] - mo[lo];
  };
  if (tiers_[i] == WorldTier::kLabels) {
    // A label's intervals are disjoint, so one seed marks them as they
    // come; several seeds mark the union of all their intervals.
    const ReachLabels& lab = labels_[i];
    if (seeds.size() == 1) {
      SOI_DCHECK(seeds[0] < num_nodes_);
      const auto b = lab.Bounds(cond.ComponentOf(seeds[0]));
      for (size_t k = 0; k < b.size(); k += 2) mark_components(b[k], b[k + 1]);
    } else {
      auto& intervals = ws->intervals_;
      intervals.clear();
      for (NodeId s : seeds) {
        SOI_DCHECK(s < num_nodes_);
        const auto b = lab.Bounds(cond.ComponentOf(s));
        for (size_t k = 0; k < b.size(); k += 2) {
          intervals.emplace_back(b[k], b[k + 1]);
        }
      }
      std::sort(intervals.begin(), intervals.end());
      for (size_t k = 0; k < intervals.size();) {
        const uint32_t lo = intervals[k].first;
        uint32_t hi = intervals[k].second;
        for (++k; k < intervals.size() && intervals[k].first <= hi; ++k) {
          hi = std::max(hi, intervals[k].second);
        }
        mark_components(lo, hi);
      }
    }
  } else {
    // Several seeds on a materialized world: the stamped union of their
    // closure lists. Traversal: a stamped DFS over the condensation DAG.
    ws->Prepare(cond.num_components());
    if (tiers_[i] == WorldTier::kMaterialized) {
      SOI_DCHECK(prepared(i));
      const ReachabilityClosure& cl = closures_[i];
      for (NodeId s : seeds) {
        SOI_DCHECK(s < num_nodes_);
        for (uint32_t x : cl.Closure(cond.ComponentOf(s))) {
          if (ws->stamp_[x] != ws->stamp_id_) {
            ws->stamp_[x] = ws->stamp_id_;
            mark_components(x, x);
          }
        }
      }
    } else {
      for (NodeId s : seeds) {
        SOI_DCHECK(s < num_nodes_);
        ReachableComponents(cond, cond.ComponentOf(s), &ws->stamp_,
                            ws->stamp_id_, &ws->comps_);
      }
      for (uint32_t c : ws->comps_) mark_components(c, c);
    }
  }
  ws->marks_.DrainAppend(marked, out);
}

Result<std::vector<NodeId>> CascadeIndex::Cascade(std::span<const NodeId> seeds,
                                                  uint32_t i,
                                                  Workspace* ws) const {
  SOI_RETURN_IF_ERROR(ValidateSeeds(seeds));
  SOI_RETURN_IF_ERROR(ValidateWorld(i));
  SOI_RETURN_IF_ERROR(PrepareWorld(i));
  std::vector<NodeId> out;
  CascadeInto(seeds, i, ws, &out);
  return out;
}

void CascadeIndex::AppendCascade(std::span<const NodeId> seeds, uint32_t i,
                                 Workspace* ws, CascadeArena* arena) const {
  CascadeInto(seeds, i, ws, &arena->sets_.MutableElements());
  arena->sets_.SealSet();
}

Result<uint64_t> CascadeIndex::CascadeSize(std::span<const NodeId> seeds,
                                           uint32_t i, Workspace* ws) const {
  SOI_RETURN_IF_ERROR(ValidateSeeds(seeds));
  SOI_RETURN_IF_ERROR(ValidateWorld(i));
  const Condensation& cond = world(i);
  if (tiers_[i] == WorldTier::kMaterialized) {
    const ReachabilityClosure& cl = closures_[i];
    if (seeds.size() == 1) {
      return cl.NodeCount(cond.ComponentOf(seeds[0]));
    }
    SOI_RETURN_IF_ERROR(PrepareWorld(i));
    ws->Prepare(cond.num_components());
    uint64_t total = 0;
    for (NodeId s : seeds) {
      for (uint32_t x : cl.Closure(cond.ComponentOf(s))) {
        if (ws->stamp_[x] != ws->stamp_id_) {
          ws->stamp_[x] = ws->stamp_id_;
          total += cond.ComponentSize(x);
        }
      }
    }
    return total;
  }
  if (tiers_[i] == WorldTier::kLabels) {
    const ReachLabels& lab = labels_[i];
    if (seeds.size() == 1) {
      return lab.NodeCount(cond.ComponentOf(seeds[0]));  // O(1)
    }
    ws->Prepare(cond.num_components());
    uint64_t total = 0;
    for (NodeId s : seeds) {
      const auto b = lab.Bounds(cond.ComponentOf(s));
      for (size_t k = 0; k < b.size(); k += 2) {
        for (uint32_t x = b[k]; x <= b[k + 1]; ++x) {
          if (ws->stamp_[x] != ws->stamp_id_) {
            ws->stamp_[x] = ws->stamp_id_;
            total += cond.ComponentSize(x);
          }
        }
      }
    }
    return total;
  }
  ws->Prepare(cond.num_components());
  for (NodeId s : seeds) {
    ReachableComponents(cond, cond.ComponentOf(s), &ws->stamp_, ws->stamp_id_,
                        &ws->comps_);
  }
  uint64_t total = 0;
  for (uint32_t c : ws->comps_) total += cond.ComponentSize(c);
  return total;
}

Result<std::vector<std::vector<NodeId>>> CascadeIndex::AllCascades(
    std::span<const NodeId> seeds, Workspace* ws) const {
  SOI_RETURN_IF_ERROR(ValidateSeeds(seeds));
  std::vector<std::vector<NodeId>> out;
  out.reserve(num_worlds());
  for (uint32_t i = 0; i < num_worlds(); ++i) {
    SOI_RETURN_IF_ERROR(PrepareWorld(i));
    std::vector<NodeId> cascade;
    CascadeInto(seeds, i, ws, &cascade);
    out.push_back(std::move(cascade));
  }
  return out;
}

Status CascadeIndex::AllCascadesInto(std::span<const NodeId> seeds,
                                     Workspace* ws,
                                     CascadeArena* arena) const {
  arena->Clear();
  SOI_RETURN_IF_ERROR(ValidateSeeds(seeds));
  for (uint32_t i = 0; i < num_worlds(); ++i) {
    if (const Status prepared = PrepareWorld(i); !prepared.ok()) {
      arena->Clear();
      return prepared;
    }
    AppendCascade(seeds, i, ws, arena);
  }
  return Status::OK();
}

}  // namespace soi
