// Equivalence suite for the per-world closure cache (scc/closure.h,
// index/cascade_index.cc): the cache is a pure memoization, so every query
// and every downstream result must be byte-identical between the cached and
// the traversal path, across models, reduction settings, thread counts and
// budget decisions. Also unit-tests the closure build invariants directly.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/threshold.h"
#include "core/typical_cascade.h"
#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "index/cascade_index.h"
#include "infmax/spread_oracle.h"
#include "runtime/parallel_for.h"
#include "scc/closure.h"
#include "scc/condensation.h"
#include "util/rng.h"

namespace soi {
namespace {

// A directed graph with non-trivial SCCs and fan-out so worlds have both
// multi-node components and deep DAGs. LT additionally normalizes in-weights.
ProbGraph TestGraph(PropagationModel model) {
  Rng gen_rng(7);
  auto topo = GenerateRmat(7, 600, {}, &gen_rng);
  EXPECT_TRUE(topo.ok());
  Rng assign_rng(8);
  auto g = AssignUniform(*topo, &assign_rng, 0.05, 0.35);
  EXPECT_TRUE(g.ok());
  if (model == PropagationModel::kLinearThreshold) {
    auto lt = NormalizeLtWeights(*g, 0.9);
    EXPECT_TRUE(lt.ok());
    return std::move(lt).value();
  }
  return std::move(g).value();
}

CascadeIndex BuildIndex(const ProbGraph& g, PropagationModel model,
                        bool reduction, uint64_t budget_mb,
                        uint32_t worlds = 48, uint64_t seed = 11,
                        ClosureTierPolicy policy = ClosureTierPolicy::kAuto) {
  CascadeIndexOptions options;
  options.num_worlds = worlds;
  options.model = model;
  options.transitive_reduction = reduction;
  options.closure_budget_mb = budget_mb;
  options.tier_policy = policy;
  Rng rng(seed);
  auto index = CascadeIndex::Build(g, options, &rng);
  EXPECT_TRUE(index.ok());
  return std::move(index).value();
}

// ---------------------------------------------------------------------------
// Closure build invariants.
// ---------------------------------------------------------------------------

// Checks every component's closure against a fresh DFS, and its run against
// the sorted union of the member runs of the components it reaches.
void ExpectMatchesReference(const Condensation& cond,
                            const ReachabilityClosure& closure) {
  ASSERT_EQ(closure.num_components(), cond.num_components());
  std::vector<uint32_t> stamp(cond.num_components(), 0);
  std::vector<uint32_t> reached;
  std::vector<NodeId> members;
  for (uint32_t c = 0; c < cond.num_components(); ++c) {
    reached.clear();
    ReachableComponents(cond, c, &stamp, c + 1, &reached);
    std::sort(reached.begin(), reached.end());
    ASSERT_TRUE(std::ranges::equal(closure.Closure(c), reached))
        << "closure of component " << c;
    members.clear();
    for (uint32_t r : reached) {
      const auto m = cond.ComponentMembers(r);
      members.insert(members.end(), m.begin(), m.end());
    }
    std::sort(members.begin(), members.end());
    ASSERT_TRUE(std::ranges::equal(closure.Cascade(c), members))
        << "run of component " << c;
    ASSERT_EQ(closure.NodeCount(c), members.size());
  }
}

Condensation CondenseEdges(NodeId n,
                           std::vector<std::pair<NodeId, NodeId>> edges) {
  return Condensation::Build(
      Csr::FromEdges(n, std::move(edges), /*dedupe=*/true));
}

TEST(ClosureBuildTest, MatchesReachableComponentsOnSampledWorlds) {
  const ProbGraph g = TestGraph(PropagationModel::kIndependentCascade);
  // Unreduced DAGs are the default shape; reduced ones the ablation.
  for (const bool reduction : {false, true}) {
    SCOPED_TRACE(reduction ? "reduced" : "unreduced");
    const CascadeIndex index = BuildIndex(
        g, PropagationModel::kIndependentCascade, reduction, 0, 16);
    for (uint32_t i = 0; i < index.num_worlds(); ++i) {
      const ReachabilityClosure closure =
          BuildReachabilityClosure(index.world(i), UINT64_MAX);
      EXPECT_GT(closure.ApproxBytes(), 0u);
      ExpectMatchesReference(index.world(i), closure);
    }
  }
}

TEST(ClosureBuildTest, HubOverChainMatchesReference) {
  // A hub with an arc to every node of the chain k-1 -> ... -> 0: its k
  // successors' closures nest, so the union reads about k^2/2 ids to keep
  // k + 1.
  constexpr NodeId kChain = 2000;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v < kChain; ++v) edges.emplace_back(v, v - 1);
  for (NodeId v = 0; v < kChain; ++v) edges.emplace_back(kChain, v);
  const Condensation cond = CondenseEdges(kChain + 1, std::move(edges));
  ASSERT_EQ(cond.num_components(), kChain + 1);
  const uint32_t hub = cond.ComponentOf(kChain);
  ASSERT_EQ(cond.DagSuccessors(hub).size(), kChain);
  const ReachabilityClosure closure =
      BuildReachabilityClosure(cond, UINT64_MAX);
  ExpectMatchesReference(cond, closure);
  EXPECT_EQ(closure.NodeCount(hub), kChain + 1);
}

TEST(ClosureBuildTest, DiamondLatticeMatchesReference) {
  // (r, c) -> (r + 1, c) and (r, c + 1): every pair of successors shares
  // most of its closure, and every component has many paths to each one.
  constexpr NodeId kSide = 30;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId r = 0; r < kSide; ++r) {
    for (NodeId c = 0; c < kSide; ++c) {
      if (r + 1 < kSide) edges.emplace_back(r * kSide + c, (r + 1) * kSide + c);
      if (c + 1 < kSide) edges.emplace_back(r * kSide + c, r * kSide + c + 1);
    }
  }
  const Condensation cond = CondenseEdges(kSide * kSide, std::move(edges));
  ASSERT_EQ(cond.num_components(), kSide * kSide);
  const ReachabilityClosure closure =
      BuildReachabilityClosure(cond, UINT64_MAX);
  ExpectMatchesReference(cond, closure);
  EXPECT_EQ(closure.NodeCount(cond.ComponentOf(0)), kSide * kSide);
}

TEST(ClosureBuildTest, MultiNodeComponentInterleavesWithSuccessorRuns) {
  // SCC {1, 5, 9} reaches 0, 4 and 8, the SCC {3, 7}, and through them
  // 2, 6, 10 and 11: its members sit between its successors' run entries.
  // Node 12 reaches the SCC from outside.
  const Condensation cond = CondenseEdges(
      13, {{1, 5}, {5, 9}, {9, 1}, {3, 7}, {7, 3}, {1, 0}, {5, 4},
           {9, 8}, {9, 3}, {4, 2}, {8, 6}, {0, 10}, {7, 11}, {12, 5},
           {12, 2}});
  const uint32_t scc = cond.ComponentOf(1);
  ASSERT_EQ(cond.ComponentSize(scc), 3u);
  ASSERT_EQ(cond.ComponentSize(cond.ComponentOf(3)), 2u);
  const ReachabilityClosure closure =
      BuildReachabilityClosure(cond, UINT64_MAX);
  ExpectMatchesReference(cond, closure);
  const std::vector<NodeId> expected = {0, 1, 2, 3, 4, 5,
                                        6, 7, 8, 9, 10, 11};
  EXPECT_TRUE(std::ranges::equal(closure.Cascade(scc), expected));
  EXPECT_EQ(closure.NodeCount(cond.ComponentOf(12)), 13u);
}

TEST(ClosureBuildTest, NodeCapBailsToEmptyClosure) {
  const ProbGraph g = TestGraph(PropagationModel::kIndependentCascade);
  const CascadeIndex index =
      BuildIndex(g, PropagationModel::kIndependentCascade, false, 0, 4);
  const Condensation& cond = index.world(0);
  ASSERT_GT(cond.num_components(), 1u);
  const ReachabilityClosure bailed = BuildReachabilityClosure(cond, 1);
  EXPECT_EQ(bailed.num_components(), 0u);
  EXPECT_TRUE(bailed.nodes.empty());
  // An exact cap (total run length) succeeds; one node less bails.
  const ReachabilityClosure full = BuildReachabilityClosure(cond, UINT64_MAX);
  const ReachabilityClosure at_cap =
      BuildReachabilityClosure(cond, full.nodes.size());
  EXPECT_EQ(at_cap.num_components(), cond.num_components());
  EXPECT_EQ(at_cap.nodes, full.nodes);
  const ReachabilityClosure below_cap =
      BuildReachabilityClosure(cond, full.nodes.size() - 1);
  EXPECT_EQ(below_cap.num_components(), 0u);
  EXPECT_TRUE(below_cap.nodes.empty());
}

TEST(ClosureBuildTest, MergeComponentMemberRunsMatchesGatherSort) {
  const ProbGraph g = TestGraph(PropagationModel::kIndependentCascade);
  const CascadeIndex index =
      BuildIndex(g, PropagationModel::kIndependentCascade, true, 0, 4);
  const Condensation& cond = index.world(1);
  const ReachabilityClosure closure = BuildReachabilityClosure(cond, UINT64_MAX);
  RunMergeScratch scratch;
  for (uint32_t c = 0; c < cond.num_components(); ++c) {
    std::vector<NodeId> merged;
    MergeComponentMemberRuns(cond, closure.Closure(c), &scratch, &merged);
    std::vector<NodeId> gathered;
    for (uint32_t cc : closure.Closure(c)) {
      const auto m = cond.ComponentMembers(cc);
      gathered.insert(gathered.end(), m.begin(), m.end());
    }
    std::sort(gathered.begin(), gathered.end());
    EXPECT_EQ(merged, gathered);
  }
}

// ---------------------------------------------------------------------------
// Cached vs traversal equivalence across models and reduction settings.
// ---------------------------------------------------------------------------

struct EquivalenceCase {
  PropagationModel model;
  bool reduction;
};

class ClosureEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(ClosureEquivalenceTest, QueriesByteIdentical) {
  const auto [model, reduction] = GetParam();
  const ProbGraph g = TestGraph(model);
  // Same Build seed: identical sampled worlds, only the cache differs.
  const CascadeIndex cached = BuildIndex(g, model, reduction, 512);
  const CascadeIndex plain = BuildIndex(g, model, reduction, 0);
  ASSERT_TRUE(cached.has_closure_cache());
  ASSERT_FALSE(plain.has_closure_cache());
  EXPECT_GT(cached.stats().closure_bytes, 0u);
  EXPECT_EQ(plain.stats().closure_bytes, 0u);
  EXPECT_EQ(cached.stats().approx_bytes,
            plain.stats().approx_bytes + cached.stats().closure_bytes);

  CascadeIndex::Workspace ws_cached, ws_plain;
  const NodeId n = g.num_nodes();
  for (uint32_t i = 0; i < cached.num_worlds(); ++i) {
    for (NodeId v = 0; v < n; ++v) {
      const auto a = cached.Cascade(v, i, &ws_cached).value();
      const auto b = plain.Cascade(v, i, &ws_plain).value();
      ASSERT_EQ(a, b) << "node " << v << " world " << i;
      const auto span = cached.CachedCascade(v, i);
      ASSERT_TRUE(std::equal(span.begin(), span.end(), a.begin(), a.end()));
      ASSERT_EQ(cached.CascadeSize(v, i, &ws_cached).value(), a.size());
      ASSERT_EQ(plain.CascadeSize(v, i, &ws_plain).value(), b.size());
    }
  }
  // Multi-seed queries exercise the stamped closure-union + run-merge path.
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0, 1}, {2, 3, 5, 7}, {0, static_cast<NodeId>(n - 1)},
      {10, 11, 12, 13, 14, 15, 16, 17}};
  for (const auto& seeds : seed_sets) {
    for (uint32_t i = 0; i < cached.num_worlds(); ++i) {
      const auto a = cached.Cascade(seeds, i, &ws_cached).value();
      const auto b = plain.Cascade(seeds, i, &ws_plain).value();
      ASSERT_EQ(a, b);
      ASSERT_EQ(cached.CascadeSize(seeds, i, &ws_cached).value(), a.size());
      ASSERT_EQ(plain.CascadeSize(seeds, i, &ws_plain).value(), a.size());
    }
  }
}

TEST_P(ClosureEquivalenceTest, TypicalSweepByteIdenticalAcrossThreads) {
  const auto [model, reduction] = GetParam();
  const ProbGraph g = TestGraph(model);
  const CascadeIndex cached = BuildIndex(g, model, reduction, 512);
  const CascadeIndex plain = BuildIndex(g, model, reduction, 0);
  ASSERT_TRUE(cached.has_closure_cache());
  ASSERT_FALSE(plain.has_closure_cache());

  const uint32_t saved_threads = GlobalThreads();
  std::vector<std::vector<TypicalCascadeResult>> sweeps;
  for (const CascadeIndex* index : {&cached, &plain}) {
    for (uint32_t threads : {1u, 8u}) {
      SetGlobalThreads(threads);
      TypicalCascadeComputer computer(index);
      auto result = computer.ComputeAll({});
      ASSERT_TRUE(result.ok());
      sweeps.push_back(std::move(result).value());
    }
  }
  SetGlobalThreads(saved_threads);
  const auto& reference = sweeps[0];
  for (size_t s = 1; s < sweeps.size(); ++s) {
    ASSERT_EQ(sweeps[s].size(), reference.size());
    for (size_t v = 0; v < reference.size(); ++v) {
      ASSERT_EQ(sweeps[s][v].cascade, reference[v].cascade)
          << "sweep " << s << " node " << v;
      ASSERT_EQ(sweeps[s][v].in_sample_cost, reference[v].in_sample_cost);
      ASSERT_EQ(sweeps[s][v].mean_sample_size, reference[v].mean_sample_size);
      ASSERT_EQ(sweeps[s][v].median_source, reference[v].median_source);
    }
  }
}

TEST_P(ClosureEquivalenceTest, SpreadOracleGainsIdentical) {
  const auto [model, reduction] = GetParam();
  const ProbGraph g = TestGraph(model);
  const CascadeIndex cached = BuildIndex(g, model, reduction, 512);
  const CascadeIndex plain = BuildIndex(g, model, reduction, 0);
  ASSERT_TRUE(cached.has_closure_cache());
  SpreadOracle oracle_cached(&cached);
  SpreadOracle oracle_plain(&plain);
  // First round: the cached oracle answers from NodeCount lookups.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(oracle_cached.MarginalGain(v), oracle_plain.MarginalGain(v));
  }
  // After a commit both fall back to the traversal and must still agree.
  EXPECT_EQ(oracle_cached.Add(3), oracle_plain.Add(3));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(oracle_cached.MarginalGain(v), oracle_plain.MarginalGain(v));
  }
  EXPECT_EQ(oracle_cached.CurrentSpread(), oracle_plain.CurrentSpread());
}

TEST_P(ClosureEquivalenceTest, LabelsTierByteIdenticalAcrossThreads) {
  const auto [model, reduction] = GetParam();
  const ProbGraph g = TestGraph(model);
  const CascadeIndex materialized = BuildIndex(g, model, reduction, 512);
  const CascadeIndex labeled = BuildIndex(
      g, model, reduction, 512, 48, 11, ClosureTierPolicy::kLabels);
  ASSERT_TRUE(materialized.has_closure_cache());
  ASSERT_FALSE(labeled.has_closure_cache());
  ASSERT_EQ(labeled.stats().worlds_labeled, labeled.num_worlds());
  ASSERT_TRUE(labeled.has_fast_counts());
  EXPECT_GT(labeled.stats().label_bytes, 0u);
  EXPECT_LT(labeled.stats().label_bytes, materialized.stats().closure_bytes);

  // The O(1) per-component counts agree across tiers, and the label
  // intervals expand to exactly the materialized closure lists.
  std::vector<uint32_t> expanded;
  for (uint32_t i = 0; i < labeled.num_worlds(); ++i) {
    const ReachLabels& lab = labeled.labels(i);
    const ReachabilityClosure& cl = materialized.closure(i);
    for (uint32_t c = 0; c < labeled.world(i).num_components(); ++c) {
      ASSERT_EQ(labeled.ReachNodeCount(c, i),
                materialized.ReachNodeCount(c, i));
      expanded.clear();
      lab.AppendClosure(c, &expanded);
      const auto ref = cl.Closure(c);
      ASSERT_TRUE(std::equal(expanded.begin(), expanded.end(), ref.begin(),
                             ref.end()));
      ASSERT_EQ(lab.ClosureLength(c), ref.size());
      for (uint32_t x : ref) ASSERT_TRUE(lab.Reaches(c, x));
    }
  }

  // Single- and multi-seed queries byte-identical.
  CascadeIndex::Workspace ws_a, ws_b;
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {0, 1}, {2, 3, 5, 7},
      {0, static_cast<NodeId>(g.num_nodes() - 1)}};
  for (const auto& seeds : seed_sets) {
    for (uint32_t i = 0; i < labeled.num_worlds(); ++i) {
      const auto a = labeled.Cascade(seeds, i, &ws_a).value();
      ASSERT_EQ(a, materialized.Cascade(seeds, i, &ws_b).value());
      ASSERT_EQ(labeled.CascadeSize(seeds, i, &ws_a).value(), a.size());
    }
  }

  // Typical sweep byte-identical across tiers and thread counts.
  const uint32_t saved_threads = GlobalThreads();
  std::vector<std::vector<TypicalCascadeResult>> sweeps;
  for (const CascadeIndex* index : {&materialized, &labeled}) {
    for (uint32_t threads : {1u, 8u}) {
      SetGlobalThreads(threads);
      TypicalCascadeComputer computer(index);
      auto result = computer.ComputeAll({});
      ASSERT_TRUE(result.ok());
      sweeps.push_back(std::move(result).value());
    }
  }
  SetGlobalThreads(saved_threads);
  for (size_t s = 1; s < sweeps.size(); ++s) {
    ASSERT_EQ(sweeps[s].size(), sweeps[0].size());
    for (size_t v = 0; v < sweeps[0].size(); ++v) {
      ASSERT_EQ(sweeps[s][v].cascade, sweeps[0][v].cascade);
      ASSERT_EQ(sweeps[s][v].median_source, sweeps[0][v].median_source);
    }
  }

  // Spread-oracle gains identical (first round takes the fast-count path on
  // both indexes, later rounds traverse).
  SpreadOracle oracle_lab(&labeled);
  SpreadOracle oracle_mat(&materialized);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(oracle_lab.MarginalGain(v), oracle_mat.MarginalGain(v));
  }
  EXPECT_EQ(oracle_lab.Add(3), oracle_mat.Add(3));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(oracle_lab.MarginalGain(v), oracle_mat.MarginalGain(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndReduction, ClosureEquivalenceTest,
    ::testing::Values(
        EquivalenceCase{PropagationModel::kIndependentCascade, true},
        EquivalenceCase{PropagationModel::kIndependentCascade, false},
        EquivalenceCase{PropagationModel::kLinearThreshold, true},
        EquivalenceCase{PropagationModel::kLinearThreshold, false}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      std::string name = info.param.model ==
                                 PropagationModel::kIndependentCascade
                             ? "Ic"
                             : "Lt";
      return name + (info.param.reduction ? "Reduced" : "Unreduced");
    });

// ---------------------------------------------------------------------------
// Budget semantics.
// ---------------------------------------------------------------------------

TEST(ClosureBudgetTest, OverBudgetDemotesToCheaperTiersWithIdenticalOutputs) {
  // Dense enough that the total closure size dwarfs a 1 MiB budget.
  Rng gen_rng(17);
  auto topo = GenerateRmat(10, 6000, {}, &gen_rng);
  ASSERT_TRUE(topo.ok());
  Rng assign_rng(18);
  auto g = AssignUniform(*topo, &assign_rng, 0.2, 0.5);
  ASSERT_TRUE(g.ok());
  const CascadeIndex tiny =
      BuildIndex(*g, PropagationModel::kIndependentCascade, true, 1, 16);
  const CascadeIndex plain =
      BuildIndex(*g, PropagationModel::kIndependentCascade, true, 0, 16);
  // kAuto: over budget no longer means "retain nothing" — worlds demote to
  // labels (or traversal), the retained bytes stay under budget, and every
  // query is still byte-identical.
  ASSERT_FALSE(tiny.has_closure_cache());
  const CascadeIndexStats& st = tiny.stats();
  EXPECT_EQ(st.worlds_materialized + st.worlds_labeled + st.worlds_traversal,
            tiny.num_worlds());
  EXPECT_GT(st.worlds_labeled + st.worlds_traversal, 0u);
  EXPECT_GT(st.worlds_labeled, 0u);  // labels fit where closures did not
  EXPECT_LE(st.closure_bytes + st.label_bytes, uint64_t{1} << 20);
  EXPECT_EQ(st.approx_bytes, plain.stats().approx_bytes + st.closure_bytes +
                                 st.label_bytes);
  // The legacy all-or-nothing policy still retains nothing when over.
  const CascadeIndex legacy =
      BuildIndex(*g, PropagationModel::kIndependentCascade, true, 1, 16, 11,
                 ClosureTierPolicy::kMaterialized);
  ASSERT_FALSE(legacy.has_closure_cache());
  EXPECT_EQ(legacy.stats().closure_bytes, 0u);
  EXPECT_EQ(legacy.stats().label_bytes, 0u);
  EXPECT_EQ(legacy.stats().worlds_traversal, legacy.num_worlds());
  EXPECT_EQ(legacy.stats().approx_bytes, plain.stats().approx_bytes);
  // And budget 0 pins every world to the traversal tier.
  EXPECT_EQ(plain.stats().worlds_traversal, plain.num_worlds());
  EXPECT_EQ(plain.stats().label_bytes, 0u);
  CascadeIndex::Workspace ws_a, ws_b, ws_c;
  for (uint32_t i = 0; i < tiny.num_worlds(); ++i) {
    for (NodeId v = 0; v < g->num_nodes(); v += 37) {
      const auto a = tiny.Cascade(v, i, &ws_a).value();
      ASSERT_EQ(a, plain.Cascade(v, i, &ws_b).value());
      ASSERT_EQ(a, legacy.Cascade(v, i, &ws_c).value());
      ASSERT_EQ(tiny.CascadeSize(v, i, &ws_a).value(), a.size());
    }
  }
}

TEST(ClosureBudgetTest, ExactByteBudgetBoundaryAdmitsWorld) {
  const ProbGraph g = TestGraph(PropagationModel::kIndependentCascade);
  CascadeIndex index =
      BuildIndex(g, PropagationModel::kIndependentCascade, true, 0, 8);
  const uint64_t w0_bytes =
      BuildReachabilityClosure(index.world(0), UINT64_MAX).ApproxBytes();
  // Budget exactly equal to world 0's materialized bytes: the world must be
  // admitted (<=, not <), and nothing else can fit a closure.
  index.RebuildClosureTiersBytes(w0_bytes, ClosureTierPolicy::kAuto);
  EXPECT_EQ(index.tier(0), WorldTier::kMaterialized);
  EXPECT_EQ(index.stats().closure_bytes, w0_bytes);
  for (uint32_t i = 1; i < index.num_worlds(); ++i) {
    EXPECT_NE(index.tier(i), WorldTier::kMaterialized) << "world " << i;
  }
  // One byte short: world 0 demotes (labels at best, never materialized).
  index.RebuildClosureTiersBytes(w0_bytes - 1, ClosureTierPolicy::kAuto);
  EXPECT_NE(index.tier(0), WorldTier::kMaterialized);
  EXPECT_LE(index.stats().closure_bytes + index.stats().label_bytes,
            w0_bytes - 1);
  // Budget 0 via the byte-granular path: all traversal.
  index.RebuildClosureTiersBytes(0, ClosureTierPolicy::kAuto);
  EXPECT_EQ(index.stats().worlds_traversal, index.num_worlds());
  EXPECT_EQ(index.stats().closure_bytes + index.stats().label_bytes, 0u);
}

TEST(ClosureBudgetTest, BudgetZeroRetainsNothingWithIdenticalAnswers) {
  const ProbGraph g = TestGraph(PropagationModel::kIndependentCascade);
  const CascadeIndex built =
      BuildIndex(g, PropagationModel::kIndependentCascade, true, 512, 16);
  ASSERT_TRUE(built.has_closure_cache());
  const CascadeIndex disabled =
      BuildIndex(g, PropagationModel::kIndependentCascade, true, 0, 16);
  EXPECT_FALSE(disabled.has_closure_cache());
  EXPECT_EQ(disabled.stats().closure_bytes, 0u);
  EXPECT_EQ(disabled.stats().worlds_traversal, disabled.num_worlds());

  CascadeIndex::Workspace ws;
  for (uint32_t i = 0; i < built.num_worlds(); ++i) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto a = disabled.Cascade(v, i, &ws).value();
      ASSERT_TRUE(std::ranges::equal(built.CachedCascade(v, i), a));
    }
  }
}

}  // namespace
}  // namespace soi
