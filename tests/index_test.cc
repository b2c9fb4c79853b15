#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/exact.h"
#include "cascade/simulate.h"
#include "core/typical_cascade.h"
#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "index/cascade_index.h"
#include "util/rng.h"

namespace soi {
namespace {

ProbGraph PaperExampleGraph() {
  ProbGraphBuilder b(5);
  EXPECT_TRUE(b.AddEdge(4, 0, 0.7).ok());
  EXPECT_TRUE(b.AddEdge(4, 1, 0.4).ok());
  EXPECT_TRUE(b.AddEdge(4, 3, 0.3).ok());
  EXPECT_TRUE(b.AddEdge(0, 1, 0.1).ok());
  EXPECT_TRUE(b.AddEdge(1, 0, 0.1).ok());
  EXPECT_TRUE(b.AddEdge(1, 2, 0.4).ok());
  EXPECT_TRUE(b.AddEdge(3, 1, 0.6).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

CascadeIndex BuildIndex(const ProbGraph& g, uint32_t worlds, uint64_t seed,
                        bool reduction = true) {
  CascadeIndexOptions options;
  options.num_worlds = worlds;
  options.transitive_reduction = reduction;
  Rng rng(seed);
  auto index = CascadeIndex::Build(g, options, &rng);
  EXPECT_TRUE(index.ok());
  return std::move(index).value();
}

TEST(CascadeIndexTest, RejectsBadArgs) {
  const ProbGraph g = PaperExampleGraph();
  Rng rng(1);
  CascadeIndexOptions options;
  options.num_worlds = 0;
  EXPECT_FALSE(CascadeIndex::Build(g, options, &rng).ok());
  ProbGraphBuilder empty(0);
  const auto eg = empty.Build();
  ASSERT_TRUE(eg.ok());
  options.num_worlds = 4;
  EXPECT_FALSE(CascadeIndex::Build(*eg, options, &rng).ok());
}

TEST(CascadeIndexTest, BasicShape) {
  const ProbGraph g = PaperExampleGraph();
  const CascadeIndex index = BuildIndex(g, 16, 2);
  EXPECT_EQ(index.num_worlds(), 16u);
  EXPECT_EQ(index.num_nodes(), 5u);
  EXPECT_GT(index.stats().avg_components, 0.0);
  EXPECT_GT(index.stats().approx_bytes, 0u);
  EXPECT_LE(index.stats().avg_dag_edges_after,
            index.stats().avg_dag_edges_before);
}

TEST(CascadeIndexTest, CascadeContainsSource) {
  const ProbGraph g = PaperExampleGraph();
  const CascadeIndex index = BuildIndex(g, 32, 3);
  CascadeIndex::Workspace ws;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (uint32_t i = 0; i < index.num_worlds(); ++i) {
      const auto cascade = index.Cascade(v, i, &ws).value();
      EXPECT_TRUE(std::binary_search(cascade.begin(), cascade.end(), v));
      EXPECT_TRUE(std::is_sorted(cascade.begin(), cascade.end()));
    }
  }
}

TEST(CascadeIndexTest, CascadeSizeMatchesMaterialized) {
  const ProbGraph g = PaperExampleGraph();
  const CascadeIndex index = BuildIndex(g, 32, 4);
  CascadeIndex::Workspace ws;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (uint32_t i = 0; i < index.num_worlds(); ++i) {
      EXPECT_EQ(index.CascadeSize(v, i, &ws).value(),
                index.Cascade(v, i, &ws).value().size());
    }
  }
}

TEST(CascadeIndexTest, SeedSetCascadeIsUnionOfSingletons) {
  const ProbGraph g = PaperExampleGraph();
  const CascadeIndex index = BuildIndex(g, 16, 5);
  CascadeIndex::Workspace ws;
  const std::vector<NodeId> seeds = {0, 3};
  for (uint32_t i = 0; i < index.num_worlds(); ++i) {
    const auto joint = index.Cascade(seeds, i, &ws).value();
    auto a = index.Cascade(NodeId{0}, i, &ws).value();
    const auto b = index.Cascade(NodeId{3}, i, &ws).value();
    a.insert(a.end(), b.begin(), b.end());
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    EXPECT_EQ(joint, a);
  }
}

TEST(CascadeIndexTest, DeterministicForSameSeed) {
  const ProbGraph g = PaperExampleGraph();
  const CascadeIndex a = BuildIndex(g, 8, 7);
  const CascadeIndex b = BuildIndex(g, 8, 7);
  CascadeIndex::Workspace wa, wb;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (uint32_t i = 0; i < 8; ++i) {
      EXPECT_EQ(a.Cascade(v, i, &wa).value(), b.Cascade(v, i, &wb).value());
    }
  }
}

TEST(CascadeIndexTest, ReductionDoesNotChangeCascades) {
  const ProbGraph g = PaperExampleGraph();
  const CascadeIndex reduced = BuildIndex(g, 16, 8, /*reduction=*/true);
  const CascadeIndex plain = BuildIndex(g, 16, 8, /*reduction=*/false);
  CascadeIndex::Workspace wr, wp;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (uint32_t i = 0; i < 16; ++i) {
      EXPECT_EQ(reduced.Cascade(v, i, &wr).value(),
                plain.Cascade(v, i, &wp).value());
    }
  }

  // The reduction is off by default because it only drops arcs: on a budget
  // that splits the worlds between closures and labels, every tier, every
  // closure and label byte and the typical table stay the same.
  Rng gen_rng(17);
  auto topo = GenerateRmat(10, 6000, {}, &gen_rng);
  ASSERT_TRUE(topo.ok());
  Rng assign_rng(18);
  const auto dense = AssignUniform(*topo, &assign_rng, 0.2, 0.5);
  ASSERT_TRUE(dense.ok());
  auto build_mixed = [&](bool reduction) {
    CascadeIndexOptions options;
    options.num_worlds = 16;
    options.transitive_reduction = reduction;
    options.closure_budget_mb = 1;
    options.tier_policy = ClosureTierPolicy::kAuto;
    Rng rng(19);
    auto index = CascadeIndex::Build(*dense, options, &rng);
    EXPECT_TRUE(index.ok());
    return std::move(index).value();
  };
  const CascadeIndex mixed_reduced = build_mixed(true);
  const CascadeIndex mixed_plain = build_mixed(false);
  ASSERT_GT(mixed_plain.stats().worlds_materialized, 0u);
  ASSERT_GT(mixed_plain.stats().worlds_labeled, 0u);
  uint64_t arcs_reduced = 0;
  uint64_t arcs_plain = 0;
  for (uint32_t i = 0; i < mixed_plain.num_worlds(); ++i) {
    arcs_reduced += mixed_reduced.world(i).num_dag_edges();
    arcs_plain += mixed_plain.world(i).num_dag_edges();
    ASSERT_EQ(mixed_reduced.tier(i), mixed_plain.tier(i)) << "world " << i;
    if (mixed_plain.tier(i) == WorldTier::kMaterialized) {
      const ReachabilityClosure& a = mixed_reduced.closure(i);
      const ReachabilityClosure& b = mixed_plain.closure(i);
      EXPECT_TRUE(std::ranges::equal(a.comp_offsets_view(),
                                     b.comp_offsets_view()));
      EXPECT_TRUE(std::ranges::equal(a.comps_view(), b.comps_view()));
      EXPECT_TRUE(std::ranges::equal(a.node_offsets_view(),
                                     b.node_offsets_view()));
      EXPECT_TRUE(std::ranges::equal(a.nodes_view(), b.nodes_view()));
    } else if (mixed_plain.tier(i) == WorldTier::kLabels) {
      const ReachLabels& a = mixed_reduced.labels(i);
      const ReachLabels& b = mixed_plain.labels(i);
      EXPECT_TRUE(std::ranges::equal(a.offsets_view(), b.offsets_view()));
      EXPECT_TRUE(std::ranges::equal(a.bounds_view(), b.bounds_view()));
      EXPECT_TRUE(std::ranges::equal(a.reach_nodes_view(),
                                     b.reach_nodes_view()));
    }
  }
  // Otherwise the comparison above says nothing about the reduction.
  EXPECT_LT(arcs_reduced, arcs_plain);
  EXPECT_EQ(mixed_reduced.stats().closure_bytes,
            mixed_plain.stats().closure_bytes);
  EXPECT_EQ(mixed_reduced.stats().label_bytes, mixed_plain.stats().label_bytes);

  auto sweep_reduced = TypicalCascadeComputer(&mixed_reduced).ComputeAllFlat();
  auto sweep_plain = TypicalCascadeComputer(&mixed_plain).ComputeAllFlat();
  ASSERT_TRUE(sweep_reduced.ok());
  ASSERT_TRUE(sweep_plain.ok());
  EXPECT_TRUE(sweep_reduced->cascades == sweep_plain->cascades);
  EXPECT_EQ(sweep_reduced->in_sample_cost, sweep_plain->in_sample_cost);
  EXPECT_EQ(sweep_reduced->mean_sample_size, sweep_plain->mean_sample_size);
  EXPECT_EQ(sweep_reduced->median_source, sweep_plain->median_source);
}

TEST(CascadeIndexTest, AllCascadesShape) {
  const ProbGraph g = PaperExampleGraph();
  const CascadeIndex index = BuildIndex(g, 24, 9);
  CascadeIndex::Workspace ws;
  const auto all = index.AllCascades(NodeId{4}, &ws).value();
  ASSERT_EQ(all.size(), 24u);
  for (uint32_t i = 0; i < 24; ++i) {
    EXPECT_EQ(all[i], index.Cascade(NodeId{4}, i, &ws).value());
  }
}

// Statistical: the cascade-size distribution from the index must match the
// exact expected spread (live-edge equivalence through the whole pipeline).
TEST(CascadeIndexTest, MeanCascadeSizeMatchesExactSpread) {
  const ProbGraph g = PaperExampleGraph();
  const std::vector<NodeId> seeds = {4};
  const auto exact = ExactExpectedSpread(g, seeds);
  ASSERT_TRUE(exact.ok());
  const CascadeIndex index = BuildIndex(g, 20000, 10);
  CascadeIndex::Workspace ws;
  double total = 0.0;
  for (uint32_t i = 0; i < index.num_worlds(); ++i) {
    total += static_cast<double>(index.CascadeSize(NodeId{4}, i, &ws).value());
  }
  EXPECT_NEAR(total / index.num_worlds(), *exact, 0.03);
}

// Cross-check against an independent per-world reference on a larger random
// graph: build a single world with the same RNG stream and compare cascades.
TEST(CascadeIndexTest, LargerGraphSmokeAndInvariants) {
  Rng gen_rng(11);
  auto topo = GenerateRmat(9, 2000, {}, &gen_rng);
  ASSERT_TRUE(topo.ok());
  Rng assign_rng(12);
  const auto g = AssignUniform(*topo, &assign_rng, 0.05, 0.3);
  ASSERT_TRUE(g.ok());
  const CascadeIndex index = BuildIndex(*g, 8, 13);
  CascadeIndex::Workspace ws;
  // Invariants: cascades sorted, contain source, sizes consistent, and
  // cascade of v is a superset of {v} union out-neighbors present in world.
  for (NodeId v = 0; v < g->num_nodes(); v += 37) {
    for (uint32_t i = 0; i < index.num_worlds(); ++i) {
      const auto cascade = index.Cascade(v, i, &ws).value();
      EXPECT_TRUE(std::is_sorted(cascade.begin(), cascade.end()));
      EXPECT_TRUE(std::binary_search(cascade.begin(), cascade.end(), v));
      // Everything in the cascade of v must have its own cascade contained
      // in v's cascade (reachability transitivity).
      if (!cascade.empty()) {
        const NodeId w = cascade[cascade.size() / 2];
        const auto sub = index.Cascade(w, i, &ws).value();
        EXPECT_TRUE(std::includes(cascade.begin(), cascade.end(),
                                  sub.begin(), sub.end()));
      }
    }
  }
}

}  // namespace
}  // namespace soi
