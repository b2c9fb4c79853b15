#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/threshold.h"
#include "cascade/world.h"
#include "core/typical_cascade.h"
#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "index/cascade_index.h"
#include "util/rng.h"

namespace soi {
namespace {

// 3-node LT instance with in-weight sums strictly below 1.
ProbGraph SmallLtGraph() {
  ProbGraphBuilder b(3);
  EXPECT_TRUE(b.AddEdge(0, 1, 0.4).ok());
  EXPECT_TRUE(b.AddEdge(2, 1, 0.3).ok());
  EXPECT_TRUE(b.AddEdge(0, 2, 0.5).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(LtValidateTest, AcceptsLegalWeights) {
  EXPECT_TRUE(ValidateLtWeights(SmallLtGraph()).ok());
}

TEST(LtValidateTest, RejectsOverweightNode) {
  ProbGraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.8).ok());
  ASSERT_TRUE(b.AddEdge(2, 1, 0.7).ok());  // sums to 1.5 at node 1
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(ValidateLtWeights(*g).code(), StatusCode::kFailedPrecondition);
}

TEST(LtNormalizeTest, ScalesOnlyOverweightNodes) {
  ProbGraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.8).ok());
  ASSERT_TRUE(b.AddEdge(2, 1, 0.7).ok());
  ASSERT_TRUE(b.AddEdge(0, 2, 0.5).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const auto normalized = NormalizeLtWeights(*g);
  ASSERT_TRUE(normalized.ok());
  EXPECT_TRUE(ValidateLtWeights(*normalized).ok());
  // Node 1's weights scaled by 1/1.5; node 2's untouched.
  EXPECT_NEAR(normalized->EdgeProb(normalized->FindEdge(0, 1).value()),
              0.8 / 1.5, 1e-12);
  EXPECT_NEAR(normalized->EdgeProb(normalized->FindEdge(2, 1).value()),
              0.7 / 1.5, 1e-12);
  EXPECT_DOUBLE_EQ(normalized->EdgeProb(normalized->FindEdge(0, 2).value()),
                   0.5);
  EXPECT_FALSE(NormalizeLtWeights(*g, 0.0).ok());
}

TEST(LtWorldTest, AtMostOneInEdgePerNode) {
  const ProbGraph g = SmallLtGraph();
  const auto sampler = LtWorldSampler::Create(g);
  ASSERT_TRUE(sampler.ok());
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const Csr world = sampler->Sample(&rng);
    std::vector<int> in_count(3, 0);
    for (NodeId u = 0; u < 3; ++u) {
      for (NodeId v : world.Neighbors(u)) ++in_count[v];
    }
    for (int c : in_count) EXPECT_LE(c, 1);
  }
}

TEST(LtWorldTest, EdgeFrequenciesMatchWeights) {
  const ProbGraph g = SmallLtGraph();
  const auto sampler = LtWorldSampler::Create(g);
  ASSERT_TRUE(sampler.ok());
  Rng rng(2);
  const int trials = 30000;
  std::map<std::pair<NodeId, NodeId>, int> freq;
  for (int t = 0; t < trials; ++t) {
    const Csr world = sampler->Sample(&rng);
    for (NodeId u = 0; u < 3; ++u) {
      for (NodeId v : world.Neighbors(u)) ++freq[{u, v}];
    }
  }
  EXPECT_NEAR((freq[{0, 1}] / double(trials)), 0.4, 0.01);
  EXPECT_NEAR((freq[{2, 1}] / double(trials)), 0.3, 0.01);
  EXPECT_NEAR((freq[{0, 2}] / double(trials)), 0.5, 0.01);
}

TEST(LtSimulateTest, SeedsAlwaysActive) {
  const ProbGraph g = SmallLtGraph();
  Rng rng(4);
  const std::vector<NodeId> seeds = {1};
  const auto cascade = SimulateLtCascade(g, seeds, &rng);
  ASSERT_TRUE(cascade.ok());
  EXPECT_TRUE(std::binary_search(cascade->begin(), cascade->end(), 1u));
}

TEST(LtSimulateTest, RejectsBadInputs) {
  const ProbGraph g = SmallLtGraph();
  Rng rng(5);
  const std::vector<NodeId> empty;
  EXPECT_FALSE(SimulateLtCascade(g, empty, &rng).ok());
  const std::vector<NodeId> bad = {9};
  EXPECT_FALSE(SimulateLtCascade(g, bad, &rng).ok());
}

// KKT live-edge equivalence: direct threshold simulation and reachability in
// one-in-edge sampled worlds induce the same cascade distribution.
TEST(LtEquivalenceTest, SimulationMatchesLiveEdgeView) {
  const ProbGraph g = SmallLtGraph();
  const auto sampler = LtWorldSampler::Create(g);
  ASSERT_TRUE(sampler.ok());
  Rng rng_a(6), rng_b(7);
  const std::vector<NodeId> seeds = {0};
  std::map<std::vector<NodeId>, int> from_sim, from_world;
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    const auto sim = SimulateLtCascade(g, seeds, &rng_a);
    ASSERT_TRUE(sim.ok());
    ++from_sim[*sim];
    ++from_world[ReachableFromSet(sampler->Sample(&rng_b), seeds)];
  }
  for (const auto& [cascade, count] : from_sim) {
    const double fa = count / double(trials);
    const double fb = from_world[cascade] / double(trials);
    EXPECT_NEAR(fa, fb, 0.015);
  }
}

TEST(LtSpreadTest, HandComputedLineGraph) {
  // 0 ->(w) 1: LT from {0} activates 1 iff threshold <= w, so spread is
  // 1 + w.
  ProbGraphBuilder b(2);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.35).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Rng rng(8);
  const std::vector<NodeId> seeds = {0};
  const auto spread = EstimateLtSpread(*g, seeds, 40000, &rng);
  ASSERT_TRUE(spread.ok());
  EXPECT_NEAR(*spread, 1.35, 0.01);
}

// The whole typical-cascade pipeline works under LT via the index.
TEST(LtIndexTest, TypicalCascadeUnderLt) {
  Rng gen_rng(9);
  auto topo = GenerateErdosRenyi(60, 180, false, &gen_rng);
  ASSERT_TRUE(topo.ok());
  Rng assign_rng(10);
  auto weighted = AssignUniform(*topo, &assign_rng, 0.1, 0.5);
  ASSERT_TRUE(weighted.ok());
  const auto g = NormalizeLtWeights(*weighted, 0.9);
  ASSERT_TRUE(g.ok());

  CascadeIndexOptions options;
  options.num_worlds = 128;
  options.model = PropagationModel::kLinearThreshold;
  Rng rng(11);
  const auto index = CascadeIndex::Build(*g, options, &rng);
  ASSERT_TRUE(index.ok());

  TypicalCascadeComputer computer(&*index);
  const auto sphere = computer.Compute(0);
  ASSERT_TRUE(sphere.ok());
  EXPECT_TRUE(std::binary_search(sphere->cascade.begin(),
                                 sphere->cascade.end(), 0u));
  // Index cascade sizes must match LT spread statistically.
  CascadeIndex::Workspace ws;
  double index_mean = 0.0;
  for (uint32_t i = 0; i < index->num_worlds(); ++i) {
    index_mean +=
        static_cast<double>(index->CascadeSize(NodeId{0}, i, &ws).value());
  }
  index_mean /= index->num_worlds();
  Rng eval_rng(12);
  const std::vector<NodeId> seeds = {0};
  const auto direct = EstimateLtSpread(*g, seeds, 4000, &eval_rng);
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(index_mean, *direct, std::max(0.5, 0.25 * *direct));
}

TEST(LtIndexTest, RejectsOverweightGraph) {
  ProbGraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(b.AddEdge(2, 1, 0.9).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  CascadeIndexOptions options;
  options.num_worlds = 4;
  options.model = PropagationModel::kLinearThreshold;
  Rng rng(13);
  EXPECT_EQ(CascadeIndex::Build(*g, options, &rng).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace soi
