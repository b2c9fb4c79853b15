#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/exact.h"
#include "cascade/simulate.h"
#include "cascade/world.h"
#include "util/rng.h"

namespace soi {
namespace {

// The probabilistic graph of the paper's Figure 1 / Example 1.
// v1..v5 map to node ids 0..4.
ProbGraph PaperExampleGraph() {
  ProbGraphBuilder b(5);
  EXPECT_TRUE(b.AddEdge(4, 0, 0.7).ok());  // (v5, v1)
  EXPECT_TRUE(b.AddEdge(4, 1, 0.4).ok());  // (v5, v2)
  EXPECT_TRUE(b.AddEdge(4, 3, 0.3).ok());  // (v5, v4)
  EXPECT_TRUE(b.AddEdge(0, 1, 0.1).ok());  // (v1, v2)
  EXPECT_TRUE(b.AddEdge(1, 0, 0.1).ok());  // (v2, v1)
  EXPECT_TRUE(b.AddEdge(1, 2, 0.4).ok());  // (v2, v3)
  EXPECT_TRUE(b.AddEdge(3, 1, 0.6).ok());  // (v4, v2)
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

ProbGraph LineGraph(double p01, double p12) {
  ProbGraphBuilder b(3);
  EXPECT_TRUE(b.AddEdge(0, 1, p01).ok());
  EXPECT_TRUE(b.AddEdge(1, 2, p12).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// ----------------------------------------------------------------- World ---

TEST(WorldTest, MaskRespectsExtremes) {
  ProbGraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, 1e-12).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const Csr world = SampleWorld(*g, &rng);
    EXPECT_EQ(world.Neighbors(0).size(), 1u);  // p = 1 edge always present
    EXPECT_TRUE(world.Neighbors(1).empty());   // p ~ 0 edge essentially never
  }
}

TEST(WorldTest, EdgeFrequencyMatchesProbability) {
  const ProbGraph g = PaperExampleGraph();
  Rng rng(2);
  const int trials = 20000;
  std::vector<int> present(g.num_edges(), 0);
  for (int i = 0; i < trials; ++i) {
    const Csr world = SampleWorld(g, &rng);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : world.Neighbors(u)) ++present[g.FindEdge(u, v).value()];
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NEAR(static_cast<double>(present[e]) / trials, g.EdgeProb(e), 0.015)
        << "edge " << e;
  }
}

// Keyed coins are one mix step over (world key, arc key), so related keys
// could give correlated coins. Arcs sharing a node, and one arc in
// consecutive worlds, must be jointly live at the product of their
// probabilities, within a 4σ binomial band.
TEST(WorldTest, KeyedCoinsAreIndependent) {
  ProbGraphBuilder b(6);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.3).ok());  // two arcs out of node 0
  ASSERT_TRUE(b.AddEdge(0, 2, 0.6).ok());
  ASSERT_TRUE(b.AddEdge(3, 5, 0.4).ok());  // two arcs into node 5
  ASSERT_TRUE(b.AddEdge(4, 5, 0.7).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const auto live = [](const Csr& world, NodeId u, NodeId v) {
    const auto nbrs = world.Neighbors(u);
    return std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end();
  };
  // World i draws from stream i of one family, as CascadeIndex::Build does.
  Rng master(12);
  const Rng streams = master.Fork();
  const int worlds = 20000;
  int out_pair = 0, in_pair = 0, consecutive = 0;
  bool prev_live = false;
  for (int i = 0; i < worlds; ++i) {
    Rng stream = streams.Fork(i);
    const Csr world = SampleWorld(*g, &stream);
    const bool a01 = live(world, 0, 1);
    out_pair += a01 && live(world, 0, 2);
    in_pair += live(world, 3, 5) && live(world, 4, 5);
    if (i > 0) consecutive += prev_live && a01;
    prev_live = a01;
  }
  const auto expect_within_band = [](int hits, int trials, double q,
                                     const char* what) {
    const double sigma = std::sqrt(q * (1.0 - q) / trials);
    EXPECT_NEAR(static_cast<double>(hits) / trials, q, 4.0 * sigma) << what;
  };
  expect_within_band(out_pair, worlds, 0.3 * 0.6, "arcs out of one node");
  expect_within_band(in_pair, worlds, 0.4 * 0.7, "arcs into one node");
  expect_within_band(consecutive, worlds - 1, 0.3 * 0.3,
                     "one arc in worlds i and i+1");
}

TEST(WorldTest, WorldFromMaskMatchesSampleWorldShape) {
  const ProbGraph g = PaperExampleGraph();
  BitVector mask(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); e += 2) mask.Set(e);
  const Csr world = WorldFromMask(g, mask);
  EXPECT_EQ(world.num_nodes(), g.num_nodes());
  EXPECT_EQ(world.num_edges(), mask.Count());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : world.Neighbors(u)) {
      EXPECT_TRUE(mask.Test(g.FindEdge(u, v).value()));
    }
  }
}

TEST(WorldTest, ReachableFromSingleNodeNoEdges) {
  ProbGraphBuilder b(3);
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Rng rng(4);
  const Csr world = SampleWorld(*g, &rng);
  const auto reach = ReachableFrom(world, 1);
  EXPECT_EQ(reach, std::vector<NodeId>{1});
}

TEST(WorldTest, ReachableFromSetIncludesAllSeeds) {
  const ProbGraph g = PaperExampleGraph();
  Rng rng(5);
  const Csr world = SampleWorld(g, &rng);
  const std::vector<NodeId> seeds = {0, 2};
  const auto reach = ReachableFromSet(world, seeds);
  EXPECT_TRUE(std::binary_search(reach.begin(), reach.end(), 0u));
  EXPECT_TRUE(std::binary_search(reach.begin(), reach.end(), 2u));
  EXPECT_TRUE(std::is_sorted(reach.begin(), reach.end()));
}

// -------------------------------------------------------------- Simulate ---

TEST(SimulateTest, SeedsActivateAtStepZero) {
  const ProbGraph g = PaperExampleGraph();
  Rng rng(6);
  const std::vector<NodeId> seeds = {4};
  const auto events = SimulateCascadeWithTimes(g, seeds, &rng);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].node, 4u);
  EXPECT_EQ(events[0].step, 0u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].step, events[i - 1].step);  // BFS order
    EXPECT_GE(events[i].step, 1u);
  }
}

TEST(SimulateTest, DeterministicGraphActivatesEverythingReachable) {
  const ProbGraph g = LineGraph(1.0, 1.0);
  Rng rng(7);
  const std::vector<NodeId> seeds = {0};
  const auto cascade = SimulateCascade(g, seeds, &rng);
  EXPECT_EQ(cascade, (std::vector<NodeId>{0, 1, 2}));
}

TEST(SimulateTest, CascadeDistributionMatchesLiveEdgeView) {
  // The direct IC simulation and reachability-in-sampled-world views must
  // induce the same cascade distribution (live-edge equivalence).
  const ProbGraph g = PaperExampleGraph();
  Rng rng_a(8), rng_b(9);
  const std::vector<NodeId> seeds = {4};
  std::map<std::vector<NodeId>, int> from_sim, from_world;
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) {
    from_sim[SimulateCascade(g, seeds, &rng_a)]++;
    const Csr world = SampleWorld(g, &rng_b);
    from_world[ReachableFromSet(world, seeds)]++;
  }
  // Compare frequencies of every observed cascade.
  for (const auto& [cascade, count] : from_sim) {
    const double fa = static_cast<double>(count) / trials;
    const double fb = static_cast<double>(from_world[cascade]) / trials;
    EXPECT_NEAR(fa, fb, 0.02);
  }
}

TEST(SimulateTest, EstimateSpreadLineGraph) {
  // sigma({0}) on 0 ->(p) 1 ->(q) 2 is 1 + p + pq.
  const ProbGraph g = LineGraph(0.5, 0.4);
  Rng rng(10);
  const std::vector<NodeId> seeds = {0};
  const double spread = EstimateSpread(g, seeds, 60000, &rng);
  EXPECT_NEAR(spread, 1.0 + 0.5 + 0.5 * 0.4, 0.02);
}

// ----------------------------------------------------------------- Exact ---

TEST(ExactTest, DistributionSumsToOne) {
  const ProbGraph g = PaperExampleGraph();
  const std::vector<NodeId> seeds = {4};
  const auto dist = ExactCascadeDistribution(g, seeds);
  ASSERT_TRUE(dist.ok());
  double total = 0.0;
  for (const auto& [cascade, prob] : *dist) total += prob;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ExactTest, PaperExampleOneProbabilities) {
  // Example 1 of the paper: P({v1}) = 0.2646, P({v2, v4}) = 0.036936,
  // P({v1, v3, v4}) = 0 for cascades from v5. Every cascade contains the
  // source v5 itself, so the sets below include node 4.
  const ProbGraph g = PaperExampleGraph();
  const std::vector<NodeId> seeds = {4};
  const auto dist = ExactCascadeDistribution(g, seeds);
  ASSERT_TRUE(dist.ok());
  std::map<std::vector<NodeId>, double> probs(dist->begin(), dist->end());
  EXPECT_NEAR((probs[{0, 4}]), 0.2646, 1e-9);         // {v1}
  EXPECT_NEAR((probs[{1, 3, 4}]), 0.036936, 1e-9);    // {v2, v4}
  EXPECT_EQ(probs.count({0, 2, 3, 4}), 0u);           // {v1, v3, v4}: null
}

TEST(ExactTest, ReliabilityLineGraph) {
  const ProbGraph g = LineGraph(0.5, 0.4);
  const auto rel = ExactReliability(g, 0, 2);
  ASSERT_TRUE(rel.ok());
  EXPECT_NEAR(*rel, 0.2, 1e-12);
  const auto rel01 = ExactReliability(g, 0, 1);
  ASSERT_TRUE(rel01.ok());
  EXPECT_NEAR(*rel01, 0.5, 1e-12);
}

TEST(ExactTest, ReliabilityTwoDisjointPaths) {
  // 0 -> 1 -> 3 and 0 -> 2 -> 3, all edges 0.5:
  // rel(0,3) = 1 - (1 - 0.25)^2 = 0.4375.
  ProbGraphBuilder b(4);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(b.AddEdge(1, 3, 0.5).ok());
  ASSERT_TRUE(b.AddEdge(0, 2, 0.5).ok());
  ASSERT_TRUE(b.AddEdge(2, 3, 0.5).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const auto rel = ExactReliability(*g, 0, 3);
  ASSERT_TRUE(rel.ok());
  EXPECT_NEAR(*rel, 0.4375, 1e-12);
}

TEST(ExactTest, ExpectedSpreadLineGraph) {
  const ProbGraph g = LineGraph(0.5, 0.4);
  const std::vector<NodeId> seeds = {0};
  const auto spread = ExactExpectedSpread(g, seeds);
  ASSERT_TRUE(spread.ok());
  EXPECT_NEAR(*spread, 1.7, 1e-12);
}

TEST(ExactTest, ExpectedCostOfPerfectCandidate) {
  // With all edges deterministic, the cascade is fixed; its cost is 0 and
  // any other candidate has positive cost.
  const ProbGraph g = LineGraph(1.0, 1.0);
  const std::vector<NodeId> seeds = {0};
  const std::vector<NodeId> full = {0, 1, 2};
  const auto cost = ExactExpectedCost(g, seeds, full);
  ASSERT_TRUE(cost.ok());
  EXPECT_NEAR(*cost, 0.0, 1e-12);
  const std::vector<NodeId> partial = {0};
  const auto cost2 = ExactExpectedCost(g, seeds, partial);
  ASSERT_TRUE(cost2.ok());
  EXPECT_NEAR(*cost2, 2.0 / 3.0, 1e-12);
}

TEST(ExactTest, ExpectedCostAgainstHandComputation) {
  // 0 ->(p) 1. Cascades: {0} w.p. 1-p, {0,1} w.p. p.
  // Candidate {0}: cost = p * (1 - 1/2) = p/2.
  ProbGraphBuilder b(2);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.3).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const std::vector<NodeId> seeds = {0};
  const std::vector<NodeId> cand = {0};
  const auto cost = ExactExpectedCost(*g, seeds, cand);
  ASSERT_TRUE(cost.ok());
  EXPECT_NEAR(*cost, 0.15, 1e-12);
}

TEST(ExactTest, RejectsTooManyEdges) {
  Rng rng(11);
  ProbGraphBuilder b(30);
  for (NodeId i = 0; i + 1 < 30; ++i) {
    ASSERT_TRUE(b.AddEdge(i, i + 1, 0.5).ok());
  }
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const std::vector<NodeId> seeds = {0};
  EXPECT_EQ(ExactExpectedSpread(*g, seeds).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExactTest, RejectsBadSeeds) {
  const ProbGraph g = LineGraph(0.5, 0.5);
  const std::vector<NodeId> empty;
  EXPECT_FALSE(ExactExpectedSpread(g, empty).ok());
  const std::vector<NodeId> bad = {99};
  EXPECT_EQ(ExactExpectedSpread(g, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExactTest, TypicalCascadeDeterministicGraph) {
  const ProbGraph g = LineGraph(1.0, 1.0);
  const std::vector<NodeId> seeds = {0};
  const auto result = ExactTypicalCascade(g, seeds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->first, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_NEAR(result->second, 0.0, 1e-12);
}

TEST(ExactTest, TypicalCascadeMajorityBehavior) {
  // 0 ->(0.9) 1: cascades {0,1} w.p. 0.9, {0} w.p. 0.1.
  // cost({0,1}) = 0.1 * 0.5 = 0.05; cost({0}) = 0.9 * 0.5 = 0.45.
  ProbGraphBuilder b(2);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.9).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const std::vector<NodeId> seeds = {0};
  const auto result = ExactTypicalCascade(*g, seeds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->first, (std::vector<NodeId>{0, 1}));
  EXPECT_NEAR(result->second, 0.05, 1e-12);
}

// ------------------------------------------- Theorem 1 reduction (#P) ------

TEST(ExactTest, TheoremOneReductionRecoversReliability) {
  // Verifies the paper's #P-hardness gadget numerically: build G' from G by
  // adding probability-1 arcs from t to every other node; then
  //   rel(G,s,t) = (1 - n*rho_{G',s}(V) + (n-1)*rho_{G',s}(V\{t}))
  //                / (2 - 1/n).
  // Note: the paper's printed formula carries an extra "-1/n" in the
  // numerator; re-deriving from its own intermediate identity
  //   n*rho(H1) - (n-1)*rho(H2) = q*(2 - 1/n) - 1 + 1/n
  // gives the version above (the printed one is off by exactly 1/(2n-1),
  // which this test exposes empirically).
  Rng rng(12);
  for (int trial = 0; trial < 6; ++trial) {
    // Random small graph.
    const NodeId n = 5;
    ProbGraphBuilder builder(n);
    int added = 0;
    for (NodeId u = 0; u < n && added < 7; ++u) {
      for (NodeId v = 0; v < n && added < 7; ++v) {
        if (u == v) continue;
        if (rng.NextBernoulli(0.4)) {
          ASSERT_TRUE(builder.AddEdge(u, v, 0.2 + 0.6 * rng.NextDouble()).ok());
          ++added;
        }
      }
    }
    const auto g = builder.Build();
    ASSERT_TRUE(g.ok());
    const NodeId s = 0, t = n - 1;

    // G': add (t, v) arcs with probability 1 (keep_max overrides existing).
    ProbGraphBuilder gp_builder(n);
    gp_builder.keep_max_duplicate(true);
    for (const ProbEdge& e : g->Edges()) {
      ASSERT_TRUE(gp_builder.AddEdge(e.src, e.dst, e.prob).ok());
    }
    for (NodeId v = 0; v < n; ++v) {
      if (v != t) {
        ASSERT_TRUE(gp_builder.AddEdge(t, v, 1.0).ok());
      }
    }
    const auto gp = gp_builder.Build();
    ASSERT_TRUE(gp.ok());
    if (gp->num_edges() > kMaxExactEdges) continue;

    std::vector<NodeId> h1(n), h2;
    for (NodeId v = 0; v < n; ++v) {
      h1[v] = v;
      if (v != t) h2.push_back(v);
    }
    const std::vector<NodeId> seeds = {s};
    const auto rho1 = ExactExpectedCost(*gp, seeds, h1);
    const auto rho2 = ExactExpectedCost(*gp, seeds, h2);
    const auto rel = ExactReliability(*g, s, t);
    ASSERT_TRUE(rho1.ok());
    ASSERT_TRUE(rho2.ok());
    ASSERT_TRUE(rel.ok());

    const double nd = n;
    const double recovered =
        (1.0 - nd * (*rho1) + (nd - 1.0) * (*rho2)) / (2.0 - 1.0 / nd);
    EXPECT_NEAR(recovered, *rel, 1e-9) << "trial " << trial;
  }
}

// Monte-Carlo estimates converge to the exact values.
TEST(ExactTest, MonteCarloSpreadConvergesToExact) {
  const ProbGraph g = PaperExampleGraph();
  const std::vector<NodeId> seeds = {4};
  const auto exact = ExactExpectedSpread(g, seeds);
  ASSERT_TRUE(exact.ok());
  Rng rng(13);
  const double mc = EstimateSpread(g, seeds, 60000, &rng);
  EXPECT_NEAR(mc, *exact, 0.03);
}

}  // namespace
}  // namespace soi
