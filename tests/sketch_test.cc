#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/threshold.h"
#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "index/cascade_index.h"
#include "infmax/sketch_oracle.h"
#include "infmax/spread_estimator.h"
#include "infmax/spread_oracle.h"
#include "reference_sketch.h"
#include "reliability/reliability.h"
#include "runtime/parallel_for.h"
#include "util/rng.h"

namespace soi {
namespace {

ProbGraph RandomTestGraph(NodeId n, uint64_t m, uint64_t seed) {
  Rng gen_rng(seed);
  auto topo = GenerateErdosRenyi(n, m, false, &gen_rng);
  EXPECT_TRUE(topo.ok());
  Rng assign_rng(seed + 1);
  auto g = AssignUniform(*topo, &assign_rng, 0.1, 0.4);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

CascadeIndex BuildIndex(const ProbGraph& g, uint32_t worlds, uint64_t seed) {
  CascadeIndexOptions options;
  options.num_worlds = worlds;
  Rng rng(seed);
  auto index = CascadeIndex::Build(g, options, &rng);
  EXPECT_TRUE(index.ok());
  return std::move(index).value();
}

TEST(SketchOracleTest, RejectsBadArgs) {
  const ProbGraph g = RandomTestGraph(20, 60, 1);
  const CascadeIndex index = BuildIndex(g, 8, 2);
  Rng rng(3);
  SketchOptions options;
  options.k = 1;
  EXPECT_FALSE(SketchSpreadOracle::Build(index, options, &rng).ok());
  options.k = 8;
  const auto oracle = SketchSpreadOracle::Build(index, options, &rng);
  ASSERT_TRUE(oracle.ok());
  const std::vector<NodeId> empty;
  EXPECT_FALSE(oracle->EstimateSpread(empty).ok());
  const std::vector<NodeId> bad = {99};
  EXPECT_FALSE(oracle->EstimateSpread(bad).ok());
}

TEST(SketchOracleTest, SmallReachableSetsAreExact) {
  // With k larger than every reachable set, sketches are exhaustive and the
  // estimate equals the exact per-world mean (SpreadOracle's value).
  const ProbGraph g = RandomTestGraph(30, 60, 4);
  const CascadeIndex index = BuildIndex(g, 16, 5);
  Rng rng(6);
  SketchOptions options;
  options.k = 64;  // > n, so never truncates
  const auto oracle = SketchSpreadOracle::Build(index, options, &rng);
  ASSERT_TRUE(oracle.ok());
  SpreadOracle exact(&index);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(oracle->EstimateSpread(v), exact.MarginalGain(v), 1e-9)
        << "node " << v;
  }
}

TEST(SketchOracleTest, EstimatesWithinRelativeError) {
  const ProbGraph g = RandomTestGraph(300, 1500, 7);
  const CascadeIndex index = BuildIndex(g, 32, 8);
  Rng rng(9);
  SketchOptions options;
  options.k = 64;
  const auto oracle = SketchSpreadOracle::Build(index, options, &rng);
  ASSERT_TRUE(oracle.ok());
  SpreadOracle exact(&index);
  // Aggregate relative error over a node sample must be small
  // (~1/sqrt(k-2) per world, further averaged over worlds and nodes).
  double total_rel_err = 0.0;
  int count = 0;
  for (NodeId v = 0; v < g.num_nodes(); v += 7) {
    const double truth = exact.MarginalGain(v);
    if (truth < 5.0) continue;  // skip tiny sets (exact there anyway)
    const double est = oracle->EstimateSpread(v);
    total_rel_err += std::abs(est - truth) / truth;
    ++count;
  }
  ASSERT_GT(count, 5);
  EXPECT_LT(total_rel_err / count, 0.15);
}

TEST(SketchOracleTest, SeedSetMonotoneAndSubadditive) {
  const ProbGraph g = RandomTestGraph(100, 400, 10);
  const CascadeIndex index = BuildIndex(g, 16, 11);
  Rng rng(12);
  SketchOptions options;
  options.k = 32;
  const auto oracle = SketchSpreadOracle::Build(index, options, &rng);
  ASSERT_TRUE(oracle.ok());
  const std::vector<NodeId> one = {5};
  const std::vector<NodeId> two = {5, 40};
  const auto s1 = oracle->EstimateSpread(one);
  const auto s2 = oracle->EstimateSpread(two);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_GE(*s2, *s1 - 1e-9);  // monotone
  EXPECT_LE(*s2,
            *s1 + oracle->EstimateSpread(40) + 1e-9);  // subadditive
}

TEST(SketchOracleTest, DeterministicGivenSeed) {
  const ProbGraph g = RandomTestGraph(50, 200, 13);
  const CascadeIndex index = BuildIndex(g, 8, 14);
  SketchOptions options;
  options.k = 16;
  Rng ra(15), rb(15);
  const auto a = SketchSpreadOracle::Build(index, options, &ra);
  const auto b = SketchSpreadOracle::Build(index, options, &rb);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (NodeId v = 0; v < g.num_nodes(); v += 5) {
    EXPECT_DOUBLE_EQ(a->EstimateSpread(v), b->EstimateSpread(v));
  }
}

TEST(SketchOracleTest, SketchesBoundedByK) {
  const ProbGraph g = RandomTestGraph(200, 1000, 16);
  const CascadeIndex index = BuildIndex(g, 8, 17);
  Rng rng(18);
  SketchOptions options;
  options.k = 8;
  const auto oracle = SketchSpreadOracle::Build(index, options, &rng);
  ASSERT_TRUE(oracle.ok());
  // Total storage <= worlds * components * k.
  uint64_t total_comps = 0;
  for (uint32_t i = 0; i < index.num_worlds(); ++i) {
    total_comps += index.world(i).num_components();
  }
  EXPECT_LE(oracle->total_sketch_entries(), total_comps * options.k);
}

TEST(SketchOracleTest, SmallKRejectedWithErrorBoundExplanation) {
  const ProbGraph g = RandomTestGraph(20, 60, 1);
  const CascadeIndex index = BuildIndex(g, 4, 2);
  for (uint32_t k : {1u, 2u}) {
    const auto built = SketchSpreadOracle::BuildDeterministic(index, k, 7);
    ASSERT_FALSE(built.ok()) << "k=" << k;
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    // The message must name the undefined 1/sqrt(k-2) bound, not just "bad k".
    EXPECT_NE(built.status().ToString().find("1/sqrt(k-2)"), std::string::npos)
        << built.status().ToString();
  }
  EXPECT_TRUE(SketchSpreadOracle::BuildDeterministic(index, 3, 7).ok());
}

TEST(SketchOracleTest, RelativeErrorBoundFormula) {
  EXPECT_DOUBLE_EQ(SketchSpreadOracle::RelativeErrorBound(3), 1.0);
  EXPECT_DOUBLE_EQ(SketchSpreadOracle::RelativeErrorBound(6),
                   1.0 / std::sqrt(4.0));
  EXPECT_DOUBLE_EQ(SketchSpreadOracle::RelativeErrorBound(66),
                   1.0 / std::sqrt(64.0));
  // Degenerate k (never buildable) clamps to 1 instead of dividing by <= 0.
  EXPECT_DOUBLE_EQ(SketchSpreadOracle::RelativeErrorBound(2), 1.0);
}

TEST(SketchOracleTest, BuildDeterministicIsAPureFunctionOfSeed) {
  const ProbGraph g = RandomTestGraph(60, 240, 19);
  const CascadeIndex index = BuildIndex(g, 8, 20);
  const auto a = SketchSpreadOracle::BuildDeterministic(index, 16, 42);
  const auto b = SketchSpreadOracle::BuildDeterministic(index, 16, 42);
  const auto c = SketchSpreadOracle::BuildDeterministic(index, 16, 43);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->salt(), b->salt());
  ASSERT_EQ(a->entries_view().size(), b->entries_view().size());
  EXPECT_TRUE(std::equal(a->entries_view().begin(), a->entries_view().end(),
                         b->entries_view().begin()));
  EXPECT_TRUE(std::equal(a->offsets_view().begin(), a->offsets_view().end(),
                         b->offsets_view().begin()));
  EXPECT_NE(a->salt(), c->salt());  // different seed, different ranks
}

TEST(SketchOracleTest, FromPartsRoundTripsEveryEstimate) {
  const ProbGraph g = RandomTestGraph(80, 320, 21);
  const CascadeIndex index = BuildIndex(g, 8, 22);
  const auto built = SketchSpreadOracle::BuildDeterministic(index, 16, 5);
  ASSERT_TRUE(built.ok());
  SketchParts parts;
  parts.k = built->sketch_k();
  parts.salt = built->salt();
  parts.offsets = built->offsets_view();
  parts.entries = built->entries_view();
  const auto adopted = SketchSpreadOracle::FromParts(&index, parts);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  for (NodeId v = 0; v < g.num_nodes(); v += 3) {
    EXPECT_DOUBLE_EQ(built->EstimateSpread(v), adopted->EstimateSpread(v));
  }
  const auto sel_a = built->SelectSeeds(4);
  const auto sel_b = adopted->SelectSeeds(4);
  ASSERT_TRUE(sel_a.ok());
  ASSERT_TRUE(sel_b.ok());
  EXPECT_EQ(sel_a->seeds, sel_b->seeds);
}

TEST(SketchOracleTest, FromPartsRejectsCorruptTables) {
  const ProbGraph g = RandomTestGraph(40, 160, 23);
  const CascadeIndex index = BuildIndex(g, 4, 24);
  const auto built = SketchSpreadOracle::BuildDeterministic(index, 8, 5);
  ASSERT_TRUE(built.ok());
  SketchParts good;
  good.k = built->sketch_k();
  good.salt = built->salt();
  good.offsets = built->offsets_view();
  good.entries = built->entries_view();

  SketchParts bad_k = good;
  bad_k.k = 2;
  EXPECT_FALSE(SketchSpreadOracle::FromParts(&index, bad_k).ok());

  // Offsets table sized for a different index (drop one world's table).
  SketchParts short_offsets = good;
  short_offsets.offsets = good.offsets.subspan(0, good.offsets.size() - 1);
  EXPECT_FALSE(SketchSpreadOracle::FromParts(&index, short_offsets).ok());

  // Final offset no longer covering the entries pool.
  std::vector<uint64_t> truncated(good.entries.begin(),
                                  good.entries.end() - 1);
  SketchParts short_entries = good;
  short_entries.entries = truncated;
  EXPECT_FALSE(SketchSpreadOracle::FromParts(&index, short_entries).ok());

  // Non-monotone offsets inside world 0's table. FromParts checks only the
  // per-world extents, so the oracle is built; world 0 fails on first use,
  // keeps failing, and the other worlds check clean.
  ASSERT_GT(index.world(0).num_components(), 2u);
  std::vector<uint64_t> swapped(good.offsets.begin(), good.offsets.end());
  std::swap(swapped[1], swapped[2]);
  swapped[1] = swapped[2] + good.k + 1;  // also violates run <= k
  SketchParts bad_offsets = good;
  bad_offsets.offsets = swapped;
  const auto lazy = SketchSpreadOracle::FromParts(&index, bad_offsets);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  const NodeId seed[1] = {0};
  const auto first = lazy->EstimateSpread(seed);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(first.status().ToString().find("world 0 sketch offsets"),
            std::string::npos)
      << first.status().ToString();
  const auto second = lazy->SelectSeeds(1);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().ToString(), first.status().ToString());
  for (uint32_t w = 1; w < index.num_worlds(); ++w) {
    EXPECT_TRUE(lazy->PrepareWorld(w).ok()) << "world " << w;
  }
}

TEST(SketchOracleTest, SelectSeedsIsDeterministicAndSane) {
  const ProbGraph g = RandomTestGraph(120, 500, 25);
  const CascadeIndex index = BuildIndex(g, 16, 26);
  const auto oracle = SketchSpreadOracle::BuildDeterministic(index, 32, 5);
  ASSERT_TRUE(oracle.ok());
  EXPECT_FALSE(oracle->SelectSeeds(0).ok());
  EXPECT_FALSE(oracle->SelectSeeds(g.num_nodes() + 1).ok());
  const auto a = oracle->SelectSeeds(5);
  const auto b = oracle->SelectSeeds(5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->seeds, b->seeds);
  ASSERT_EQ(a->seeds.size(), 5u);
  ASSERT_EQ(a->steps.size(), 5u);
  // No duplicate selections; objective is non-decreasing; the reported
  // objective matches the oracle's own estimate of the selected set.
  std::vector<NodeId> sorted = a->seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  double prev = 0.0;
  for (const auto& step : a->steps) {
    EXPECT_GE(step.objective_after, prev - 1e-9);
    prev = step.objective_after;
  }
  const auto direct = oracle->EstimateSpread(a->seeds);
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(a->steps.back().objective_after, *direct, 1e-6);
}

TEST(SketchOracleTest, SpreadEstimatorInterfaceAgreesAcrossTiers) {
  const ProbGraph g = RandomTestGraph(50, 200, 27);
  const CascadeIndex index = BuildIndex(g, 8, 28);
  const auto sketch = SketchSpreadOracle::BuildDeterministic(index, 256, 5);
  ASSERT_TRUE(sketch.ok());
  const ExactSpreadEstimator exact(&index);
  EXPECT_STREQ(exact.name(), "exact");
  EXPECT_STREQ(sketch->name(), "sketch");
  EXPECT_EQ(exact.tier(), EstimatorTier::kExact);
  EXPECT_EQ(sketch->tier(), EstimatorTier::kSketch);
  EXPECT_DOUBLE_EQ(exact.relative_error_bound(), 0.0);
  EXPECT_STREQ(EstimatorTierName(sketch->tier()), "sketch");
  const std::vector<NodeId> seeds = {3, 17};
  const std::vector<const SpreadEstimator*> tiers = {&exact, &*sketch};
  for (const SpreadEstimator* estimator : tiers) {
    const auto est = estimator->EstimateSpread(seeds);
    ASSERT_TRUE(est.ok()) << estimator->name();
    // k=256 > n: sketches never truncate, so both tiers are exact here.
    EXPECT_NEAR(*est, *exact.EstimateSpread(seeds), 1e-9) << estimator->name();
    EXPECT_FALSE(estimator->EstimateSpread(std::vector<NodeId>{999}).ok());
  }
}

TEST(SketchOracleTest, CalibrationMeasuredErrorWithinTwiceBound) {
  // The acceptance calibration at test scale: mean relative error of the
  // sketch estimate vs the exact closure value stays within 2x the a-priori
  // 1/sqrt(k-2) bound (the bound is per-estimate; averaging over worlds
  // tightens it, so 2x has comfortable slack against unlucky salts).
  const ProbGraph g = RandomTestGraph(512, 2560, 29);
  const CascadeIndex index = BuildIndex(g, 16, 30);
  for (uint32_t k : {16u, 64u}) {
    const auto oracle = SketchSpreadOracle::BuildDeterministic(index, k, 5);
    ASSERT_TRUE(oracle.ok());
    const double bound = SketchSpreadOracle::RelativeErrorBound(k);
    double total_rel_err = 0.0;
    int count = 0;
    for (NodeId v = 0; v < g.num_nodes(); v += 11) {
      const std::vector<NodeId> seeds = {v};
      const auto truth = ExpectedReachableSize(index, seeds);
      ASSERT_TRUE(truth.ok());
      if (*truth < 5.0) continue;  // tiny sets are exact on both tiers
      const auto est = oracle->EstimateSpread(seeds);
      ASSERT_TRUE(est.ok());
      total_rel_err += std::abs(*est - *truth) / *truth;
      ++count;
    }
    ASSERT_GT(count, 10);
    EXPECT_LT(total_rel_err / count, 2.0 * bound) << "k=" << k;
  }
}

// An index whose worlds sit on all three tiers: the greedy tier pass,
// given exactly what world 0's closure and world 1's labels cost,
// materializes world 0, labels world 1 and leaves the rest on traversal.
CascadeIndex MixedTierIndex(const ProbGraph& g, PropagationModel model,
                            uint32_t worlds, uint64_t seed) {
  CascadeIndexOptions options;
  options.num_worlds = worlds;
  options.model = model;
  Rng rng(seed);
  auto built = CascadeIndex::Build(g, options, &rng);
  EXPECT_TRUE(built.ok());
  CascadeIndex index = std::move(built).value();
  const uint64_t mat0 = index.closure(0).ApproxBytes();
  index.RebuildClosureTiersBytes(uint64_t{1} << 30,
                                 ClosureTierPolicy::kLabels);
  const uint64_t lab1 = index.labels(1).ApproxBytes();
  index.RebuildClosureTiersBytes(mat0 + lab1, ClosureTierPolicy::kAuto);
  return index;
}

// The build sizes every closure- and labels-tier world from its reach
// counts and fills the worlds on the thread budget; traversal worlds are
// built first, in order. The pools must equal the sequential build's at
// every budget, under both models, for k below and above the reach sizes.
TEST(SketchOracleTest, PoolsMatchSequentialBuildAtEveryThreadBudget) {
  const ProbGraph ic = RandomTestGraph(150, 600, 41);
  const auto lt = NormalizeLtWeights(ic);
  ASSERT_TRUE(lt.ok());
  const CascadeIndex indexes[2] = {
      MixedTierIndex(ic, PropagationModel::kIndependentCascade, 12, 42),
      MixedTierIndex(*lt, PropagationModel::kLinearThreshold, 12, 43)};
  for (const CascadeIndex& index : indexes) {
    ASSERT_EQ(index.tier(0), WorldTier::kMaterialized);
    ASSERT_EQ(index.tier(1), WorldTier::kLabels);
    ASSERT_EQ(index.stats().worlds_traversal, index.num_worlds() - 2);
    for (uint32_t k : {3u, 8u, 200u}) {
      for (uint32_t threads : {1u, 2u, 8u}) {
        SetGlobalThreads(threads);
        const auto oracle = SketchSpreadOracle::BuildDeterministic(index, k, 9);
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        const reference::SketchPools expected =
            reference::SequentialSketchPools(index, k, oracle->salt());
        const auto offsets = oracle->offsets_view();
        const auto entries = oracle->entries_view();
        EXPECT_TRUE(std::equal(offsets.begin(), offsets.end(),
                               expected.offsets.begin(),
                               expected.offsets.end()))
            << "k=" << k << " threads=" << threads;
        EXPECT_TRUE(std::equal(entries.begin(), entries.end(),
                               expected.entries.begin(),
                               expected.entries.end()))
            << "k=" << k << " threads=" << threads;
      }
    }
  }
  SetGlobalThreads(0);
}

}  // namespace
}  // namespace soi
