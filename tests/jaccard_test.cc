#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "jaccard/jaccard.h"
#include "jaccard/median.h"
#include "reference_median.h"
#include "util/rng.h"

namespace soi {
namespace {

std::vector<NodeId> RandomSet(NodeId universe, double density, Rng* rng) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < universe; ++v) {
    if (rng->NextBernoulli(density)) out.push_back(v);
  }
  return out;
}

// -------------------------------------------------------------- Distance ---

TEST(JaccardDistanceTest, KnownValues) {
  const std::vector<NodeId> a = {1, 2, 3};
  const std::vector<NodeId> b = {2, 3, 4, 5};
  EXPECT_EQ(IntersectionSize(a, b), 2u);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, b), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(JaccardDistance(a, b), 3.0 / 5.0);
}

TEST(JaccardDistanceTest, EmptySetConventions) {
  const std::vector<NodeId> empty;
  const std::vector<NodeId> b = {1};
  EXPECT_DOUBLE_EQ(JaccardDistance(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance(empty, b), 1.0);
  EXPECT_DOUBLE_EQ(JaccardDistance(b, empty), 1.0);
}

TEST(JaccardDistanceTest, IdenticalAndDisjoint) {
  const std::vector<NodeId> a = {3, 7, 9};
  const std::vector<NodeId> b = {1, 2};
  EXPECT_DOUBLE_EQ(JaccardDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance(a, b), 1.0);
}

class JaccardMetricTest : public ::testing::TestWithParam<int> {};

TEST_P(JaccardMetricTest, MetricAxiomsOnRandomSets) {
  Rng rng(50 + GetParam());
  const NodeId universe = 40;
  const auto a = RandomSet(universe, 0.3, &rng);
  const auto b = RandomSet(universe, 0.3, &rng);
  const auto c = RandomSet(universe, 0.3, &rng);
  const double dab = JaccardDistance(a, b);
  const double dba = JaccardDistance(b, a);
  const double dac = JaccardDistance(a, c);
  const double dcb = JaccardDistance(c, b);
  // Symmetry, range, identity, triangle inequality.
  EXPECT_DOUBLE_EQ(dab, dba);
  EXPECT_GE(dab, 0.0);
  EXPECT_LE(dab, 1.0);
  EXPECT_DOUBLE_EQ(JaccardDistance(a, a), 0.0);
  EXPECT_LE(dab, dac + dcb + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomTriples, JaccardMetricTest,
                         ::testing::Range(0, 25));

TEST(JaccardDistanceTest, AverageMatchesLoop) {
  Rng rng(60);
  const NodeId universe = 30;
  const auto cand = RandomSet(universe, 0.4, &rng);
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < 12; ++i) sets.push_back(RandomSet(universe, 0.3, &rng));
  double expected = 0.0;
  for (const auto& s : sets) expected += JaccardDistance(cand, s);
  expected /= static_cast<double>(sets.size());
  EXPECT_NEAR(AverageJaccardDistance(cand, sets, universe), expected, 1e-12);
}

// ---------------------------------------------------------------- Median ---

TEST(MedianTest, SingleSetIsItsOwnMedian) {
  JaccardMedianSolver solver(10);
  const std::vector<std::vector<NodeId>> sets = {{1, 3, 5}};
  const auto result = solver.Compute(sets);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->median, (std::vector<NodeId>{1, 3, 5}));
  EXPECT_DOUBLE_EQ(result->cost, 0.0);
}

TEST(MedianTest, IdenticalSetsZeroCost) {
  JaccardMedianSolver solver(10);
  const std::vector<std::vector<NodeId>> sets = {{0, 2}, {0, 2}, {0, 2}};
  const auto result = solver.Compute(sets);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->median, (std::vector<NodeId>{0, 2}));
  EXPECT_DOUBLE_EQ(result->cost, 0.0);
}

TEST(MedianTest, AllEmptySetsGiveEmptyMedian) {
  JaccardMedianSolver solver(10);
  const std::vector<std::vector<NodeId>> sets = {{}, {}, {}};
  const auto result = solver.Compute(sets);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->median.empty());
  EXPECT_DOUBLE_EQ(result->cost, 0.0);
}

TEST(MedianTest, MajorityElementSelected) {
  // Element 7 in all sets, element 9 in one: the median keeps 7, drops 9.
  JaccardMedianSolver solver(12);
  const std::vector<std::vector<NodeId>> sets = {{7}, {7}, {7}, {7, 9}};
  const auto result = solver.Compute(sets);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->median, std::vector<NodeId>{7});
}

TEST(MedianTest, ValidatesInputs) {
  JaccardMedianSolver solver(5);
  const std::vector<std::vector<NodeId>> empty;
  EXPECT_FALSE(solver.Compute(empty).ok());  // empty collection
  EXPECT_EQ(solver.Compute({{9}}).status().code(),
            StatusCode::kOutOfRange);  // exceeds universe
  EXPECT_EQ(solver.Compute({{2, 1}}).status().code(),
            StatusCode::kInvalidArgument);  // unsorted
  EXPECT_EQ(solver.Compute({{1, 1}}).status().code(),
            StatusCode::kInvalidArgument);  // duplicates
}

TEST(MedianTest, CostMatchesIndependentEvaluation) {
  Rng rng(70);
  const NodeId universe = 50;
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < 20; ++i) sets.push_back(RandomSet(universe, 0.25, &rng));
  JaccardMedianSolver solver(universe);
  const auto result = solver.Compute(sets);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->cost,
              AverageJaccardDistance(result->median, sets, universe), 1e-9);
}

class MedianVsExactTest : public ::testing::TestWithParam<int> {};

TEST_P(MedianVsExactTest, NearOptimalOnSmallInstances) {
  Rng rng(200 + GetParam());
  const NodeId universe = 12;
  std::vector<std::vector<NodeId>> sets;
  const int num_sets = 3 + static_cast<int>(rng.NextBounded(8));
  for (int i = 0; i < num_sets; ++i) {
    sets.push_back(RandomSet(universe, 0.2 + 0.4 * rng.NextDouble(), &rng));
  }
  const auto exact = ExactJaccardMedian(sets);
  ASSERT_TRUE(exact.ok());
  JaccardMedianSolver solver(universe);
  MedianOptions options;
  options.local_search = true;
  const auto approx = solver.Compute(sets, options);
  ASSERT_TRUE(approx.ok());
  // Chierichetti-style guarantee: within a modest multiplicative factor of
  // optimal (empirically much tighter; enforce 1.2x + small additive).
  EXPECT_LE(approx->cost, exact->second * 1.2 + 0.02)
      << "approx=" << approx->cost << " exact=" << exact->second;
  EXPECT_GE(approx->cost, exact->second - 1e-12);  // exact is a lower bound
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MedianVsExactTest,
                         ::testing::Range(0, 30));

TEST(MedianTest, LocalSearchNeverHurts) {
  Rng rng(80);
  const NodeId universe = 40;
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < 15; ++i) sets.push_back(RandomSet(universe, 0.3, &rng));
  JaccardMedianSolver solver(universe);
  MedianOptions no_ls, with_ls;
  no_ls.local_search = false;
  with_ls.local_search = true;
  const auto base = solver.Compute(sets, no_ls);
  const auto refined = solver.Compute(sets, with_ls);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(refined.ok());
  EXPECT_LE(refined->cost, base->cost + 1e-12);
}

TEST(MedianTest, InputCandidatesNeverHurt) {
  Rng rng(81);
  const NodeId universe = 40;
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < 15; ++i) sets.push_back(RandomSet(universe, 0.3, &rng));
  JaccardMedianSolver solver(universe);
  MedianOptions none, some;
  none.input_candidates = 0;
  some.input_candidates = 8;
  const auto base = solver.Compute(sets, none);
  const auto better = solver.Compute(sets, some);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(better.ok());
  EXPECT_LE(better->cost, base->cost + 1e-12);
}

TEST(MedianTest, MedianCostAtMostBestInputSet) {
  // With input candidates enabled, the result can never be worse than the
  // best input set used as a candidate.
  Rng rng(82);
  const NodeId universe = 30;
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < 6; ++i) sets.push_back(RandomSet(universe, 0.35, &rng));
  JaccardMedianSolver solver(universe);
  MedianOptions options;
  options.input_candidates = 100;  // evaluate all inputs
  const auto result = solver.Compute(sets, options);
  ASSERT_TRUE(result.ok());
  for (const auto& s : sets) {
    EXPECT_LE(result->cost,
              AverageJaccardDistance(s, sets, universe) + 1e-12);
  }
}

TEST(MedianTest, SolverReusableAcrossQueries) {
  JaccardMedianSolver solver(20);
  const std::vector<std::vector<NodeId>> first = {{1, 2}, {1, 2}, {1}};
  const std::vector<std::vector<NodeId>> second = {{5, 9}, {5}, {5, 9}};
  const auto r1 = solver.Compute(first);
  const auto r2 = solver.Compute(second);
  const auto r1_again = solver.Compute(first);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r1_again.ok());
  EXPECT_EQ(r1->median, r1_again->median);
  EXPECT_DOUBLE_EQ(r1->cost, r1_again->cost);
  EXPECT_EQ(r2->median, (std::vector<NodeId>{5, 9}));
}

// ------------------------------------------ Median vs sorting reference ---

// A seeded family of l sorted sets over [0, universe) whose element
// frequencies spread over the whole range, so many thresholds compete.
// Shapes: 0 plain, 1 every third set empty, 2 one full set and duplicated
// sets, 3 all sets empty.
std::vector<std::vector<NodeId>> RandomFamily(NodeId universe, uint32_t l,
                                              int shape, Rng* rng) {
  std::vector<std::vector<NodeId>> sets(l);
  if (shape == 3) return sets;
  std::vector<double> p(universe);
  for (double& q : p) {
    const double u = rng->NextDouble();
    q = u < 0.1   ? 0.7 + 0.3 * rng->NextDouble()
        : u < 0.4 ? 0.2 + 0.5 * rng->NextDouble()
                  : 0.05 * rng->NextDouble();
  }
  for (auto& s : sets) {
    for (NodeId v = 0; v < universe; ++v) {
      if (rng->NextBernoulli(p[v])) s.push_back(v);
    }
  }
  if (shape == 1) {
    for (uint32_t i = 0; i < l; i += 3) sets[i].clear();
  } else if (shape == 2) {
    for (uint32_t i = 1; i < l; i += 4) sets[i] = sets[0];
    sets[l / 2].clear();
    for (NodeId v = 0; v < universe; ++v) sets[l / 2].push_back(v);
  }
  return sets;
}

TEST(MedianReferenceTest, MatchesSortingReferenceOnSeededFamilies) {
  struct Family {
    uint32_t l;
    NodeId universe;
    int shape;
  };
  std::vector<Family> families;
  for (uint32_t l : {1u, 2u, 3u, 31u, 32u, 33u, 64u, 65u, 256u}) {
    for (NodeId universe : {1u, 63u, 64u, 65u, 700u, 5000u}) {
      for (int shape = 0; shape < 4; ++shape) {
        families.push_back({l, universe, shape});
      }
    }
  }
  // Shuffled, so the one reused solver sees l and the universe both grow
  // and shrink from call to call.
  Rng order_rng(90);
  for (size_t i = families.size(); i > 1; --i) {
    std::swap(families[i - 1], families[order_rng.NextBounded(i)]);
  }
  JaccardMedianSolver solver(5000);
  Rng rng(91);
  size_t compared = 0;
  for (const Family& f : families) {
    const auto sets = RandomFamily(f.universe, f.l, f.shape, &rng);
    std::vector<std::span<const NodeId>> views(sets.begin(), sets.end());
    reference::SortingMedianSolver ref(f.universe);
    for (uint32_t candidates : {0u, 8u, 13u}) {
      for (bool local_search : {false, true}) {
        MedianOptions options;
        options.input_candidates = candidates;
        options.local_search = local_search;
        options.trusted_presorted = (compared % 2) == 0;
        const auto want = ref.Compute(views, options);
        const auto got = solver.Compute(views, options);
        ASSERT_TRUE(want.ok());
        ASSERT_TRUE(got.ok());
        const std::string where =
            "l=" + std::to_string(f.l) + " universe=" +
            std::to_string(f.universe) + " shape=" + std::to_string(f.shape) +
            " candidates=" + std::to_string(candidates) +
            " local_search=" + std::to_string(local_search);
        ASSERT_EQ(got->median, want->median) << where;
        ASSERT_EQ(std::bit_cast<uint64_t>(got->cost),
                  std::bit_cast<uint64_t>(want->cost))
            << where;
        ASSERT_EQ(got->threshold, want->threshold) << where;
        ASSERT_EQ(got->source, want->source) << where;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 9u * 6u * 4u * 6u);
}

TEST(ExactMedianTest, KnownInstance) {
  // Three sets {1}, {1,2}, {1,2,3}: median {1,2} has avg distance
  // (1/2 + 0 + 1/3)/3 = 5/18; {1} gives (0 + 1/2 + 2/3)/3 = 7/18;
  // {1,2,3} gives (2/3 + 1/3 + 0)/3 = 1/3. So optimum is {1,2}.
  const std::vector<std::vector<NodeId>> sets = {{1}, {1, 2}, {1, 2, 3}};
  const auto exact = ExactJaccardMedian(sets);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->first, (std::vector<NodeId>{1, 2}));
  EXPECT_NEAR(exact->second, 5.0 / 18.0, 1e-12);
}

TEST(ExactMedianTest, RejectsLargeUnion) {
  std::vector<std::vector<NodeId>> sets(1);
  for (NodeId v = 0; v < 25; ++v) sets[0].push_back(v);
  EXPECT_FALSE(ExactJaccardMedian(sets).ok());
}

}  // namespace
}  // namespace soi
