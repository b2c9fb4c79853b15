#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/csr.h"
#include "scc/condensation.h"
#include "scc/tarjan.h"
#include "scc/transitive.h"
#include "util/rng.h"

namespace soi {
namespace {

Csr MakeCsr(uint32_t n, std::vector<std::pair<NodeId, NodeId>> edges) {
  return Csr::FromEdges(n, std::move(edges), /*dedupe=*/true);
}

// Brute-force reachability: reach[u] = set of nodes reachable from u.
std::vector<std::set<NodeId>> BruteReach(const Csr& g) {
  const uint32_t n = g.num_nodes();
  std::vector<std::set<NodeId>> reach(n);
  for (NodeId u = 0; u < n; ++u) {
    std::vector<NodeId> stack{u};
    reach[u].insert(u);
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      for (NodeId y : g.Neighbors(x)) {
        if (reach[u].insert(y).second) stack.push_back(y);
      }
    }
  }
  return reach;
}

Csr RandomDigraph(uint32_t n, uint32_t m, Rng* rng) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (uint32_t i = 0; i < m; ++i) {
    const NodeId u = static_cast<NodeId>(rng->NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng->NextBounded(n));
    if (u != v) edges.emplace_back(u, v);
  }
  return MakeCsr(n, std::move(edges));
}

// ---------------------------------------------------------------- Tarjan ---

TEST(TarjanTest, SingletonComponents) {
  // A simple DAG: every node its own SCC.
  const Csr g = MakeCsr(4, {{0, 1}, {1, 2}, {2, 3}});
  const SccResult scc = TarjanScc(g);
  EXPECT_EQ(scc.num_components, 4u);
  std::set<uint32_t> distinct(scc.comp_of.begin(), scc.comp_of.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(TarjanTest, SingleCycleIsOneComponent) {
  const Csr g = MakeCsr(3, {{0, 1}, {1, 2}, {2, 0}});
  const SccResult scc = TarjanScc(g);
  EXPECT_EQ(scc.num_components, 1u);
}

TEST(TarjanTest, TwoCyclesBridged) {
  const Csr g =
      MakeCsr(6, {{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}, {4, 5}});
  const SccResult scc = TarjanScc(g);
  EXPECT_EQ(scc.num_components, 4u);
  EXPECT_EQ(scc.comp_of[0], scc.comp_of[1]);
  EXPECT_EQ(scc.comp_of[2], scc.comp_of[3]);
  EXPECT_NE(scc.comp_of[0], scc.comp_of[2]);
  EXPECT_NE(scc.comp_of[4], scc.comp_of[5]);
}

TEST(TarjanTest, ReverseTopologicalIdInvariant) {
  // Every cross-component edge must point to a smaller component id.
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Csr g = RandomDigraph(30, 60, &rng);
    const SccResult scc = TarjanScc(g);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.Neighbors(u)) {
        if (scc.comp_of[u] != scc.comp_of[v]) {
          EXPECT_LT(scc.comp_of[v], scc.comp_of[u]);
        }
      }
    }
  }
}

TEST(TarjanTest, EmptyGraph) {
  const Csr g = MakeCsr(0, {});
  const SccResult scc = TarjanScc(g);
  EXPECT_EQ(scc.num_components, 0u);
}

TEST(TarjanTest, DeepChainNoStackOverflow) {
  // 200k-long path: recursive Tarjan would blow the stack.
  const uint32_t n = 200000;
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(n - 1);
  for (uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  const Csr g = MakeCsr(n, std::move(edges));
  const SccResult scc = TarjanScc(g);
  EXPECT_EQ(scc.num_components, n);
}

// Property: two nodes share an SCC iff they reach each other.
class TarjanPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TarjanPropertyTest, MatchesBruteForceMutualReachability) {
  Rng rng(100 + GetParam());
  const uint32_t n = 14;
  const Csr g = RandomDigraph(n, 10 + GetParam() * 3, &rng);
  const SccResult scc = TarjanScc(g);
  const auto reach = BruteReach(g);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      const bool mutual = reach[u].count(v) && reach[v].count(u);
      EXPECT_EQ(scc.comp_of[u] == scc.comp_of[v], mutual)
          << "u=" << u << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, TarjanPropertyTest,
                         ::testing::Range(0, 12));

// ----------------------------------------------------------- Condensation ---

TEST(CondensationTest, MembersPartitionNodes) {
  Rng rng(2);
  const Csr g = RandomDigraph(40, 80, &rng);
  const Condensation cond = Condensation::Build(g);
  size_t total = 0;
  for (uint32_t c = 0; c < cond.num_components(); ++c) {
    const auto members = cond.ComponentMembers(c);
    total += members.size();
    EXPECT_EQ(members.size(), cond.ComponentSize(c));
    for (NodeId v : members) EXPECT_EQ(cond.ComponentOf(v), c);
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  }
  EXPECT_EQ(total, g.num_nodes());
}

TEST(CondensationTest, DagIsAcyclicByIdInvariant) {
  Rng rng(3);
  const Csr g = RandomDigraph(50, 120, &rng);
  const Condensation cond = Condensation::Build(g);
  for (uint32_t c = 0; c < cond.num_components(); ++c) {
    for (uint32_t succ : cond.DagSuccessors(c)) {
      EXPECT_LT(succ, c);
    }
  }
}

TEST(CondensationTest, DagEdgesDeduplicated) {
  // Two parallel node-level edges between the same component pair.
  const Csr g = MakeCsr(4, {{0, 1}, {1, 0}, {2, 3}, {3, 2}, {0, 2}, {1, 3}});
  const Condensation cond = Condensation::Build(g);
  EXPECT_EQ(cond.num_components(), 2u);
  EXPECT_EQ(cond.num_dag_edges(), 1u);
}

TEST(CondensationTest, ReachableComponentsMatchesNodeReachability) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const Csr g = RandomDigraph(25, 50, &rng);
    const Condensation cond = Condensation::Build(g);
    const auto reach = BruteReach(g);
    std::vector<uint32_t> stamp(cond.num_components(), 0);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      std::vector<uint32_t> comps;
      ReachableComponents(cond, cond.ComponentOf(u), &stamp, u + 1, &comps);
      std::set<NodeId> nodes;
      for (uint32_t c : comps) {
        for (NodeId v : cond.ComponentMembers(c)) nodes.insert(v);
      }
      EXPECT_EQ(nodes, reach[u]) << "node " << u;
    }
  }
}

// ------------------------------------------------------ TransitiveReduce ---

class ReductionTest
    : public ::testing::TestWithParam<std::tuple<int, ReductionStrategy>> {};

TEST_P(ReductionTest, PreservesReachability) {
  const auto [seed, strategy] = GetParam();
  Rng rng(1000 + seed);
  const Csr g = RandomDigraph(30, 90, &rng);
  Condensation cond = Condensation::Build(g);
  const Csr original_dag = cond.dag();

  ReductionOptions options;
  options.strategy = strategy;
  const ReductionStats stats = TransitiveReduce(&cond, options);
  EXPECT_EQ(stats.edges_before, original_dag.num_edges());
  EXPECT_EQ(stats.edges_after, cond.num_dag_edges());
  EXPECT_LE(stats.edges_after, stats.edges_before);
  EXPECT_TRUE(SameReachability(cond, original_dag));
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ReductionTest,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(ReductionStrategy::kDenseBitset,
                                         ReductionStrategy::kDfs,
                                         ReductionStrategy::kAuto)));

TEST(ReductionTest, StrategiesAgreeOnEdgeCount) {
  // The transitive reduction of a DAG is unique, so both strategies must
  // produce identical DAGs.
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Csr g = RandomDigraph(40, 120, &rng);
    Condensation dense_cond = Condensation::Build(g);
    Condensation dfs_cond = Condensation::Build(g);
    ReductionOptions dense_opts, dfs_opts;
    dense_opts.strategy = ReductionStrategy::kDenseBitset;
    dfs_opts.strategy = ReductionStrategy::kDfs;
    TransitiveReduce(&dense_cond, dense_opts);
    TransitiveReduce(&dfs_cond, dfs_opts);
    EXPECT_EQ(dense_cond.dag().offsets, dfs_cond.dag().offsets);
    EXPECT_EQ(dense_cond.dag().targets, dfs_cond.dag().targets);
  }
}

TEST(ReductionTest, RemovesShortcutEdge) {
  // 2 -> 1 -> 0 plus the shortcut 2 -> 0, which must be removed.
  const Csr g = MakeCsr(3, {{2, 1}, {1, 0}, {2, 0}});
  Condensation cond = Condensation::Build(g);
  ASSERT_EQ(cond.num_components(), 3u);
  const ReductionStats stats = TransitiveReduce(&cond);
  EXPECT_EQ(stats.edges_before, 3u);
  EXPECT_EQ(stats.edges_after, 2u);
}

TEST(ReductionTest, DiamondKeepsAllEdges) {
  // Diamond 3 -> {1, 2} -> 0: nothing is redundant.
  const Csr g = MakeCsr(4, {{3, 1}, {3, 2}, {1, 0}, {2, 0}});
  Condensation cond = Condensation::Build(g);
  const ReductionStats stats = TransitiveReduce(&cond);
  EXPECT_EQ(stats.edges_after, 4u);
}

TEST(ReductionTest, DfsBudgetTruncationStaysCorrect) {
  Rng rng(7);
  const Csr g = RandomDigraph(40, 150, &rng);
  Condensation cond = Condensation::Build(g);
  const Csr original_dag = cond.dag();
  ReductionOptions options;
  options.strategy = ReductionStrategy::kDfs;
  options.dfs_visit_budget = 1;  // exhausted almost immediately
  const ReductionStats stats = TransitiveReduce(&cond, options);
  EXPECT_TRUE(SameReachability(cond, original_dag));
  EXPECT_LE(stats.edges_after, stats.edges_before);
}

}  // namespace
}  // namespace soi
