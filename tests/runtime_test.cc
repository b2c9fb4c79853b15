#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "index/cascade_index.h"
#include "infmax/evaluate.h"
#include "infmax/greedy_std.h"
#include "infmax/rrset.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace soi {
namespace {

/// Scopes a thread-budget override so tests cannot leak global state.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(uint32_t threads) { SetGlobalThreads(threads); }
  ~ThreadsGuard() { SetGlobalThreads(0); }
};

TEST(ThreadPoolTest, ConstructAndDestroyWithoutTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
}

TEST(ThreadPoolTest, RunsEverySubmittedTaskUnderContention) {
  std::atomic<uint64_t> sum{0};
  {
    ThreadPool pool(8);
    for (uint64_t i = 1; i <= 2000; ++i) {
      pool.Submit([&sum, i] { sum.fetch_add(i); });
    }
    // Destructor drains the queue before joining (graceful shutdown).
  }
  EXPECT_EQ(sum.load(), 2000ull * 2001 / 2);
}

TEST(ThreadPoolTest, WorkersMaySubmitMoreWork) {
  std::atomic<uint32_t> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&pool, &count] {
        pool.Submit([&count] { count.fetch_add(1); });
      });
    }
  }
  EXPECT_EQ(count.load(), 50u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadsGuard guard(8);
  constexpr uint64_t kBegin = 13, kEnd = 10013;
  std::vector<std::atomic<uint32_t>> hits(kEnd - kBegin);
  ParallelFor(kBegin, kEnd, /*grain=*/7,
              [&](uint64_t i) { hits[i - kBegin].fetch_add(1); });
  for (uint64_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << (kBegin + i);
  }
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  ThreadsGuard guard(8);
  uint32_t calls = 0;
  ParallelFor(5, 5, 1, [&](uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(PlannedChunks(0, 1), 0u);

  std::atomic<uint32_t> hits{0};
  ParallelFor(0, 3, 1, [&](uint64_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 3u);
}

TEST(ParallelForTest, ChunksArePlannedAndContiguous) {
  ThreadsGuard guard(4);
  const uint32_t planned = PlannedChunks(100, 1);
  EXPECT_GE(planned, 1u);
  EXPECT_LE(planned, 4u);
  std::vector<std::pair<uint64_t, uint64_t>> ranges(planned);
  std::vector<std::atomic<uint32_t>> seen(planned);
  ParallelForChunks(0, 100, 1,
                    [&](uint32_t chunk, uint64_t begin, uint64_t end) {
                      ASSERT_LT(chunk, planned);
                      seen[chunk].fetch_add(1);
                      ranges[chunk] = {begin, end};
                    });
  uint64_t cursor = 0;
  for (uint32_t c = 0; c < planned; ++c) {
    ASSERT_EQ(seen[c].load(), 1u);
    EXPECT_EQ(ranges[c].first, cursor);
    EXPECT_GT(ranges[c].second, ranges[c].first);
    cursor = ranges[c].second;
  }
  EXPECT_EQ(cursor, 100u);
}

TEST(ParallelForTest, NestedLoopsRunInline) {
  ThreadsGuard guard(4);
  std::atomic<uint32_t> hits{0};
  ParallelFor(0, 8, 1, [&](uint64_t) {
    ParallelFor(0, 8, 1, [&](uint64_t) { hits.fetch_add(1); });
  });
  EXPECT_EQ(hits.load(), 64u);
}

TEST(ParallelForTest, CompletesWhileEveryWorkerWaitsOnTheCaller) {
  // A caller that holds a lock every worker is waiting on (an engine's
  // lazy typical sweep under its mutex) must still finish its region.
  std::mutex mu;
  std::atomic<uint32_t> parked{0};
  ThreadsGuard guard(4);  // declared after mu: the pool drains before mu dies
  std::unique_lock<std::mutex> hold(mu);
  for (uint32_t i = 0; i < GlobalPool()->num_threads(); ++i) {
    GlobalPool()->Submit([&] {
      parked.fetch_add(1);
      std::lock_guard<std::mutex> wait_for_caller(mu);
    });
  }
  while (parked.load() < GlobalPool()->num_threads()) {
    std::this_thread::yield();
  }
  std::atomic<uint64_t> sum{0};
  ParallelFor(0, 64, 1, [&](uint64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 64u * 63u / 2);
  hold.unlock();
}

TEST(RngForkTest, StreamForkIsStableAndDoesNotAdvance) {
  Rng rng(123);
  Rng a = rng.Fork(7);
  Rng b = rng.Fork(7);
  EXPECT_EQ(a.Next(), b.Next());
  Rng c = rng.Fork(8);
  Rng d = rng.Fork(7);
  EXPECT_NE(c.Next(), d.Next());  // distinct streams
  Rng reference(123);
  EXPECT_EQ(rng.Next(), reference.Next());  // const fork left state alone
}

// A seeded random graph for the determinism tests.
ProbGraph TestGraph() {
  Rng rng(2024);
  auto topology = GenerateErdosRenyi(300, 1200, /*undirected=*/false, &rng);
  SOI_CHECK(topology.ok());
  auto graph = AssignUniform(*topology, &rng);
  SOI_CHECK(graph.ok());
  return std::move(graph).value();
}

// All per-world cascades of every node, as one comparable value.
std::vector<std::vector<NodeId>> AllIndexCascades(const CascadeIndex& index) {
  CascadeIndex::Workspace ws;
  std::vector<std::vector<NodeId>> out;
  for (NodeId v = 0; v < index.num_nodes(); ++v) {
    for (uint32_t i = 0; i < index.num_worlds(); ++i) {
      out.push_back(index.Cascade(v, i, &ws).value());
    }
  }
  return out;
}

TEST(RuntimeDeterminismTest, CascadeIndexIsThreadCountInvariant) {
  const ProbGraph graph = TestGraph();
  CascadeIndexOptions options;
  options.num_worlds = 24;

  SetGlobalThreads(1);
  Rng rng1(99);
  auto serial = CascadeIndex::Build(graph, options, &rng1);
  ASSERT_TRUE(serial.ok());

  SetGlobalThreads(8);
  Rng rng8(99);
  auto parallel = CascadeIndex::Build(graph, options, &rng8);
  ASSERT_TRUE(parallel.ok());
  SetGlobalThreads(0);

  EXPECT_EQ(AllIndexCascades(*serial), AllIndexCascades(*parallel));
  EXPECT_DOUBLE_EQ(serial->stats().avg_components,
                   parallel->stats().avg_components);
  EXPECT_DOUBLE_EQ(serial->stats().avg_dag_edges_after,
                   parallel->stats().avg_dag_edges_after);
  // The master generators advanced identically too.
  EXPECT_EQ(rng1.Next(), rng8.Next());
}

TEST(RuntimeDeterminismTest, SpreadEstimatesAreThreadCountInvariant) {
  const ProbGraph graph = TestGraph();
  const std::vector<NodeId> seeds = {1, 17, 42};

  SetGlobalThreads(1);
  Rng rng1(7);
  auto serial = EvaluateSpread(graph, seeds, 300, &rng1);
  ASSERT_TRUE(serial.ok());

  SetGlobalThreads(8);
  Rng rng8(7);
  auto parallel = EvaluateSpread(graph, seeds, 300, &rng8);
  ASSERT_TRUE(parallel.ok());
  SetGlobalThreads(0);

  EXPECT_DOUBLE_EQ(*serial, *parallel);
}

TEST(RuntimeDeterminismTest, McGreedyIsThreadCountInvariant) {
  const ProbGraph graph = TestGraph();
  GreedyStdMcOptions options;
  options.k = 4;
  options.mc_samples = 40;

  SetGlobalThreads(1);
  Rng rng1(5);
  auto serial = InfMaxStdMc(graph, options, &rng1);
  ASSERT_TRUE(serial.ok());

  SetGlobalThreads(8);
  Rng rng8(5);
  auto parallel = InfMaxStdMc(graph, options, &rng8);
  ASSERT_TRUE(parallel.ok());
  SetGlobalThreads(0);

  EXPECT_EQ(serial->seeds, parallel->seeds);
  ASSERT_EQ(serial->steps.size(), parallel->steps.size());
  for (size_t i = 0; i < serial->steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial->steps[i].marginal_gain,
                     parallel->steps[i].marginal_gain);
    EXPECT_DOUBLE_EQ(serial->steps[i].objective_after,
                     parallel->steps[i].objective_after);
  }
}

TEST(RuntimeDeterminismTest, RrSetsAreThreadCountInvariant) {
  const ProbGraph graph = TestGraph();

  SetGlobalThreads(1);
  Rng rng1(3);
  auto serial = RrCollection::Sample(graph, 150, &rng1);
  ASSERT_TRUE(serial.ok());

  SetGlobalThreads(8);
  Rng rng8(3);
  auto parallel = RrCollection::Sample(graph, 150, &rng8);
  ASSERT_TRUE(parallel.ok());
  SetGlobalThreads(0);

  ASSERT_EQ(serial->num_sets(), parallel->num_sets());
  for (uint32_t i = 0; i < serial->num_sets(); ++i) {
    const auto a = serial->Set(i);
    const auto b = parallel->Set(i);
    ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(b.begin(), b.end()))
        << "RR set " << i;
  }
}

}  // namespace
}  // namespace soi
