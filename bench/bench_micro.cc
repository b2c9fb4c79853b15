// Component microbenchmarks and design-choice ablations (google-benchmark):
//   - possible-world sampling, Tarjan SCC, condensation build
//   - transitive reduction: dense-bitset vs DFS strategies (ablation)
//   - index construction with vs without transitive reduction (ablation)
//   - cascade query through the index vs direct BFS on a materialized world
//     (the paper's reason for the index)
//   - cascade extraction kernel: per-query DAG traversal vs the memoized
//     closure cache (the sweep's hot loop); a single-threaded ComputeAll
//     comparison of the two paths is also timed directly and recorded in
//     BENCH_micro.json
//   - Jaccard median: threshold sweep alone vs + input candidates vs
//     + local search (quality/time ablation)
//   - spread-oracle marginal-gain evaluation
//   - snapshot writer cost without disk: CRC-32C through the portable
//     slice-by-8 path vs the dispatched one (the SSE4.2 `crc32`
//     instruction where the CPU has it), and SerializeSnapshot of a
//     serving state (closures, typical table, k=64 sketches) at thread
//     budgets 1 and 2
//   - greedy seed selection: the shared cover engine (exact decrements +
//     lazy bucket queue) vs the legacy CELF heap and the legacy O(k*n)
//     rescan, over typical cascades (BM_InfMaxTC) and RR sets (BM_RrSelect);
//     single-threaded comparisons with in-process output-equality checks are
//     recorded in BENCH_micro.json ("infmax_select", "rr_select")

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <queue>

#include "cascade/world.h"
#include "core/typical_cascade.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/dynamic_index.h"
#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "index/cascade_index.h"
#include "infmax/infmax_tc.h"
#include "infmax/rrset.h"
#include "infmax/sketch_oracle.h"
#include "infmax/spread_oracle.h"
#include "util/bitvector.h"
#include "jaccard/median.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "scc/condensation.h"
#include "scc/tarjan.h"
#include "scc/transitive.h"
#include "service/engine.h"
#include "snapshot/crc32c.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace soi {
namespace {

const ProbGraph& TestGraph() {
  static const ProbGraph* graph = [] {
    Rng gen_rng(1);
    auto topo = GenerateRmat(12, 30000, {}, &gen_rng);
    SOI_CHECK(topo.ok());
    Rng assign_rng(2);
    auto g = AssignUniform(*topo, &assign_rng, 0.03, 0.25);
    SOI_CHECK(g.ok());
    return new ProbGraph(std::move(g).value());
  }();
  return *graph;
}

void BM_SampleWorld(benchmark::State& state) {
  const ProbGraph& g = TestGraph();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleWorld(g, &rng));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_SampleWorld);

void BM_TarjanScc(benchmark::State& state) {
  Rng rng(4);
  const Csr world = SampleWorld(TestGraph(), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TarjanScc(world));
  }
}
BENCHMARK(BM_TarjanScc);

void BM_CondensationBuild(benchmark::State& state) {
  Rng rng(5);
  const Csr world = SampleWorld(TestGraph(), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Condensation::Build(world));
  }
}
BENCHMARK(BM_CondensationBuild);

void BM_TransitiveReduce(benchmark::State& state) {
  const auto strategy = static_cast<ReductionStrategy>(state.range(0));
  Rng rng(6);
  const Csr world = SampleWorld(TestGraph(), &rng);
  const Condensation base = Condensation::Build(world);
  ReductionOptions options;
  options.strategy = strategy;
  options.dense_limit = ~uint32_t{0};  // force dense when asked
  for (auto _ : state) {
    Condensation cond = base;
    benchmark::DoNotOptimize(TransitiveReduce(&cond, options));
  }
}
BENCHMARK(BM_TransitiveReduce)
    ->Arg(static_cast<int>(ReductionStrategy::kDenseBitset))
    ->Arg(static_cast<int>(ReductionStrategy::kDfs))
    ->ArgNames({"strategy"});

void BM_IndexBuild(benchmark::State& state) {
  const bool reduce = state.range(0) != 0;
  CascadeIndexOptions options;
  options.num_worlds = 16;
  options.transitive_reduction = reduce;
  for (auto _ : state) {
    Rng rng(7);
    auto index = CascadeIndex::Build(TestGraph(), options, &rng);
    SOI_CHECK(index.ok());
    benchmark::DoNotOptimize(index->stats().approx_bytes);
  }
}
BENCHMARK(BM_IndexBuild)->Arg(0)->Arg(1)->ArgNames({"reduction"});

void BM_CascadeQueryViaIndex(benchmark::State& state) {
  CascadeIndexOptions options;
  options.num_worlds = 32;
  Rng rng(8);
  const auto index = CascadeIndex::Build(TestGraph(), options, &rng);
  SOI_CHECK(index.ok());
  CascadeIndex::Workspace ws;
  NodeId v = 0;
  uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Cascade(v, i, &ws).value());
    v = (v + 911) % TestGraph().num_nodes();
    i = (i + 1) % index->num_worlds();
  }
}
BENCHMARK(BM_CascadeQueryViaIndex);

void BM_CascadeQueryDirectBfs(benchmark::State& state) {
  // The no-index alternative: re-materialize the world and BFS.
  std::vector<Csr> worlds;
  Rng rng(9);
  for (int i = 0; i < 32; ++i) worlds.push_back(SampleWorld(TestGraph(), &rng));
  NodeId v = 0;
  uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReachableFrom(worlds[i], v));
    v = (v + 911) % TestGraph().num_nodes();
    i = (i + 1) % worlds.size();
  }
}
BENCHMARK(BM_CascadeQueryDirectBfs);

// The typical-cascade sweep's hot kernel: extract all l cascades of a node
// into a reusable arena. closure=0 forces the per-query DAG traversal,
// closure=1 uses the memoized per-world reachability closure.
void BM_CascadeExtractAllWorlds(benchmark::State& state) {
  const bool closure = state.range(0) != 0;
  CascadeIndexOptions options;
  options.num_worlds = 64;
  options.closure_budget_mb = closure ? DefaultClosureBudgetMb() : 0;
  Rng rng(8);
  const auto index = CascadeIndex::Build(TestGraph(), options, &rng);
  SOI_CHECK(index.ok());
  SOI_CHECK(index->has_closure_cache() == closure);
  CascadeIndex::Workspace ws;
  CascadeIndex::CascadeArena arena;
  NodeId v = 0;
  uint64_t nodes_out = 0;
  for (auto _ : state) {
    const NodeId seeds[1] = {v};
    SOI_CHECK(index->AllCascadesInto(seeds, &ws, &arena).ok());
    benchmark::DoNotOptimize(arena.num_cascades());
    for (size_t c = 0; c < arena.num_cascades(); ++c) {
      nodes_out += arena.View(c).size();
    }
    v = (v + 911) % TestGraph().num_nodes();
  }
  state.SetItemsProcessed(static_cast<int64_t>(nodes_out));
}
BENCHMARK(BM_CascadeExtractAllWorlds)->Arg(0)->Arg(1)->ArgNames({"closure"});

void BM_JaccardMedian(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  CascadeIndexOptions options;
  options.num_worlds = 128;
  Rng rng(10);
  const auto index = CascadeIndex::Build(TestGraph(), options, &rng);
  SOI_CHECK(index.ok());
  CascadeIndex::Workspace ws;
  // A moderately influential node: pick the max out-degree one.
  NodeId best = 0;
  for (NodeId v = 0; v < TestGraph().num_nodes(); ++v) {
    if (TestGraph().OutDegree(v) > TestGraph().OutDegree(best)) best = v;
  }
  const auto cascades = index->AllCascades(best, &ws).value();
  JaccardMedianSolver solver(TestGraph().num_nodes());
  MedianOptions median;
  median.input_candidates = mode >= 1 ? 8 : 0;
  median.local_search = mode >= 2;
  for (auto _ : state) {
    auto result = solver.Compute(cascades, median);
    SOI_CHECK(result.ok());
    benchmark::DoNotOptimize(result->cost);
  }
}
BENCHMARK(BM_JaccardMedian)->Arg(0)->Arg(1)->Arg(2)->ArgNames({"mode"});

void BM_SketchOracleBuild(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  CascadeIndexOptions options;
  options.num_worlds = 16;
  Rng rng(12);
  const auto index = CascadeIndex::Build(TestGraph(), options, &rng);
  SOI_CHECK(index.ok());
  SketchOptions sketch;
  sketch.k = k;
  for (auto _ : state) {
    Rng build_rng(13);
    auto oracle = SketchSpreadOracle::Build(*index, sketch, &build_rng);
    SOI_CHECK(oracle.ok());
    benchmark::DoNotOptimize(oracle->total_sketch_entries());
  }
}
BENCHMARK(BM_SketchOracleBuild)->Arg(8)->Arg(32)->ArgNames({"k"});

// Ablation: sketch-based spread estimate vs exact DFS oracle.
void BM_SketchOracleQuery(benchmark::State& state) {
  CascadeIndexOptions options;
  options.num_worlds = 64;
  Rng rng(14);
  const auto index = CascadeIndex::Build(TestGraph(), options, &rng);
  SOI_CHECK(index.ok());
  SketchOptions sketch;
  sketch.k = 32;
  Rng build_rng(15);
  const auto oracle = SketchSpreadOracle::Build(*index, sketch, &build_rng);
  SOI_CHECK(oracle.ok());
  NodeId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle->EstimateSpread(v));
    v = (v + 131) % TestGraph().num_nodes();
  }
}
BENCHMARK(BM_SketchOracleQuery);

void BM_Crc32c(benchmark::State& state,
               uint32_t (*extend)(uint32_t, const void*, size_t)) {
  static const std::vector<uint64_t> words = [] {
    std::vector<uint64_t> out((4 << 20) / 8);
    Rng rng(16);
    for (uint64_t& w : out) w = rng.Next();
    return out;
  }();
  const size_t bytes = words.size() * sizeof(uint64_t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extend(0, words.data(), bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK_CAPTURE(BM_Crc32c, portable, &Crc32cExtendPortable);
BENCHMARK_CAPTURE(BM_Crc32c, dispatched, &Crc32cExtend);

// The bytes a snapshot create writes, built in memory: packing the
// closures and checksumming the sections run on the thread budget.
void BM_SerializeSnapshot(benchmark::State& state) {
  static const CascadeIndex* index = [] {
    CascadeIndexOptions options;
    options.num_worlds = 64;
    Rng rng(17);
    auto built = CascadeIndex::Build(TestGraph(), options, &rng);
    SOI_CHECK(built.ok() && built->has_closure_cache());
    return new CascadeIndex(std::move(built).value());
  }();
  static const FlatSets* typical = [] {
    TypicalCascadeComputer computer(index);
    auto sweep = computer.ComputeAllFlat();
    SOI_CHECK(sweep.ok());
    return new FlatSets(std::move(sweep->cascades));
  }();
  static const SketchSpreadOracle* sketches = [] {
    auto built = SketchSpreadOracle::BuildDeterministic(*index, 64, 18);
    SOI_CHECK(built.ok());
    return new SketchSpreadOracle(std::move(built).value());
  }();
  SnapshotWriteOptions options;
  options.typical = typical;
  options.sketches = sketches;
  const uint32_t prev_threads = GlobalThreads();
  SetGlobalThreads(static_cast<uint32_t>(state.range(0)));
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto out = SerializeSnapshot(TestGraph(), *index, options);
    SOI_CHECK(out.ok());
    bytes = out->size();
    benchmark::DoNotOptimize(out->data());
    benchmark::ClobberMemory();
  }
  SetGlobalThreads(prev_threads);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_SerializeSnapshot)
    ->Arg(1)
    ->Arg(2)
    ->ArgNames({"threads"})
    ->UseRealTime();

void BM_SpreadOracleGain(benchmark::State& state) {
  CascadeIndexOptions options;
  options.num_worlds = 64;
  Rng rng(11);
  const auto index = CascadeIndex::Build(TestGraph(), options, &rng);
  SOI_CHECK(index.ok());
  SpreadOracle oracle(&*index);
  NodeId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.MarginalGain(v));
    v = (v + 131) % TestGraph().num_nodes();
  }
}
BENCHMARK(BM_SpreadOracleGain);

// ----------------------------------------------------------------------
// Greedy seed selection: cover engine vs the legacy loops it replaced.
// The legacy implementations are kept verbatim here (and in
// tests/cover_engine_test.cc) as the baseline and correctness reference.
// ----------------------------------------------------------------------

uint64_t LegacyCoverageGain(const std::vector<NodeId>& cascade,
                            const BitVector& covered) {
  uint64_t gain = 0;
  for (NodeId v : cascade) gain += covered.Test(v) ? 0 : 1;
  return gain;
}

struct LegacyCelfEntry {
  uint64_t gain;
  NodeId node;
  uint32_t round;
};

struct LegacyCelfLess {
  bool operator()(const LegacyCelfEntry& a, const LegacyCelfEntry& b) const {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.node > b.node;
  }
};

// The pre-engine InfMaxTC selection loops: CELF heap or exhaustive rescan.
// Includes the per-element input validation pass the legacy entry point ran
// on every call, so timings compare full call against full call.
GreedyResult LegacyTcSelect(const std::vector<std::vector<NodeId>>& cascades,
                            NodeId num_nodes, uint32_t k, bool use_celf) {
  for (const auto& c : cascades) {
    for (NodeId v : c) SOI_CHECK(v < num_nodes);
  }
  GreedyResult result;
  BitVector covered(num_nodes);
  uint64_t total_covered = 0;
  if (!use_celf) {
    BitVector selected(num_nodes);
    for (uint32_t round = 0; round < k; ++round) {
      NodeId best = kInvalidNode;
      uint64_t best_gain = 0;
      bool have_best = false;
      for (NodeId v = 0; v < num_nodes; ++v) {
        if (selected.Test(v)) continue;
        const uint64_t g = LegacyCoverageGain(cascades[v], covered);
        if (!have_best || g > best_gain) {
          have_best = true;
          best_gain = g;
          best = v;
        }
      }
      selected.Set(best);
      for (NodeId v : cascades[best]) covered.Set(v);
      total_covered += best_gain;
      result.seeds.push_back(best);
      result.steps.push_back({best, static_cast<double>(best_gain),
                              static_cast<double>(total_covered), -1.0});
    }
    return result;
  }
  std::priority_queue<LegacyCelfEntry, std::vector<LegacyCelfEntry>,
                      LegacyCelfLess>
      heap;
  for (NodeId v = 0; v < num_nodes; ++v) {
    heap.push({LegacyCoverageGain(cascades[v], covered), v, 0});
  }
  for (uint32_t round = 1; round <= k && !heap.empty(); ++round) {
    while (true) {
      LegacyCelfEntry top = heap.top();
      if (top.round == round) {
        heap.pop();
        for (NodeId v : cascades[top.node]) covered.Set(v);
        total_covered += top.gain;
        result.seeds.push_back(top.node);
        result.steps.push_back({top.node, static_cast<double>(top.gain),
                                static_cast<double>(total_covered), -1.0});
        break;
      }
      heap.pop();
      top.gain = LegacyCoverageGain(cascades[top.node], covered);
      top.round = round;
      heap.push(top);
    }
  }
  return result;
}

// The pre-engine RrCollection::SelectSeeds (exact cover counters + full
// O(n) argmax rescan per round), rebuilt on the collection's public views.
GreedyResult LegacyRrSelect(const RrCollection& collection, uint32_t k) {
  const NodeId n = collection.num_nodes();
  const uint32_t num_sets = collection.num_sets();
  const double scale = static_cast<double>(n) / static_cast<double>(num_sets);
  std::vector<uint64_t> cover_count(n, 0);
  for (uint32_t i = 0; i < num_sets; ++i) {
    for (NodeId v : collection.Set(i)) ++cover_count[v];
  }
  std::vector<uint8_t> set_covered(num_sets, 0);
  std::vector<uint8_t> selected(n, 0);
  GreedyResult result;
  uint64_t covered_total = 0;
  for (uint32_t round = 0; round < k; ++round) {
    NodeId best = kInvalidNode;
    uint64_t best_count = 0;
    bool have_best = false;
    for (NodeId v = 0; v < n; ++v) {
      if (selected[v]) continue;
      if (!have_best || cover_count[v] > best_count) {
        have_best = true;
        best_count = cover_count[v];
        best = v;
      }
    }
    selected[best] = 1;
    for (uint32_t set_id : collection.inverted().Set(best)) {
      if (set_covered[set_id]) continue;
      set_covered[set_id] = 1;
      for (NodeId v : collection.Set(set_id)) --cover_count[v];
    }
    covered_total += best_count;
    result.seeds.push_back(best);
    result.steps.push_back({best, static_cast<double>(best_count) * scale,
                            static_cast<double>(covered_total) * scale, -1.0});
  }
  return result;
}

// Synthetic typical-cascade workload in the regime the acceptance numbers
// quote: n = 4096 candidates, mean cascade length ~64 (uniform 32..96,
// deduplicated), cascade of v always contains v.
struct SelectWorkload {
  std::vector<std::vector<NodeId>> nested;
  FlatSets flat;
  NodeId num_nodes = 0;
};

const SelectWorkload& InfMaxWorkload() {
  static const SelectWorkload* workload = [] {
    auto* w = new SelectWorkload;
    constexpr NodeId kN = 4096;
    w->num_nodes = kN;
    w->nested.resize(kN);
    Rng rng(23);
    for (NodeId v = 0; v < kN; ++v) {
      auto& c = w->nested[v];
      const uint32_t len = 32 + static_cast<uint32_t>(rng.NextBounded(65));
      c.push_back(v);
      for (uint32_t i = 1; i < len; ++i) {
        c.push_back(static_cast<NodeId>(rng.NextBounded(kN)));
      }
      std::sort(c.begin(), c.end());
      c.erase(std::unique(c.begin(), c.end()), c.end());
    }
    w->flat = FlatSets::FromNested(w->nested);
    return w;
  }();
  return *workload;
}

// variant: 0 = cover engine, 1 = legacy CELF, 2 = legacy rescan.
void BM_InfMaxTC(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  const SelectWorkload& w = InfMaxWorkload();
  constexpr uint32_t kK = 256;
  InfMaxTcOptions options;
  options.k = kK;
  for (auto _ : state) {
    if (variant == 0) {
      const auto result = InfMaxTC(w.flat, w.num_nodes, options);
      SOI_CHECK(result.ok());
      benchmark::DoNotOptimize(result->seeds.size());
    } else {
      benchmark::DoNotOptimize(
          LegacyTcSelect(w.nested, w.num_nodes, kK, variant == 1)
              .seeds.size());
    }
  }
}
BENCHMARK(BM_InfMaxTC)->Arg(0)->Arg(1)->Arg(2)->ArgNames({"variant"});

const RrCollection& RrWorkload() {
  static const RrCollection* collection = [] {
    Rng rng(29);
    auto c = RrCollection::Sample(TestGraph(), 16384, &rng);
    SOI_CHECK(c.ok());
    return new RrCollection(std::move(c).value());
  }();
  return *collection;
}

// variant: 0 = cover engine, 1 = legacy rescan.
void BM_RrSelect(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  const RrCollection& collection = RrWorkload();
  constexpr uint32_t kK = 64;
  for (auto _ : state) {
    if (variant == 0) {
      const auto result = collection.SelectSeeds(kK);
      SOI_CHECK(result.ok());
      benchmark::DoNotOptimize(result->seeds.size());
    } else {
      benchmark::DoNotOptimize(LegacyRrSelect(collection, kK).seeds.size());
    }
  }
}
BENCHMARK(BM_RrSelect)->Arg(0)->Arg(1)->ArgNames({"variant"});

// A mixed cascade/spread batch through the service Engine: the per-query
// cost of the query path the CLI `serve` mode exposes, against the one
// resident index (contrast with BM_IndexBuild — the rebuild every
// stand-alone CLI invocation pays).
service::Engine& BenchEngine() {
  static service::Engine* engine = [] {
    service::EngineOptions options;
    options.index.num_worlds = 64;
    auto e = service::Engine::Create(ProbGraph(TestGraph()), options);
    SOI_CHECK(e.ok());
    return new service::Engine(std::move(e).value());
  }();
  return *engine;
}

std::vector<service::Request> MixedBatch(uint32_t size, NodeId num_nodes) {
  std::vector<service::Request> requests;
  requests.reserve(size);
  for (uint32_t i = 0; i < size; ++i) {
    const NodeId v = (i * 131u) % num_nodes;
    service::Request r;
    if (i % 2 == 0) {
      r.payload = service::CascadeRequest{{v}, i % 64};
    } else {
      r.payload = service::SpreadRequest{{v}};
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

void BM_EngineBatch(benchmark::State& state) {
  service::Engine& engine = BenchEngine();
  const auto requests = MixedBatch(static_cast<uint32_t>(state.range(0)),
                                   TestGraph().num_nodes());
  for (auto _ : state) {
    auto batch = engine.RunBatch(requests);
    SOI_CHECK(batch.ok());
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineBatch)->Arg(16)->Arg(256)->ArgNames({"batch"});

// Engine amortization numbers for BENCH_micro.json: one index build
// (what every stand-alone CLI query pays) vs the mean per-query latency of
// a mixed batch against the resident engine. The service layer's reason to
// exist is per_query_seconds << build_seconds.
struct EngineBatchNumbers {
  double build_seconds = 0.0;
  double per_query_seconds = 0.0;
  uint32_t batch_size = 0;
  double queries_per_rebuild = 0.0;
};

EngineBatchNumbers RunEngineBatchComparison() {
  EngineBatchNumbers out;
  service::EngineOptions options;
  options.index.num_worlds = 64;
  WallTimer build_timer;
  auto engine = service::Engine::Create(ProbGraph(TestGraph()), options);
  out.build_seconds = build_timer.ElapsedSeconds();
  SOI_CHECK(engine.ok());

  out.batch_size = 1024;
  const auto requests = MixedBatch(out.batch_size, TestGraph().num_nodes());
  SOI_CHECK(engine->RunBatch(requests).ok());  // warm-up
  constexpr uint32_t kRuns = 8;
  WallTimer batch_timer;
  for (uint32_t run = 0; run < kRuns; ++run) {
    const auto batch = engine->RunBatch(requests);
    SOI_CHECK(batch.ok());
  }
  out.per_query_seconds =
      batch_timer.ElapsedSeconds() / (kRuns * out.batch_size);
  out.queries_per_rebuild = out.build_seconds / out.per_query_seconds;
  return out;
}

// Single-threaded selection comparisons for BENCH_micro.json: the cover
// engine vs the legacy CELF heap and the legacy rescan, with the outputs
// checked bit-identical in-process (seeds and every GreedyStepInfo field).
struct StepEquality {
  static bool Same(const GreedyResult& a, const GreedyResult& b) {
    if (a.seeds != b.seeds || a.steps.size() != b.steps.size()) return false;
    for (size_t i = 0; i < a.steps.size(); ++i) {
      if (a.steps[i].node != b.steps[i].node ||
          a.steps[i].marginal_gain != b.steps[i].marginal_gain ||
          a.steps[i].objective_after != b.steps[i].objective_after) {
        return false;
      }
    }
    return true;
  }
};

template <typename Fn>
double BestOfThreeSeconds(Fn&& fn) {
  double best = 0.0;
  for (int run = 0; run < 3; ++run) {
    WallTimer timer;
    fn();
    const double seconds = timer.ElapsedSeconds();
    if (run == 0 || seconds < best) best = seconds;
  }
  return best;
}

struct InfMaxSelectNumbers {
  uint32_t num_nodes = 0;
  uint32_t k = 0;
  double engine_seconds = 0.0;
  double celf_seconds = 0.0;
  double rescan_seconds = 0.0;
  double speedup_vs_celf = 0.0;
  double speedup_vs_rescan = 0.0;
};

InfMaxSelectNumbers RunInfMaxSelectComparison() {
  InfMaxSelectNumbers out;
  const SelectWorkload& w = InfMaxWorkload();
  out.num_nodes = w.num_nodes;
  out.k = 256;
  InfMaxTcOptions options;
  options.k = out.k;

  const auto engine_result = InfMaxTC(w.flat, w.num_nodes, options);
  SOI_CHECK(engine_result.ok());
  SOI_CHECK(StepEquality::Same(
      *engine_result, LegacyTcSelect(w.nested, w.num_nodes, out.k, true)));
  SOI_CHECK(StepEquality::Same(
      *engine_result, LegacyTcSelect(w.nested, w.num_nodes, out.k, false)));

  out.engine_seconds = BestOfThreeSeconds([&] {
    benchmark::DoNotOptimize(InfMaxTC(w.flat, w.num_nodes, options)->seeds);
  });
  out.celf_seconds = BestOfThreeSeconds([&] {
    benchmark::DoNotOptimize(
        LegacyTcSelect(w.nested, w.num_nodes, out.k, true).seeds);
  });
  out.rescan_seconds = BestOfThreeSeconds([&] {
    benchmark::DoNotOptimize(
        LegacyTcSelect(w.nested, w.num_nodes, out.k, false).seeds);
  });
  out.speedup_vs_celf = out.celf_seconds / out.engine_seconds;
  out.speedup_vs_rescan = out.rescan_seconds / out.engine_seconds;
  return out;
}

struct RrSelectNumbers {
  uint32_t num_sets = 0;
  uint32_t k = 0;
  double engine_seconds = 0.0;
  double rescan_seconds = 0.0;
  double speedup_vs_rescan = 0.0;
};

RrSelectNumbers RunRrSelectComparison() {
  RrSelectNumbers out;
  const RrCollection& collection = RrWorkload();
  out.num_sets = collection.num_sets();
  out.k = 64;

  const auto engine_result = collection.SelectSeeds(out.k);
  SOI_CHECK(engine_result.ok());
  SOI_CHECK(
      StepEquality::Same(*engine_result, LegacyRrSelect(collection, out.k)));

  out.engine_seconds = BestOfThreeSeconds([&] {
    benchmark::DoNotOptimize(collection.SelectSeeds(out.k)->seeds);
  });
  out.rescan_seconds = BestOfThreeSeconds([&] {
    benchmark::DoNotOptimize(LegacyRrSelect(collection, out.k).seeds);
  });
  out.speedup_vs_rescan = out.rescan_seconds / out.engine_seconds;
  return out;
}

// Cold-start-to-first-query numbers for BENCH_micro.json: rebuilding the
// index from the graph (CascadeIndex::Build at the same seed, then one
// query — what `serve --graph` pays) vs the snapshot path (mmap +
// structural validation + pointer fixup, then the same query — the closure
// cache is read, never rebuilt). Also records snapshot create time and
// file size vs the index's in-memory footprint.
struct SnapshotRestartNumbers {
  double create_seconds = 0.0;
  double rebuild_restart_seconds = 0.0;
  double snapshot_restart_seconds = 0.0;
  double speedup_vs_rebuild = 0.0;
  uint64_t snapshot_file_bytes = 0;
  uint64_t index_approx_bytes = 0;
};

uint64_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  SOI_CHECK(f != nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  SOI_CHECK(size >= 0);
  return static_cast<uint64_t>(size);
}

SnapshotRestartNumbers RunSnapshotRestartComparison() {
  SnapshotRestartNumbers out;
  const ProbGraph& g = TestGraph();
  CascadeIndexOptions options;
  options.num_worlds = 64;
  constexpr uint64_t kSeed = 31;
  Rng rng(kSeed);
  const auto index = CascadeIndex::Build(g, options, &rng);
  SOI_CHECK(index.ok() && index->has_closure_cache());
  TypicalCascadeComputer computer(&*index);
  const auto sweep = computer.ComputeAllFlat();
  SOI_CHECK(sweep.ok());
  out.index_approx_bytes = index->stats().approx_bytes;

  const std::string snap_path = "BENCH_restart.soisnap";
  WallTimer create_timer;
  SnapshotWriteOptions write_options;
  write_options.typical = &sweep->cascades;
  SOI_CHECK(WriteSnapshot(g, *index, snap_path, write_options).ok());
  out.create_seconds = create_timer.ElapsedSeconds();
  out.snapshot_file_bytes = FileBytes(snap_path);

  // The first query both restart paths must answer. The graph is already in
  // memory and the snapshot in the page cache (each timed run re-opens the
  // file), so the comparison isolates rebuild vs open work, not disk.
  const NodeId probe = 42 % g.num_nodes();
  const auto reference = [&] {
    CascadeIndex::Workspace ws;
    return index->Cascade(probe, 0, &ws).value();
  }();

  out.rebuild_restart_seconds = BestOfThreeSeconds([&] {
    Rng rebuild_rng(kSeed);
    const auto rebuilt = CascadeIndex::Build(g, options, &rebuild_rng);
    SOI_CHECK(rebuilt.ok() && rebuilt->has_closure_cache());
    CascadeIndex::Workspace ws;
    SOI_CHECK(rebuilt->Cascade(probe, 0, &ws).value() == reference);
  });
  out.snapshot_restart_seconds = BestOfThreeSeconds([&] {
    const auto snap = Snapshot::Open(snap_path);
    SOI_CHECK(snap.ok());
    auto borrowed = (*snap)->MakeIndex();
    SOI_CHECK(borrowed.ok() && borrowed->has_closure_cache());
    CascadeIndex::Workspace ws;
    SOI_CHECK(borrowed->Cascade(probe, 0, &ws).value() == reference);
  });
  out.speedup_vs_rebuild =
      out.rebuild_restart_seconds / out.snapshot_restart_seconds;
  std::remove(snap_path.c_str());
  return out;
}

// Incremental maintenance numbers for BENCH_micro.json (n=4096, l=64): the
// mean single-edge update latency through DynamicIndex::ApplyUpdates vs the
// full rebuild the update replaces — the reason src/dynamic/ exists —
// plus the sustained queries/sec of a dynamic engine under a mixed
// update+query stream. Every update's effect is provably byte-identical to
// that rebuild (tests/dynamic_fuzz_test.cc), so this compares equal work.
struct UpdateStreamNumbers {
  uint32_t nodes = 0;
  uint32_t worlds = 0;
  uint32_t updates = 0;
  double per_update_seconds = 0.0;
  double rebuild_seconds = 0.0;
  double speedup = 0.0;
  double mixed_queries_per_second = 0.0;
  uint32_t mixed_queries = 0;
  uint32_t mixed_updates = 0;
};

UpdateStreamNumbers RunUpdateStreamComparison() {
  UpdateStreamNumbers out;
  Rng gen_rng(31);
  auto topo = GenerateRmat(12, 16384, {}, &gen_rng);
  SOI_CHECK(topo.ok());
  Rng assign_rng(32);
  auto graph = AssignUniform(*topo, &assign_rng, 0.03, 0.25);
  SOI_CHECK(graph.ok());
  out.nodes = graph->num_nodes();

  CascadeIndexOptions options;
  options.num_worlds = 64;
  out.worlds = options.num_worlds;
  auto dynamic = DynamicIndex::Build(*graph, options, /*seed=*/7);
  SOI_CHECK(dynamic.ok());

  // The update stream: toggle reserved arcs (v, v+97) absent from the RMAT
  // sample, plus periodic re-weights — the insert/delete/prob mix a learned
  // edge-probability pipeline emits. Every op is a single-edge batch, which
  // is the latency the serving story quotes.
  const auto make_op = [&](uint32_t i, bool present) {
    GraphUpdate op;
    op.src = static_cast<NodeId>((i * 131u) % out.nodes);
    op.dst = static_cast<NodeId>((op.src + 97u) % out.nodes);
    if (!present) {
      op.kind = UpdateKind::kEdgeInsert;
      // Low-probability arcs, the regime learned edge probabilities live
      // in. A keyed world resamples only when its coin for this arc lands
      // under p, so E[affected worlds] = p * l — the whole reason a single
      // update is a fraction of a rebuild.
      op.prob = 0.03 + 0.0002 * (i % 100);
    } else {
      op.kind = UpdateKind::kEdgeDelete;
    }
    return op;
  };
  // Skip slots whose reserved arc happens to exist in the base graph.
  std::vector<bool> usable(64, true);
  for (uint32_t i = 0; i < 64; ++i) {
    const GraphUpdate probe = make_op(i, false);
    if (dynamic->graph().HasEdge(probe.src, probe.dst)) usable[i] = false;
  }
  out.updates = 0;
  WallTimer update_timer;
  for (uint32_t round = 0; round < 2; ++round) {  // insert pass, delete pass
    for (uint32_t i = 0; i < 64; ++i) {
      if (!usable[i]) continue;
      const GraphUpdate op = make_op(i, round == 1);
      const auto stats =
          dynamic->ApplyUpdates(std::span<const GraphUpdate>(&op, 1));
      SOI_CHECK(stats.ok());
      ++out.updates;
    }
  }
  out.per_update_seconds = update_timer.ElapsedSeconds() / out.updates;

  // The rebuild each of those updates replaced (the two end states are
  // identical graphs, so any iteration is representative).
  auto materialized = dynamic->MaterializeGraph();
  SOI_CHECK(materialized.ok());
  WallTimer rebuild_timer;
  auto rebuilt = DynamicIndex::Build(*materialized, options, /*seed=*/7);
  out.rebuild_seconds = rebuild_timer.ElapsedSeconds();
  SOI_CHECK(rebuilt.ok());
  out.speedup = out.rebuild_seconds / out.per_update_seconds;

  // Mixed stream through the service facade: 1 update per 16 queries, the
  // queries answered from the incrementally patched index.
  service::EngineOptions engine_options;
  engine_options.index = options;
  engine_options.seed = 7;
  auto engine =
      service::Engine::CreateDynamic(std::move(*materialized), engine_options);
  SOI_CHECK(engine.ok());
  const auto queries = MixedBatch(16, out.nodes);
  constexpr uint32_t kMixedRounds = 64;
  WallTimer mixed_timer;
  for (uint32_t round = 0; round < kMixedRounds; ++round) {
    // Each usable reserved arc is absent after the delete pass above, so
    // one insert per slot is valid exactly once.
    if (usable[round]) {
      service::Request update;
      update.payload = service::UpdateRequest{{make_op(round, false)}};
      SOI_CHECK(engine->Run(update).ok());
      ++out.mixed_updates;
    }
    const auto batch = engine->RunBatch(queries);
    SOI_CHECK(batch.ok());
    out.mixed_queries += static_cast<uint32_t>(queries.size());
  }
  out.mixed_queries_per_second =
      out.mixed_queries / mixed_timer.ElapsedSeconds();
  return out;
}

// Scale ceiling under a fixed memory budget (the tier hierarchy's headline
// number): the largest n in a doubling RMAT family (~10 arcs/node, p in
// [0.05, 0.40]) whose per-world reachability state is fully admitted under
// 512 MiB by the legacy materialized-only policy vs the tiered auto policy,
// plus the labels-vs-materialized sweep latency ratio at the base scale
// with an in-process byte-equality check (the tier contract).
struct ScaleNNumbers {
  uint32_t worlds = 0;
  uint64_t budget_bytes = 0;
  uint32_t max_n_materialized = 0;
  uint32_t max_n_auto = 0;
  // The auto policy was still fully admitted at the largest size tried, so
  // max_n_auto is a lower bound, not a ceiling.
  bool auto_hit_doubling_cap = false;
  uint64_t mat_bytes_per_world = 0;    // base scale, fully materialized
  uint64_t label_bytes_per_world = 0;  // the same worlds re-tiered to labels
  double materialized_sweep_seconds = 0.0;
  double labels_sweep_seconds = 0.0;
  double latency_ratio = 0.0;  // labels / materialized
  uint64_t worlds_built = 0;
};

ScaleNNumbers RunScaleNComparison() {
  constexpr uint32_t kMinScale = 12;  // n = 4096, the sweep's regime
  constexpr uint32_t kMaxScale = 16;  // n = 65536, the CI smoke's regime
  ScaleNNumbers out;
  out.worlds = 16;
  out.budget_bytes = 512ull << 20;

  // Seeds derive from the scale only, so the two policies price exactly the
  // same worlds at each size — the comparison isolates the policy.
  const auto build_at = [&out](uint32_t scale, ClosureTierPolicy policy) {
    Rng gen_rng(100 + scale);
    auto topo = GenerateRmat(scale, 10ull << scale, {}, &gen_rng);
    SOI_CHECK(topo.ok());
    Rng assign_rng(200 + scale);
    auto graph = AssignUniform(*topo, &assign_rng, 0.05, 0.40);
    SOI_CHECK(graph.ok());
    CascadeIndexOptions options;
    options.num_worlds = out.worlds;
    options.closure_budget_mb = out.budget_bytes >> 20;
    options.tier_policy = policy;
    Rng rng(300 + scale);
    auto index = CascadeIndex::Build(*graph, options, &rng);
    SOI_CHECK(index.ok());
    out.worlds_built += index->num_worlds();
    return std::move(index).value();
  };

  // Admission ceilings: materialized-only is all-or-nothing, so it is
  // admitted iff every world materialized; auto is admitted while no world
  // falls all the way to the traversal tier.
  for (uint32_t scale = kMinScale; scale <= kMaxScale; ++scale) {
    const CascadeIndex index =
        build_at(scale, ClosureTierPolicy::kMaterialized);
    if (index.stats().worlds_materialized != out.worlds) break;
    out.max_n_materialized = 1u << scale;
  }
  for (uint32_t scale = kMinScale; scale <= kMaxScale; ++scale) {
    const CascadeIndex index = build_at(scale, ClosureTierPolicy::kAuto);
    if (index.stats().worlds_traversal != 0) break;
    out.max_n_auto = 1u << scale;
    out.auto_hit_doubling_cap = scale == kMaxScale;
  }

  // Latency ratio at the base scale: one index, re-tiered in place between
  // sweeps, so both runs extract from identical worlds.
  CascadeIndex index = build_at(kMinScale, ClosureTierPolicy::kMaterialized);
  SOI_CHECK(index.stats().worlds_materialized == out.worlds);
  out.mat_bytes_per_world = index.stats().closure_bytes / out.worlds;
  const uint32_t prev_threads = GlobalThreads();
  SetGlobalThreads(1);
  WallTimer mat_timer;
  TypicalCascadeComputer mat_computer(&index);
  const auto mat_all = mat_computer.ComputeAll();
  out.materialized_sweep_seconds = mat_timer.ElapsedSeconds();
  SOI_CHECK(mat_all.ok());

  index.RebuildClosureTiersBytes(out.budget_bytes,
                                 ClosureTierPolicy::kLabels);
  SOI_CHECK(index.stats().worlds_labeled == out.worlds);
  out.label_bytes_per_world = index.stats().label_bytes / out.worlds;
  WallTimer lab_timer;
  TypicalCascadeComputer lab_computer(&index);
  const auto lab_all = lab_computer.ComputeAll();
  out.labels_sweep_seconds = lab_timer.ElapsedSeconds();
  SOI_CHECK(lab_all.ok());
  SetGlobalThreads(prev_threads);

  SOI_CHECK(mat_all->size() == lab_all->size());
  for (size_t v = 0; v < mat_all->size(); ++v) {
    SOI_CHECK((*mat_all)[v].cascade == (*lab_all)[v].cascade);
  }
  out.latency_ratio =
      out.labels_sweep_seconds / out.materialized_sweep_seconds;
  return out;
}

// Times the full single-threaded ComputeAll sweep on both extraction paths
// (closure cache vs per-query traversal), checks the outputs are identical,
// and writes the speedup to BENCH_micro.json — the headline number of the
// closure-cache optimization, kept as a machine-readable artifact so the
// perf trajectory is trackable across commits.
void RunSweepComparison() {
  // A denser workload than TestGraph (cascades in the high hundreds of
  // nodes), matching the regime the paper sweeps its datasets in — this is
  // where per-query extraction cost, not the Jaccard median, dominates the
  // traversal baseline.
  Rng gen_rng(19);
  auto topo = GenerateRmat(12, 40000, {}, &gen_rng);
  SOI_CHECK(topo.ok());
  Rng assign_rng(20);
  auto graph = AssignUniform(*topo, &assign_rng, 0.05, 0.40);
  SOI_CHECK(graph.ok());
  const ProbGraph& g = *graph;
  const uint32_t prev_threads = GlobalThreads();
  SetGlobalThreads(1);

  CascadeIndexOptions options;
  options.num_worlds = 64;

  options.closure_budget_mb = 0;
  Rng rng_a(21);
  const auto traversal_index = CascadeIndex::Build(g, options, &rng_a);
  SOI_CHECK(traversal_index.ok() && !traversal_index->has_closure_cache());

  options.closure_budget_mb = DefaultClosureBudgetMb();
  Rng rng_b(21);
  const auto closure_index = CascadeIndex::Build(g, options, &rng_b);
  SOI_CHECK(closure_index.ok() && closure_index->has_closure_cache());

  WallTimer traversal_timer;
  TypicalCascadeComputer traversal_computer(&*traversal_index);
  const auto traversal_all = traversal_computer.ComputeAll();
  const double traversal_seconds = traversal_timer.ElapsedSeconds();
  SOI_CHECK(traversal_all.ok());

  WallTimer closure_timer;
  TypicalCascadeComputer closure_computer(&*closure_index);
  const auto closure_all = closure_computer.ComputeAll();
  const double closure_seconds = closure_timer.ElapsedSeconds();
  SOI_CHECK(closure_all.ok());

  SOI_CHECK(traversal_all->size() == closure_all->size());
  for (size_t v = 0; v < traversal_all->size(); ++v) {
    SOI_CHECK((*traversal_all)[v].cascade == (*closure_all)[v].cascade);
  }

  // Selection comparisons run inside the same single-thread window so the
  // engine's parallel gain init doesn't flatter it against the serial
  // legacy loops.
  const InfMaxSelectNumbers is = RunInfMaxSelectComparison();
  const RrSelectNumbers rs = RunRrSelectComparison();
  SetGlobalThreads(prev_threads);

  const double speedup = traversal_seconds / closure_seconds;
  const EngineBatchNumbers eb = RunEngineBatchComparison();
  const SnapshotRestartNumbers sn = RunSnapshotRestartComparison();
  const UpdateStreamNumbers us = RunUpdateStreamComparison();
  const ScaleNNumbers sc = RunScaleNComparison();
  // Peak RSS (VmHWM) amortized over the worlds this comparison suite
  // sampled (the google-benchmark phase builds are excluded from the
  // denominator but not the peak — VmHWM is process-wide).
  const uint64_t suite_worlds = traversal_index->num_worlds() +
                                closure_index->num_worlds() + sc.worlds_built;
  const uint64_t peak_rss_bytes = obs::ReadMemoryStats().high_water_bytes;
  const uint64_t bytes_per_world =
      suite_worlds == 0 ? 0 : peak_rss_bytes / suite_worlds;
  std::FILE* f = std::fopen("BENCH_micro.json", "w");
  SOI_CHECK(f != nullptr);
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"soi-bench-micro-v1\",\n"
               "  \"sweep\": {\n"
               "    \"nodes\": %u,\n"
               "    \"worlds\": %u,\n"
               "    \"threads\": 1,\n"
               "    \"closure_cache_bytes\": %llu,\n"
               "    \"traversal_sweep_seconds\": %.6f,\n"
               "    \"closure_sweep_seconds\": %.6f,\n"
               "    \"speedup\": %.3f,\n"
               "    \"outputs_identical\": true\n"
               "  },\n"
               "  \"engine_batch\": {\n"
               "    \"batch_size\": %u,\n"
               "    \"index_build_seconds\": %.6f,\n"
               "    \"per_query_seconds\": %.9f,\n"
               "    \"queries_per_rebuild\": %.1f\n"
               "  },\n"
               "  \"infmax_select\": {\n"
               "    \"nodes\": %u,\n"
               "    \"k\": %u,\n"
               "    \"threads\": 1,\n"
               "    \"engine_seconds\": %.6f,\n"
               "    \"celf_seconds\": %.6f,\n"
               "    \"rescan_seconds\": %.6f,\n"
               "    \"speedup_vs_celf\": %.2f,\n"
               "    \"speedup_vs_rescan\": %.2f,\n"
               "    \"outputs_identical\": true\n"
               "  },\n"
               "  \"rr_select\": {\n"
               "    \"rr_sets\": %u,\n"
               "    \"k\": %u,\n"
               "    \"threads\": 1,\n"
               "    \"engine_seconds\": %.6f,\n"
               "    \"rescan_seconds\": %.6f,\n"
               "    \"speedup_vs_rescan\": %.2f,\n"
               "    \"outputs_identical\": true\n"
               "  },\n"
               "  \"snapshot_restart\": {\n"
               "    \"worlds\": 64,\n"
               "    \"create_seconds\": %.6f,\n"
               "    \"rebuild_restart_seconds\": %.6f,\n"
               "    \"snapshot_restart_seconds\": %.6f,\n"
               "    \"speedup_vs_rebuild\": %.1f,\n"
               "    \"snapshot_file_bytes\": %llu,\n"
               "    \"index_approx_bytes\": %llu,\n"
               "    \"first_query_identical\": true\n"
               "  },\n"
               "  \"update_stream\": {\n"
               "    \"nodes\": %u,\n"
               "    \"worlds\": %u,\n"
               "    \"updates\": %u,\n"
               "    \"per_update_seconds\": %.9f,\n"
               "    \"full_rebuild_seconds\": %.6f,\n"
               "    \"speedup_vs_rebuild\": %.1f,\n"
               "    \"mixed_stream_queries_per_second\": %.1f,\n"
               "    \"mixed_stream_queries\": %u,\n"
               "    \"mixed_stream_updates\": %u,\n"
               "    \"rebuild_equivalent\": true\n"
               "  },\n"
               "  \"scale_n\": {\n"
               "    \"worlds\": %u,\n"
               "    \"budget_bytes\": %llu,\n"
               "    \"max_n_materialized\": %u,\n"
               "    \"max_n_auto\": %u,\n"
               "    \"auto_hit_doubling_cap\": %s,\n"
               "    \"n_ratio\": %.1f,\n"
               "    \"materialized_bytes_per_world\": %llu,\n"
               "    \"labels_bytes_per_world\": %llu,\n"
               "    \"bytes_per_world_ratio\": %.1f,\n"
               "    \"materialized_sweep_seconds\": %.6f,\n"
               "    \"labels_sweep_seconds\": %.6f,\n"
               "    \"labels_vs_materialized_latency_ratio\": %.2f,\n"
               "    \"outputs_identical\": true\n"
               "  },\n"
               "  \"peak_rss_bytes\": %llu,\n"
               "  \"bytes_per_world\": %llu\n"
               "}\n",
               g.num_nodes(), closure_index->num_worlds(),
               static_cast<unsigned long long>(
                   closure_index->stats().closure_bytes),
               traversal_seconds, closure_seconds, speedup, eb.batch_size,
               eb.build_seconds, eb.per_query_seconds, eb.queries_per_rebuild,
               is.num_nodes, is.k, is.engine_seconds, is.celf_seconds,
               is.rescan_seconds, is.speedup_vs_celf, is.speedup_vs_rescan,
               rs.num_sets, rs.k, rs.engine_seconds, rs.rescan_seconds,
               rs.speedup_vs_rescan, sn.create_seconds,
               sn.rebuild_restart_seconds, sn.snapshot_restart_seconds,
               sn.speedup_vs_rebuild,
               static_cast<unsigned long long>(sn.snapshot_file_bytes),
               static_cast<unsigned long long>(sn.index_approx_bytes),
               us.nodes, us.worlds, us.updates, us.per_update_seconds,
               us.rebuild_seconds, us.speedup, us.mixed_queries_per_second,
               us.mixed_queries, us.mixed_updates, sc.worlds,
               static_cast<unsigned long long>(sc.budget_bytes),
               sc.max_n_materialized, sc.max_n_auto,
               sc.auto_hit_doubling_cap ? "true" : "false",
               static_cast<double>(sc.max_n_auto) /
                   std::max(1u, sc.max_n_materialized),
               static_cast<unsigned long long>(sc.mat_bytes_per_world),
               static_cast<unsigned long long>(sc.label_bytes_per_world),
               static_cast<double>(sc.mat_bytes_per_world) /
                   std::max<uint64_t>(1, sc.label_bytes_per_world),
               sc.materialized_sweep_seconds, sc.labels_sweep_seconds,
               sc.latency_ratio,
               static_cast<unsigned long long>(peak_rss_bytes),
               static_cast<unsigned long long>(bytes_per_world));
  std::fclose(f);
  std::printf("sweep: traversal %.3fs, closure %.3fs, speedup %.2fx "
              "(wrote BENCH_micro.json)\n",
              traversal_seconds, closure_seconds, speedup);
  std::printf("engine: build %.3fs, per-query %.1fus "
              "(%.0f queries per rebuild)\n",
              eb.build_seconds, eb.per_query_seconds * 1e6,
              eb.queries_per_rebuild);
  std::printf("infmax select (n=%u, k=%u): engine %.4fs, celf %.4fs "
              "(%.1fx), rescan %.4fs (%.1fx)\n",
              is.num_nodes, is.k, is.engine_seconds, is.celf_seconds,
              is.speedup_vs_celf, is.rescan_seconds, is.speedup_vs_rescan);
  std::printf("rr select (sets=%u, k=%u): engine %.4fs, rescan %.4fs "
              "(%.1fx)\n",
              rs.num_sets, rs.k, rs.engine_seconds, rs.rescan_seconds,
              rs.speedup_vs_rescan);
  std::printf("snapshot restart: create %.3fs, rebuild from graph %.4fs, "
              "mmap %.4fs (%.1fx), file %.1f MiB vs ~%.1f MiB in memory\n",
              sn.create_seconds, sn.rebuild_restart_seconds,
              sn.snapshot_restart_seconds, sn.speedup_vs_rebuild,
              static_cast<double>(sn.snapshot_file_bytes) / (1 << 20),
              static_cast<double>(sn.index_approx_bytes) / (1 << 20));
  std::printf("update stream (n=%u, l=%u): %.1fus per single-edge update vs "
              "%.3fs full rebuild (%.0fx); mixed stream %.0f queries/s "
              "(%u queries, %u updates)\n",
              us.nodes, us.worlds, us.per_update_seconds * 1e6,
              us.rebuild_seconds, us.speedup, us.mixed_queries_per_second,
              us.mixed_queries, us.mixed_updates);
  std::printf("scale_n (l=%u, 512 MiB budget): max n materialized-only %u, "
              "auto-tier %u%s; bytes/world materialized %llu vs labels %llu "
              "(%.0fx); labels sweep %.2fx the materialized sweep time\n",
              sc.worlds, sc.max_n_materialized, sc.max_n_auto,
              sc.auto_hit_doubling_cap ? " (doubling cap)" : "",
              static_cast<unsigned long long>(sc.mat_bytes_per_world),
              static_cast<unsigned long long>(sc.label_bytes_per_world),
              static_cast<double>(sc.mat_bytes_per_world) /
                  std::max<uint64_t>(1, sc.label_bytes_per_world),
              sc.latency_ratio);
  std::printf("memory: peak_rss_bytes=%llu bytes_per_world=%llu "
              "(over %llu worlds)\n",
              static_cast<unsigned long long>(peak_rss_bytes),
              static_cast<unsigned long long>(bytes_per_world),
              static_cast<unsigned long long>(suite_worlds));
}

}  // namespace
}  // namespace soi

// Expanded BENCHMARK_MAIN so the run can emit its metrics sidecar: the
// registry accumulates across all benchmark iterations, which makes the
// sidecar a phase-level complement to google-benchmark's per-op numbers.
int main(int argc, char** argv) {
  soi::WallTimer total_timer;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  soi::RunSweepComparison();
  benchmark::Shutdown();
  if (soi::obs::Enabled()) {
    const soi::Status ok = soi::obs::WriteMetricsJson(
        "BENCH_micro.metrics.json", total_timer.ElapsedSeconds());
    if (!ok.ok()) {
      std::fprintf(stderr, "metrics sidecar: %s\n", ok.ToString().c_str());
    } else {
      std::printf("wrote BENCH_micro.metrics.json\n");
    }
  }
  return 0;
}
