// Differential update-fuzz harness for the incremental maintenance layer
// (src/dynamic/ + service::Engine dynamic mode).
//
// The contract under test is *exact rebuild equivalence*: after any
// sequence of successful update batches, the incrementally maintained
// engine must be indistinguishable — snapshot bytes of its index, graph
// fingerprint, and every query answer — from a fresh CreateDynamic engine
// and a fresh static Create engine built from the updated graph with the
// same options and seed.
//
// The harness drives >= 1000 randomized insert / delete / prob-update ops
// per model through the engine in small batches, interleaved with typical /
// cascade / spread / seed_select queries (whose wire-formatted responses
// form a transcript), and at every ~100-op checkpoint rebuilds from scratch
// and byte-compares. The whole run executes twice, at 1 and at 8 threads;
// transcripts and final snapshot bytes must match exactly (the runtime
// determinism contract extends to the update path). A separate test pins
// the starting point: DynamicIndex::Build is the static CascadeIndex::Build.

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/threshold.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/dynamic_index.h"
#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "graph/prob_graph.h"
#include "runtime/parallel_for.h"
#include "service/engine.h"
#include "service/protocol.h"
#include "snapshot/writer.h"
#include "util/rng.h"

namespace soi::service {
namespace {

constexpr uint32_t kNodes = 40;
constexpr uint32_t kWorlds = 32;
constexpr uint64_t kEngineSeed = 17;
constexpr uint32_t kMinOps = 1000;
constexpr uint32_t kCheckpointEvery = 100;
// Small enough that even ~50 in-edges stay within the LT weight budget.
constexpr double kMinProb = 0.002;
constexpr double kMaxProb = 0.02;

// Generates valid-by-construction updates against a shadow copy of the
// edge set (so every op the harness sends is expected to succeed, and a
// failure is a real bug, not a generator artifact). LT in-weight budgets
// are tracked per node and respected for both models so the same op stream
// shape works for either.
class UpdateStream {
 public:
  explicit UpdateStream(uint64_t seed) : rng_(seed) {}

  void SeedEdge(NodeId u, NodeId v, double p) {
    edges_[{u, v}] = p;
    in_weight_[v] += p;
  }

  GraphUpdate Next() {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const uint32_t dice = rng_.NextBounded(10);
      if (dice < 4 || edges_.empty()) {
        const NodeId u = static_cast<NodeId>(rng_.NextBounded(kNodes));
        const NodeId v = static_cast<NodeId>(rng_.NextBounded(kNodes));
        const double p = NextProb();
        if (u == v || edges_.count({u, v}) != 0) continue;
        if (in_weight_[v] + p > 0.98) continue;
        SeedEdge(u, v, p);
        return GraphUpdate{UpdateKind::kEdgeInsert, u, v, p};
      }
      auto it = edges_.begin();
      std::advance(it, rng_.NextBounded(static_cast<uint32_t>(edges_.size())));
      const auto [u, v] = it->first;
      if (dice < 7) {
        in_weight_[v] -= it->second;
        edges_.erase(it);
        return GraphUpdate{UpdateKind::kEdgeDelete, u, v, 0.0};
      }
      const double p = NextProb();
      if (in_weight_[v] - it->second + p > 0.98) continue;
      in_weight_[v] += p - it->second;
      it->second = p;
      return GraphUpdate{UpdateKind::kProbUpdate, u, v, p};
    }
    SOI_CHECK(false);  // generator starved — shrink kNodes or probs
    return {};
  }

 private:
  double NextProb() {
    return kMinProb + (kMaxProb - kMinProb) * rng_.NextDouble();
  }

  Rng rng_;
  std::map<std::pair<NodeId, NodeId>, double> edges_;
  std::map<NodeId, double> in_weight_;
};

// A sparse deterministic base graph, LT-valid by construction.
ProbGraph BaseGraph(UpdateStream* stream) {
  Rng rng(99);
  ProbGraphBuilder b(kNodes);
  std::map<std::pair<NodeId, NodeId>, bool> seen;
  uint32_t added = 0;
  while (added < 150) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(kNodes));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(kNodes));
    if (u == v || seen.count({u, v}) != 0) continue;
    const double p = kMinProb + (kMaxProb - kMinProb) * rng.NextDouble();
    SOI_CHECK(b.AddEdge(u, v, p).ok());
    seen[{u, v}] = true;
    stream->SeedEdge(u, v, p);
    ++added;
  }
  auto g = b.Build();
  SOI_CHECK(g.ok());
  return std::move(g).value();
}

EngineOptions DynamicOptions(PropagationModel model) {
  EngineOptions options;
  options.index.num_worlds = kWorlds;
  options.index.model = model;
  options.seed = kEngineSeed;
  options.max_batch = 64;
  return options;
}

std::string Transcribe(int64_t id, const Result<Response>& result) {
  return FormatResponseLine(id, result);
}

// Runs queries whose answers depend on every layer the updates patch:
// condensations (cascade), closures / spread accumulators (spread), and
// the typical-cascade table + cover engine (typical, seed_select).
std::string ProbeQueries(Engine* engine, uint64_t salt) {
  Rng rng(salt);
  std::vector<Request> batch;
  Request typical;
  typical.payload = TypicalCascadeRequest{
      {static_cast<NodeId>(rng.NextBounded(kNodes))}, false};
  batch.push_back(typical);
  Request cascade;
  cascade.payload =
      CascadeRequest{{static_cast<NodeId>(rng.NextBounded(kNodes))},
                     static_cast<uint32_t>(rng.NextBounded(kWorlds))};
  batch.push_back(cascade);
  Request spread;
  spread.payload =
      SpreadRequest{{static_cast<NodeId>(rng.NextBounded(kNodes)),
                     static_cast<NodeId>(rng.NextBounded(kNodes))}};
  batch.push_back(spread);
  Request select;
  select.payload = SeedSelectRequest{3, "tc"};
  batch.push_back(select);

  auto responses = engine->RunBatch(batch);
  std::string out;
  if (!responses.ok()) {
    out += "batch-error: " + responses.status().ToString() + "\n";
    return out;
  }
  for (size_t i = 0; i < responses->size(); ++i) {
    out += Transcribe(static_cast<int64_t>(i), (*responses)[i]);
  }
  return out;
}

// Snapshot bytes of `engine`'s index over `graph`: the condensations plus
// the retained closures, labels and tier table.
std::string IndexBytes(const ProbGraph& graph, const Engine& engine) {
  auto bytes = SerializeSnapshot(graph, engine.index());
  SOI_CHECK(bytes.ok());
  return std::move(bytes).value();
}

struct FuzzRun {
  std::string transcript;    // every interleaved query response, in order
  std::string final_index;   // IndexBytes after the last op
  uint64_t fingerprint = 0;  // graph fingerprint after the last op
  uint32_t applied = 0;
};

// The core differential loop. Asserts rebuild equivalence at every
// checkpoint; returns the transcript for cross-thread-count comparison.
FuzzRun RunFuzz(PropagationModel model, uint32_t threads) {
  SetGlobalThreads(threads);
  UpdateStream stream(model == PropagationModel::kLinearThreshold ? 7 : 5);
  ProbGraph base = BaseGraph(&stream);
  const EngineOptions options = DynamicOptions(model);

  auto engine = Engine::CreateDynamic(std::move(base), options);
  SOI_CHECK(engine.ok());

  FuzzRun run;
  Rng shape_rng(model == PropagationModel::kLinearThreshold ? 71 : 51);
  uint32_t next_checkpoint = kCheckpointEvery;
  uint64_t iteration = 0;
  while (run.applied < kMinOps) {
    ++iteration;
    // One update batch of 1..8 ops...
    const uint32_t batch_size = 1 + shape_rng.NextBounded(8);
    std::vector<GraphUpdate> ops;
    ops.reserve(batch_size);
    for (uint32_t i = 0; i < batch_size; ++i) ops.push_back(stream.Next());
    Request update;
    update.payload = UpdateRequest{ops};
    auto response = engine->Run(update);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) break;
    run.applied += static_cast<uint32_t>(ops.size());
    run.transcript +=
        Transcribe(static_cast<int64_t>(iteration), response);

    // ...interleaved with queries (the cheap ones every iteration, the
    // full typical-sweep-backed seed_select every 16th).
    if (iteration % 16 == 0) {
      run.transcript += ProbeQueries(&*engine, 1000 + iteration);
    } else {
      Request spread;
      spread.payload = SpreadRequest{
          {static_cast<NodeId>(shape_rng.NextBounded(kNodes))}};
      run.transcript += Transcribe(-1, engine->Run(spread));
    }

    if (run.applied < next_checkpoint && run.applied < kMinOps) continue;
    next_checkpoint += kCheckpointEvery;

    // Checkpoint: from-scratch builds on the updated graph — dynamic and
    // static — must agree byte-for-byte: index, fingerprint, and probe
    // answers.
    auto state = engine->CaptureDynamicState();
    EXPECT_TRUE(state.ok()) << state.status().ToString();
    if (!state.ok()) break;
    const uint64_t live_fp = engine->fingerprint();
    EXPECT_EQ(live_fp, GraphFingerprint(state->graph));
    auto fresh = Engine::CreateDynamic(state->graph, options);
    auto fresh_static = Engine::Create(std::move(state->graph), options);
    EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_TRUE(fresh_static.ok()) << fresh_static.status().ToString();
    if (!fresh.ok() || !fresh_static.ok()) break;
    const std::string live_bytes = IndexBytes(fresh->graph(), *engine);
    EXPECT_EQ(live_bytes, IndexBytes(fresh->graph(), *fresh))
        << "index bytes diverged at op " << run.applied;
    EXPECT_EQ(live_bytes, IndexBytes(fresh->graph(), *fresh_static))
        << "index bytes diverged from a static build at op " << run.applied;
    EXPECT_EQ(live_fp, fresh->fingerprint());
    const std::string live_answers = ProbeQueries(&*engine, 31 + run.applied);
    EXPECT_EQ(live_answers, ProbeQueries(&*fresh, 31 + run.applied))
        << "query answers diverged at op " << run.applied;
    EXPECT_EQ(live_answers, ProbeQueries(&*fresh_static, 31 + run.applied))
        << "query answers diverged from a static build at op "
        << run.applied;
  }

  auto final_state = engine->CaptureDynamicState();
  SOI_CHECK(final_state.ok());
  run.final_index = IndexBytes(final_state->graph, *engine);
  run.fingerprint = engine->fingerprint();
  SetGlobalThreads(0);
  return run;
}

class DynamicFuzz : public ::testing::TestWithParam<PropagationModel> {};

TEST_P(DynamicFuzz, RebuildEquivalenceAndThreadCountInvariance) {
  const FuzzRun one = RunFuzz(GetParam(), 1);
  const FuzzRun eight = RunFuzz(GetParam(), 8);
  EXPECT_GE(one.applied, kMinOps);
  // The exact same run at 8 threads: byte-identical transcript and index.
  EXPECT_EQ(one.transcript, eight.transcript);
  EXPECT_EQ(one.final_index, eight.final_index);
  EXPECT_EQ(one.fingerprint, eight.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(
    Models, DynamicFuzz,
    ::testing::Values(PropagationModel::kIndependentCascade,
                      PropagationModel::kLinearThreshold),
    [](const ::testing::TestParamInfo<PropagationModel>& info) {
      return info.param == PropagationModel::kLinearThreshold ? "Lt" : "Ic";
    });

// DynamicIndex::Build is CascadeIndex::Build(graph, options, Rng(seed)):
// identical snapshot bytes for IC with every world materialized, IC with
// mixed tiers, and LT, at 1 and 8 threads.
TEST(DynamicBuildTest, SnapshotBytesEqualStaticBuild) {
  Rng gen_rng(17);
  auto topo = GenerateRmat(10, 6000, {}, &gen_rng);
  ASSERT_TRUE(topo.ok());
  Rng assign_rng(18);
  auto ic = AssignUniform(*topo, &assign_rng, 0.2, 0.5);
  ASSERT_TRUE(ic.ok());
  auto lt = NormalizeLtWeights(*ic, 0.9);
  ASSERT_TRUE(lt.ok());
  const std::tuple<const ProbGraph*, PropagationModel, uint64_t> cases[] = {
      {&*ic, PropagationModel::kIndependentCascade, 512},
      {&*ic, PropagationModel::kIndependentCascade, 1},  // mixed tiers
      {&*lt, PropagationModel::kLinearThreshold, 512}};
  for (const auto& [graph, model, budget_mb] : cases) {
    CascadeIndexOptions options;
    options.num_worlds = 16;
    options.model = model;
    options.closure_budget_mb = budget_mb;
    options.tier_policy = ClosureTierPolicy::kAuto;
    for (uint32_t threads : {1u, 8u}) {
      SetGlobalThreads(threads);
      Rng rng(kEngineSeed);
      auto built = CascadeIndex::Build(*graph, options, &rng);
      auto dynamic = DynamicIndex::Build(*graph, options, kEngineSeed);
      ASSERT_TRUE(built.ok() && dynamic.ok());
      const CascadeIndexStats& st = built->stats();
      EXPECT_EQ(st.worlds_materialized == 16, budget_mb == 512);
      EXPECT_EQ(st.worlds_materialized > 0 && st.worlds_labeled > 0,
                budget_mb == 1);
      EXPECT_TRUE(SerializeSnapshot(*graph, *built).value() ==
                  SerializeSnapshot(*graph, dynamic->index()).value())
          << "budget " << budget_mb << " MiB, " << threads << " threads";
    }
  }
  SetGlobalThreads(0);
}

// Invalid ops must leave the engine untouched (batch atomicity seen from
// the service layer): a batch with a bad tail op changes nothing.
TEST(DynamicFuzzAtomicity, FailedBatchLeavesIndexByteIdentical) {
  UpdateStream stream(3);
  ProbGraph base = BaseGraph(&stream);
  auto engine = Engine::CreateDynamic(
      std::move(base), DynamicOptions(PropagationModel::kIndependentCascade));
  ASSERT_TRUE(engine.ok());
  const std::string before = IndexBytes(engine->graph(), *engine);
  const uint64_t fp_before = engine->fingerprint();

  std::vector<GraphUpdate> ops;
  ops.push_back(stream.Next());
  ops.push_back(GraphUpdate{UpdateKind::kEdgeInsert, 0, 0, 0.5});  // self loop
  Request update;
  update.payload = UpdateRequest{ops};
  auto response = engine->Run(update);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(IndexBytes(engine->graph(), *engine), before);
  EXPECT_EQ(engine->fingerprint(), fp_before);
  EXPECT_EQ(engine->drift(), 0u);
}

}  // namespace
}  // namespace soi::service
