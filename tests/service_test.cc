// Tests for the query service layer (src/service/): the Engine facade's
// non-aborting error model, deadline and admission control, batch
// determinism across thread counts, the line-JSON protocol, and the
// stream/TCP serve loops. This suite runs in the TSan CI job, so every
// concurrent path it exercises is also a data-race check.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.h"
#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "graph/prob_graph.h"
#include "runtime/parallel_for.h"
#include "service/engine.h"
#include "service/hot_swap.h"
#include "service/protocol.h"
#include "service/server.h"
#include "snapshot/writer.h"
#include "util/rng.h"

namespace soi::service {
namespace {

// The running example from the paper (Figure 1 topology).
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

ProbGraph RandomGraph(NodeId n, uint64_t m, uint64_t seed) {
  Rng rng(seed);
  auto topology = GenerateErdosRenyi(n, m, /*undirected=*/false, &rng);
  SOI_CHECK(topology.ok());
  auto graph = AssignUniform(*topology, &rng);
  SOI_CHECK(graph.ok());
  return std::move(graph).value();
}

Engine MakeEngine(ProbGraph graph, EngineOptions options = {}) {
  if (options.index.num_worlds == 256) options.index.num_worlds = 16;
  auto engine = Engine::Create(std::move(graph), options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

Request MakeCascade(std::vector<NodeId> seeds, uint32_t world) {
  Request r;
  r.payload = CascadeRequest{std::move(seeds), world};
  return r;
}

TEST(EngineTest, CreateValidatesOptions) {
  EngineOptions options;
  options.max_batch = 0;
  EXPECT_FALSE(Engine::Create(PaperExampleGraph(), options).ok());
  options.max_batch = 1;
  options.max_in_flight = 0;
  EXPECT_FALSE(Engine::Create(PaperExampleGraph(), options).ok());
}

TEST(EngineTest, InvalidNodeIdReturnsStatusNotAbort) {
  Engine engine = MakeEngine(PaperExampleGraph());
  Request request = MakeCascade({99}, 0);
  const Result<Response> result = engine.Run(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("out of range"), std::string::npos);
}

TEST(EngineTest, EmptySeedSetReturnsInvalidArgument) {
  Engine engine = MakeEngine(PaperExampleGraph());
  Request request;
  request.payload = SpreadRequest{{}};
  const Result<Response> result = engine.Run(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("empty"), std::string::npos);
}

TEST(EngineTest, OutOfRangeWorldReturnsInvalidArgument) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const Result<Response> result = engine.Run(MakeCascade({0}, 1u << 20));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, UnknownSeedSelectMethodReturnsInvalidArgument) {
  Engine engine = MakeEngine(PaperExampleGraph());
  Request request;
  request.payload = SeedSelectRequest{2, "magic"};
  const Result<Response> result = engine.Run(request);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("magic"), std::string::npos);
}

TEST(EngineTest, EngineReuseAcrossRequestTypes) {
  Engine engine = MakeEngine(PaperExampleGraph());
  Request typical;
  typical.payload = TypicalCascadeRequest{{4}, false};
  Request spread;
  spread.payload = SpreadRequest{{4}};
  Request select_tc;
  select_tc.payload = SeedSelectRequest{2, "tc"};
  Request select_std;
  select_std.payload = SeedSelectRequest{2, "std"};
  Request reliability;
  reliability.payload = ReliabilityRequest{{4}, 0.5};

  for (const Request* request :
       {&typical, &spread, &select_tc, &select_std, &reliability}) {
    const Result<Response> result = engine.Run(*request);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  // Same engine, same answers on a repeat run (cached state is read-only).
  const Result<Response> once = engine.Run(select_tc);
  const Result<Response> again = engine.Run(select_tc);
  ASSERT_TRUE(once.ok());
  ASSERT_TRUE(again.ok());
  const auto& first = std::get<SeedSelectResponse>(once->payload);
  const auto& second = std::get<SeedSelectResponse>(again->payload);
  EXPECT_EQ(first.seeds, second.seeds);
  EXPECT_EQ(first.objective, second.objective);
}

TEST(EngineTest, SpreadMatchesCascadeSizeAverage) {
  Engine engine = MakeEngine(PaperExampleGraph());
  Request spread;
  spread.payload = SpreadRequest{{4}};
  const Result<Response> result = engine.Run(spread);
  ASSERT_TRUE(result.ok());
  double total = 0.0;
  for (uint32_t i = 0; i < engine.index().num_worlds(); ++i) {
    const Result<Response> one = engine.Run(MakeCascade({4}, i));
    ASSERT_TRUE(one.ok());
    total +=
        static_cast<double>(std::get<CascadeResponse>(one->payload).cascade.size());
  }
  EXPECT_DOUBLE_EQ(std::get<SpreadResponse>(result->payload).spread,
                   total / engine.index().num_worlds());
}

TEST(EngineTest, BatchTooLargeRejectedWhole) {
  EngineOptions options;
  options.max_batch = 4;
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  std::vector<Request> requests(5, MakeCascade({0}, 0));
  const auto batch = engine.RunBatch(requests);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.in_flight(), 0u);  // slot released on rejection
}

TEST(EngineTest, InFlightIsZeroWhenIdle) {
  Engine engine = MakeEngine(PaperExampleGraph());
  EXPECT_EQ(engine.in_flight(), 0u);
  ASSERT_TRUE(engine.Run(MakeCascade({0}, 0)).ok());
  EXPECT_EQ(engine.in_flight(), 0u);
}

// Fake clock: every call advances by 10ms, so the second reading (request
// pickup) is 10ms after the first (batch admission).
std::atomic<uint64_t> g_fake_now_ns{0};
uint64_t FakeClock() { return g_fake_now_ns.fetch_add(10'000'000ull); }

TEST(EngineTest, DeadlineExceededViaFakeClock) {
  EngineOptions options;
  options.clock_ns = &FakeClock;
  Engine engine = MakeEngine(PaperExampleGraph(), options);

  g_fake_now_ns.store(0);
  Request request = MakeCascade({0}, 0);
  request.timeout_ms = 5;  // pickup happens a simulated 10ms after admission
  const Result<Response> expired = engine.Run(request);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  g_fake_now_ns.store(0);
  request.timeout_ms = 50;  // generous deadline: same request succeeds
  EXPECT_TRUE(engine.Run(request).ok());

  g_fake_now_ns.store(0);
  request.timeout_ms = 0;  // no deadline at all
  EXPECT_TRUE(engine.Run(request).ok());
}

TEST(EngineTest, DefaultTimeoutAppliesWhenRequestHasNone) {
  EngineOptions options;
  options.clock_ns = &FakeClock;
  options.default_timeout_ms = 5;
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  g_fake_now_ns.store(0);
  const Result<Response> expired = engine.Run(MakeCascade({0}, 0));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Accuracy routing: the sketch tier, auto degradation, and the max_error
// gate. A single in-flight request sees in_flight == 1 at route time, so
// sketch_pressure_in_flight = 1 forces the pressure path deterministically.
// ---------------------------------------------------------------------------

Request MakeSpread(std::vector<NodeId> seeds,
                   Accuracy accuracy = Accuracy::kExact) {
  Request r;
  r.payload = SpreadRequest{std::move(seeds)};
  r.accuracy = accuracy;
  return r;
}

TEST(AccuracyRoutingTest, CreateRejectsUndersizedSketchK) {
  EngineOptions options;
  options.sketch_k = 2;
  const auto engine = Engine::Create(PaperExampleGraph(), options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(AccuracyRoutingTest, ExplicitSketchWithoutTierIsFailedPrecondition) {
  Engine engine = MakeEngine(PaperExampleGraph());  // sketch_k = 0
  const Result<Response> result = engine.Run(MakeSpread({4}, Accuracy::kSketch));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().ToString().find("sketch"), std::string::npos);
}

TEST(AccuracyRoutingTest, ExplicitSketchOnNonCapableOpIsFailedPrecondition) {
  EngineOptions options;
  options.sketch_k = 16;
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  Request cascade = MakeCascade({0}, 0);
  cascade.accuracy = Accuracy::kSketch;
  const Result<Response> result = engine.Run(cascade);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().ToString().find("no sketch path"),
            std::string::npos);
}

TEST(AccuracyRoutingTest, SketchResponsesCarryTierAndErrorBound) {
  EngineOptions options;
  options.sketch_k = 16;
  Engine engine = MakeEngine(PaperExampleGraph(), options);

  const Result<Response> exact = engine.Run(MakeSpread({4}));
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_STREQ(exact->meta.tier, "exact");
  EXPECT_DOUBLE_EQ(exact->meta.est_error, 0.0);

  const Result<Response> sketch =
      engine.Run(MakeSpread({4}, Accuracy::kSketch));
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  EXPECT_STREQ(sketch->meta.tier, "sketch");
  EXPECT_DOUBLE_EQ(sketch->meta.est_error,
                   SketchSpreadOracle::RelativeErrorBound(16));
  EXPECT_GT(std::get<SpreadResponse>(sketch->payload).spread, 0.0);

  Request select;
  select.payload = SeedSelectRequest{2, "tc"};
  select.accuracy = Accuracy::kSketch;
  const Result<Response> selected = engine.Run(select);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_STREQ(selected->meta.tier, "sketch");
  EXPECT_EQ(std::get<SeedSelectResponse>(selected->payload).seeds.size(), 2u);
}

TEST(AccuracyRoutingTest, AutoStaysExactWithHeadroom) {
  EngineOptions options;
  options.sketch_k = 16;  // pressure threshold defaults to max_in_flight = 4
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  const Result<Response> result = engine.Run(MakeSpread({4}, Accuracy::kAuto));
  ASSERT_TRUE(result.ok());
  EXPECT_STREQ(result->meta.tier, "exact");
}

TEST(AccuracyRoutingTest, AutoDegradesUnderAdmissionPressure) {
  EngineOptions options;
  options.sketch_k = 16;
  options.sketch_pressure_in_flight = 1;  // a single request is "pressure"
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  const Result<Response> degraded =
      engine.Run(MakeSpread({4}, Accuracy::kAuto));
  ASSERT_TRUE(degraded.ok());
  EXPECT_STREQ(degraded->meta.tier, "sketch");
  EXPECT_GT(degraded->meta.est_error, 0.0);
  // Exact requests ignore pressure entirely.
  const Result<Response> exact = engine.Run(MakeSpread({4}));
  ASSERT_TRUE(exact.ok());
  EXPECT_STREQ(exact->meta.tier, "exact");
}

TEST(AccuracyRoutingTest, AutoDegradesInsteadOfSheddingOnDeadline) {
  EngineOptions options;
  options.clock_ns = &FakeClock;
  options.sketch_k = 16;
  Engine engine = MakeEngine(PaperExampleGraph(), options);

  // Exact contract unchanged: an expired exact request is shed.
  g_fake_now_ns.store(0);
  Request exact = MakeSpread({4});
  exact.timeout_ms = 5;  // pickup is a simulated 10ms after admission
  const Result<Response> shed = engine.Run(exact);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);

  // The same expired request under auto is answered from the sketch tier.
  g_fake_now_ns.store(0);
  Request auto_request = MakeSpread({4}, Accuracy::kAuto);
  auto_request.timeout_ms = 5;
  const Result<Response> degraded = engine.Run(auto_request);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_STREQ(degraded->meta.tier, "sketch");
}

TEST(AccuracyRoutingTest, MaxErrorGateKeepsAutoExact) {
  EngineOptions options;
  options.sketch_k = 3;  // error bound 1/sqrt(1) = 1.0
  options.sketch_pressure_in_flight = 1;  // always under pressure
  Engine engine = MakeEngine(PaperExampleGraph(), options);

  // Demanding better accuracy than the tier can promise pins the request to
  // the exact tier even under pressure.
  Request strict = MakeSpread({4}, Accuracy::kAuto);
  strict.max_error = 0.5;
  const Result<Response> exact = engine.Run(strict);
  ASSERT_TRUE(exact.ok());
  EXPECT_STREQ(exact->meta.tier, "exact");

  // max_error = 0 (any error acceptable) degrades as usual.
  const Result<Response> degraded =
      engine.Run(MakeSpread({4}, Accuracy::kAuto));
  ASSERT_TRUE(degraded.ok());
  EXPECT_STREQ(degraded->meta.tier, "sketch");
}

TEST(AccuracyRoutingTest, SaturatedAutoBatchDegradesWithZeroShed) {
  // Saturating replay: a large all-auto batch under a 1-deep pressure
  // threshold must answer every request (zero shed), all from the sketch
  // tier, and identically at every thread count.
  EngineOptions options;
  options.sketch_k = 16;
  options.sketch_pressure_in_flight = 1;
  const ProbGraph graph = RandomGraph(100, 400, 3);
  std::vector<Request> requests;
  for (uint32_t i = 0; i < 200; ++i) {
    requests.push_back(MakeSpread({i % 100}, Accuracy::kAuto));
  }
  std::vector<std::string> reference;
  for (const uint32_t threads : {1u, 8u}) {
    SetGlobalThreads(threads);
    Engine engine = MakeEngine(ProbGraph(graph), options);
    const auto batch = engine.RunBatch(requests);
    ASSERT_TRUE(batch.ok());
    std::vector<std::string> lines;
    for (size_t i = 0; i < batch->size(); ++i) {
      const Result<Response>& r = (*batch)[i];
      ASSERT_TRUE(r.ok()) << "request " << i << " shed: "
                          << r.status().ToString();
      EXPECT_STREQ(r->meta.tier, "sketch");
      lines.push_back(FormatResponseLine(static_cast<int64_t>(i), r));
    }
    if (reference.empty()) {
      reference = std::move(lines);
    } else {
      EXPECT_EQ(reference, lines) << "threads " << threads;
    }
  }
  SetGlobalThreads(0);
}

TEST(AccuracyRoutingTest, UpdateBatchInvalidatesSketches) {
  EngineOptions options;
  options.sketch_k = 16;
  options.index.num_worlds = 8;
  auto engine = Engine::CreateDynamic(RandomGraph(30, 120, 9), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Result<Response> before =
      engine->Run(MakeSpread({3}, Accuracy::kSketch));
  ASSERT_TRUE(before.ok());

  Request update;
  update.payload =
      UpdateRequest{{GraphUpdate{UpdateKind::kEdgeInsert, 3, 27, 0.9}}};
  ASSERT_TRUE(engine->Run(update).ok());

  // Post-update sketches are rebuilt over the patched index; the new edge
  // can only grow node 3's estimate.
  const Result<Response> after =
      engine->Run(MakeSpread({3}, Accuracy::kSketch));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GE(std::get<SpreadResponse>(after->payload).spread,
            std::get<SpreadResponse>(before->payload).spread - 1e-9);
}

// The acceptance bar for the batching layer: a 1000-request mixed batch is
// byte-identical (after wire formatting) at --threads 1 and --threads 8.
TEST(EngineTest, MixedBatchDeterministicAcrossThreadCounts) {
  const ProbGraph graph = RandomGraph(200, 800, 7);
  std::vector<Request> requests;
  requests.reserve(1000);
  for (uint32_t i = 0; i < 1000; ++i) {
    Request r;
    const NodeId v = static_cast<NodeId>(i % graph.num_nodes());
    switch (i % 5) {
      case 0: r.payload = TypicalCascadeRequest{{v}, false}; break;
      case 1: r.payload = CascadeRequest{{v}, i % 16}; break;
      case 2: r.payload = SpreadRequest{{v}}; break;
      case 3: r.payload = SeedSelectRequest{1 + i % 4, "tc"}; break;
      case 4: r.payload = ReliabilityRequest{{v}, 0.25}; break;
    }
    requests.push_back(std::move(r));
  }

  auto run_at = [&](uint32_t threads) {
    EngineOptions options;
    options.index.num_worlds = 16;
    options.threads = threads;
    Engine engine = MakeEngine(ProbGraph(graph), options);
    const auto batch = engine.RunBatch(requests);
    SOI_CHECK(batch.ok());
    std::string wire;
    for (size_t i = 0; i < batch->size(); ++i) {
      wire += FormatResponseLine(static_cast<int64_t>(i), (*batch)[i]);
    }
    return wire;
  };

  const std::string at_one = run_at(1);
  const std::string at_eight = run_at(8);
  SetGlobalThreads(0);
  EXPECT_EQ(at_one, at_eight);
}

// Concurrent batches against one engine: no data races (TSan job) and
// every outcome is either success or an explicit admission rejection.
TEST(EngineTest, ConcurrentBatchesAreRaceFree) {
  EngineOptions options;
  options.max_in_flight = 2;
  Engine engine = MakeEngine(RandomGraph(100, 400, 3), options);
  std::vector<Request> requests;
  for (uint32_t i = 0; i < 50; ++i) {
    requests.push_back(MakeCascade({i % 100}, i % 16));
  }
  std::atomic<int> ok_batches{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        const auto batch = engine.RunBatch(requests);
        if (batch.ok()) {
          ok_batches.fetch_add(1);
          for (const auto& r : *batch) SOI_CHECK(r.ok());
        } else {
          SOI_CHECK(batch.status().code() == StatusCode::kResourceExhausted);
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(ok_batches.load(), 0);
  EXPECT_EQ(ok_batches.load() + rejected.load(), 20);
  EXPECT_EQ(engine.in_flight(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol.
// ---------------------------------------------------------------------------

TEST(ProtocolTest, ParsesEveryOp) {
  const auto typical =
      ParseRequestLine(R"({"op":"typical","seeds":[4],"id":1})");
  ASSERT_TRUE(typical.ok());
  EXPECT_EQ(typical->id, 1);
  EXPECT_EQ(std::get<TypicalCascadeRequest>(typical->request.payload).seeds,
            std::vector<NodeId>({4}));

  const auto cascade = ParseRequestLine(
      R"({"op":"cascade","seeds":[0,3],"world":2,"timeout_ms":25})");
  ASSERT_TRUE(cascade.ok());
  EXPECT_EQ(cascade->id, -1);
  EXPECT_EQ(cascade->request.timeout_ms, 25u);
  EXPECT_EQ(std::get<CascadeRequest>(cascade->request.payload).world, 2u);

  const auto spread = ParseRequestLine(R"({"op":"spread","seeds":[1,2]})");
  ASSERT_TRUE(spread.ok());

  const auto select =
      ParseRequestLine(R"({"op":"seed_select","k":5,"method":"std"})");
  ASSERT_TRUE(select.ok());
  EXPECT_EQ(std::get<SeedSelectRequest>(select->request.payload).k, 5u);
  EXPECT_EQ(std::get<SeedSelectRequest>(select->request.payload).method,
            "std");

  const auto reliability =
      ParseRequestLine(R"({"op":"reliability","seeds":[4],"threshold":0.7})");
  ASSERT_TRUE(reliability.ok());
  EXPECT_DOUBLE_EQ(
      std::get<ReliabilityRequest>(reliability->request.payload).threshold,
      0.7);
}

TEST(ProtocolTest, RejectsMalformedInputWithNamedField) {
  EXPECT_FALSE(ParseRequestLine("not json").ok());
  EXPECT_FALSE(ParseRequestLine("{\"op\":\"typical\"").ok());  // truncated
  EXPECT_FALSE(ParseRequestLine(R"([1,2,3])").ok());  // not an object
  EXPECT_FALSE(ParseRequestLine(R"({"seeds":[1]})").ok());  // no op

  const auto unknown_op = ParseRequestLine(R"({"op":"frobnicate"})");
  ASSERT_FALSE(unknown_op.ok());
  EXPECT_NE(unknown_op.status().message().find("frobnicate"),
            std::string::npos);

  const auto no_seeds = ParseRequestLine(R"({"op":"spread"})");
  ASSERT_FALSE(no_seeds.ok());
  EXPECT_NE(no_seeds.status().message().find("seeds"), std::string::npos);

  const auto bad_seed =
      ParseRequestLine(R"({"op":"spread","seeds":[-1]})");
  EXPECT_FALSE(bad_seed.ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"spread","seeds":[1.5]})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"cascade","seeds":[1]})").ok());  // no world
  EXPECT_FALSE(ParseRequestLine(R"({"op":"seed_select","k":0})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"spread","seeds":[1]} trailing)").ok());
}

TEST(ProtocolTest, FormatsSuccessAndErrorLines) {
  SeedSelectResponse select;
  select.seeds = {7, 3};
  select.objective = 41.5;
  const std::string ok_line =
      FormatResponseLine(9, Result<Response>(Response(select)));
  EXPECT_EQ(ok_line,
            "{\"id\":9,\"status\":\"ok\",\"op\":\"seed_select\","
            "\"seeds\":[7,3],\"objective\":41.5}\n");

  const std::string err_line = FormatResponseLine(
      -1, Result<Response>(Status::InvalidArgument("bad \"stuff\"")));
  EXPECT_EQ(err_line,
            "{\"id\":-1,\"status\":\"invalid_argument\","
            "\"error\":\"bad \\\"stuff\\\"\"}\n");
}

TEST(ProtocolTest, RoundTripThroughEngine) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const auto parsed =
      ParseRequestLine(R"({"op":"cascade","seeds":[4],"world":0,"id":3})");
  ASSERT_TRUE(parsed.ok());
  const std::string line =
      FormatResponseLine(parsed->id, engine.Run(parsed->request));
  EXPECT_EQ(line.rfind("{\"id\":3,\"status\":\"ok\",\"op\":\"cascade\"", 0),
            0u);
  EXPECT_EQ(line.back(), '\n');
}

TEST(ProtocolTest, WireStatusStringsAreSnakeCase) {
  EXPECT_STREQ(StatusCodeToWireString(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeToWireString(StatusCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(StatusCodeToWireString(StatusCode::kResourceExhausted),
               "resource_exhausted");
}

// ---------------------------------------------------------------------------
// Protocol v2: the versioned envelope, accuracy fields, and structured
// error codes.
// ---------------------------------------------------------------------------

TEST(ProtocolV2Test, VersionFieldParseMatrix) {
  // No "v" and "v":1 are both v1.
  const auto implicit = ParseRequestLine(R"({"op":"spread","seeds":[1]})");
  ASSERT_TRUE(implicit.ok());
  EXPECT_EQ(implicit->version, 1);
  const auto explicit_v1 =
      ParseRequestLine(R"({"v":1,"op":"spread","seeds":[1]})");
  ASSERT_TRUE(explicit_v1.ok());
  EXPECT_EQ(explicit_v1->version, 1);

  const auto v2 = ParseRequestLine(R"({"v":2,"op":"spread","seeds":[1]})");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->version, 2);
  EXPECT_EQ(v2->request.accuracy, Accuracy::kExact);  // default

  // Unknown versions and wrong types are named errors, not silent v1.
  const auto v3 = ParseRequestLine(R"({"v":3,"op":"spread","seeds":[1]})");
  ASSERT_FALSE(v3.ok());
  EXPECT_NE(v3.status().message().find("unsupported protocol version"),
            std::string::npos);
  EXPECT_FALSE(
      ParseRequestLine(R"({"v":"2","op":"spread","seeds":[1]})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"v":1.5,"op":"spread","seeds":[1]})").ok());
}

TEST(ProtocolV2Test, AccuracyFieldParseMatrix) {
  const auto sketch = ParseRequestLine(
      R"({"v":2,"op":"spread","seeds":[1],"accuracy":"sketch"})");
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->request.accuracy, Accuracy::kSketch);

  const auto with_bound = ParseRequestLine(
      R"({"v":2,"op":"seed_select","k":3,"accuracy":"auto","max_error":0.25})");
  ASSERT_TRUE(with_bound.ok());
  EXPECT_EQ(with_bound->request.accuracy, Accuracy::kAuto);
  EXPECT_DOUBLE_EQ(with_bound->request.max_error, 0.25);

  const auto exact = ParseRequestLine(
      R"({"v":2,"op":"spread","seeds":[1],"accuracy":"exact"})");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->request.accuracy, Accuracy::kExact);

  // Unknown accuracy and malformed max_error are named errors.
  const auto bogus = ParseRequestLine(
      R"({"v":2,"op":"spread","seeds":[1],"accuracy":"fast"})");
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(bogus.status().message().find("accuracy"), std::string::npos);
  EXPECT_FALSE(ParseRequestLine(
      R"({"v":2,"op":"spread","seeds":[1],"max_error":-0.5})").ok());
  EXPECT_FALSE(ParseRequestLine(
      R"({"v":2,"op":"spread","seeds":[1],"max_error":"low"})").ok());
  EXPECT_FALSE(ParseRequestLine(
      R"({"v":2,"op":"spread","seeds":[1],"accuracy":7})").ok());
}

TEST(ProtocolV2Test, AccuracyOnV1LineIsAnErrorNamingTheFix) {
  const auto v1_accuracy = ParseRequestLine(
      R"({"op":"spread","seeds":[1],"accuracy":"sketch"})");
  ASSERT_FALSE(v1_accuracy.ok());
  EXPECT_NE(v1_accuracy.status().message().find("add \"v\":2"),
            std::string::npos);
  EXPECT_FALSE(ParseRequestLine(
      R"({"v":1,"op":"spread","seeds":[1],"max_error":0.1})").ok());
}

TEST(ProtocolV2Test, V2SuccessLinesCarryResponseMetadata) {
  Response response{SpreadResponse{12.25}};
  response.meta.tier = "sketch";
  response.meta.est_error = 0.25;
  response.meta.elapsed_us = 42;
  EXPECT_EQ(FormatResponseLine(7, 2, Result<Response>(response)),
            "{\"id\":7,\"status\":\"ok\",\"op\":\"spread\",\"spread\":12.25,"
            "\"tier\":\"sketch\",\"est_error\":0.25,\"elapsed_us\":42}\n");
  // The 3-arg overload at version 1 is byte-identical to the v1 formatter.
  EXPECT_EQ(FormatResponseLine(7, 1, Result<Response>(response)),
            FormatResponseLine(7, Result<Response>(response)));
}

TEST(ProtocolV2Test, V2ErrorLinesAreStructured) {
  const std::string line = FormatResponseLine(
      9, 2, Result<Response>(Status::DeadlineExceeded("too slow")));
  EXPECT_EQ(line,
            "{\"id\":9,\"status\":\"error\",\"code\":\"DEADLINE_EXCEEDED\","
            "\"message\":\"too slow\"}\n");
  EXPECT_STREQ(StatusCodeToErrorCode(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeToErrorCode(StatusCode::kFailedPrecondition),
               "FAILED_PRECONDITION");
  EXPECT_STREQ(StatusCodeToErrorCode(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeToErrorCode(StatusCode::kOk), "OK");
}

// ---------------------------------------------------------------------------
// Serve loops.
// ---------------------------------------------------------------------------

// Runs ServeStream over pipes: input written up front, EOF, then the full
// output is read back.
std::string ServeOnce(Engine* engine, const std::string& input,
                      const ServeOptions& options = {}) {
  int in_pipe[2];
  int out_pipe[2];
  SOI_CHECK(::pipe(in_pipe) == 0);
  SOI_CHECK(::pipe(out_pipe) == 0);
  // Writer thread: pipes have finite buffers, so feed input concurrently.
  std::thread writer([&] {
    size_t off = 0;
    while (off < input.size()) {
      const ssize_t n =
          ::write(in_pipe[1], input.data() + off, input.size() - off);
      SOI_CHECK(n > 0);
      off += static_cast<size_t>(n);
    }
    ::close(in_pipe[1]);
  });
  std::string output;
  std::thread reader([&] {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(out_pipe[0], buf, sizeof(buf))) > 0) {
      output.append(buf, static_cast<size_t>(n));
    }
  });
  const Status status =
      ServeStream(engine, in_pipe[0], out_pipe[1], options);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  writer.join();
  reader.join();
  ::close(out_pipe[0]);
  SOI_CHECK(status.ok());
  return output;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  size_t nl;
  while ((nl = text.find('\n', start)) != std::string::npos) {
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

TEST(ServeStreamTest, AnswersInOrderAndSurvivesMalformedLines) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const std::string input =
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":1}\n"
      "this is not json\n"
      "\n"
      "{\"op\":\"cascade\",\"seeds\":[4],\"world\":0,\"id\":2}\n"
      "{\"op\":\"spread\",\"seeds\":[999],\"id\":3}\n";
  const std::vector<std::string> lines =
      SplitLines(ServeOnce(&engine, input));
  ASSERT_EQ(lines.size(), 4u);  // blank line is not a request
  EXPECT_EQ(lines[0].rfind("{\"id\":1,\"status\":\"ok\"", 0), 0u);
  EXPECT_EQ(lines[1].rfind("{\"id\":-1,\"status\":\"invalid_argument\"", 0),
            0u);
  EXPECT_EQ(lines[2].rfind("{\"id\":2,\"status\":\"ok\"", 0), 0u);
  EXPECT_EQ(lines[3].rfind("{\"id\":3,\"status\":\"invalid_argument\"", 0),
            0u);
}

TEST(ServeStreamTest, SalvagesIdFromMalformedLine) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const std::string output = ServeOnce(
      &engine, "{\"op\":\"spread\",\"seeds\":[oops],\"id\":42}\n");
  EXPECT_EQ(output.rfind("{\"id\":42,\"status\":\"invalid_argument\"", 0),
            0u);
}

TEST(ServeStreamTest, TrailingLineWithoutNewlineIsServed) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const std::string output =
      ServeOnce(&engine, "{\"op\":\"spread\",\"seeds\":[4],\"id\":8}");
  EXPECT_EQ(output.rfind("{\"id\":8,\"status\":\"ok\"", 0), 0u);
}

TEST(ServeStreamTest, ManyRequestsBatchAndStayOrdered) {
  Engine engine = MakeEngine(PaperExampleGraph());
  std::string input;
  for (int i = 0; i < 100; ++i) {
    input += "{\"op\":\"cascade\",\"seeds\":[" + std::to_string(i % 5) +
             "],\"world\":" + std::to_string(i % 16) +
             ",\"id\":" + std::to_string(i) + "}\n";
  }
  ServeOptions options;
  options.batch_max = 8;
  const std::vector<std::string> lines =
      SplitLines(ServeOnce(&engine, input, options));
  ASSERT_EQ(lines.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(lines[i].rfind("{\"id\":" + std::to_string(i) + ",", 0), 0u)
        << lines[i];
  }
}

TEST(ProtocolV2Test, MixedVersionStreamAnswersEachLineInItsOwnShape) {
  EngineOptions options;
  options.sketch_k = 16;
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  const std::string input =
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":1}\n"
      "{\"v\":2,\"op\":\"spread\",\"seeds\":[4],\"id\":2}\n"
      "{\"v\":2,\"op\":\"spread\",\"seeds\":[4],\"accuracy\":\"sketch\","
      "\"id\":3}\n"
      "{\"v\":2,\"op\":\"cascade\",\"seeds\":[4],\"world\":0,"
      "\"accuracy\":\"sketch\",\"id\":4}\n";
  const std::vector<std::string> lines = SplitLines(ServeOnce(&engine, input));
  ASSERT_EQ(lines.size(), 4u);
  // v1 line: v1 shape, no metadata.
  EXPECT_EQ(lines[0].find("tier"), std::string::npos);
  EXPECT_EQ(lines[0].rfind("{\"id\":1,\"status\":\"ok\",\"op\":\"spread\"", 0),
            0u);
  // v2 exact: metadata names the exact tier.
  EXPECT_NE(lines[1].find("\"tier\":\"exact\",\"est_error\":0,"),
            std::string::npos);
  // v2 sketch: sketch tier with its error bound 1/sqrt(16-2).
  EXPECT_NE(lines[2].find("\"tier\":\"sketch\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"est_error\":0.2672612419"), std::string::npos);
  // v2 structured error for the op with no sketch path.
  EXPECT_EQ(lines[3].rfind("{\"id\":4,\"status\":\"error\","
                           "\"code\":\"FAILED_PRECONDITION\"",
                           0),
            0u);
}

TEST(ProtocolV2Test, MalformedV2LineSalvagesTheV2ErrorShape) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const std::string input =
      "{\"v\":2,\"op\":\"spread\",\"seeds\":[oops],\"id\":5}\n"
      "{\"v\": 2, \"id\": 6, \"op\":\"nope\"}\n"
      "{\"op\":\"nope\",\"id\":7}\n";
  const std::vector<std::string> lines = SplitLines(ServeOnce(&engine, input));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("{\"id\":5,\"status\":\"error\","
                           "\"code\":\"INVALID_ARGUMENT\"",
                           0),
            0u);
  EXPECT_EQ(lines[1].rfind("{\"id\":6,\"status\":\"error\"", 0), 0u);
  // A v1 malformed line keeps the v1 error shape.
  EXPECT_EQ(lines[2].rfind("{\"id\":7,\"status\":\"invalid_argument\"", 0),
            0u);
}

// ---------------------------------------------------------------------------
// Hot swap.
// ---------------------------------------------------------------------------

// Swapping engines while four threads hammer the handle: every batch must
// land entirely on one engine (the Acquire() shared_ptr pins it), every
// answer must match the single-engine reference (replacement engines are
// built from the same graph and options, so a divergent answer means a
// torn read), and no engine may be destroyed while a batch still runs.
// This test runs under TSan in CI.
TEST(HotSwapTest, SwapUnderConcurrentLoadKeepsAnswersByteIdentical) {
  EngineOptions options;
  options.index.num_worlds = 16;
  options.max_in_flight = 8;
  const auto make_engine = [&] {
    return MakeEngine(RandomGraph(100, 400, 3), options);
  };

  std::vector<Request> requests;
  for (uint32_t i = 0; i < 20; ++i) {
    requests.push_back(MakeCascade({i % 100}, i % 16));
  }
  // Reference answers from a plain engine; every engine in this test is
  // deterministic-identical, so these must never change across swaps.
  std::vector<std::string> reference;
  {
    Engine probe = make_engine();
    auto batch = probe.RunBatch(requests);
    ASSERT_TRUE(batch.ok());
    for (size_t i = 0; i < batch->size(); ++i) {
      reference.push_back(
          FormatResponseLine(static_cast<int64_t>(i), (*batch)[i]));
    }
  }

  EngineHandle handle(make_engine());
  std::atomic<bool> stop{false};
  std::atomic<int> batches_ok{0};
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<Engine> engine = handle.Acquire();
        const auto batch = engine->RunBatch(requests);
        if (!batch.ok()) {
          // Admission control may reject under contention; that's not a
          // swap bug.
          SOI_CHECK(batch.status().code() == StatusCode::kResourceExhausted);
          continue;
        }
        batches_ok.fetch_add(1);
        for (size_t i = 0; i < batch->size(); ++i) {
          if (FormatResponseLine(static_cast<int64_t>(i), (*batch)[i]) !=
              reference[i]) {
            mismatch.store(true);
          }
        }
      }
    });
  }
  constexpr int kSwaps = 5;
  for (int s = 0; s < kSwaps; ++s) {
    handle.Swap(make_engine());
  }
  // Let the workers observe the final engine before stopping.
  while (batches_ok.load() < 8) std::this_thread::yield();
  stop.store(true);
  for (std::thread& t : workers) t.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_GT(batches_ok.load(), 0);
  EXPECT_EQ(handle.epoch(), static_cast<uint64_t>(kSwaps));
}

// The serve loop's poll hook swapping mid-stream: responses before and
// after the swap come from different engines yet stay byte-identical and
// in request order.
TEST(HotSwapTest, ServeStreamPollHookSwapsMidStream) {
  EngineOptions options;
  options.index.num_worlds = 16;
  EngineHandle handle(MakeEngine(RandomGraph(100, 400, 3), options));

  std::string input;
  for (int i = 0; i < 40; ++i) {
    input += "{\"op\":\"spread\",\"seeds\":[" + std::to_string(i % 100) +
             "],\"id\":" + std::to_string(i) + "}\n";
  }

  std::atomic<int> polls{0};
  ServeOptions serve_options;
  serve_options.poll = [&] {
    // Swap exactly once, after some responses have already been served.
    if (polls.fetch_add(1) == 1) {
      handle.Swap(MakeEngine(RandomGraph(100, 400, 3), options));
    }
  };

  int in_pipe[2];
  int out_pipe[2];
  SOI_CHECK(::pipe(in_pipe) == 0);
  SOI_CHECK(::pipe(out_pipe) == 0);
  std::thread writer([&] {
    // Dribble the input so the serve loop wakes (and polls) many times.
    for (size_t off = 0; off < input.size();) {
      const size_t chunk = std::min<size_t>(64, input.size() - off);
      ssize_t n = ::write(in_pipe[1], input.data() + off, chunk);
      SOI_CHECK(n > 0);
      off += static_cast<size_t>(n);
    }
    ::close(in_pipe[1]);
  });
  std::string output;
  std::thread reader([&] {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(out_pipe[0], buf, sizeof(buf))) > 0) {
      output.append(buf, static_cast<size_t>(n));
    }
  });
  const Status served =
      ServeStream(&handle, in_pipe[0], out_pipe[1], serve_options);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  writer.join();
  reader.join();
  ::close(out_pipe[0]);
  ASSERT_TRUE(served.ok()) << served.ToString();
  EXPECT_EQ(handle.epoch(), 1u);

  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 40u);
  // Identical engines => identical per-request answers; compare each
  // response against a fresh single-engine run.
  Engine probe = MakeEngine(RandomGraph(100, 400, 3), options);
  for (int i = 0; i < 40; ++i) {
    Request r;
    r.payload = SpreadRequest{{static_cast<NodeId>(i % 100)}};
    EXPECT_EQ(lines[static_cast<size_t>(i)] + "\n",
              FormatResponseLine(i, probe.Run(r)))
        << "request " << i;
  }
}

// ---------------------------------------------------------------------------
// Dynamic engines (incremental updates racing queries; drift hot-swap).
// ---------------------------------------------------------------------------

// A graph whose edge set is known exactly, so a single updater thread can
// generate always-valid updates from local shadow state: a ring plus
// chords; arcs (u, u+3) are reserved for dynamic inserts.
ProbGraph RingGraph(NodeId n) {
  ProbGraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_TRUE(b.AddEdge(u, (u + 1) % n, 0.15).ok());
    EXPECT_TRUE(b.AddEdge(u, (u + 7) % n, 0.1).ok());
  }
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(DynamicEngineTest, StaticEngineAnswersUpdateWithFailedPrecondition) {
  Engine engine = MakeEngine(PaperExampleGraph());
  Request update;
  update.payload =
      UpdateRequest{{GraphUpdate{UpdateKind::kEdgeInsert, 0, 2, 0.3}}};
  const Result<Response> result = engine.Run(update);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("dynamic"), std::string::npos);
  EXPECT_FALSE(engine.dynamic());
  EXPECT_EQ(engine.drift(), 0u);
}

TEST(DynamicEngineTest, UpdateRoundTripsThroughProtocol) {
  auto engine = Engine::CreateDynamic(PaperExampleGraph());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const auto parsed = ParseRequestLine(
      R"({"op":"update","ops":[{"op":"insert","src":0,"dst":2,"prob":0.3},)"
      R"({"op":"prob","src":0,"dst":2,"prob":0.5},)"
      R"({"op":"delete","src":0,"dst":2}],"id":8})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string line =
      FormatResponseLine(parsed->id, engine->Run(parsed->request));
  EXPECT_EQ(line.rfind("{\"id\":8,\"status\":\"ok\",\"op\":\"update\","
                       "\"applied\":3",
                       0),
            0u)
      << line;
  EXPECT_EQ(engine->drift(), 3u);

  // The same line against a static engine maps to the wire status.
  Engine static_engine = MakeEngine(PaperExampleGraph());
  const std::string rejected =
      FormatResponseLine(parsed->id, static_engine.Run(parsed->request));
  EXPECT_NE(rejected.find("\"status\":\"failed_precondition\""),
            std::string::npos)
      << rejected;
}

// The TSan centerpiece: query batches racing an update stream through an
// EngineHandle, with the updater enforcing the drift-rebuild policy —
// rebuild from a consistent capture, journal catch-up, hot-swap — while
// queries keep flowing. Afterwards the served index must be byte-identical
// to a from-scratch build on the final graph.
TEST(DynamicEngineTest, UpdatesRacingQueriesWithDriftHotSwap) {
  constexpr NodeId kN = 40;
  constexpr uint64_t kDriftThreshold = 48;
  EngineOptions options;
  options.index.num_worlds = 12;
  options.max_in_flight = 8;
  options.drift_rebuild_threshold = kDriftThreshold;
  auto first = Engine::CreateDynamic(RingGraph(kN), options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EngineHandle handle(std::move(*first));

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<int> query_batches{0};
  std::vector<std::thread> queriers;
  for (int t = 0; t < 3; ++t) {
    queriers.emplace_back([&, t] {
      std::vector<Request> batch;
      for (uint32_t i = 0; i < 6; ++i) {
        batch.push_back(MakeCascade({(static_cast<NodeId>(t) * 11 + i) % kN},
                                    i % 16));
      }
      Request spread;
      spread.payload = SpreadRequest{{static_cast<NodeId>(t)}};
      batch.push_back(spread);
      Request typical;
      typical.payload =
          TypicalCascadeRequest{{static_cast<NodeId>(t * 7 % kN)}, false};
      batch.push_back(typical);
      // seed_select re-runs the full typical sweep whenever an update
      // invalidated it; issue it on every 8th batch so the race is
      // exercised without the sweep dominating the test's runtime.
      std::vector<Request> batch_with_select = batch;
      Request select;
      select.payload = SeedSelectRequest{2, "tc"};
      batch_with_select.push_back(select);
      uint32_t iteration = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<Engine> engine = handle.Acquire();
        const auto responses = engine->RunBatch(
            ++iteration % 8 == 0 ? batch_with_select : batch);
        if (!responses.ok()) {
          if (responses.status().code() != StatusCode::kResourceExhausted) {
            failed.store(true);
          }
          continue;
        }
        query_batches.fetch_add(1);
        for (const auto& r : *responses) {
          if (!r.ok()) failed.store(true);
        }
      }
    });
  }

  // Sole mutator: toggles reserved (u, u+3) arcs, so validity needs no
  // coordination with the queriers. Applies the drift-rebuild policy
  // exactly the way soi_cli serve --dynamic does.
  uint64_t swaps = 0;
  std::vector<bool> present(kN, false);
  for (int round = 0; round < 200 && !failed.load(); ++round) {
    const NodeId u = static_cast<NodeId>(round) % kN;
    GraphUpdate op;
    op.src = u;
    op.dst = (u + 3) % kN;
    if (present[u]) {
      op.kind = UpdateKind::kEdgeDelete;
    } else {
      op.kind = UpdateKind::kEdgeInsert;
      op.prob = 0.2;
    }
    present[u] = !present[u];
    const std::shared_ptr<Engine> engine = handle.Acquire();
    Request update;
    update.payload = UpdateRequest{{op}};
    Result<Response> applied = engine->Run(update);
    while (!applied.ok() &&
           applied.status().code() == StatusCode::kResourceExhausted) {
      std::this_thread::yield();
      applied = engine->Run(update);
    }
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    if (engine->drift() < kDriftThreshold) continue;
    auto state = engine->CaptureDynamicState();
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    auto next = Engine::CreateDynamic(std::move(state->graph), options);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    const auto catchup = engine->JournalSince(state->journal_seq);
    EXPECT_TRUE(catchup.empty());  // single mutator => nothing to replay
    handle.Swap(std::move(*next));
    ++swaps;
  }
  // Let queriers observe the post-swap engine, then stop.
  const int seen = query_batches.load();
  while (query_batches.load() < seen + 2 && !failed.load()) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : queriers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(query_batches.load(), 0);
  EXPECT_GE(swaps, 1u);  // the drift threshold actually fired mid-stream
  EXPECT_EQ(handle.epoch(), swaps);

  // Convergence: the served index equals a from-scratch build on the final
  // graph, byte for byte (rebuild equivalence survived the whole race).
  const std::shared_ptr<Engine> last = handle.Acquire();
  auto final_state = last->CaptureDynamicState();
  ASSERT_TRUE(final_state.ok());
  auto reference =
      Engine::CreateDynamic(std::move(final_state->graph), options);
  ASSERT_TRUE(reference.ok());
  const auto served = SerializeSnapshot(reference->graph(), last->index());
  const auto rebuilt =
      SerializeSnapshot(reference->graph(), reference->index());
  ASSERT_TRUE(served.ok() && rebuilt.ok());
  EXPECT_EQ(*served, *rebuilt);
  EXPECT_EQ(last->fingerprint(), reference->fingerprint());
}

TEST(ServeTcpTest, ServesOneConnectionOnEphemeralPort) {
  Engine engine = MakeEngine(PaperExampleGraph());
  std::promise<uint16_t> port_promise;
  std::future<uint16_t> port_future = port_promise.get_future();
  ServeOptions options;
  options.max_connections = 1;
  options.on_listening = [&](uint16_t port) { port_promise.set_value(port); };
  std::thread server([&] {
    const Status status = ServeTcp(&engine, /*port=*/0, options);
    SOI_CHECK(status.ok());
  });
  const uint16_t port = port_future.get();
  ASSERT_NE(port, 0);

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string request = "{\"op\":\"spread\",\"seeds\":[4],\"id\":5}\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  server.join();
  EXPECT_EQ(response.rfind("{\"id\":5,\"status\":\"ok\",\"op\":\"spread\"", 0),
            0u);
}

// ---------------------------------------------------------------------------
// Serving data plane: salvage scanner, in-situ parser, line guard, and the
// epoll event loop under concurrent clients. These run in the TSan and ASan
// CI jobs, so every concurrent path doubles as a race/sanitizer check.

TEST(SalvageTest, IdToleratesWhitespaceAroundColon) {
  EXPECT_EQ(SalvageId("{\"id\" : 42, \"op\":}"), 42);
  EXPECT_EQ(SalvageId("{\"id\"\t:\t-7,\"op\":}"), -7);
  EXPECT_EQ(SalvageId("{\"op\":oops,\"id\"  :  9}"), 9);
  EXPECT_EQ(SalvageId("{\"id\":5,\"op\":oops}"), 5);
}

TEST(SalvageTest, IdInsideStringValueDoesNotCount) {
  // "id" as a string VALUE (followed by ',' / '}' rather than ':').
  EXPECT_EQ(SalvageId("{\"mode\":\"id\",\"op\":oops}"), -1);
  // "id": 99 embedded inside a string value via escaped quotes.
  EXPECT_EQ(SalvageId("{\"note\":\"\\\"id\\\": 99\",\"op\":oops}"), -1);
  // The real key still wins even after a decoy value.
  EXPECT_EQ(SalvageId("{\"note\":\"\\\"id\\\": 99\",\"id\":3,\"op\":oops}"),
            3);
  // No digits after the colon: not a salvageable id.
  EXPECT_EQ(SalvageId("{\"id\":,\"op\":oops}"), -1);
  EXPECT_EQ(SalvageId("{\"id\":\"7\",\"op\":oops}"), -1);
}

TEST(SalvageTest, VersionRequiresIntegerTwo) {
  EXPECT_EQ(SalvageVersion("{\"v\" : 2,\"op\":oops}"), 2);
  EXPECT_EQ(SalvageVersion("{\"v\":2,\"op\":oops}"), 2);
  EXPECT_EQ(SalvageVersion("{\"v\":1,\"op\":oops}"), 1);
  // The old substring scanner reported 2 for "23" and for string-embedded
  // decoys; the tokenizer must not.
  EXPECT_EQ(SalvageVersion("{\"v\":23,\"op\":oops}"), 1);
  EXPECT_EQ(SalvageVersion("{\"v\":\"2\",\"op\":oops}"), 1);
  EXPECT_EQ(SalvageVersion("{\"note\":\"\\\"v\\\":2\",\"op\":oops}"), 1);
  EXPECT_EQ(SalvageVersion("{\"op\":oops}"), 1);
}

// The request corpus pinned to the outcomes the two-parser protocol (a DOM
// parser behind an in-situ fast path) gave, recorded once from it: the
// parse error's Status text, or the wire response of a frozen-clock engine.
// The one scanner must reproduce each, parsing into a dirty reused slot and
// into a fresh one alike.
TEST(ParseIntoTest, MatchesCanonicalParserAcrossCorpus) {
  EngineOptions options;
  options.sketch_k = 16;
  // A frozen clock pins the v2 envelope's elapsed_us field so responses are
  // byte-comparable.
  options.clock_ns = [] { return uint64_t{0}; };
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  struct Case {
    const char* line;
    const char* outcome;
  };
  const Case corpus[] = {
      // Accepted: every op, both envelopes, spacing, escapes, and unknown
      // and duplicate keys (the first occurrence wins).
      {R"({"op":"spread","seeds":[4],"id":1})",
       R"({"id":1,"status":"ok","op":"spread","spread":2.8203125})"},
      {R"({"op":"typical","seeds":[4,0,1],"local_search":true,"id":2})",
       R"({"id":2,"status":"ok","op":"typical","cascade":[0,1,4],"in_sample_)"
       R"(cost":0.16640625,"mean_sample_size":3.71875})"},
      {R"({"op":"cascade","seeds":[4],"world":3,"id":4})",
       R"({"id":4,"status":"ok","op":"cascade","cascade":[0,3,4]})"},
      {R"({"op":"seed_select","k":2,"method":"std","id":5})",
       R"({"id":5,"status":"ok","op":"seed_select","seeds":[4,3],"objective")"
       R"(:3.921875})"},
      {R"({"op":"seed_select","k":2,"id":51})",
       R"({"id":51,"status":"ok","op":"seed_select","seeds":[4,2],"objective)"
       R"(":4})"},
      {R"({"op":"reliability","seeds":[4],"threshold":0.25,"id":6})",
       R"({"id":6,"status":"ok","op":"reliability","nodes":[0,1,3,4]})"},
      {R"({"v":2,"op":"spread","seeds":[4],"accuracy":"sketch","id":7})",
       R"({"id":7,"status":"ok","op":"spread","spread":2.8203125,"tier":"ske)"
       R"(tch","est_error":0.2672612419,"elapsed_us":0})"},
      {R"({"v":2,"op":"spread","seeds":[4],"accuracy":"auto","max_error":0.5,)"
       R"("id":8})",
       R"({"id":8,"status":"ok","op":"spread","spread":2.8203125,"tier":"exa)"
       R"(ct","est_error":0,"elapsed_us":0})"},
      {R"({ "op" : "spread" , "seeds" : [ 4 ] , "id" : 9 })",
       R"({"id":9,"status":"ok","op":"spread","spread":2.8203125})"},
      {R"({"id":10,"timeout_ms":1000,"op":"spread","seeds":[4]})",
       R"({"id":10,"status":"ok","op":"spread","spread":2.8203125})"},
      {R"({"op":"update","ops":[{"op":"insert","src":0,"dst":1,"prob":0.5}],")"
       R"(id":11})",
       R"({"id":11,"status":"failed_precondition","error":"update requires a)"
       R"( dynamic engine (soi_cli serve --dynamic / Engine::CreateDynamic);)"
       R"( this engine serves a static index"})"},
      {R"({"op":"seed_select","k":1,"method":"t\u0063","id":13})",
       R"({"id":13,"status":"ok","op":"seed_select","seeds":[4],"objective":)"
       R"(3})"},
      {R"({"op":"spread","seeds":[4],"id":1,"id":2})",
       R"({"id":1,"status":"ok","op":"spread","spread":2.8203125})"},
      {R"({"op":"spread","seeds":[4],"extra":3,"id":12})",
       R"({"id":12,"status":"ok","op":"spread","spread":2.8203125})"},
      // Errors, syntax before schema, each with its message.
      {R"(garbage)",
       R"(InvalidArgument: unexpected character 'g' in JSON)"},
      {R"({"op":"spread","seeds":[4])",
       R"(InvalidArgument: expected ',' or '}' in JSON object)"},
      {R"({"op":"bogus","seeds":[4]})",
       R"(InvalidArgument: unknown op "bogus" (expected typical|cascade|spre)"
       R"(ad|seed_select|reliability|update))"},
      {R"({"op":"spread"})",
       R"(InvalidArgument: missing required field "seeds" (array of node ids)"
       R"())"},
      {R"({"op":"spread","seeds":[-1]})",
       R"(InvalidArgument: "seeds" entries must be non-negative 32-bit node )"
       R"(ids)"},
      {R"({"op":"spread","seeds":[4],"accuracy":"sketch"})",
       R"(InvalidArgument: "accuracy"/"max_error" require the v2 envelope; a)"
       R"(dd "v":2 to the request)"},
      {R"({"v":3,"op":"spread","seeds":[4]})",
       R"(InvalidArgument: unsupported protocol version "v":3 (this server s)"
       R"(peaks v1 and v2))"},
      {R"({"op":"spread","seeds":[4],"id":1.5})",
       R"(InvalidArgument: field "id" must be an integer)"},
      {R"({"op":"spread","seeds":[4],"id":true})",
       R"(InvalidArgument: field "id" must be an integer)"},
      {R"({"op":"spread","seeds":[4.5]})",
       R"(InvalidArgument: "seeds" entries must be non-negative 32-bit node )"
       R"(ids)"},
      {R"({"op":"spread","seeds":[4],"threshold":.5})",
       R"(InvalidArgument: unexpected character '.' in JSON)"},
      {R"({"op":"spread","seeds":[4]}trailing)",
       R"(InvalidArgument: trailing characters after JSON value)"},
      // Escaped keys and values, nested unknown values, the number forms
      // strtod reads, a duplicate key inside an "ops" entry, truncated
      // literals, bad escapes and bad numbers.
      {R"({"op":"spread","seeds":[4],"\u0069d":14})",
       R"({"id":14,"status":"ok","op":"spread","spread":2.8203125})"},
      {R"({"op":"spread","seeds":[4],"extra":{"a":[1,{"id":99,"b":null}],"c":)"
       R"("x"},"id":15})",
       R"({"id":15,"status":"ok","op":"spread","spread":2.8203125})"},
      {R"({"op":"reliability","seeds":[4],"threshold":-.5,"id":16})",
       R"({"id":16,"status":"invalid_argument","error":"threshold must be in)"
       R"( [0, 1]"})"},
      {R"({"op":"reliability","seeds":[4],"threshold":1e999,"id":17})",
       R"({"id":17,"status":"invalid_argument","error":"threshold must be in)"
       R"( [0, 1]"})"},
      {R"({"op":"spread","seeds":[1.0,2e0,-0],"id":18})",
       R"({"id":18,"status":"ok","op":"spread","spread":3})"},
      {R"({"op":"update","ops":[{"op":"delete","src":0,"dst":1,"op":"insert",)"
       R"("src":-1}],"id":19})",
       R"({"id":19,"status":"failed_precondition","error":"update requires a)"
       R"( dynamic engine (soi_cli serve --dynamic / Engine::CreateDynamic);)"
       R"( this engine serves a static index"})"},
      {R"({"op":"spre\u0061d","seeds":[4],"id":20})",
       R"({"id":20,"status":"ok","op":"spread","spread":2.8203125})"},
      {R"({"v":2,"op":"spread","seeds":[4],"accuracy":"sketch\u0041","id":21})",
       R"(InvalidArgument: unknown accuracy "sketchA" (expected exact|sketch)"
       R"(|auto))"},
      {R"({"op":"seed_select","k":2e0,"id":3e1})",
       R"({"id":30,"status":"ok","op":"seed_select","seeds":[4,2],"objective)"
       R"(":4})"},
      {R"({"op":"cascade","seeds":[4],"world":3.0,"id":22})",
       R"({"id":22,"status":"ok","op":"cascade","cascade":[0,3,4]})"},
      {R"({"op":"spread","seeds":[4],"id":23,"x":tru})",
       R"(InvalidArgument: bad literal in JSON)"},
      {R"({"op":"spread","seeds":[4],"id":24,"x":nul)",
       R"(InvalidArgument: bad literal in JSON)"},
      {R"({"op":"spread","seeds":[4],"id":25,"x":f})",
       R"(InvalidArgument: bad literal in JSON)"},
      {R"({"op":"spr\ead","seeds":[4],"id":26})",
       R"(InvalidArgument: bad escape in JSON string)"},
      {R"({"op":"spread","seeds":[4],"id":27,"x":"\u00g0"})",
       R"(InvalidArgument: bad \u escape in JSON)"},
      {R"({"op":"spread","seeds":[4],"id":28,"x":"\u00)",
       R"(InvalidArgument: truncated \u escape in JSON)"},
      {R"({"op":"spread","seeds":[4],"id":29,"x":"abc\)",
       R"(InvalidArgument: unterminated JSON string)"},
      {R"({"op":"spread","seeds":[4],"id":30,"x":1e})",
       R"(InvalidArgument: bad number '1e' in JSON)"},
      {R"({"op":"spread","seeds":[4],"id":31,"x":[1,]})",
       R"(InvalidArgument: unexpected character ']' in JSON)"},
      {R"({"op":"spread","seeds":[4],"id":32,"x":{"a" 1}})",
       R"(InvalidArgument: expected ':' in JSON object)"},
  };
  const auto outcome_of = [&](const Status& status, const ProtocolRequest& r) {
    if (!status.ok()) return status.ToString();
    std::string line =
        FormatResponseLine(r.id, r.version, engine.Run(r.request));
    line.pop_back();  // '\n'
    return line;
  };
  // The reused slot starts dirty — parsed from a request whose every field
  // differs from the corpus lines — so the test also proves reuse leaves no
  // residue behind.
  ProtocolRequest reused;
  ASSERT_TRUE(ParseRequestLineInto(
                  "{\"v\":2,\"op\":\"typical\",\"seeds\":[0,1,3],"
                  "\"local_search\":true,\"timeout_ms\":9999,\"id\":-5}",
                  &reused)
                  .ok());
  for (const Case& c : corpus) {
    SCOPED_TRACE(c.line);
    const Status into = ParseRequestLineInto(c.line, &reused);
    EXPECT_EQ(outcome_of(into, reused), c.outcome);
    ProtocolRequest fresh;
    const Status from_fresh = ParseRequestLineInto(c.line, &fresh);
    EXPECT_EQ(outcome_of(from_fresh, fresh), c.outcome);
    if (!into.ok() || !from_fresh.ok()) continue;
    EXPECT_EQ(fresh.request.timeout_ms, reused.request.timeout_ms);
    EXPECT_EQ(fresh.request.accuracy, reused.request.accuracy);
    EXPECT_EQ(fresh.request.max_error, reused.request.max_error);
  }
}

// Nesting deeper than the cap is an error at the cap, whatever the depth:
// the scan's recursion never follows the line down.
TEST(ParseIntoTest, NestingPastTheCapIsAnErrorNotACrash) {
  const std::string deep(100000, '[');
  for (const std::string& line :
       {deep, R"({"op":"spread","seeds":[4],"x":)" + deep + "]}"}) {
    const auto parsed = ParseRequestLine(line);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().ToString(),
              "InvalidArgument: JSON nesting deeper than 64 levels");
  }
  // The request object is level 1: 63 more levels parse, 64 do not.
  const auto nested = [](int levels) {
    return R"({"op":"spread","seeds":[4],"x":)" + std::string(levels, '[') +
           std::string(levels, ']') + "}";
  };
  EXPECT_TRUE(ParseRequestLine(nested(63)).ok());
  EXPECT_FALSE(ParseRequestLine(nested(64)).ok());
}

// Integer fields hold int64 values: a token outside int64, plain or with an
// exponent, is refused with the field's integer error and never cast.
TEST(ParseIntoTest, IntegersOutsideInt64AreRefusedNotCast) {
  for (const std::string value : {"1e300", "-1e19", "99999999999999999999"}) {
    SCOPED_TRACE(value);
    const std::pair<std::string, std::string> cases[] = {
        {"id", R"({"op":"spread","seeds":[4],"id":)" + value + "}"},
        {"world", R"({"op":"cascade","seeds":[4],"world":)" + value + "}"},
        {"k", R"({"op":"seed_select","k":)" + value + "}"},
        {"src", R"({"op":"update","ops":[{"op":"delete","src":)" + value +
                    R"(,"dst":1}]})"},
    };
    for (const auto& [field, line] : cases) {
      const auto parsed = ParseRequestLine(line);
      ASSERT_FALSE(parsed.ok()) << line;
      EXPECT_EQ(parsed.status().ToString(),
                "InvalidArgument: field \"" + field + "\" must be an integer");
    }
  }
  // int64's own bounds, and an integral exponent form inside them, parse.
  for (const auto& [token, id] :
       {std::pair<std::string, int64_t>{"-9223372036854775808", INT64_MIN},
        {"9223372036854775807", INT64_MAX},
        {"9.2e18", 9200000000000000000}}) {
    const auto parsed =
        ParseRequestLine(R"({"op":"spread","seeds":[4],"id":)" + token + "}");
    ASSERT_TRUE(parsed.ok()) << token;
    EXPECT_EQ(parsed->id, id);
  }
}

// A plain integer id is read exactly, so it is echoed the same whatever
// other keys share its line.
TEST(ServeStreamTest, LargeIdEchoesTheSameWithAnUnknownKey) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const std::vector<std::string> lines = SplitLines(ServeOnce(
      &engine,
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":9007199254740993}\n"
      "{\"op\":\"spread\",\"seeds\":[4],\"x\":0,\"id\":9007199254740993}\n"
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":1e300}\n"));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("{\"id\":9007199254740993,\"status\":\"ok\"", 0),
            0u)
      << lines[0];
  EXPECT_EQ(lines[1], lines[0]);
  EXPECT_NE(lines[2].find("\"status\":\"invalid_argument\""),
            std::string::npos)
      << lines[2];
}

TEST(LineGuardTest, OversizedLineGetsInOrderErrorAndResyncs) {
  Engine engine = MakeEngine(PaperExampleGraph());
  ServeOptions options;
  options.max_line_bytes = 64;
  std::string giant = "{\"id\":9,\"op\":\"spread\",\"seeds\":[4],\"pad\":\"";
  giant.append(200, 'x');
  giant += "\"}";
  const std::string input =
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":1}\n" + giant + "\n" +
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":2}\n";
  const std::vector<std::string> lines =
      SplitLines(ServeOnce(&engine, input, options));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("{\"id\":1,\"status\":\"ok\"", 0), 0u);
  // The oversized line's id is still salvaged and the error is in order.
  EXPECT_EQ(lines[1].rfind("{\"id\":9,\"status\":\"invalid_argument\"", 0),
            0u)
      << lines[1];
  EXPECT_NE(lines[1].find("max_line_bytes=64"), std::string::npos);
  // Parsing resynchronized at the newline: the next request still works.
  EXPECT_EQ(lines[2].rfind("{\"id\":2,\"status\":\"ok\"", 0), 0u);
}

TEST(LineGuardTest, NewlinelessStreamIsBoundedAndAnsweredOnce) {
  Engine engine = MakeEngine(PaperExampleGraph());
  ServeOptions options;
  options.max_line_bytes = 64;
  // 1 MiB of newline-less garbage: the guard must answer exactly one error
  // (when the buffer first exceeds the cap) and drop the rest — the old
  // loop would have buffered all of it.
  std::string input(1 << 20, 'x');
  const std::vector<std::string> lines =
      SplitLines(ServeOnce(&engine, input + "\n", options));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("{\"id\":-1,\"status\":\"invalid_argument\"", 0),
            0u);
}

namespace tcp {

int Connect(uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SOI_CHECK(fd >= 0);
  SOI_CHECK(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  return fd;
}

void WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    SOI_CHECK(n > 0);
    data.remove_prefix(static_cast<size_t>(n));
  }
}

std::string ReadUntilEof(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

}  // namespace tcp

// The acceptance bar for the event loop: N pipelined connections served
// concurrently must each receive exactly the bytes the single-connection
// stdin path produces for their stream — at 1 worker thread and at 8.
TEST(ServeTcpTest, ConcurrentPipelinedClientsMatchStdinReplay) {
  EngineOptions engine_options;
  engine_options.sketch_k = 16;
  // Frozen clock: elapsed_us would otherwise differ between the reference
  // replay and the live serve, breaking byte-for-byte comparison.
  engine_options.clock_ns = [] { return uint64_t{0}; };
  Engine engine = MakeEngine(PaperExampleGraph(), engine_options);

  constexpr int kClients = 3;
  std::vector<std::string> streams(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < 12; ++i) {
      const int id = c * 100 + i;
      switch (i % 4) {
        case 0:
          streams[c] += "{\"op\":\"spread\",\"seeds\":[" +
                        std::to_string(i % 5) +
                        "],\"id\":" + std::to_string(id) + "}\n";
          break;
        case 1:
          streams[c] += "{\"v\":2,\"op\":\"spread\",\"seeds\":[" +
                        std::to_string(i % 5) +
                        "],\"accuracy\":\"sketch\",\"id\":" +
                        std::to_string(id) + "}\n";
          break;
        case 2:
          streams[c] += "{\"op\":\"typical\",\"seeds\":[" +
                        std::to_string(i % 5) +
                        "],\"id\":" + std::to_string(id) + "}\n";
          break;
        case 3:  // malformed: error responses must interleave in order too
          streams[c] +=
              "{\"op\":\"spread\",\"seeds\":[oops],\"id\":" +
              std::to_string(id) + "}\n";
          break;
      }
    }
  }
  // Reference bytes from the single-connection stream path.
  std::vector<std::string> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    expected[c] = ServeOnce(&engine, streams[c]);
  }

  for (const uint32_t threads : {1u, 8u}) {
    SetGlobalThreads(threads);
    std::promise<uint16_t> port_promise;
    std::future<uint16_t> port_future = port_promise.get_future();
    ServeOptions options;
    options.max_connections = kClients;
    options.on_listening = [&](uint16_t port) {
      port_promise.set_value(port);
    };
    std::thread server([&] {
      const Status status = ServeTcp(&engine, /*port=*/0, options);
      SOI_CHECK(status.ok());
    });
    const uint16_t port = port_future.get();

    std::vector<std::string> got(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const int fd = tcp::Connect(port);
        // Fully pipelined: the whole stream goes out before any read.
        tcp::WriteAll(fd, streams[c]);
        ::shutdown(fd, SHUT_WR);
        got[c] = tcp::ReadUntilEof(fd);
        ::close(fd);
      });
    }
    for (auto& t : clients) t.join();
    server.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(got[c], expected[c])
          << "client " << c << " at threads=" << threads;
    }
  }
  SetGlobalThreads(0);
}

// Fuzz-ish corpus over a real socket: torn lines, pipelined half-writes,
// binary garbage, and oversized lines. The connection must survive all of
// it and answer every non-blank line, in order.
TEST(ServeTcpTest, SurvivesTornLinesGarbageAndOversizedLines) {
  Engine engine = MakeEngine(PaperExampleGraph());
  std::promise<uint16_t> port_promise;
  std::future<uint16_t> port_future = port_promise.get_future();
  ServeOptions options;
  options.max_connections = 1;
  options.max_line_bytes = 128;
  options.on_listening = [&](uint16_t port) { port_promise.set_value(port); };
  std::thread server([&] {
    const Status status = ServeTcp(&engine, /*port=*/0, options);
    SOI_CHECK(status.ok());
  });
  const int fd = tcp::Connect(port_future.get());

  const auto pause = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  // 1: a request torn across two writes, split mid-keyword.
  tcp::WriteAll(fd, "{\"op\":\"spr");
  pause();
  tcp::WriteAll(fd, "ead\",\"seeds\":[4],\"id\":1}\n");
  // 2 + 3: two requests in one write, the second torn mid-line; its tail
  // shares a write with binary garbage (4).
  tcp::WriteAll(fd,
                "{\"op\":\"spread\",\"seeds\":[4],\"id\":2}\n"
                "{\"op\":\"cascade\",\"seeds\":[4],\"wor");
  pause();
  static constexpr char kTornTail[] = "ld\":0,\"id\":3}\n\x00\x01\xff\xfe\n";
  tcp::WriteAll(fd, std::string(kTornTail, sizeof(kTornTail) - 1));
  // 5: an oversized line (beyond max_line_bytes=128), then 6: recovery.
  std::string giant = "{\"id\":5,\"pad\":\"";
  giant.append(300, 'y');
  giant += "\"}\n";
  tcp::WriteAll(fd, giant);
  tcp::WriteAll(fd, "{\"op\":\"spread\",\"seeds\":[4],\"id\":6}\n");
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> lines =
      SplitLines(tcp::ReadUntilEof(fd));
  ::close(fd);
  server.join();

  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0].rfind("{\"id\":1,\"status\":\"ok\"", 0), 0u);
  EXPECT_EQ(lines[1].rfind("{\"id\":2,\"status\":\"ok\"", 0), 0u);
  EXPECT_EQ(lines[2].rfind("{\"id\":3,\"status\":\"ok\"", 0), 0u);
  EXPECT_EQ(lines[3].rfind("{\"id\":-1,\"status\":\"invalid_argument\"", 0),
            0u)
      << lines[3];
  EXPECT_EQ(lines[4].rfind("{\"id\":5,\"status\":\"invalid_argument\"", 0),
            0u)
      << lines[4];
  EXPECT_NE(lines[4].find("max_line_bytes=128"), std::string::npos);
  EXPECT_EQ(lines[5].rfind("{\"id\":6,\"status\":\"ok\"", 0), 0u);
}

// A line nested 100,000 deep, alone or inside an unknown key, is answered
// with an invalid_argument line, and the next line is served: over a pipe
// and over TCP alike.
TEST(ServeTcpTest, DeeplyNestedLinesAreAnsweredOverPipeAndTcp) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const std::string deep(100000, '[');
  const std::string input = deep + "\n" +
                            R"({"id":7,"op":"spread","x":)" + deep + "\n" +
                            R"({"op":"spread","seeds":[4],"id":8})" + "\n";
  const std::string piped = ServeOnce(&engine, input);

  std::promise<uint16_t> port_promise;
  std::future<uint16_t> port_future = port_promise.get_future();
  ServeOptions options;
  options.max_connections = 1;
  options.on_listening = [&](uint16_t port) { port_promise.set_value(port); };
  std::thread server([&] {
    const Status status = ServeTcp(&engine, /*port=*/0, options);
    SOI_CHECK(status.ok());
  });
  const int fd = tcp::Connect(port_future.get());
  tcp::WriteAll(fd, input);
  ::shutdown(fd, SHUT_WR);
  const std::string over_tcp = tcp::ReadUntilEof(fd);
  ::close(fd);
  server.join();

  for (const std::string& output : {piped, over_tcp}) {
    const std::vector<std::string> lines = SplitLines(output);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0],
              R"({"id":-1,"status":"invalid_argument",)"
              R"("error":"JSON nesting deeper than 64 levels"})");
    EXPECT_EQ(lines[1],
              R"({"id":7,"status":"invalid_argument",)"
              R"("error":"JSON nesting deeper than 64 levels"})");
    EXPECT_EQ(lines[2].rfind(R"({"id":8,"status":"ok")", 0), 0u) << lines[2];
  }
}

// Cross-connection batching with a window: requests from separate
// connections arriving inside the window coalesce into one engine batch
// (visible via the serve/batch_size histogram) and still demux correctly.
TEST(ServeTcpTest, BatchWindowCoalescesAcrossConnections) {
  Engine engine = MakeEngine(PaperExampleGraph());
  std::promise<uint16_t> port_promise;
  std::future<uint16_t> port_future = port_promise.get_future();
  ServeOptions options;
  options.max_connections = 2;
  options.batch_window_us = 50000;  // 50ms: generous on a loaded CI box
  options.on_listening = [&](uint16_t port) { port_promise.set_value(port); };
  std::thread server([&] {
    const Status status = ServeTcp(&engine, /*port=*/0, options);
    SOI_CHECK(status.ok());
  });
  const uint16_t port = port_future.get();
  std::vector<std::string> got(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      const int fd = tcp::Connect(port);
      tcp::WriteAll(fd, "{\"op\":\"spread\",\"seeds\":[4],\"id\":" +
                            std::to_string(c) + "}\n");
      ::shutdown(fd, SHUT_WR);
      got[c] = tcp::ReadUntilEof(fd);
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  server.join();
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(got[c].rfind("{\"id\":" + std::to_string(c) + ",\"status\":"
                           "\"ok\"",
                           0),
              0u)
        << got[c];
  }
}

}  // namespace
}  // namespace soi::service
