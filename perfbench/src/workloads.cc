#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <sys/stat.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/typical_cascade.h"
#include "graph/graph_io.h"
#include "index/cascade_index.h"
#include "infmax/infmax_tc.h"
#include "infmax/sketch_oracle.h"
#include "inputs.h"
#include "loadgen.h"
#include "probes.h"
#include "runtime/parallel_for.h"
#include "service/engine.h"
#include "service/protocol.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"

namespace perfbench {
namespace {

namespace svc = soi::service;

// -- Workload definitions (perfbench/README.md is the prose twin) ------------

// Every op kind of a workload's mix has the same weight. Updates are not
// drawn but placed, one after every reads_per_update reads, so every burst
// carries its share of them.
struct TrafficSpec {
  std::vector<MixEntry> mix;
  double zipf_s = 1.2;
  uint32_t reads_per_update = 0;
  // Saturation throughput of this workload's mix, measured on the parent
  // commit (perfbench/README.md, "Offered load"). The base-rate window
  // offers kLoad of it.
  double capacity_rps = 1000;
};

struct WorkloadSpec {
  const char* name;
  uint32_t worlds;
  uint64_t closure_budget_mb;
  uint32_t build_threads;
  uint32_t sketch_k;  // 0 = no sketch tier in the served state
  TrafficSpec traffic;
};

const WorkloadSpec kBuild = {
    "build", 32, 32, 2, 0,
    {{{Op::kSpreadV1, 1},
      {Op::kSpread, 1},
      {Op::kCascade, 1},
      {Op::kTypical, 1},
      {Op::kReliability, 1}},
     0.8, 0, 3400}};

const WorkloadSpec kServe = {
    "serve", 256, 512, 2, 64,
    {{{Op::kSpreadV1, 1},
      {Op::kSpread, 1},
      {Op::kSpreadSketch, 1},
      {Op::kCascade, 1},
      {Op::kTypical, 1},
      {Op::kReliability, 1}},
     1.2, 0, 17000}};

const WorkloadSpec kUpdate = {
    "update", 64, 512, 1, 0,
    {{{Op::kSpread, 1}, {Op::kCascade, 1}, {Op::kReliability, 1}},
     0.8, 16, 800}};

// Offered load of the base-rate window as a share of capacity_rps: a lightly
// loaded server, so the window's latency is the request path's, not a queue.
constexpr double kLoad = 1.0 / 8;
// Each saturation burst carries the requests capacity_rps serves in this
// share of --seconds, long enough to take in many of the heavy-tailed ops.
constexpr double kBurstShare = 1.0 / 40;

// R-MAT scale of the build workload's graph (n = 2^scale).
constexpr uint32_t kBuildScale = 12;
// Connections the load generator spreads its requests over.
constexpr int kConnections = 3;
// A run whose generator lag p99 reaches this many microseconds is flagged
// invalid: its latencies would measure the generator.
constexpr double kLagLimitUs = 5000;
// Every workload runs this many rounds, each a full lifecycle (build or
// create, open, serve a traffic slice), so every metric's samples spread
// over the whole run instead of one stretch of it.
constexpr int kRounds = 5;
// Share of a round's time budget spent in its base-rate window.
constexpr double kBaseShare = 0.5;
// Latency percentiles are taken per block of about this many consecutive
// reads of a base-rate window (at least one block per window), throughput
// per saturation burst (this many per round).
constexpr size_t kLatencyBlock = 500;
constexpr int kBurstsPerRound = 2;
// InfMax_TC seed count of the build pipeline.
constexpr uint32_t kSelectK = 50;
// Ops whose handler latency every workload reports.
const char* const kHandlerOps[] = {"spread",      "spread_sketch", "cascade",
                                   "typical",     "reliability",   "update",
                                   "seed_select"};
// Number of probe requests that check a reopened or rebuilt state.
constexpr int kProbes = 64;

soi::CascadeIndexOptions IndexOptions(const WorkloadSpec& spec) {
  soi::CascadeIndexOptions o;
  o.num_worlds = spec.worlds;
  o.closure_budget_mb = spec.closure_budget_mb;
  o.tier_policy = soi::ClosureTierPolicy::kAuto;
  return o;
}

double FileMb(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<double>(st.st_size) / (1 << 20);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// -- Per-run state -------------------------------------------------------------

struct Traffic {
  Samples latency_us;
  // Read latency percentiles of each block of a base-rate window.
  Samples block_p50_us;
  Samples block_p99_us;
  Samples update_latency_us;
  // Completion rate of each saturation burst.
  std::vector<double> burst_rps;
  Samples lag_us;
  Samples wait_us;
  std::map<std::string, Samples> handler_us;
  uint64_t attempted = 0;
  Failures failures;
};

// Reference answers: each distinct request (its line without id) answered
// once by an engine the harness owns, hashed like the served responses. The
// served hashes wait in `pending` and are checked after the last round, so
// the reference engine is never resident while memory is measured.
struct Reference {
  struct Entry {
    Request request;
    bool done = false;
    uint64_t answer = 0;
  };
  struct Pending {
    uint32_t key;
    uint64_t hash;
  };
  std::unordered_map<std::string, uint32_t> index;
  std::vector<Entry> entries;
  std::vector<Pending> pending;

  uint32_t Key(const Request& r) {
    auto [it, inserted] =
        index.emplace(r.Key(), static_cast<uint32_t>(entries.size()));
    if (inserted) entries.push_back(Entry{r});
    return it->second;
  }
};

class Bench {
 public:
  Bench(const RunOptions& options, const WorkloadSpec& spec, bool traced)
      : options_(options), spec_(spec), tracer_(traced) {}

  RunResult Run();

 private:
  // Shared phases.
  soi::Result<soi::ProbGraph> PrepareGraph();
  soi::Status BuildPipeline(const soi::ProbGraph& graph, bool with_select,
                            const std::string& path);
  soi::Status ColdStart(const std::string& path, std::string* first_line);
  soi::Status TrafficSlice(RequestStream* stream, Reference* reference);
  void LogTraffic();
  soi::Result<std::vector<uint64_t>> InMemoryAnswers(
      const soi::ProbGraph& graph, const std::vector<Request>& probes);
  soi::Status CheckReopened(const soi::ProbGraph& graph,
                            const std::vector<Request>& probes,
                            const std::vector<uint64_t>& expected);
  soi::Status RunPhase(RequestStream* stream, double rate, double count,
                       bool quick_ack, Reference* reference, Traffic* traffic);
  // Answers the served requests with an engine over `path` and counts every
  // served answer that differs.
  soi::Status CheckAnswers(Reference* reference, const std::string& path);
  // Formats a response as the protocol layer does (timed) and hashes it.
  uint64_t FormatHash(int version, const soi::Result<svc::Response>& result);
  // Times ParseRequestLineInto over the phase's own request lines.
  soi::Status TimeParse(const std::vector<Planned>& plan);
  soi::Status LayerProbes(const soi::ProbGraph& graph);
  soi::Status ProbeSnapshotRestart(const soi::ProbGraph& graph);
  soi::Status CloseServing();
  void Check(bool ok, const std::string& what);
  void Report(RunResult* result);
  void PrintTrace();
  void RecordRequestSpans(const std::vector<Planned>& plan,
                          const std::vector<Observed>& observed);

  // Workload bodies.
  soi::Status RunBuild();
  soi::Status RunServe();
  soi::Status RunUpdate();

  const RunOptions& options_;
  const WorkloadSpec& spec_;
  Tracer tracer_;
  Failures failures_;
  uint64_t attempted_ = 0;
  bool correct_ = true;
  uint64_t start_ns_ = NowNs();

  std::string edges_path_;
  uint64_t index_seed_ = 0;
  uint64_t phases_ = 0;

  // Offline state of the last build pipeline (the build workload moves the
  // index into an engine to compare it with the reopened snapshot).
  std::optional<soi::CascadeIndex> index_;
  std::optional<soi::TypicalCascadeSweep> sweep_;
  std::vector<soi::NodeId> selected_;

  // Serving state: the snapshot (static workloads), the engine, the server
  // and the client connections.
  std::shared_ptr<const soi::Snapshot> snapshot_;
  std::optional<svc::Engine> engine_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Client> client_;

  // Measurements.
  std::vector<double> setup_s_;
  std::vector<double> cold_start_s_;
  std::vector<double> build_s_;
  std::vector<double> load_s_;
  std::vector<double> first_query_us_;
  std::vector<double> from_parts_s_;
  std::vector<double> open_s_;
  std::vector<double> make_index_s_;
  std::vector<double> peak_rss_mb_;
  std::vector<double> throughput_rps_;
  double latency_p50_us_ = 0;
  double latency_p99_us_ = 0;
  Traffic base_;
  // Traced passes only: base-rate windows whose client delays its ACKs.
  Traffic default_ack_;
  double default_ack_p50_us_ = 0;
  double sweep_s_ = 0;
  double select_s_ = 0;
  double write_s_ = 0;
  double snapshot_mb_ = 0;
  double index_build_s_ = 0;
  std::optional<ReplayTotals> replay_;
  Samples extract_us_;
  Samples median_us_;
  double sketch_build_s_ = 0;
  Samples sketch_query_us_;
  DynamicProbe dynamic_;
  Samples parse_ns_;
  Samples format_ns_;
  std::string format_line_;
  uint32_t worlds_materialized_ = 0;
  uint32_t worlds_labeled_ = 0;
  double cache_mb_ = 0;
};

void Bench::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  failures_.Count("check_failed");
  Log("CHECK FAILED: %s", what.c_str());
}

soi::Result<soi::ProbGraph> Bench::PrepareGraph() {
  soi::Result<soi::ProbGraph> generated =
      std::string(spec_.name) == "build"
          ? HeavyRmatGraph(kBuildScale, options_.seed)
          : RegistryGraph("Epinions-W", 1.0, options_.seed);
  if (!generated.ok()) return generated.status();
  edges_path_ = options_.tmp_dir + "/graph.edges";
  SOI_RETURN_IF_ERROR(soi::SaveEdgeList(*generated, edges_path_));
  index_seed_ = DeriveSeed(options_.seed, "index");
  // The system only ever sees the file: every workload serves the graph as
  // loaded back from it.
  const uint64_t t0 = NowNs();
  soi::Result<soi::ProbGraph> loaded = [&] {
    ScopedSpan s(&tracer_, "graph.load");
    return soi::LoadEdgeList(edges_path_);
  }();
  load_s_.push_back(SecondsSince(t0));
  if (loaded.ok()) {
    Log("graph: %u nodes, %llu arcs (%s), seed %llu", loaded->num_nodes(),
        static_cast<unsigned long long>(loaded->num_edges()),
        edges_path_.c_str(), static_cast<unsigned long long>(options_.seed));
  }
  return loaded;
}

// Graph in memory -> snapshot file written: index build, typical sweep,
// (optionally) InfMax_TC, sketch tier when the workload serves one, write.
soi::Status Bench::BuildPipeline(const soi::ProbGraph& graph,
                                 bool with_select, const std::string& path) {
  ScopedSpan pipeline(&tracer_, "pipeline.build");
  soi::SetGlobalThreads(spec_.build_threads);
  const uint64_t t0 = NowNs();
  index_.reset();
  sweep_.reset();
  {
    ScopedSpan s(&tracer_, "index.build");
    soi::Rng rng(index_seed_);
    const uint64_t b0 = NowNs();
    auto built = soi::CascadeIndex::Build(graph, IndexOptions(spec_), &rng);
    if (!built.ok()) return built.status();
    index_.emplace(std::move(*built));
    index_build_s_ = SecondsSince(b0);
  }
  {
    ScopedSpan s(&tracer_, "core.sweep");
    const uint64_t s0 = NowNs();
    soi::TypicalCascadeComputer computer(&*index_);
    auto sweep = computer.ComputeAllFlat();
    if (!sweep.ok()) return sweep.status();
    sweep_.emplace(std::move(*sweep));
    sweep_s_ = SecondsSince(s0);
  }
  if (with_select) {
    ScopedSpan s(&tracer_, "infmax.select");
    const uint64_t s0 = NowNs();
    soi::InfMaxTcOptions select;
    select.k = kSelectK;
    auto seeds = soi::InfMaxTC(sweep_->cascades, graph.num_nodes(), select);
    if (!seeds.ok()) return seeds.status();
    selected_ = std::move(seeds->seeds);
    select_s_ = SecondsSince(s0);
  }
  std::optional<soi::SketchSpreadOracle> sketches;
  if (spec_.sketch_k > 0) {
    ScopedSpan s(&tracer_, "infmax.sketch_build");
    auto built = soi::SketchSpreadOracle::BuildDeterministic(
        *index_, spec_.sketch_k, index_seed_);
    if (!built.ok()) return built.status();
    sketches.emplace(std::move(*built));
  }
  {
    ScopedSpan s(&tracer_, "snapshot.write");
    const uint64_t w0 = NowNs();
    soi::SnapshotWriteOptions write;
    write.typical = &sweep_->cascades;
    write.sketches = sketches ? &*sketches : nullptr;
    SOI_RETURN_IF_ERROR(soi::WriteSnapshot(graph, *index_, path, write));
    write_s_ = SecondsSince(w0);
  }
  build_s_.push_back(SecondsSince(t0));
  snapshot_mb_ = FileMb(path);
  worlds_materialized_ = index_->stats().worlds_materialized;
  worlds_labeled_ = index_->stats().worlds_labeled;
  cache_mb_ = static_cast<double>(index_->stats().closure_bytes +
                                  index_->stats().label_bytes) /
              (1 << 20);
  return soi::Status::OK();
}

svc::EngineOptions ServingOptions(uint32_t sketch_k) {
  svc::EngineOptions o;
  o.threads = 1;
  o.sketch_k = sketch_k;
  return o;
}

// Borrowed views into an open snapshot, anchored by it: the restart path.
soi::Result<svc::EngineParts> PartsFromSnapshot(
    std::shared_ptr<const soi::Snapshot> snap) {
  svc::EngineParts parts;
  parts.graph = snap->MakeGraph();
  SOI_ASSIGN_OR_RETURN(parts.index, snap->MakeIndex());
  if (snap->info().has_typical) parts.typical = snap->MakeTypical();
  if (snap->info().has_sketches) parts.sketches = snap->MakeSketchParts();
  parts.storage = std::move(snap);
  return parts;
}

soi::Result<svc::Engine> EngineFromSnapshot(const std::string& path,
                                            uint32_t sketch_k) {
  SOI_ASSIGN_OR_RETURN(std::shared_ptr<const soi::Snapshot> snap,
                       soi::Snapshot::Open(path));
  SOI_ASSIGN_OR_RETURN(svc::EngineParts parts, PartsFromSnapshot(snap));
  return svc::Engine::FromParts(std::move(parts), ServingOptions(sketch_k));
}

// Snapshot::Open -> views -> Engine::FromParts -> listening -> first
// response: what a restarting server pays before it can answer.
soi::Status Bench::ColdStart(const std::string& path,
                             std::string* first_line) {
  ScopedSpan cold(&tracer_, "pipeline.cold_start");
  soi::SetGlobalThreads(1);
  const uint64_t t0 = NowNs();
  uint64_t t = NowNs();
  {
    ScopedSpan s(&tracer_, "snapshot.open");
    auto snap = soi::Snapshot::Open(path);
    if (!snap.ok()) return snap.status();
    snapshot_ = std::move(*snap);
  }
  open_s_.push_back(SecondsSince(t));
  t = NowNs();
  soi::Result<svc::EngineParts> parts = [&] {
    ScopedSpan s(&tracer_, "snapshot.make_index");
    return PartsFromSnapshot(snapshot_);
  }();
  if (!parts.ok()) return parts.status();
  make_index_s_.push_back(SecondsSince(t));
  t = NowNs();
  {
    ScopedSpan s(&tracer_, "service.from_parts");
    auto engine = svc::Engine::FromParts(std::move(*parts),
                                         ServingOptions(spec_.sketch_k));
    if (!engine.ok()) return engine.status();
    engine_.emplace(std::move(*engine));
  }
  from_parts_s_.push_back(SecondsSince(t));
  {
    ScopedSpan s(&tracer_, "service.listen");
    auto server = Server::Start(&*engine_, kConnections);
    if (!server.ok()) return server.status();
    server_ = std::move(*server);
    auto client =
        Client::Connect(server_->port(), kConnections, &failures_);
    if (!client.ok()) return client.status();
    client_ = std::move(*client);
  }
  t = NowNs();
  {
    ScopedSpan s(&tracer_, "service.first_query");
    ++attempted_;
    if (!client_->Call(*first_line, first_line)) {
      failures_.Count("no_response");
      return soi::Status::IOError("cold start: no first response");
    }
  }
  first_query_us_.push_back(static_cast<double>(NowNs() - t) * 1e-3);
  cold_start_s_.push_back(SecondsSince(t0));
  return soi::Status::OK();
}

soi::Status Bench::CloseServing() {
  if (client_) client_->Close();
  client_.reset();
  soi::Status status = soi::Status::OK();
  if (server_) status = server_->Join();
  server_.reset();
  engine_.reset();
  snapshot_.reset();
  return status;
}

uint64_t Bench::FormatHash(int version,
                           const soi::Result<svc::Response>& result) {
  format_line_.clear();
  const uint64_t t0 = NowNs();
  svc::AppendResponseLine(&format_line_, 0, version, result);
  format_ns_.Add(static_cast<double>(NowNs() - t0));
  format_line_.pop_back();
  return AnswerHash(format_line_);
}

soi::Status Bench::CheckAnswers(Reference* reference, const std::string& path) {
  SOI_ASSIGN_OR_RETURN(svc::Engine engine,
                       EngineFromSnapshot(path, spec_.sketch_k));
  svc::ProtocolRequest parsed;
  for (Reference::Entry& e : reference->entries) {
    if (e.done) continue;
    e.done = true;
    const std::string wire = e.request.Line(0);
    SOI_RETURN_IF_ERROR(svc::ParseRequestLineInto(
        std::string_view(wire.data(), wire.size() - 1), &parsed));
    e.answer = FormatHash(parsed.version, engine.Run(parsed.request));
  }
  uint64_t wrong = 0;
  for (const Reference::Pending& p : reference->pending) {
    wrong += p.hash != reference->entries[p.key].answer ? 1 : 0;
  }
  failures_.Count("wrong_answer", wrong);
  Log("answers: %zu served answers checked against %zu reference answers, "
      "%llu differ",
      reference->pending.size(), reference->entries.size(),
      static_cast<unsigned long long>(wrong));
  reference->pending.clear();
  return soi::Status::OK();
}

void Bench::RecordRequestSpans(const std::vector<Planned>& plan,
                               const std::vector<Observed>& observed) {
  if (!tracer_.enabled()) return;
  const int32_t parent = tracer_.current();
  for (size_t i = 0; i < plan.size(); ++i) {
    const Observed& o = observed[i];
    if (o.recv_ns == 0) continue;
    const int64_t req = static_cast<int64_t>(i);
    const int32_t r =
        tracer_.Add("service.request", o.due_ns, o.recv_ns, parent, req);
    tracer_.Add("client.lag", o.due_ns, std::max(o.due_ns, o.sent_ns), r, req);
    if (o.elapsed_us >= 0) {
      // The handler ran somewhere between send and receive; its duration is
      // exact, its placement is the latest it could have run.
      const uint64_t dur = static_cast<uint64_t>(o.elapsed_us) * 1000;
      const uint64_t end = o.recv_ns;
      tracer_.Add("service.handler", end - std::min(dur, end - o.sent_ns), end,
                  r, req);
    }
  }
}

soi::Status Bench::TimeParse(const std::vector<Planned>& plan) {
  svc::ProtocolRequest parsed;
  for (const Planned& p : plan) {
    const std::string_view line(p.line.data(), p.line.size() - 1);
    const uint64_t t0 = NowNs();
    const soi::Status status = svc::ParseRequestLineInto(line, &parsed);
    parse_ns_.Add(static_cast<double>(NowNs() - t0));
    SOI_RETURN_IF_ERROR(status);
  }
  return soi::Status::OK();
}

// One open-loop phase of `count` requests: Poisson arrivals at `rate`, or
// all due at once when `rate` is 0. Plans, sends, checks and accounts. A
// base-rate window carries the round's one seed_select a quarter of the way
// in: on a dynamic engine it pays the lazy typical sweep on the event loop,
// and the updates after it also maintain the typical table.
soi::Status Bench::RunPhase(RequestStream* stream, double rate, double count,
                            bool quick_ack, Reference* reference,
                            Traffic* traffic) {
  const uint64_t phase = phases_++;
  std::vector<uint64_t> at(static_cast<size_t>(count), 0);
  if (rate > 0) {
    soi::Rng arrivals(DeriveSeed(options_.seed, "arrivals") + phase);
    at = PoissonArrivals(rate, count / rate, &arrivals);
  }
  std::vector<Planned> plan(at.size());
  const int conns = kConnections;
  const size_t seed_select_at = traffic == &base_ ? plan.size() / 4 : SIZE_MAX;
  for (size_t i = 0; i < plan.size(); ++i) {
    const Request r =
        i == seed_select_at ? stream->Make(Op::kSeedSelect) : stream->Next();
    Planned& p = plan[i];
    p.line = r.Line(static_cast<int64_t>(i));
    p.at_ns = at[i];
    p.op = r.op;
    // Updates share one connection: the server keeps per-connection order,
    // and the stream's updates are only valid in order.
    p.conn = r.op == Op::kUpdate ? 0 : static_cast<uint8_t>(i % conns);
    p.key = reference != nullptr ? reference->Key(r) : 0;
  }
  std::vector<Observed> observed;
  const bool io_ok = client_->Run(plan, quick_ack, &observed);
  if (traffic == &base_) {
    SOI_RETURN_IF_ERROR(TimeParse(plan));
    RecordRequestSpans(plan, observed);
  }
  if (rate == 0 && !observed.empty()) {
    // Saturated: answers per second from the common due time to the last
    // answer.
    uint64_t last = 0;
    for (const Observed& o : observed) last = std::max(last, o.recv_ns);
    const uint64_t due = observed.front().due_ns;
    if (last > due) {
      traffic->burst_rps.push_back(static_cast<double>(observed.size()) /
                                   (static_cast<double>(last - due) * 1e-9));
    }
  }
  std::vector<double> reads;
  for (size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    const Observed& o = observed[i];
    ++traffic->attempted;
    std::string failure;
    if (o.recv_ns == 0) {
      failure = "no_response";
    } else if (!o.id_match) {
      failure = "wrong_id";
    } else if (!o.ok) {
      failure = o.error;
    } else if (reference != nullptr) {
      reference->pending.push_back({p.key, o.hash});
    }
    if (!failure.empty()) {
      traffic->failures.Count(failure);
      // A failed request misses every latency limit.
      traffic->latency_us.Add(1e12);
      reads.push_back(1e12);
      continue;
    }
    const double latency = static_cast<double>(o.recv_ns - o.due_ns) * 1e-3;
    traffic->latency_us.Add(latency);
    if (p.op == Op::kUpdate) {
      traffic->update_latency_us.Add(latency);
    } else {
      reads.push_back(latency);
    }
    traffic->lag_us.Add(static_cast<double>(o.sent_ns - o.due_ns) * 1e-3);
    if (o.elapsed_us >= 0) {
      traffic->handler_us[OpBucket(p.op)].Add(static_cast<double>(o.elapsed_us));
      traffic->wait_us.Add(latency - static_cast<double>(o.elapsed_us));
    }
  }
  const size_t n = reads.size();
  const size_t blocks =
      rate > 0 && n > 0 ? std::max<size_t>(n / kLatencyBlock, 1) : 0;
  for (size_t b = 0; b < blocks; ++b) {
    Samples block;
    for (size_t i = b * n / blocks; i < (b + 1) * n / blocks; ++i) {
      block.Add(reads[i]);
    }
    traffic->block_p50_us.Add(block.Percentile(0.5));
    traffic->block_p99_us.Add(block.Percentile(0.99));
  }
  if (!io_ok) return soi::Status::IOError("load generator: connection failed");
  return soi::Status::OK();
}

// One traffic slice against the serving state of this round: a window at
// the base rate, whose latencies pool into base_, then saturation bursts of
// requests all due at once, each one throughput sample. The client
// acknowledges every read at once, so the latency is the server's and not a
// TCP timer's (see Client::Run): with delayed ACKs the update workload's
// p50 swung between 0.2 and 5 ms from seed to seed. A traced pass adds a
// base-rate window whose client delays its ACKs as a default socket does,
// which is what a plain client of the server sees.
soi::Status Bench::TrafficSlice(RequestStream* stream, Reference* reference) {
  const double rate = kLoad * spec_.traffic.capacity_rps;
  const double share = options_.seconds / kRounds;
  {
    ScopedSpan s(&tracer_, "traffic.base");
    SOI_RETURN_IF_ERROR(RunPhase(stream, rate, kBaseShare * share * rate,
                                 /*quick_ack=*/true, reference, &base_));
  }
  if (tracer_.enabled()) {
    ScopedSpan s(&tracer_, "traffic.default_ack");
    SOI_RETURN_IF_ERROR(RunPhase(stream, rate, kBaseShare * share * rate,
                                 /*quick_ack=*/false, reference,
                                 &default_ack_));
  }
  ScopedSpan s(&tracer_, "traffic.burst");
  Traffic burst;
  for (int i = 0; i < kBurstsPerRound; ++i) {
    SOI_RETURN_IF_ERROR(RunPhase(stream, 0,
                                 kBurstShare * options_.seconds *
                                     spec_.traffic.capacity_rps,
                                 /*quick_ack=*/true, reference, &burst));
  }
  failures_.Merge(burst.failures);
  attempted_ += burst.attempted;
  throughput_rps_.insert(throughput_rps_.end(), burst.burst_rps.begin(),
                         burst.burst_rps.end());
  return soi::Status::OK();
}

void Bench::LogTraffic() {
  const TrafficSpec& t = spec_.traffic;
  for (const Traffic* window : {&base_, &default_ack_}) {
    failures_.Merge(window->failures);
    attempted_ += window->attempted;
  }
  Log("traffic: open loop over %d connections (1 generator thread, server 1 "
      "thread, engine budget 1 thread), %d slices at %.0f req/s (1/%.0f of "
      "%.0f req/s capacity), zipf s=%.1f",
      kConnections, kRounds, kLoad * t.capacity_rps, 1 / kLoad,
      t.capacity_rps, t.zipf_s);
  // Percentiles per block, then the median over blocks: a slow stretch of
  // the machine moves a few blocks, not the result.
  latency_p50_us_ = base_.block_p50_us.Median();
  latency_p99_us_ = base_.block_p99_us.Median();
  default_ack_p50_us_ = default_ack_.block_p50_us.Median();
  Log("  latency  %s", base_.latency_us.Describe("us").c_str());
  if (base_.update_latency_us.size() > 0) {
    Log("  updates  %s", base_.update_latency_us.Describe("us").c_str());
  }
  Log("  reads    median over %zu blocks: p50 %.1f us (blocks %.0f..%.0f), "
      "p99 %.1f us (blocks %.0f..%.0f)",
      base_.block_p50_us.size(), latency_p50_us_,
      base_.block_p50_us.Percentile(0), base_.block_p50_us.Percentile(1),
      latency_p99_us_, base_.block_p99_us.Percentile(0),
      base_.block_p99_us.Percentile(1));
  for (const auto& [op, h] : base_.handler_us) {
    Log("  handler  %-14s %s", op.c_str(), h.Describe("us").c_str());
  }
  if (default_ack_.latency_us.size() > 0) {
    Log("  latency with delayed ACKs: %s; median over %zu blocks: p50 %.1f "
        "us",
        default_ack_.latency_us.Describe("us").c_str(),
        default_ack_.block_p50_us.size(), default_ack_p50_us_);
  }
  Log("  burst throughput: median %.0f req/s over %zu bursts",
      Median(throughput_rps_), throughput_rps_.size());
}

// The probe set that checks a reopened or rebuilt state.
std::vector<Request> ProbeRequests(const soi::ProbGraph& graph,
                                   const WorkloadSpec& spec, uint64_t seed,
                                   bool with_seed_select) {
  RequestStream stream(graph, spec.worlds,
                       {{Op::kSpread, 1}, {Op::kCascade, 1},
                        {Op::kTypical, 1}, {Op::kReliability, 1}},
                       spec.traffic.zipf_s, DeriveSeed(seed, "probes"));
  std::vector<Request> probes;
  for (int i = 0; i < kProbes; ++i) {
    probes.push_back(i == 0 && with_seed_select ? stream.Make(Op::kSeedSelect)
                                                : stream.Next());
  }
  return probes;
}

// The probes' answers from an engine over the in-memory index and typical
// table the pipeline built, which it takes over (they are not needed after
// the write). The engine is gone before the snapshot is reopened, so it
// never shares a memory peak with the served state.
soi::Result<std::vector<uint64_t>> Bench::InMemoryAnswers(
    const soi::ProbGraph& graph, const std::vector<Request>& probes) {
  svc::EngineParts parts;
  parts.graph = graph;
  parts.index = std::move(*index_);
  parts.typical = std::move(sweep_->cascades);
  index_.reset();
  sweep_.reset();
  SOI_ASSIGN_OR_RETURN(
      svc::Engine engine,
      svc::Engine::FromParts(std::move(parts), ServingOptions(0)));
  std::vector<uint64_t> answers;
  for (size_t i = 0; i < probes.size(); ++i) {
    SOI_ASSIGN_OR_RETURN(
        svc::ProtocolRequest parsed,
        svc::ParseRequestLine(probes[i].Line(static_cast<int64_t>(i))));
    answers.push_back(FormatHash(2, engine.Run(parsed.request)));
  }
  return answers;
}

// Probes the reopened snapshot over TCP against the in-memory index it was
// written from (byte-identical answers), and InfMax_TC on the reopened
// typical table against the pipeline's seeds.
soi::Status Bench::CheckReopened(const soi::ProbGraph& graph,
                                 const std::vector<Request>& probes,
                                 const std::vector<uint64_t>& expected) {
  int mismatches = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    std::string served;
    ++attempted_;
    if (!client_->Call(probes[i].Line(static_cast<int64_t>(i)), &served)) {
      return soi::Status::IOError("probe: no response");
    }
    mismatches += AnswerHash(served) != expected[i] ? 1 : 0;
  }
  Check(mismatches == 0, std::to_string(mismatches) + " of " +
                             std::to_string(probes.size()) +
                             " probes differ between the reopened snapshot "
                             "and the in-memory index");
  soi::InfMaxTcOptions select;
  select.k = kSelectK;
  auto reselected =
      soi::InfMaxTC(snapshot_->MakeTypical(), graph.num_nodes(), select);
  Check(reselected.ok() && reselected->seeds == selected_,
        "InfMaxTC on the reopened typical table returns other seeds");
  return soi::Status::OK();
}

// -- build ---------------------------------------------------------------------

// Each round: load the edge list (set-up), run the offline pipeline, answer
// the probes in memory, reopen the written snapshot, check it, serve a
// traffic slice from it. Every round writes the same bytes (the build is
// deterministic), so the last file answers for the traffic of all rounds.
soi::Status Bench::RunBuild() {
  SOI_ASSIGN_OR_RETURN(soi::ProbGraph graph, PrepareGraph());
  const std::string snap_path = options_.tmp_dir + "/build.snap";
  RequestStream stream(graph, spec_.worlds, spec_.traffic.mix,
                       spec_.traffic.zipf_s, options_.seed,
                       spec_.traffic.reads_per_update);
  const std::vector<Request> probes =
      ProbeRequests(graph, spec_, options_.seed, /*with_seed_select=*/true);
  Reference reference;
  for (int round = 0; round < kRounds; ++round) {
    ResetPeakRss();
    for (int i = 0; i < 8; ++i) {
      const uint64_t t0 = NowNs();
      ScopedSpan s(&tracer_, "graph.load");
      auto loaded = soi::LoadEdgeList(edges_path_);
      if (!loaded.ok()) return loaded.status();
      load_s_.push_back(SecondsSince(t0));
      setup_s_.push_back(load_s_.back());
      graph = std::move(*loaded);
    }
    SOI_RETURN_IF_ERROR(BuildPipeline(graph, /*with_select=*/true, snap_path));
    SOI_ASSIGN_OR_RETURN(const std::vector<uint64_t> expected,
                         InMemoryAnswers(graph, probes));
    std::string first = stream.Make(Op::kSpread).Line(0);
    SOI_RETURN_IF_ERROR(ColdStart(snap_path, &first));
    Check(first.find("\"status\":\"ok\"") != std::string::npos,
          "reopen: first response is not ok: " + first);
    SOI_RETURN_IF_ERROR(CheckReopened(graph, probes, expected));
    SOI_RETURN_IF_ERROR(TrafficSlice(&stream, &reference));
    SOI_RETURN_IF_ERROR(CloseServing());
    peak_rss_mb_.push_back(PeakRssMb());
  }
  Log("setup: edge-list load, median %.4f s over %zu loads", Median(setup_s_),
      setup_s_.size());
  Log("build: %zu pipelines at %u threads, median %.3f s (last: index %.3f s, "
      "sweep %.3f s, select %.3f s, write %.3f s); tiers %u materialized / %u "
      "labels; snapshot %.1f MiB; reopen median %.4f s",
      build_s_.size(), spec_.build_threads, Median(build_s_), index_build_s_,
      sweep_s_, select_s_, write_s_, worlds_materialized_, worlds_labeled_,
      snapshot_mb_, Median(cold_start_s_));
  LogTraffic();
  SOI_RETURN_IF_ERROR(CheckAnswers(&reference, snap_path));
  if (tracer_.enabled()) SOI_RETURN_IF_ERROR(LayerProbes(graph));
  return soi::Status::OK();
}

// -- serve ---------------------------------------------------------------------

// Each round: build the serve snapshot (untimed by setup_s, timed as
// build_s), then cold-start a server from it twice (set-up) and serve a
// traffic slice from the second. The served answers are checked against the
// last round's file after the last round, as on build.
soi::Status Bench::RunServe() {
  SOI_ASSIGN_OR_RETURN(soi::ProbGraph graph, PrepareGraph());
  const std::string snap_path = options_.tmp_dir + "/serve.snap";
  RequestStream stream(graph, spec_.worlds, spec_.traffic.mix,
                       spec_.traffic.zipf_s, options_.seed,
                       spec_.traffic.reads_per_update);
  Reference reference;
  for (int round = 0; round < kRounds; ++round) {
    SOI_RETURN_IF_ERROR(BuildPipeline(graph, /*with_select=*/false, snap_path));
    // Serving memory only: the offline build is not the server's.
    index_.reset();
    sweep_.reset();
    ResetPeakRss();
    for (int i = 0; i < 2; ++i) {
      if (i > 0) SOI_RETURN_IF_ERROR(CloseServing());
      std::string first = stream.Make(Op::kSpread).Line(0);
      SOI_RETURN_IF_ERROR(ColdStart(snap_path, &first));
      setup_s_.push_back(cold_start_s_.back());
      Check(first.find("\"status\":\"ok\"") != std::string::npos,
            "cold start: first response is not ok: " + first);
    }
    SOI_RETURN_IF_ERROR(TrafficSlice(&stream, &reference));
    SOI_RETURN_IF_ERROR(CloseServing());
    peak_rss_mb_.push_back(PeakRssMb());
  }
  Log("build: %zu serve snapshots (l=%u, sketch k=%u) at %u threads, median "
      "%.3f s; snapshot %.1f MiB",
      build_s_.size(), spec_.worlds, spec_.sketch_k, spec_.build_threads,
      Median(build_s_), snapshot_mb_);
  Log("setup: %zu cold starts, median %.4f s (open %.4f, views %.4f, "
      "from_parts %.6f s, first response %.0f us)",
      setup_s_.size(), Median(setup_s_), Median(open_s_),
      Median(make_index_s_), Median(from_parts_s_), Median(first_query_us_));
  LogTraffic();
  SOI_RETURN_IF_ERROR(CheckAnswers(&reference, snap_path));
  if (tracer_.enabled()) SOI_RETURN_IF_ERROR(LayerProbes(graph));
  return soi::Status::OK();
}

// -- update --------------------------------------------------------------------

// Each round: a dynamic engine from the current graph (build_s is its
// construction, setup_s that plus listening and the first response), a
// traffic slice with updates, then the graph as the engine left it feeds
// the next round — the drift-rebuild path of a dynamic server.
soi::Status Bench::RunUpdate() {
  SOI_ASSIGN_OR_RETURN(soi::ProbGraph graph, PrepareGraph());
  svc::EngineOptions engine_options = ServingOptions(0);
  engine_options.index = IndexOptions(spec_);
  engine_options.seed = index_seed_;
  RequestStream stream(graph, spec_.worlds, spec_.traffic.mix,
                       spec_.traffic.zipf_s, options_.seed,
                       spec_.traffic.reads_per_update);
  const std::vector<Request> probes =
      ProbeRequests(graph, spec_, options_.seed, /*with_seed_select=*/false);
  std::vector<uint64_t> served_hash;
  for (int round = 0; round < kRounds; ++round) {
    ResetPeakRss();
    {
      // An extra construction sample per round (build_s is noisier than
      // a single sample per round can show).
      ScopedSpan s(&tracer_, "dynamic.create");
      const uint64_t t0 = NowNs();
      auto engine = svc::Engine::CreateDynamic(graph, engine_options);
      if (!engine.ok()) return engine.status();
      build_s_.push_back(SecondsSince(t0));
    }
    ScopedSpan cold(&tracer_, "pipeline.cold_start");
    const uint64_t t0 = NowNs();
    {
      ScopedSpan s(&tracer_, "dynamic.create");
      auto engine = svc::Engine::CreateDynamic(graph, engine_options);
      if (!engine.ok()) return engine.status();
      engine_.emplace(std::move(*engine));
    }
    build_s_.push_back(SecondsSince(t0));
    {
      ScopedSpan s(&tracer_, "service.listen");
      auto server = Server::Start(&*engine_, kConnections);
      if (!server.ok()) return server.status();
      server_ = std::move(*server);
      auto client = Client::Connect(server_->port(), kConnections,
                                    &failures_);
      if (!client.ok()) return client.status();
      client_ = std::move(*client);
    }
    const uint64_t q0 = NowNs();
    std::string response;
    {
      ScopedSpan s(&tracer_, "service.first_query");
      ++attempted_;
      if (!client_->Call(stream.Make(Op::kSpread).Line(0), &response)) {
        return soi::Status::IOError("cold start: no first response");
      }
    }
    first_query_us_.push_back(static_cast<double>(NowNs() - q0) * 1e-3);
    setup_s_.push_back(SecondsSince(t0));
    Check(response.find("\"status\":\"ok\"") != std::string::npos,
          "first response is not ok: " + response);
    SOI_RETURN_IF_ERROR(TrafficSlice(&stream, nullptr));
    if (round + 1 == kRounds) {
      // Parity probes, answered by the engine that took every update.
      for (size_t i = 0; i < probes.size(); ++i) {
        std::string served;
        ++attempted_;
        if (!client_->Call(probes[i].Line(static_cast<int64_t>(i)), &served)) {
          return soi::Status::IOError("probe: no response");
        }
        served_hash.push_back(AnswerHash(served));
      }
    }
    client_->Close();
    client_.reset();
    SOI_RETURN_IF_ERROR(server_->Join());
    server_.reset();
    auto state = engine_->CaptureDynamicState();
    if (!state.ok()) return state.status();
    graph = std::move(state->graph);
    engine_.reset();
    peak_rss_mb_.push_back(PeakRssMb());
  }
  Log("setup: %zu dynamic engines (l=%u, keyed sampling), median %.3f s "
      "(construction %.3f s)",
      setup_s_.size(), spec_.worlds, Median(setup_s_), Median(build_s_));
  LogTraffic();

  // The served graph is exactly the generated one with every update applied
  // in order, and a fresh dynamic engine on it answers like the engine that
  // took the updates.
  Check(soi::GraphFingerprint(graph) == stream.graph().Fingerprint(),
        "served graph after the stream differs from the generated updates");
  auto fresh = svc::Engine::CreateDynamic(graph, engine_options);
  if (!fresh.ok()) return fresh.status();
  int mismatches = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    auto parsed =
        svc::ParseRequestLine(probes[i].Line(static_cast<int64_t>(i)));
    if (!parsed.ok()) return parsed.status();
    if (FormatHash(2, fresh->Run(parsed->request)) != served_hash[i]) {
      ++mismatches;
    }
  }
  Check(mismatches == 0, std::to_string(mismatches) +
                             " probes differ between the updated engine and "
                             "a fresh rebuild");
  Log("parity: %zu probes after %zu updates %s a fresh rebuild",
      probes.size(), base_.handler_us["update"].size(),
      mismatches == 0 ? "equal" : "DIFFER from");
  if (tracer_.enabled()) SOI_RETURN_IF_ERROR(LayerProbes(graph));
  return soi::Status::OK();
}

// -- Traced-run layer probes -------------------------------------------------------

// Writes a snapshot of `index_` and restarts from it in process: the
// snapshot layer's cost on this workload's state, for the workload that
// serves no snapshot of its own.
soi::Status Bench::ProbeSnapshotRestart(const soi::ProbGraph& graph) {
  const std::string path = options_.tmp_dir + "/probe.snap";
  {
    ScopedSpan s(&tracer_, "snapshot.write");
    const uint64_t t0 = NowNs();
    soi::SnapshotWriteOptions write;
    write.typical = &sweep_->cascades;
    SOI_RETURN_IF_ERROR(soi::WriteSnapshot(graph, *index_, path, write));
    write_s_ = SecondsSince(t0);
  }
  snapshot_mb_ = FileMb(path);
  soi::SetGlobalThreads(1);
  uint64_t t = NowNs();
  std::shared_ptr<const soi::Snapshot> snap;
  {
    ScopedSpan s(&tracer_, "snapshot.open");
    auto opened = soi::Snapshot::Open(path);
    if (!opened.ok()) return opened.status();
    snap = std::move(*opened);
  }
  open_s_.assign(1, SecondsSince(t));
  t = NowNs();
  soi::Result<svc::EngineParts> parts = [&] {
    ScopedSpan s(&tracer_, "snapshot.make_index");
    return PartsFromSnapshot(snap);
  }();
  if (!parts.ok()) return parts.status();
  make_index_s_.assign(1, SecondsSince(t));
  t = NowNs();
  ScopedSpan s(&tracer_, "service.from_parts");
  const auto engine =
      svc::Engine::FromParts(std::move(*parts), ServingOptions(0));
  from_parts_s_.assign(1, SecondsSince(t));
  return engine.status();
}

soi::Status Bench::LayerProbes(const soi::ProbGraph& graph) {
  ScopedSpan probes(&tracer_, "probes");
  const soi::CascadeIndexOptions options = IndexOptions(spec_);
  soi::SetGlobalThreads(spec_.build_threads);
  if (!index_) {
    // The workload's own index of the static kind, for the static layers.
    ScopedSpan s(&tracer_, "index.build");
    soi::Rng rng(index_seed_);
    const uint64_t t0 = NowNs();
    auto built = soi::CascadeIndex::Build(graph, options, &rng);
    if (!built.ok()) return built.status();
    index_.emplace(std::move(*built));
    index_build_s_ = SecondsSince(t0);
    worlds_materialized_ = index_->stats().worlds_materialized;
    worlds_labeled_ = index_->stats().worlds_labeled;
    cache_mb_ = static_cast<double>(index_->stats().closure_bytes +
                                    index_->stats().label_bytes) /
                (1 << 20);
  }
  const soi::CascadeIndex& index = *index_;
  soi::SetGlobalThreads(1);
  {
    ScopedSpan s(&tracer_, "replay");
    auto replay = ReplayIndexBuild(graph, options, index_seed_, index,
                                   &tracer_);
    if (!replay.ok()) return replay.status();
    replay_ = *replay;
  }
  ZipfNodes zipf(graph.num_nodes(), spec_.traffic.zipf_s,
                 DeriveSeed(options_.seed, "zipf-permutation"));
  soi::Rng rng(DeriveSeed(options_.seed, "probe-nodes"));
  std::vector<soi::NodeId> nodes(128);
  for (soi::NodeId& v : nodes) v = zipf.Next(&rng);
  SOI_RETURN_IF_ERROR(
      ProbeExtractMedian(index, nodes, &extract_us_, &median_us_, &tracer_));
  SOI_RETURN_IF_ERROR(ProbeSketch(index, 64, index_seed_, nodes,
                                  &sketch_build_s_, &sketch_query_us_,
                                  &tracer_));
  if (!sweep_) {
    soi::SetGlobalThreads(spec_.build_threads);
    {
      ScopedSpan s(&tracer_, "core.sweep");
      const uint64_t t0 = NowNs();
      soi::TypicalCascadeComputer computer(&index);
      auto sweep = computer.ComputeAllFlat();
      if (!sweep.ok()) return sweep.status();
      sweep_.emplace(std::move(*sweep));
      sweep_s_ = SecondsSince(t0);
    }
    soi::SetGlobalThreads(1);
  }
  if (select_s_ == 0) {
    ScopedSpan s(&tracer_, "infmax.select");
    const uint64_t t0 = NowNs();
    soi::InfMaxTcOptions select;
    select.k = kSelectK;
    auto seeds = soi::InfMaxTC(sweep_->cascades, graph.num_nodes(), select);
    if (!seeds.ok()) return seeds.status();
    select_s_ = SecondsSince(t0);
  }
  if (open_s_.empty()) SOI_RETURN_IF_ERROR(ProbeSnapshotRestart(graph));
  SOI_RETURN_IF_ERROR(ProbeDynamic(graph, options,
                                   DeriveSeed(options_.seed, "probe-dynamic"),
                                   16, &dynamic_, &tracer_));
  return soi::Status::OK();
}

// -- Reporting -------------------------------------------------------------------

void Bench::Report(RunResult* result) {
  result->correct = correct_;
  result->attempted = attempted_;
  result->failed = failures_.total();
  failures_.Print(attempted_);
  const double lag99 = base_.lag_us.Percentile(0.99);
  if (lag99 >= kLagLimitUs) {
    Log("INVALID: the generator fell behind its schedule (lag p99 %.0f us); "
        "latencies are not trustworthy",
        lag99);
    result->correct = false;
  }
  std::string rounds;
  for (double mb : peak_rss_mb_) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.1f", mb);
    rounds += buf;
  }
  Log("peak RSS per round (MiB):%s", rounds.c_str());
  const auto e2e = [result](const char* name, double v, const char* unit) {
    SetMetric(&result->end_to_end, name, v, unit);
  };
  e2e("setup_s", Median(setup_s_), "s");
  e2e("build_s", Median(build_s_), "s");
  e2e("peak_rss_mb", Median(peak_rss_mb_), "MiB");
  e2e("latency_p50_us", latency_p50_us_, "us");
  e2e("throughput_rps", Median(throughput_rps_), "1/s");
  if (!tracer_.enabled()) return;

  const auto layer = [result](const std::string& name, double v,
                              const char* unit) {
    SetMetric(&result->layers, name, v, unit);
  };
  layer("graph.load_s", Median(load_s_), "s");
  if (replay_) {
    layer("cascade.sample_s", replay_->sample_s, "s");
    layer("scc.condense_s", replay_->condense_s, "s");
    layer("scc.reduce_s", replay_->reduce_s, "s");
    layer("scc.labels_s", replay_->labels_s, "s");
    layer("scc.closure_s", replay_->closure_s, "s");
  }
  layer("index.build_s", index_build_s_, "s");
  layer("index.worlds_materialized", worlds_materialized_, "count");
  layer("index.worlds_labeled", worlds_labeled_, "count");
  layer("index.cache_mb", cache_mb_, "MiB");
  layer("index.extract_us", extract_us_.Median(), "us");
  layer("jaccard.median_us", median_us_.Median(), "us");
  layer("core.sweep_s", sweep_s_, "s");
  layer("infmax.select_s", select_s_, "s");
  layer("infmax.sketch_build_s", sketch_build_s_, "s");
  layer("infmax.sketch_spread_us", sketch_query_us_.Median(), "us");
  layer("snapshot.write_s", write_s_, "s");
  layer("snapshot.open_s", Median(open_s_), "s");
  layer("snapshot.make_index_s", Median(make_index_s_), "s");
  layer("snapshot.file_mb", snapshot_mb_, "MiB");
  layer("service.from_parts_s", Median(from_parts_s_), "s");
  layer("service.first_query_us", Median(first_query_us_), "us");
  layer("service.cold_start_s", Median(cold_start_s_), "s");
  // Handler times arrive in whole microseconds; means keep the digits the
  // percentiles of small integers would lose.
  Samples all_handlers;
  for (const char* op : kHandlerOps) {
    layer(std::string("service.") + op + ".handler_mean_us",
          base_.handler_us[op].Mean(), "us");
  }
  for (const auto& [op, h] : base_.handler_us) all_handlers.Merge(h);
  layer("service.handler_p99_us", all_handlers.Percentile(0.99), "us");
  layer("service.wait_p50_us", base_.wait_us.Percentile(0.5), "us");
  layer("service.wait_p99_us", base_.wait_us.Percentile(0.99), "us");
  layer("protocol.parse_ns", parse_ns_.Median(), "ns");
  layer("protocol.format_ns", format_ns_.Median(), "ns");
  layer("dynamic.keyed_build_s", dynamic_.build_s, "s");
  layer("dynamic.update_us", dynamic_.update_us.Median(), "us");
  layer("dynamic.affected_worlds_mean", dynamic_.affected_worlds.Mean(),
        "count");
  layer("client.latency_p99_us", latency_p99_us_, "us");
  layer("client.default_ack_p50_us", default_ack_p50_us_, "us");
  layer("client.update_p50_us", base_.update_latency_us.Median(), "us");
  layer("client.lag_p99_us", lag99, "us");
  PrintTrace();
}

// Self time per span and per layer, the build split and the latency split.
void Bench::PrintTrace() {
  Log("trace: %zu spans", tracer_.spans().size());
  Log("  %-28s %10s %10s %8s", "span", "total_s", "self_s", "count");
  const auto by_name = tracer_.ByName();
  for (const auto& [name, t] : by_name) {
    Log("  %-28s %10.4f %10.4f %8llu", name.c_str(), t.total_s, t.self_s,
        static_cast<unsigned long long>(t.count));
  }
  Log("  self time per layer:");
  for (const auto& [layer, self] : tracer_.SelfByLayer()) {
    Log("    %-12s %10.4f s", layer.c_str(), self);
  }
  const auto in_pipeline = tracer_.ByName("pipeline.build");
  const auto total = [&in_pipeline](const char* name) {
    const auto it = in_pipeline.find(name);
    return it == in_pipeline.end() ? 0.0 : it->second.total_s;
  };
  if (const auto it = by_name.find("pipeline.build"); it != by_name.end()) {
    const double pipelines = it->second.total_s;
    const double parts = total("index.build") + total("core.sweep") +
                         total("infmax.select") +
                         total("infmax.sketch_build") + total("snapshot.write");
    Log("  build split over %llu pipelines: index %.1f%%, sweep %.1f%%, "
        "select %.1f%%, sketches %.1f%%, write %.1f%%; the rows cover %.1f%% "
        "of pipeline time",
        static_cast<unsigned long long>(it->second.count),
        100 * total("index.build") / pipelines,
        100 * total("core.sweep") / pipelines,
        100 * total("infmax.select") / pipelines,
        100 * total("infmax.sketch_build") / pipelines,
        100 * total("snapshot.write") / pipelines, 100 * parts / pipelines);
  }
  if (replay_) {
    const double r = replay_->total();
    Log("  index build split (one-thread replay, %.3f s against index.build "
        "%.3f s at %u threads): sample %.1f%%, condense %.1f%%, reduce %.1f%%, "
        "labels %.1f%%, closure %.1f%%",
        r, index_build_s_, spec_.build_threads, 100 * replay_->sample_s / r,
        100 * replay_->condense_s / r, 100 * replay_->reduce_s / r,
        100 * replay_->labels_s / r, 100 * replay_->closure_s / r);
  }
  auto in_requests = tracer_.ByName("service.request");
  const auto base = tracer_.ByName("traffic.base");
  if (const auto it = base.find("service.request"); it != base.end()) {
    const double latency = it->second.total_s;
    const double lag = in_requests["client.lag"].total_s;
    const double handler = in_requests["service.handler"].total_s;
    Log("  request latency split (base-rate windows, %llu requests): handler "
        "%.1f%%, waiting (queue, event loop, protocol, socket) %.1f%%, "
        "generator lag %.1f%%",
        static_cast<unsigned long long>(it->second.count),
        100 * handler / latency, 100 * (latency - handler - lag) / latency,
        100 * lag / latency);
  }
  if (!options_.trace_out.empty()) {
    if (tracer_.WriteJson(options_.trace_out)) {
      Log("  spans written to %s", options_.trace_out.c_str());
    } else {
      Log("  could not write %s", options_.trace_out.c_str());
    }
  }
}

RunResult Bench::Run() {
  RunResult result;
  soi::Status status = soi::Status::OK();
  const std::string name = spec_.name;
  if (name == "build") {
    status = RunBuild();
  } else if (name == "serve") {
    status = RunServe();
  } else {
    status = RunUpdate();
  }
  if (!status.ok()) {
    Log("ERROR: %s", status.ToString().c_str());
    correct_ = false;
    failures_.Count("harness_error");
    (void)CloseServing();
  }
  Report(&result);
  Log("pass took %.1f s", SecondsSince(start_ns_));
  return result;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "build" || name == "serve" || name == "update";
}

RunResult RunWorkload(const RunOptions& options, bool traced) {
  const WorkloadSpec& spec = options.workload == "build"   ? kBuild
                             : options.workload == "serve" ? kServe
                                                           : kUpdate;
  Bench bench(options, spec, traced);
  return bench.Run();
}

}  // namespace perfbench
