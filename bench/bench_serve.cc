// bench_serve: load/latency bench for the serving data plane.
//
// Three experiments against an in-process engine:
//
//   1. Slow-client interleaving — M pipelined clients, each pacing its
//      requests (think time between sends), against the epoll event loop.
//      The loop overlaps all the think time, so its wall clock should sit
//      near the ideal per_client x pace of one client alone, not M times it
//      (a one-connection-at-a-time server pays ~M x).
//   2. Closed-loop latency — M clients issuing requests back-to-back;
//      per-request round trips aggregated into p50/p95/p99 and queries/sec.
//   3. Steady-state allocations — a global operator-new counter measures
//      heap allocations per request on the exact-tier hot path after
//      warmup. The in-situ parser, pooled request slots, arena-style
//      response buffers, and transparent metrics lookups are all designed
//      to make this 0.
//
// Writes BENCH_serve.json. Modes:
//   --smoke          tiny counts, same phases (CI-sized)
//   --connect PORT   skip the in-process server and run the closed-loop
//                    phase against an already-running soi_cli serve on
//                    127.0.0.1:PORT (exact-tier requests only); exits
//                    nonzero on any protocol mismatch. No JSON output.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "graph/prob_graph.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "service/engine.h"
#include "service/server.h"
#include "util/rng.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in the process bumps it.
// Client threads keep their steady-state loops allocation-free on purpose,
// so the delta across a measurement window is the server-side cost.

static std::atomic<uint64_t> g_allocs{0};

static void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace soi::service {
namespace {

uint64_t NowUs() { return obs::NowNs() / 1000; }

void SleepUs(uint64_t us) {
  if (us == 0) return;
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(us / 1000000);
  ts.tv_nsec = static_cast<long>((us % 1000000) * 1000);
  ::nanosleep(&ts, nullptr);
}

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Allocation-free line framing over a socket: fixed buffer, memmove
// compaction, no strings.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  bool NextLine(std::string_view* line) {
    while (true) {
      for (size_t i = pos_; i < len_; ++i) {
        if (buf_[i] == '\n') {
          *line = std::string_view(buf_ + pos_, i - pos_);
          pos_ = i + 1;
          return true;
        }
      }
      if (pos_ > 0) {
        std::memmove(buf_, buf_ + pos_, len_ - pos_);
        len_ -= pos_;
        pos_ = 0;
      }
      if (len_ == sizeof(buf_)) return false;  // line longer than the buffer
      const ssize_t n = ::read(fd_, buf_ + len_, sizeof(buf_) - len_);
      if (n <= 0) return false;
      len_ += static_cast<size_t>(n);
    }
  }

 private:
  int fd_;
  char buf_[1 << 16];
  size_t pos_ = 0;
  size_t len_ = 0;
};

bool WriteFull(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

struct ClientPlan {
  // Request lines and the "{"id":N,"status":"ok"" prefix each response must
  // start with — both prebuilt before the measured loop so the client never
  // allocates in steady state.
  std::vector<std::string> requests;
  std::vector<std::string> expect_prefix;
};

// Builds one client's request stream: exact v1 spread, v2 exact spread,
// and (when the server has a sketch tier) v2 sketch spread, round-robin
// over a few single-node seed sets.
ClientPlan MakePlan(uint32_t client, uint32_t count, uint32_t num_nodes,
                    bool with_sketch) {
  ClientPlan plan;
  plan.requests.reserve(count);
  plan.expect_prefix.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const int64_t id = static_cast<int64_t>(client) * 1000000 + i;
    const uint32_t seed = (client * 7 + i * 13) % num_nodes;
    const int kind = static_cast<int>(i % (with_sketch ? 3 : 2));
    std::string line;
    if (kind == 0) {
      line = "{\"id\":" + std::to_string(id) + ",\"op\":\"spread\",\"seeds\":[" +
             std::to_string(seed) + "]}";
    } else if (kind == 1) {
      line = "{\"v\":2,\"id\":" + std::to_string(id) +
             ",\"op\":\"spread\",\"seeds\":[" + std::to_string(seed) +
             "],\"accuracy\":\"exact\"}";
    } else {
      line = "{\"v\":2,\"id\":" + std::to_string(id) +
             ",\"op\":\"spread\",\"seeds\":[" + std::to_string(seed) +
             "],\"accuracy\":\"sketch\"}";
    }
    line += '\n';
    plan.requests.push_back(std::move(line));
    plan.expect_prefix.push_back("{\"id\":" + std::to_string(id) +
                                 ",\"status\":\"ok\"");
  }
  return plan;
}

struct ClientResult {
  bool ok = false;
  uint64_t requests_done = 0;
  std::vector<uint64_t> latencies_us;  // empty unless recording
};

// Closed-loop client: send one request, wait for its response, optionally
// sleep `pace_us` of think time first. The measured loop allocates nothing.
void RunClient(uint16_t port, const ClientPlan& plan, uint32_t pace_us,
               bool record_latency, ClientResult* out) {
  const int fd = ConnectTo(port);
  if (fd < 0) return;
  LineReader reader(fd);
  if (record_latency) out->latencies_us.reserve(plan.requests.size());
  bool ok = true;
  for (size_t i = 0; i < plan.requests.size() && ok; ++i) {
    SleepUs(pace_us);
    const uint64_t t0 = NowUs();
    if (!WriteFull(fd, plan.requests[i])) {
      ok = false;
      break;
    }
    std::string_view line;
    if (!reader.NextLine(&line)) {
      ok = false;
      break;
    }
    if (record_latency) out->latencies_us.push_back(NowUs() - t0);
    if (line.substr(0, plan.expect_prefix[i].size()) != plan.expect_prefix[i]) {
      std::fprintf(stderr, "bench_serve: unexpected response for %s  got %.*s\n",
                   plan.requests[i].c_str(), static_cast<int>(line.size()),
                   line.data());
      ok = false;
      break;
    }
    ++out->requests_done;
  }
  ::shutdown(fd, SHUT_WR);
  ::close(fd);
  out->ok = ok;
}

// Runs `server` (a thread already listening on `port`) against M concurrent
// clients; returns total wall seconds, or -1 on any client failure.
double RunClients(uint16_t port, const std::vector<ClientPlan>& plans,
                  uint32_t pace_us, bool record_latency,
                  std::vector<ClientResult>* results) {
  results->assign(plans.size(), ClientResult{});
  const uint64_t t0 = NowUs();
  std::vector<std::thread> threads;
  threads.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    threads.emplace_back(RunClient, port, std::cref(plans[i]), pace_us,
                         record_latency, &(*results)[i]);
  }
  for (auto& t : threads) t.join();
  const double wall_s = static_cast<double>(NowUs() - t0) * 1e-6;
  for (const ClientResult& r : *results) {
    if (!r.ok) return -1.0;
  }
  return wall_s;
}

Engine BuildEngine(uint32_t num_nodes, uint64_t num_edges, uint32_t worlds,
                   uint32_t sketch_k) {
  Rng rng(1);
  auto topology =
      GenerateErdosRenyi(num_nodes, num_edges, /*undirected=*/false, &rng);
  SOI_CHECK(topology.ok());
  auto graph = AssignUniform(*topology, &rng);
  SOI_CHECK(graph.ok());
  EngineOptions options;
  options.index.num_worlds = worlds;
  options.seed = 1;
  options.sketch_k = sketch_k;
  auto engine = Engine::Create(std::move(*graph), options);
  SOI_CHECK(engine.ok());
  return std::move(*engine);
}

struct ServerHarness {
  std::thread thread;
  uint16_t port = 0;
  Status result = Status::OK();

  void Join() { thread.join(); }
};

// Starts ServeTcp on an ephemeral port in a background thread and blocks
// until the socket is listening.
ServerHarness StartServer(Engine* engine, uint32_t max_connections,
                          uint32_t batch_window_us) {
  ServerHarness h;
  std::atomic<uint16_t> port{0};
  std::atomic<bool> listening{false};
  ServeOptions options;
  options.max_connections = max_connections;
  options.batch_window_us = batch_window_us;
  options.on_listening = [&port, &listening](uint16_t p) {
    port.store(p);
    listening.store(true);
  };
  Status* result = &h.result;
  h.thread = std::thread([engine, options, result]() {
    *result = ServeTcp(engine, 0, options);
  });
  while (!listening.load()) SleepUs(100);
  h.port = port.load();
  return h;
}

uint64_t Percentile(std::vector<uint64_t>* sorted, double q) {
  if (sorted->empty()) return 0;
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(idx, sorted->size() - 1)];
}

struct BenchNumbers {
  uint32_t clients = 0;
  uint32_t per_client = 0;
  uint32_t pace_us = 0;
  double ideal_wall_s = 0;
  double epoll_wall_s = 0;
  uint32_t cl_clients = 0;
  uint32_t cl_per_client = 0;
  double cl_wall_s = 0;
  double cl_qps = 0;
  uint64_t p50_us = 0, p95_us = 0, p99_us = 0;
  uint32_t warmup = 0;
  uint32_t measured = 0;
  double allocs_per_request = 0;
};

int WriteJson(const BenchNumbers& n, uint32_t nodes, uint64_t edges,
              uint32_t worlds, uint32_t sketch_k) {
  std::string out;
  char buf[256];
  out += "{\n  \"schema\": \"soi-bench-serve-v1\",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"config\": {\"nodes\": %u, \"edges\": %llu, \"worlds\": "
                "%u, \"sketch_k\": %u},\n",
                nodes, static_cast<unsigned long long>(edges), worlds,
                sketch_k);
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "  \"slow_client_interleaving\": {\"clients\": %u, "
      "\"requests_per_client\": %u, \"pace_us\": %u, \"ideal_wall_s\": "
      "%.4f, \"epoll_wall_s\": %.4f, \"epoll_qps\": %.1f, "
      "\"wall_over_ideal\": %.2f},\n",
      n.clients, n.per_client, n.pace_us, n.ideal_wall_s, n.epoll_wall_s,
      static_cast<double>(n.clients) * n.per_client / n.epoll_wall_s,
      n.epoll_wall_s / n.ideal_wall_s);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"closed_loop\": {\"clients\": %u, \"requests_per_client\": "
                "%u, \"wall_s\": %.4f, \"qps\": %.1f, \"latency_us\": "
                "{\"p50\": %llu, \"p95\": %llu, \"p99\": %llu}},\n",
                n.cl_clients, n.cl_per_client, n.cl_wall_s, n.cl_qps,
                static_cast<unsigned long long>(n.p50_us),
                static_cast<unsigned long long>(n.p95_us),
                static_cast<unsigned long long>(n.p99_us));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"allocations\": {\"warmup_requests\": %u, "
                "\"measured_requests\": %u, \"allocs_per_request\": %.4f}\n}\n",
                n.warmup, n.measured, n.allocs_per_request);
  out += buf;
  FILE* f = std::fopen("BENCH_serve.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_serve: cannot write BENCH_serve.json\n");
    return 1;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("wrote BENCH_serve.json\n");
  return 0;
}

// --connect mode: closed-loop correctness + throughput against an external
// server (exact-tier requests only; the server's graph just needs >= 2
// nodes). Exit nonzero on any mismatch.
int RunConnect(uint16_t port, bool smoke) {
  const uint32_t clients = smoke ? 3 : 6;
  const uint32_t per_client = smoke ? 20 : 200;
  std::vector<ClientPlan> plans;
  for (uint32_t c = 0; c < clients; ++c) {
    plans.push_back(MakePlan(c, per_client, /*num_nodes=*/2,
                             /*with_sketch=*/false));
  }
  std::vector<ClientResult> results;
  const double wall = RunClients(port, plans, /*pace_us=*/0,
                                 /*record_latency=*/true, &results);
  if (wall < 0) {
    std::fprintf(stderr, "bench_serve: connect run FAILED\n");
    return 1;
  }
  std::vector<uint64_t> lat;
  uint64_t total = 0;
  for (auto& r : results) {
    total += r.requests_done;
    lat.insert(lat.end(), r.latencies_us.begin(), r.latencies_us.end());
  }
  std::sort(lat.begin(), lat.end());
  std::printf(
      "connect: clients=%u requests=%llu wall_s=%.3f qps=%.1f p50_us=%llu "
      "p99_us=%llu\n",
      clients, static_cast<unsigned long long>(total), wall,
      static_cast<double>(total) / wall,
      static_cast<unsigned long long>(Percentile(&lat, 0.5)),
      static_cast<unsigned long long>(Percentile(&lat, 0.99)));
  return 0;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  int connect_port = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_port = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: bench_serve [--smoke] [--connect PORT]\n");
      return 2;
    }
  }
  if (connect_port >= 0) {
    return RunConnect(static_cast<uint16_t>(connect_port), smoke);
  }

  // Deterministic runtime at 1 thread: the allocation phase must not pay
  // ParallelForChunks closure boxing, and results are identical anyway.
  SetGlobalThreads(1);
  const uint32_t nodes = smoke ? 128 : 512;
  const uint64_t edges = smoke ? 512 : 2048;
  const uint32_t worlds = smoke ? 16 : 64;
  const uint32_t sketch_k = 16;
  Engine engine = BuildEngine(nodes, edges, worlds, sketch_k);
  std::printf("bench_serve: engine ready (%u nodes, %u worlds)\n",
              engine.index().num_nodes(), engine.index().num_worlds());

  BenchNumbers n;

  // -- Phase 1: slow-client interleaving vs the ideal wall time -----------
  n.clients = smoke ? 4 : 6;
  n.per_client = smoke ? 10 : 40;
  n.pace_us = smoke ? 1000 : 2000;
  std::vector<ClientPlan> slow_plans;
  for (uint32_t c = 0; c < n.clients; ++c) {
    slow_plans.push_back(MakePlan(c, n.per_client, nodes, true));
  }
  n.ideal_wall_s = 1e-6 * n.per_client * n.pace_us;
  {
    ServerHarness ev = StartServer(&engine, n.clients, /*batch_window_us=*/0);
    std::vector<ClientResult> results;
    n.epoll_wall_s =
        RunClients(ev.port, slow_plans, n.pace_us, false, &results);
    ev.Join();
    if (n.epoll_wall_s < 0 || !ev.result.ok()) {
      std::fprintf(stderr, "bench_serve: epoll phase FAILED (%s)\n",
                   ev.result.ToString().c_str());
      return 1;
    }
  }
  std::printf(
      "slow-client interleaving: clients=%u x %u, pace=%uus  ideal=%.3fs "
      "epoll=%.3fs  (%.2fx ideal)\n",
      n.clients, n.per_client, n.pace_us, n.ideal_wall_s, n.epoll_wall_s,
      n.epoll_wall_s / n.ideal_wall_s);

  // -- Phase 2: closed-loop latency over the event loop --------------------
  n.cl_clients = smoke ? 3 : 6;
  n.cl_per_client = smoke ? 50 : 300;
  std::vector<ClientPlan> cl_plans;
  for (uint32_t c = 0; c < n.cl_clients; ++c) {
    cl_plans.push_back(MakePlan(c, n.cl_per_client, nodes, true));
  }
  {
    ServerHarness ev = StartServer(&engine, n.cl_clients, 0);
    std::vector<ClientResult> results;
    n.cl_wall_s = RunClients(ev.port, cl_plans, 0, true, &results);
    ev.Join();
    if (n.cl_wall_s < 0 || !ev.result.ok()) {
      std::fprintf(stderr, "bench_serve: closed-loop phase FAILED (%s)\n",
                   ev.result.ToString().c_str());
      return 1;
    }
    std::vector<uint64_t> lat;
    for (auto& r : results) {
      lat.insert(lat.end(), r.latencies_us.begin(), r.latencies_us.end());
    }
    std::sort(lat.begin(), lat.end());
    n.p50_us = Percentile(&lat, 0.5);
    n.p95_us = Percentile(&lat, 0.95);
    n.p99_us = Percentile(&lat, 0.99);
    n.cl_qps = static_cast<double>(n.cl_clients) * n.cl_per_client / n.cl_wall_s;
  }
  std::printf(
      "closed loop: clients=%u x %u  qps=%.1f  p50=%lluus p95=%lluus "
      "p99=%lluus\n",
      n.cl_clients, n.cl_per_client, n.cl_qps,
      static_cast<unsigned long long>(n.p50_us),
      static_cast<unsigned long long>(n.p95_us),
      static_cast<unsigned long long>(n.p99_us));

  // -- Phase 3: allocations per steady-state request (exact tier) ----------
  n.warmup = smoke ? 64 : 256;
  n.measured = smoke ? 128 : 512;
  {
    // One client, exact v1 spread only: after warmup every layer's pools are
    // warm and the delta divided by the request count is the per-request
    // allocation cost. The client's own loop is allocation-free by
    // construction, so the delta belongs to the serving thread.
    ClientPlan warm = MakePlan(0, n.warmup, nodes, false);
    ClientPlan meas = MakePlan(1, n.measured, nodes, false);
    // Rebuild both plans as v1-exact-only streams: kind alternates v1/v2
    // but both are exact, which is what we want.
    ServerHarness ev = StartServer(&engine, 1, 0);
    const int fd = ConnectTo(ev.port);
    if (fd < 0) {
      std::fprintf(stderr, "bench_serve: alloc-phase connect failed\n");
      return 1;
    }
    LineReader reader(fd);
    bool ok = true;
    uint64_t before = 0, after = 0;
    for (size_t i = 0; i < warm.requests.size() && ok; ++i) {
      std::string_view line;
      ok = WriteFull(fd, warm.requests[i]) && reader.NextLine(&line);
    }
    before = g_allocs.load(std::memory_order_relaxed);
    for (size_t i = 0; i < meas.requests.size() && ok; ++i) {
      std::string_view line;
      ok = WriteFull(fd, meas.requests[i]) && reader.NextLine(&line);
    }
    after = g_allocs.load(std::memory_order_relaxed);
    ::shutdown(fd, SHUT_WR);
    ::close(fd);
    ev.Join();
    if (!ok || !ev.result.ok()) {
      std::fprintf(stderr, "bench_serve: allocation phase FAILED\n");
      return 1;
    }
    n.allocs_per_request =
        static_cast<double>(after - before) / static_cast<double>(n.measured);
  }
  std::printf("allocations: %.4f per steady-state request (%u measured after "
              "%u warmup)\n",
              n.allocs_per_request, n.measured, n.warmup);

  return WriteJson(n, nodes, edges, worlds, sketch_k);
}

}  // namespace
}  // namespace soi::service

int main(int argc, char** argv) { return soi::service::Main(argc, argv); }
