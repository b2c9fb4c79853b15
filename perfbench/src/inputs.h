// Seeded inputs: graphs, zipf node popularity, arrival schedules, request
// and update streams. Everything here is a pure function of the run seed;
// the system under test only ever sees the generated files and lines.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "graph/prob_graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

// Independent sub-seed for one purpose ("graph", "requests", ...), so adding
// a consumer never shifts the inputs of another.
uint64_t DeriveSeed(uint64_t seed, const char* purpose);

// Heavy-cascade directed R-MAT: 2^scale nodes, ~10 arcs per node, edge
// probabilities uniform in [0.05, 0.40] (bench_micro's scale_n family).
soi::Result<soi::ProbGraph> HeavyRmatGraph(uint32_t scale, uint64_t seed);

// The dataset registry's paper-regime configuration (R-MAT topology with
// weighted-cascade probabilities) at the given scale.
soi::Result<soi::ProbGraph> RegistryGraph(const char* config, double scale,
                                          uint64_t seed);

// Zipf(s) popularity over a seeded permutation of the node ids, so the hot
// nodes are not simply the lowest ids.
class ZipfNodes {
 public:
  ZipfNodes(soi::NodeId num_nodes, double s, uint64_t seed);
  soi::NodeId Next(soi::Rng* rng) const;
  // Draws a new permutation: other nodes become the hot ones.
  void Shuffle(soi::Rng* rng);

 private:
  std::vector<double> cdf_;
  std::vector<soi::NodeId> perm_;
};

// Draws one single-edge insert, delete or re-weight that is valid against
// `graph`, and applies it there. New probabilities are small, and deletes
// and re-weights pick arcs whose probability is at most 0.1.
soi::GraphUpdate DrawUpdate(soi::DynamicGraph* graph, soi::Rng* rng);

// Request kinds of the traffic mixes. Spread comes as v1 exact, v2 exact
// and v2 sketch (two seeds).
enum class Op : uint8_t {
  kSpreadV1,
  kSpread,
  kSpreadSketch,
  kCascade,
  kTypical,
  kReliability,
  kSeedSelect,
  kUpdate,
};
const char* OpName(Op op);
// The handler-latency bucket an op reports under (its wire op name, with
// sketch-tier spreads kept apart from exact ones).
const char* OpBucket(Op op);

struct MixEntry {
  Op op;
  double weight;
};

// One request: its wire version and the JSON body after the id field.
struct Request {
  Op op = Op::kSpread;
  int version = 2;
  std::string body;

  // The full wire line (newline-terminated) carrying `id`.
  std::string Line(int64_t id) const;
  // The line without its id: what identifies the answer.
  std::string Key() const { return std::to_string(version) + body; }
};

// Generates a seeded request stream over a fixed mix, with one update after
// every `reads_per_update` other requests when that is non-zero. Update ops
// draw single-edge insert / delete / re-weight operations that are valid
// against the graph as left by all earlier updates of the stream (tracked in
// a DynamicGraph), so the whole stream applies cleanly in order.
//
// The popularity order is re-drawn every kPopularityRun requests. Under zipf
// s=1.2 the hottest node gets a fifth of the requests, so a single order
// would make a whole run's cost that of one node.
class RequestStream {
 public:
  static constexpr uint64_t kPopularityRun = 1000;

  RequestStream(const soi::ProbGraph& graph, uint32_t num_worlds,
                std::vector<MixEntry> mix, double zipf_s, uint64_t seed,
                uint32_t reads_per_update = 0);

  Request Next();
  // A request of a given kind (e.g. to place a rare op at a fixed point).
  Request Make(Op op);

  // Graph state after every update generated so far.
  const soi::DynamicGraph& graph() const { return graph_; }

 private:
  std::string UpdateBody();

  soi::DynamicGraph graph_;
  uint32_t num_worlds_;
  std::vector<MixEntry> mix_;
  double total_weight_ = 0;
  uint32_t reads_per_update_;
  uint32_t since_update_ = 0;
  uint64_t made_ = 0;
  ZipfNodes zipf_;
  soi::Rng rng_;
};

// Open-loop arrival offsets (ns from phase start) of a Poisson process at
// `rate` per second over `seconds`.
std::vector<uint64_t> PoissonArrivals(double rate, double seconds,
                                      soi::Rng* rng);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
