#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/prob_assign.h"

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, const char* purpose) {
  uint64_t h = 1469598103934665603ull ^ seed;
  for (const char* p = purpose; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 1099511628211ull;
  }
  soi::SplitMix64 mix(h);
  return mix.Next();
}

soi::Result<soi::ProbGraph> HeavyRmatGraph(uint32_t scale, uint64_t seed) {
  soi::Rng topo_rng(DeriveSeed(seed, "rmat-topology"));
  SOI_ASSIGN_OR_RETURN(soi::ProbGraph topo,
                       soi::GenerateRmat(scale, uint64_t{10} << scale, {},
                                         &topo_rng));
  soi::Rng prob_rng(DeriveSeed(seed, "rmat-probs"));
  return soi::AssignUniform(topo, &prob_rng, 0.05, 0.40);
}

soi::Result<soi::ProbGraph> RegistryGraph(const char* config, double scale,
                                          uint64_t seed) {
  soi::DatasetOptions options;
  options.scale = scale;
  options.seed = DeriveSeed(seed, config);
  SOI_ASSIGN_OR_RETURN(soi::Dataset dataset,
                       soi::MakeDataset(config, options));
  return std::move(dataset.graph);
}

// -- Zipf ---------------------------------------------------------------------

ZipfNodes::ZipfNodes(soi::NodeId num_nodes, double s, uint64_t seed)
    : cdf_(num_nodes), perm_(num_nodes) {
  double sum = 0;
  for (soi::NodeId r = 0; r < num_nodes; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r) + 1.0, s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
  for (soi::NodeId v = 0; v < num_nodes; ++v) perm_[v] = v;
  soi::Rng rng(seed);
  Shuffle(&rng);
}

void ZipfNodes::Shuffle(soi::Rng* rng) {
  for (size_t i = perm_.size(); i > 1; --i) {
    std::swap(perm_[i - 1], perm_[rng->NextBounded(i)]);
  }
}

soi::NodeId ZipfNodes::Next(soi::Rng* rng) const {
  const double u = rng->NextDouble();
  const size_t rank = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return perm_[std::min(rank, perm_.size() - 1)];
}

// -- Requests -----------------------------------------------------------------

const char* OpName(Op op) {
  switch (op) {
    case Op::kSpreadV1: return "spread_v1";
    case Op::kSpread: return "spread";
    case Op::kSpreadSketch: return "spread_sketch";
    case Op::kCascade: return "cascade";
    case Op::kTypical: return "typical";
    case Op::kReliability: return "reliability";
    case Op::kSeedSelect: return "seed_select";
    case Op::kUpdate: return "update";
  }
  return "?";
}

const char* OpBucket(Op op) {
  return op == Op::kSpreadV1 ? "spread" : OpName(op);
}

std::string Request::Line(int64_t id) const {
  std::string line = version == 2 ? "{\"v\":2,\"id\":" : "{\"id\":";
  line += std::to_string(id);
  line += ',';
  line += body;
  line += "}\n";
  return line;
}

RequestStream::RequestStream(const soi::ProbGraph& graph, uint32_t num_worlds,
                             std::vector<MixEntry> mix, double zipf_s,
                             uint64_t seed, uint32_t reads_per_update)
    : graph_(soi::DynamicGraph::FromGraph(graph)),
      num_worlds_(num_worlds),
      mix_(std::move(mix)),
      reads_per_update_(reads_per_update),
      zipf_(graph.num_nodes(), zipf_s, DeriveSeed(seed, "zipf-permutation")),
      rng_(DeriveSeed(seed, "request-stream")) {
  for (const MixEntry& e : mix_) total_weight_ += e.weight;
}

Request RequestStream::Next() {
  if (reads_per_update_ > 0 && since_update_++ == reads_per_update_) {
    since_update_ = 0;
    return Make(Op::kUpdate);
  }
  double u = rng_.NextDouble() * total_weight_;
  for (const MixEntry& e : mix_) {
    if (u < e.weight) return Make(e.op);
    u -= e.weight;
  }
  return Make(mix_.back().op);
}

Request RequestStream::Make(Op op) {
  if (++made_ % kPopularityRun == 0) zipf_.Shuffle(&rng_);
  Request r;
  r.op = op;
  const std::string a = std::to_string(zipf_.Next(&rng_));
  switch (op) {
    case Op::kSpreadV1:
      r.version = 1;
      r.body = "\"op\":\"spread\",\"seeds\":[" + a + "]";
      break;
    case Op::kSpread:
      r.body = "\"op\":\"spread\",\"seeds\":[" + a + "],\"accuracy\":\"exact\"";
      break;
    case Op::kSpreadSketch: {
      const std::string b = std::to_string(zipf_.Next(&rng_));
      r.body = "\"op\":\"spread\",\"seeds\":[" + a + "," + b +
               "],\"accuracy\":\"sketch\"";
      break;
    }
    case Op::kCascade:
      r.body = "\"op\":\"cascade\",\"seeds\":[" + a + "],\"world\":" +
               std::to_string(rng_.NextBounded(num_worlds_));
      break;
    case Op::kTypical:
      r.body = "\"op\":\"typical\",\"seeds\":[" + a + "]";
      break;
    case Op::kReliability:
      r.body = "\"op\":\"reliability\",\"seeds\":[" + a + "],\"threshold\":0.5";
      break;
    case Op::kSeedSelect:
      r.body = "\"op\":\"seed_select\",\"k\":10,\"method\":\"tc\"";
      break;
    case Op::kUpdate:
      r.body = UpdateBody();
      break;
  }
  return r;
}

soi::GraphUpdate DrawUpdate(soi::DynamicGraph* graph, soi::Rng* rng) {
  constexpr double kMaxChurnProb = 0.1;
  const auto node = [graph, rng] {
    return static_cast<soi::NodeId>(rng->NextBounded(graph->num_nodes()));
  };
  while (true) {
    const uint64_t kind = rng->NextBounded(3);
    soi::GraphUpdate u;
    if (kind == 0) {
      u.kind = soi::UpdateKind::kEdgeInsert;
      u.src = node();
      u.dst = node();
    } else {
      // Delete or re-weight an arc that exists right now and carries a
      // learned-regime probability too: the stream churns weak ties, it
      // does not cut the near-certain ones.
      u.src = node();
      const auto out = graph->Out(u.src);
      if (out.empty()) continue;
      const auto& arc = out[rng->NextBounded(out.size())];
      if (arc.second > kMaxChurnProb) continue;
      u.dst = arc.first;
      u.kind = kind == 1 ? soi::UpdateKind::kEdgeDelete
                         : soi::UpdateKind::kProbUpdate;
    }
    // Learned-regime probabilities are small: [0.01, 0.06), at the four
    // decimals the wire carries.
    u.prob = std::round((0.01 + 0.05 * rng->NextDouble()) * 1e4) / 1e4;
    // Keeps only ops valid against the current graph (fresh inserts, no
    // self-loops).
    if (graph->Apply(u).ok()) return u;
  }
}

std::string RequestStream::UpdateBody() {
  const soi::GraphUpdate u = DrawUpdate(&graph_, &rng_);
  const char* name = u.kind == soi::UpdateKind::kEdgeInsert   ? "insert"
                     : u.kind == soi::UpdateKind::kEdgeDelete ? "delete"
                                                              : "prob";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"op\":\"update\",\"ops\":[{\"op\":\"%s\",\"src\":%u,"
                "\"dst\":%u",
                name, u.src, u.dst);
  std::string body = buf;
  if (u.kind != soi::UpdateKind::kEdgeDelete) {
    std::snprintf(buf, sizeof(buf), ",\"prob\":%.4f", u.prob);
    body += buf;
  }
  body += "}]";
  return body;
}

std::vector<uint64_t> PoissonArrivals(double rate, double seconds,
                                      soi::Rng* rng) {
  std::vector<uint64_t> at;
  at.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng->NextDouble()) / rate;
    if (t >= seconds) break;
    at.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return at;
}

}  // namespace perfbench
