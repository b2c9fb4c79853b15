#include "infmax/rrset.h"

#include <algorithm>
#include <cmath>

#include "infmax/cover_engine.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "util/bitvector.h"
#include "util/check.h"

namespace soi {

namespace {

// Reverse-aligned edge probabilities: probs_for(v)[i] is the probability of
// the arc (InNeighbors(v)[i], v). Computed once per graph traversal batch.
std::vector<double> ReverseAlignedProbs(const ProbGraph& graph) {
  std::vector<double> probs;
  probs.reserve(graph.num_edges());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (NodeId u : graph.InNeighbors(v)) {
      const auto e = graph.FindEdge(u, v);
      SOI_CHECK(e.ok());
      probs.push_back(graph.EdgeProb(*e));
    }
  }
  return probs;
}

// One reverse-reachable set, emitted directly onto the tail of `out`'s
// arena (sorted, then sealed). Each incoming arc is examined (and its coin
// flipped) at most once because nodes enter the frontier at most once.
void SampleOneRrSet(const ProbGraph& graph,
                    const std::vector<double>& rev_probs,
                    const std::vector<uint64_t>& rev_begin, Rng* rng,
                    BitVector* visited, FlatSets* out) {
  std::vector<NodeId>& elems = out->MutableElements();
  const size_t base = elems.size();
  const NodeId target = static_cast<NodeId>(rng->NextBounded(graph.num_nodes()));
  visited->Set(target);
  elems.push_back(target);
  for (size_t read = base; read < elems.size(); ++read) {
    const NodeId x = elems[read];
    const auto in_nbrs = graph.InNeighbors(x);
    const uint64_t arc_base = rev_begin[x];
    for (size_t i = 0; i < in_nbrs.size(); ++i) {
      const NodeId u = in_nbrs[i];
      if (visited->Test(u)) continue;
      if (!rng->NextBernoulli(rev_probs[arc_base + i])) continue;
      visited->Set(u);
      elems.push_back(u);
    }
  }
  for (size_t i = base; i < elems.size(); ++i) visited->Clear(elems[i]);
  std::sort(elems.begin() + base, elems.end());
  out->SealSet();
}

// TIM-style KPT estimation (Tang et al., Algorithm 2, simplified): find the
// scale 2^i at which the mean of kappa(R) = 1 - (1 - w(R)/m)^k exceeds
// 1/2^i, where w(R) is the number of arcs entering R. Returns a lower-bound
// estimate of the optimal expected spread OPT_k.
double EstimateKpt(const ProbGraph& graph,
                   const std::vector<double>& rev_probs,
                   const std::vector<uint64_t>& rev_begin, uint32_t k,
                   Rng* rng) {
  const double n = graph.num_nodes();
  const double m = std::max<double>(1.0, graph.num_edges());
  BitVector visited(graph.num_nodes());
  FlatSets rr;
  const int levels = std::max(1, static_cast<int>(std::log2(n)) - 1);
  for (int i = 1; i <= levels; ++i) {
    const uint32_t samples = static_cast<uint32_t>(
        std::min(1e6, (6.0 * std::log(n) + 6.0 * std::log(std::log2(n))) *
                          std::pow(2.0, i)));
    double sum = 0.0;
    for (uint32_t s = 0; s < samples; ++s) {
      rr.Clear();
      SampleOneRrSet(graph, rev_probs, rev_begin, rng, &visited, &rr);
      uint64_t width = 0;
      for (NodeId v : rr.Set(0)) width += graph.InDegree(v);
      const double kappa =
          1.0 - std::pow(1.0 - static_cast<double>(width) / m,
                         static_cast<double>(k));
      sum += kappa;
    }
    const double mean = sum / samples;
    if (mean > 1.0 / std::pow(2.0, i)) {
      return std::max(1.0, n * mean / 2.0);
    }
  }
  return 1.0;
}

double LogChoose(double n, double k) {
  return std::lgamma(n + 1) - std::lgamma(k + 1) - std::lgamma(n - k + 1);
}

}  // namespace

Result<RrCollection> RrCollection::Sample(const ProbGraph& graph,
                                          uint32_t count, Rng* rng) {
  if (graph.num_nodes() == 0) return Status::InvalidArgument("empty graph");
  if (count == 0) return Status::InvalidArgument("count must be >= 1");

  SOI_OBS_SPAN("rrset/sample_collection");
  const std::vector<double> rev_probs = ReverseAlignedProbs(graph);
  std::vector<uint64_t> rev_begin(graph.num_nodes());
  {
    uint64_t cursor = 0;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      rev_begin[v] = cursor;
      cursor += graph.InDegree(v);
    }
  }

  RrCollection collection;
  collection.num_nodes_ = graph.num_nodes();
  // RR set i is drawn from stream i (identical for every thread count);
  // each chunk owns a visited mask and emits into its own flat arena, and
  // the chunk arenas are concatenated in chunk order afterwards.
  const Rng streams = rng->Fork();
  constexpr uint64_t kGrain = 4;
  std::vector<FlatSets> chunk_sets(PlannedChunks(count, kGrain));
  ParallelForChunks(
      0, count, kGrain,
      [&](uint32_t chunk, uint64_t set_begin, uint64_t set_end) {
        BitVector visited(graph.num_nodes());
        for (uint64_t i = set_begin; i < set_end; ++i) {
          Rng set_rng = streams.Fork(i);
          SampleOneRrSet(graph, rev_probs, rev_begin, &set_rng, &visited,
                         &chunk_sets[chunk]);
        }
      });
  uint64_t total = 0;
  for (const FlatSets& cs : chunk_sets) total += cs.total_elements();
  collection.sets_.Reserve(count, total);
  for (const FlatSets& cs : chunk_sets) collection.sets_.Append(cs);
  SOI_OBS_COUNTER_ADD("rrset/sets_sampled", count);
  SOI_OBS_COUNTER_ADD("rrset/members_total", collection.sets_.total_elements());

  // Inverted index (counting sort by node).
  collection.inv_ = collection.sets_.Transpose(graph.num_nodes());
  return collection;
}

Result<GreedyResult> RrCollection::SelectSeeds(uint32_t k) const {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  SOI_OBS_SPAN("rrset/select_seeds");
  k = std::min<uint32_t>(k, num_nodes_);
  const double scale =
      static_cast<double>(num_nodes_) / static_cast<double>(num_sets());

  // Exact greedy max-cover (standard TIM node selection): candidates are
  // nodes whose covered elements are the RR sets containing them, so the
  // collection's inverted index is the engine's forward index and vice
  // versa.
  const CoverEngine engine(&inv_, &sets_, num_sets());
  GreedyResult result = engine.Select(k, /*track_saturation=*/false);
  for (GreedyStepInfo& step : result.steps) {
    step.marginal_gain *= scale;
    step.objective_after *= scale;
  }
  return result;
}

double RrCollection::EstimateSpread(std::span<const NodeId> seeds) const {
  return EstimateSpread(seeds, &scratch_);
}

double RrCollection::EstimateSpread(std::span<const NodeId> seeds,
                                    SpreadScratch* scratch) const {
  const uint32_t mark = scratch->BeginQuery(num_sets());
  uint32_t* stamps = scratch->stamps();
  uint64_t count = 0;
  for (NodeId s : seeds) {
    SOI_CHECK(s < num_nodes_);
    inv_.ForEach(s, [&](uint32_t set_id) {
      if (stamps[set_id] != mark) {
        stamps[set_id] = mark;
        ++count;
      }
    });
  }
  return static_cast<double>(count) * num_nodes_ / num_sets();
}

Result<GreedyResult> InfMaxRr(const ProbGraph& graph,
                              const RrSetOptions& options, Rng* rng) {
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (graph.num_nodes() == 0) return Status::InvalidArgument("empty graph");
  const uint32_t k = std::min<uint32_t>(options.k, graph.num_nodes());

  uint32_t theta = options.num_rr_sets;
  if (theta == 0) {
    if (!(options.epsilon > 0.0 && options.epsilon < 1.0)) {
      return Status::InvalidArgument("epsilon must be in (0, 1)");
    }
    const std::vector<double> rev_probs = ReverseAlignedProbs(graph);
    std::vector<uint64_t> rev_begin(graph.num_nodes());
    uint64_t cursor = 0;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      rev_begin[v] = cursor;
      cursor += graph.InDegree(v);
    }
    const double n = graph.num_nodes();
    SOI_OBS_SPAN("rrset/kpt_estimate");
    const double kpt = EstimateKpt(graph, rev_probs, rev_begin, k, rng);
    const double lambda =
        (8.0 + 2.0 * options.epsilon) * n *
        (std::log(n) + LogChoose(n, k) + std::log(2.0)) /
        (options.epsilon * options.epsilon);
    theta = static_cast<uint32_t>(std::clamp(
        lambda / kpt, 1.0, static_cast<double>(options.max_rr_sets)));
  }

  SOI_ASSIGN_OR_RETURN(
      const RrCollection collection,
      RrCollection::Sample(graph, theta, rng));
  return collection.SelectSeeds(k);
}

}  // namespace soi
