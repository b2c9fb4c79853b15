#ifndef SOI_JACCARD_MEDIAN_H_
#define SOI_JACCARD_MEDIAN_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/prob_graph.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace soi {

/// Options for the approximate Jaccard-median solver.
struct MedianOptions {
  /// Also evaluate up to this many of the input sets as candidate medians
  /// (stride-sampled deterministically); 0 disables. Chierichetti et al.'s
  /// practical algorithm takes the best of frequency-threshold sets and
  /// input sets.
  uint32_t input_candidates = 8;
  /// Run 1-element toggle local search after the sweep. Each pass costs
  /// O(#distinct-elements * #sets); worthwhile for single queries, usually
  /// disabled in whole-graph sweeps.
  bool local_search = false;
  uint32_t local_search_passes = 2;
  /// Skip per-element input validation (strictly ascending, < universe).
  /// Only for callers whose sets are sorted by construction — e.g. cascades
  /// out of the index, which emits ascending node lists. Malformed input
  /// under this flag yields undefined results, not an error.
  bool trusted_presorted = false;
};

/// Output of the solver.
struct MedianResult {
  /// The approximate median, sorted ascending.
  std::vector<NodeId> median;
  /// Its empirical cost: average Jaccard distance to the input sets.
  /// (An *in-sample* quantity; estimate generalization cost on held-out
  /// samples, see core/typical_cascade.h.)
  double cost = 0.0;
  /// The frequency threshold of the winning candidate (elements appearing in
  /// >= threshold inputs), or 0 when an input set / local search won.
  uint32_t threshold = 0;
  /// Which candidate family won (for ablation reporting).
  enum class Source { kThreshold, kInputSet, kLocalSearch } source =
      Source::kThreshold;
};

/// Approximate Jaccard median (Problem 2, paper §2.2/§4): given sets
/// S_1..S_l over [0, universe), find C minimizing the average Jaccard
/// distance. NP-hard in general (Chierichetti et al., SODA 2010); this
/// implements their practical 1+O(eps) approach: sweep all frequency
/// thresholds, optionally compare against input-set candidates and refine
/// by local search.
///
/// The sweep never sorts. Each set gets a histogram over the frequencies
/// that occur, so at threshold t its intersection with the candidate
/// {x : freq(x) >= t} is a running sum over those columns, and every
/// threshold's cost is the same integers summed in the same set order as a
/// frequency-sorted prefix sweep would give. The winning elements come out
/// ascending through a bitmap. Local search, when asked for, builds its own
/// inverted index and (frequency desc, node asc) order.
///
/// The solver owns O(universe + l * distinct frequencies) scratch, sized on
/// first use and reused, so construct once and reuse across queries (e.g.
/// one per worker in the all-nodes sweep of Algorithm 2); once warm the
/// threshold and input-candidate paths allocate nothing but the result.
class JaccardMedianSolver {
 public:
  explicit JaccardMedianSolver(NodeId universe);

  /// Computes the approximate median. Empty input collection is invalid;
  /// empty member sets are fine (the all-empty collection has median {}).
  /// The span-of-spans overload is the allocation-free core (pairs with
  /// CascadeArena::Views() in sweep loops); the vector overload wraps it.
  Result<MedianResult> Compute(std::span<const std::span<const NodeId>> sets,
                               const MedianOptions& options = {});
  Result<MedianResult> Compute(const std::vector<std::vector<NodeId>>& sets,
                               const MedianOptions& options = {});

  NodeId universe() const { return universe_; }

 private:
  NodeId universe_;
  // Universe-wide scratch, sized on first use, all zero between calls.
  std::vector<uint32_t> freq_;  // element -> number of sets holding it
  std::vector<uint8_t> mark_;   // candidate membership bits
  SortedIdMarks median_marks_;  // emits the threshold median ascending
  std::vector<uint32_t> slot_of_;  // local search: element -> distinct slot
  // Per-call scratch, reused across calls.
  std::vector<NodeId> distinct_;       // elements, first-occurrence order
  std::vector<uint32_t> by_freq_;      // frequency -> distinct elements
  std::vector<uint32_t> rank_of_;      // frequency -> threshold rank
  std::vector<uint32_t> thresholds_;   // frequencies that occur, descending
  std::vector<uint32_t> hist_;         // [rank * l + set]: per-set histogram
  std::vector<uint32_t> inter_;        // set -> |set ∩ candidate|
  std::vector<uint32_t> batch_inter_;  // input candidates: 8 counts per set
};

/// Exact optimal median by enumerating all subsets of the union of the
/// inputs (test oracle; the union may have at most 20 elements).
Result<std::pair<std::vector<NodeId>, double>> ExactJaccardMedian(
    const std::vector<std::vector<NodeId>>& sets);

}  // namespace soi

#endif  // SOI_JACCARD_MEDIAN_H_
