#include "jaccard/median.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"

namespace soi {

namespace {

// Cost contribution of one set with intersection `inter`, candidate size `c`,
// set size `s`: the Jaccard distance 1 - inter / (c + s - inter).
inline double Term(uint32_t inter, size_t c, size_t s) {
  const size_t uni = c + s - inter;
  if (uni == 0) return 0.0;  // both empty
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

Status ValidateSets(std::span<const std::span<const NodeId>> sets,
                    NodeId universe) {
  for (const auto& s : sets) {
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i] >= universe) {
        return Status::OutOfRange("set element exceeds universe");
      }
      if (i > 0 && s[i] <= s[i - 1]) {
        return Status::InvalidArgument(
            "input sets must be sorted strictly ascending");
      }
    }
  }
  return Status::OK();
}

}  // namespace

JaccardMedianSolver::JaccardMedianSolver(NodeId universe)
    : universe_(universe) {}

Result<MedianResult> JaccardMedianSolver::Compute(
    std::span<const std::span<const NodeId>> sets,
    const MedianOptions& options) {
  if (sets.empty()) {
    return Status::InvalidArgument("median of an empty collection");
  }
  if (!options.trusted_presorted) {
    SOI_RETURN_IF_ERROR(ValidateSets(sets, universe_));
  }
  SOI_OBS_SPAN("median/compute");
  SOI_OBS_COUNTER_ADD("median/input_sets", sets.size());
  const uint32_t num_sets = static_cast<uint32_t>(sets.size());
  if (freq_.size() < universe_) {
    freq_.assign(universe_, 0);
    mark_.assign(universe_, 0);
    median_marks_.Reserve(universe_);
  }

  // --- Distinct elements and their frequencies. -----------------------------
  distinct_.clear();
  for (const auto& s : sets) {
    for (NodeId x : s) {
      if (freq_[x]++ == 0) distinct_.push_back(x);
    }
  }

  // --- Thresholds: the frequencies that occur, descending. ------------------
  uint32_t max_freq = 0;
  for (NodeId x : distinct_) max_freq = std::max(max_freq, freq_[x]);
  by_freq_.assign(max_freq + size_t{1}, 0);
  for (NodeId x : distinct_) ++by_freq_[freq_[x]];
  rank_of_.resize(max_freq + size_t{1});
  thresholds_.clear();
  for (uint32_t f = max_freq; f >= 1; --f) {
    if (by_freq_[f] == 0) continue;
    rank_of_[f] = static_cast<uint32_t>(thresholds_.size());
    thresholds_.push_back(f);
  }

  // --- Per-set histograms over the thresholds. ------------------------------
  // hist_[r * l + i] counts the elements of set i whose frequency is
  // thresholds_[r], so |S_i ∩ {x : freq(x) >= thresholds_[r]}| is the sum of
  // its columns 0..r.
  const size_t num_thresholds = thresholds_.size();
  hist_.assign(num_thresholds * num_sets, 0);
  for (uint32_t i = 0; i < num_sets; ++i) {
    uint32_t* const column = hist_.data() + i;
    for (NodeId x : sets[i]) {
      ++column[static_cast<size_t>(rank_of_[freq_[x]]) * num_sets];
    }
  }

  // --- Threshold sweep (frequency-descending candidates). -------------------
  inter_.assign(num_sets, 0);
  // The empty candidate is the degenerate threshold "> num_sets".
  double best_cost = 0.0;
  for (uint32_t i = 0; i < num_sets; ++i) {
    best_cost += Term(0, 0, sets[i].size());
  }
  best_cost /= num_sets;
  uint32_t best_threshold = num_sets + 1;
  size_t best_size = 0;
  size_t cand_size = 0;
  for (size_t r = 0; r < num_thresholds; ++r) {
    const uint32_t t = thresholds_[r];
    cand_size += by_freq_[t];
    const uint32_t* const row = hist_.data() + r * num_sets;
    double total = 0.0;
    for (uint32_t i = 0; i < num_sets; ++i) {
      inter_[i] += row[i];
      total += Term(inter_[i], cand_size, sets[i].size());
    }
    const double cost = total / num_sets;
    if (cost < best_cost - 1e-15) {
      best_cost = cost;
      best_size = cand_size;
      best_threshold = t;
    }
  }

  MedianResult result;
  if (best_size > 0) {
    for (NodeId x : distinct_) {
      if (freq_[x] >= best_threshold) median_marks_.Mark(x);
    }
    median_marks_.DrainAppend(best_size, &result.median);
  }
  result.cost = best_cost;
  result.threshold = best_threshold <= num_sets ? best_threshold : 0;
  result.source = MedianResult::Source::kThreshold;

  // --- Input-set candidates (stride-sampled, deterministic). -----------------
  if (options.input_candidates > 0) {
    SOI_OBS_SPAN("median/input_candidates");
    const uint32_t k = std::min<uint32_t>(options.input_candidates, num_sets);
    // Candidates are evaluated in groups of up to 8, one bit of mark_ each,
    // so a single pass over the sets accumulates every intersection count at
    // once: kSpread maps bit b of the mark byte to byte b of a packed
    // uint64 accumulator, flushed to 32-bit counters before any lane
    // saturates. Counts (and hence costs, summed in the same set order) are
    // identical to evaluating each candidate on its own pass.
    static constexpr std::array<uint64_t, 256> kSpread = [] {
      std::array<uint64_t, 256> t{};
      for (uint32_t m = 0; m < 256; ++m) {
        for (uint32_t b = 0; b < 8; ++b) {
          if (m & (1u << b)) t[m] |= uint64_t{1} << (8 * b);
        }
      }
      return t;
    }();
    const auto candidate_index = [&](uint32_t j) {
      return static_cast<uint32_t>(static_cast<uint64_t>(j) * num_sets / k);
    };
    std::vector<uint32_t>& batch_inter = batch_inter_;
    batch_inter.resize(static_cast<size_t>(num_sets) * 8);
    for (uint32_t group = 0; group < k; group += 8) {
      const uint32_t gk = std::min<uint32_t>(8, k - group);
      for (uint32_t b = 0; b < gk; ++b) {
        for (NodeId v : sets[candidate_index(group + b)]) {
          mark_[v] |= static_cast<uint8_t>(1u << b);
        }
      }
      std::fill(batch_inter.begin(), batch_inter.end(), 0);
      for (uint32_t i = 0; i < num_sets; ++i) {
        uint32_t* row = batch_inter.data() + static_cast<size_t>(i) * 8;
        uint64_t acc = 0;
        uint32_t pending = 0;
        const auto flush = [&] {
          for (uint32_t b = 0; b < 8; ++b) {
            row[b] += static_cast<uint32_t>((acc >> (8 * b)) & 0xFF);
          }
          acc = 0;
          pending = 0;
        };
        for (NodeId v : sets[i]) {
          acc += kSpread[mark_[v]];
          if (++pending == 255) flush();
        }
        if (pending > 0) flush();
      }
      for (uint32_t b = 0; b < gk; ++b) {
        const uint32_t idx = candidate_index(group + b);
        double total = 0.0;
        for (uint32_t i = 0; i < num_sets; ++i) {
          total += Term(batch_inter[static_cast<size_t>(i) * 8 + b],
                        sets[idx].size(), sets[i].size());
        }
        const double cost = total / num_sets;
        if (cost < result.cost - 1e-15) {
          result.cost = cost;
          result.median.assign(sets[idx].begin(), sets[idx].end());
          result.threshold = 0;
          result.source = MedianResult::Source::kInputSet;
        }
      }
      for (uint32_t b = 0; b < gk; ++b) {
        for (NodeId v : sets[candidate_index(group + b)]) mark_[v] = 0;
      }
    }
  }

  // --- Local search: 1-element toggles. --------------------------------------
  if (options.local_search && !distinct_.empty()) {
    SOI_OBS_SPAN("median/local_search");
    // Its own inverted index (slot -> ids of the sets holding the element,
    // slots in first-occurrence order) and (frequency desc, node asc) order.
    const size_t num_distinct = distinct_.size();
    if (slot_of_.size() < universe_) slot_of_.resize(universe_);
    std::vector<uint32_t> freq(num_distinct);
    std::vector<uint32_t> inv_offsets(num_distinct + 1, 0);
    for (size_t slot = 0; slot < num_distinct; ++slot) {
      slot_of_[distinct_[slot]] = static_cast<uint32_t>(slot);
      freq[slot] = freq_[distinct_[slot]];
      inv_offsets[slot + 1] = inv_offsets[slot] + freq[slot];
    }
    std::vector<uint32_t> inv(inv_offsets.back());
    {
      std::vector<uint32_t> cursor(inv_offsets.begin(), inv_offsets.end() - 1);
      for (uint32_t i = 0; i < num_sets; ++i) {
        for (NodeId x : sets[i]) inv[cursor[slot_of_[x]]++] = i;
      }
    }
    auto sets_containing = [&](uint32_t slot) {
      return std::span<const uint32_t>(inv.data() + inv_offsets[slot],
                                       inv.data() + inv_offsets[slot + 1]);
    };
    std::vector<uint32_t> order(num_distinct);
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return freq[a] != freq[b] ? freq[a] > freq[b]
                                : distinct_[a] < distinct_[b];
    });

    // Rebuild intersection counts for the current best candidate.
    std::vector<uint32_t>& inter = inter_;
    std::fill(inter.begin(), inter.end(), 0);
    for (NodeId x : result.median) mark_[x] = 1;
    for (uint32_t i = 0; i < num_sets; ++i) {
      uint32_t cnt = 0;
      for (NodeId x : sets[i]) cnt += mark_[x];
      inter[i] = cnt;
    }
    cand_size = result.median.size();
    double cur_cost = result.cost;
    bool changed = false;

    // Counters are accumulated locally and flushed once after the search:
    // toggles happen inside the innermost loop, where even a relaxed
    // fetch_add per event would be measurable.
    uint64_t toggles = 0;
    uint64_t passes = 0;
    for (uint32_t pass = 0; pass < options.local_search_passes; ++pass) {
      bool improved = false;
      for (uint32_t slot_idx = 0; slot_idx < order.size(); ++slot_idx) {
        const uint32_t slot = order[slot_idx];
        const NodeId x = distinct_[slot];
        const bool inside = mark_[x] != 0;
        const size_t new_c = inside ? cand_size - 1 : cand_size + 1;
        // Base: all sets at unchanged intersection but new candidate size.
        double new_total = 0.0;
        for (uint32_t i = 0; i < num_sets; ++i) {
          new_total += Term(inter[i], new_c, sets[i].size());
        }
        // Adjust the sets that contain x.
        const int delta = inside ? -1 : +1;
        for (uint32_t i : sets_containing(slot)) {
          new_total -= Term(inter[i], new_c, sets[i].size());
          new_total += Term(inter[i] + delta, new_c, sets[i].size());
        }
        const double new_cost = new_total / num_sets;
        if (new_cost < cur_cost - 1e-12) {
          cur_cost = new_cost;
          cand_size = new_c;
          mark_[x] = inside ? 0 : 1;
          for (uint32_t i : sets_containing(slot)) {
            inter[i] += delta;
          }
          improved = true;
          changed = true;
          ++toggles;
        }
      }
      ++passes;
      if (!improved) break;
    }
    SOI_OBS_COUNTER_ADD("median/local_search_toggles", toggles);
    SOI_OBS_COUNTER_ADD("median/local_search_passes", passes);

    if (changed) {
      result.median.clear();
      for (NodeId x : distinct_) {
        if (mark_[x]) result.median.push_back(x);
      }
      std::sort(result.median.begin(), result.median.end());
      result.cost = cur_cost;
      result.threshold = 0;
      result.source = MedianResult::Source::kLocalSearch;
    }
    for (NodeId x : distinct_) mark_[x] = 0;
  }

  for (NodeId x : distinct_) freq_[x] = 0;
  return result;
}

Result<MedianResult> JaccardMedianSolver::Compute(
    const std::vector<std::vector<NodeId>>& sets,
    const MedianOptions& options) {
  std::vector<std::span<const NodeId>> views;
  views.reserve(sets.size());
  for (const auto& s : sets) views.emplace_back(s.data(), s.size());
  return Compute(std::span<const std::span<const NodeId>>(views), options);
}

Result<std::pair<std::vector<NodeId>, double>> ExactJaccardMedian(
    const std::vector<std::vector<NodeId>>& sets) {
  if (sets.empty()) {
    return Status::InvalidArgument("median of an empty collection");
  }
  std::vector<NodeId> universe;
  for (const auto& s : sets) universe.insert(universe.end(), s.begin(), s.end());
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()), universe.end());
  if (universe.size() > 20) {
    return Status::InvalidArgument("union too large for exact median");
  }
  const size_t u = universe.size();

  std::vector<uint32_t> masks;
  masks.reserve(sets.size());
  for (const auto& s : sets) {
    uint32_t mask = 0;
    for (NodeId v : s) {
      const size_t pos = static_cast<size_t>(
          std::lower_bound(universe.begin(), universe.end(), v) -
          universe.begin());
      mask |= uint32_t{1} << pos;
    }
    masks.push_back(mask);
  }

  double best_cost = 2.0;
  uint32_t best_mask = 0;
  for (uint32_t candidate = 0; candidate < (uint32_t{1} << u); ++candidate) {
    double total = 0.0;
    const int c = __builtin_popcount(candidate);
    for (uint32_t mask : masks) {
      const int inter = __builtin_popcount(candidate & mask);
      const int uni = c + __builtin_popcount(mask) - inter;
      total += uni == 0 ? 0.0 : 1.0 - static_cast<double>(inter) / uni;
    }
    const double cost = total / static_cast<double>(sets.size());
    if (cost < best_cost - 1e-15) {
      best_cost = cost;
      best_mask = candidate;
    }
  }
  std::vector<NodeId> best_set;
  for (size_t pos = 0; pos < u; ++pos) {
    if ((best_mask >> pos) & 1) best_set.push_back(universe[pos]);
  }
  return std::make_pair(std::move(best_set), best_cost);
}

}  // namespace soi
