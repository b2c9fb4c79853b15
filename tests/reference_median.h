// The sort-based JaccardMedianSolver::Compute as it stood before the
// threshold sweep became histogram-based, kept verbatim as a test-only
// reference: jaccard_test.cc requires the library solver to return the same
// median, cost bits, threshold and source on seeded random families.
// Not part of the library; do not optimize it.

#ifndef SOI_TESTS_REFERENCE_MEDIAN_H_
#define SOI_TESTS_REFERENCE_MEDIAN_H_

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "jaccard/median.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/status.h"

namespace soi::reference {

// Cost contribution of one set with intersection `inter`, candidate size `c`,
// set size `s`: the Jaccard distance 1 - inter / (c + s - inter).
inline double Term(uint32_t inter, size_t c, size_t s) {
  const size_t uni = c + s - inter;
  if (uni == 0) return 0.0;  // both empty
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

inline Status ValidateSets(std::span<const std::span<const NodeId>> sets,
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

class SortingMedianSolver {
 public:
  explicit SortingMedianSolver(NodeId universe)
      : universe_(universe),
        slot_of_(universe, 0),
        slot_stamp_(universe, 0),
        mark_(universe, 0) {}

  Result<MedianResult> Compute(std::span<const std::span<const NodeId>> sets,
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

    // --- Collect distinct elements and frequencies. ---------------------------
    ++stamp_;
    std::vector<NodeId> distinct;        // slot -> element
    std::vector<uint32_t> freq;          // slot -> #sets containing element
    size_t total_occurrences = 0;
    for (const auto& s : sets) {
      total_occurrences += s.size();
      for (NodeId x : s) {
        if (slot_stamp_[x] != stamp_) {
          slot_stamp_[x] = stamp_;
          slot_of_[x] = static_cast<uint32_t>(distinct.size());
          distinct.push_back(x);
          freq.push_back(1);
        } else {
          ++freq[slot_of_[x]];
        }
      }
    }

    // --- Inverted index: slot -> ids of sets containing the element. ----------
    std::vector<uint32_t> inv_offsets(distinct.size() + 1, 0);
    for (size_t slot = 0; slot < distinct.size(); ++slot) {
      inv_offsets[slot + 1] = inv_offsets[slot] + freq[slot];
    }
    std::vector<uint32_t> inv(total_occurrences);
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

    // --- Threshold sweep (frequency-descending prefix candidates). ------------
    std::vector<uint32_t> order(distinct.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return freq[a] != freq[b] ? freq[a] > freq[b]
                                : distinct[a] < distinct[b];
    });

    std::vector<uint32_t> inter(num_sets, 0);
    size_t cand_size = 0;

    auto full_cost = [&](size_t c) {
      double total = 0.0;
      for (uint32_t i = 0; i < num_sets; ++i) {
        total += Term(inter[i], c, sets[i].size());
      }
      return total / num_sets;
    };

    // The empty candidate is the degenerate threshold "> num_sets".
    double best_cost = full_cost(0);
    size_t best_prefix = 0;
    uint32_t best_threshold = num_sets + 1;

    size_t pos = 0;
    while (pos < order.size()) {
      const uint32_t t = freq[order[pos]];
      // Add the whole equal-frequency group before evaluating.
      while (pos < order.size() && freq[order[pos]] == t) {
        for (uint32_t i : sets_containing(order[pos])) ++inter[i];
        ++cand_size;
        ++pos;
      }
      const double cost = full_cost(cand_size);
      if (cost < best_cost - 1e-15) {
        best_cost = cost;
        best_prefix = pos;
        best_threshold = t;
      }
    }

    MedianResult result;
    result.median.reserve(best_prefix);
    for (size_t i = 0; i < best_prefix; ++i) {
      result.median.push_back(distinct[order[i]]);
    }
    std::sort(result.median.begin(), result.median.end());
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
      std::vector<uint32_t> batch_inter(static_cast<size_t>(num_sets) * 8);
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
    if (options.local_search && !distinct.empty()) {
      SOI_OBS_SPAN("median/local_search");
      // Rebuild intersection counts for the current best candidate.
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
          const NodeId x = distinct[slot];
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
        for (NodeId x : distinct) {
          if (mark_[x]) result.median.push_back(x);
        }
        std::sort(result.median.begin(), result.median.end());
        result.cost = cur_cost;
        result.threshold = 0;
        result.source = MedianResult::Source::kLocalSearch;
      }
      for (NodeId x : distinct) mark_[x] = 0;
    }

    return result;
  }

 private:
  NodeId universe_;
  std::vector<uint32_t> slot_of_;
  std::vector<uint32_t> slot_stamp_;
  std::vector<uint8_t> mark_;
  uint32_t stamp_ = 0;
};

}  // namespace soi::reference

#endif  // SOI_TESTS_REFERENCE_MEDIAN_H_
