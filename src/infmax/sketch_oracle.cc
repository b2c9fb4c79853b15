#include "infmax/sketch_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>

#include "runtime/parallel_for.h"
#include "util/check.h"

namespace soi {

namespace {

// Deterministic per-(node, world) rank derived from one build salt.
inline uint64_t RankOf(uint64_t salt, uint32_t world, NodeId v) {
  SplitMix64 mixer(salt ^ (static_cast<uint64_t>(world) * 0x9E3779B97F4A7C15ull) ^
                   (static_cast<uint64_t>(v) << 1));
  return mixer.Next();
}

// Rank 0 .. 2^64-1 mapped to (0, 1]: avoids a zero denominator.
inline double NormalizedRank(uint64_t rank) {
  return (static_cast<double>(rank) + 1.0) * 0x1.0p-64;
}

// Streams the k smallest distinct ranks of sorted runs `a` and `b` into
// `out` (caller-sized to >= k), returning how many were written. Bottom-k
// sketches are closed under this: the union's bottom-k is the k-truncated
// merge of the parts' bottom-k runs, so capping at k loses nothing and
// keeps every query O(k) per run instead of sorting the concatenation.
// Shared descendants contribute the same rank through several runs;
// min-wise semantics require deduplication. Once one run exhausts, the
// other's tail is a block copy.
size_t MergeBottomK(std::span<const uint64_t> a, std::span<const uint64_t> b,
                    uint32_t k, uint64_t* out) {
  const size_t na = a.size();
  const size_t nb = b.size();
  size_t i = 0;
  size_t j = 0;
  size_t o = 0;
  while (o < k) {
    if (i < na && j < nb) {
      const uint64_t va = a[i];
      const uint64_t vb = b[j];
      if (va < vb) {
        out[o++] = va;
        ++i;
      } else if (vb < va) {
        out[o++] = vb;
        ++j;
      } else {
        out[o++] = va;
        ++i;
        ++j;
      }
    } else if (i < na) {
      const size_t take = std::min<size_t>(k - o, na - i);
      std::copy_n(a.data() + i, take, out + o);
      o += take;
      break;
    } else if (j < nb) {
      const size_t take = std::min<size_t>(k - o, nb - j);
      std::copy_n(b.data() + j, take, out + o);
      o += take;
      break;
    } else {
      break;
    }
  }
  return o;
}

// Per-thread scratch for building bottom-k sketches.
class ComponentSketcher {
 public:
  ComponentSketcher(uint64_t salt, uint32_t k)
      : salt_(salt), k_(k), acc_(k), tmp_(k) {}

  // The sketch of component c of world `world`: the k smallest ranks over
  // c's members and its DAG successors' finished sketches (`sketch_of(s)`),
  // ascending. Each successor sketch already is the bottom-k of what it
  // reaches, so k-truncated merges lose nothing, and a successor whose
  // smallest rank lies past a full sketch's largest is skipped unread.
  // Valid until the next call.
  template <typename SketchOf>
  std::span<const uint64_t> Build(const Condensation& cond, uint32_t world,
                                  uint32_t c, SketchOf&& sketch_of) {
    const auto members = cond.ComponentMembers(c);
    members_.clear();
    for (NodeId v : members) members_.push_back(RankOf(salt_, world, v));
    std::sort(members_.begin(), members_.end());
    size_t len = std::min<size_t>(members_.size(), k_);
    std::copy_n(members_.data(), len, acc_.data());
    for (uint32_t succ : cond.DagSuccessors(c)) {
      const std::span<const uint64_t> run = sketch_of(succ);
      if (run.empty() || (len == k_ && run.front() >= acc_[len - 1])) {
        continue;
      }
      len = MergeBottomK(std::span<const uint64_t>(acc_.data(), len), run,
                         k_, tmp_.data());
      acc_.swap(tmp_);
    }
    return std::span<const uint64_t>(acc_.data(), len);
  }

 private:
  uint64_t salt_;
  uint32_t k_;
  std::vector<uint64_t> members_;
  std::vector<uint64_t> acc_;
  std::vector<uint64_t> tmp_;
};

Status BadK(uint32_t k) {
  char msg[128];
  std::snprintf(msg, sizeof(msg),
                "sketch k must be >= 3 (k=%u implies an undefined "
                "1/sqrt(k-2) error bound)",
                k);
  return Status::InvalidArgument(msg);
}

}  // namespace

double SketchSpreadOracle::RelativeErrorBound(uint32_t k) {
  if (k < 3) return 1.0;  // bound undefined below k=3; report "no guarantee"
  return 1.0 / std::sqrt(static_cast<double>(k) - 2.0);
}

Result<SketchSpreadOracle> SketchSpreadOracle::BuildWithSalt(
    const CascadeIndex& index, uint32_t k, uint64_t salt) {
  if (k < 3) return BadK(k);
  SketchSpreadOracle oracle;
  oracle.index_ = &index;
  oracle.k_ = k;
  oracle.salt_ = salt;
  const uint32_t w = index.num_worlds();

  // One offset table of nc + 1 entries per world, back to back.
  std::vector<uint64_t>& base = oracle.world_base_;
  base.assign(w + 1, 0);
  for (uint32_t i = 0; i < w; ++i) {
    base[i + 1] = base[i] + index.world(i).num_components() + 1;
  }
  std::vector<uint64_t>& offsets = oracle.own_offsets_;
  offsets.resize(base[w]);

  // Sizing pass, on this thread; every table starts relative to its
  // world's first entry. Ranks are distinct within a world (RankOf is a
  // bijection of the node id for a fixed salt and world), so component c's
  // sketch holds exactly min(k, |R(c)|) ranks, R(c) being the nodes c
  // reaches — an O(1) count on the closure and labels tiers. A traversal
  // world has no such count, so its sketches are built here, into
  // `staged`, and their lengths read off. Children (DAG successors) have
  // smaller ids, so ascending order is a valid bottom-up schedule.
  std::vector<uint32_t> counted;  // worlds sized by count, built below
  std::vector<uint64_t> staged;   // traversal worlds' runs, in world order
  ComponentSketcher sketcher(salt, k);
  for (uint32_t i = 0; i < w; ++i) {
    const Condensation& cond = index.world(i);
    uint64_t* table = offsets.data() + base[i];
    table[0] = 0;
    if (index.tier(i) != WorldTier::kTraversal) {
      for (uint32_t c = 0; c < cond.num_components(); ++c) {
        table[c + 1] = table[c] + std::min<uint64_t>(
                                      k, index.ReachNodeCount(c, i));
      }
      counted.push_back(i);
      continue;
    }
    const size_t start = staged.size();
    for (uint32_t c = 0; c < cond.num_components(); ++c) {
      const auto run = sketcher.Build(cond, i, c, [&](uint32_t s) {
        return std::span<const uint64_t>(staged.data() + start + table[s],
                                         staged.data() + start + table[s + 1]);
      });
      staged.insert(staged.end(), run.begin(), run.end());
      table[c + 1] = staged.size() - start;
    }
  }

  // World i's runs start where world i - 1's end. The pool is allocated
  // once, exactly, and uninitialized: every entry is written below.
  std::vector<uint64_t> entry_base(w + 1, 0);
  for (uint32_t i = 0; i < w; ++i) {
    entry_base[i + 1] = entry_base[i] + offsets[base[i + 1] - 1];
  }
  oracle.own_entries_ =
      std::make_unique_for_overwrite<uint64_t[]>(entry_base[w]);
  uint64_t* const entries = oracle.own_entries_.get();
  // Makes world i's table absolute into the pool.
  const auto rebase = [&](uint32_t i) {
    for (uint64_t e = base[i]; e < base[i + 1]; ++e) {
      offsets[e] += entry_base[i];
    }
  };
  size_t staged_at = 0;
  for (uint32_t i = 0; i < w; ++i) {
    if (index.tier(i) != WorldTier::kTraversal) continue;
    const uint64_t len = entry_base[i + 1] - entry_base[i];
    std::copy_n(staged.data() + staged_at, len, entries + entry_base[i]);
    staged_at += len;
    rebase(i);
  }

  // Every counted world fills its own slice of the pool, in parallel. A
  // run whose length disagrees with its count (stored closure or label
  // counts that do not match the condensation) stops the world before it
  // writes past its slice, and fails the build.
  std::vector<uint8_t> bad(counted.size(), 0);
  ParallelForChunks(
      0, counted.size(), 1, [&](uint32_t, uint64_t begin, uint64_t end) {
        ComponentSketcher worker(salt, k);
        for (uint64_t j = begin; j < end; ++j) {
          const uint32_t i = counted[j];
          const Condensation& cond = index.world(i);
          const uint64_t* table = offsets.data() + base[i];
          uint64_t* slice = entries + entry_base[i];
          for (uint32_t c = 0; c < cond.num_components(); ++c) {
            const auto run = worker.Build(cond, i, c, [&](uint32_t s) {
              return std::span<const uint64_t>(slice + table[s],
                                               slice + table[s + 1]);
            });
            if (run.size() != table[c + 1] - table[c]) {
              bad[j] = 1;
              break;
            }
            std::copy(run.begin(), run.end(), slice + table[c]);
          }
          if (!bad[j]) rebase(i);
        }
      });
  for (size_t j = 0; j < counted.size(); ++j) {
    if (bad[j]) {
      return Status::InvalidArgument(
          "world " + std::to_string(counted[j]) +
          " reach counts disagree with its condensation; cannot size its "
          "sketches");
    }
  }
  oracle.sketch_offsets_ = offsets;
  oracle.entries_ = std::span<const uint64_t>(entries, entry_base[w]);
  return oracle;
}

Result<SketchSpreadOracle> SketchSpreadOracle::Build(
    const CascadeIndex& index, const SketchOptions& options, Rng* rng) {
  return BuildWithSalt(index, options.k, rng->Next());
}

Result<SketchSpreadOracle> SketchSpreadOracle::BuildDeterministic(
    const CascadeIndex& index, uint32_t k, uint64_t seed) {
  // Salt is a pure function of the seed, so independently constructed
  // oracles over the same index agree byte-for-byte.
  SplitMix64 mixer(seed ^ 0x736b65746368ull);  // "sketch"
  return BuildWithSalt(index, k, mixer.Next());
}

Result<SketchSpreadOracle> SketchSpreadOracle::FromParts(
    const CascadeIndex* index, const SketchParts& parts) {
  SketchSpreadOracle oracle;
  oracle.index_ = index;
  oracle.k_ = parts.k;
  oracle.salt_ = parts.salt;
  uint64_t start = 0;
  for (uint32_t i = 0; i < index->num_worlds(); ++i) {
    oracle.world_base_.push_back(start);
    start += static_cast<uint64_t>(index->world(i).num_components()) + 1;
  }
  oracle.world_base_.push_back(start);
  SOI_RETURN_IF_ERROR(CheckExtents(parts, oracle.world_base_));
  oracle.sketch_offsets_ = parts.offsets;
  oracle.entries_ = parts.entries;
  oracle.first_touch_ = OnceTable(index->num_worlds());
  return oracle;
}

Status SketchSpreadOracle::CheckExtents(
    const SketchParts& parts, std::span<const uint64_t> table_start) {
  if (parts.k < 3) return BadK(parts.k);
  if (table_start.empty() || parts.offsets.size() != table_start.back()) {
    return Status::InvalidArgument(
        "sketch offsets do not tile the worlds (expected " +
        std::to_string(table_start.empty() ? 0 : table_start.back()) +
        " entries)");
  }
  // Pool position where the previous world's runs ended: each world's runs
  // start there, and the last world's close the entries pool.
  uint64_t end = 0;
  for (size_t i = 0; i + 1 < table_start.size(); ++i) {
    if (table_start[i + 1] < table_start[i] + 2) {
      return Status::InvalidArgument("sketch offsets do not tile the worlds");
    }
    const uint64_t first = parts.offsets[table_start[i]];
    const uint64_t last = parts.offsets[table_start[i + 1] - 1];
    if (first != end || last < first) {
      return Status::InvalidArgument(
          "world " + std::to_string(i) +
          " sketch offsets do not tile the entries pool");
    }
    end = last;
  }
  if (end != parts.entries.size()) {
    return Status::InvalidArgument(
        "sketch offsets do not close the entries pool");
  }
  return Status::OK();
}

Status SketchSpreadOracle::CheckWorld(uint32_t i) const {
  const auto table = sketch_offsets_.subspan(
      world_base_[i], world_base_[i + 1] - world_base_[i]);
  // Offsets first: once they are non-decreasing, every one lies inside the
  // world's extent, which CheckExtents bounded by the entries pool.
  for (size_t c = 1; c < table.size(); ++c) {
    if (table[c] < table[c - 1] || table[c] - table[c - 1] > k_) {
      return Status::InvalidArgument(
          "world " + std::to_string(i) +
          " sketch offsets are not non-decreasing runs of at most k entries");
    }
  }
  for (size_t c = 1; c < table.size(); ++c) {
    for (uint64_t j = table[c - 1] + 1; j < table[c]; ++j) {
      if (entries_[j] <= entries_[j - 1]) {
        return Status::InvalidArgument(
            "world " + std::to_string(i) +
            " sketch run is not strictly increasing");
      }
    }
  }
  return Status::OK();
}

Status SketchSpreadOracle::PrepareAllWorlds() const {
  for (uint32_t i = 0; i < index_->num_worlds(); ++i) {
    SOI_RETURN_IF_ERROR(PrepareWorld(i));
  }
  return Status::OK();
}

std::span<const uint64_t> SketchSpreadOracle::Sketch(uint32_t world,
                                                     uint32_t comp) const {
  const uint64_t table_start = world_base_[world];
  const uint64_t begin = sketch_offsets_[table_start + comp];
  const uint64_t end = sketch_offsets_[table_start + comp + 1];
  return {entries_.data() + begin, entries_.data() + end};
}

double SketchSpreadOracle::EstimateMerged(
    std::span<const uint64_t> merged) const {
  if (merged.size() < k_) {
    // Sketch is exhaustive: it IS the reachable rank set.
    return static_cast<double>(merged.size());
  }
  return static_cast<double>(k_ - 1) / NormalizedRank(merged[k_ - 1]);
}


Result<double> SketchSpreadOracle::EstimateSpread(
    std::span<const NodeId> seeds) const {
  SOI_RETURN_IF_ERROR(ValidateSeedSet(seeds, index_->num_nodes()));
  std::vector<uint64_t> merged;
  std::vector<uint64_t> scratch;
  std::vector<std::span<const uint64_t>> runs;
  const uint32_t num_worlds = index_->num_worlds();
  if (num_worlds == 0) return 0.0;

  double total = 0.0;
  merged.resize(k_);
  scratch.resize(k_);
  for (uint32_t i = 0; i < num_worlds; ++i) {
    SOI_RETURN_IF_ERROR(PrepareWorld(i));
    const Condensation& cond = index_->world(i);
    runs.clear();
    for (NodeId s : seeds) {
      const auto sketch = Sketch(i, cond.ComponentOf(s));
      if (!sketch.empty()) runs.push_back(sketch);
    }
    if (runs.empty()) continue;
    if (runs.size() == 1) {
      // The stored run already is the seed set's bottom-k sketch.
      total += EstimateMerged(runs[0]);
      continue;
    }
    // Smallest leading rank first: the k-th-rank bound tightens after the
    // first merges, so later runs usually fail the cutoff test and are
    // skipped without being scanned at all. Seeds sharing a component
    // yield the same stored run; the pointer tie-break parks those
    // duplicates side by side so one unique() pass drops them (cheaper
    // than deduplicating component ids up front with a second sort).
    std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
      return a.front() != b.front() ? a.front() < b.front()
                                    : a.data() < b.data();
    });
    runs.erase(std::unique(runs.begin(), runs.end(),
                           [](const auto& a, const auto& b) {
                             return a.data() == b.data();
                           }),
               runs.end());
    if (runs.size() == 1) {
      total += EstimateMerged(runs[0]);
      continue;
    }
    size_t len = std::min<size_t>(runs[0].size(), k_);
    std::copy_n(runs[0].data(), len, merged.data());
    for (size_t r = 1; r < runs.size(); ++r) {
      // A full merged buffer's last entry is the current k-th smallest
      // distinct rank; a run starting at or beyond it cannot contribute.
      if (len == k_ && runs[r].front() >= merged[len - 1]) continue;
      len = MergeBottomK(std::span<const uint64_t>(merged.data(), len),
                         runs[r], k_, scratch.data());
      merged.swap(scratch);
    }
    total += EstimateMerged(std::span<const uint64_t>(merged.data(), len));
  }
  return total / num_worlds;
}

double SketchSpreadOracle::EstimateSpread(NodeId v) const {
  const NodeId seeds[1] = {v};
  const auto result = EstimateSpread(std::span<const NodeId>(seeds, 1));
  SOI_CHECK(result.ok());
  return *result;
}

Result<GreedyResult> SketchSpreadOracle::SelectSeeds(uint32_t k) const {
  const NodeId n = index_->num_nodes();
  if (k == 0 || k > n) {
    return Status::InvalidArgument("seed count k must be in [1, num_nodes]");
  }
  SOI_RETURN_IF_ERROR(PrepareAllWorlds());
  const uint32_t num_worlds = index_->num_worlds();

  // CELF lazy greedy on the sketch tier. Committed state: per world, the
  // bottom-k sketch of the union reached by the selected seeds (merging two
  // bottom-k sketches and keeping the k smallest ranks yields the union's
  // bottom-k sketch exactly, so the committed state stays size <= k).
  std::vector<std::vector<uint64_t>> committed(num_worlds);
  double current = 0.0;  // sum over worlds of EstimateMerged(committed)

  auto gain_of = [&](NodeId v) {
    std::vector<uint64_t> merged;
    double total = 0.0;
    for (uint32_t w = 0; w < num_worlds; ++w) {
      const auto sketch = Sketch(w, index_->world(w).ComponentOf(v));
      const auto& base = committed[w];
      merged.clear();
      merged.reserve(base.size() + sketch.size());
      std::merge(base.begin(), base.end(), sketch.begin(), sketch.end(),
                 std::back_inserter(merged));
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      if (merged.size() > k_) merged.resize(k_);
      total += EstimateMerged(merged);
    }
    return total - current;
  };

  struct Cand {
    double gain;
    NodeId node;
    uint32_t round;  // round the gain was computed in
  };
  // Max-heap by gain, lowest node id on ties (for determinism).
  auto worse = [](const Cand& a, const Cand& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.node > b.node;
  };
  std::vector<Cand> heap;
  heap.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    heap.push_back({gain_of(v), v, 0});
  }
  std::make_heap(heap.begin(), heap.end(), worse);

  GreedyResult result;
  for (uint32_t round = 1; round <= k; ++round) {
    for (;;) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      Cand top = heap.back();
      heap.pop_back();
      if (top.round != round - 1) {  // stale: re-evaluate lazily
        top.gain = gain_of(top.node);
        top.round = round - 1;
        heap.push_back(top);
        std::push_heap(heap.begin(), heap.end(), worse);
        continue;
      }
      // Commit: fold the seed's per-world sketches into the committed state.
      std::vector<uint64_t> merged;
      for (uint32_t w = 0; w < num_worlds; ++w) {
        const auto sketch =
            Sketch(w, index_->world(w).ComponentOf(top.node));
        auto& base = committed[w];
        merged.clear();
        merged.reserve(base.size() + sketch.size());
        std::merge(base.begin(), base.end(), sketch.begin(), sketch.end(),
                   std::back_inserter(merged));
        merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
        if (merged.size() > k_) merged.resize(k_);
        base = merged;
      }
      current += top.gain;
      result.seeds.push_back(top.node);
      GreedyStepInfo step;
      step.node = top.node;
      step.marginal_gain = top.gain;
      step.objective_after = current;
      result.steps.push_back(step);
      break;
    }
  }
  // The greedy ran on per-world sums; GreedyStepInfo promises expected
  // spread, so rescale before handing the steps out (as the RR greedy does).
  const double scale = 1.0 / num_worlds;
  for (GreedyStepInfo& step : result.steps) {
    step.marginal_gain *= scale;
    step.objective_after *= scale;
  }
  return result;
}

}  // namespace soi
