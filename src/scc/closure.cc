#include "scc/closure.h"

#include <algorithm>

namespace soi {

namespace {

// Ping-pong buffers for UnionSortedLists, reused across the components of
// one build.
struct UnionScratch {
  std::vector<std::span<const uint32_t>> lists, next;
  std::vector<uint32_t> a, b;
};

// The ascending union of scratch->lists (each ascending and duplicate-free),
// as a span into the scratch buffers that stays valid until the next call.
// Lists are unioned in pairs, round by round, so S input ids over k lists
// cost O(S log k); folding them in one after another would cost O(S k).
std::span<const uint32_t> UnionSortedLists(UnionScratch* s) {
  std::vector<uint32_t>* dst = &s->a;
  while (true) {
    size_t total = 0;
    for (const auto& l : s->lists) total += l.size();
    // Grow only: shrinking would make the next growth zero-fill again.
    if (dst->size() < total) dst->resize(total);
    s->next.clear();
    uint32_t* w = dst->data();
    for (size_t r = 0; r < s->lists.size(); r += 2) {
      uint32_t* const begin = w;
      const auto& x = s->lists[r];
      if (r + 1 < s->lists.size()) {
        const auto& y = s->lists[r + 1];
        w = std::set_union(x.begin(), x.end(), y.begin(), y.end(), w);
      } else {  // odd list out: carried over
        w = std::copy(x.begin(), x.end(), w);
      }
      s->next.emplace_back(begin, w);
    }
    if (s->next.size() <= 1) {
      return s->next.empty() ? std::span<const uint32_t>() : s->next[0];
    }
    // This round's outputs are the next round's inputs, so the next round
    // writes into the other buffer.
    s->lists.swap(s->next);
    dst = dst == &s->a ? &s->b : &s->a;
  }
}

}  // namespace

ReachabilityClosure BuildReachabilityClosure(const Condensation& cond,
                                             uint64_t max_total_nodes) {
  const uint32_t nc = cond.num_components();
  ReachabilityClosure out;
  out.comp_offsets.reserve(nc + 1);
  out.comp_offsets.push_back(0);
  out.node_offsets.reserve(nc + 1);
  out.node_offsets.push_back(0);

  UnionScratch scratch;
  for (uint32_t c = 0; c < nc; ++c) {
    // Every successor s < c (reverse-topological id order), so its closure
    // and run are final. The members of c lie in no successor's run.
    const auto succ = cond.DagSuccessors(c);
    scratch.lists.clear();
    for (uint32_t s : succ) scratch.lists.push_back(out.Cascade(s));
    scratch.lists.push_back(cond.ComponentMembers(c));
    const auto run = UnionSortedLists(&scratch);
    if (out.nodes.size() + run.size() > max_total_nodes) {
      return ReachabilityClosure{};
    }
    out.nodes.insert(out.nodes.end(), run.begin(), run.end());
    out.node_offsets.push_back(out.nodes.size());

    // Every component a successor reaches is below c, so c goes last.
    scratch.lists.clear();
    for (uint32_t s : succ) scratch.lists.push_back(out.Closure(s));
    const auto reach = UnionSortedLists(&scratch);
    out.comps.insert(out.comps.end(), reach.begin(), reach.end());
    out.comps.push_back(c);
    out.comp_offsets.push_back(out.comps.size());
  }
  return out;
}

}  // namespace soi
