#include "scc/condensation.h"

#include <algorithm>
#include <utility>

#include "util/arena.h"

namespace soi {

Condensation Condensation::Build(const Csr& world, BumpArena* scratch) {
  Condensation cond;
  SccResult scc = TarjanScc(world, scratch);
  cond.num_components_ = scc.num_components;
  cond.comp_of_ = std::move(scc.comp_of);

  const uint32_t n = world.num_nodes();
  const uint32_t nc = cond.num_components_;

  // Members CSR: bucket nodes by component (ascending node id within).
  cond.members_.offsets.assign(nc + 1, 0);
  cond.members_.targets.resize(n);
  for (NodeId v = 0; v < n; ++v) ++cond.members_.offsets[cond.comp_of_[v] + 1];
  for (uint32_t c = 0; c < nc; ++c) {
    cond.members_.offsets[c + 1] += cond.members_.offsets[c];
  }
  std::vector<uint32_t> cursor_vec;
  std::span<uint32_t> cursor;
  if (scratch != nullptr) {
    cursor = scratch->AllocateArray<uint32_t>(nc);
  } else {
    cursor_vec.resize(nc);
    cursor = cursor_vec;
  }
  std::copy(cond.members_.offsets.begin(), cond.members_.offsets.end() - 1,
            cursor.begin());
  for (NodeId v = 0; v < n; ++v) {
    cond.members_.targets[cursor[cond.comp_of_[v]]++] = v;
  }

  // DAG edges between distinct components, deduplicated.
  std::vector<std::pair<NodeId, NodeId>> dag_edges;
  for (NodeId u = 0; u < n; ++u) {
    const uint32_t cu = cond.comp_of_[u];
    for (NodeId v : world.Neighbors(u)) {
      const uint32_t cv = cond.comp_of_[v];
      if (cu != cv) dag_edges.emplace_back(cu, cv);
    }
  }
  cond.dag_ = Csr::FromEdges(nc, std::move(dag_edges), /*dedupe=*/true);
  return cond;
}

void ReachableComponents(const Condensation& cond, uint32_t start,
                         std::vector<uint32_t>* stamp, uint32_t stamp_id,
                         std::vector<uint32_t>* out) {
  SOI_DCHECK(stamp->size() >= cond.num_components());
  if ((*stamp)[start] == stamp_id) return;
  (*stamp)[start] = stamp_id;
  // Iterative DFS; out doubles as both result and (prefix) work discovery:
  // we push newly discovered components and advance a read cursor.
  const size_t base = out->size();
  out->push_back(start);
  for (size_t read = base; read < out->size(); ++read) {
    const uint32_t c = (*out)[read];
    for (uint32_t succ : cond.DagSuccessors(c)) {
      if ((*stamp)[succ] != stamp_id) {
        (*stamp)[succ] = stamp_id;
        out->push_back(succ);
      }
    }
  }
}

}  // namespace soi
