#include "scc/transitive.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/bitvector.h"

namespace soi {

namespace {

// Dense strategy: process components in increasing id (children before
// parents, by the Tarjan invariant) maintaining full reachability bitsets.
ReductionStats ReduceDense(Condensation* cond) {
  const uint32_t nc = cond->num_components();
  ReductionStats stats;
  stats.edges_before = cond->num_dag_edges();

  std::vector<BitVector> reach(nc);
  std::vector<std::pair<NodeId, NodeId>> kept_edges;
  kept_edges.reserve(stats.edges_before);
  std::vector<uint32_t> children;

  for (uint32_t c = 0; c < nc; ++c) {
    reach[c].Resize(nc);
    const auto succ = cond->DagSuccessors(c);
    children.assign(succ.begin(), succ.end());
    // Decreasing id: a child that reaches another child precedes it here.
    std::sort(children.begin(), children.end(), std::greater<uint32_t>());
    BitVector& acc = reach[c];
    for (uint32_t v : children) {
      if (acc.Test(v)) continue;  // implied by a longer path
      kept_edges.emplace_back(c, v);
      acc |= reach[v];
      acc.Set(v);
    }
    acc.Set(c);
  }
  cond->ReplaceDag(Csr::FromEdges(nc, std::move(kept_edges), /*dedupe=*/false));
  stats.edges_after = cond->num_dag_edges();
  return stats;
}

// DFS strategy: per parent, scan children in decreasing id order; a child
// already marked by the DFS of an earlier (kept) sibling is redundant.
ReductionStats ReduceDfs(Condensation* cond, uint64_t budget) {
  const uint32_t nc = cond->num_components();
  ReductionStats stats;
  stats.edges_before = cond->num_dag_edges();

  std::vector<uint32_t> stamp(nc, 0);
  std::vector<uint32_t> stack;
  std::vector<std::pair<NodeId, NodeId>> kept_edges;
  kept_edges.reserve(stats.edges_before);
  std::vector<uint32_t> children;
  uint64_t visits = 0;

  for (uint32_t c = 0; c < nc; ++c) {
    const auto succ = cond->DagSuccessors(c);
    if (succ.size() <= 1) {
      for (uint32_t v : succ) kept_edges.emplace_back(c, v);
      continue;
    }
    if (visits > budget) {
      stats.truncated = true;
      for (uint32_t v : succ) kept_edges.emplace_back(c, v);
      continue;
    }
    children.assign(succ.begin(), succ.end());
    std::sort(children.begin(), children.end(), std::greater<uint32_t>());
    const uint32_t stamp_id = c + 1;
    for (uint32_t v : children) {
      if (stamp[v] == stamp_id) continue;  // redundant
      kept_edges.emplace_back(c, v);
      // Mark everything reachable from v (including v).
      stack.push_back(v);
      stamp[v] = stamp_id;
      while (!stack.empty()) {
        const uint32_t x = stack.back();
        stack.pop_back();
        ++visits;
        for (uint32_t y : cond->DagSuccessors(x)) {
          if (stamp[y] != stamp_id) {
            stamp[y] = stamp_id;
            stack.push_back(y);
          }
        }
      }
    }
  }
  cond->ReplaceDag(Csr::FromEdges(nc, std::move(kept_edges), /*dedupe=*/false));
  stats.edges_after = cond->num_dag_edges();
  return stats;
}

}  // namespace

ReductionStats TransitiveReduce(Condensation* cond,
                                const ReductionOptions& options) {
  ReductionStrategy strategy = options.strategy;
  if (strategy == ReductionStrategy::kAuto) {
    strategy = cond->num_components() <= options.dense_limit
                   ? ReductionStrategy::kDenseBitset
                   : ReductionStrategy::kDfs;
  }
  switch (strategy) {
    case ReductionStrategy::kDenseBitset:
      return ReduceDense(cond);
    case ReductionStrategy::kDfs:
      return ReduceDfs(cond, options.dfs_visit_budget);
    case ReductionStrategy::kAuto:
      break;
  }
  SOI_CHECK(false && "unreachable");
  return {};
}

bool SameReachability(const Condensation& cond, const Csr& other_dag) {
  const uint32_t nc = cond.num_components();
  if (other_dag.num_nodes() != nc) return false;
  std::vector<uint32_t> stamp_a(nc, 0), stamp_b(nc, 0);
  std::vector<uint32_t> order;
  auto collect = [&](auto neighbors, uint32_t start,
                     std::vector<uint32_t>* stamp, uint32_t id) {
    std::vector<uint32_t> out;
    out.push_back(start);
    (*stamp)[start] = id;
    for (size_t read = 0; read < out.size(); ++read) {
      for (uint32_t y : neighbors(out[read])) {
        if ((*stamp)[y] != id) {
          (*stamp)[y] = id;
          out.push_back(y);
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (uint32_t c = 0; c < nc; ++c) {
    auto ra = collect([&](uint32_t x) { return cond.DagSuccessors(x); }, c,
                      &stamp_a, c + 1);
    auto rb = collect([&](uint32_t x) { return other_dag.Neighbors(x); }, c,
                      &stamp_b, c + 1);
    if (ra != rb) return false;
  }
  return true;
}

}  // namespace soi
