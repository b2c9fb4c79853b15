#include "dynamic/dynamic_graph.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace soi {

namespace {

using Nbr = std::pair<NodeId, double>;

std::vector<Nbr>::iterator FindNbr(std::vector<Nbr>& nbrs, NodeId id) {
  return std::lower_bound(
      nbrs.begin(), nbrs.end(), id,
      [](const Nbr& a, NodeId b) { return a.first < b; });
}

std::vector<Nbr>::const_iterator FindNbr(const std::vector<Nbr>& nbrs,
                                         NodeId id) {
  return std::lower_bound(
      nbrs.begin(), nbrs.end(), id,
      [](const Nbr& a, NodeId b) { return a.first < b; });
}

// Appended piece by piece: GCC 12 reports a -Wrestrict false positive for
// the equivalent chain of operator+ temporaries at -O3.
std::string ArcName(NodeId u, NodeId v) {
  std::string name = "(";
  name += std::to_string(u);
  name += ',';
  name += std::to_string(v);
  name += ')';
  return name;
}

}  // namespace

DynamicGraph DynamicGraph::FromGraph(const ProbGraph& graph) {
  DynamicGraph out(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto nbrs = graph.OutNeighbors(u);
    const auto probs = graph.OutProbs(u);
    out.out_[u].reserve(nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      out.out_[u].emplace_back(nbrs[i], probs[i]);
      out.in_[nbrs[i]].emplace_back(u, probs[i]);
    }
  }
  // in_ receives entries in ascending src order (outer loop), so each
  // in-neighborhood is already sorted by src.
  out.num_edges_ = graph.num_edges();
  return out;
}

Result<double> DynamicGraph::EdgeProb(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::OutOfRange("EdgeProb: node id out of range");
  }
  const auto it = FindNbr(out_[u], v);
  if (it == out_[u].end() || it->first != v) {
    return Status::NotFound("edge " + ArcName(u, v) + " not present");
  }
  return it->second;
}

bool DynamicGraph::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  const auto it = FindNbr(out_[u], v);
  return it != out_[u].end() && it->first == v;
}

double DynamicGraph::InWeight(NodeId v) const {
  SOI_DCHECK(v < num_nodes());
  double sum = 0.0;
  for (const auto& [src, p] : in_[v]) sum += p;
  return sum;
}

Status DynamicGraph::Validate(const GraphUpdate& update) const {
  const NodeId u = update.src;
  const NodeId v = update.dst;
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::InvalidArgument(
        "update touches arc " + ArcName(u, v) + " but the graph has " +
        std::to_string(num_nodes()) + " nodes (valid ids: 0.." +
        std::to_string(num_nodes() == 0 ? 0 : num_nodes() - 1) + ")");
  }
  switch (update.kind) {
    case UpdateKind::kEdgeInsert:
      if (u == v) {
        return Status::InvalidArgument(
            "insert of self-loop " + ArcName(u, v) +
            " rejected: self-loops never change a cascade");
      }
      if (!(update.prob > 0.0 && update.prob <= 1.0)) {
        return Status::InvalidArgument(
            "insert of " + ArcName(u, v) + ": probability " +
            std::to_string(update.prob) + " outside (0,1]");
      }
      if (HasEdge(u, v)) {
        return Status::InvalidArgument(
            "insert of " + ArcName(u, v) +
            ": arc already exists (use a prob update to re-weight it)");
      }
      return Status::OK();
    case UpdateKind::kEdgeDelete:
      if (!HasEdge(u, v)) {
        return Status::InvalidArgument("delete of " + ArcName(u, v) +
                                       ": arc does not exist");
      }
      return Status::OK();
    case UpdateKind::kProbUpdate:
      if (!(update.prob > 0.0 && update.prob <= 1.0)) {
        return Status::InvalidArgument(
            "prob update of " + ArcName(u, v) + ": probability " +
            std::to_string(update.prob) + " outside (0,1]");
      }
      if (!HasEdge(u, v)) {
        return Status::InvalidArgument(
            "prob update of " + ArcName(u, v) +
            ": arc does not exist (insert it first)");
      }
      return Status::OK();
  }
  return Status::Internal("unknown update kind");
}

Status DynamicGraph::Apply(const GraphUpdate& update) {
  SOI_RETURN_IF_ERROR(Validate(update));
  const NodeId u = update.src;
  const NodeId v = update.dst;
  switch (update.kind) {
    case UpdateKind::kEdgeInsert:
      out_[u].insert(FindNbr(out_[u], v), {v, update.prob});
      in_[v].insert(FindNbr(in_[v], u), {u, update.prob});
      ++num_edges_;
      break;
    case UpdateKind::kEdgeDelete:
      out_[u].erase(FindNbr(out_[u], v));
      in_[v].erase(FindNbr(in_[v], u));
      --num_edges_;
      break;
    case UpdateKind::kProbUpdate:
      FindNbr(out_[u], v)->second = update.prob;
      FindNbr(in_[v], u)->second = update.prob;
      break;
  }
  return Status::OK();
}

Result<GraphUpdate> DynamicGraph::Inverse(const GraphUpdate& update) const {
  GraphUpdate inv;
  inv.src = update.src;
  inv.dst = update.dst;
  switch (update.kind) {
    case UpdateKind::kEdgeInsert:
      inv.kind = UpdateKind::kEdgeDelete;
      return inv;
    case UpdateKind::kEdgeDelete: {
      SOI_ASSIGN_OR_RETURN(inv.prob, EdgeProb(update.src, update.dst));
      inv.kind = UpdateKind::kEdgeInsert;
      return inv;
    }
    case UpdateKind::kProbUpdate: {
      SOI_ASSIGN_OR_RETURN(inv.prob, EdgeProb(update.src, update.dst));
      inv.kind = UpdateKind::kProbUpdate;
      return inv;
    }
  }
  return Status::Internal("unknown update kind");
}

Result<ProbGraph> DynamicGraph::Materialize() const {
  ProbGraphBuilder builder(num_nodes());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (const auto& [v, p] : out_[u]) {
      SOI_RETURN_IF_ERROR(builder.AddEdge(u, v, p));
    }
  }
  return builder.Build();
}

uint64_t DynamicGraph::Fingerprint() const {
  // Must stay in lockstep with GraphFingerprint(const ProbGraph&): same
  // FNV-1a stream over n, m, then (src, dst, prob bits) in (src, dst)
  // order — out_ is iterated exactly in that order.
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  mix(num_nodes());
  mix(num_edges_);
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (const auto& [v, p] : out_[u]) {
      mix(u);
      mix(v);
      uint64_t bits;
      std::memcpy(&bits, &p, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

}  // namespace soi
