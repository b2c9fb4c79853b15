#include "snapshot/writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "infmax/sketch_oracle.h"
#include "snapshot/crc32c.h"
#include "snapshot/format.h"
#include "util/packed_runs.h"

namespace soi {

namespace {

// One section staged for layout; `data` must stay alive until assembly.
struct Staged {
  SectionKind kind;
  uint32_t elem_size;
  const void* data;
  uint64_t elem_count;
  uint64_t byte_size() const { return elem_size * elem_count; }
};

uint64_t AlignUp(uint64_t v) {
  return (v + kSnapshotAlign - 1) & ~(kSnapshotAlign - 1);
}

template <typename T>
Staged Stage(SectionKind kind, const T* data, uint64_t count) {
  return Staged{kind, sizeof(T), data, count};
}

// Lays out the snapshot and hands its bytes to `emit(const void*, size_t)`
// in file order, so the whole file is never held in one buffer: sections go
// out straight from the graph, the index pools and the typical table.
template <typename Emit>
Status EmitSnapshot(const ProbGraph& graph, const CascadeIndex& index,
                    const SnapshotWriteOptions& options, Emit&& emit) {
  const uint32_t n = graph.num_nodes();
  const uint32_t w = index.num_worlds();
  const uint64_t m = graph.num_edges();
  if (n == 0 || w == 0) {
    return Status::InvalidArgument("snapshot: empty graph or index");
  }
  if (index.num_nodes() != n) {
    return Status::InvalidArgument(
        "snapshot: index covers " + std::to_string(index.num_nodes()) +
        " nodes but graph has " + std::to_string(n));
  }
  if (options.typical != nullptr && options.typical->num_sets() != n) {
    return Status::InvalidArgument(
        "snapshot: typical table has " +
        std::to_string(options.typical->num_sets()) + " sets, expected " +
        std::to_string(n) + " (one per node)");
  }
  const bool with_typical = options.typical != nullptr;
  const bool with_sketches = options.sketches != nullptr;
  if (with_sketches && options.sketches->num_nodes() != n) {
    return Status::InvalidArgument(
        "snapshot: sketches cover " +
        std::to_string(options.sketches->num_nodes()) +
        " nodes but graph has " + std::to_string(n));
  }
  // A snapshot-backed index or sketch tier is written from checked runs
  // only (a no-op for state built in memory).
  SOI_RETURN_IF_ERROR(index.PrepareAllWorlds());
  if (with_sketches) SOI_RETURN_IF_ERROR(options.sketches->PrepareAllWorlds());

  // Tier census. Uniform all-materialized / all-traversal indexes can use
  // the v1.0 layout (no tier table); anything else — mixed tiers, labels,
  // or packed encodings — needs the tiered sections.
  uint32_t n_mat = 0, n_lab = 0;
  std::vector<uint32_t> tier_table(w);
  for (uint32_t i = 0; i < w; ++i) {
    const WorldTier t = index.tier(i);
    tier_table[i] = static_cast<uint32_t>(t);
    if (t == WorldTier::kMaterialized) ++n_mat;
    if (t == WorldTier::kLabels) ++n_lab;
  }
  const bool uniform = (n_mat == w) || (n_mat == 0 && n_lab == 0);
  const bool tiered = options.pack || !uniform;
  const bool with_closures = n_mat > 0;
  const bool packed_closures = with_closures && options.pack;
  const bool raw_closures = with_closures && !options.pack;
  const bool with_labels = n_lab > 0;
  const bool pack_typical = with_typical && options.pack;

  // Concatenate the per-world arrays into pools. Offsets stay *local* per
  // world (each world's offsets array starts at 0); WorldRecord bases say
  // where each world's slice begins, so the reader's borrowed spans slice
  // straight out of the pools. Closure pools take slices only from the
  // materialized worlds (every world under the legacy all-materialized
  // layout); label pools only from the labeled ones — their per-world bases
  // are a cumulative scan on read, so non-qualifying worlds contribute
  // nothing.
  std::vector<WorldRecord> world_table(w + 1);
  std::vector<uint32_t> comp_of_pool, members_offsets_pool,
      members_targets_pool, dag_offsets_pool, dag_targets_pool;
  comp_of_pool.reserve(uint64_t{w} * n);
  members_targets_pool.reserve(uint64_t{w} * n);
  std::vector<uint64_t> closure_comp_offsets_pool, closure_node_offsets_pool;
  std::vector<uint32_t> closure_comps_pool, closure_nodes_pool;
  std::vector<uint8_t> comps_packed, nodes_packed;
  std::vector<uint64_t> label_offsets_pool;
  std::vector<uint32_t> label_bounds_pool, label_reach_pool;
  for (uint32_t i = 0; i < w; ++i) {
    const Condensation& cond = index.world(i);
    const uint32_t nc = cond.num_components();
    WorldRecord& rec = world_table[i];
    rec.num_components = nc;
    rec.offsets_base = members_offsets_pool.size();
    rec.dag_targets_base = dag_targets_pool.size();
    rec.closure_comps_base =
        packed_closures ? comps_packed.size() : closure_comps_pool.size();
    rec.closure_nodes_base =
        packed_closures ? nodes_packed.size() : closure_nodes_pool.size();
    const auto co = cond.comp_of();
    comp_of_pool.insert(comp_of_pool.end(), co.begin(), co.end());
    const auto mo = cond.members_offsets();
    members_offsets_pool.insert(members_offsets_pool.end(), mo.begin(),
                                mo.end());
    const auto mt = cond.members_targets();
    members_targets_pool.insert(members_targets_pool.end(), mt.begin(),
                                mt.end());
    const auto dofs = cond.dag_offsets();
    dag_offsets_pool.insert(dag_offsets_pool.end(), dofs.begin(), dofs.end());
    const auto dt = cond.dag_targets();
    dag_targets_pool.insert(dag_targets_pool.end(), dt.begin(), dt.end());
    if (index.tier(i) == WorldTier::kMaterialized) {
      const ReachabilityClosure& cl = index.closure(i);
      const auto cco = cl.comp_offsets_view();
      closure_comp_offsets_pool.insert(closure_comp_offsets_pool.end(),
                                       cco.begin(), cco.end());
      const auto cno = cl.node_offsets_view();
      closure_node_offsets_pool.insert(closure_node_offsets_pool.end(),
                                       cno.begin(), cno.end());
      if (packed_closures) {
        // Per-run delta-varint encode, back-to-back: the element offsets
        // pooled above delimit the runs, so no byte offsets are stored.
        for (uint32_t c = 0; c < nc; ++c) {
          AppendPackedRun(cl.Closure(c), &comps_packed);
          AppendPackedRun(cl.Cascade(c), &nodes_packed);
        }
      } else {
        const auto cc = cl.comps_view();
        closure_comps_pool.insert(closure_comps_pool.end(), cc.begin(),
                                  cc.end());
        const auto cn = cl.nodes_view();
        closure_nodes_pool.insert(closure_nodes_pool.end(), cn.begin(),
                                  cn.end());
      }
    } else if (index.tier(i) == WorldTier::kLabels) {
      const ReachLabels& lb = index.labels(i);
      const auto lo = lb.offsets_view();
      label_offsets_pool.insert(label_offsets_pool.end(), lo.begin(),
                                lo.end());
      const auto bd = lb.bounds_view();
      label_bounds_pool.insert(label_bounds_pool.end(), bd.begin(), bd.end());
      const auto rn = lb.reach_nodes_view();
      label_reach_pool.insert(label_reach_pool.end(), rn.begin(), rn.end());
    }
  }
  // End sentinel: world w's bases close the last world's extents.
  world_table[w].num_components = 0;
  world_table[w].offsets_base = members_offsets_pool.size();
  world_table[w].dag_targets_base = dag_targets_pool.size();
  world_table[w].closure_comps_base =
      packed_closures ? comps_packed.size() : closure_comps_pool.size();
  world_table[w].closure_nodes_base =
      packed_closures ? nodes_packed.size() : closure_nodes_pool.size();

  // Typical table in the requested encoding. When the input is already in
  // the target encoding the sections stage zero-copy from its spans; the
  // re-encode below only runs on a mismatch.
  FlatSets typical_reencoded;
  const FlatSets* typical = options.typical;
  if (with_typical && typical->packed() != pack_typical) {
    typical_reencoded = pack_typical ? FlatSets::Pack(*typical)
                                     : FlatSets::Unpack(*typical);
    typical = &typical_reencoded;
  }

  // Sketch tier (minor-2 sections). The offsets pool tiles exactly like
  // kMembersOffsets (nc + 1 entries per world), so the per-world bases are
  // the WorldRecord offsets_base already written above — a mismatch means
  // the sketches were built over a different index.
  uint64_t sketch_meta[2] = {0, 0};
  if (with_sketches) {
    if (options.sketches->offsets_view().size() !=
        members_offsets_pool.size()) {
      return Status::InvalidArgument(
          "snapshot: sketch offsets do not tile the index's worlds (built "
          "over a different index?)");
    }
    sketch_meta[0] = options.sketches->sketch_k();
    sketch_meta[1] = options.sketches->salt();
  }

  const auto g_off = graph.offsets();
  const auto g_tgt = graph.targets();
  const auto g_prb = graph.probs();
  const auto g_src = graph.sources();
  const auto g_roff = graph.rev_offsets();
  const auto g_rsrc = graph.rev_sources();

  std::vector<Staged> sections;
  sections.push_back(Stage(SectionKind::kGraphOffsets, g_off.data(),
                           g_off.size()));
  sections.push_back(Stage(SectionKind::kGraphTargets, g_tgt.data(),
                           g_tgt.size()));
  sections.push_back(Stage(SectionKind::kGraphProbs, g_prb.data(),
                           g_prb.size()));
  sections.push_back(Stage(SectionKind::kGraphSources, g_src.data(),
                           g_src.size()));
  sections.push_back(Stage(SectionKind::kGraphRevOffsets, g_roff.data(),
                           g_roff.size()));
  sections.push_back(Stage(SectionKind::kGraphRevSources, g_rsrc.data(),
                           g_rsrc.size()));
  sections.push_back(Stage(SectionKind::kWorldTable, world_table.data(),
                           world_table.size()));
  sections.push_back(Stage(SectionKind::kCompOf, comp_of_pool.data(),
                           comp_of_pool.size()));
  sections.push_back(Stage(SectionKind::kMembersOffsets,
                           members_offsets_pool.data(),
                           members_offsets_pool.size()));
  sections.push_back(Stage(SectionKind::kMembersTargets,
                           members_targets_pool.data(),
                           members_targets_pool.size()));
  sections.push_back(Stage(SectionKind::kDagOffsets, dag_offsets_pool.data(),
                           dag_offsets_pool.size()));
  sections.push_back(Stage(SectionKind::kDagTargets, dag_targets_pool.data(),
                           dag_targets_pool.size()));
  if (tiered) {
    sections.push_back(Stage(SectionKind::kTierTable, tier_table.data(),
                             tier_table.size()));
  }
  if (with_closures) {
    sections.push_back(Stage(SectionKind::kClosureCompOffsets,
                             closure_comp_offsets_pool.data(),
                             closure_comp_offsets_pool.size()));
    sections.push_back(Stage(SectionKind::kClosureNodeOffsets,
                             closure_node_offsets_pool.data(),
                             closure_node_offsets_pool.size()));
  }
  if (raw_closures) {
    sections.push_back(Stage(SectionKind::kClosureComps,
                             closure_comps_pool.data(),
                             closure_comps_pool.size()));
    sections.push_back(Stage(SectionKind::kClosureNodes,
                             closure_nodes_pool.data(),
                             closure_nodes_pool.size()));
  }
  if (packed_closures) {
    sections.push_back(Stage(SectionKind::kClosureCompsPacked,
                             comps_packed.data(), comps_packed.size()));
    sections.push_back(Stage(SectionKind::kClosureNodesPacked,
                             nodes_packed.data(), nodes_packed.size()));
  }
  if (with_labels) {
    sections.push_back(Stage(SectionKind::kLabelOffsets,
                             label_offsets_pool.data(),
                             label_offsets_pool.size()));
    sections.push_back(Stage(SectionKind::kLabelBounds,
                             label_bounds_pool.data(),
                             label_bounds_pool.size()));
    sections.push_back(Stage(SectionKind::kLabelReachNodes,
                             label_reach_pool.data(),
                             label_reach_pool.size()));
  }
  if (with_typical) {
    if (pack_typical) {
      const PackedRuns& runs = typical->packed_runs();
      const auto t_eo = runs.elem_offsets();
      const auto t_by = runs.bytes();
      const auto t_bo = runs.byte_offsets();
      sections.push_back(Stage(SectionKind::kTypicalOffsets, t_eo.data(),
                               t_eo.size()));
      sections.push_back(Stage(SectionKind::kTypicalPacked, t_by.data(),
                               t_by.size()));
      sections.push_back(Stage(SectionKind::kTypicalPackedOffsets,
                               t_bo.data(), t_bo.size()));
    } else {
      const auto t_off = typical->offsets();
      const auto t_el = typical->elements();
      sections.push_back(Stage(SectionKind::kTypicalOffsets, t_off.data(),
                               t_off.size()));
      sections.push_back(Stage(SectionKind::kTypicalElems, t_el.data(),
                               t_el.size()));
    }
  }
  if (with_sketches) {
    const auto s_off = options.sketches->offsets_view();
    const auto s_ent = options.sketches->entries_view();
    sections.push_back(Stage(SectionKind::kSketchMeta, sketch_meta,
                             uint64_t{2}));
    sections.push_back(Stage(SectionKind::kSketchOffsets, s_off.data(),
                             s_off.size()));
    sections.push_back(Stage(SectionKind::kSketchEntries, s_ent.data(),
                             s_ent.size()));
  }

  // Layout: header, section table, then 64-byte-aligned payloads.
  const uint32_t count = static_cast<uint32_t>(sections.size());
  std::vector<SectionEntry> table(count);
  uint64_t cursor =
      AlignUp(sizeof(SnapshotHeader) + count * sizeof(SectionEntry));
  for (uint32_t i = 0; i < count; ++i) {
    table[i].kind = static_cast<uint32_t>(sections[i].kind);
    table[i].elem_size = sections[i].elem_size;
    table[i].offset = cursor;
    table[i].byte_size = sections[i].byte_size();
    table[i].elem_count = sections[i].elem_count;
    table[i].reserved = 0;
    cursor = AlignUp(cursor + table[i].byte_size);
  }
  const uint64_t file_size = cursor;
  for (uint32_t i = 0; i < count; ++i) {
    table[i].crc32c = Crc32c(sections[i].data, table[i].byte_size);
  }

  SnapshotHeader header{};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header.version = kSnapshotVersion;
  header.endian_tag = kSnapshotEndianTag;
  header.file_size = file_size;
  header.flags = (raw_closures ? uint64_t{kSnapFlagClosures} : 0) |
                 (packed_closures ? uint64_t{kSnapFlagPackedClosures} : 0) |
                 (tiered ? uint64_t{kSnapFlagTiered} : 0) |
                 (with_labels ? uint64_t{kSnapFlagLabels} : 0) |
                 (with_typical ? uint64_t{kSnapFlagTypical} : 0) |
                 (pack_typical ? uint64_t{kSnapFlagPackedTypical} : 0) |
                 (with_sketches ? uint64_t{kSnapFlagSketches} : 0) |
                 (options.model == PropagationModel::kLinearThreshold
                      ? uint64_t{kSnapFlagLinearThreshold}
                      : 0);
  header.num_nodes = n;
  header.num_worlds = w;
  header.num_edges = m;
  header.section_count = count;
  header.header_crc32c = 0;
  header.graph_fingerprint = GraphFingerprint(graph);
  std::string head(sizeof(header) + count * sizeof(SectionEntry), '\0');
  std::memcpy(head.data(), &header, sizeof(header));
  std::memcpy(head.data() + sizeof(header), table.data(),
              count * sizeof(SectionEntry));
  // Header CRC covers header (crc field zeroed, as it is right now) + table.
  const uint32_t hcrc = Crc32c(head.data(), head.size());
  std::memcpy(head.data() + offsetof(SnapshotHeader, header_crc32c), &hcrc,
              sizeof(hcrc));
  // Payloads start 64-byte aligned; the gaps are zeros.
  static constexpr char kZeros[kSnapshotAlign] = {};
  emit(head.data(), head.size());
  uint64_t at = head.size();
  for (uint32_t i = 0; i < count; ++i) {
    emit(kZeros, table[i].offset - at);
    if (table[i].byte_size > 0) emit(sections[i].data, table[i].byte_size);
    at = table[i].offset + table[i].byte_size;
  }
  emit(kZeros, file_size - at);
  return Status::OK();
}

}  // namespace

Result<std::string> SerializeSnapshot(const ProbGraph& graph,
                                      const CascadeIndex& index,
                                      const SnapshotWriteOptions& options) {
  std::string out;
  SOI_RETURN_IF_ERROR(EmitSnapshot(
      graph, index, options, [&out](const void* data, size_t size) {
        out.append(static_cast<const char*>(data), size);
      }));
  return out;
}

Status WriteSnapshot(const ProbGraph& graph, const CascadeIndex& index,
                     const std::string& path,
                     const SnapshotWriteOptions& options) {
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return Status::IOError("cannot open '" + tmp + "' for writing");
  }
  bool ok = true;
  const Status laid = EmitSnapshot(
      graph, index, options, [&](const void* data, size_t size) {
        ok = ok && std::fwrite(data, 1, size, out) == size;
      });
  // The bytes must be on disk before the rename publishes them: otherwise a
  // crash after the rename can leave `path` naming a torn file.
  ok = laid.ok() && ok && std::fflush(out) == 0 &&
       ::fsync(::fileno(out)) == 0;
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    if (!laid.ok()) return laid;
    return Status::IOError("write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename '" + tmp + "' -> '" + path + "' failed");
  }
  // Sync the directory so the rename itself survives a crash.
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : path.substr(0, std::max<size_t>(slash, 1));
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool synced = dir_fd >= 0 && ::fsync(dir_fd) == 0;
  if (dir_fd >= 0) ::close(dir_fd);
  if (!synced) {
    return Status::IOError("wrote '" + path + "' but cannot sync directory '" +
                           dir + "'");
  }
  return Status::OK();
}

}  // namespace soi
