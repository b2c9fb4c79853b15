#include "snapshot/writer.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "infmax/sketch_oracle.h"
#include "runtime/parallel_for.h"
#include "snapshot/crc32c.h"
#include "snapshot/format.h"
#include "util/packed_runs.h"

namespace soi {

namespace {

// Bytes of a section payload that something else owns.
struct Piece {
  const void* data;
  uint64_t size;
};

// One section staged for layout: its payload is its pieces back to back.
// Pooled sections hold one piece per contributing world, pointing straight
// at the world's arrays, so no pool is ever copied together.
struct Staged {
  SectionKind kind;
  uint32_t elem_size;
  uint64_t elem_count = 0;
  std::vector<Piece> pieces;

  template <typename T>
  void Add(std::span<const T> span) {
    SOI_DCHECK(sizeof(T) == elem_size);
    elem_count += span.size();
    if (!span.empty()) pieces.push_back({span.data(), span.size_bytes()});
  }
  uint64_t byte_size() const { return elem_size * elem_count; }
};

template <typename T>
Staged Section(SectionKind kind) {
  Staged s;
  s.kind = kind;
  s.elem_size = sizeof(T);
  return s;
}

template <typename T>
Staged Section(SectionKind kind, std::span<const T> data) {
  Staged s = Section<T>(kind);
  s.Add(data);
  return s;
}

uint64_t AlignUp(uint64_t v) {
  return (v + kSnapshotAlign - 1) & ~(kSnapshotAlign - 1);
}

// The file, laid out: header and section table, the sections with their
// table rows, and the buffers the writer filled itself. Pieces point into
// these buffers, so a Layout is filled in place and never moved.
struct Layout {
  std::string head;  // header + section table
  std::vector<Staged> sections;
  std::vector<SectionEntry> table;
  uint64_t file_size = 0;

  std::vector<WorldRecord> world_table;
  std::vector<uint32_t> tier_table;
  std::unique_ptr<uint8_t[]> comps_packed;
  std::unique_ptr<uint8_t[]> nodes_packed;
  FlatSets typical_reencoded;
  uint64_t sketch_meta[2] = {0, 0};
};

// Packs the materialized worlds' closure and cascade runs into two byte
// pools. Each world's encoded length is counted first, so both pools are
// allocated once, exactly, on the calling thread (uninitialized: every
// byte is written below); then every world encodes into its own slice in
// parallel. *comps_base / *nodes_base get each world's byte base, in
// `materialized` order, plus the pool size at the end.
void PackClosures(const CascadeIndex& index,
                  std::span<const uint32_t> materialized, Layout* out,
                  std::vector<uint64_t>* comps_base,
                  std::vector<uint64_t>* nodes_base) {
  const uint64_t num = materialized.size();
  comps_base->assign(num + 1, 0);
  nodes_base->assign(num + 1, 0);
  ParallelFor(0, num, 1, [&](uint64_t j) {
    const ReachabilityClosure& cl = index.closure(materialized[j]);
    (*comps_base)[j + 1] =
        PackedRunsSize(cl.comps_view(), cl.comp_offsets_view());
    (*nodes_base)[j + 1] =
        PackedRunsSize(cl.nodes_view(), cl.node_offsets_view());
  });
  std::partial_sum(comps_base->begin(), comps_base->end(),
                   comps_base->begin());
  std::partial_sum(nodes_base->begin(), nodes_base->end(),
                   nodes_base->begin());
  out->comps_packed = std::make_unique_for_overwrite<uint8_t[]>(
      comps_base->back());
  out->nodes_packed = std::make_unique_for_overwrite<uint8_t[]>(
      nodes_base->back());
  ParallelFor(0, num, 1, [&](uint64_t j) {
    const ReachabilityClosure& cl = index.closure(materialized[j]);
    const uint8_t* comps =
        EncodePackedRuns(cl.comps_view(), cl.comp_offsets_view(),
                         out->comps_packed.get() + (*comps_base)[j]);
    const uint8_t* nodes =
        EncodePackedRuns(cl.nodes_view(), cl.node_offsets_view(),
                         out->nodes_packed.get() + (*nodes_base)[j]);
    SOI_CHECK(comps == out->comps_packed.get() + (*comps_base)[j + 1]);
    SOI_CHECK(nodes == out->nodes_packed.get() + (*nodes_base)[j + 1]);
  });
}

// CRC-32C of every section into its table row, on the thread budget. Each
// lane checksums whole sections, handed out largest first to the least
// loaded lane, so the lanes finish close together and no section is split.
// A section's checksum does not depend on its lane.
void ChecksumSections(Layout* out) {
  const size_t count = out->sections.size();
  const uint32_t lanes = static_cast<uint32_t>(
      std::min<uint64_t>(GlobalThreads(), std::max<size_t>(count, 1)));
  std::vector<uint32_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return out->table[a].byte_size > out->table[b].byte_size;
  });
  std::vector<std::vector<uint32_t>> lane_sections(lanes);
  std::vector<uint64_t> load(lanes, 0);
  for (const uint32_t i : order) {
    const size_t lane = static_cast<size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    lane_sections[lane].push_back(i);
    load[lane] += out->table[i].byte_size;
  }
  ParallelFor(0, lanes, 1, [&](uint64_t lane) {
    for (const uint32_t i : lane_sections[lane]) {
      uint32_t crc = 0;
      for (const Piece& piece : out->sections[i].pieces) {
        crc = Crc32cExtend(crc, piece.data, piece.size);
      }
      out->table[i].crc32c = crc;
    }
  });
}

// Lays out the snapshot into *out: stages every section as pieces of the
// graph, the index, the typical table and the sketch tier, packs what the
// layout stores packed, and fills the section table (with checksums) and
// the header.
Status LayOut(const ProbGraph& graph, const CascadeIndex& index,
              const SnapshotWriteOptions& options, Layout* out) {
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
  std::vector<uint32_t> materialized;
  uint32_t n_lab = 0;
  out->tier_table.resize(w);
  for (uint32_t i = 0; i < w; ++i) {
    const WorldTier t = index.tier(i);
    out->tier_table[i] = static_cast<uint32_t>(t);
    if (t == WorldTier::kMaterialized) materialized.push_back(i);
    if (t == WorldTier::kLabels) ++n_lab;
  }
  const uint32_t n_mat = static_cast<uint32_t>(materialized.size());
  const bool uniform = (n_mat == w) || (n_mat == 0 && n_lab == 0);
  const bool tiered = options.pack || !uniform;
  const bool with_closures = n_mat > 0;
  const bool packed_closures = with_closures && options.pack;
  const bool raw_closures = with_closures && !options.pack;
  const bool with_labels = n_lab > 0;
  const bool pack_typical = with_typical && options.pack;

  // Pooled sections: each world's arrays are its pieces, in world order.
  // Offsets stay *local* per world (each world's offsets array starts at
  // 0); WorldRecord bases say where each world's slice begins, so the
  // reader's borrowed spans slice straight out of the pools. Closure pools
  // take slices only from the materialized worlds (every world under the
  // legacy all-materialized layout); label pools only from the labeled
  // ones — their per-world bases are a cumulative scan on read, so
  // non-qualifying worlds contribute nothing.
  Staged comp_of = Section<uint32_t>(SectionKind::kCompOf);
  Staged members_offsets = Section<uint32_t>(SectionKind::kMembersOffsets);
  Staged members_targets = Section<uint32_t>(SectionKind::kMembersTargets);
  Staged dag_offsets = Section<uint32_t>(SectionKind::kDagOffsets);
  Staged dag_targets = Section<uint32_t>(SectionKind::kDagTargets);
  Staged closure_comp_offsets =
      Section<uint64_t>(SectionKind::kClosureCompOffsets);
  Staged closure_node_offsets =
      Section<uint64_t>(SectionKind::kClosureNodeOffsets);
  Staged closure_comps = Section<uint32_t>(SectionKind::kClosureComps);
  Staged closure_nodes = Section<uint32_t>(SectionKind::kClosureNodes);
  Staged label_offsets = Section<uint64_t>(SectionKind::kLabelOffsets);
  Staged label_bounds = Section<uint32_t>(SectionKind::kLabelBounds);
  Staged label_reach = Section<uint32_t>(SectionKind::kLabelReachNodes);
  std::vector<uint64_t> comps_base, nodes_base;
  if (packed_closures) {
    PackClosures(index, materialized, out, &comps_base, &nodes_base);
  }
  out->world_table.resize(w + 1);
  uint32_t mat_seen = 0;  // materialized worlds before world i
  for (uint32_t i = 0; i <= w; ++i) {
    WorldRecord& rec = out->world_table[i];
    rec.offsets_base = members_offsets.elem_count;
    rec.dag_targets_base = dag_targets.elem_count;
    rec.closure_comps_base = packed_closures ? comps_base[mat_seen]
                                             : closure_comps.elem_count;
    rec.closure_nodes_base = packed_closures ? nodes_base[mat_seen]
                                             : closure_nodes.elem_count;
    // Record w is the end sentinel: its bases close the last world's
    // extents.
    if (i == w) break;
    const Condensation& cond = index.world(i);
    rec.num_components = cond.num_components();
    comp_of.Add(cond.comp_of());
    members_offsets.Add(cond.members_offsets());
    members_targets.Add(cond.members_targets());
    dag_offsets.Add(cond.dag_offsets());
    dag_targets.Add(cond.dag_targets());
    if (index.tier(i) == WorldTier::kMaterialized) {
      ++mat_seen;
      const ReachabilityClosure& cl = index.closure(i);
      closure_comp_offsets.Add(cl.comp_offsets_view());
      closure_node_offsets.Add(cl.node_offsets_view());
      if (raw_closures) {
        closure_comps.Add(cl.comps_view());
        closure_nodes.Add(cl.nodes_view());
      }
    } else if (index.tier(i) == WorldTier::kLabels) {
      const ReachLabels& lb = index.labels(i);
      label_offsets.Add(lb.offsets_view());
      label_bounds.Add(lb.bounds_view());
      label_reach.Add(lb.reach_nodes_view());
    }
  }

  // Typical table in the requested encoding. When the input is already in
  // the target encoding the sections stage zero-copy from its spans; the
  // re-encode below only runs on a mismatch.
  const FlatSets* typical = options.typical;
  if (with_typical && typical->packed() != pack_typical) {
    out->typical_reencoded = pack_typical ? FlatSets::Pack(*typical)
                                          : FlatSets::Unpack(*typical);
    typical = &out->typical_reencoded;
  }

  // Sketch tier (minor-2 sections). The offsets pool tiles exactly like
  // kMembersOffsets (nc + 1 entries per world), so the per-world bases are
  // the WorldRecord offsets_base already written above — a mismatch means
  // the sketches were built over a different index.
  if (with_sketches) {
    if (options.sketches->offsets_view().size() !=
        members_offsets.elem_count) {
      return Status::InvalidArgument(
          "snapshot: sketch offsets do not tile the index's worlds (built "
          "over a different index?)");
    }
    out->sketch_meta[0] = options.sketches->sketch_k();
    out->sketch_meta[1] = options.sketches->salt();
  }

  std::vector<Staged>& sections = out->sections;
  sections.push_back(Section(SectionKind::kGraphOffsets, graph.offsets()));
  sections.push_back(Section(SectionKind::kGraphTargets, graph.targets()));
  sections.push_back(Section(SectionKind::kGraphProbs, graph.probs()));
  sections.push_back(Section(SectionKind::kGraphSources, graph.sources()));
  sections.push_back(
      Section(SectionKind::kGraphRevOffsets, graph.rev_offsets()));
  sections.push_back(
      Section(SectionKind::kGraphRevSources, graph.rev_sources()));
  sections.push_back(Section(SectionKind::kWorldTable,
                             std::span<const WorldRecord>(out->world_table)));
  sections.push_back(std::move(comp_of));
  sections.push_back(std::move(members_offsets));
  sections.push_back(std::move(members_targets));
  sections.push_back(std::move(dag_offsets));
  sections.push_back(std::move(dag_targets));
  if (tiered) {
    sections.push_back(Section(SectionKind::kTierTable,
                               std::span<const uint32_t>(out->tier_table)));
  }
  if (with_closures) {
    sections.push_back(std::move(closure_comp_offsets));
    sections.push_back(std::move(closure_node_offsets));
  }
  if (raw_closures) {
    sections.push_back(std::move(closure_comps));
    sections.push_back(std::move(closure_nodes));
  }
  if (packed_closures) {
    sections.push_back(Section(
        SectionKind::kClosureCompsPacked,
        std::span<const uint8_t>(out->comps_packed.get(), comps_base.back())));
    sections.push_back(Section(
        SectionKind::kClosureNodesPacked,
        std::span<const uint8_t>(out->nodes_packed.get(), nodes_base.back())));
  }
  if (with_labels) {
    sections.push_back(std::move(label_offsets));
    sections.push_back(std::move(label_bounds));
    sections.push_back(std::move(label_reach));
  }
  if (with_typical) {
    if (pack_typical) {
      const PackedRuns& runs = typical->packed_runs();
      sections.push_back(
          Section(SectionKind::kTypicalOffsets, runs.elem_offsets()));
      sections.push_back(Section(SectionKind::kTypicalPacked, runs.bytes()));
      sections.push_back(
          Section(SectionKind::kTypicalPackedOffsets, runs.byte_offsets()));
    } else {
      sections.push_back(
          Section(SectionKind::kTypicalOffsets, typical->offsets()));
      sections.push_back(
          Section(SectionKind::kTypicalElems, typical->elements()));
    }
  }
  if (with_sketches) {
    sections.push_back(Section(SectionKind::kSketchMeta,
                               std::span<const uint64_t>(out->sketch_meta)));
    sections.push_back(Section(SectionKind::kSketchOffsets,
                               options.sketches->offsets_view()));
    sections.push_back(Section(SectionKind::kSketchEntries,
                               options.sketches->entries_view()));
  }

  // Layout: header, section table, then 64-byte-aligned payloads.
  const uint32_t count = static_cast<uint32_t>(sections.size());
  std::vector<SectionEntry>& table = out->table;
  table.resize(count);
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
  out->file_size = cursor;
  ChecksumSections(out);

  SnapshotHeader header{};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header.version = kSnapshotVersion;
  header.endian_tag = kSnapshotEndianTag;
  header.file_size = out->file_size;
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
  std::string& head = out->head;
  head.assign(sizeof(header) + count * sizeof(SectionEntry), '\0');
  std::memcpy(head.data(), &header, sizeof(header));
  std::memcpy(head.data() + sizeof(header), table.data(),
              count * sizeof(SectionEntry));
  // Header CRC covers header (crc field zeroed, as it is right now) + table.
  const uint32_t hcrc = Crc32c(head.data(), head.size());
  std::memcpy(head.data() + offsetof(SnapshotHeader, header_crc32c), &hcrc,
              sizeof(hcrc));
  return Status::OK();
}

// Hands the file's bytes to `emit(const void*, size_t)` in file order:
// header and table, then each section's pieces after the zeros that align
// it.
template <typename Emit>
void EmitLayout(const Layout& layout, Emit&& emit) {
  static constexpr char kZeros[kSnapshotAlign] = {};
  emit(layout.head.data(), layout.head.size());
  uint64_t at = layout.head.size();
  for (size_t i = 0; i < layout.sections.size(); ++i) {
    const SectionEntry& row = layout.table[i];
    if (row.offset > at) emit(kZeros, row.offset - at);
    for (const Piece& piece : layout.sections[i].pieces) {
      emit(piece.data, piece.size);
    }
    at = row.offset + row.byte_size;
  }
  if (layout.file_size > at) emit(kZeros, layout.file_size - at);
}

// Writes every byte `iov` describes to `fd` in writev calls of up to
// IOV_MAX buffers, resuming after short writes and EINTR. On failure
// returns false with errno set.
bool WriteAll(int fd, std::vector<iovec> iov) {
  size_t first = 0;
  while (first < iov.size()) {
    const int batch = static_cast<int>(std::min<size_t>(
        iov.size() - first, static_cast<size_t>(IOV_MAX)));
    const ssize_t wrote = ::writev(fd, iov.data() + first, batch);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (wrote == 0) {  // no progress and no error: give up, do not spin
      errno = EIO;
      return false;
    }
    size_t left = static_cast<size_t>(wrote);
    while (first < iov.size() && left >= iov[first].iov_len) {
      left -= iov[first].iov_len;
      ++first;
    }
    if (left > 0) {  // part of one buffer went out
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }
  return true;
}

}  // namespace

Result<std::string> SerializeSnapshot(const ProbGraph& graph,
                                      const CascadeIndex& index,
                                      const SnapshotWriteOptions& options) {
  Layout layout;
  SOI_RETURN_IF_ERROR(LayOut(graph, index, options, &layout));
  std::string out;
  out.reserve(layout.file_size);
  EmitLayout(layout, [&out](const void* data, size_t size) {
    out.append(static_cast<const char*>(data), size);
  });
  return out;
}

Status WriteSnapshot(const ProbGraph& graph, const CascadeIndex& index,
                     const std::string& path,
                     const SnapshotWriteOptions& options) {
  Layout layout;
  SOI_RETURN_IF_ERROR(LayOut(graph, index, options, &layout));
  std::vector<iovec> iov;
  EmitLayout(layout, [&iov](const void* data, size_t size) {
    if (size > 0) iov.push_back({const_cast<void*>(data), size});
  });

  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::IOError("cannot open '" + tmp +
                           "' for writing: " + std::strerror(errno));
  }
  // The bytes must be on disk before the rename publishes them: otherwise a
  // crash after the rename can leave `path` naming a torn file.
  bool ok = WriteAll(fd, std::move(iov)) && ::fsync(fd) == 0;
  int error = ok ? 0 : errno;
  if (::close(fd) != 0 && ok) {
    ok = false;
    error = errno;
  }
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("write to '" + tmp +
                           "' failed: " + std::strerror(error));
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
