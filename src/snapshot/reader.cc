#include "snapshot/reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "snapshot/crc32c.h"
#include "util/packed_runs.h"

namespace soi {

namespace {

Status Invalid(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("snapshot '" + path + "': " + what);
}

// Expected element size for a known section kind; 0 = unknown kind
// (tolerated and skipped for forward compatibility).
uint32_t ExpectedElemSize(uint32_t kind) {
  switch (static_cast<SectionKind>(kind)) {
    case SectionKind::kGraphOffsets:
    case SectionKind::kGraphRevOffsets:
    case SectionKind::kClosureCompOffsets:
    case SectionKind::kClosureNodeOffsets:
    case SectionKind::kTypicalOffsets:
    case SectionKind::kLabelOffsets:
    case SectionKind::kTypicalPackedOffsets:
    case SectionKind::kSketchMeta:
    case SectionKind::kSketchOffsets:
    case SectionKind::kSketchEntries:
      return 8;
    case SectionKind::kGraphProbs:
      return 8;
    case SectionKind::kGraphTargets:
    case SectionKind::kGraphSources:
    case SectionKind::kGraphRevSources:
    case SectionKind::kCompOf:
    case SectionKind::kMembersOffsets:
    case SectionKind::kMembersTargets:
    case SectionKind::kDagOffsets:
    case SectionKind::kDagTargets:
    case SectionKind::kClosureComps:
    case SectionKind::kClosureNodes:
    case SectionKind::kTypicalElems:
    case SectionKind::kTierTable:
    case SectionKind::kLabelBounds:
    case SectionKind::kLabelReachNodes:
      return 4;
    case SectionKind::kClosureCompsPacked:
    case SectionKind::kClosureNodesPacked:
    case SectionKind::kTypicalPacked:
      return 1;
    case SectionKind::kWorldTable:
      return sizeof(WorldRecord);
  }
  return 0;
}

// offsets[0] == 0, non-decreasing, offsets.back() == total. The single
// check that makes every CSR slice in the file safe to span into.
template <typename T>
bool IsLocalCsr(std::span<const T> offsets, uint64_t total) {
  if (offsets.empty() || offsets.front() != 0) return false;
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  return offsets.back() == total;
}

template <typename T>
bool AllBelow(std::span<const T> values, uint64_t bound) {
  for (T v : values) {
    if (v >= bound) return false;
  }
  return true;
}

}  // namespace

Snapshot::~Snapshot() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

const SectionEntry* Snapshot::Find(SectionKind kind) const {
  const uint32_t k = static_cast<uint32_t>(kind);
  return k < 32 ? sections_[k] : nullptr;
}

template <typename T>
std::span<const T> Snapshot::View(SectionKind kind) const {
  const SectionEntry* e = Find(kind);
  SOI_DCHECK(e != nullptr && e->elem_size == sizeof(T));
  return std::span<const T>(
      reinterpret_cast<const T*>(static_cast<const char*>(map_) + e->offset),
      e->elem_count);
}

Result<std::shared_ptr<const Snapshot>> Snapshot::Open(
    const std::string& path, SnapshotValidation validation) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("snapshot '" + path + "': cannot open file");
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("snapshot '" + path + "': cannot stat file");
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < sizeof(SnapshotHeader)) {
    ::close(fd);
    return Invalid(path, "truncated: file is " + std::to_string(size) +
                             " bytes, the soi-snap-v1 header alone is " +
                             std::to_string(sizeof(SnapshotHeader)));
  }
  // PROT_READ MAP_SHARED: all processes mapping this file share one
  // physical copy via the page cache; nothing here is ever written.
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("snapshot '" + path + "': mmap failed");
  }
  std::shared_ptr<Snapshot> snap(new Snapshot());
  snap->map_ = map;
  snap->map_size_ = size;
  snap->path_ = path;
  SOI_RETURN_IF_ERROR(snap->Validate(path, validation));
  if (validation == SnapshotValidation::kFull) {
    SOI_RETURN_IF_ERROR(snap->CheckAllWorlds());
  }
  return std::shared_ptr<const Snapshot>(std::move(snap));
}

Status Snapshot::Validate(const std::string& path,
                          SnapshotValidation validation) {
  const char* base = static_cast<const char*>(map_);
  std::memcpy(&header_, base, sizeof(header_));

  if (std::memcmp(header_.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return Invalid(path, "wrong magic: not a soi-snap file (expected "
                         "\"SOISNAP1\"); is this a legacy SOIIDX index?");
  }
  if (header_.endian_tag != kSnapshotEndianTag) {
    if (header_.endian_tag == 0x04030201u) {
      return Invalid(path,
                     "endianness mismatch: file was written on a big-endian "
                     "machine; re-create the snapshot on this architecture");
    }
    return Invalid(path, "corrupt endianness tag");
  }
  // Major must match; any minor of a known major is readable (additive
  // evolution only — a file using state we can't interpret also sets a flag
  // bit we don't know, rejected below).
  if ((header_.version & 0xFFFFu) != kSnapshotVersionMajor) {
    return Invalid(path, "unsupported version " +
                             std::to_string(header_.version & 0xFFFFu) +
                             " (this binary reads soi-snap-v" +
                             std::to_string(kSnapshotVersionMajor) +
                             "); upgrade the binary or re-create the "
                             "snapshot");
  }
  if ((header_.flags & ~kSnapshotKnownFlags) != 0) {
    return Invalid(
        path, "unknown capability flags; the snapshot carries state this "
              "binary cannot interpret — upgrade the binary");
  }
  if (header_.file_size != map_size_) {
    return Invalid(path, "truncated or padded: header declares " +
                             std::to_string(header_.file_size) +
                             " bytes but the file has " +
                             std::to_string(map_size_));
  }
  if (header_.num_nodes == 0 || header_.num_worlds == 0) {
    return Invalid(path, "empty node set or world set");
  }
  if (header_.section_count == 0 || header_.section_count > 1024) {
    return Invalid(path, "implausible section count " +
                             std::to_string(header_.section_count));
  }
  const uint64_t table_bytes =
      uint64_t{header_.section_count} * sizeof(SectionEntry);
  if (sizeof(SnapshotHeader) + table_bytes > map_size_) {
    return Invalid(path, "truncated: section table extends past end of file");
  }

  // Header + section-table CRC first: everything below trusts the table.
  {
    SnapshotHeader zeroed = header_;
    zeroed.header_crc32c = 0;
    uint32_t crc = Crc32c(&zeroed, sizeof(zeroed));
    crc = Crc32cExtend(crc, base + sizeof(SnapshotHeader), table_bytes);
    if (crc != header_.header_crc32c) {
      return Invalid(path, "header/section-table checksum mismatch (torn "
                           "write or corruption)");
    }
  }

  const SectionEntry* table =
      reinterpret_cast<const SectionEntry*>(base + sizeof(SnapshotHeader));
  for (uint32_t i = 0; i < header_.section_count; ++i) {
    const SectionEntry& e = table[i];
    const uint32_t expected = ExpectedElemSize(e.kind);
    if (expected == 0) continue;  // unknown kind: skip, stay compatible
    if (e.elem_size != expected) {
      return Invalid(path, "section " + std::to_string(e.kind) +
                               " has element size " +
                               std::to_string(e.elem_size) + ", expected " +
                               std::to_string(expected));
    }
    if (e.offset % kSnapshotAlign != 0) {
      return Invalid(path, "section " + std::to_string(e.kind) +
                               " payload is misaligned");
    }
    if (e.byte_size != e.elem_size * e.elem_count ||
        e.offset > map_size_ || e.byte_size > map_size_ - e.offset) {
      return Invalid(path, "section " + std::to_string(e.kind) +
                               " extends past end of file (truncated?)");
    }
    if (sections_[e.kind] != nullptr) {
      return Invalid(path,
                     "duplicate section " + std::to_string(e.kind));
    }
    sections_[e.kind] = &e;
    if (validation == SnapshotValidation::kFull &&
        Crc32c(base + e.offset, e.byte_size) != e.crc32c) {
      return Invalid(path, "section " + std::to_string(e.kind) +
                               " payload checksum mismatch (corruption)");
    }
  }

  const uint64_t n = header_.num_nodes;
  const uint64_t w = header_.num_worlds;
  const uint64_t m = header_.num_edges;
  const bool tiered = (header_.flags & kSnapFlagTiered) != 0;
  const bool raw_closures = (header_.flags & kSnapFlagClosures) != 0;
  const bool packed_closures = (header_.flags & kSnapFlagPackedClosures) != 0;
  const bool with_closures = raw_closures || packed_closures;
  const bool with_labels = (header_.flags & kSnapFlagLabels) != 0;
  const bool with_typical = (header_.flags & kSnapFlagTypical) != 0;
  const bool packed_typical = (header_.flags & kSnapFlagPackedTypical) != 0;
  const bool with_sketches = (header_.flags & kSnapFlagSketches) != 0;
  if (raw_closures && packed_closures) {
    return Invalid(path, "closures declared both raw and packed");
  }
  if ((packed_closures || with_labels) && !tiered) {
    return Invalid(path,
                   "packed closures / labels require the per-world tier "
                   "table (kSnapFlagTiered)");
  }
  if (packed_typical && !with_typical) {
    return Invalid(path, "packed-typical flag set without a typical table");
  }

  // Required sections with their exact element counts. The tiered closure /
  // label pools cover only the qualifying worlds, so their exact sizes are
  // established by the cumulative world scan below, not here.
  struct Expectation {
    SectionKind kind;
    uint64_t count;
    bool required;
  };
  const uint64_t pooled_offsets = [&] {
    const SectionEntry* e = Find(SectionKind::kMembersOffsets);
    return e != nullptr ? e->elem_count : 0;
  }();
  const Expectation expectations[] = {
      {SectionKind::kGraphOffsets, n + 1, true},
      {SectionKind::kGraphTargets, m, true},
      {SectionKind::kGraphProbs, m, true},
      {SectionKind::kGraphSources, m, true},
      {SectionKind::kGraphRevOffsets, n + 1, true},
      {SectionKind::kGraphRevSources, m, true},
      {SectionKind::kWorldTable, w + 1, true},
      {SectionKind::kCompOf, w * n, true},
      {SectionKind::kMembersOffsets, pooled_offsets, true},
      {SectionKind::kMembersTargets, w * n, true},
      {SectionKind::kDagOffsets, pooled_offsets, true},
      {SectionKind::kTierTable, w, tiered},
      {SectionKind::kClosureCompOffsets, pooled_offsets,
       with_closures && !tiered},
      {SectionKind::kClosureNodeOffsets, pooled_offsets,
       with_closures && !tiered},
  };
  for (const Expectation& x : expectations) {
    const SectionEntry* e = Find(x.kind);
    if (!x.required) {
      // Tiered closure offset pools are required too, just not with a count
      // known yet; only flag-less presence is an error here.
      const bool tolerated =
          tiered && with_closures &&
          (x.kind == SectionKind::kClosureCompOffsets ||
           x.kind == SectionKind::kClosureNodeOffsets);
      if (e != nullptr && !tolerated) {
        return Invalid(path, "section " +
                                 std::to_string(static_cast<uint32_t>(x.kind)) +
                                 " present but its capability flag is unset");
      }
      continue;
    }
    if (e == nullptr) {
      return Invalid(path, "missing required section " +
                               std::to_string(static_cast<uint32_t>(x.kind)));
    }
    if (e->elem_count != x.count) {
      return Invalid(path, "section " +
                               std::to_string(static_cast<uint32_t>(x.kind)) +
                               " has " + std::to_string(e->elem_count) +
                               " elements, expected " +
                               std::to_string(x.count));
    }
  }
  // Variable-length pools just need to exist (extents checked below).
  for (SectionKind kind : {SectionKind::kDagTargets}) {
    if (Find(kind) == nullptr) {
      return Invalid(path, "missing required section " +
                               std::to_string(static_cast<uint32_t>(kind)));
    }
  }
  const auto require_present = [&](std::initializer_list<SectionKind> kinds,
                                   bool flagged,
                                   const char* what) -> Status {
    for (SectionKind kind : kinds) {
      if ((Find(kind) != nullptr) != flagged) {
        return Invalid(path, std::string(what) +
                                 (flagged ? " capability flag set but its "
                                            "sections are missing"
                                          : " sections present but the "
                                            "capability flag is unset"));
      }
    }
    return Status::OK();
  };
  SOI_RETURN_IF_ERROR(require_present(
      {SectionKind::kClosureCompOffsets, SectionKind::kClosureNodeOffsets},
      with_closures, "closure"));
  SOI_RETURN_IF_ERROR(require_present(
      {SectionKind::kClosureComps, SectionKind::kClosureNodes}, raw_closures,
      "raw-closure"));
  SOI_RETURN_IF_ERROR(require_present(
      {SectionKind::kClosureCompsPacked, SectionKind::kClosureNodesPacked},
      packed_closures, "packed-closure"));
  SOI_RETURN_IF_ERROR(require_present(
      {SectionKind::kLabelOffsets, SectionKind::kLabelBounds,
       SectionKind::kLabelReachNodes},
      with_labels, "label"));
  SOI_RETURN_IF_ERROR(require_present({SectionKind::kTypicalOffsets},
                                      with_typical, "typical-table"));
  SOI_RETURN_IF_ERROR(require_present({SectionKind::kTypicalElems},
                                      with_typical && !packed_typical,
                                      "raw-typical"));
  SOI_RETURN_IF_ERROR(require_present(
      {SectionKind::kTypicalPacked, SectionKind::kTypicalPackedOffsets},
      packed_typical, "packed-typical"));
  SOI_RETURN_IF_ERROR(require_present(
      {SectionKind::kSketchMeta, SectionKind::kSketchOffsets,
       SectionKind::kSketchEntries},
      with_sketches, "sketch"));
  if (with_closures && tiered) {
    // The two tiered closure offset pools are sliced with one shared
    // per-world base; equal lengths first, exact totals after the world
    // scan.
    if (Find(SectionKind::kClosureNodeOffsets)->elem_count !=
        Find(SectionKind::kClosureCompOffsets)->elem_count) {
      return Invalid(path, "closure offset pools have mismatched lengths");
    }
  }

  // Tier table contents + census; flags must agree with the census so a
  // tier never points at state the file does not carry.
  uint32_t n_mat = 0, n_lab = 0;
  if (tiered) {
    const auto tiers = View<uint32_t>(SectionKind::kTierTable);
    for (uint64_t i = 0; i < w; ++i) {
      if (tiers[i] >
          static_cast<uint32_t>(WorldTier::kMaterialized)) {
        return Invalid(path, "world " + std::to_string(i) +
                                 " has unknown storage tier " +
                                 std::to_string(tiers[i]));
      }
      if (tiers[i] == static_cast<uint32_t>(WorldTier::kMaterialized)) {
        ++n_mat;
      } else if (tiers[i] == static_cast<uint32_t>(WorldTier::kLabels)) {
        ++n_lab;
      }
    }
    if ((n_mat > 0) != with_closures || (n_lab > 0) != with_labels) {
      return Invalid(path,
                     "tier table disagrees with the closure/label "
                     "capability flags");
    }
  }

  // Graph CSR consistency + id range scans: after this, no graph accessor
  // can read out of bounds.
  if (!IsLocalCsr(View<uint64_t>(SectionKind::kGraphOffsets), m) ||
      !IsLocalCsr(View<uint64_t>(SectionKind::kGraphRevOffsets), m)) {
    return Invalid(path, "graph offsets are not a valid CSR over " +
                             std::to_string(m) + " edges");
  }
  if (!AllBelow(View<uint32_t>(SectionKind::kGraphTargets), n) ||
      !AllBelow(View<uint32_t>(SectionKind::kGraphSources), n) ||
      !AllBelow(View<uint32_t>(SectionKind::kGraphRevSources), n)) {
    return Invalid(path, "graph edge endpoint out of node range");
  }

  // World table: sentinel record closes every pool; per-world extents must
  // tile the pools exactly, and every per-world CSR must be locally valid
  // with all ids in range. Linear in the file — memory-bandwidth cheap next
  // to the closure rebuild this replaces.
  const auto wt = View<WorldRecord>(SectionKind::kWorldTable);
  const auto comp_of = View<uint32_t>(SectionKind::kCompOf);
  const auto mem_off_pool = View<uint32_t>(SectionKind::kMembersOffsets);
  const auto mem_tgt = View<uint32_t>(SectionKind::kMembersTargets);
  const auto dag_off_pool = View<uint32_t>(SectionKind::kDagOffsets);
  const auto dag_tgt_pool = View<uint32_t>(SectionKind::kDagTargets);
  if (wt[w].offsets_base != mem_off_pool.size() ||
      wt[w].dag_targets_base != dag_tgt_pool.size()) {
    return Invalid(path, "world table sentinel does not close the pools");
  }
  // Tiered pools are sliced by cumulative bases (per qualifying world, in
  // world order); the scan below both validates the slices and proves they
  // tile the pools exactly.
  uint64_t c_off_base = 0;     // closure offset pools (13/15)
  uint64_t lab_off_base = 0;   // kLabelOffsets
  uint64_t lab_bounds_base = 0;  // kLabelBounds, u32 units
  uint64_t lab_rn_base = 0;    // kLabelReachNodes
  const auto tier_of = [&](uint64_t i) {
    return tiered ? static_cast<WorldTier>(
                        View<uint32_t>(SectionKind::kTierTable)[i])
                  : (with_closures ? WorldTier::kMaterialized
                                   : WorldTier::kTraversal);
  };
  for (uint64_t i = 0; i < w; ++i) {
    const WorldRecord& rec = wt[i];
    const WorldRecord& next = wt[i + 1];
    const uint64_t nc = rec.num_components;
    if (nc == 0 || nc > n) {
      return Invalid(path, "world " + std::to_string(i) +
                               " has implausible component count " +
                               std::to_string(nc));
    }
    if (next.offsets_base < rec.offsets_base ||
        next.offsets_base - rec.offsets_base != nc + 1 ||
        next.dag_targets_base < rec.dag_targets_base) {
      return Invalid(path, "world " + std::to_string(i) +
                               " pool extents are inconsistent");
    }
    const auto mem_off = mem_off_pool.subspan(rec.offsets_base, nc + 1);
    const auto dag_off = dag_off_pool.subspan(rec.offsets_base, nc + 1);
    const uint64_t dag_len = next.dag_targets_base - rec.dag_targets_base;
    if (!IsLocalCsr(mem_off, n) || !IsLocalCsr(dag_off, dag_len)) {
      return Invalid(path, "world " + std::to_string(i) +
                               " has invalid members/DAG offsets");
    }
    if (!AllBelow(comp_of.subspan(i * n, n), nc) ||
        !AllBelow(mem_tgt.subspan(i * n, n), n) ||
        !AllBelow(dag_tgt_pool.subspan(rec.dag_targets_base, dag_len), nc)) {
      return Invalid(path, "world " + std::to_string(i) +
                               " stores an out-of-range id");
    }
    const WorldTier tier = tier_of(i);
    if (next.closure_comps_base < rec.closure_comps_base ||
        next.closure_nodes_base < rec.closure_nodes_base) {
      return Invalid(path, "world " + std::to_string(i) +
                               " closure extents are inconsistent");
    }
    const uint64_t comps_len = next.closure_comps_base -
                               rec.closure_comps_base;
    const uint64_t nodes_len = next.closure_nodes_base -
                               rec.closure_nodes_base;
    if (tier != WorldTier::kMaterialized) {
      if (comps_len != 0 || nodes_len != 0) {
        return Invalid(path, "world " + std::to_string(i) +
                                 " retains no closure but has a closure "
                                 "extent");
      }
    } else {
      const uint64_t co_base = tiered ? c_off_base : rec.offsets_base;
      const auto cco_pool = View<uint64_t>(SectionKind::kClosureCompOffsets);
      const auto cno_pool = View<uint64_t>(SectionKind::kClosureNodeOffsets);
      if (co_base + nc + 1 > cco_pool.size()) {
        return Invalid(path, "world " + std::to_string(i) +
                                 " closure offsets extend past their pool");
      }
      const auto cco = cco_pool.subspan(co_base, nc + 1);
      const auto cno = cno_pool.subspan(co_base, nc + 1);
      if (raw_closures) {
        const auto comps = View<uint32_t>(SectionKind::kClosureComps);
        const auto nodes = View<uint32_t>(SectionKind::kClosureNodes);
        if (rec.closure_comps_base > comps.size() ||
            comps_len > comps.size() - rec.closure_comps_base ||
            rec.closure_nodes_base > nodes.size() ||
            nodes_len > nodes.size() - rec.closure_nodes_base) {
          return Invalid(path, "world " + std::to_string(i) +
                                   " closure extent exceeds its pool");
        }
        if (!IsLocalCsr(cco, comps_len) || !IsLocalCsr(cno, nodes_len)) {
          return Invalid(path, "world " + std::to_string(i) +
                                   " has invalid closure offsets");
        }
      } else {
        // Packed closures: the runs sit back-to-back in component order
        // (no per-run byte offsets stored — the element counts from the
        // offset pools delimit them). Their bytes are checked by the one
        // decode pass on the world's first use (LoadClosureRuns).
        const auto comps_bytes =
            View<uint8_t>(SectionKind::kClosureCompsPacked);
        const auto nodes_bytes =
            View<uint8_t>(SectionKind::kClosureNodesPacked);
        if (rec.closure_comps_base > comps_bytes.size() ||
            comps_len > comps_bytes.size() - rec.closure_comps_base ||
            rec.closure_nodes_base > nodes_bytes.size() ||
            nodes_len > nodes_bytes.size() - rec.closure_nodes_base) {
          return Invalid(path, "world " + std::to_string(i) +
                                   " packed closure extent exceeds its pool");
        }
        if (!IsLocalCsr(cco, cco.back()) || !IsLocalCsr(cno, cno.back())) {
          return Invalid(path, "world " + std::to_string(i) +
                                   " has invalid packed closure offsets");
        }
      }
      if (tiered) c_off_base += nc + 1;
    }
    if (tier == WorldTier::kLabels) {
      const auto loff_pool = View<uint64_t>(SectionKind::kLabelOffsets);
      const auto bounds_pool = View<uint32_t>(SectionKind::kLabelBounds);
      const auto rn_pool = View<uint32_t>(SectionKind::kLabelReachNodes);
      if (lab_off_base + nc + 1 > loff_pool.size() ||
          lab_rn_base + nc > rn_pool.size()) {
        return Invalid(path, "world " + std::to_string(i) +
                                 " label extent exceeds its pool");
      }
      const auto loff = loff_pool.subspan(lab_off_base, nc + 1);
      if (!IsLocalCsr(loff, loff.back())) {
        return Invalid(path, "world " + std::to_string(i) +
                                 " has invalid label offsets");
      }
      const uint64_t bounds_len = 2 * loff.back();
      if (lab_bounds_base + bounds_len > bounds_pool.size()) {
        return Invalid(path, "world " + std::to_string(i) +
                                 " label bounds extend past their pool");
      }
      const auto bounds = bounds_pool.subspan(lab_bounds_base, bounds_len);
      for (uint64_t c = 0; c < nc; ++c) {
        // Intervals must be ascending, disjoint (gaps >= 2: maximally
        // coalesced) and in component range — the contract every label
        // query (binary search, streaming expansion) relies on.
        uint64_t prev_hi = 0;
        for (uint64_t k = loff[c]; k < loff[c + 1]; ++k) {
          const uint32_t lo = bounds[2 * k];
          const uint32_t hi = bounds[2 * k + 1];
          if (lo > hi || hi >= nc ||
              (k > loff[c] && uint64_t{lo} < prev_hi + 2)) {
            return Invalid(path, "world " + std::to_string(i) +
                                     " has a malformed label interval");
          }
          prev_hi = hi;
        }
      }
      if (!AllBelow(rn_pool.subspan(lab_rn_base, nc), n + 1)) {
        return Invalid(path, "world " + std::to_string(i) +
                                 " label reach count exceeds the node count");
      }
      lab_off_base += nc + 1;
      lab_bounds_base += bounds_len;
      lab_rn_base += nc;
    }
  }
  if (with_closures) {
    const auto wt_last = wt[w];
    const uint64_t comps_total =
        raw_closures ? View<uint32_t>(SectionKind::kClosureComps).size()
                     : View<uint8_t>(SectionKind::kClosureCompsPacked).size();
    const uint64_t nodes_total =
        raw_closures ? View<uint32_t>(SectionKind::kClosureNodes).size()
                     : View<uint8_t>(SectionKind::kClosureNodesPacked).size();
    if (wt_last.closure_comps_base != comps_total ||
        wt_last.closure_nodes_base != nodes_total) {
      return Invalid(path,
                     "world table sentinel does not close the closure pools");
    }
    if (tiered &&
        c_off_base != Find(SectionKind::kClosureCompOffsets)->elem_count) {
      return Invalid(path,
                     "closure offset pools do not tile the materialized "
                     "worlds exactly");
    }
  }
  if (with_labels &&
      (lab_off_base != Find(SectionKind::kLabelOffsets)->elem_count ||
       lab_bounds_base != Find(SectionKind::kLabelBounds)->elem_count ||
       lab_rn_base != Find(SectionKind::kLabelReachNodes)->elem_count)) {
    return Invalid(path,
                   "label pools do not tile the labeled worlds exactly");
  }
  if (with_typical) {
    const SectionEntry* toff = Find(SectionKind::kTypicalOffsets);
    if (toff->elem_count != n + 1) {
      return Invalid(path, "typical table has " +
                               std::to_string(toff->elem_count - 1) +
                               " sets, expected one per node");
    }
    const auto offs = View<uint64_t>(SectionKind::kTypicalOffsets);
    if (packed_typical) {
      const SectionEntry* tbo = Find(SectionKind::kTypicalPackedOffsets);
      if (tbo->elem_count != n + 1) {
        return Invalid(path, "packed typical byte offsets have " +
                                 std::to_string(tbo->elem_count) +
                                 " entries, expected num_nodes + 1");
      }
      const auto bo = View<uint64_t>(SectionKind::kTypicalPackedOffsets);
      const auto bytes = View<uint8_t>(SectionKind::kTypicalPacked);
      if (!IsLocalCsr(bo, bytes.size()) || !IsLocalCsr(offs, offs.back())) {
        return Invalid(path, "packed typical table offsets are invalid");
      }
      for (uint64_t v = 0; v < n; ++v) {
        if (!ValidatePackedRun(bytes.subspan(bo[v], bo[v + 1] - bo[v]),
                               offs[v + 1] - offs[v], n)) {
          return Invalid(path, "packed typical table has a malformed run");
        }
      }
    } else {
      const auto elems = View<uint32_t>(SectionKind::kTypicalElems);
      if (!IsLocalCsr(offs, elems.size()) || !AllBelow(elems, n)) {
        return Invalid(path, "typical table offsets/elements are invalid");
      }
    }
  }
  uint32_t sketch_k = 0;
  if (with_sketches) {
    // The sketch offsets pool holds one nc + 1 table per world sharing
    // WorldRecord::offsets_base, which the world scan above proved. Here:
    // meta sane and every world's extent tiling the entries pool; each
    // world's runs are checked on first use (SketchSpreadOracle).
    if (Find(SectionKind::kSketchMeta)->elem_count != 2) {
      return Invalid(path, "sketch metadata must be exactly {k, salt}");
    }
    const auto meta = View<uint64_t>(SectionKind::kSketchMeta);
    if (meta[0] < 3 || meta[0] > 0xFFFFFFFFull) {
      return Invalid(path, "sketch k " + std::to_string(meta[0]) +
                               " out of range (must be >= 3: the 1/sqrt(k-2) "
                               "error bound is undefined below that)");
    }
    sketch_k = static_cast<uint32_t>(meta[0]);
    std::vector<uint64_t> table_start(w + 1);
    for (uint64_t i = 0; i <= w; ++i) table_start[i] = wt[i].offsets_base;
    SketchParts parts;
    parts.k = sketch_k;
    parts.offsets = View<uint64_t>(SectionKind::kSketchOffsets);
    parts.entries = View<uint64_t>(SectionKind::kSketchEntries);
    const Status extents = SketchSpreadOracle::CheckExtents(parts, table_start);
    if (!extents.ok()) return Invalid(path, extents.message());
  }

  info_.version = header_.version;
  info_.flags = header_.flags;
  info_.num_nodes = header_.num_nodes;
  info_.num_worlds = header_.num_worlds;
  info_.num_edges = header_.num_edges;
  info_.file_size = header_.file_size;
  info_.section_count = header_.section_count;
  info_.has_closures = with_closures;
  info_.has_typical = with_typical;
  info_.tiered = tiered;
  info_.has_labels = with_labels;
  info_.packed = packed_closures || packed_typical;
  info_.has_sketches = with_sketches;
  info_.sketch_k = sketch_k;
  info_.worlds_materialized =
      tiered ? n_mat : (with_closures ? header_.num_worlds : 0);
  info_.worlds_labeled = n_lab;
  info_.worlds_traversal =
      header_.num_worlds - info_.worlds_materialized - n_lab;
  info_.graph_fingerprint = header_.graph_fingerprint;
  info_.model = (header_.flags & kSnapFlagLinearThreshold) != 0
                    ? PropagationModel::kLinearThreshold
                    : PropagationModel::kIndependentCascade;
  return Status::OK();
}

ProbGraph Snapshot::MakeGraph() const {
  return ProbGraph::Borrowed(header_.num_nodes,
                             View<uint64_t>(SectionKind::kGraphOffsets),
                             View<uint32_t>(SectionKind::kGraphTargets),
                             View<double>(SectionKind::kGraphProbs),
                             View<uint32_t>(SectionKind::kGraphSources),
                             View<uint64_t>(SectionKind::kGraphRevOffsets),
                             View<uint32_t>(SectionKind::kGraphRevSources));
}

Result<CascadeIndex> Snapshot::MakeIndex() const {
  const uint64_t n = header_.num_nodes;
  const uint64_t w = header_.num_worlds;
  const bool tiered = info_.tiered;
  const bool packed = (header_.flags & kSnapFlagPackedClosures) != 0;
  const auto wt = View<WorldRecord>(SectionKind::kWorldTable);
  const auto comp_of = View<uint32_t>(SectionKind::kCompOf);
  const auto mem_off = View<uint32_t>(SectionKind::kMembersOffsets);
  const auto mem_tgt = View<uint32_t>(SectionKind::kMembersTargets);
  const auto dag_off = View<uint32_t>(SectionKind::kDagOffsets);
  const auto dag_tgt = View<uint32_t>(SectionKind::kDagTargets);
  std::vector<Condensation> worlds;
  worlds.reserve(w);
  std::vector<WorldTier> tiers;
  std::vector<ReachabilityClosure> closures;
  std::vector<ReachLabels> labels;
  if (tiered) {
    tiers.resize(w);
    if (info_.has_closures) closures.resize(w);
    if (info_.has_labels) labels.resize(w);
  } else if (info_.has_closures) {
    closures.reserve(w);
  }
  // Cumulative bases for the tiered pools, mirroring Validate()'s scan.
  uint64_t c_off_base = 0;
  uint64_t lab_off_base = 0, lab_bounds_base = 0, lab_rn_base = 0;
  for (uint64_t i = 0; i < w; ++i) {
    const WorldRecord& rec = wt[i];
    const WorldRecord& next = wt[i + 1];
    const uint64_t nc = rec.num_components;
    worlds.push_back(Condensation::Borrowed(
        comp_of.subspan(i * n, n), static_cast<uint32_t>(nc),
        mem_off.subspan(rec.offsets_base, nc + 1), mem_tgt.subspan(i * n, n),
        dag_off.subspan(rec.offsets_base, nc + 1),
        dag_tgt.subspan(rec.dag_targets_base,
                        next.dag_targets_base - rec.dag_targets_base)));
    const WorldTier tier =
        tiered ? static_cast<WorldTier>(
                     View<uint32_t>(SectionKind::kTierTable)[i])
               : (info_.has_closures ? WorldTier::kMaterialized
                                     : WorldTier::kTraversal);
    if (tiered) tiers[i] = tier;
    if (tier == WorldTier::kMaterialized) {
      const uint64_t co_base = tiered ? c_off_base : rec.offsets_base;
      const auto cco = View<uint64_t>(SectionKind::kClosureCompOffsets)
                           .subspan(co_base, nc + 1);
      const auto cno = View<uint64_t>(SectionKind::kClosureNodeOffsets)
                           .subspan(co_base, nc + 1);
      // Raw runs are borrowed as stored; packed runs are decoded into the
      // closure on first use. Either way LoadClosureRuns checks them then.
      ReachabilityClosure cl =
          packed
              ? ReachabilityClosure::BorrowedOffsets(cco, cno)
              : ReachabilityClosure::Borrowed(
                    cco,
                    View<uint32_t>(SectionKind::kClosureComps)
                        .subspan(rec.closure_comps_base,
                                 next.closure_comps_base -
                                     rec.closure_comps_base),
                    cno,
                    View<uint32_t>(SectionKind::kClosureNodes)
                        .subspan(rec.closure_nodes_base,
                                 next.closure_nodes_base -
                                     rec.closure_nodes_base));
      if (tiered) {
        closures[i] = std::move(cl);
        c_off_base += nc + 1;
      } else {
        closures.push_back(std::move(cl));
      }
    } else if (tier == WorldTier::kLabels) {
      const auto loff = View<uint64_t>(SectionKind::kLabelOffsets)
                            .subspan(lab_off_base, nc + 1);
      const uint64_t bounds_len = 2 * loff.back();
      labels[i] = ReachLabels::Borrowed(
          loff,
          View<uint32_t>(SectionKind::kLabelBounds)
              .subspan(lab_bounds_base, bounds_len),
          View<uint32_t>(SectionKind::kLabelReachNodes)
              .subspan(lab_rn_base, nc));
      lab_off_base += nc + 1;
      lab_bounds_base += bounds_len;
      lab_rn_base += nc;
    }
  }
  return CascadeIndex::FromParts(
      header_.num_nodes, std::move(worlds), std::move(closures),
      std::move(labels), std::move(tiers),
      [this](uint32_t i, ReachabilityClosure* closure) {
        return LoadClosureRuns(i, closure);
      });
}

Status Snapshot::LoadClosureRuns(uint32_t i,
                                 ReachabilityClosure* closure) const {
  const uint64_t n = header_.num_nodes;
  const uint32_t nc = closure->num_components();
  const auto wt = View<WorldRecord>(SectionKind::kWorldTable);
  const WorldRecord& rec = wt[i];
  const WorldRecord& next = wt[i + 1];
  const std::string world = "world " + std::to_string(i);
  if ((header_.flags & kSnapFlagPackedClosures) == 0) {
    if (!AllBelow(closure->comps_view(), nc) ||
        !AllBelow(closure->nodes_view(), n)) {
      return Invalid(path_, world + " closure stores an out-of-range id");
    }
    return Status::OK();
  }
  const auto comps_bytes =
      View<uint8_t>(SectionKind::kClosureCompsPacked)
          .subspan(rec.closure_comps_base,
                   next.closure_comps_base - rec.closure_comps_base);
  const auto nodes_bytes =
      View<uint8_t>(SectionKind::kClosureNodesPacked)
          .subspan(rec.closure_nodes_base,
                   next.closure_nodes_base - rec.closure_nodes_base);
  const auto co = closure->comp_offsets_view();
  const auto no = closure->node_offsets_view();
  // Every id takes at least one byte, so counts past the byte extents are
  // malformed; checking first bounds the allocation by the file.
  uint64_t used_c = 0, used_n = 0;
  bool ok = co.back() <= comps_bytes.size() && no.back() <= nodes_bytes.size();
  if (ok) {
    closure->comps.resize(co.back());
    closure->nodes.resize(no.back());
    ok = DecodePackedRuns(comps_bytes, co, nc, closure->comps.data(),
                          &used_c) &&
         DecodePackedRuns(nodes_bytes, no, n, closure->nodes.data(), &used_n);
  }
  if (!ok || used_c != comps_bytes.size() || used_n != nodes_bytes.size()) {
    closure->comps = {};
    closure->nodes = {};
    return Invalid(path_, world + (ok ? " packed closure runs do not fill "
                                        "their extent"
                                      : " has a malformed packed closure "
                                        "run"));
  }
  SOI_OBS_COUNTER_ADD("snapshot/worlds_decoded", 1);
  return Status::OK();
}

Status Snapshot::CheckAllWorlds() const {
  SOI_ASSIGN_OR_RETURN(CascadeIndex index, MakeIndex());
  SOI_RETURN_IF_ERROR(index.PrepareAllWorlds());
  if (!info_.has_sketches) return Status::OK();
  SOI_ASSIGN_OR_RETURN(SketchSpreadOracle sketches,
                       SketchSpreadOracle::FromParts(&index,
                                                     MakeSketchParts()));
  const Status checked = sketches.PrepareAllWorlds();
  return checked.ok() ? checked : Invalid(path_, checked.message());
}

FlatSets Snapshot::MakeTypical() const {
  SOI_CHECK(info_.has_typical);
  if ((header_.flags & kSnapFlagPackedTypical) != 0) {
    return FlatSets::BorrowedPacked(
        View<uint8_t>(SectionKind::kTypicalPacked),
        View<uint64_t>(SectionKind::kTypicalPackedOffsets),
        View<uint64_t>(SectionKind::kTypicalOffsets));
  }
  return FlatSets::Borrowed(View<uint32_t>(SectionKind::kTypicalElems),
                            View<uint64_t>(SectionKind::kTypicalOffsets));
}

SketchParts Snapshot::MakeSketchParts() const {
  SOI_CHECK(info_.has_sketches);
  const auto meta = View<uint64_t>(SectionKind::kSketchMeta);
  SketchParts parts;
  parts.k = static_cast<uint32_t>(meta[0]);
  parts.salt = meta[1];
  parts.offsets = View<uint64_t>(SectionKind::kSketchOffsets);
  parts.entries = View<uint64_t>(SectionKind::kSketchEntries);
  return parts;
}

Status CheckSnapshotFreshness(const SnapshotInfo& info,
                              const ProbGraph& graph) {
  if (info.graph_fingerprint == 0) return Status::OK();  // pre-fingerprint
  const uint64_t actual = GraphFingerprint(graph);
  if (actual == info.graph_fingerprint) return Status::OK();
  char snap_hex[32], graph_hex[32];
  std::snprintf(snap_hex, sizeof(snap_hex), "%016llx",
                static_cast<unsigned long long>(info.graph_fingerprint));
  std::snprintf(graph_hex, sizeof(graph_hex), "%016llx",
                static_cast<unsigned long long>(actual));
  return Status::InvalidArgument(
      std::string("stale snapshot: it captured a graph with fingerprint ") +
      snap_hex + " but the supplied graph fingerprints to " + graph_hex +
      " (the graph changed after the snapshot was written); re-create the "
      "snapshot from the current graph, or drop --graph to serve the "
      "snapshot's own state");
}

}  // namespace soi
