#ifndef SOI_SNAPSHOT_FORMAT_H_
#define SOI_SNAPSHOT_FORMAT_H_

#include <cstdint>

namespace soi {

/// On-disk layout of `soi-snap-v1`: a versioned, checksummed, 64-byte-
/// aligned binary container holding the *entire* serving state — graph CSR
/// + probabilities, per-world SCC condensations, the materialized closure
/// cache, and the typical-cascade table — as offset-addressed sections a
/// server can mmap read-only and query with zero parse and zero copy.
/// DESIGN.md §12 is the normative spec; this header is its code mirror.
///
/// File shape:
///
///   [SnapshotHeader, 64 B]
///   [SectionEntry × section_count]
///   (padding to 64-byte boundary)
///   [section payloads, each 64-byte aligned, in ascending offset order]
///
/// All integers are little-endian; `endian_tag` lets a big-endian reader
/// fail loudly instead of misreading. Every section carries a CRC-32C;
/// `header_crc32c` covers the header itself (with that field zeroed) and
/// the whole section table, so `snapshot verify` detects torn writes
/// anywhere in the file.
///
/// Versioning/compatibility rules (DESIGN §12.4):
///  - `version` is split major | minor << 16. The major bumps on any
///    incompatible layout change; readers reject majors they don't know
///    (future major => actionable error, never a guess). The minor records
///    additive evolution (new optional sections/flags): readers accept any
///    minor of a known major, because a file is self-describing through its
///    flags — a reader meeting a flag bit it cannot interpret still refuses
///    the file.
///  - `flags` declares which optional payloads are present (closures,
///    labels, tier table, typical table), how they are encoded (raw vs
///    delta-varint packed) and which model sampled the worlds. Unknown flag
///    bits are "foreign": a reader that doesn't understand a bit must
///    refuse the file rather than silently ignore state it can't interpret.
///  - Unknown *section kinds* are tolerated on read (skipped); adding a new
///    optional section is a compatible change as long as no new flag bit is
///    required to interpret the old ones.

/// "SOISNAP1" — 8 bytes, doubles as a version-0-proof magic.
inline constexpr char kSnapshotMagic[8] = {'S', 'O', 'I', 'S',
                                           'N', 'A', 'P', '1'};
inline constexpr uint32_t kSnapshotVersionMajor = 1;
/// Minor 1 added the tiered / packed sections (kinds 19-26) and their flag
/// bits. Minor 2 added the bottom-k sketch tier (kinds 27-29,
/// kSnapFlagSketches). Minor-0/1 files remain fully readable.
inline constexpr uint32_t kSnapshotVersionMinor = 2;
inline constexpr uint32_t kSnapshotVersion =
    kSnapshotVersionMajor | (kSnapshotVersionMinor << 16);
/// Written as the literal 0x01020304; reads back as 0x04030201 on a
/// big-endian machine.
inline constexpr uint32_t kSnapshotEndianTag = 0x01020304u;
/// Every section payload starts on a multiple of this (cache-line and
/// alignof-friendly for every element type we store; keeps mmap'd spans
/// naturally aligned).
inline constexpr uint64_t kSnapshotAlign = 64;

/// Capability flags (SnapshotHeader::flags).
enum SnapshotFlags : uint64_t {
  /// Raw closure sections present (kinds 13-16): materialized per-world
  /// reachability closures stored as plain u32 arrays (read, never
  /// rebuilt). Without kSnapFlagTiered the pools cover every world; with it
  /// they cover exactly the kMaterialized worlds.
  kSnapFlagClosures = 1ull << 0,
  /// Typical-cascade table sections present.
  kSnapFlagTypical = 1ull << 1,
  /// Worlds were sampled under Linear Threshold (absent => Independent
  /// Cascade). Interpretation flag: spread semantics depend on the model.
  kSnapFlagLinearThreshold = 1ull << 2,
  /// Per-world tier table present (kind 19): worlds carry heterogeneous
  /// reachability state (index/cascade_index.h WorldTier). Closure/label
  /// pools then hold slices only for the worlds whose tier needs them.
  kSnapFlagTiered = 1ull << 3,
  /// Interval-label sections present (kinds 22-24) for the kLabels-tier
  /// worlds. Requires kSnapFlagTiered.
  kSnapFlagLabels = 1ull << 4,
  /// Closures are stored delta-varint packed (kinds 20/21 replace 14/16;
  /// the element-offset pools 13/15 stay, they carry the run lengths).
  /// Mutually exclusive with kSnapFlagClosures; requires kSnapFlagTiered.
  kSnapFlagPackedClosures = 1ull << 5,
  /// Typical elements are stored delta-varint packed (kinds 25/26 replace
  /// 18; the element-offset section 17 stays). Requires kSnapFlagTypical.
  kSnapFlagPackedTypical = 1ull << 6,
  /// Bottom-k sketch tier present (kinds 27-29): per-(world, component)
  /// combined reachability sketches for the approximate serving tier
  /// (infmax/sketch_oracle.h). `serve --snapshot` answers accuracy=sketch
  /// queries straight from these sections — no rebuild.
  kSnapFlagSketches = 1ull << 7,
};
inline constexpr uint64_t kSnapshotKnownFlags =
    kSnapFlagClosures | kSnapFlagTypical | kSnapFlagLinearThreshold |
    kSnapFlagTiered | kSnapFlagLabels | kSnapFlagPackedClosures |
    kSnapFlagPackedTypical | kSnapFlagSketches;

/// Section kinds. Element types and counts are normative (validated on
/// load); offsets within pooled sections are *local* per world (start at
/// 0), so borrowed spans slice directly out of the pools.
enum class SectionKind : uint32_t {
  // Graph CSR (n = num_nodes, m = num_edges).
  kGraphOffsets = 1,      // u64[n + 1]
  kGraphTargets = 2,      // u32[m]
  kGraphProbs = 3,        // f64[m]
  kGraphSources = 4,      // u32[m]
  kGraphRevOffsets = 5,   // u64[n + 1]
  kGraphRevSources = 6,   // u32[m]
  // Per-world condensations (w = num_worlds). WorldRecord[w + 1]; the last
  // record is an end sentinel so per-world extents are CSR-style
  // subtractions.
  kWorldTable = 7,        // WorldRecord[w + 1]
  kCompOf = 8,            // u32[w * n], world-major
  kMembersOffsets = 9,    // u32 pool: per world, num_components + 1 entries
  kMembersTargets = 10,   // u32[w * n]
  kDagOffsets = 11,       // u32 pool: per world, num_components + 1 entries
  kDagTargets = 12,       // u32 pool: per world, num_dag_edges entries
  // Closure cache. The element-offset pools 13/15 are present whenever any
  // world carries a materialized closure (raw or packed — packed decoding
  // needs the run lengths and NodeCount queries need the prefix sums); the
  // raw element pools 14/16 only under kSnapFlagClosures. Under
  // kSnapFlagTiered all four hold slices only for the kMaterialized worlds,
  // in world order.
  kClosureCompOffsets = 13,  // u64 pool: per world, num_components + 1
  kClosureComps = 14,        // u32 pool
  kClosureNodeOffsets = 15,  // u64 pool: per world, num_components + 1
  kClosureNodes = 16,        // u32 pool
  // Typical-cascade table (present iff kSnapFlagTypical). kTypicalOffsets
  // counts elements in both encodings; kTypicalElems only without
  // kSnapFlagPackedTypical.
  kTypicalOffsets = 17,   // u64[n + 1]
  kTypicalElems = 18,     // u32
  // v1.1 tiered / packed sections (DESIGN §14). Pool slices are per
  // *qualifying* world in world order; per-world bases are recovered by one
  // cumulative scan over the tier table + world table (WorldRecord's layout
  // is frozen), except the packed byte pools 20/21 whose per-world bases
  // reuse the WorldRecord closure base fields as *byte* bases. No
  // per-component byte offsets are stored: runs are self-delimiting given
  // their element counts (pools 13/15), and a world's packed closure is
  // decoded sequentially, whole, by its first use (one checked pass; see
  // reader.h kStructural), never randomly accessed.
  kTierTable = 19,           // u32[w], WorldTier values (0/1/2)
  kClosureCompsPacked = 20,  // u8 pool: delta-varint closure runs,
                             //   back-to-back in component order
  kClosureNodesPacked = 21,  // u8 pool: delta-varint cascade runs
  // Interval labels (scc/labels.h) for the kLabels-tier worlds, raw — they
  // are already succinct, and raw keeps them zero-copy at load.
  kLabelOffsets = 22,     // u64 pool: per kLabels world, num_components + 1
                          //   (interval units)
  kLabelBounds = 23,      // u32 pool: 2 per interval ([lo, hi] inclusive)
  kLabelReachNodes = 24,  // u32 pool: per kLabels world, num_components
  // Packed typical table (present iff kSnapFlagPackedTypical). Typical sets
  // *are* randomly accessed (CoverEngine), hence the explicit byte offsets.
  kTypicalPacked = 25,         // u8: delta-varint typical sets
  kTypicalPackedOffsets = 26,  // u64[n + 1] byte offsets
  // v1.2 bottom-k sketch tier (present iff kSnapFlagSketches). The offsets
  // pool holds one (num_components + 1)-entry table per world — every world
  // qualifies, so its per-world bases are WorldRecord::offsets_base, shared
  // with kMembersOffsets/kDagOffsets — with entries *absolute* into the
  // entries pool (sketches are written in one pass across worlds, so the
  // pool is globally non-decreasing). Each sketch run holds at most k
  // strictly increasing 64-bit ranks.
  kSketchMeta = 27,     // u64[2]: sketch k, rank salt
  kSketchOffsets = 28,  // u64 pool: per world, num_components + 1 entries
  kSketchEntries = 29,  // u64 pool: sorted rank runs, back-to-back
};

/// Fixed 64-byte file header.
struct SnapshotHeader {
  char magic[8];          // kSnapshotMagic
  uint32_t version;       // kSnapshotVersion
  uint32_t endian_tag;    // kSnapshotEndianTag
  uint64_t file_size;     // total bytes; rejects truncation up front
  uint64_t flags;         // SnapshotFlags capability bits
  uint32_t num_nodes;
  uint32_t num_worlds;
  uint64_t num_edges;
  uint32_t section_count;
  uint32_t header_crc32c;  // CRC-32C of header (this field zeroed) +
                           // section table
  /// GraphFingerprint (graph/prob_graph.h) of the graph whose serving state
  /// this file captured — the stale-snapshot guard: a loader given both the
  /// snapshot and a graph file can prove they describe the same edges and
  /// probabilities instead of silently serving outdated state. 0 means the
  /// file predates fingerprinting (this slot was a zeroed `reserved` field,
  /// so legacy files read back as "fingerprint unknown" and are accepted).
  uint64_t graph_fingerprint;
};
static_assert(sizeof(SnapshotHeader) == 64, "header must stay 64 bytes");

/// One section-table row (40 bytes).
struct SectionEntry {
  uint32_t kind;       // SectionKind
  uint32_t elem_size;  // bytes per element (4 or 8); sanity-checks readers
  uint64_t offset;     // absolute file offset, kSnapshotAlign-aligned
  uint64_t byte_size;  // payload bytes == elem_size * elem_count
  uint64_t elem_count;
  uint32_t crc32c;     // CRC-32C of the payload bytes
  uint32_t reserved;   // zero
};
static_assert(sizeof(SectionEntry) == 40, "section entry must stay 40 bytes");

/// Per-world directory row inside kWorldTable (40 bytes). Bases are element
/// indexes (not bytes) into the pooled sections; stored as w + 1 records
/// where record[w] is the end sentinel, so world i's extent in pool P is
/// [rec[i].P_base, rec[i+1].P_base).
///
/// Under kSnapFlagTiered, `offsets_base` no longer indexes the closure
/// offset pools (those cover only the kMaterialized worlds; their per-world
/// bases are a cumulative scan), and under kSnapFlagPackedClosures the two
/// closure bases are *byte* bases into the packed pools 20/22. Either way a
/// world whose tier retains no closure has a zero-length closure extent.
struct WorldRecord {
  uint32_t num_components;
  uint32_t reserved;          // zero
  uint64_t offsets_base;      // into kMembersOffsets AND kDagOffsets (and,
                              // without kSnapFlagTiered, the closure offset
                              // pools — all share the per-world length
                              // num_components + 1)
  uint64_t dag_targets_base;  // into kDagTargets
  uint64_t closure_comps_base;  // into kClosureComps, or (packed) byte
                                // base into kClosureCompsPacked
  uint64_t closure_nodes_base;  // into kClosureNodes, or (packed) byte
                                // base into kClosureNodesPacked
};
static_assert(sizeof(WorldRecord) == 40, "world record must stay 40 bytes");

}  // namespace soi

#endif  // SOI_SNAPSHOT_FORMAT_H_
