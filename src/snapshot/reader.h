#ifndef SOI_SNAPSHOT_READER_H_
#define SOI_SNAPSHOT_READER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "graph/prob_graph.h"
#include "index/cascade_index.h"
#include "infmax/sketch_oracle.h"
#include "snapshot/format.h"
#include "util/flat_sets.h"
#include "util/status.h"

namespace soi {

/// How much of the file Open() checks before handing out views.
enum class SnapshotValidation {
  /// The checks every query needs, and no more: header + section-table CRC,
  /// flags, layout and length consistency, the tier table and world-table
  /// extents, the graph CSR and the typical table, each world's
  /// condensation (offsets and id ranges: every module reads ComponentOf),
  /// the closure offset pools, the label pools, and the sketch pool's
  /// per-world extents. What stays is per world and checked on the world's
  /// first use: its closure runs (one checked decode when packed, an id
  /// range scan when raw; CascadeIndex::PrepareWorld) and its sketch runs
  /// (SketchSpreadOracle::PrepareWorld). A world that fails then answers
  /// InvalidArgument to every query that needs it, and the others keep
  /// serving. So Open is cheap — about the condensation id scans — and no
  /// query ever reads out of bounds. The serving default.
  kStructural,
  /// kStructural plus per-section CRC-32C payload verification (detects
  /// silent bit rot, not just torn/truncated writes), plus every world's
  /// first-use checks up front — the same checks, run once each. What
  /// `snapshot verify` runs.
  kFull,
};

/// Header facts surfaced without assembling any views (`snapshot info`).
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t flags = 0;
  uint32_t num_nodes = 0;
  uint32_t num_worlds = 0;
  uint64_t num_edges = 0;
  uint64_t file_size = 0;
  uint32_t section_count = 0;
  /// Any materialized closures present (raw or packed); without `tiered`
  /// they cover every world.
  bool has_closures = false;
  bool has_typical = false;
  /// Per-world tier table present (v1.1 mixed-tier serving state).
  bool tiered = false;
  /// Interval-label sections present for the kLabels-tier worlds.
  bool has_labels = false;
  /// Closure / typical payloads are delta-varint packed.
  bool packed = false;
  /// Bottom-k sketch tier sections present (minor-2, kinds 27-29).
  bool has_sketches = false;
  /// Sketch size k when has_sketches (relative error ~ 1/sqrt(k-2)).
  uint32_t sketch_k = 0;
  /// Tier census (sums to num_worlds).
  uint32_t worlds_materialized = 0;
  uint32_t worlds_labeled = 0;
  uint32_t worlds_traversal = 0;
  PropagationModel model = PropagationModel::kIndependentCascade;
  /// GraphFingerprint of the graph captured in this file; 0 = written
  /// before fingerprinting existed (unknown, accepted as-is). See
  /// CheckSnapshotFreshness.
  uint64_t graph_fingerprint = 0;
};

/// A read-only mmap'd `soi-snap-v1` file (snapshot/format.h). Open()
/// validates untrusted bytes (never CHECK/aborts on them) and returns a
/// shared handle; Make*() assemble zero-copy borrowed views into the
/// mapping — loading is pointer fixup, the reachability cache is *read*,
/// never rebuilt, and the mapping is physically shared with every other
/// process serving the same file (page cache, PROT_READ). Open and Make*
/// cost O(worlds) bookkeeping plus the condensation scans; the per-world
/// closure and sketch runs are checked on first use (see kStructural). The
/// one copy: a delta-varint packed world (kSnapFlagPackedClosures) has its
/// runs decoded into owned arrays by that first-use pass, once per world,
/// while its offsets stay borrowed; labels and packed typical tables stay
/// zero-copy.
///
/// Lifetime: every borrowed view is valid only while the Snapshot lives.
/// service::Engine keeps the handle alive via its opaque storage anchor
/// (EngineParts::storage), so the hot-swap path retires a mapping only
/// after in-flight queries drain.
class Snapshot {
 public:
  static Result<std::shared_ptr<const Snapshot>> Open(
      const std::string& path,
      SnapshotValidation validation = SnapshotValidation::kStructural);

  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  const SnapshotInfo& info() const { return info_; }

  /// The graph as borrowed CSR views into the mapping.
  ProbGraph MakeGraph() const;

  /// The cascade index as borrowed condensations (+ borrowed closures when
  /// the snapshot carries them) — O(num_worlds) bookkeeping, no sampling,
  /// no SCC runs, no closure sweep. Materialized worlds start unprepared:
  /// size queries answer from the closure offsets at once, and a world's
  /// runs are checked (and decoded) on its first CascadeIndex::PrepareWorld.
  /// The index calls back into this Snapshot, which must outlive it.
  Result<CascadeIndex> MakeIndex() const;

  /// The typical-cascade table, if present (info().has_typical).
  FlatSets MakeTypical() const;

  /// The sketch tier as borrowed spans into the mapping, if present
  /// (info().has_sketches). Feed to SketchSpreadOracle::FromParts with the
  /// index from MakeIndex(); the parts stay valid while the Snapshot lives.
  SketchParts MakeSketchParts() const;

 private:
  Snapshot() = default;

  Status Validate(const std::string& path, SnapshotValidation validation);
  // World i's first-use closure check (MakeIndex's loader): a raw world's
  // id range scan, or a packed world's one checked decode into `closure`.
  Status LoadClosureRuns(uint32_t i, ReachabilityClosure* closure) const;
  // Every world's first-use checks, closures then sketches (Open(kFull)).
  Status CheckAllWorlds() const;

  const SectionEntry* Find(SectionKind kind) const;
  template <typename T>
  std::span<const T> View(SectionKind kind) const;

  void* map_ = nullptr;
  uint64_t map_size_ = 0;
  std::string path_;  // names the file in first-use errors
  SnapshotHeader header_{};
  // Section directory indexed by kind; unknown kinds in the file are
  // skipped (forward-compatible: new optional sections don't break old
  // readers).
  const SectionEntry* sections_[32] = {};
  SnapshotInfo info_;
};

/// Stale-snapshot guard: proves that `graph` is the graph this snapshot
/// captured by comparing GraphFingerprint(graph) against the fingerprint
/// recorded at write time. InvalidArgument (naming both fingerprints, with
/// the fix spelled out) when they differ — serving a snapshot against a
/// graph that has since changed silently answers queries about edges that
/// no longer exist. A recorded fingerprint of 0 means the file predates
/// fingerprinting; freshness is then unknowable and the check passes.
Status CheckSnapshotFreshness(const SnapshotInfo& info,
                              const ProbGraph& graph);

}  // namespace soi

#endif  // SOI_SNAPSHOT_READER_H_
