#ifndef SOI_SNAPSHOT_WRITER_H_
#define SOI_SNAPSHOT_WRITER_H_

#include <string>

#include "graph/prob_graph.h"
#include "index/cascade_index.h"
#include "util/flat_sets.h"
#include "util/status.h"

namespace soi {

class SketchSpreadOracle;

/// What goes into a snapshot beyond the mandatory graph + condensations.
struct SnapshotWriteOptions {
  /// Recorded as a capability flag (spread semantics depend on the model;
  /// `snapshot info` reports it). Not derivable from the index: the worlds
  /// are already sampled.
  PropagationModel model = PropagationModel::kIndependentCascade;
  /// Typical-cascade table (ComputeAllFlat().cascades; exactly num_nodes
  /// sets) — serving it from the snapshot means seed_select queries skip
  /// the full typical sweep too. Null omits the sections. Either encoding
  /// (raw or packed) is accepted; the writer re-encodes as `pack` dictates.
  const FlatSets* typical = nullptr;
  /// Store closure runs and typical sets delta-varint packed
  /// (util/packed_runs.h) — typically ~4x smaller sections, at the cost of
  /// one linear decode of the materialized closures at load time (interval
  /// labels and the packed typical table stay zero-copy). false writes the
  /// v1.0 raw layout when the index tiering allows it (all worlds
  /// materialized, or none retained).
  bool pack = true;
  /// Bottom-k sketch tier built over the same index (infmax/sketch_oracle.h)
  /// — persisted as the minor-2 sketch sections so `serve --snapshot` can
  /// route approximate queries without rebuilding sketches. Null omits the
  /// sections. Must have been built over the index being serialized.
  const SketchSpreadOracle* sketches = nullptr;
};

/// Serializes the full serving state into one `soi-snap-v1` container (see
/// snapshot/format.h): graph + index, the index's retained reachability
/// state (materialized closures, interval labels and the per-world tier
/// assignment — the tiering round-trips exactly), and optionally the
/// typical-cascade table.
///
/// The writer works from the mode-independent span accessors, so it can
/// round-trip a snapshot-backed (borrowed) state as well as an owned one.
/// Nothing is copied into pools: each pooled section is staged as the list
/// of its worlds' arrays. Only the packed closure pools are built, sized
/// exactly per world first and then encoded world by world into their own
/// slices on the thread budget (runtime/parallel_for.h), as are the section
/// checksums. The bytes do not depend on the thread budget. The returned
/// string is reserved at the file size once.
Result<std::string> SerializeSnapshot(const ProbGraph& graph,
                                      const CascadeIndex& index,
                                      const SnapshotWriteOptions& options = {});

/// Serializes and writes atomically and durably: the bytes go to
/// `path + ".tmp"` (a leftover one from a killed writer is overwritten) in
/// large writev calls straight from the staged arrays, resuming after short
/// writes and EINTR; the temp file is fsync'ed, renamed over `path`, and
/// the directory fsync'ed. So a crashed create never leaves a half-written
/// snapshot at the target path, a concurrent server hot-reloading the path
/// never maps a torn file, and a returned OK survives power loss. Invalid
/// inputs fail before any file is created; a failed write or file sync
/// removes the temp file, leaves `path` as it was and returns IOError.
Status WriteSnapshot(const ProbGraph& graph, const CascadeIndex& index,
                     const std::string& path,
                     const SnapshotWriteOptions& options = {});

}  // namespace soi

#endif  // SOI_SNAPSHOT_WRITER_H_
