#ifndef SOI_UTIL_PACKED_RUNS_H_
#define SOI_UTIL_PACKED_RUNS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace soi {

/// Delta-varint encoding for strictly ascending uint32 runs — the compressed
/// sibling of the raw CSR arenas (util/flat_sets.h, scc/closure.h). A run
/// [v0, v1, ..., vk] is stored as
///
///   varint(v0), varint(v1 - v0 - 1), ..., varint(vk - v(k-1) - 1)
///
/// (LEB128, 7 bits per byte). Sorted member-id runs are dominated by small
/// gaps, so dense cascade runs land near 1 byte/element instead of 4 — the
/// encoding behind the packed snapshot sections and the packed FlatSets
/// mode. Decoding is a sequential cursor; there is deliberately no random
/// access inside a run (consumers either stream or decode into scratch).
///
/// Storage is dual-mode like every other arena in the tree: a
/// default-constructed PackedRuns owns its byte buffer and supports AddRun;
/// Borrowed() wraps spans into an external read-only mapping (snapshot
/// sections) with zero copy.

/// Appends the delta-varint encoding of a strictly ascending run.
void AppendPackedRun(std::span<const uint32_t> run, std::vector<uint8_t>* out);

/// Encoded length of back-to-back strictly ascending runs — run r is
/// values[offsets[r], offsets[r + 1]), with offsets non-decreasing from 0
/// to values.size() — as EncodePackedRuns writes them.
/// One branch-free pass over all the values (run starts are fixed up
/// after), so it vectorizes and short runs cost no call each: sizing a
/// buffer costs a fraction of filling it.
uint64_t PackedRunsSize(std::span<const uint32_t> values,
                        std::span<const uint64_t> offsets);

/// Writes back-to-back runs, each encoded as AppendPackedRun would, at
/// `out`, which must hold PackedRunsSize(values, offsets) bytes; returns
/// the end. Never writes past it, so disjoint slices of one buffer can be
/// filled concurrently (snapshot/writer.cc encodes each world into its own
/// slice). DecodePackedRuns is the inverse.
uint8_t* EncodePackedRuns(std::span<const uint32_t> values,
                          std::span<const uint64_t> offsets, uint8_t* out);

/// Sequential decoder over one encoded run. The caller supplies the element
/// count (packed storage keeps element offsets separately — e.g. the closure
/// node_offsets pool — so counts are never re-derived from the bytes).
class PackedRunCursor {
 public:
  PackedRunCursor() = default;
  PackedRunCursor(const uint8_t* pos, uint64_t remaining)
      : pos_(pos), remaining_(remaining) {}

  uint64_t remaining() const { return remaining_; }
  bool Done() const { return remaining_ == 0; }

  /// Next element of the run. Precondition (debug-checked): !Done().
  uint32_t Next() {
    SOI_DCHECK(remaining_ > 0);
    uint32_t delta = 0;
    uint32_t shift = 0;
    uint8_t byte;
    do {
      byte = *pos_++;
      delta |= static_cast<uint32_t>(byte & 0x7F) << shift;
      shift += 7;
    } while (byte & 0x80);
    // First element is absolute; subsequent ones store (gap - 1).
    prev_ = first_ ? delta : prev_ + delta + 1;
    first_ = false;
    --remaining_;
    return prev_;
  }

  /// Appends the rest of the run to *out.
  void AppendTo(std::vector<uint32_t>* out) {
    out->reserve(out->size() + remaining_);
    while (!Done()) out->push_back(Next());
  }

 private:
  const uint8_t* pos_ = nullptr;
  uint64_t remaining_ = 0;
  uint32_t prev_ = 0;
  bool first_ = true;
};

/// A CSR-style arena of packed runs: one byte buffer plus byte offsets and
/// element counts per run.
class PackedRuns {
 public:
  PackedRuns() : byte_offsets_(1, 0), elem_offsets_(1, 0) {}

  /// Wraps pre-built arrays without copying (snapshot load path). Both
  /// offset spans have num_runs + 1 entries, start at 0 and end at the
  /// byte/element totals; the loader validates before assembling.
  static PackedRuns Borrowed(std::span<const uint8_t> bytes,
                             std::span<const uint64_t> byte_offsets,
                             std::span<const uint64_t> elem_offsets) {
    PackedRuns out;
    out.borrowed_ = true;
    out.byte_offsets_.clear();
    out.elem_offsets_.clear();
    out.b_bytes_ = bytes;
    out.b_byte_offsets_ = byte_offsets;
    out.b_elem_offsets_ = elem_offsets;
    return out;
  }

  bool borrowed() const { return borrowed_; }

  size_t num_runs() const { return byte_offsets().size() - 1; }
  uint64_t total_elements() const { return elem_offsets().back(); }
  uint64_t total_bytes() const { return bytes().size(); }

  /// Splices every run of `other` onto this arena byte-for-byte — the
  /// delta-varint encoding is position-independent, so no re-encode.
  void Append(const PackedRuns& other) {
    SOI_DCHECK(!borrowed_);
    const uint64_t byte_base = byte_offsets_.back();
    const uint64_t elem_base = elem_offsets_.back();
    const auto ob = other.bytes();
    bytes_.insert(bytes_.end(), ob.begin(), ob.end());
    const auto obo = other.byte_offsets();
    const auto oeo = other.elem_offsets();
    byte_offsets_.reserve(byte_offsets_.size() + other.num_runs());
    elem_offsets_.reserve(elem_offsets_.size() + other.num_runs());
    for (size_t i = 1; i < obo.size(); ++i) {
      byte_offsets_.push_back(byte_base + obo[i]);
      elem_offsets_.push_back(elem_base + oeo[i]);
    }
  }

  /// Appends one strictly ascending run.
  void AddRun(std::span<const uint32_t> run) {
    SOI_DCHECK(!borrowed_);
    AppendPackedRun(run, &bytes_);
    byte_offsets_.push_back(bytes_.size());
    elem_offsets_.push_back(elem_offsets_.back() + run.size());
  }

  uint64_t RunLength(size_t i) const {
    const auto eo = elem_offsets();
    SOI_DCHECK(i + 1 < eo.size());
    return eo[i + 1] - eo[i];
  }

  PackedRunCursor Run(size_t i) const {
    const auto bo = byte_offsets();
    SOI_DCHECK(i + 1 < bo.size());
    return PackedRunCursor(bytes().data() + bo[i], RunLength(i));
  }

  /// Appends run i, decoded, to *out.
  void AppendRun(size_t i, std::vector<uint32_t>* out) const {
    PackedRunCursor c = Run(i);
    c.AppendTo(out);
  }

  /// Heap/mapped footprint of the arena.
  uint64_t ApproxBytes() const {
    return bytes().size() + 8ull * byte_offsets().size() +
           8ull * elem_offsets().size();
  }

  std::span<const uint8_t> bytes() const {
    return borrowed_ ? b_bytes_ : std::span<const uint8_t>(bytes_);
  }
  std::span<const uint64_t> byte_offsets() const {
    return borrowed_ ? b_byte_offsets_
                     : std::span<const uint64_t>(byte_offsets_);
  }
  std::span<const uint64_t> elem_offsets() const {
    return borrowed_ ? b_elem_offsets_
                     : std::span<const uint64_t>(elem_offsets_);
  }

 private:
  std::vector<uint8_t> bytes_;
  std::vector<uint64_t> byte_offsets_;  // byte_offsets_[0] == 0
  std::vector<uint64_t> elem_offsets_;  // elem_offsets_[0] == 0

  bool borrowed_ = false;
  std::span<const uint8_t> b_bytes_;
  std::span<const uint64_t> b_byte_offsets_;
  std::span<const uint64_t> b_elem_offsets_;
};

/// Validates one encoded run without materializing it: every varint must be
/// well-formed and in-bounds, the byte extent must be consumed exactly, the
/// decoded values strictly ascending and < `id_bound`. This is what snapshot
/// validation runs over packed sections, so query-time cursors can trust the
/// bytes.
bool ValidatePackedRun(std::span<const uint8_t> bytes, uint64_t elem_count,
                       uint64_t id_bound);

/// Checked decode of back-to-back runs (the packed closure pools; no
/// per-run byte offsets are stored): run r holds offsets[r + 1] -
/// offsets[r] values and decodes to out[offsets[r], offsets[r + 1]). Checks
/// what ValidatePackedRun checks, run by run, in the same pass that
/// decodes, except that the runs need not consume `bytes` exactly: on
/// success *consumed is the encoded length of all runs. `offsets` must be
/// non-decreasing from 0 and `out` must hold offsets.back() values
/// (caller-checked). On failure `out` holds a partial decode.
bool DecodePackedRuns(std::span<const uint8_t> bytes,
                      std::span<const uint64_t> offsets, uint64_t id_bound,
                      uint32_t* out, uint64_t* consumed);

}  // namespace soi

#endif  // SOI_UTIL_PACKED_RUNS_H_
