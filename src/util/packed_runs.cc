#include "util/packed_runs.h"

#include <algorithm>

namespace soi {

void AppendPackedRun(std::span<const uint32_t> run,
                     std::vector<uint8_t>* out) {
  if (run.empty()) return;
  AppendVarint(run[0], out);
  for (size_t i = 1; i < run.size(); ++i) {
    SOI_DCHECK(run[i] > run[i - 1]);
    AppendVarint(run[i] - run[i - 1] - 1, out);
  }
}

namespace {

// The one varint-run reader: decodes `elem_count` values from the head of
// [*pos, end), handing each to `emit`, and fails on a truncated or
// oversized varint or a value outside [0, id_bound) (or past uint32). On
// success *pos is just past the run.
template <typename Emit>
bool ReadRun(const uint8_t** pos, const uint8_t* end, uint64_t elem_count,
             uint64_t id_bound, Emit&& emit) {
  // Past uint32 is malformed whatever the caller's universe (the cursor
  // decodes into uint32).
  const uint64_t bound = std::min<uint64_t>(id_bound, uint64_t{1} << 32);
  const uint8_t* p = *pos;
  // The first value is stored absolute and the others as (gap - 1), so
  // both are `next + delta` with `next` the least value still allowed.
  uint64_t next = 0;
  for (uint64_t k = 0; k < elem_count; ++k) {
    if (p == end) return false;  // truncated
    uint64_t delta = *p++;
    if (delta & 0x80) {  // multi-byte varint; most gaps fit one byte
      delta &= 0x7F;
      uint32_t shift = 7;
      uint8_t byte;
      do {
        if (p == end || shift > 28) return false;  // truncated / oversized
        byte = *p++;
        delta |= static_cast<uint64_t>(byte & 0x7F) << shift;
        shift += 7;
      } while (byte & 0x80);
    }
    const uint64_t value = next + delta;
    if (value >= bound) return false;
    emit(static_cast<uint32_t>(value));
    next = value + 1;
  }
  *pos = p;
  return true;
}

}  // namespace

bool DecodePackedRuns(std::span<const uint8_t> bytes,
                      std::span<const uint64_t> offsets, uint64_t id_bound,
                      uint32_t* out, uint64_t* consumed) {
  const uint8_t* pos = bytes.data();
  const uint8_t* const end = pos + bytes.size();
  for (size_t r = 0; r + 1 < offsets.size(); ++r) {
    uint32_t* w = out + offsets[r];
    if (!ReadRun(&pos, end, offsets[r + 1] - offsets[r], id_bound,
                 [&w](uint32_t v) { *w++ = v; })) {
      return false;
    }
  }
  *consumed = static_cast<uint64_t>(pos - bytes.data());
  return true;
}

bool ValidatePackedRun(std::span<const uint8_t> bytes, uint64_t elem_count,
                       uint64_t id_bound) {
  const uint8_t* pos = bytes.data();
  const uint8_t* const end = pos + bytes.size();
  return ReadRun(&pos, end, elem_count, id_bound, [](uint32_t) {}) &&
         pos == end;  // extent must be consumed exactly
}

}  // namespace soi
