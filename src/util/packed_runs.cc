#include "util/packed_runs.h"

#include <algorithm>

namespace soi {

namespace {

// Bytes past the first in v's LEB128 encoding (0-4): one compare per 7-bit
// group, no branch.
inline uint32_t VarintExtraBytes(uint32_t v) {
  return static_cast<uint32_t>(v > 0x7Fu) + (v > 0x3FFFu) +
         (v > 0x1FFFFFu) + (v > 0xFFFFFFFu);
}

inline uint8_t* PutVarint(uint32_t v, uint8_t* out) {
  while (v >= 0x80) {
    *out++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<uint8_t>(v);
  return out;
}

}  // namespace

void AppendPackedRun(std::span<const uint32_t> run,
                     std::vector<uint8_t>* out) {
  const uint64_t offsets[2] = {0, run.size()};
  const size_t at = out->size();
  out->resize(at + PackedRunsSize(run, offsets));
  EncodePackedRuns(run, offsets, out->data() + at);
}

uint64_t PackedRunsSize(std::span<const uint32_t> values,
                        std::span<const uint64_t> offsets) {
  SOI_DCHECK(!offsets.empty() && offsets.front() == 0 &&
             offsets.back() == values.size());
  if (values.empty()) return 0;
  // One byte per value, plus the extra bytes of every value taken as a gap
  // from its predecessor, run boundaries included. The inner sum stays in
  // 32 bits (at most 4 per value) so the loop vectorizes without widening.
  uint64_t size = values.size() + VarintExtraBytes(values[0]);
  constexpr size_t kBlock = size_t{1} << 28;
  for (size_t i = 1; i < values.size();) {
    const size_t block_end = std::min(values.size(), i + kBlock);
    uint32_t extra = 0;
    for (; i < block_end; ++i) {
      extra += VarintExtraBytes(values[i] - values[i - 1] - 1);
    }
    size += extra;
  }
  // Then each later run's first value as stored: absolute.
  for (size_t r = 0; r + 1 < offsets.size(); ++r) {
    const uint64_t s = offsets[r];
    if (s == 0 || s == offsets[r + 1]) continue;
    size += VarintExtraBytes(values[s]);
    size -= VarintExtraBytes(values[s] - values[s - 1] - 1);
  }
  return size;
}

uint8_t* EncodePackedRuns(std::span<const uint32_t> values,
                          std::span<const uint64_t> offsets, uint8_t* out) {
  for (size_t r = 0; r + 1 < offsets.size(); ++r) {
    const uint32_t* v = values.data() + offsets[r];
    const uint32_t* const end = values.data() + offsets[r + 1];
    if (v == end) continue;
    // The first value is stored absolute and the others as (gap - 1).
    uint32_t prev = *v;
    out = PutVarint(prev, out);
    while (++v != end) {
      SOI_DCHECK(*v > prev);
      out = PutVarint(*v - prev - 1, out);
      prev = *v;
    }
  }
  return out;
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
