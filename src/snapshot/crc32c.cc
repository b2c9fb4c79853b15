#include "snapshot/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define SOI_CRC32C_SSE42 1
#endif

namespace soi {

namespace {

// Eight 256-entry tables for slice-by-8: table[k][b] is the CRC of byte b
// followed by k zero bytes. Generated once at first use.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 8> t;

  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

#ifdef SOI_CRC32C_SSE42
// The instruction computes the same reflected CRC-32C as the tables, so the
// head/body/tail split mirrors the portable loop.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, const void* data, size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~crc;
  while (size > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --size;
  }
  uint64_t wide = c;
  while (size >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    wide = _mm_crc32_u64(wide, word);
    p += 8;
    size -= 8;
  }
  c = static_cast<uint32_t>(wide);
  while (size > 0) {
    c = _mm_crc32_u8(c, *p++);
    --size;
  }
  return ~c;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn ResolveExtend() {
#ifdef SOI_CRC32C_SSE42
  __builtin_cpu_init();  // may run before the CPU-model constructor
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cExtendSse42;
#endif
  return &Crc32cExtendPortable;
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size) {
  static const ExtendFn extend = ResolveExtend();
  return extend(crc, data, size);
}

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t size) {
  const auto& t = Tables().t;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Align to 8 bytes, then consume 8 at a time.
  while (size > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFF];
    --size;
  }
  while (size >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    word ^= crc;  // low 4 bytes fold in the running crc (little-endian)
    crc = t[7][word & 0xFF] ^ t[6][(word >> 8) & 0xFF] ^
          t[5][(word >> 16) & 0xFF] ^ t[4][(word >> 24) & 0xFF] ^
          t[3][(word >> 32) & 0xFF] ^ t[2][(word >> 40) & 0xFF] ^
          t[1][(word >> 48) & 0xFF] ^ t[0][(word >> 56) & 0xFF];
    p += 8;
    size -= 8;
  }
  while (size > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFF];
    --size;
  }
  return ~crc;
}

}  // namespace soi
