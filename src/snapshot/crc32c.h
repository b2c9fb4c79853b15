#ifndef SOI_SNAPSHOT_CRC32C_H_
#define SOI_SNAPSHOT_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace soi {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// checksum guarding every snapshot section (snapshot/format.h). Chosen over
/// FNV for real error-detection guarantees (HD=4 up to ~2^31 bits) and
/// because it matches what storage systems (ext4, iSCSI, LevelDB) use, so a
/// snapshot verified here is checkable with standard tooling.
///
/// Two bit-identical implementations. On x86-64 CPUs with SSE4.2 (checked
/// once per process) the `crc32` instruction consumes 8 bytes per step,
/// about 5× the software path (bench_micro `BM_Crc32c`); everywhere else
/// a portable slice-by-8 (~1 byte/cycle). Both are little-endian only,
/// like the snapshot format (the header stores an endianness tag).

/// Extends a running CRC-32C over `size` bytes. Start with crc == 0.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size);

/// The portable slice-by-8 path, used where the `crc32` instruction is
/// missing. Equal to Crc32cExtend on every input; public so tests can hold
/// the two paths against each other.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t size);

/// One-shot convenience.
inline uint32_t Crc32c(const void* data, size_t size) {
  return Crc32cExtend(0, data, size);
}

}  // namespace soi

#endif  // SOI_SNAPSHOT_CRC32C_H_
