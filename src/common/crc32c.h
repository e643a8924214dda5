#ifndef ORCHESTRA_COMMON_CRC32C_H_
#define ORCHESTRA_COMMON_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace orchestra {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// checksum RFC 3720 (iSCSI) standardized and storage engines
/// (LevelDB/RocksDB, ext4) converged on, because commodity CPUs carry a
/// dedicated instruction for it (SSE4.2 `crc32`). It is the one
/// checksum in the system: every integrity envelope (db/serde.h) carries
/// it, and that envelope frames every WAL record, stored row, DHT
/// replica and shipped payload.
///
/// `Crc32c` dispatches to the hardware path when the binary was compiled
/// with SSE4.2 available, falling back to a byte-table implementation
/// otherwise. Both paths are exported so tests can assert bit-equality
/// between them on fuzzed inputs.

/// CRC32C of `data`, extending the running checksum `crc` (pass 0 to
/// start). Output is the plain (unmasked) checksum.
uint32_t Crc32c(uint32_t crc, std::string_view data);

/// Portable table-driven implementation; always available.
uint32_t Crc32cPortable(uint32_t crc, std::string_view data);

/// Hardware (SSE4.2) implementation. Only callable when
/// Crc32cHardwareAvailable() is true; otherwise falls back to portable.
uint32_t Crc32cHardware(uint32_t crc, std::string_view data);

/// True when this binary contains the SSE4.2 path and the CPU supports it.
bool Crc32cHardwareAvailable();

}  // namespace orchestra

#endif  // ORCHESTRA_COMMON_CRC32C_H_
