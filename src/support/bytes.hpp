/**
 * @file
 * Fixed-width little-endian byte codec.
 *
 * The binary formats are built from these: the serve wire frames and
 * messages (serve/wire.hpp), the write-ahead log and snapshots
 * (serve/wal.hpp), the aggregate's canonical serialization
 * (serve/aggregate.hpp) and the schedule blob (serve/server.cpp).
 *
 * str := u32 len | bytes.  The get* functions bounds-check and return
 * false on truncation (the fixed-width ones leave @p pos unchanged);
 * decoders turn that into a typed Status.
 */

#ifndef PATHSCHED_SUPPORT_BYTES_HPP
#define PATHSCHED_SUPPORT_BYTES_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace pathsched {

void putU8(std::string &out, uint8_t v);
void putU16(std::string &out, uint16_t v);
void putU32(std::string &out, uint32_t v);
void putU64(std::string &out, uint64_t v);
void putStr(std::string &out, const std::string &s);
bool getU8(const std::string &in, size_t &pos, uint8_t &v);
bool getU16(const std::string &in, size_t &pos, uint16_t &v);
bool getU32(const std::string &in, size_t &pos, uint32_t &v);
bool getU64(const std::string &in, size_t &pos, uint64_t &v);
/** Bounded string read: length capped by the remaining input. */
bool getStr(const std::string &in, size_t &pos, std::string &s);

} // namespace pathsched

#endif // PATHSCHED_SUPPORT_BYTES_HPP
