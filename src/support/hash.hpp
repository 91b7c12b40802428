/**
 * @file
 * Shared non-cryptographic hash primitives.
 *
 * Every integrity check in the tree goes through these two functions:
 *
 *  - fnv1a64: the v2 profile checksum and CFG fingerprint primitive
 *    (profile/serialize.hpp), and the serve wire/WAL and schedule
 *    content hashes.
 *  - crc32: reflected CRC-32 (poly 0xEDB88320, the zlib polynomial),
 *    framing the batch journal lines (tools/pathsched_batch) and the
 *    serve wire-format / write-ahead-log frames (serve/wire.hpp).
 *
 * Both were born as per-file copies; they live here so a frame written
 * by one subsystem can always be verified by another.
 */

#ifndef PATHSCHED_SUPPORT_HASH_HPP
#define PATHSCHED_SUPPORT_HASH_HPP

#include <cstdint>
#include <cstddef>
#include <string>

namespace pathsched {

/** FNV-1a 64-bit hash of @p size bytes at @p data, continuing from
 *  @p seed (the default is the standard offset basis, so a one-shot
 *  call is the reference FNV-1a). */
uint64_t fnv1a64(const void *data, size_t size,
                 uint64_t seed = 0xcbf29ce484222325ULL);

/** Fold one little-endian-encoded u64 into a running FNV-1a state. */
uint64_t fnv1a64Mix(uint64_t state, uint64_t v);

/** Reflected CRC-32, poly 0xEDB88320, init/final xor 0xFFFFFFFF. */
uint32_t crc32(const void *data, size_t size);

/** @p v rendered as 16 lowercase hex digits (checksum spelling). */
std::string hex16(uint64_t v);

} // namespace pathsched

#endif // PATHSCHED_SUPPORT_HASH_HPP
