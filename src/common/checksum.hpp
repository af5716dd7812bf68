/**
 * @file
 * CRC32 (IEEE 802.3 reflected polynomial) for on-disk integrity.
 *
 * Every binary artifact the simulator persists (baseline cache files,
 * checkpoint journals) carries a CRC32 so a torn write, truncated
 * tail, or bit flip is detected at load time instead of silently
 * feeding corrupt state into a figure.  The streaming Crc32 class
 * lets writers fold in data as they serialize; crc32() is the oneshot
 * convenience for buffers already in memory.
 *
 * fnv1a() is the name hash: baseline cache files and journal files
 * are named by the FNV-1a hash of their key, so its output is part of
 * the on-disk layout and must never change.
 */

#ifndef CATSIM_COMMON_CHECKSUM_HPP
#define CATSIM_COMMON_CHECKSUM_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace catsim
{

/** Streaming CRC32 accumulator (IEEE, reflected, init/final 0xFFFFFFFF). */
class Crc32
{
  public:
    /** Fold @p len bytes at @p data into the running checksum. */
    void update(const void *data, std::size_t len);

    /** Finalized checksum of everything updated so far. */
    std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

    /** Reset to the empty-input state. */
    void reset() { state_ = 0xFFFFFFFFu; }

  private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

/** CRC32 of one contiguous buffer. */
std::uint32_t crc32(const void *data, std::size_t len);

/**
 * 64-bit FNV-1a of @p s (file-name hashing, not integrity).  The
 * offset basis is the project's historical 1469598103934665603, one
 * digit short of the published basis; existing file names depend on
 * it, so it stays.
 */
std::uint64_t fnv1a(const std::string &s);

} // namespace catsim

#endif // CATSIM_COMMON_CHECKSUM_HPP
