/**
 * @file
 * On-disk persistence for baseline timing results.
 *
 * A baseline run is fully determined by (preset, workload, seed,
 * scale), so its TimingResult - including the recorded per-bank
 * activation streams that feed every replay - can be cached on disk
 * and reused across processes.  Repeated bench runs then skip the
 * timing baseline entirely (the dominant cost at small grids).
 *
 * A cache file is a single-record journal image (the layout in
 * sim/checkpoint.hpp): the journal header, whose run key names
 * kBaselineModelVersion, the logical cache key and the scale (in
 * hexfloat), then one CRC'd record whose blob is the BlobWriter
 * encoding of the TimingResult.  A load accepts the file only when the
 * header matches and exactly one valid record ends at EOF; anything
 * else (stale version, colliding file name, other scale, torn or
 * bit-flipped bytes, trailing data) misses and the caller recomputes.
 * Files are written via a temp path plus atomic rename so concurrent
 * writers can never expose a torn file, fsync'd (file, then containing
 * directory) before/after the rename so a crash can't leave a
 * renamed-but-empty entry.
 */

#ifndef CATSIM_SIM_BASELINE_IO_HPP
#define CATSIM_SIM_BASELINE_IO_HPP

#include <cstdint>
#include <string>

#include "sim/timing_sim.hpp"

namespace catsim
{

/**
 * Model fingerprint embedded in every cache file.  Bump this whenever
 * a semantic change (timing model, workload generation, recordsFor
 * heuristic, preset shapes...) invalidates previously recorded
 * activation streams, even if the file layout itself is unchanged;
 * stale files then miss and are recomputed instead of silently
 * feeding outdated streams into new figures.
 *
 * Version history: 1 = original layout; 2 = CRC32 trailer appended;
 * 3 = journal image.  Files of any other version miss and are
 * recomputed once.
 */
constexpr std::uint64_t kBaselineModelVersion = 3;

/**
 * File name (not path) for a baseline cache entry: a sanitized key
 * plus a hash so distinct keys can never alias one file.
 */
std::string baselineCacheFileName(const std::string &key, double scale);

/**
 * Serialize @p result to @p path.  Creates parent directories.
 * @return false (with a warning) on I/O failure - caching is best
 *         effort and never fatal.
 */
bool saveBaseline(const std::string &path, const std::string &key,
                  double scale, const TimingResult &result);

/**
 * Load a baseline from @p path into @p out.  Never writes: a file
 * that does not load is left for the next save to replace.
 * @return true only if the file exists, parses, and matches @p key
 *         and @p scale exactly.
 */
bool loadBaseline(const std::string &path, const std::string &key,
                  double scale, TimingResult *out);

} // namespace catsim

#endif // CATSIM_SIM_BASELINE_IO_HPP
