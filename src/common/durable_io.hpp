/**
 * @file
 * Durability helpers for the temp-write + atomic-rename idiom.
 *
 * std::ofstream flushes to the OS page cache, not to the device: a
 * power loss or SIGKILL between rename and writeback can leave a
 * zero-length or torn file at the final path even though the rename
 * itself is atomic.  Writers of cache/journal files therefore fsync
 * the data file before renaming it into place, and fsync the
 * containing directory afterwards so the rename itself is durable.
 *
 * Both helpers are best-effort: on platforms without fsync semantics
 * (or on filesystems that reject directory fsync) they return false
 * and the caller carries on - durability narrows to the page cache,
 * which is still no worse than the pre-helper behaviour.
 *
 * readWholeFile() is the matching read side: loaders validate a whole
 * in-memory image rather than a stream whose fail state conflates EOF
 * with I/O error.
 */

#ifndef CATSIM_COMMON_DURABLE_IO_HPP
#define CATSIM_COMMON_DURABLE_IO_HPP

#include <string>

namespace catsim
{

/** fsync the file at @p path (opens it read-only to get an fd). */
bool syncFile(const std::string &path);

/** fsync the directory containing @p path (durability of renames). */
bool syncParentDir(const std::string &path);

/**
 * Read the file at @p path into @p out in one allocation.
 * @return false when it cannot be opened or read.
 */
bool readWholeFile(const std::string &path, std::string *out);

} // namespace catsim

#endif // CATSIM_COMMON_DURABLE_IO_HPP
