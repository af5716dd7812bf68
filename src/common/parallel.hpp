/**
 * @file
 * The one parallel primitive: parallelFor over an index range.
 *
 * parallelFor starts min(jobs, n) plain threads that drain one shared
 * atomic index, so uneven cells balance themselves: a worker that
 * finishes a cheap cell simply takes the next index.  Cells are
 * coarse (milliseconds to seconds of simulation), so one fetch_add per
 * cell is the whole scheduling cost.  Sweeps, fleets and streamed
 * trace windows all run through it.
 *
 * The job count defaults to the CATSIM_JOBS environment variable
 * (hardware concurrency when unset); jobs == 1 runs the cells inline
 * on the calling thread in index order, so the serial path needs no
 * special casing.  With CATSIM_NUMA_PIN=1 each worker pins itself
 * round-robin across the host's NUMA nodes (Linux; a no-op elsewhere),
 * so shard-per-worker runs keep their arenas node-local.
 *
 * Determinism contract: scheduling (index handout, pinning) decides
 * only WHERE and WHEN a cell runs, never what it computes.  Callers
 * index results by cell, never by completion order, and each cell is
 * a pure function of its spec, so any job count produces bit-identical
 * output.  Errors are deterministic too: the failure of the LOWEST
 * failing index is rethrown, not the first to finish.
 */

#ifndef CATSIM_COMMON_PARALLEL_HPP
#define CATSIM_COMMON_PARALLEL_HPP

#include <cstddef>
#include <exception>
#include <functional>

namespace catsim
{

/**
 * Job count from the CATSIM_JOBS environment variable; hardware
 * concurrency (at least 1) when unset or unparsable.
 */
std::size_t defaultJobs();

/** True when CATSIM_NUMA_PIN=1 requests worker pinning. */
bool numaPinEnabled();

/**
 * Rethrow @p err as a std::runtime_error whose message is prefixed with
 * "<unit> <index>: ", so a surfaced failure names the cell (or shard)
 * rather than a thread.  Non-std exceptions propagate unwrapped.
 */
[[noreturn]] void rethrowIndexed(std::exception_ptr err, const char *unit,
                                 std::size_t index);

/**
 * Run fn(0) .. fn(n - 1) on min(@p jobs, n) threads and block until
 * all complete.  Indices are handed out dynamically, so per-index work may
 * be uneven; with jobs <= 1 the calls happen in index order on the
 * calling thread.  If calls threw, rethrows the error of the lowest
 * failing index as a std::runtime_error prefixed with "cell N:" (among
 * the cells that actually ran before the grid was poisoned), so the
 * surfaced failure names a cell rather than a thread.  Non-std
 * exceptions propagate unwrapped.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 std::size_t jobs = defaultJobs());

} // namespace catsim

#endif // CATSIM_COMMON_PARALLEL_HPP
