/**
 * @file
 * Monte-Carlo estimation of PRA failure probability under different
 * PRNGs (paper Section III-A).
 *
 * The analytic Eq. 1 assumes independent Bernoulli draws.  A cheap
 * LFSR-based PRNG produces a fixed periodic bit sequence, so whole
 * stretches of activations can systematically miss the accept region;
 * the paper's Monte-Carlo found that with T=16K, p=0.005 an LFSR-based
 * PRA reaches 1e-4 unsurvivability "after only 25 refresh intervals".
 * This module reproduces that experiment: it slides refresh-threshold
 * windows over the PRNG's decision stream and counts windows with zero
 * accepted refreshes.
 */

#ifndef CATSIM_RELIABILITY_MONTECARLO_HPP
#define CATSIM_RELIABILITY_MONTECARLO_HPP

#include <cstdint>
#include <string>

#include "core/prng_source.hpp"

namespace catsim
{

/** Result of a window-failure Monte-Carlo run. */
struct McResult
{
    std::uint64_t windows = 0;       //!< threshold windows simulated
    std::uint64_t failedWindows = 0; //!< windows with zero refreshes
    double windowFailureProb = 0.0;  //!< failed / total

    /**
     * Unsurvivability after @p intervals refresh intervals with @p q0
     * threshold windows each: 1 - (1 - pf)^(q0 * intervals).
     */
    double unsurvivabilityAfter(double q0, double intervals) const;
};

/**
 * Slide @p windows consecutive windows of @p threshold draws over the
 * PRNG stream; a window fails when no draw accepts.
 *
 * @param prng      Bit source under test.
 * @param threshold Window length T in activations.
 * @param p         Refresh probability (sets bits/accept region).
 * @param windows   Number of windows to simulate.
 */
McResult praWindowFailures(PrngSource &prng, std::uint32_t threshold,
                           double p, std::uint64_t windows);

/**
 * A crash-safe Monte-Carlo campaign: @p windows trials split into
 * batches of @p windowsPerBatch, each batch drawing from its own PRNG
 * stream seeded deterministically from (seed, batch index).  Every
 * batch is therefore a pure function of the spec, so finished batches
 * can be journaled and skipped on resume - a killed-and-resumed
 * campaign accumulates exactly the same failedWindows count as an
 * uninterrupted one.  (Per-batch streams make the counts differ
 * slightly from a praWindowFailures call over one continuous stream;
 * the statistics are equivalent.)
 */
struct McCampaignSpec
{
    enum class Prng
    {
        True, //!< TruePrng (xoshiro-backed high-quality source)
        Lfsr, //!< LfsrPrng (the cheap correlated source)
    };

    Prng prng = Prng::True;
    unsigned lfsrWidth = 16;          //!< LFSR register width
    std::uint64_t seed = 2024;        //!< campaign seed base
    std::uint32_t threshold = 16384;  //!< window length T
    double p = 0.005;                 //!< refresh probability
    std::uint64_t windows = 3000;     //!< total trials
    std::uint64_t windowsPerBatch = 512;

    /** Journal run key and record key prefix: every spec field, so a
     *  changed campaign never reuses a stale batch. */
    std::string journalKeyPrefix() const;
};

/**
 * Run (or resume) the campaign as a runJournaledGrid() grid of batches
 * (one worker, fail-fast).  With a non-empty @p checkpointDir,
 * finished batches are read back from the campaign's journal there
 * (run key journalKeyPrefix()) instead of re-simulated, and fresh
 * batches are journaled as they complete; with "" it just runs
 * everything.  A failing batch throws std::runtime_error naming it
 * ("cell <batch>: ...").
 */
McResult praWindowFailuresResumable(const McCampaignSpec &spec,
                                    const std::string &checkpointDir);

} // namespace catsim

#endif // CATSIM_RELIABILITY_MONTECARLO_HPP
