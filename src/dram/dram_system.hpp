/**
 * @file
 * Aggregate DRAM device model: channels of ranks of banks plus the
 * shared data bus per channel.
 *
 * The model is closed-page and command-level: the memory controller asks
 * for the earliest issue slot for a request, then commits it, and the
 * system returns the data-ready cycle.  Victim refreshes requested by a
 * mitigation scheme block the target bank for tRC per refreshed row.
 */

#ifndef CATSIM_DRAM_DRAM_SYSTEM_HPP
#define CATSIM_DRAM_DRAM_SYSTEM_HPP

#include <vector>

#include "common/types.hpp"
#include "dram/bank.hpp"
#include "dram/geometry.hpp"
#include "dram/rank.hpp"
#include "dram/timing.hpp"

namespace catsim
{

/** Whole-device DRAM timing model. */
class DramSystem
{
  public:
    DramSystem(const DramGeometry &geometry, const DramTiming &timing);

    /**
     * Earliest cycle at which an access to (channel, rank, bank) can be
     * issued, considering bank, rank (tFAW/tRRD), auto-refresh, and the
     * channel data bus.
     */
    Cycle
    earliestIssue(const BankId &id, Cycle now)
    {
        applyAutoRefresh(id, now);
        Cycle t = banks_[id.flat(geometry_)].earliestActivate(now);
        t = rankOf(id).earliestActivate(t);
        // The data burst needs the channel bus tRCD+tCAS after the ACT.
        const Cycle burstStart = t + timing_.tRCD + timing_.tCAS;
        if (busFreeAt_[id.channel] > burstStart)
            t += busFreeAt_[id.channel] - burstStart;
        return t;
    }

    /**
     * Issue an access; @p issue must be >= earliestIssue(..).
     * @return Data-ready cycle for reads / acceptance cycle for writes.
     */
    Cycle
    access(const BankId &id, RowAddr row, bool is_write, Cycle issue)
    {
        Bank &bank = banks_[id.flat(geometry_)];
        const Cycle ready = bank.access(issue, row, is_write);
        rankOf(id).recordActivate(issue);
        const Cycle burstStart = issue + timing_.tRCD + timing_.tCAS;
        busFreeAt_[id.channel] = burstStart + timing_.tBURST;
        return ready;
    }

    /**
     * Block the bank while victim rows are refreshed; returns the cycle
     * the bank frees up.
     */
    Cycle victimRefresh(const BankId &id, std::uint64_t rows, Cycle now);

    const Bank &bank(const BankId &id) const;
    Bank &bank(const BankId &id);
    const DramGeometry &geometry() const { return geometry_; }
    const DramTiming &timing() const { return timing_; }

    /** Sum of ACTs over all banks. */
    Count totalActivations() const;

    /** Sum of victim rows refreshed over all banks. */
    Count totalVictimRowsRefreshed() const;

  private:
    Rank &
    rankOf(const BankId &id)
    {
        return ranks_[id.channel * geometry_.ranksPerChannel + id.rank];
    }

    void
    applyAutoRefresh(const BankId &id, Cycle now)
    {
        Rank &rank = rankOf(id);
        // Catch up on any auto-refresh windows that opened before `now`.
        while (true) {
            const Cycle end = rank.autoRefreshDue(now);
            if (end == 0)
                break;
            for (std::uint32_t b = 0; b < geometry_.banksPerRank; ++b) {
                BankId bid{id.channel, id.rank, b};
                banks_[bid.flat(geometry_)].blockUntil(end);
            }
        }
    }

    DramGeometry geometry_;
    DramTiming timing_;
    std::vector<Bank> banks_;
    std::vector<Rank> ranks_;
    std::vector<Cycle> busFreeAt_; //!< per channel
};

} // namespace catsim

#endif // CATSIM_DRAM_DRAM_SYSTEM_HPP
