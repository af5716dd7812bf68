#include "dram_system.hpp"

#include "common/logging.hpp"

namespace catsim
{

DramSystem::DramSystem(const DramGeometry &geometry,
                       const DramTiming &timing)
    : geometry_(geometry), timing_(timing)
{
    const auto nBanks = geometry_.totalBanks();
    banks_.reserve(nBanks);
    for (std::uint32_t i = 0; i < nBanks; ++i)
        banks_.emplace_back(timing_);
    const auto nRanks = geometry_.channels * geometry_.ranksPerChannel;
    ranks_.reserve(nRanks);
    for (std::uint32_t i = 0; i < nRanks; ++i)
        ranks_.emplace_back(timing_);
    busFreeAt_.assign(geometry_.channels, 0);
}

Cycle
DramSystem::victimRefresh(const BankId &id, std::uint64_t rows, Cycle now)
{
    applyAutoRefresh(id, now);
    return banks_[id.flat(geometry_)].victimRefresh(now, rows);
}

const Bank &
DramSystem::bank(const BankId &id) const
{
    return banks_[id.flat(geometry_)];
}

Bank &
DramSystem::bank(const BankId &id)
{
    return banks_[id.flat(geometry_)];
}

Count
DramSystem::totalActivations() const
{
    Count c = 0;
    for (const auto &b : banks_)
        c += b.activations();
    return c;
}

Count
DramSystem::totalVictimRowsRefreshed() const
{
    Count c = 0;
    for (const auto &b : banks_)
        c += b.victimRowsRefreshed();
    return c;
}

} // namespace catsim
