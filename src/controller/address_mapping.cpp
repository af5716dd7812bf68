#include "address_mapping.hpp"

#include "common/logging.hpp"

namespace catsim
{

std::uint32_t
AddressMapper::log2u(std::uint64_t v)
{
    std::uint32_t l = 0;
    while (v > 1) {
        v >>= 1;
        ++l;
    }
    return l;
}

AddressMapper::AddressMapper(const DramGeometry &geometry,
                             MappingPolicy policy)
    : geometry_(geometry), policy_(policy)
{
    auto pow2 = [](std::uint64_t v) {
        return v != 0 && (v & (v - 1)) == 0;
    };
    if (!pow2(geometry.lineBytes) || !pow2(geometry.colsPerRow)
        || !pow2(geometry.channels) || !pow2(geometry.banksPerRank)
        || !pow2(geometry.ranksPerChannel) || !pow2(geometry.rowsPerBank))
        CATSIM_FATAL("address mapping requires power-of-two geometry");

    offsetBits_ = log2u(geometry.lineBytes);
    colBits_ = log2u(geometry.colsPerRow);
    chBits_ = log2u(geometry.channels);
    bkBits_ = log2u(geometry.banksPerRank);
    rkBits_ = log2u(geometry.ranksPerChannel);
    rwBits_ = log2u(geometry.rowsPerBank);
}

std::string
AddressMapper::policyName(MappingPolicy policy)
{
    switch (policy) {
      case MappingPolicy::RowRankBankChanCol:
        return "rw:rk:bk:ch:col:offset";
      case MappingPolicy::RowRankBankColChan:
        return "rw:rk:bk:col:ch:offset";
    }
    return "?";
}

} // namespace catsim
