/**
 * @file
 * Physical-address to DRAM-coordinate mapping policies.
 *
 * The paper's default (Table I) is the USIMM policy
 * rw:rk:bk:ch:col:offset - reading from the most significant bits:
 * row, rank, bank, channel, column, cache-line offset.  Section VIII-B
 * additionally evaluates a 4-channel policy that "maximizes memory
 * access parallelism" by interleaving channels at cache-line
 * granularity (rw:rk:bk:col:ch:offset).
 */

#ifndef CATSIM_CONTROLLER_ADDRESS_MAPPING_HPP
#define CATSIM_CONTROLLER_ADDRESS_MAPPING_HPP

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "dram/geometry.hpp"

namespace catsim
{

/** Decoded DRAM coordinates of a physical address. */
struct MappedAddr
{
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;
    RowAddr row = 0;
    std::uint32_t col = 0;

    BankId
    bankId() const
    {
        return BankId{channel, rank, bank};
    }
};

/** Field order of the mapping. */
enum class MappingPolicy
{
    RowRankBankChanCol, //!< rw:rk:bk:ch:col:offset (paper default)
    RowRankBankColChan, //!< rw:rk:bk:col:ch:offset (4-channel policy)
};

/** Bidirectional address mapper for a fixed geometry. */
class AddressMapper
{
  public:
    AddressMapper(const DramGeometry &geometry, MappingPolicy policy);

    /** Decode a physical byte address. */
    MappedAddr
    map(Addr addr) const
    {
        MappedAddr m;
        Addr a = addr >> offsetBits_;
        auto take = [&a](std::uint32_t bits) -> std::uint32_t {
            const std::uint32_t v =
                static_cast<std::uint32_t>(a & ((1ULL << bits) - 1));
            a >>= bits;
            return v;
        };

        switch (policy_) {
          case MappingPolicy::RowRankBankChanCol:
            m.col = take(colBits_);
            m.channel = take(chBits_);
            m.bank = take(bkBits_);
            m.rank = take(rkBits_);
            m.row = take(rwBits_);
            break;
          case MappingPolicy::RowRankBankColChan:
            m.channel = take(chBits_);
            m.col = take(colBits_);
            m.bank = take(bkBits_);
            m.rank = take(rkBits_);
            m.row = take(rwBits_);
            break;
        }
        return m;
    }

    /** Compose a physical byte address from coordinates. */
    Addr
    compose(const MappedAddr &m) const
    {
        Addr a = 0;
        std::uint32_t shift = offsetBits_;
        auto put = [&a, &shift](std::uint64_t v, std::uint32_t bits) {
            a |= (v & ((1ULL << bits) - 1)) << shift;
            shift += bits;
        };

        switch (policy_) {
          case MappingPolicy::RowRankBankChanCol:
            put(m.col, colBits_);
            put(m.channel, chBits_);
            put(m.bank, bkBits_);
            put(m.rank, rkBits_);
            put(m.row, rwBits_);
            break;
          case MappingPolicy::RowRankBankColChan:
            put(m.channel, chBits_);
            put(m.col, colBits_);
            put(m.bank, bkBits_);
            put(m.rank, rkBits_);
            put(m.row, rwBits_);
            break;
        }
        return a;
    }

    MappingPolicy policy() const { return policy_; }
    static std::string policyName(MappingPolicy policy);

    /** Floor log2 of a power-of-two field width (0 for v <= 1). */
    static std::uint32_t log2u(std::uint64_t v);

  private:
    DramGeometry geometry_;
    MappingPolicy policy_;
    std::uint32_t offsetBits_;
    std::uint32_t colBits_;
    std::uint32_t chBits_;
    std::uint32_t bkBits_;
    std::uint32_t rkBits_;
    std::uint32_t rwBits_;
};

} // namespace catsim

#endif // CATSIM_CONTROLLER_ADDRESS_MAPPING_HPP
