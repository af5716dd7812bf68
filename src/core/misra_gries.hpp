/**
 * @file
 * Misra-Gries frequent-item tracking mitigation (Graphene-style,
 * Park et al., MICRO 2020).
 *
 * A small table of (row, count) entries summarizes the bank's
 * activation stream with the Misra-Gries heavy-hitters sketch: a hit
 * increments the row's entry, a miss fills a free entry, and a miss
 * against a full table decrements EVERY entry (absorbing one
 * occurrence of each tracked row plus the missing one into a global
 * spill counter).  The sketch under-counts by at most the spill total,
 * so `entry count + spills since the entry was installed` upper-bounds
 * the row's true activation count; when that bound reaches the refresh
 * threshold T the row's physical neighbors are refreshed and the entry
 * resets.
 *
 * Guarantee: no row's true count since its last neighbor refresh ever
 * exceeds T - every activation checks the bound, including misses
 * (whose bound is the spill total alone).  Sized like Graphene
 * (entries + 1 > acts-per-epoch / T) the spill counter stays below T
 * and the miss path never fires; an undersized table degrades to
 * conservative refresh-per-miss instead of losing the guarantee.
 *
 * Host-side layout (the modeled hardware is a CAM; `sramAccesses`
 * charges it, not this layout):
 *  - a row index (open addressing, linear probing, load factor at
 *    most 1/8) maps each live entry's row to its entry, so a hit or
 *    a miss is about one probe;
 *  - a free bitmap holds one bit per count-0 entry, and its lowest set
 *    bit is the entry a linear CAM scan would fill on a miss - the
 *    lowest-index one.  A live count-0 entry stays indexed (its next
 *    ACT is a hit that keeps the entry's spill baseline) until a miss
 *    reuses it;
 *  - counts sit in their own array, so a full-table spill is one pass
 *    that decrements every count and rebuilds the bitmap.
 * A hit costs O(1), a fill O(1) plus a find-first-set over k/64
 * bitmap words, and only a spill is O(k).
 */

#ifndef CATSIM_CORE_MISRA_GRIES_HPP
#define CATSIM_CORE_MISRA_GRIES_HPP

#include <cstdint>
#include <vector>

#include "core/adjacency.hpp"
#include "core/mitigation.hpp"

namespace catsim
{

/** Misra-Gries heavy-hitter tracker with threshold refresh. */
class MisraGries : public MitigationScheme
{
  public:
    /**
     * @param num_rows    Rows per bank.
     * @param num_entries Tracking-table entries (k).
     * @param threshold   Refresh threshold (T).
     */
    MisraGries(RowAddr num_rows, std::uint32_t num_entries,
               std::uint32_t threshold);

    RefreshAction onActivate(RowAddr row) override;
    void onEpoch() override;
    std::string name() const override;

    /**
     * Use a physical-adjacency model for victim selection; must
     * outlive this scheme, nullptr restores direct adjacency.
     */
    void setAdjacency(const RowAdjacency *adjacency)
    {
        adjacency_ = adjacency;
    }

    std::uint32_t numEntries() const { return numEntries_; }

    /** Tracked count of @p row; 0 when untracked (test oracles). */
    std::uint32_t trackedCount(RowAddr row) const;

    /** Global decrements (spills) since the last epoch reset. */
    std::uint64_t decrements() const { return dec_; }

    /**
     * Home slot of @p row in the row index; rows with equal home
     * slots collide (tests use this to build probe chains).
     */
    std::uint32_t indexHome(RowAddr row) const
    {
        return (row * 0x9E3779B9u) >> indexShift_;
    }

  private:
    static constexpr std::uint32_t kNoEntry = UINT32_MAX;

    /** Per-entry fields the spill pass does not touch. */
    struct Entry
    {
        RowAddr row = 0;
        std::uint64_t decBase = 0;  //!< spills excluded from the bound
        bool live = false;          //!< row is in the index
    };

    /** One row-index slot: a live entry's row and its entry number. */
    struct IndexSlot
    {
        RowAddr row = 0;
        std::uint32_t entry = kNoEntry;  //!< kNoEntry marks empty
    };

    /** Entry tracking @p row, or kNoEntry. */
    std::uint32_t findEntry(RowAddr row) const;
    void indexErase(RowAddr row);
    void indexInsert(RowAddr row, std::uint32_t entry);
    /** Lowest count-0 entry, or kNoEntry when the table is full. */
    std::uint32_t lowestFree() const;
    void setFree(std::uint32_t e) { free_[e >> 6] |= 1ULL << (e & 63); }
    void clearFree(std::uint32_t e)
    {
        free_[e >> 6] &= ~(1ULL << (e & 63));
    }
    /** Decrement every count and rebuild the free bitmap. */
    void spill();
    /** Empty table: every entry free, nothing indexed, no spills. */
    void clearTable();
    RefreshAction refreshAround(RowAddr row);

    std::uint32_t numEntries_;
    std::uint32_t threshold_;
    std::uint64_t dec_ = 0;
    std::vector<Entry> entries_;
    /** Counts in their own array, padded to a whole number of bitmap
     *  words so spill() runs unmasked; 0 marks a free entry. */
    std::vector<std::uint32_t> counts_;
    std::vector<std::uint64_t> free_;       //!< bit e: counts_[e] == 0
    std::vector<IndexSlot> index_;          //!< power-of-two slots
    std::uint32_t indexMask_ = 0;
    std::uint32_t indexShift_ = 0;
    const RowAdjacency *adjacency_ = nullptr;
};

} // namespace catsim

#endif // CATSIM_CORE_MISRA_GRIES_HPP
