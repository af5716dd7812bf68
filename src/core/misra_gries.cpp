#include "misra_gries.hpp"

#include <algorithm>
#include <sstream>

#include "common/bit.hpp"
#include "common/logging.hpp"
#include "core/pra.hpp"

namespace catsim
{

MisraGries::MisraGries(RowAddr num_rows, std::uint32_t num_entries,
                       std::uint32_t threshold)
    : MitigationScheme(num_rows),
      numEntries_(num_entries),
      threshold_(threshold)
{
    if (num_entries == 0)
        CATSIM_FATAL("Misra-Gries needs at least one entry");
    if (threshold < 2)
        CATSIM_FATAL("Misra-Gries threshold must be >= 2, got ",
                     threshold);
    const std::size_t words = (num_entries + 63) / 64;
    entries_.resize(num_entries);
    counts_.resize(words * 64);
    free_.resize(words);

    // Rows are unique among live entries, so at most min(k, rows)
    // are indexed.  A load factor of at most 1/8 keeps nearly every
    // hit and miss to one probe: the probe loops' exits are the
    // branches that mispredict, and they cost more than the memory.
    const std::uint64_t indexed =
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(num_entries,
                                                           num_rows));
    const std::uint32_t bits = std::min(32u, ceilLog2(8 * indexed));
    index_.resize(std::size_t{1} << bits);
    indexMask_ = static_cast<std::uint32_t>(index_.size() - 1);
    indexShift_ = 32 - bits;
    clearTable();
}

void
MisraGries::clearTable()
{
    std::fill(entries_.begin(), entries_.end(), Entry{});
    std::fill(counts_.begin(), counts_.end(), 0u);
    std::fill(index_.begin(), index_.end(), IndexSlot{});
    std::fill(free_.begin(), free_.end(), ~0ULL);
    if (numEntries_ % 64 != 0)
        free_.back() = (1ULL << (numEntries_ % 64)) - 1;
    dec_ = 0;
}

RefreshAction
MisraGries::refreshAround(RowAddr row)
{
    const RefreshAction act =
        neighborRefresh(row, numRows_, adjacency_);
    ++stats_.refreshEvents;
    stats_.victimRowsRefreshed += act.rowCount;
    return act;
}

std::uint32_t
MisraGries::findEntry(RowAddr row) const
{
    for (std::uint32_t i = indexHome(row);; i = (i + 1) & indexMask_) {
        const IndexSlot &s = index_[i];
        if (s.entry == kNoEntry || s.row == row)
            return s.entry;
    }
}

void
MisraGries::indexInsert(RowAddr row, std::uint32_t entry)
{
    std::uint32_t i = indexHome(row);
    while (index_[i].entry != kNoEntry)
        i = (i + 1) & indexMask_;
    index_[i] = {row, entry};
}

void
MisraGries::indexErase(RowAddr row)
{
    std::uint32_t i = indexHome(row);
    while (index_[i].row != row || index_[i].entry == kNoEntry)
        i = (i + 1) & indexMask_;
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless their home lies cyclically in (hole, j].
    for (std::uint32_t j = (i + 1) & indexMask_;
         index_[j].entry != kNoEntry; j = (j + 1) & indexMask_) {
        const std::uint32_t home = indexHome(index_[j].row);
        const bool stays = i <= j ? (i < home && home <= j)
                                  : (i < home || home <= j);
        if (stays)
            continue;
        index_[i] = index_[j];
        i = j;
    }
    index_[i].entry = kNoEntry;
}

std::uint32_t
MisraGries::lowestFree() const
{
    for (std::size_t w = 0; w < free_.size(); ++w) {
        if (free_[w] != 0) {
            return static_cast<std::uint32_t>(
                w * 64 + ctz64(free_[w]));
        }
    }
    return kNoEntry;
}

void
MisraGries::spill()
{
    // Full table: every count is >= 1, so none underflows.  The
    // padding counts past k do wrap, but their bitmap bits are masked.
    ++dec_;
    std::uint32_t *c = counts_.data();
    for (std::size_t w = 0; w < free_.size(); ++w, c += 64) {
        std::uint64_t bits = 0;
        for (unsigned j = 0; j < 64; ++j) {
            --c[j];
            bits |= static_cast<std::uint64_t>(c[j] == 0) << j;
        }
        free_[w] = bits;
    }
    if (numEntries_ % 64 != 0)
        free_.back() &= (1ULL << (numEntries_ % 64)) - 1;
}

RefreshAction
MisraGries::onActivate(RowAddr row)
{
    ++stats_.activations;
    // CC-style SRAM budget: one CAM probe + one entry/spill update.
    stats_.sramAccesses += 2;

    const std::uint32_t e = findEntry(row);
    if (e != kNoEntry) {
        const std::uint32_t count = ++counts_[e];
        if (count == 1)
            clearFree(e);
        // `count + spills since the entry's baseline` upper-bounds
        // the row's true activations since its last refresh.
        if (count + (dec_ - entries_[e].decBase) >= threshold_) {
            // Keep the heavy hitter tracked: the bound restarts at
            // the current spill level instead of at zero.
            counts_[e] = 0;
            setFree(e);
            entries_[e].decBase = dec_;
            return refreshAround(row);
        }
        return {};
    }

    const std::uint32_t slot = lowestFree();
    if (slot != kNoEntry) {
        Entry &fill = entries_[slot];
        if (fill.live)
            indexErase(fill.row);
        indexInsert(row, slot);
        fill.row = row;
        fill.live = true;
        // Earlier spills may have absorbed occurrences of this row,
        // so a fresh entry's bound starts from the full spill total.
        if (1 + dec_ >= threshold_) {
            fill.decBase = dec_;  // count stays 0: entry stays free
            return refreshAround(row);
        }
        counts_[slot] = 1;
        clearFree(slot);
        fill.decBase = 0;
        return {};
    }

    // Summary-full miss: classic Misra-Gries decrements every entry,
    // absorbing one occurrence of each tracked row plus this one into
    // the global spill counter (a full-table rewrite in SRAM).
    spill();
    stats_.sramAccesses += numEntries_;
    // The dropped occurrence still counts toward the untracked row's
    // bound (the spill total alone).  Only reachable when the table is
    // undersized for the stream (entries + 1 <= acts / T), where the
    // scheme degrades to conservative refresh-per-miss instead of
    // losing the no-false-negative guarantee.
    if (dec_ >= threshold_)
        return refreshAround(row);
    return {};
}

void
MisraGries::onEpoch()
{
    // Retention refresh clears accumulated disturbance: restart the
    // sketch like the other counting schemes restart their counters.
    clearTable();
    ++stats_.epochResets;
}

std::uint32_t
MisraGries::trackedCount(RowAddr row) const
{
    const std::uint32_t e = findEntry(row);
    return e == kNoEntry ? 0 : counts_[e];
}

std::string
MisraGries::name() const
{
    std::ostringstream os;
    os << "MG_" << numEntries_;
    return os.str();
}

} // namespace catsim
