/**
 * @file
 * Property tests for the Misra-Gries frequent-item mitigation: the
 * classic count-underestimate bound against an exact-count oracle, the
 * no-false-negative-above-threshold guarantee on seeded-random and
 * adversarial streams (sized and undersized tables), behavior across
 * epoch resets, onActivate/onActivateBatch stats identity, and a
 * per-ACT differential test of the indexed table against the frozen
 * linear-scan implementation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "core/misra_gries.hpp"
#include "core/pra.hpp"

namespace catsim
{

namespace
{

constexpr RowAddr kRows = 65536;

/** A threshold far above any bound the streams below can reach. */
constexpr std::uint32_t kNeverTrigger = 1000000000;

/**
 * Feed @p acts activations of @p mg while asserting the no-false-
 * negative guarantee against an exact oracle: no row's true activation
 * count since the last refresh triggered by that row ever reaches past
 * the threshold.
 */
void
assertNoFalseNegative(MisraGries &mg, const std::vector<RowAddr> &acts,
                      std::uint32_t threshold,
                      std::map<RowAddr, std::uint64_t> &since)
{
    for (const RowAddr row : acts) {
        ++since[row];
        const RefreshAction act = mg.onActivate(row);
        ASSERT_LE(since[row], threshold)
            << "row " << row << " hammered past the threshold "
            << "without a refresh";
        if (act.triggered())
            since[row] = 0;
    }
}

/**
 * MisraGries as a linear CAM scan over array-of-structs entries: every
 * ACT walks the table for the row while noting the lowest count-0
 * entry, and a full-table miss walks it again to decrement.  Frozen as
 * the oracle for the production row index + free bitmap.
 */
class LinearScanMisraGries : public MitigationScheme
{
  public:
    LinearScanMisraGries(RowAddr num_rows, std::uint32_t num_entries,
                         std::uint32_t threshold)
        : MitigationScheme(num_rows), threshold_(threshold),
          entries_(num_entries)
    {
    }

    RefreshAction
    onActivate(RowAddr row) override
    {
        ++stats_.activations;
        stats_.sramAccesses += 2;

        Entry *slot = nullptr;
        for (auto &e : entries_) {
            if (e.live && e.row == row) {
                staleHits_ += e.count == 0;
                ++e.count;
                if (e.count + (dec_ - e.decBase) >= threshold_) {
                    e.count = 0;
                    e.decBase = dec_;
                    return refreshAround(row);
                }
                return {};
            }
            if (e.count == 0 && !slot)
                slot = &e;
        }

        if (slot) {
            slot->row = row;
            slot->count = 1;
            slot->decBase = 0;
            slot->live = true;
            if (1 + dec_ >= threshold_) {
                slot->count = 0;
                slot->decBase = dec_;
                return refreshAround(row);
            }
            return {};
        }

        ++dec_;
        for (auto &e : entries_)
            --e.count;
        stats_.sramAccesses += entries_.size();
        if (dec_ >= threshold_)
            return refreshAround(row);
        return {};
    }

    void
    onEpoch() override
    {
        for (auto &e : entries_)
            e = Entry{};
        dec_ = 0;
        ++stats_.epochResets;
    }

    std::string name() const override { return "MG_scan"; }

    std::uint32_t
    trackedCount(RowAddr row) const
    {
        for (const auto &e : entries_) {
            if (e.live && e.row == row)
                return e.count;
        }
        return 0;
    }

    std::uint64_t decrements() const { return dec_; }

    /** Hits on a live entry whose count had dropped to 0. */
    std::uint64_t staleHits() const { return staleHits_; }

  private:
    struct Entry
    {
        RowAddr row = 0;
        std::uint32_t count = 0;
        std::uint64_t decBase = 0;
        bool live = false;
    };

    RefreshAction
    refreshAround(RowAddr row)
    {
        const RefreshAction act = neighborRefresh(row, numRows_, nullptr);
        ++stats_.refreshEvents;
        stats_.victimRowsRefreshed += act.rowCount;
        return act;
    }

    std::uint32_t threshold_;
    std::uint64_t dec_ = 0;
    std::uint64_t staleHits_ = 0;
    std::vector<Entry> entries_;
};

/**
 * Seeded stream over @p rows rows: a hot row (refreshed over and over,
 * so its entry keeps dropping to count 0 while staying live), re-ACTs
 * of recently seen rows (which spills may have decremented to 0), and
 * uniform draws.
 */
std::vector<RowAddr>
mixedStream(std::uint64_t seed, std::size_t n, RowAddr rows)
{
    Xoshiro256StarStar rng(seed);
    std::vector<RowAddr> acts;
    std::vector<RowAddr> recent(64, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.nextDouble();
        RowAddr row;
        if (u < 0.2)
            row = rows / 2;
        else if (u < 0.5)
            row = recent[rng.nextBounded(recent.size())];
        else
            row = static_cast<RowAddr>(rng.nextBounded(rows));
        recent[i % recent.size()] = row;
        acts.push_back(row);
    }
    return acts;
}

/**
 * Seeded uniform stream over a working set of @p ws rows: with ws
 * above k the table spills constantly, and misses keep evicting stale
 * entries whose rows come back soon after.
 */
std::vector<RowAddr>
workingSetStream(std::uint64_t seed, std::size_t n, RowAddr ws)
{
    Xoshiro256StarStar rng(seed);
    std::vector<RowAddr> acts;
    for (std::size_t i = 0; i < n; ++i)
        acts.push_back(static_cast<RowAddr>(rng.nextBounded(ws)));
    return acts;
}

/**
 * Seeded stream over the rows whose row-index home slots fall in the
 * last and first sixteenth of @p mg's index: rows share home slots,
 * live entries pile into long probe runs, and the runs wrap around the
 * end of the index.
 */
std::vector<RowAddr>
collidingStream(const MisraGries &mg, std::uint64_t seed, std::size_t n,
                RowAddr rows)
{
    std::uint32_t slots = 0;
    for (RowAddr r = 0; r < rows; ++r)
        slots = std::max(slots, mg.indexHome(r) + 1);
    const std::uint32_t edge = std::max(2u, slots / 16);
    std::vector<RowAddr> pool;
    for (RowAddr r = 0; r < rows; ++r) {
        const std::uint32_t h = mg.indexHome(r);
        if (h + edge >= slots || h < edge)
            pool.push_back(r);
    }
    Xoshiro256StarStar rng(seed);
    std::vector<RowAddr> acts;
    for (std::size_t i = 0; i < n; ++i)
        acts.push_back(pool[rng.nextBounded(pool.size())]);
    return acts;
}

void
expectSameStats(const SchemeStats &a, const SchemeStats &b)
{
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.refreshEvents, b.refreshEvents);
    EXPECT_EQ(a.victimRowsRefreshed, b.victimRowsRefreshed);
    EXPECT_EQ(a.sramAccesses, b.sramAccesses);
    EXPECT_EQ(a.prngBits, b.prngBits);
    EXPECT_EQ(a.splits, b.splits);
    EXPECT_EQ(a.merges, b.merges);
    EXPECT_EQ(a.epochResets, b.epochResets);
    EXPECT_EQ(a.counterDramReads, b.counterDramReads);
    EXPECT_EQ(a.counterDramWrites, b.counterDramWrites);
}

/**
 * Run @p acts through both tables, an epoch every @p epoch ACTs, and
 * require identical behavior after every ACT.
 */
void
expectMatchesScan(MisraGries &mg, LinearScanMisraGries &scan,
                  const std::vector<RowAddr> &acts, std::size_t epoch)
{
    for (std::size_t i = 0; i < acts.size(); ++i) {
        if (i > 0 && i % epoch == 0) {
            mg.onEpoch();
            scan.onEpoch();
        }
        const RowAddr row = acts[i];
        const RefreshAction a = mg.onActivate(row);
        const RefreshAction b = scan.onActivate(row);
        ASSERT_EQ(a.rowCount, b.rowCount) << "ACT " << i;
        ASSERT_EQ(a.lo, b.lo) << "ACT " << i;
        ASSERT_EQ(a.hi, b.hi) << "ACT " << i;
        ASSERT_EQ(mg.trackedCount(row), scan.trackedCount(row))
            << "ACT " << i << " row " << row;
        ASSERT_EQ(mg.decrements(), scan.decrements()) << "ACT " << i;
        ASSERT_EQ(mg.stats().sramAccesses, scan.stats().sramAccesses)
            << "ACT " << i;
        ASSERT_EQ(mg.stats().refreshEvents, scan.stats().refreshEvents)
            << "ACT " << i;
    }
    expectSameStats(mg.stats(), scan.stats());
}

} // namespace

TEST(MisraGries, NameAndEntryCount)
{
    MisraGries mg(kRows, 8, 32768);
    EXPECT_EQ(mg.name(), "MG_8");
    EXPECT_EQ(mg.numEntries(), 8u);
}

TEST(MisraGries, RefreshesNeighborsOfTriggeringRow)
{
    MisraGries mg(kRows, 4, 2);
    EXPECT_FALSE(mg.onActivate(100).triggered());
    const RefreshAction act = mg.onActivate(100);
    ASSERT_TRUE(act.triggered());
    EXPECT_EQ(act.lo, 99u);
    EXPECT_EQ(act.hi, 101u);
    EXPECT_EQ(act.rowCount, 2u) << "aggressor itself not refreshed";
    EXPECT_EQ(mg.stats().refreshEvents, 1u);
    EXPECT_EQ(mg.stats().victimRowsRefreshed, 2u);

    // Edge rows have a single victim.
    MisraGries edge(kRows, 4, 2);
    edge.onActivate(0);
    const RefreshAction low = edge.onActivate(0);
    ASSERT_TRUE(low.triggered());
    EXPECT_EQ(low.rowCount, 1u);
    EXPECT_EQ(low.lo, 1u);
}

TEST(MisraGries, UnderestimateBoundAgainstExactOracle)
{
    // k = 8 entries against a 64-row working set: evictions and
    // decrements happen constantly.  The sketch must never OVER-count,
    // and its underestimate is bounded by the global spill counter,
    // itself at most N/(k+1) after N activations.
    constexpr std::uint32_t kEntries = 8;
    MisraGries mg(kRows, kEntries, kNeverTrigger);
    std::map<RowAddr, std::uint64_t> truth;
    Xoshiro256StarStar rng(99);
    std::uint64_t n = 0;
    for (int i = 0; i < 50000; ++i) {
        const auto row = static_cast<RowAddr>(rng.nextBounded(64));
        ++truth[row];
        mg.onActivate(row);
        ++n;
        if (i % 1000 != 0)
            continue;
        ASSERT_LE(mg.decrements() * (kEntries + 1), n)
            << "spill counter above N/(k+1) after " << n << " acts";
        for (const auto &[r, trueCount] : truth) {
            const std::uint64_t tracked = mg.trackedCount(r);
            ASSERT_LE(tracked, trueCount)
                << "sketch over-counted row " << r;
            ASSERT_LE(trueCount - tracked, mg.decrements())
                << "underestimate of row " << r
                << " exceeds the spill total";
        }
    }
}

TEST(MisraGries, AdversarialRoundRobinMeetsTightBound)
{
    // Round robin over k+1 rows is the classic worst case: every
    // (k+1)-th activation misses a full table and decrements, so the
    // spill counter tracks N/(k+1) exactly and the (k+1)-th row's
    // underestimate equals the bound.
    constexpr std::uint32_t kEntries = 4;
    MisraGries mg(kRows, kEntries, kNeverTrigger);
    constexpr std::uint64_t kCycles = 1000;
    for (std::uint64_t c = 0; c < kCycles; ++c)
        for (RowAddr row = 0; row <= kEntries; ++row)
            mg.onActivate(row);
    EXPECT_EQ(mg.decrements(), kCycles);
    EXPECT_EQ(mg.trackedCount(kEntries), 0u)
        << "the overflowing row is never retained";
    // true(k) - tracked(k) == kCycles - 0 == decrements: bound tight.
}

TEST(MisraGries, NoFalseNegativeWithGrapheneSizedTable)
{
    // Sized per Graphene: entries + 1 = 129 > 60000 acts / T=500, so
    // the spill counter stays below T and the conservative miss path
    // never fires - yet an embedded heavy hitter (30% of the stream)
    // must still be refreshed every <= T of its own activations.
    constexpr std::uint32_t kThreshold = 500;
    MisraGries mg(8192, 128, kThreshold);
    std::vector<RowAddr> acts;
    Xoshiro256StarStar rng(7);
    for (int i = 0; i < 60000; ++i) {
        acts.push_back(rng.nextDouble() < 0.3
                           ? RowAddr(4000)
                           : static_cast<RowAddr>(
                                 rng.nextBounded(8000)));
    }
    std::map<RowAddr, std::uint64_t> since;
    assertNoFalseNegative(mg, acts, kThreshold, since);
    EXPECT_LT(mg.decrements(), kThreshold)
        << "a Graphene-sized table must never hit the "
           "conservative miss path";
    // ~18000 heavy-hitter acts at T=500 demand dozens of refreshes.
    EXPECT_GE(mg.stats().refreshEvents, 30u);
}

TEST(MisraGries, NoFalseNegativeWhenUndersized)
{
    // 4 entries against 40 round-robin rows plus a heavy hitter: the
    // spill counter blows through T, and the scheme must degrade to
    // conservative refreshes instead of losing the guarantee.
    constexpr std::uint32_t kThreshold = 50;
    MisraGries mg(kRows, 4, kThreshold);
    std::vector<RowAddr> acts;
    for (int i = 0; i < 20000; ++i) {
        acts.push_back(static_cast<RowAddr>(i % 40));
        if (i % 3 == 0)
            acts.push_back(777);
    }
    std::map<RowAddr, std::uint64_t> since;
    assertNoFalseNegative(mg, acts, kThreshold, since);
    EXPECT_GE(mg.decrements(), kThreshold)
        << "this stream is supposed to exercise the undersized path";
}

TEST(MisraGries, EpochResetClearsSketchAndKeepsGuarantee)
{
    constexpr std::uint32_t kThreshold = 60;
    MisraGries mg(kRows, 6, kThreshold);
    std::vector<RowAddr> acts;
    Xoshiro256StarStar rng(21);
    for (int i = 0; i < 5000; ++i)
        acts.push_back(static_cast<RowAddr>(rng.nextBounded(30)));

    for (int epoch = 0; epoch < 3; ++epoch) {
        // Retention refresh clears true disturbance too, so the
        // oracle restarts with the sketch.
        std::map<RowAddr, std::uint64_t> since;
        assertNoFalseNegative(mg, acts, kThreshold, since);
        mg.onEpoch();
        EXPECT_EQ(mg.decrements(), 0u);
        for (RowAddr row = 0; row < 30; ++row)
            EXPECT_EQ(mg.trackedCount(row), 0u);
    }
    EXPECT_EQ(mg.stats().epochResets, 3u);
}

TEST(MisraGries, BatchMatchesPerActivationStats)
{
    MisraGries single(kRows, 16, 64);
    MisraGries batched(kRows, 16, 64);
    std::vector<RowAddr> acts;
    Xoshiro256StarStar rng(5);
    for (int i = 0; i < 20000; ++i)
        acts.push_back(static_cast<RowAddr>(rng.nextBounded(256)));

    for (const RowAddr row : acts)
        single.onActivate(row);
    for (std::size_t i = 0; i < acts.size(); i += 777) {
        const std::size_t n = std::min<std::size_t>(777,
                                                    acts.size() - i);
        batched.onActivateBatch(acts.data() + i, n);
    }

    const SchemeStats &a = single.stats();
    const SchemeStats &b = batched.stats();
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.refreshEvents, b.refreshEvents);
    EXPECT_EQ(a.victimRowsRefreshed, b.victimRowsRefreshed);
    EXPECT_EQ(a.sramAccesses, b.sramAccesses);
    EXPECT_EQ(a.epochResets, b.epochResets);
    EXPECT_EQ(single.decrements(), batched.decrements());
    for (RowAddr row = 0; row < 256; ++row)
        ASSERT_EQ(single.trackedCount(row), batched.trackedCount(row))
            << "row " << row;
}

TEST(MisraGriesDiff, IndexedMatchesFrozenLinearScan)
{
    constexpr std::size_t kActs = 24000;
    constexpr std::size_t kEpoch = 7001;  // epochs land mid-stream
    for (const std::uint32_t k : {1u, 2u, 63u, 64u, 65u, 512u}) {
        // Graphene sizing (k + 1 > acts per epoch / T) keeps the spill
        // counter below T; the undersized thresholds let it pass T so
        // the conservative refresh-per-miss path fires.  Past T - 1
        // every fill refreshes and leaves its entry free with a
        // nonzero spill baseline, so which free entry a miss reuses
        // decides later refreshes.
        const std::uint32_t sized =
            static_cast<std::uint32_t>(kEpoch / (k + 1) + 2);
        const std::uint32_t undersized = std::max(2u, sized / 8);
        std::uint64_t staleHits = 0;
        std::uint64_t maxSpills = 0;
        std::uint64_t maxCollidingSpills = 0;
        for (const std::uint32_t threshold : {sized, undersized, 2u}) {
            const auto check = [&](RowAddr rows, const char *stream,
                                   auto &&make) {
                SCOPED_TRACE(testing::Message()
                             << "k " << k << " T " << threshold
                             << " rows " << rows << " " << stream);
                MisraGries mg(rows, k, threshold);
                LinearScanMisraGries scan(rows, k, threshold);
                expectMatchesScan(mg, scan, make(mg), kEpoch);
                staleHits += scan.staleHits();
                return scan.decrements();
            };
            // Bank sizes above and below k: the index is sized by
            // min(k, rows), so a tiny bank packs it full.
            for (const RowAddr rows : {RowAddr(4 * k + 8), RowAddr(8192),
                                       RowAddr(std::max(2u, k / 2))}) {
                const std::uint64_t seed = k * 31 + threshold + rows;
                maxSpills = std::max(
                    maxSpills,
                    check(rows, "mixed", [&](const MisraGries &) {
                        return mixedStream(seed, kActs, rows);
                    }));
                maxCollidingSpills = std::max(
                    maxCollidingSpills,
                    check(rows, "colliding", [&](const MisraGries &mg) {
                        return collidingStream(mg, seed, kActs, rows);
                    }));
            }
            const RowAddr ws = k + k / 2 + 2;
            check(8192, "working set", [&](const MisraGries &) {
                return workingSetStream(k + threshold, kActs, ws);
            });
        }
        // The streams must reach the cases the index could get wrong:
        // stale live entries, the refresh-per-miss path (spills past
        // the undersized T), and a full colliding index.
        EXPECT_GT(staleHits, 0u)
            << "k " << k << ": no hit on a live count-0 entry";
        EXPECT_GE(maxSpills, undersized) << "k " << k;
        EXPECT_GT(maxCollidingSpills, 0u)
            << "k " << k << ": colliding rows never filled the table";
    }
}

TEST(MisraGries, AdjacencyModelSelectsPhysicalVictims)
{
    const RowAdjacency adj(RowAdjacency::Kind::BlockMirrored, kRows);
    MisraGries mg(kRows, 4, 2);
    mg.setAdjacency(&adj);
    mg.onActivate(1000);
    const RefreshAction act = mg.onActivate(1000);
    ASSERT_TRUE(act.triggered());
    std::array<RowAddr, 2> victims{};
    const std::uint32_t n = adj.victims(1000, victims);
    ASSERT_EQ(n, 2u);
    EXPECT_EQ(act.lo, std::min(victims[0], victims[1]));
    EXPECT_EQ(act.hi, std::max(victims[0], victims[1]));
    EXPECT_EQ(act.rowCount, 2u);
}

TEST(MisraGriesDeath, RejectsBadConfig)
{
    EXPECT_EXIT(MisraGries(kRows, 0, 32768),
                ::testing::ExitedWithCode(1), "at least one entry");
    EXPECT_EXIT(MisraGries(kRows, 8, 1), ::testing::ExitedWithCode(1),
                "threshold");
}

} // namespace catsim
