/**
 * @file
 * Tests for the parallel sweep engine: serial/parallel equivalence,
 * baseline dedup under contention, baseline-first dispatch order, and
 * the on-disk baseline cache.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "sim/baseline_io.hpp"
#include "sim/sweep.hpp"

namespace catsim
{

namespace
{

// The runner reads CATSIM_BASELINE_CACHE at construction; these tests
// count baseline computations and disk loads, so an inherited cache
// dir (or jobs override) must not leak in from the environment.
const bool kEnvScrubbed = [] {
    ::unsetenv("CATSIM_BASELINE_CACHE");
    ::unsetenv("CATSIM_JOBS");
    ::unsetenv("CATSIM_CHECKPOINT");
    ::unsetenv("CATSIM_SWEEP_KEEP_GOING");
    return true;
}();

constexpr double kTestScale = 0.02;

std::vector<SweepCell>
smallGrid()
{
    std::vector<SweepCell> cells;
    for (const char *name : {"comm1", "swapt"}) {
        for (SchemeKind kind : {SchemeKind::Drcat, SchemeKind::Sca,
                                SchemeKind::Pra}) {
            SweepCell c;
            c.workload.name = name;
            c.scheme.kind = kind;
            c.scheme.numCounters = 64;
            c.scheme.maxLevels = 11;
            c.scheme.threshold = 32768;
            c.scheme.praProbability = 0.002;
            cells.push_back(c);
        }
    }
    return cells;
}

void
expectBitIdentical(const EvalResult &a, const EvalResult &b,
                   std::size_t i)
{
    EXPECT_EQ(a.cmrpo, b.cmrpo) << "cell " << i;
    EXPECT_EQ(a.baselineSeconds, b.baselineSeconds) << "cell " << i;
    EXPECT_EQ(a.power.dynamic, b.power.dynamic) << "cell " << i;
    EXPECT_EQ(a.power.statik, b.power.statik) << "cell " << i;
    EXPECT_EQ(a.power.refresh, b.power.refresh) << "cell " << i;
    EXPECT_EQ(a.stats.activations, b.stats.activations) << "cell " << i;
    EXPECT_EQ(a.stats.victimRowsRefreshed, b.stats.victimRowsRefreshed)
        << "cell " << i;
    EXPECT_EQ(a.stats.prngBits, b.stats.prngBits) << "cell " << i;
    EXPECT_EQ(a.stats.sramAccesses, b.stats.sramAccesses)
        << "cell " << i;
}

/** Fresh scratch dir under the test temp root. */
std::filesystem::path
freshCacheDir(const std::string &name)
{
    const auto dir =
        std::filesystem::temp_directory_path() / ("catsim_" + name);
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

TEST(Sweep, ParallelMatchesSerialBitForBit)
{
    const auto cells = smallGrid();

    SweepRunner serial(kTestScale, 1);
    const auto expected = serial.runCmrpo(cells);

    SweepRunner parallel4(kTestScale, 4);
    const auto got = parallel4.runCmrpo(cells);

    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectBitIdentical(expected[i], got[i], i);
}

TEST(Sweep, EtoParallelMatchesSerial)
{
    std::vector<SweepCell> cells = smallGrid();
    cells.resize(3); // ETO cells run full timing sims; keep it small

    SweepRunner serial(kTestScale, 1);
    SweepRunner parallel4(kTestScale, 4);
    const auto expected = serial.runEto(cells);
    const auto got = parallel4.runEto(cells);

    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(expected[i], got[i]) << "cell " << i;
}

TEST(Sweep, RunMetricParallelMatchesSerial)
{
    // Custom per-cell metrics (the ablation bench's path) must come
    // back cell-indexed and identical at any job count; the tag field
    // must reach the callback.
    std::vector<SweepCell> cells;
    for (const char *name : {"comm1", "swapt"}) {
        for (std::uint64_t tag = 0; tag < 3; ++tag) {
            SweepCell c;
            c.workload.name = name;
            c.tag = tag;
            cells.push_back(c);
        }
    }
    const auto metric = [](ExperimentRunner &runner,
                           const SweepCell &cell) {
        const auto &base =
            runner.baseline(cell.preset, cell.workload);
        // Deterministic function of the baseline and the tag.
        return static_cast<double>(base.totalActivations)
               * static_cast<double>(cell.tag + 1);
    };

    SweepRunner serial(kTestScale, 1);
    SweepRunner parallel4(kTestScale, 4);
    const auto expected = serial.runMetric(cells, metric);
    const auto got = parallel4.runMetric(cells, metric);

    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i], got[i]) << "cell " << i;
        EXPECT_GT(expected[i], 0.0) << "cell " << i;
    }
    // Tags scale the metric, so cells sharing a workload must differ.
    EXPECT_EQ(expected[1], 2.0 * expected[0]);
    EXPECT_EQ(expected[2], 3.0 * expected[0]);
}

TEST(Sweep, AdaptiveParallelMatchesSerialWithoutBaselines)
{
    // Closed-loop cells must be pure functions of their spec: same
    // results at any job count, and no recorded baseline is ever
    // computed (the whole point of the closed-loop path).
    std::vector<AdaptiveCell> cells;
    for (AttackerKind a : {AttackerKind::Static,
                           AttackerKind::MultiBank,
                           AttackerKind::RefreshAware}) {
        for (SchemeKind kind : {SchemeKind::Drcat,
                                SchemeKind::CounterCache}) {
            AdaptiveCell c;
            c.attack.attacker = a;
            c.attack.kernel = 2;
            c.attack.epochs = 1;
            c.scheme.kind = kind;
            c.scheme.numCounters =
                kind == SchemeKind::CounterCache ? 2048 : 64;
            c.scheme.maxLevels = 11;
            c.scheme.threshold = 32768;
            cells.push_back(c);
        }
    }

    SweepRunner serial(kTestScale, 1);
    const auto expected = serial.runAdaptive(cells);
    EXPECT_EQ(serial.runner().baselineComputeCount(), 0u);

    SweepRunner parallel4(kTestScale, 4);
    const auto got = parallel4.runAdaptive(cells);
    EXPECT_EQ(parallel4.runner().baselineComputeCount(), 0u);

    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        expectBitIdentical(expected[i], got[i], i);
        EXPECT_GT(got[i].cmrpo, 0.0) << "cell " << i;
    }
}

TEST(Sweep, BaselineComputedOnceUnderContention)
{
    // Eight cells hammer the same (preset, workload) concurrently;
    // the shared-future cache must run the baseline exactly once.
    std::vector<SweepCell> cells;
    for (std::uint32_t m : {16u, 32u, 64u, 128u, 256u, 512u, 1024u,
                            2048u}) {
        SweepCell c;
        c.workload.name = "comm1";
        c.scheme.kind = SchemeKind::Sca;
        c.scheme.numCounters = m;
        cells.push_back(c);
    }
    SweepRunner sweep(kTestScale, 8);
    const auto results = sweep.runCmrpo(cells);
    EXPECT_EQ(sweep.runner().baselineComputeCount(), 1u);
    EXPECT_EQ(results.size(), cells.size());
    for (const auto &r : results)
        EXPECT_GT(r.cmrpo, 0.0);
}

TEST(Sweep, ResultsIndexedByCellNotCompletionOrder)
{
    // Uneven per-cell work (PRA replays are cheap, DRCAT heavier):
    // results must still line up with their cells.
    const auto cells = smallGrid();
    SweepRunner sweep(kTestScale, 4);
    const auto results = sweep.runCmrpo(cells);
    ExperimentRunner direct(kTestScale);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto r = direct.evalCmrpo(cells[i].preset,
                                        cells[i].workload,
                                        cells[i].scheme);
        EXPECT_EQ(results[i].cmrpo, r.cmrpo) << "cell " << i;
    }
}

TEST(Sweep, DistinctBaselinesDispatchedFirst)
{
    // Workload-major grids start the first cell of every distinct
    // baseline before any baseline's second cell.  One job makes the
    // start order observable; tags carry the grid index.
    auto cells = smallGrid(); // comm1 x 3, then swapt x 3
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i].tag = i;
    std::vector<std::size_t> started;
    SweepRunner serial(kTestScale, 1);
    const auto results = serial.runMetric(
        cells, [&started](ExperimentRunner &, const SweepCell &c) {
            started.push_back(c.tag);
            return static_cast<double>(c.tag);
        });
    EXPECT_EQ(started, (std::vector<std::size_t>{0, 3, 1, 4, 2, 5}));
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(results[i], static_cast<double>(i))
            << "results stay indexed by cell";

    // Adaptive grids have no baseline and keep index order, even when
    // their presets alternate (which a baseline-key order would group).
    std::vector<AdaptiveCell> adaptive(4);
    for (std::size_t i = 0; i < adaptive.size(); ++i) {
        adaptive[i].preset = i < 2 ? SystemPreset::DualCore2Ch
                                   : SystemPreset::QuadCore2Ch;
        adaptive[i].attack.seed = i;
    }
    std::vector<std::uint64_t> adaptiveStarted;
    serial.runAdaptiveMetric(
        adaptive,
        [&adaptiveStarted](ExperimentRunner &, const AdaptiveCell &c) {
            adaptiveStarted.push_back(c.attack.seed);
            return 0.0;
        });
    EXPECT_EQ(adaptiveStarted, (std::vector<std::uint64_t>{0, 1, 2, 3}));

    // Four workloads x three schemes at four jobs: one baseline per
    // workload, and the dispatch order never changes a result.
    std::vector<SweepCell> grid;
    for (const char *name : {"comm1", "comm2", "swapt", "libq"}) {
        for (SchemeKind kind :
             {SchemeKind::Drcat, SchemeKind::Sca, SchemeKind::Pra}) {
            SweepCell c;
            c.workload.name = name;
            c.scheme.kind = kind;
            c.scheme.numCounters = 64;
            c.scheme.maxLevels = 11;
            c.scheme.threshold = 32768;
            c.scheme.praProbability = 0.002;
            grid.push_back(c);
        }
    }
    SweepRunner one(kTestScale, 1);
    const auto expected = one.runCmrpo(grid);
    SweepRunner four(kTestScale, 4);
    const auto got = four.runCmrpo(grid);
    EXPECT_EQ(one.runner().baselineComputeCount(), 4u);
    EXPECT_EQ(four.runner().baselineComputeCount(), 4u);
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectBitIdentical(expected[i], got[i], i);
}

TEST(SweepDiskCache, RoundTrip)
{
    const auto dir = freshCacheDir("sweep_cache_roundtrip");
    const auto cells = smallGrid();

    SweepRunner first(kTestScale, 2);
    first.runner().setBaselineCacheDir(dir.string());
    const auto expected = first.runCmrpo(cells);
    EXPECT_EQ(first.runner().baselineComputeCount(), 2u);
    EXPECT_EQ(first.runner().baselineDiskLoads(), 0u);

    // A fresh runner over the same dir must load, not recompute,
    // and produce bit-identical results.
    SweepRunner second(kTestScale, 2);
    second.runner().setBaselineCacheDir(dir.string());
    const auto got = second.runCmrpo(cells);
    EXPECT_EQ(second.runner().baselineComputeCount(), 0u);
    EXPECT_EQ(second.runner().baselineDiskLoads(), 2u);
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectBitIdentical(expected[i], got[i], i);

    std::filesystem::remove_all(dir);
}

TEST(SweepDiskCache, CorruptFileRecomputed)
{
    const auto dir = freshCacheDir("sweep_cache_corrupt");

    WorkloadSpec w;
    w.name = "comm1";
    ExperimentRunner first(kTestScale);
    first.setBaselineCacheDir(dir.string());
    const auto &base = first.baseline(SystemPreset::DualCore2Ch, w);
    EXPECT_GT(base.totalActivations, 0u);

    const std::string path =
        first.baselineCachePath(SystemPreset::DualCore2Ch, w);
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(std::filesystem::exists(path));
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "not a baseline";
    }

    ExperimentRunner second(kTestScale);
    second.setBaselineCacheDir(dir.string());
    const auto &again = second.baseline(SystemPreset::DualCore2Ch, w);
    EXPECT_EQ(second.baselineDiskLoads(), 0u);
    EXPECT_EQ(second.baselineComputeCount(), 1u);
    EXPECT_EQ(again.totalActivations, base.totalActivations);
    EXPECT_EQ(again.execCycles, base.execCycles);

    std::filesystem::remove_all(dir);
}

TEST(SweepDiskCache, ScaleMismatchMissesCache)
{
    const auto dir = freshCacheDir("sweep_cache_scale");

    WorkloadSpec w;
    w.name = "comm1";
    ExperimentRunner first(kTestScale);
    first.setBaselineCacheDir(dir.string());
    first.baseline(SystemPreset::DualCore2Ch, w);

    ExperimentRunner other(0.03);
    other.setBaselineCacheDir(dir.string());
    other.baseline(SystemPreset::DualCore2Ch, w);
    EXPECT_EQ(other.baselineDiskLoads(), 0u)
        << "a different scale must not reuse cached streams";
    EXPECT_EQ(other.baselineComputeCount(), 1u);

    std::filesystem::remove_all(dir);
}

TEST(SweepDiskCache, FileNameEncodesKeyAndScale)
{
    const auto a = baselineCacheFileName("0/comm1/42", 0.02);
    const auto b = baselineCacheFileName("0/comm2/42", 0.02);
    const auto c = baselineCacheFileName("0/comm1/42", 0.05);
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a, baselineCacheFileName("0/comm1/42", 0.02));
    EXPECT_EQ(a.find('/'), std::string::npos)
        << "file name must be path-safe, got " << a;
    // Pinned: a renamed file would orphan every existing cache entry.
    EXPECT_EQ(a, "0_comm1_42-3926b532acce55b0-3f947ae147ae147b.catb");
}

} // namespace catsim
