/**
 * @file
 * Tests for the crash-safe run journal (sim/checkpoint) and its
 * integration with the sweep engine and Monte-Carlo campaigns: a
 * journal killed at ANY byte offset must resume to byte-identical
 * results, corrupt records must never be served, and keep-going mode
 * must record failures without poisoning the rest of the grid.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "reliability/montecarlo.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sweep.hpp"

namespace catsim
{

namespace
{

// Checkpointing, keep-going, job count, and fail-points must come from
// the tests themselves, not the invoking environment.
const bool kEnvScrubbed = [] {
    ::unsetenv("CATSIM_BASELINE_CACHE");
    ::unsetenv("CATSIM_JOBS");
    ::unsetenv("CATSIM_CHECKPOINT");
    ::unsetenv("CATSIM_SWEEP_KEEP_GOING");
    fault::installFailpoints("");
    return true;
}();

constexpr double kTestScale = 0.02;

struct FailpointGuard
{
    ~FailpointGuard() { fault::installFailpoints(""); }
};

std::filesystem::path
freshDir(const std::string &name)
{
    const auto dir =
        std::filesystem::temp_directory_path() / ("catsim_" + name);
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string s((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    return s;
}

void
writeFile(const std::filesystem::path &path, const std::string &bytes)
{
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** A small metric grid: cells distinguished purely by tag. */
std::vector<SweepCell>
tagGrid(std::size_t n)
{
    std::vector<SweepCell> cells(n);
    for (std::size_t i = 0; i < n; ++i) {
        cells[i].workload.name = "comm1";
        cells[i].tag = i;
    }
    return cells;
}

/** Two workloads x three schemes, workload-major (comm1 then swapt):
 *  baseline-first dispatch runs it as cells 0, 3, 1, 4, 2, 5. */
std::vector<SweepCell>
smallGrid()
{
    std::vector<SweepCell> cells;
    for (const char *name : {"comm1", "swapt"}) {
        for (SchemeKind kind :
             {SchemeKind::Drcat, SchemeKind::Sca, SchemeKind::Pra}) {
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

/** Cheap deterministic metric: irrational in the tag, ignores the
 *  runner, so resume equality is a strict bit-pattern check. */
double
tagMetric(const SweepCell &c)
{
    return std::sqrt(static_cast<double>(c.tag) + 2.0) * 0.125
           + static_cast<double>(c.tag);
}

} // namespace

TEST(CheckpointBlob, RoundTripIsBitExact)
{
    BlobWriter w;
    w.putU64(0);
    w.putU64(~0ULL);
    w.putDouble(-0.0);
    w.putDouble(5e-324); // smallest denormal
    w.putDouble(0.1);    // not exactly representable
    const std::string blob = w.str();
    EXPECT_EQ(blob.size(), 2 * 8 + 3 * 8);

    BlobReader r(blob);
    std::uint64_t a = 1, b = 1;
    double x = 0, y = 0, z = 0;
    ASSERT_TRUE(r.getU64(&a) && r.getU64(&b) && r.getDouble(&x)
                && r.getDouble(&y) && r.getDouble(&z));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, ~0ULL);
    EXPECT_TRUE(std::signbit(x) && x == 0.0);
    EXPECT_EQ(y, 5e-324);
    EXPECT_EQ(z, 0.1);
    // Reads past the end fail instead of fabricating data.
    EXPECT_FALSE(r.getU64(&a));
}

TEST(CheckpointJournalTest, RoundTripAcrossReopen)
{
    const auto dir = freshDir("ckpt_roundtrip");
    {
        CheckpointJournal j(dir.string(), "run-key");
        EXPECT_EQ(j.replayedRecords(), 0u);
        j.append("cell0", "blob zero");
        j.append("cell1", std::string("\x00\x01\xFF", 3));
        j.append("cell2", "");
    }
    CheckpointJournal j(dir.string(), "run-key");
    EXPECT_EQ(j.replayedRecords(), 3u);
    std::string blob;
    ASSERT_TRUE(j.lookup("cell0", &blob));
    EXPECT_EQ(blob, "blob zero");
    ASSERT_TRUE(j.lookup("cell1", &blob));
    EXPECT_EQ(blob, std::string("\x00\x01\xFF", 3));
    ASSERT_TRUE(j.lookup("cell2", &blob));
    EXPECT_EQ(blob, "");
    EXPECT_FALSE(j.lookup("cell3", &blob));
    std::filesystem::remove_all(dir);
}

TEST(CheckpointJournalTest, DistinctRunKeysUseDistinctFiles)
{
    EXPECT_NE(checkpointFileName("grid A"), checkpointFileName("grid B"));
    EXPECT_EQ(checkpointFileName("grid A"), checkpointFileName("grid A"));
    // Pinned: a renamed file would orphan every existing journal.
    EXPECT_EQ(checkpointFileName("grid A"), "run-c8751a5a850e3efc.catj");
}

TEST(CheckpointJournalTest, HeaderMismatchStartsFresh)
{
    const auto dir = freshDir("ckpt_header");
    const auto path =
        std::filesystem::path(dir) / checkpointFileName("run-key");
    writeFile(path, "this is not a journal header at all............");

    CheckpointJournal j(dir.string(), "run-key");
    EXPECT_EQ(j.replayedRecords(), 0u);
    j.append("cell0", "fresh");
    CheckpointJournal k(dir.string(), "run-key");
    EXPECT_EQ(k.replayedRecords(), 1u);
    std::filesystem::remove_all(dir);
}

/**
 * THE crash-safety property: truncate the journal at every byte
 * offset (every possible SIGKILL point of the append stream), reopen,
 * and require that (a) every record the replay serves is byte-equal to
 * what was appended - never a torn or corrupt blob - and (b) after
 * re-appending whatever is missing, the journal is whole again.
 */
TEST(CheckpointJournalTest, TruncationAtEveryOffsetIsSafe)
{
    const auto dir = freshDir("ckpt_trunc");
    const std::vector<std::pair<std::string, std::string>> records = {
        {"cell0", "first blob"},
        {"cell1", std::string(40, 'x')},
        {"cell2", ""},
        {"cell3", "tail blob with some length to it"},
    };
    {
        CheckpointJournal j(dir.string(), "trunc-key");
        for (const auto &[k, v] : records)
            j.append(k, v);
    }
    const auto path =
        std::filesystem::path(dir) / checkpointFileName("trunc-key");
    const std::string full = readFile(path);
    ASSERT_GT(full.size(), 0u);

    for (std::size_t len = 0; len < full.size(); ++len) {
        const auto d = freshDir("ckpt_trunc_case");
        writeFile(std::filesystem::path(d)
                      / checkpointFileName("trunc-key"),
                  full.substr(0, len));
        {
            CheckpointJournal j(d.string(), "trunc-key");
            EXPECT_LE(j.replayedRecords(), records.size());
            std::string blob;
            for (const auto &[k, v] : records) {
                if (j.lookup(k, &blob))
                    EXPECT_EQ(blob, v)
                        << "corrupt blob served for " << k
                        << " at truncation " << len;
                else
                    j.append(k, v); // the resume path re-runs it
            }
        }
        CheckpointJournal j(d.string(), "trunc-key");
        EXPECT_EQ(j.replayedRecords(), records.size())
            << "journal not whole after resume at truncation " << len;
        std::string blob;
        for (const auto &[k, v] : records) {
            ASSERT_TRUE(j.lookup(k, &blob)) << k;
            EXPECT_EQ(blob, v) << k;
        }
        std::filesystem::remove_all(d);
    }
    std::filesystem::remove_all(dir);
}

/** Bit flips anywhere in the file must never surface a wrong blob. */
TEST(CheckpointJournalTest, BitFlipsNeverServeCorruptRecords)
{
    const auto dir = freshDir("ckpt_flip");
    const std::vector<std::pair<std::string, std::string>> records = {
        {"cell0", "first blob"},
        {"cell1", std::string(24, 'y')},
        {"cell2", "third"},
    };
    {
        CheckpointJournal j(dir.string(), "flip-key");
        for (const auto &[k, v] : records)
            j.append(k, v);
    }
    const auto path =
        std::filesystem::path(dir) / checkpointFileName("flip-key");
    const std::string full = readFile(path);

    for (std::size_t pos = 0; pos < full.size(); pos += 3) {
        std::string mutated = full;
        mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
        const auto d = freshDir("ckpt_flip_case");
        writeFile(std::filesystem::path(d)
                      / checkpointFileName("flip-key"),
                  mutated);
        CheckpointJournal j(d.string(), "flip-key");
        std::string blob;
        for (const auto &[k, v] : records) {
            if (j.lookup(k, &blob)) {
                EXPECT_EQ(blob, v)
                    << "bit flip at " << pos << " served corrupt " << k;
            }
        }
        std::filesystem::remove_all(d);
    }
    std::filesystem::remove_all(dir);
}

TEST(CheckpointSweep, ResumeSkipsJournaledCells)
{
    const auto dir = freshDir("ckpt_sweep_resume");
    const auto cells = tagGrid(5);
    std::atomic<int> evals{0};
    const auto fn = [&evals](ExperimentRunner &, const SweepCell &c) {
        evals.fetch_add(1);
        return tagMetric(c);
    };

    SweepRunner first(kTestScale, 2);
    first.setCheckpointDir(dir.string());
    const auto expected = first.runMetric(cells, fn);
    EXPECT_EQ(evals.load(), 5);
    EXPECT_EQ(first.lastResumedCells(), 0u);

    evals.store(0);
    SweepRunner second(kTestScale, 2);
    second.setCheckpointDir(dir.string());
    const auto got = second.runMetric(cells, fn);
    EXPECT_EQ(evals.load(), 0) << "journaled cells must not re-run";
    EXPECT_EQ(second.lastResumedCells(), 5u);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << "cell " << i;
    std::filesystem::remove_all(dir);
}

TEST(CheckpointSweep, RepeatedGridsGetSeparateJournals)
{
    const auto dir = freshDir("ckpt_sweep_seq");
    const auto cells = tagGrid(3);
    // One bench process often runs the same grid through runMetric
    // twice with DIFFERENT callbacks; the per-kind sequence number
    // must keep their journals apart.
    const auto fnA = [](ExperimentRunner &, const SweepCell &c) {
        return tagMetric(c);
    };
    const auto fnB = [](ExperimentRunner &, const SweepCell &c) {
        return -tagMetric(c);
    };

    SweepRunner first(kTestScale, 1);
    first.setCheckpointDir(dir.string());
    const auto a1 = first.runMetric(cells, fnA);
    const auto b1 = first.runMetric(cells, fnB);

    SweepRunner second(kTestScale, 1);
    second.setCheckpointDir(dir.string());
    const auto a2 = second.runMetric(cells, fnA);
    EXPECT_EQ(second.lastResumedCells(), 3u);
    const auto b2 = second.runMetric(cells, fnB);
    EXPECT_EQ(second.lastResumedCells(), 3u);
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(b1, b2);
    EXPECT_NE(a2, b2) << "the two calls must not share one journal";
    std::filesystem::remove_all(dir);
}

/**
 * Kill the metric sweep's journal at every byte offset and resume at
 * two different job counts; every resumed grid must be byte-identical
 * to the uninterrupted reference.
 */
TEST(CheckpointSweep, KilledJournalResumesByteIdenticalAtAnyJobs)
{
    const auto dir = freshDir("ckpt_sweep_kill");
    const auto cells = tagGrid(4);
    const auto fn = [](ExperimentRunner &, const SweepCell &c) {
        return tagMetric(c);
    };

    SweepRunner ref(kTestScale, 1);
    const auto expected = ref.runMetric(cells, fn);

    SweepRunner writer(kTestScale, 1);
    writer.setCheckpointDir(dir.string());
    writer.runMetric(cells, fn);
    // The journal file is the only file in the directory.
    std::filesystem::path path;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        path = e.path();
    ASSERT_FALSE(path.empty());
    const std::string full = readFile(path);

    for (std::size_t len = 0; len < full.size(); len += 5) {
        for (std::size_t jobs : {std::size_t(1), std::size_t(4)}) {
            const auto d = freshDir("ckpt_sweep_kill_case");
            writeFile(std::filesystem::path(d) / path.filename(),
                      full.substr(0, len));
            SweepRunner resumed(kTestScale, jobs);
            resumed.setCheckpointDir(d.string());
            const auto got = resumed.runMetric(cells, fn);
            ASSERT_EQ(got.size(), expected.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i], expected[i])
                    << "cell " << i << " truncation " << len << " jobs "
                    << jobs;
            std::filesystem::remove_all(d);
        }
    }
    std::filesystem::remove_all(dir);
}

/** End-to-end: a real CMRPO grid killed mid-run by a fail-point
 *  resumes to bit-identical EvalResults (the EvalResult codec path). */
TEST(CheckpointSweep, CmrpoKillAndResumeBitIdentical)
{
    FailpointGuard guard;
    const auto dir = freshDir("ckpt_sweep_cmrpo");
    std::vector<SweepCell> cells;
    for (SchemeKind kind :
         {SchemeKind::Drcat, SchemeKind::Sca, SchemeKind::Pra}) {
        SweepCell c;
        c.workload.name = "comm1";
        c.scheme.kind = kind;
        c.scheme.numCounters = 64;
        c.scheme.maxLevels = 11;
        c.scheme.threshold = 32768;
        c.scheme.praProbability = 0.002;
        cells.push_back(c);
    }

    SweepRunner ref(kTestScale, 1);
    const auto expected = ref.runCmrpo(cells);

    // Serial run dies evaluating the third cell; the first two are
    // already journaled.
    SweepRunner victim(kTestScale, 1);
    victim.setCheckpointDir(dir.string());
    fault::installFailpoints("sweep_cell@3");
    EXPECT_THROW(victim.runCmrpo(cells), std::runtime_error);
    fault::installFailpoints("");

    SweepRunner resumed(kTestScale, 1);
    resumed.setCheckpointDir(dir.string());
    const auto got = resumed.runCmrpo(cells);
    EXPECT_EQ(resumed.lastResumedCells(), 2u);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].cmrpo, expected[i].cmrpo) << "cell " << i;
        EXPECT_EQ(got[i].baselineSeconds, expected[i].baselineSeconds);
        EXPECT_EQ(got[i].power.dynamic, expected[i].power.dynamic);
        EXPECT_EQ(got[i].stats.activations, expected[i].stats.activations);
        EXPECT_EQ(got[i].stats.prngBits, expected[i].stats.prngBits);
    }

    // Fully journaled now: a third run resumes everything and never
    // computes a baseline.
    SweepRunner third(kTestScale, 1);
    third.setCheckpointDir(dir.string());
    const auto again = third.runCmrpo(cells);
    EXPECT_EQ(third.lastResumedCells(), 3u);
    EXPECT_EQ(third.runner().baselineComputeCount(), 0u);
    for (std::size_t i = 0; i < again.size(); ++i)
        EXPECT_EQ(again[i].cmrpo, expected[i].cmrpo) << "cell " << i;
    std::filesystem::remove_all(dir);
}

/** A multi-workload grid killed mid-run: the fail-point counts cells
 *  in dispatch order, while the error, journal and results stay
 *  indexed by grid cell. */
TEST(CheckpointSweep, MultiWorkloadKillAndResumeBitIdentical)
{
    FailpointGuard guard;
    const auto dir = freshDir("ckpt_sweep_multi");
    const auto cells = smallGrid();

    SweepRunner ref(kTestScale, 1);
    const auto expected = ref.runCmrpo(cells);

    // Dispatch order is 0, 3, 1, ...: the third cell to start is grid
    // cell 1, after cells 0 and 3 are journaled.
    SweepRunner victim(kTestScale, 1);
    victim.setCheckpointDir(dir.string());
    fault::installFailpoints("sweep_cell@3");
    std::string what;
    try {
        victim.runCmrpo(cells);
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    fault::installFailpoints("");
    EXPECT_EQ(what.rfind("cell 1:", 0), 0u) << what;

    SweepRunner resumed(kTestScale, 1);
    resumed.setCheckpointDir(dir.string());
    const auto got = resumed.runCmrpo(cells);
    EXPECT_EQ(resumed.lastResumedCells(), 2u);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].cmrpo, expected[i].cmrpo) << "cell " << i;
        EXPECT_EQ(got[i].baselineSeconds, expected[i].baselineSeconds);
        EXPECT_EQ(got[i].power.dynamic, expected[i].power.dynamic);
        EXPECT_EQ(got[i].power.statik, expected[i].power.statik);
        EXPECT_EQ(got[i].power.refresh, expected[i].power.refresh);
        EXPECT_EQ(got[i].stats.activations, expected[i].stats.activations);
        EXPECT_EQ(got[i].stats.victimRowsRefreshed,
                  expected[i].stats.victimRowsRefreshed);
        EXPECT_EQ(got[i].stats.prngBits, expected[i].stats.prngBits);
        EXPECT_EQ(got[i].stats.sramAccesses,
                  expected[i].stats.sramAccesses);
    }
    std::filesystem::remove_all(dir);
}

TEST(CheckpointGrid, RejectsOrderThatIsNotAPermutation)
{
    // An order that repeats or drops a cell would leave a result slot
    // unevaluated; the runner refuses it before evaluating anything.
    const auto restore = [](std::size_t, const std::string &) {
        return false;
    };
    std::size_t evals = 0;
    const auto eval = [&evals](std::size_t) {
        ++evals;
        return std::string();
    };
    const std::vector<std::vector<std::size_t>> badOrders = {
        {0, 0, 2}, {0, 1}, {0, 1, 3}};
    for (const auto &order : badOrders) {
        GridRun grid;
        grid.name = "test";
        grid.keys = {"a", "b", "c"};
        grid.labels = grid.keys;
        grid.order = order;
        EXPECT_THROW(runJournaledGrid(grid, restore, eval),
                     std::invalid_argument);
    }
    EXPECT_EQ(evals, 0u);
}

TEST(CheckpointSweep, KeepGoingRecordsErrorAndCompletesGrid)
{
    const auto cells = tagGrid(5);
    SweepRunner runner(kTestScale, 2);
    runner.setKeepGoing(true);
    const auto results = runner.runMetric(
        cells, [](ExperimentRunner &, const SweepCell &c) {
            if (c.tag == 2)
                throw std::runtime_error("cell is cursed");
            return tagMetric(c);
        });
    ASSERT_EQ(results.size(), 5u);
    EXPECT_TRUE(std::isnan(results[2]));
    for (std::size_t i : {std::size_t(0), std::size_t(1), std::size_t(3),
                          std::size_t(4)})
        EXPECT_EQ(results[i], tagMetric(cells[i])) << "cell " << i;

    ASSERT_EQ(runner.lastErrors().size(), 1u);
    const CellError &err = runner.lastErrors()[0];
    EXPECT_EQ(err.index, 2u);
    EXPECT_EQ(err.attempts, 2);
    EXPECT_NE(err.message.find("cursed"), std::string::npos);
    EXPECT_FALSE(err.label.empty());
}

TEST(CheckpointSweep, KeepGoingRetriesTransientFailureOnce)
{
    const auto cells = tagGrid(4);
    std::atomic<int> firstAttempt{0};
    SweepRunner runner(kTestScale, 1);
    runner.setKeepGoing(true);
    const auto results = runner.runMetric(
        cells,
        [&firstAttempt](ExperimentRunner &, const SweepCell &c) {
            if (c.tag == 1 && firstAttempt.fetch_add(1) == 0)
                throw std::runtime_error("transient");
            return tagMetric(c);
        });
    EXPECT_TRUE(runner.lastErrors().empty());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(results[i], tagMetric(cells[i])) << "cell " << i;
    EXPECT_EQ(firstAttempt.load(), 2) << "exactly one retry";
}

TEST(CheckpointSweep, KeepGoingFailedCellsRerunOnResume)
{
    const auto dir = freshDir("ckpt_keepgoing");
    const auto cells = tagGrid(4);
    std::atomic<bool> healed{false};
    std::atomic<int> evals{0};
    const auto fn = [&](ExperimentRunner &, const SweepCell &c) {
        evals.fetch_add(1);
        if (c.tag == 1 && !healed.load())
            throw std::runtime_error("persistent failure");
        return tagMetric(c);
    };

    SweepRunner first(kTestScale, 1);
    first.setCheckpointDir(dir.string());
    first.setKeepGoing(true);
    const auto partial = first.runMetric(cells, fn);
    EXPECT_TRUE(std::isnan(partial[1]));
    ASSERT_EQ(first.lastErrors().size(), 1u);

    // The failed cell was NOT journaled; resume re-runs exactly it.
    healed.store(true);
    evals.store(0);
    SweepRunner second(kTestScale, 1);
    second.setCheckpointDir(dir.string());
    second.setKeepGoing(true);
    const auto full = second.runMetric(cells, fn);
    EXPECT_EQ(second.lastResumedCells(), 3u);
    EXPECT_EQ(evals.load(), 1);
    EXPECT_TRUE(second.lastErrors().empty());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(full[i], tagMetric(cells[i])) << "cell " << i;
    std::filesystem::remove_all(dir);
}

TEST(CheckpointSweep, FailFastNamesTheFailingCell)
{
    const auto cells = tagGrid(4);
    SweepRunner runner(kTestScale, 1);
    try {
        runner.runMetric(cells,
                         [](ExperimentRunner &, const SweepCell &c) {
                             if (c.tag == 2)
                                 throw std::runtime_error("boom");
                             return tagMetric(c);
                         });
        FAIL() << "expected fail-fast throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cell 2"), std::string::npos) << what;
        EXPECT_NE(what.find("boom"), std::string::npos) << what;
    }
}

TEST(CheckpointSweep, ResumedFailFastNamesTheGridIndex)
{
    // Cells 0-1 come from the journal, so cell 3 is at position 1 of
    // the pending list; the fail-fast error must name grid index 3.
    const auto dir = freshDir("ckpt_failfast_resume");
    const auto cells = tagGrid(4);
    std::atomic<std::uint64_t> failTag{2};
    const auto fn = [&failTag](ExperimentRunner &, const SweepCell &c) {
        if (c.tag == failTag.load())
            throw std::runtime_error("boom in tag "
                                     + std::to_string(c.tag));
        return tagMetric(c);
    };

    SweepRunner first(kTestScale, 1);
    first.setCheckpointDir(dir.string());
    EXPECT_THROW(first.runMetric(cells, fn), std::runtime_error);

    for (std::size_t jobs : {std::size_t(1), std::size_t(4)}) {
        failTag.store(3);
        SweepRunner resumed(kTestScale, jobs);
        resumed.setCheckpointDir(dir.string());
        std::string what;
        try {
            resumed.runMetric(cells, fn);
        } catch (const std::runtime_error &e) {
            what = e.what();
        }
        EXPECT_NE(what.find("cell 3: boom in tag 3"), std::string::npos)
            << "jobs=" << jobs << ": " << what;
        EXPECT_EQ(what.find("cell 1"), std::string::npos)
            << "jobs=" << jobs << ": " << what;
    }

    // Cell 2 finished before cell 3 failed, so it is journaled too.
    failTag.store(99);
    SweepRunner healed(kTestScale, 1);
    healed.setCheckpointDir(dir.string());
    const auto got = healed.runMetric(cells, fn);
    EXPECT_EQ(healed.lastResumedCells(), 3u);
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(got[i], tagMetric(cells[i])) << "cell " << i;
    std::filesystem::remove_all(dir);
}

TEST(CheckpointMc, CampaignResumesAfterTornAppend)
{
    FailpointGuard guard;
    const auto dir = freshDir("ckpt_mc");
    McCampaignSpec spec;
    spec.prng = McCampaignSpec::Prng::True;
    spec.seed = 99;
    spec.threshold = 512;
    spec.p = 0.01;
    spec.windows = 800;
    spec.windowsPerBatch = 256; // 4 batches (last one short)

    const McResult expected = praWindowFailuresResumable(spec, "");

    // The second append (batch #1) tears mid-record and the "process"
    // dies; the grid runner names the batch it was journaling.
    fault::installFailpoints("checkpoint_append_torn@2");
    std::string what;
    try {
        praWindowFailuresResumable(spec, dir.string());
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    fault::installFailpoints("");
    EXPECT_NE(what.find("cell 1: fail-point 'checkpoint_append_torn'"),
              std::string::npos)
        << what;

    // Resume: the torn record is dropped, batch 0 is served from the
    // journal, and the total matches the uninterrupted run exactly.
    {
        CheckpointJournal j(dir.string(), spec.journalKeyPrefix());
        EXPECT_EQ(j.replayedRecords(), 1u);
    }
    const McResult got = praWindowFailuresResumable(spec, dir.string());
    EXPECT_EQ(got.failedWindows, expected.failedWindows);
    EXPECT_EQ(got.windows, expected.windows);
    EXPECT_EQ(got.windowFailureProb, expected.windowFailureProb);

    // And a fully-journaled rerun still agrees.
    {
        CheckpointJournal k(dir.string(), spec.journalKeyPrefix());
        EXPECT_EQ(k.replayedRecords(), 4u);
    }
    const McResult again = praWindowFailuresResumable(spec, dir.string());
    EXPECT_EQ(again.failedWindows, expected.failedWindows);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointMc, LfsrCampaignIsDeterministic)
{
    McCampaignSpec spec;
    spec.prng = McCampaignSpec::Prng::Lfsr;
    spec.lfsrWidth = 8;
    spec.seed = 0xAB;
    spec.threshold = 512;
    spec.p = 0.01;
    spec.windows = 512;
    spec.windowsPerBatch = 128;
    const McResult a = praWindowFailuresResumable(spec, "");
    const McResult b = praWindowFailuresResumable(spec, "");
    EXPECT_EQ(a.failedWindows, b.failedWindows);
    EXPECT_EQ(a.windowFailureProb, b.windowFailureProb);
}

} // namespace catsim
