/**
 * @file
 * Tests for parallelFor, the one parallel primitive (common/parallel).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/parallel.hpp"

namespace catsim
{

namespace
{

/** RAII guard that restores CATSIM_JOBS after a test. */
class JobsEnvGuard
{
  public:
    JobsEnvGuard()
    {
        const char *v = std::getenv("CATSIM_JOBS");
        if (v)
            saved_ = v;
        had_ = v != nullptr;
    }
    ~JobsEnvGuard()
    {
        if (had_)
            ::setenv("CATSIM_JOBS", saved_.c_str(), 1);
        else
            ::unsetenv("CATSIM_JOBS");
    }

  private:
    std::string saved_;
    bool had_ = false;
};

} // namespace

TEST(Parallel, DefaultJobsHonoursEnv)
{
    JobsEnvGuard guard;
    ::setenv("CATSIM_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    ::setenv("CATSIM_JOBS", "1", 1);
    EXPECT_EQ(defaultJobs(), 1u);
}

TEST(Parallel, DefaultJobsRejectsGarbage)
{
    JobsEnvGuard guard;
    for (const char *bad : {"0", "-2", "abc", "4x", ""}) {
        ::setenv("CATSIM_JOBS", bad, 1);
        EXPECT_GE(defaultJobs(), 1u) << "input: " << bad;
        EXPECT_NE(defaultJobs(), 0u) << "input: " << bad;
    }
    ::unsetenv("CATSIM_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(Parallel, ParallelForCoversEachIndexOnce)
{
    const std::size_t n = 337;
    // Distinct vector elements: no synchronization needed per slot.
    std::vector<int> hits(n, 0);
    parallelFor(
        n, [&hits](std::size_t i) { ++hits[i]; }, 5);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(Parallel, ParallelForSerialRunsInIndexOrder)
{
    std::vector<std::size_t> order;
    parallelFor(
        10, [&order](std::size_t i) { order.push_back(i); }, 1);
    std::vector<std::size_t> expect(10);
    std::iota(expect.begin(), expect.end(), 0u);
    EXPECT_EQ(order, expect);
}

TEST(Parallel, ParallelForZeroAndExcessWorkers)
{
    std::atomic<int> counter{0};
    parallelFor(0, [&counter](std::size_t) { counter.fetch_add(1); }, 4);
    EXPECT_EQ(counter.load(), 0);
    // More workers than items must still hit every item exactly once.
    parallelFor(3, [&counter](std::size_t) { counter.fetch_add(1); }, 16);
    EXPECT_EQ(counter.load(), 3);
}

TEST(Parallel, ParallelForPropagatesException)
{
    EXPECT_THROW(parallelFor(
                     20,
                     [](std::size_t i) {
                         if (i == 11)
                             throw std::runtime_error("cell failed");
                     },
                     4),
                 std::runtime_error);
}

TEST(Parallel, ParallelForReportsLowestFailingCell)
{
    // All cells throw.  The first indices handed out are 0..jobs-1, so
    // cell 0 always fails and must win the report at any job count.
    for (std::size_t jobs : {std::size_t(1), std::size_t(4)}) {
        try {
            parallelFor(
                16,
                [](std::size_t i) {
                    throw std::runtime_error("cell" + std::to_string(i));
                },
                jobs);
            FAIL() << "expected rethrow at jobs=" << jobs;
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("cell 0:"), std::string::npos)
                << "jobs=" << jobs << ": " << what;
            EXPECT_NE(what.find("cell0"), std::string::npos)
                << "jobs=" << jobs << ": " << what;
        }
    }
}

TEST(Parallel, ParallelForBitIdenticalAcrossJobCounts)
{
    // Each cell is a pure function of its index; any job count (and
    // any index handout order) must produce the same output vector.
    auto cell = [](std::size_t i) {
        std::uint64_t h = i * 0x9E3779B97F4A7C15ULL + 1;
        h ^= h >> 31;
        return h * 0xBF58476D1CE4E5B9ULL;
    };
    const std::size_t n = 97;
    std::vector<std::uint64_t> ref(n);
    parallelFor(
        n, [&ref, &cell](std::size_t i) { ref[i] = cell(i); }, 1);
    for (std::size_t jobs : {2u, 5u, 16u}) {
        std::vector<std::uint64_t> out(n, 0);
        parallelFor(
            n, [&out, &cell](std::size_t i) { out[i] = cell(i); },
            jobs);
        EXPECT_EQ(out, ref) << "jobs=" << jobs;
    }
}

TEST(Parallel, NumaPinEnvParse)
{
    JobsEnvGuard guard; // unrelated var, but keeps env hygiene local
    ::unsetenv("CATSIM_NUMA_PIN");
    EXPECT_FALSE(numaPinEnabled());
    ::setenv("CATSIM_NUMA_PIN", "1", 1);
    EXPECT_TRUE(numaPinEnabled());
    ::setenv("CATSIM_NUMA_PIN", "0", 1);
    EXPECT_FALSE(numaPinEnabled());
    ::unsetenv("CATSIM_NUMA_PIN");
}

TEST(Parallel, NumaPinnedParallelForStillRunsEverything)
{
    // Pinning is a placement hint; with it enabled parallelFor must
    // stay correct (and be a harmless no-op where sysfs is unavailable).
    ::setenv("CATSIM_NUMA_PIN", "1", 1);
    std::vector<int> hits(200, 0);
    parallelFor(
        hits.size(), [&hits](std::size_t i) { ++hits[i]; }, 4);
    ::unsetenv("CATSIM_NUMA_PIN");
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(Parallel, ParallelForUsesAtMostJobsThreads)
{
    // min(jobs, n) workers: never more threads than jobs, and jobs == 1
    // runs every index on the calling thread.
    std::mutex mutex;
    std::set<std::thread::id> seen;
    parallelFor(
        64,
        [&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            std::lock_guard<std::mutex> lock(mutex);
            seen.insert(std::this_thread::get_id());
        },
        3);
    EXPECT_GE(seen.size(), 1u);
    EXPECT_LE(seen.size(), 3u);

    seen.clear();
    parallelFor(
        8,
        [&](std::size_t) {
            std::lock_guard<std::mutex> lock(mutex);
            seen.insert(std::this_thread::get_id());
        },
        1);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(*seen.begin(), std::this_thread::get_id());
}

TEST(Parallel, ParallelCellFaultNamesTheCell)
{
    // The parallel_cell fail point fires before the cell body, so an
    // armed hit surfaces as that cell's failure.
    fault::installFailpoints("parallel_cell@3");
    std::vector<int> hits(6, 0);
    std::string what;
    try {
        parallelFor(
            hits.size(), [&hits](std::size_t i) { ++hits[i]; }, 1);
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    fault::installFailpoints("");
    EXPECT_NE(what.find("cell 2:"), std::string::npos) << what;
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 0, 0, 0, 0}));
}

TEST(Parallel, ParallelForSerialNamesFailingIndex)
{
    try {
        parallelFor(
            10,
            [](std::size_t i) {
                if (i == 7)
                    throw std::runtime_error("seven");
            },
            1);
        FAIL() << "expected rethrow";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cell 7"), std::string::npos) << what;
        EXPECT_NE(what.find("seven"), std::string::npos) << what;
    }
}

} // namespace catsim
