/**
 * @file
 * Tests for the deterministic fail-point registry
 * (common/fault_injection) and its integration with the baseline
 * cache's durability path: a torn or failed write must never be
 * loaded back.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/durable_io.hpp"
#include "common/fault_injection.hpp"
#include "sim/baseline_io.hpp"
#include "sim/checkpoint.hpp"

namespace catsim
{

namespace
{

/** Disarms every fail-point on scope exit so tests can't leak arms. */
struct FailpointGuard
{
    ~FailpointGuard() { fault::installFailpoints(""); }
};

TimingResult
sampleResult()
{
    TimingResult r;
    r.execCycles = 123456;
    r.execSeconds = 0.0625;
    r.epochs = 3;
    r.controller.reads = 1000;
    r.controller.writes = 500;
    r.scheme.activations = 777;
    r.totalActivations = 1500;
    r.victimRowsRefreshed = 42;
    r.bankStreams = {{1, 2, 3}, {}, {7, 8}};
    return r;
}

std::filesystem::path
scratchFile(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path()
                     / "catsim_fault_injection";
    std::filesystem::create_directories(dir);
    const auto path = dir / name;
    std::filesystem::remove(path);
    return path;
}

void
writeBytes(const std::filesystem::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(FaultInjection, UnarmedIsFree)
{
    FailpointGuard guard;
    fault::installFailpoints("");
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::shouldFail("anything"));
    // Unarmed sites are not even counted (the fast path short-circuits
    // before the registry).
    EXPECT_EQ(fault::hitCount("anything"), 0u);
    EXPECT_NO_THROW(fault::maybeThrow("anything"));
}

TEST(FaultInjection, FiresAtExactHit)
{
    FailpointGuard guard;
    fault::installFailpoints("site_a@2");
    EXPECT_TRUE(fault::armed());
    EXPECT_FALSE(fault::shouldFail("site_a")); // hit 1
    EXPECT_TRUE(fault::shouldFail("site_a"));  // hit 2 - armed
    EXPECT_FALSE(fault::shouldFail("site_a")); // hit 3
    EXPECT_EQ(fault::hitCount("site_a"), 3u);
    // Other sites pass through untouched but armed() stays global.
    EXPECT_FALSE(fault::shouldFail("site_b"));
}

TEST(FaultInjection, MultipleHitsAndSites)
{
    FailpointGuard guard;
    fault::installFailpoints("a@1,a@3,b@2");
    EXPECT_TRUE(fault::shouldFail("a"));
    EXPECT_FALSE(fault::shouldFail("a"));
    EXPECT_TRUE(fault::shouldFail("a"));
    EXPECT_FALSE(fault::shouldFail("b"));
    EXPECT_TRUE(fault::shouldFail("b"));
}

TEST(FaultInjection, StarArmsEveryHit)
{
    FailpointGuard guard;
    fault::installFailpoints("always@*");
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(fault::shouldFail("always")) << "hit " << i;
}

TEST(FaultInjection, MalformedItemsIgnored)
{
    FailpointGuard guard;
    // "@3" (empty site), "plain" (no @), "x@0" and "x@banana" (bad
    // nth) must all be dropped; the valid item still arms.
    fault::installFailpoints("@3,plain,x@0,x@banana,ok@1");
    EXPECT_FALSE(fault::shouldFail("plain"));
    EXPECT_FALSE(fault::shouldFail("x"));
    EXPECT_TRUE(fault::shouldFail("ok"));
}

TEST(FaultInjection, InstallResetsCounters)
{
    FailpointGuard guard;
    fault::installFailpoints("s@1");
    EXPECT_TRUE(fault::shouldFail("s"));
    fault::installFailpoints("s@1");
    EXPECT_TRUE(fault::shouldFail("s"))
        << "reinstall must reset the hit counter";
}

TEST(FaultInjection, MaybeThrowNamesTheSite)
{
    FailpointGuard guard;
    fault::installFailpoints("boom@1");
    try {
        fault::maybeThrow("boom");
        FAIL() << "expected FaultInjected";
    } catch (const FaultInjected &e) {
        EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    }
}

TEST(FaultInjection, TornBaselineWriteNeverLoads)
{
    FailpointGuard guard;
    const auto path = scratchFile("torn.catb");
    const TimingResult r = sampleResult();

    fault::installFailpoints("baseline_write_torn@1");
    EXPECT_TRUE(saveBaseline(path.string(), "key", 0.02, r));
    ASSERT_TRUE(std::filesystem::exists(path));

    fault::installFailpoints("");
    TimingResult out;
    EXPECT_FALSE(loadBaseline(path.string(), "key", 0.02, &out))
        << "a torn cache file must miss (CRC), not load garbage";

    // A clean rewrite over the torn file heals it.
    EXPECT_TRUE(saveBaseline(path.string(), "key", 0.02, r));
    ASSERT_TRUE(loadBaseline(path.string(), "key", 0.02, &out));
    EXPECT_EQ(out.execCycles, r.execCycles);
    EXPECT_EQ(out.execSeconds, r.execSeconds);
    EXPECT_EQ(out.bankStreams, r.bankStreams);
    EXPECT_EQ(out.victimRowsRefreshed, r.victimRowsRefreshed);
}

TEST(FaultInjection, CorruptBaselineFileNeverLoads)
{
    const auto path = scratchFile("corrupt.catb");
    const TimingResult r = sampleResult();
    ASSERT_TRUE(saveBaseline(path.string(), "key", 0.02, r));
    std::string good;
    ASSERT_TRUE(readWholeFile(path.string(), &good));
    TimingResult out;
    const auto loads = [&](const std::string &bytes) {
        writeBytes(path, bytes);
        return loadBaseline(path.string(), "key", 0.02, &out);
    };
    ASSERT_TRUE(loads(good));
    EXPECT_EQ(out.bankStreams, r.bankStreams);

    for (std::size_t len = 0; len < good.size(); ++len)
        ASSERT_FALSE(loads(good.substr(0, len))) << "truncated to " << len;
    for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
        std::string bad = good;
        bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
        ASSERT_FALSE(loads(bad)) << "bit " << bit << " flipped";
    }
    EXPECT_FALSE(loads(good + "x")) << "trailing byte";
    std::string twoRecords = good;
    appendJournalRecord(&twoRecords, "timing", "x");
    EXPECT_FALSE(loads(twoRecords)) << "second record appended";
    // A load never writes: the rejected file is left as it was.
    std::string after;
    ASSERT_TRUE(readWholeFile(path.string(), &after));
    EXPECT_EQ(after, twoRecords);

    // The same record under a header naming another model version.
    const auto header = [](std::uint64_t version) {
        std::ostringstream key;
        key << "baseline|v=" << version << "|key|scale=" << std::hexfloat
            << 0.02;
        return journalHeader(key.str());
    };
    const std::string current = header(kBaselineModelVersion);
    ASSERT_EQ(good.compare(0, current.size(), current), 0);
    const std::string record = good.substr(current.size());
    EXPECT_FALSE(loads(header(kBaselineModelVersion - 1) + record));
    EXPECT_FALSE(loads(header(kBaselineModelVersion + 1) + record));
    EXPECT_TRUE(loads(current + record));
}

TEST(FaultInjection, BaselineWriteEnospcLeavesNoFile)
{
    FailpointGuard guard;
    const auto path = scratchFile("enospc.catb");

    fault::installFailpoints("baseline_write_enospc@1");
    EXPECT_FALSE(saveBaseline(path.string(), "key", 0.02,
                              sampleResult()));
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(FaultInjection, BaselineReadFaultMisses)
{
    FailpointGuard guard;
    const auto path = scratchFile("readfault.catb");
    const TimingResult r = sampleResult();
    ASSERT_TRUE(saveBaseline(path.string(), "key", 0.02, r));

    fault::installFailpoints("baseline_read@1");
    TimingResult out;
    EXPECT_FALSE(loadBaseline(path.string(), "key", 0.02, &out));

    // The fault was one-shot; the next load succeeds.
    EXPECT_TRUE(loadBaseline(path.string(), "key", 0.02, &out));
    EXPECT_EQ(out.execCycles, r.execCycles);
}

} // namespace catsim
