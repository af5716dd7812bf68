/**
 * @file
 * Tests for the ROB core model driving traces into the controller.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "sim/core_model.hpp"

namespace catsim
{

namespace
{

struct Fixture
{
    Fixture()
        : geometry(DramGeometry::dualCore2Ch()),
          timing(DramTiming::ddr3_1600()),
          dram(geometry, timing),
          mapper(geometry, MappingPolicy::RowRankBankChanCol)
    {
        SchemeConfig none;
        none.kind = SchemeKind::None;
        mc = std::make_unique<MemoryController>(dram, mapper, none);
    }

    Addr
    addrFor(RowAddr row, std::uint32_t col = 0) const
    {
        MappedAddr m;
        m.row = row;
        m.col = col;
        return mapper.compose(m);
    }

    DramGeometry geometry;
    DramTiming timing;
    DramSystem dram;
    AddressMapper mapper;
    std::unique_ptr<MemoryController> mc;
};

/**
 * CoreModel's step/drain with the in-flight reads kept as a plain
 * vector (remove_if to retire, min_element + erase to stall), frozen
 * as the oracle for the production min-heap window.
 */
class VectorWindowCore
{
  public:
    VectorWindowCore(CoreId id, const CoreParams &params,
                     std::vector<TraceRecord> trace,
                     MemoryController &controller)
        : id_(id), params_(params), trace_(std::move(trace)),
          controller_(controller)
    {
    }

    double time() const { return time_; }
    Count stalls() const { return stalls_; }

    bool
    step()
    {
        if (pos_ >= trace_.size())
            return false;
        const TraceRecord rec = trace_[pos_++];

        time_ += static_cast<double>(rec.gap)
                 / (static_cast<double>(params_.retireWidth)
                    * static_cast<double>(params_.cpuMult));

        const auto now = static_cast<Cycle>(time_);
        inflightReads_.erase(
            std::remove_if(inflightReads_.begin(), inflightReads_.end(),
                           [now](Cycle c) { return c <= now; }),
            inflightReads_.end());

        MemRequest req;
        req.addr = rec.addr;
        req.isWrite = rec.isWrite;
        req.core = id_;
        req.arrival = static_cast<Cycle>(std::ceil(time_));

        if (rec.isWrite) {
            const Cycle ack = controller_.submitWrite(req);
            if (static_cast<double>(ack) > time_)
                time_ = static_cast<double>(ack);
            return true;
        }

        if (inflightReads_.size() >= params_.mlp) {
            ++stalls_;
            const auto oldest = *std::min_element(inflightReads_.begin(),
                                                  inflightReads_.end());
            if (static_cast<double>(oldest) > time_)
                time_ = static_cast<double>(oldest);
            inflightReads_.erase(std::find(inflightReads_.begin(),
                                           inflightReads_.end(), oldest));
            req.arrival = static_cast<Cycle>(std::ceil(time_));
        }

        inflightReads_.push_back(controller_.submitRead(req));
        return true;
    }

    void
    drain()
    {
        for (const Cycle c : inflightReads_) {
            if (static_cast<double>(c) > time_)
                time_ = static_cast<double>(c);
        }
        inflightReads_.clear();
    }

  private:
    CoreId id_;
    CoreParams params_;
    std::vector<TraceRecord> trace_;
    std::size_t pos_ = 0;
    MemoryController &controller_;
    double time_ = 0.0;
    std::vector<Cycle> inflightReads_;
    Count stalls_ = 0;
};

/**
 * Seeded trace mixing back-to-back requests, short gaps and long
 * idles (which retire several reads at once), a quarter writes, and
 * addresses spread over every bank with a small row set so row and
 * bank conflicts make read completions arrive out of order.
 */
std::vector<TraceRecord>
randomTrace(std::mt19937_64 &rng, const Fixture &f, std::size_t n)
{
    const DramGeometry &g = f.geometry;
    auto pick = [&rng](std::uint64_t bound) {
        return static_cast<std::uint32_t>(rng() % bound);
    };
    std::vector<TraceRecord> trace(n);
    for (TraceRecord &rec : trace) {
        const std::uint32_t shape = pick(10);
        rec.gap = shape < 4 ? 0 : shape < 9 ? 1 + pick(40) : 200 + pick(4000);
        rec.isWrite = pick(4) == 0;
        MappedAddr m;
        m.channel = pick(g.channels);
        m.rank = pick(g.ranksPerChannel);
        m.bank = pick(g.banksPerRank);
        m.row = pick(32);
        m.col = pick(g.colsPerRow);
        rec.addr = f.mapper.compose(m);
    }
    return trace;
}

} // namespace

TEST(CoreModelDiff, HeapWindowMatchesFrozenVectorWindow)
{
    for (const std::uint32_t mlp : {1u, 2u, 8u, 16u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "mlp " << mlp << " seed " << seed);
            Fixture prod, ref;
            std::mt19937_64 rng(seed * 1000003ULL + mlp);
            const auto trace = randomTrace(rng, prod, 4000);
            CoreParams params;
            params.mlp = mlp;
            CoreModel core(0, params, std::make_unique<VectorTrace>(trace),
                           *prod.mc);
            VectorWindowCore oracle(0, params, trace, *ref.mc);
            for (std::size_t i = 0;; ++i) {
                const bool more = core.step();
                ASSERT_EQ(more, oracle.step()) << "record " << i;
                ASSERT_EQ(core.time(), oracle.time()) << "record " << i;
                if (!more)
                    break;
            }
            core.drain();
            oracle.drain();
            ASSERT_EQ(core.time(), oracle.time()) << "after drain";
            // The window must actually fill, or the stall path went
            // unexercised.
            EXPECT_GT(oracle.stalls(), 0u);
        }
    }
}

TEST(CoreModel, RetiresComputeGapAtFullWidth)
{
    Fixture f;
    auto trace = std::make_unique<VectorTrace>();
    // 800 instructions then one write: 800 / (2 retire x 4 mult) = 100
    // bus cycles of compute.
    trace->push({800, true, f.addrFor(5)});
    CoreParams params;
    CoreModel core(0, params, std::move(trace), *f.mc);
    ASSERT_TRUE(core.step());
    EXPECT_NEAR(core.time(), 100.0, 1.0);
    EXPECT_FALSE(core.step());
    EXPECT_TRUE(core.done());
}

TEST(CoreModel, ReadsOverlapUpToMlp)
{
    Fixture f;
    auto trace = std::make_unique<VectorTrace>();
    const int n = 6;
    for (int i = 0; i < n; ++i)
        trace->push({0, false, f.addrFor(static_cast<RowAddr>(i),
                                         static_cast<std::uint32_t>(i))});
    CoreParams params;
    params.mlp = 2;
    CoreModel core(0, params, std::move(trace), *f.mc);
    while (core.step()) {
    }
    core.drain();
    // With MLP 2 the six reads cannot all pipeline; the core's clock
    // must exceed a single read's latency but stay below fully serial
    // execution.
    const double single = f.timing.tRCD + f.timing.tCAS
                          + f.timing.tBURST;
    EXPECT_GT(core.time(), single);
    EXPECT_LT(core.time(), n * f.timing.tRC);
    EXPECT_EQ(core.memOps(), static_cast<Count>(n));
}

TEST(CoreModel, DrainWaitsForOutstandingReads)
{
    Fixture f;
    auto trace = std::make_unique<VectorTrace>();
    trace->push({0, false, f.addrFor(9)});
    CoreParams params;
    CoreModel core(0, params, std::move(trace), *f.mc);
    ASSERT_TRUE(core.step());
    const double before = core.time();
    core.drain();
    EXPECT_GT(core.time(), before)
        << "drain must advance past the read completion";
}

TEST(CoreModel, CountsInstructions)
{
    Fixture f;
    auto trace = std::make_unique<VectorTrace>();
    trace->push({10, true, f.addrFor(1)});
    trace->push({20, true, f.addrFor(2)});
    CoreParams params;
    CoreModel core(0, params, std::move(trace), *f.mc);
    while (core.step()) {
    }
    // gaps + the memory ops themselves
    EXPECT_EQ(core.instructionsRetired(), 10u + 20u + 2u);
    EXPECT_EQ(core.memOps(), 2u);
}

TEST(CoreModel, PostedWritesDrainThroughTheController)
{
    Fixture f;
    auto trace = std::make_unique<VectorTrace>();
    // Far more writes than the 64-entry queue holds.
    for (int i = 0; i < 300; ++i)
        trace->push({0, true, f.addrFor(7)});
    CoreParams params;
    CoreModel core(0, params, std::move(trace), *f.mc);
    while (core.step()) {
    }
    core.drain();
    // Watermark drains must have fired, and a final flush accounts for
    // every write.
    EXPECT_GE(f.mc->stats().writeDrains, 1u);
    f.mc->drainAllWrites(static_cast<Cycle>(core.time()));
    EXPECT_EQ(f.dram.totalActivations(), 300u);
}

} // namespace catsim
