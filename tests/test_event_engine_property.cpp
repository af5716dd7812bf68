/**
 * @file
 * Property and determinism tests for the event engine.
 *
 * Three layers:
 *  - direct order tests of the documented (time, actor-id, FIFO)
 *    tie-break contract, with scripted actors that log their firing
 *    order, and death tests of the one-pending-event rule;
 *  - seeded random system grids (core counts, workload gap profiles,
 *    scheme kinds, epoch scales, recording on/off) asserting the
 *    engine front end equals the frozen reference loop and repeats
 *    itself exactly;
 *  - CATSIM_JOBS invariance of SweepRunner grids built on the engine
 *    (closed-loop adaptive cells and stimulus-path ETO cells).
 *
 * The big grids live in the SlowPropertyGrid suite, which CMake
 * registers as a separate ctest entry labeled "slow" (run with
 * `ctest -L slow`; the default run and the sanitizer CI use -LE slow).
 */

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <utility>

#include "sim/event_engine.hpp"
#include "sim/reference_timing_sim.hpp"
#include "sim/sweep.hpp"
#include "sim/timing_sim.hpp"
#include "trace/workloads.hpp"

namespace catsim
{

namespace
{

/** Logs (actor id, time) on every event; optional same-time re-arms. */
class ScriptedActor : public SimActor
{
  public:
    ScriptedActor(EventEngine &engine,
                  std::vector<std::pair<ActorId, SimTime>> &log,
                  int rearms_at_same_time = 0)
        : engine_(engine), log_(log), rearms_(rearms_at_same_time)
    {
        id_ = engine_.addActor(this, EventEngine::ActorRole::Source);
    }

    ActorId id() const { return id_; }

    void
    onEvent(SimTime now) override
    {
        log_.emplace_back(id_, now);
        if (rearms_ > 0) {
            --rearms_;
            engine_.schedule(id_, now);
        } else {
            engine_.retire(id_);
        }
    }

  private:
    EventEngine &engine_;
    std::vector<std::pair<ActorId, SimTime>> &log_;
    int rearms_;
    ActorId id_ = 0;
};

std::vector<std::string>
workloadNames()
{
    return {"comm1", "comm2", "comm3", "comm4", "comm5"};
}

/** One seeded random system configuration. */
TimingConfig
randomSystem(std::mt19937_64 &rng, std::string *workload_out)
{
    const SchemeKind kinds[] = {SchemeKind::None, SchemeKind::Sca,
                                SchemeKind::Pra, SchemeKind::Prcat,
                                SchemeKind::Drcat,
                                SchemeKind::CounterCache};
    const auto pick = [&rng](std::uint64_t n) {
        return static_cast<std::size_t>(rng() % n);
    };

    TimingConfig sys;
    sys.geometry = DramGeometry::dualCore2Ch();
    sys.numCores = static_cast<std::uint32_t>(1 + pick(4));
    sys.scheme.kind = kinds[pick(6)];
    sys.scheme.numCounters = (pick(2) == 0) ? 64 : 128;
    sys.scheme.maxLevels = 11;
    sys.scheme.threshold =
        static_cast<std::uint32_t>(512u << pick(3)); // 512/1024/2048
    if (sys.scheme.kind == SchemeKind::Pra)
        sys.scheme.praProbability =
            1.0 / static_cast<double>(sys.scheme.threshold);
    sys.recordActivations = pick(2) == 0;
    const double epochScales[] = {0.001, 0.002, 0.004};
    sys.epochScale = epochScales[pick(3)];
    // Vary the core's memory-level parallelism and retire rate so the
    // inter-request gap distribution (not just the workload's) moves.
    sys.core.mlp = (pick(2) == 0) ? 8 : 16;
    sys.core.retireWidth = static_cast<std::uint32_t>(1 + pick(3));

    const auto &names = workloadNames();
    *workload_out = names[pick(names.size())];
    return sys;
}

StreamFactory
workloadFactory(const TimingConfig &sys, const AddressMapper &mapper,
                std::uint64_t records, const std::string &name)
{
    const WorkloadProfile profile = findWorkload(name);
    const DramGeometry geometry = sys.geometry;
    return [profile, geometry, &mapper,
            records](CoreId core) -> std::unique_ptr<TraceStream> {
        return std::make_unique<SyntheticWorkload>(
            profile, geometry, mapper, core + 1, records);
    };
}

/** Strict equality of everything a TimingResult carries. */
void
expectIdentical(const TimingResult &a, const TimingResult &b)
{
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.execSeconds, b.execSeconds);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.totalActivations, b.totalActivations);
    EXPECT_EQ(a.victimRowsRefreshed, b.victimRowsRefreshed);
    EXPECT_EQ(a.controller.reads, b.controller.reads);
    EXPECT_EQ(a.controller.writes, b.controller.writes);
    EXPECT_EQ(a.controller.writeDrains, b.controller.writeDrains);
    EXPECT_EQ(a.controller.lastCompletion, b.controller.lastCompletion);
    EXPECT_EQ(a.scheme.refreshEvents, b.scheme.refreshEvents);
    EXPECT_EQ(a.scheme.splits, b.scheme.splits);
    EXPECT_EQ(a.scheme.merges, b.scheme.merges);
    ASSERT_EQ(a.bankStreams.size(), b.bankStreams.size());
    for (std::size_t i = 0; i < a.bankStreams.size(); ++i)
        EXPECT_EQ(a.bankStreams[i], b.bankStreams[i]);
}

void
checkRandomGrid(std::uint64_t seed, int configs, std::uint64_t records)
{
    std::mt19937_64 rng(seed);
    for (int i = 0; i < configs; ++i) {
        std::string workload;
        const TimingConfig sys = randomSystem(rng, &workload);
        SCOPED_TRACE(testing::Message()
                     << "config " << i << " workload " << workload
                     << " scheme "
                     << static_cast<int>(sys.scheme.kind) << " cores "
                     << sys.numCores);
        AddressMapper mapper(sys.geometry, sys.mapping);
        const auto factory =
            workloadFactory(sys, mapper, records, workload);

        const TimingResult ref = referenceRunTiming(sys, factory);
        const TimingResult once = runTiming(sys, factory);
        const TimingResult twice = runTiming(sys, factory);
        expectIdentical(once, ref);   // engine == frozen oracle
        expectIdentical(once, twice); // engine repeats itself
    }
}

AdaptiveCell
adaptiveCell(AttackerKind attacker, SchemeKind kind)
{
    AdaptiveCell c;
    c.preset = SystemPreset::DualCore2Ch;
    c.attack.attacker = attacker;
    c.attack.mode = AttackMode::Medium;
    c.attack.kernel = 1;
    c.scheme.kind = kind;
    c.scheme.numCounters = 64;
    c.scheme.maxLevels = 11;
    c.scheme.threshold = 32768;
    if (kind == SchemeKind::Pra)
        c.scheme.praProbability = 2.0 / 32768.0;
    return c;
}

} // namespace

TEST(EventEngineOrder, SameTimeResolvesByActorIdThenFifo)
{
    EventEngine engine;
    std::vector<std::pair<ActorId, SimTime>> log;
    ScriptedActor a(engine, log);          // id 0
    ScriptedActor b(engine, log, 1);       // id 1, re-arms once at t=5
    ScriptedActor c(engine, log);          // id 2

    // Scheduling order deliberately disagrees with actor-id order.
    engine.schedule(c.id(), 5.0);
    engine.schedule(b.id(), 5.0);
    engine.schedule(a.id(), 7.0);
    engine.run();

    // Time first (5 before 7); at t=5 the lower actor id wins even
    // though it was scheduled later, and b's same-time re-arm (a later
    // seq) still beats c because actor id outranks insertion order.
    const std::vector<std::pair<ActorId, SimTime>> expected = {
        {b.id(), 5.0}, {b.id(), 5.0}, {c.id(), 5.0}, {a.id(), 7.0}};
    EXPECT_EQ(log, expected);
}

TEST(EventEngineOrder, SameActorSameTimeIsFifo)
{
    // One actor re-arming at a constant time must simply run N times -
    // the sequential-replay pattern (all of a bank's events at time b).
    EventEngine engine;
    std::vector<std::pair<ActorId, SimTime>> log;
    ScriptedActor a(engine, log, 4);
    engine.schedule(a.id(), 3.0);
    engine.run();
    EXPECT_EQ(log.size(), 5u);
    for (const auto &entry : log)
        EXPECT_EQ(entry, (std::pair<ActorId, SimTime>{a.id(), 3.0}));
}

TEST(EventEngineOrder, TimerAloneDoesNotRun)
{
    EventEngine engine;
    Count fired = 0;
    EpochTimerActor timer(engine, 100.0, [&fired]() { ++fired; });
    engine.run(); // no Source actors -> nothing may fire
    EXPECT_EQ(fired, 0u);
    EXPECT_EQ(timer.epochs(), 0u);
}

TEST(EventEngineOrder, RunStopsWhenLastSourceRetires)
{
    EventEngine engine;
    Count fired = 0;
    EpochTimerActor timer(engine, 10.0, [&fired]() { ++fired; });
    std::vector<std::pair<ActorId, SimTime>> log;
    ScriptedActor a(engine, log);
    engine.schedule(a.id(), 25.0);
    engine.run();
    // Timer fires at 10 and 20; its pending t=30 event dies with the
    // source (the historical loops never ran epochs past the last
    // core's trace end).
    EXPECT_EQ(fired, 2u);
    EXPECT_EQ(log.size(), 1u);
}

TEST(EventEngineOrder, EpochTimerBeatsSameTimeSource)
{
    EventEngine engine;
    std::vector<int> order;
    // Timer registered FIRST, as the timing front ends do.
    EpochTimerActor timer(engine, 50.0, [&order]() { order.push_back(0); });
    std::vector<std::pair<ActorId, SimTime>> log;
    ScriptedActor a(engine, log);
    engine.schedule(a.id(), 50.0);
    engine.run();
    ASSERT_EQ(order.size(), 1u);
    ASSERT_EQ(log.size(), 1u);
    // The boundary fired before the source event at the same time -
    // the engine form of the old `earliest->time() >= nextEpoch`.
    EXPECT_EQ(timer.epochs(), 1u);
}

TEST(EventEngineContract, ScheduleViolationsAreFatal)
{
    // One pending event per actor is what lets the engine keep a single
    // time slot per actor; a second schedule() must not overwrite it.
    auto doubleArm = []() {
        EventEngine engine;
        std::vector<std::pair<ActorId, SimTime>> log;
        ScriptedActor a(engine, log);
        engine.schedule(a.id(), 5.0);
        engine.schedule(a.id(), 3.0);
    };
    EXPECT_EXIT(doubleArm(), ::testing::ExitedWithCode(1),
                "already has an event pending");

    // A time the slot cannot hold (+inf marks an idle slot, NaN never
    // compares earlier) is rejected the same way.
    auto armAt = [](SimTime at) {
        EventEngine engine;
        std::vector<std::pair<ActorId, SimTime>> log;
        ScriptedActor a(engine, log);
        engine.schedule(a.id(), at);
    };
    EXPECT_EXIT(armAt(std::numeric_limits<SimTime>::infinity()),
                ::testing::ExitedWithCode(1), "armed at t=");
    EXPECT_EXIT(armAt(std::numeric_limits<SimTime>::quiet_NaN()),
                ::testing::ExitedWithCode(1), "armed at t=");
}

/** Fast seeded grid: a handful of random systems every ctest run. */
TEST(PropertyGrid, RandomSystemsMatchReferenceAndRepeat)
{
    checkRandomGrid(/*seed=*/1234, /*configs=*/5, /*records=*/15000);
}

/** Jobs invariance of the closed-loop grids the fig14 bench runs. */
TEST(PropertyGrid, AdaptiveSweepInvariantAcrossJobCounts)
{
    const std::vector<AdaptiveCell> cells = {
        adaptiveCell(AttackerKind::Static, SchemeKind::Drcat),
        adaptiveCell(AttackerKind::RefreshAware, SchemeKind::Drcat),
        adaptiveCell(AttackerKind::RefreshAware, SchemeKind::Prcat),
        adaptiveCell(AttackerKind::MultiBank, SchemeKind::CounterCache),
    };
    const double scale = 0.02;
    SweepRunner serial(scale, 1);
    SweepRunner wide(scale, 4);
    const auto a = serial.runAdaptive(cells);
    const auto b = wide.runAdaptive(cells);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cmrpo, b[i].cmrpo) << "cell " << i;
        EXPECT_EQ(a[i].stats.refreshEvents, b[i].stats.refreshEvents);
    }
}

/** Large seeded grid - registered separately with ctest label "slow". */
TEST(SlowPropertyGrid, RandomSystemsMatchReferenceAndRepeat)
{
    checkRandomGrid(/*seed=*/98765, /*configs=*/16, /*records=*/50000);
}

/** Stimulus-path ETO cells repeat exactly at any job count. */
TEST(SlowPropertyGrid, AdaptiveEtoInvariantAcrossJobCounts)
{
    const std::vector<AdaptiveCell> cells = {
        adaptiveCell(AttackerKind::Static, SchemeKind::CounterCache),
        adaptiveCell(AttackerKind::RefreshAware, SchemeKind::Drcat),
    };
    const double scale = 0.02;
    SweepRunner serial(scale, 1);
    SweepRunner wide(scale, 8);
    const auto a = serial.runAdaptiveEto(cells);
    const auto b = wide.runAdaptiveEto(cells);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "cell " << i;
    // And the whole grid repeats bit-for-bit on a fresh runner.
    SweepRunner again(scale, 3);
    const auto c = again.runAdaptiveEto(cells);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], c[i]) << "cell " << i;
}

} // namespace catsim
