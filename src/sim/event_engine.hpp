/**
 * @file
 * Unified discrete-event engine shared by every simulation front end.
 *
 * Actors - cores, the refresh/epoch timer, the memory controller's
 * stimulus sources, replay banks - are first-class participants that
 * schedule themselves and consume their own events.  Each actor has
 * at most one pending event, so the engine keeps one slot per actor
 * holding that event's time (+inf when nothing is pending) and
 * dispatches the earliest slot.  The order is part of the contract:
 *
 *   1. earlier time first;
 *   2. at equal time, the actor registered first (lower actor id);
 *   3. for the same actor at the same time, FIFO order.
 *
 * Rule 2 falls out of the dispatch scan: it walks the slots from actor 0
 * and only a strictly earlier time replaces the current winner.  Rule
 * 3 holds because an actor has at most one pending event; a second
 * schedule() while one is pending is fatal, never a silent overwrite.
 *
 * Rule 2 is what lets the open-loop timing front end reproduce the
 * historical scan loop bit for bit: the epoch timer registers before
 * the cores, so an epoch boundary fires before any core whose clock
 * has reached it (the old `earliest->time() >= nextEpoch` test), and
 * ties between cores resolve to the lowest core id exactly as the old
 * linear scan did.  Rule 3 is what lets the sequential replay front
 * end run one bank to completion before the next (each of bank b's
 * events re-arms at time b and fires before any later bank's).
 *
 * Two actor roles exist: Source actors (cores, stimulus sources) keep
 * the engine alive and must retire() when done; Timer actors (the
 * epoch clock) never keep the engine running on their own - the run
 * stops the moment the last Source retires, exactly as the historical
 * loops stopped when the last core's trace ended, leaving any pending
 * timer events unfired.
 */

#ifndef CATSIM_SIM_EVENT_ENGINE_HPP
#define CATSIM_SIM_EVENT_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/types.hpp"

namespace catsim
{

/** Simulated timestamp: bus cycles for timing runs, turns for replay. */
using SimTime = double;

/** Index assigned by EventEngine::addActor (registration order). */
using ActorId = std::uint32_t;

class EventEngine;

/** One participant in the event loop. */
class SimActor
{
  public:
    virtual ~SimActor() = default;

    /**
     * Consume one event previously scheduled for this actor.  The
     * actor re-arms itself via EventEngine::schedule (at most one
     * outstanding event per actor) or, for Source actors, calls
     * EventEngine::retire when its stream is exhausted.
     */
    virtual void onEvent(SimTime now) = 0;
};

/** Deterministic discrete-event loop over registered actors. */
class EventEngine
{
  public:
    /** Source actors keep the run alive; Timer actors do not. */
    enum class ActorRole
    {
        Source,
        Timer,
    };

    /**
     * Register an actor; ids are assigned in call order and double as
     * the same-time tie-break priority.  @p actor must outlive run().
     */
    ActorId addActor(SimActor *actor, ActorRole role);

    /**
     * Arm @p id to fire at @p at.  An actor may have at most one
     * pending event, and @p at must be a number below +inf (both
     * fatal otherwise).  Scheduling is only legal from outside run()
     * (initial arming) or from within the actor's own onEvent.
     */
    void
    schedule(ActorId id, SimTime at)
    {
        if (next_[id] != kIdle || !(at < kIdle))
            scheduleFailed(id, at);
        next_[id] = at;
    }

    /** A Source actor is done; never schedule it again. */
    void retire(ActorId id);

    /**
     * Dispatch the earliest pending event, clearing its slot first,
     * until every Source actor has retired or nothing is pending.
     * Pending Timer events past that point are dropped unfired.
     */
    void run();

    /** Source actors registered and not yet retired. */
    Count liveSources() const { return liveSources_; }

  private:
    /** Slot value of an actor with nothing pending. */
    static constexpr SimTime kIdle =
        std::numeric_limits<SimTime>::infinity();

    [[noreturn]] void scheduleFailed(ActorId id, SimTime at) const;

    std::vector<SimActor *> actors_;
    std::vector<SimTime> next_; //!< per actor: pending event time
    Count liveSources_ = 0;
};

/**
 * Engine-owned auto-refresh epoch clock.  Owns the epoch-length
 * arithmetic that timing front ends used to copy (`nextEpoch +=
 * epochCycles` with the same floating-point accumulation order) and
 * fires @p on_epoch at every boundary; epoch work is whatever the
 * front end installs (scheme resets, kEpochMarker emission).
 */
class EpochTimerActor : public SimActor
{
  public:
    using Callback = std::function<void()>;

    /**
     * @param engine       Engine to register with (as a Timer actor);
     *                     must be registered FIRST so epoch boundaries
     *                     win same-time ties against every source.
     * @param epoch_cycles Scaled epoch length; fatal below one cycle.
     * @param on_epoch     Invoked once per boundary crossed.
     */
    EpochTimerActor(EventEngine &engine, double epoch_cycles,
                    Callback on_epoch);

    void onEvent(SimTime now) override;

    /** Boundaries fired so far. */
    Count epochs() const { return epochs_; }

  private:
    EventEngine &engine_;
    ActorId id_;
    double epochCycles_;
    double next_;
    Callback onEpoch_;
    Count epochs_ = 0;
};

/**
 * Append the kEpochMarker sentinel to every recorded per-bank stream -
 * the one emission point shared by the timing front end and trace
 * ingestion (historically copy-pasted loops).
 */
void appendEpochMarkers(std::vector<std::vector<RowAddr>> &streams);

} // namespace catsim

#endif // CATSIM_SIM_EVENT_ENGINE_HPP
