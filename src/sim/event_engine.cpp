#include "event_engine.hpp"

#include "common/logging.hpp"

namespace catsim
{

ActorId
EventEngine::addActor(SimActor *actor, ActorRole role)
{
    const auto id = static_cast<ActorId>(actors_.size());
    actors_.push_back(actor);
    next_.push_back(kIdle);
    if (role == ActorRole::Source)
        ++liveSources_;
    return id;
}

void
EventEngine::scheduleFailed(ActorId id, SimTime at) const
{
    if (next_[id] != kIdle)
        CATSIM_FATAL("schedule(): actor ", id,
                     " already has an event pending at t=", next_[id]);
    CATSIM_FATAL("schedule(): actor ", id, " armed at t=", at);
}

void
EventEngine::retire(ActorId id)
{
    (void)id;
    if (liveSources_ == 0)
        CATSIM_FATAL("retire() without a live source actor");
    --liveSources_;
}

void
EventEngine::run()
{
    while (liveSources_ > 0) {
        // Strict `<` from actor 0: the lowest id wins a same-time tie.
        ActorId winner = 0;
        SimTime best = kIdle;
        const std::size_t n = next_.size();
        for (std::size_t a = 0; a < n; ++a) {
            if (next_[a] < best) {
                best = next_[a];
                winner = static_cast<ActorId>(a);
            }
        }
        if (best == kIdle)
            return; // nothing pending
        next_[winner] = kIdle;
        actors_[winner]->onEvent(best);
    }
}

EpochTimerActor::EpochTimerActor(EventEngine &engine,
                                 double epoch_cycles, Callback on_epoch)
    : engine_(engine),
      epochCycles_(epoch_cycles),
      next_(epoch_cycles),
      onEpoch_(std::move(on_epoch))
{
    if (epochCycles_ < 1.0)
        CATSIM_FATAL("epoch scale too small");
    id_ = engine_.addActor(this, EventEngine::ActorRole::Timer);
    engine_.schedule(id_, next_);
}

void
EpochTimerActor::onEvent(SimTime)
{
    onEpoch_();
    ++epochs_;
    next_ += epochCycles_;
    engine_.schedule(id_, next_);
}

void
appendEpochMarkers(std::vector<std::vector<RowAddr>> &streams)
{
    for (auto &s : streams)
        s.push_back(kEpochMarker);
}

} // namespace catsim
