#include "core_model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.hpp"

namespace catsim
{

namespace
{

/** Drop the earliest completion from a std::greater min-heap. */
void
popEarliest(std::vector<Cycle> &heap)
{
    std::pop_heap(heap.begin(), heap.end(), std::greater<Cycle>());
    heap.pop_back();
}

} // namespace

CoreModel::CoreModel(CoreId id, const CoreParams &params,
                     std::unique_ptr<TraceStream> stream,
                     MemoryController &controller)
    : id_(id),
      params_(params),
      stream_(std::move(stream)),
      controller_(controller)
{
    if (params_.mlp == 0)
        CATSIM_FATAL("core ", id_, ": mlp must be at least 1");
    inflightReads_.reserve(params_.mlp);
}

bool
CoreModel::step()
{
    TraceRecord rec;
    if (!stream_->next(rec)) {
        done_ = true;
        return false;
    }

    // Retire the compute gap at full width.
    time_ += static_cast<double>(rec.gap) / retirePerBusCycle();
    instructions_ += rec.gap + 1;
    ++memOps_;

    // Retire completed reads.
    const auto now = static_cast<Cycle>(time_);
    while (!inflightReads_.empty() && inflightReads_.front() <= now)
        popEarliest(inflightReads_);

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

    // Reads: stall on the earliest-completing outstanding read once
    // the MLP window is full.
    if (inflightReads_.size() >= params_.mlp) {
        const Cycle earliest = inflightReads_.front();
        if (static_cast<double>(earliest) > time_)
            time_ = static_cast<double>(earliest);
        popEarliest(inflightReads_);
        req.arrival = static_cast<Cycle>(std::ceil(time_));
    }

    inflightReads_.push_back(controller_.submitRead(req));
    std::push_heap(inflightReads_.begin(), inflightReads_.end(),
                   std::greater<Cycle>());
    return true;
}

void
CoreModel::drain()
{
    for (const Cycle c : inflightReads_) {
        if (static_cast<double>(c) > time_)
            time_ = static_cast<double>(c);
    }
    inflightReads_.clear();
}

} // namespace catsim
