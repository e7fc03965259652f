#include "sim/event_queue.hh"

namespace flexsnoop
{

void
EventQueue::fireSampleHook()
{
    // Advance first: if the hook ever threw, the boundary would still
    // be consumed rather than re-fired forever.
    do {
        _nextSampleAt += _sampleInterval;
    } while (_nextSampleAt <= _now);
    _sampleHook(_sampleCtx, _now);
}

std::uint64_t
EventQueue::run(Cycle limit)
{
    std::uint64_t fired = 0;
    if (limit == kNoEvent) {
        // Unbounded drain: skip the per-step minimum lookup.
        while (step())
            ++fired;
        return fired;
    }
    while (minPendingTime() <= limit) {
        step();
        ++fired;
    }
    if (pending() == 0 && _now < limit)
        _now = limit;
    return fired;
}

} // namespace flexsnoop
