/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole machine. Events are arbitrary
 * callables scheduled at absolute cycles; ties are broken by insertion
 * order so simulation is fully deterministic.
 *
 * The scheduler is a hierarchical timing wheel (timing_wheel.hh), which
 * makes schedule/pop O(1) for the short, clustered event horizons a
 * fixed-latency embedded ring produces. Events fire in strict
 * (cycle, seq) order, exactly the order a binary min-heap over the same
 * entries gives; tests/reference_heap_queue.hh keeps such a heap as the
 * differential oracle.
 *
 * The kernel is allocation-light: callables up to EventFn::kInlineSize
 * bytes (every lambda the simulator schedules today) are stored inline
 * in the entry, and the wheel's entry arena keeps its capacity across
 * pops and clear()/run cycles, so steady-state operation performs no
 * heap allocation per event.
 */

#ifndef FLEXSNOOP_SIM_EVENT_QUEUE_HH
#define FLEXSNOOP_SIM_EVENT_QUEUE_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/event_fn.hh"
#include "sim/timing_wheel.hh"
#include "sim/types.hh"

namespace flexsnoop
{

/**
 * Deterministic priority queue of timed events.
 *
 * Events scheduled for the same cycle fire in the order they were
 * scheduled (FIFO), which keeps runs reproducible across platforms.
 */
class EventQueue
{
  public:
    /**
     * "No pending event" sentinel: returned by minPendingTime() on an
     * empty queue, and the "no bound" default of run(). Larger than
     * any schedulable cycle.
     */
    static constexpr Cycle kNoEvent = ~Cycle{0};

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Cycle now() const { return _now; }

    /** Number of events not yet fired. */
    std::size_t pending() const { return _wheel.size(); }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return _executed; }

    /**
     * How far past now the furthest-ever-scheduled event lies (zero
     * once time has caught up). Watchdog timeouts and retry backoffs
     * land far in the future, so a sustained blowout of this gauge is
     * the scheduler-side signature of a retry storm (the telemetry
     * subsystem's queue_horizon detector, docs/TELEMETRY.md).
     */
    Cycle
    horizonAhead() const
    {
        return _maxScheduledAt > _now ? _maxScheduledAt - _now : 0;
    }

    /**
     * Size the wheel's near level to cover @p near_buckets cycles of
     * horizon (rounded up to a power of two). Machines derive this
     * from their latency configuration so the common-case event lands
     * in the near wheel. Only legal while the queue is empty.
     */
    void
    configureWheel(std::size_t near_buckets)
    {
        _wheel.configure(near_buckets);
    }

    /** Near-wheel bucket count. */
    std::size_t nearBuckets() const { return _wheel.nearBuckets(); }

    /**
     * Schedule @p fn to run @p delay cycles from now.
     *
     * A delay of zero is legal: the event runs after all events already
     * scheduled for the current cycle.
     */
    void
    schedule(Cycle delay, EventFn fn)
    {
        scheduleAt(_now + delay, std::move(fn));
    }

    /** Schedule @p fn at the absolute cycle @p when (>= now). */
    void
    scheduleAt(Cycle when, EventFn fn)
    {
        assert(when >= _now && "cannot schedule into the past");
        if (when > _maxScheduledAt)
            _maxScheduledAt = when;
        _wheel.insert(_now, WheelEntry{when, _nextSeq++, std::move(fn)});
    }

    /**
     * Earliest cycle at which any pending event fires; kNoEvent when
     * the queue is empty. O(1): the wheel's cached minimum (a short
     * bitmap scan right after a bucket drains).
     */
    Cycle
    minPendingTime() const
    {
        return _wheel.empty() ? kNoEvent : _wheel.minPending();
    }

    /**
     * Run until the queue drains or @p limit cycles have elapsed.
     *
     * @param limit absolute cycle bound; events scheduled past it stay
     *              queued. Defaults to "no bound".
     * @return number of events executed by this call.
     */
    std::uint64_t run(Cycle limit = kNoEvent);

    /**
     * Hook invoked (with @p ctx) the first time simulated time reaches
     * each multiple of the sampling interval, after the clock advances
     * and before the crossing event fires. The hook observes — it must
     * not schedule events or touch machine state — so telemetry never
     * perturbs the schedule: no sampler events sit in the queue to
     * stretch the drain tail that run() measures. Disabled (the
     * default) it costs one never-taken compare per event.
     */
    using SampleHook = void (*)(void *ctx, Cycle now);
    void
    setSampleHook(Cycle interval, SampleHook hook, void *ctx)
    {
        assert(interval > 0);
        _sampleHook = hook;
        _sampleCtx = ctx;
        _sampleInterval = interval;
        _nextSampleAt = hook ? interval : kNoEvent;
    }

    /** Fire a single event; @return false if the queue is empty. */
    bool
    step()
    {
        if (_wheel.empty())
            return false;
        WheelEntry entry = _wheel.pop();
        assert(entry.when >= _now);
        _now = entry.when;
        if (_now >= _nextSampleAt) [[unlikely]]
            fireSampleHook();
        ++_executed;
        entry.fn();
        return true;
    }

    /**
     * Drop all pending events (used between experiment repetitions).
     * The entry storage is retained for reuse.
     */
    void clear() { _wheel.clear(); }

    /** Wheel self-measurement (docs/METRICS.md "queue.*"). */
    const TimingWheel &wheel() const { return _wheel; }

    /** Sample the horizon histogram on every schedule (off by
     *  default). */
    void
    enableHorizonHistogram(bool on)
    {
        _wheel.enableHorizonHistogram(on);
    }

  private:
    /** Out-of-line slow path of the sampling hook: fire it once for
     *  the crossed boundary, then advance past any skipped intervals
     *  (time jumps in idle stretches; one sample per crossing, not per
     *  skipped boundary, mirroring how a hardware sampling counter
     *  reads on the next cycle it is clocked). */
    void fireSampleHook();

    TimingWheel _wheel;
    Cycle _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    Cycle _maxScheduledAt = 0; ///< furthest cycle ever scheduled
    Cycle _nextSampleAt = kNoEvent; ///< kNoEvent = sampling disarmed
    Cycle _sampleInterval = 0;
    SampleHook _sampleHook = nullptr;
    void *_sampleCtx = nullptr;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_SIM_EVENT_QUEUE_HH
