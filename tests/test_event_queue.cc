/**
 * @file
 * Unit tests for the discrete-event kernel.
 *
 * Every behavioural test runs against both EventQueue (the timing
 * wheel) and the reference binary heap (reference_heap_queue.hh), so
 * the differential oracle is held to the same contract as the queue it
 * checks; wheel-specific structure — cascades, the far list, sizing,
 * the horizon histogram, the entry arena's storage bound — is covered
 * separately, and a randomized differential test drives both with one
 * script and demands identical fire order.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reference_heap_queue.hh"
#include "sim/event_fn.hh"
#include "sim/event_queue.hh"

namespace flexsnoop
{
namespace
{

enum class QueueImpl
{
    Wheel,
    Heap,
};

/** The scheduling surface EventQueue and ReferenceHeapQueue share. */
class AnyQueue
{
  public:
    virtual ~AnyQueue() = default;
    virtual Cycle now() const = 0;
    virtual std::size_t pending() const = 0;
    virtual std::uint64_t executed() const = 0;
    virtual Cycle minPendingTime() const = 0;
    virtual void schedule(Cycle delay, EventFn fn) = 0;
    virtual void scheduleAt(Cycle when, EventFn fn) = 0;
    virtual bool step() = 0;
    virtual std::uint64_t run(Cycle limit = EventQueue::kNoEvent) = 0;
    virtual void clear() = 0;
};

template <class Queue>
class QueueAdaptor final : public AnyQueue
{
  public:
    Cycle now() const override { return _q.now(); }
    std::size_t pending() const override { return _q.pending(); }
    std::uint64_t executed() const override { return _q.executed(); }
    Cycle minPendingTime() const override { return _q.minPendingTime(); }
    void
    schedule(Cycle delay, EventFn fn) override
    {
        _q.schedule(delay, std::move(fn));
    }
    void
    scheduleAt(Cycle when, EventFn fn) override
    {
        _q.scheduleAt(when, std::move(fn));
    }
    bool step() override { return _q.step(); }
    std::uint64_t run(Cycle limit) override { return _q.run(limit); }
    void clear() override { _q.clear(); }

  private:
    Queue _q;
};

std::unique_ptr<AnyQueue>
makeQueue(QueueImpl impl)
{
    if (impl == QueueImpl::Wheel)
        return std::make_unique<QueueAdaptor<EventQueue>>();
    return std::make_unique<QueueAdaptor<ReferenceHeapQueue>>();
}

class EventQueueImpl : public ::testing::TestWithParam<QueueImpl>
{
  protected:
    std::unique_ptr<AnyQueue> _queue = makeQueue(GetParam());
    AnyQueue &q = *_queue;
};

INSTANTIATE_TEST_SUITE_P(
    BothImpls, EventQueueImpl,
    ::testing::Values(QueueImpl::Wheel, QueueImpl::Heap),
    [](const ::testing::TestParamInfo<QueueImpl> &info) {
        return info.param == QueueImpl::Wheel ? "Wheel" : "Heap";
    });

TEST_P(EventQueueImpl, StartsAtCycleZeroAndEmpty)
{
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 0u);
    EXPECT_EQ(q.minPendingTime(), EventQueue::kNoEvent);
}

TEST_P(EventQueueImpl, ExecutesEventAtScheduledCycle)
{
    Cycle fired_at = 0;
    q.schedule(42, [&]() { fired_at = q.now(); });
    EXPECT_EQ(q.minPendingTime(), 42u);
    q.run();
    EXPECT_EQ(fired_at, 42u);
    EXPECT_EQ(q.now(), 42u);
}

TEST_P(EventQueueImpl, ZeroDelayEventRunsAtCurrentCycle)
{
    bool fired = false;
    q.schedule(0, [&]() { fired = true; });
    q.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(q.now(), 0u);
}

TEST_P(EventQueueImpl, EventsFireInTimeOrder)
{
    std::vector<int> order;
    q.schedule(30, [&]() { order.push_back(3); });
    q.schedule(10, [&]() { order.push_back(1); });
    q.schedule(20, [&]() { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(EventQueueImpl, SameCycleEventsFireFifo)
{
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&order, i]() { order.push_back(i); });
    q.run();
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_P(EventQueueImpl, EventsMayScheduleMoreEvents)
{
    int count = 0;
    std::function<void()> chain = [&]() {
        ++count;
        if (count < 5)
            q.schedule(10, chain);
    };
    q.schedule(10, chain);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 50u);
}

TEST_P(EventQueueImpl, RunHonorsCycleLimit)
{
    int fired = 0;
    q.schedule(10, [&]() { ++fired; });
    q.schedule(100, [&]() { ++fired; });
    q.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST_P(EventQueueImpl, StepExecutesExactlyOneEvent)
{
    int fired = 0;
    q.schedule(1, [&]() { ++fired; });
    q.schedule(2, [&]() { ++fired; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(q.step());
}

TEST_P(EventQueueImpl, ClearDropsPendingEvents)
{
    int fired = 0;
    q.schedule(1, [&]() { ++fired; });
    q.clear();
    q.run();
    EXPECT_EQ(fired, 0);
}

TEST_P(EventQueueImpl, ExecutedCountsAllFiredEvents)
{
    for (int i = 0; i < 17; ++i)
        q.schedule(i, []() {});
    q.run();
    EXPECT_EQ(q.executed(), 17u);
}

TEST_P(EventQueueImpl, ScheduleAtAbsoluteCycle)
{
    q.schedule(10, []() {});
    q.run();
    Cycle fired_at = 0;
    q.scheduleAt(25, [&]() { fired_at = q.now(); });
    q.run();
    EXPECT_EQ(fired_at, 25u);
}

TEST_P(EventQueueImpl, NestedZeroDelayPreservesFifoWithinCycle)
{
    std::vector<int> order;
    q.schedule(5, [&]() {
        order.push_back(1);
        q.schedule(0, [&]() { order.push_back(3); });
    });
    q.schedule(5, [&]() { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(EventQueueImpl, SameCycleFifoSurvivesHeavyInterleaving)
{
    // Stress the tie-breaking: many events on a few cycles, scheduled
    // in a scattered order, must still fire grouped by cycle and FIFO
    // within each cycle.
    std::vector<std::pair<Cycle, int>> order;
    int seq_per_cycle[7] = {};
    for (int i = 0; i < 700; ++i) {
        const Cycle when = static_cast<Cycle>((i * 13) % 7);
        const int seq = seq_per_cycle[when]++;
        q.schedule(when, [&order, when, seq]() {
            order.emplace_back(when, seq);
        });
    }
    q.run();
    ASSERT_EQ(order.size(), 700u);
    for (std::size_t i = 1; i < order.size(); ++i) {
        ASSERT_GE(order[i].first, order[i - 1].first);
        if (order[i].first == order[i - 1].first) {
            ASSERT_EQ(order[i].second, order[i - 1].second + 1);
        }
    }
}

TEST_P(EventQueueImpl, ClearThenReuseSchedulesFreshEvents)
{
    int dropped = 0, fired = 0;
    q.schedule(10, [&]() { ++dropped; });
    q.schedule(20, [&]() { ++dropped; });
    q.clear();
    EXPECT_EQ(q.pending(), 0u);

    // The queue must be fully usable after clear(): new events fire in
    // order and FIFO ties still hold.
    std::vector<int> order;
    q.schedule(7, [&]() { order.push_back(1); ++fired; });
    q.schedule(7, [&]() { order.push_back(2); ++fired; });
    q.schedule(3, [&]() { order.push_back(0); ++fired; });
    q.run();
    EXPECT_EQ(dropped, 0);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.now(), 7u);
}

TEST_P(EventQueueImpl, LargeCaptureFallsBackToHeapAndRuns)
{
    // A capture bigger than EventFn's inline buffer must still execute
    // correctly (heap fallback path).
    std::array<std::uint64_t, 32> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = i + 1;
    static_assert(sizeof(payload) > EventFn::kInlineSize);

    std::uint64_t sum = 0;
    q.schedule(1, [payload, &sum]() {
        for (auto v : payload)
            sum += v;
    });
    q.run();
    EXPECT_EQ(sum, 32u * 33u / 2u);
}

TEST_P(EventQueueImpl, MoveOnlyCallablesAreSupported)
{
    // EventFn is move-only, so callables owning resources (unique_ptr)
    // can be scheduled directly — std::function could not hold these.
    auto owned = std::make_unique<int>(41);
    int result = 0;
    q.schedule(2, [p = std::move(owned), &result]() { result = *p + 1; });
    q.run();
    EXPECT_EQ(result, 42);
}

// Edge behaviour shared by both implementations --------------------------

TEST_P(EventQueueImpl, MinPendingTimeTracksTheFrontier)
{
    q.schedule(90, []() {});
    q.schedule(40, []() {});
    EXPECT_EQ(q.minPendingTime(), 40u);
    q.schedule(10, []() {});
    EXPECT_EQ(q.minPendingTime(), 10u);
    q.step();
    EXPECT_EQ(q.minPendingTime(), 40u);
    q.step();
    EXPECT_EQ(q.minPendingTime(), 90u);
    q.step();
    EXPECT_EQ(q.minPendingTime(), EventQueue::kNoEvent);
}

TEST_P(EventQueueImpl, LongIdleJumpThenZeroDelay)
{
    // Drain far past the near window, then schedule at the new now:
    // the wheel must re-anchor, not wrap onto stale buckets.
    std::vector<Cycle> fired;
    q.schedule(1'000'000, [&]() {
        fired.push_back(q.now());
        q.schedule(0, [&]() { fired.push_back(q.now()); });
        q.schedule(3, [&]() { fired.push_back(q.now()); });
    });
    q.run();
    EXPECT_EQ(fired, (std::vector<Cycle>{1'000'000, 1'000'000, 1'000'003}));
}

TEST_P(EventQueueImpl, SameCycleFifoAcrossWheelWrap)
{
    // Pairs of same-cycle events on cycles straddling several near-
    // window wraps (the wheel defaults to 256 single-cycle buckets):
    // FIFO within a cycle must hold no matter which wrap the bucket
    // belongs to, including events scheduled across different wraps
    // before any of them fire.
    std::vector<std::pair<Cycle, int>> order;
    const std::array<Cycle, 6> cycles = {250, 255, 256, 257, 511, 513};
    for (int round = 0; round < 4; ++round)
        for (const Cycle c : cycles)
            q.schedule(c, [&order, c, round]() {
                order.emplace_back(c, round);
            });
    q.run();
    ASSERT_EQ(order.size(), cycles.size() * 4);
    std::size_t i = 0;
    for (const Cycle c : cycles)
        for (int round = 0; round < 4; ++round, ++i) {
            EXPECT_EQ(order[i].first, c);
            EXPECT_EQ(order[i].second, round);
        }
}

TEST_P(EventQueueImpl, DelaysSpanningEveryWheelLevel)
{
    // One event per structural region of the wheel: current bucket,
    // near window, each overflow level, and the far list — scheduled
    // out of order, fired in order.
    const std::vector<Cycle> delays = {
        1ull << 40,       // far list (beyond level 3)
        (1ull << 25) + 3, // level 3
        70'000,           // level 2
        3'000,            // level 1
        100,              // near window
        0,                // current bucket
    };
    std::vector<Cycle> fired;
    for (const Cycle d : delays)
        q.schedule(d, [&fired, &q = q]() { fired.push_back(q.now()); });
    q.run();
    std::vector<Cycle> expect(delays.rbegin(), delays.rend());
    EXPECT_EQ(fired, expect);
}

TEST_P(EventQueueImpl, RunWithNoEventLimitDrainsEverything)
{
    int fired = 0;
    q.schedule(10, [&]() { ++fired; });
    q.schedule(1ull << 35, [&]() { ++fired; });
    EXPECT_EQ(q.run(EventQueue::kNoEvent), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.pending(), 0u);
}

// Wheel-specific structure ----------------------------------------------

TEST(TimingWheelQueue, ConfigureRoundsToPowerOfTwoAndClamps)
{
    EventQueue q;
    q.configureWheel(1420); // rounds up to the next power of two
    EXPECT_EQ(q.nearBuckets(), 2048u);
    q.configureWheel(64);
    EXPECT_EQ(q.nearBuckets(), 64u);
    q.configureWheel(1); // below the minimum
    EXPECT_EQ(q.nearBuckets(), TimingWheel::kMinNearBuckets);
    q.configureWheel(1u << 20); // above the maximum
    EXPECT_EQ(q.nearBuckets(), TimingWheel::kMaxNearBuckets);
}

TEST(TimingWheelQueue, ConfiguredSizeStillFiresInOrder)
{
    for (const std::size_t buckets : {64u, 256u, 4096u}) {
        EventQueue q;
        q.configureWheel(buckets);
        std::vector<Cycle> fired;
        for (const Cycle d : {5000u, 63u, 700u, 0u, 65u})
            q.schedule(d, [&fired, &q]() { fired.push_back(q.now()); });
        q.run();
        EXPECT_EQ(fired, (std::vector<Cycle>{0, 63, 65, 700, 5000}))
            << buckets << " near buckets";
    }
}

TEST(TimingWheelQueue, OverflowEventsCascadeDown)
{
    EventQueue q;
    q.configureWheel(64);
    int fired = 0;
    // Past the 64-cycle near window: must first land in an overflow
    // level, then cascade into the near wheel as time advances.
    q.schedule(10'000, [&]() { ++fired; });
    q.schedule(200, [&]() { ++fired; });
    EXPECT_EQ(q.wheel().overflowScheduled(), 2u);
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_GE(q.wheel().cascades(), 2u);
    EXPECT_GE(q.wheel().cascadedEntries(), 2u);
}

TEST(TimingWheelQueue, FarListBeyondLastOverflowLevel)
{
    EventQueue q;
    q.configureWheel(64);
    // 64 near cycles + 3 levels x 8 bits = 2^30 max coverage; past
    // that the entry rides the unsorted far list.
    const Cycle far_delay = 1ull << 32;
    std::vector<Cycle> fired;
    q.schedule(far_delay, [&]() { fired.push_back(q.now()); });
    q.schedule(far_delay + 1, [&]() { fired.push_back(q.now()); });
    q.schedule(5, [&]() { fired.push_back(q.now()); });
    EXPECT_EQ(q.wheel().farScheduled(), 2u);
    q.run();
    EXPECT_EQ(fired,
              (std::vector<Cycle>{5, far_delay, far_delay + 1}));
}

TEST(TimingWheelQueue, HorizonHistogramCountsByDelayBitWidth)
{
    EventQueue q;
    q.enableHorizonHistogram(true);
    q.schedule(0, []() {});   // bit_width(0) = 0
    q.schedule(1, []() {});   // 1
    q.schedule(3, []() {});   // 2
    q.schedule(200, []() {}); // 8
    q.schedule(300, []() {}); // 9
    q.schedule(511, []() {}); // 9
    const auto &h = q.wheel().horizonHistogram();
    EXPECT_EQ(h[0], 1u);
    EXPECT_EQ(h[1], 1u);
    EXPECT_EQ(h[2], 1u);
    EXPECT_EQ(h[8], 1u);
    EXPECT_EQ(h[9], 2u);
    q.run();
}

// Differential: one script, wheel and reference heap, identical order ----

/** Deterministic xorshift64* so the stress script is reproducible. */
struct Rng
{
    std::uint64_t s = 0x9e3779b97f4a7c15ull;

    Rng() = default;
    /** Distinct non-zero state per seed. */
    explicit Rng(std::uint64_t seed)
        : s(0x9e3779b97f4a7c15ull * (2 * seed + 1))
    {
    }

    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dull;
    }
    std::uint64_t pick(std::uint64_t n) { return next() % n; }
};

TEST(QueueDifferential, WheelMatchesHeapOnRandomScript)
{
    // Delay mix mirroring the simulator: mostly short ring-scale hops,
    // some bus/memory round trips, rare watchdog-scale timeouts.
    const auto draw_delay = [](Rng &r) -> Cycle {
        switch (r.pick(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
            return r.pick(8); // same-cycle / next-hop
        case 4:
        case 5:
        case 6:
            return 39 + r.pick(300); // ring and bus latencies
        case 7:
        case 8:
            return 710 + r.pick(2000); // memory round trips
        default:
            return 20'000 + r.pick(1u << 22); // watchdog horizon
        }
    };

    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        EventQueue wheel;
        ReferenceHeapQueue heap;
        std::vector<std::uint64_t> wheel_order, heap_order;
        Rng rng(seed);
        std::uint64_t next_id = 0;
        for (int round = 0; round < 40; ++round) {
            // Same script against both queues: a batch of schedules,
            // then a partial drain. Both must observe identical state
            // throughout.
            const std::size_t batch = 4 + rng.pick(24);
            for (std::size_t i = 0; i < batch; ++i) {
                const Cycle delay = draw_delay(rng);
                const std::uint64_t id = next_id++;
                wheel.schedule(delay, [&wheel_order, id]() {
                    wheel_order.push_back(id);
                });
                heap.schedule(delay, [&heap_order, id]() {
                    heap_order.push_back(id);
                });
            }

            const std::size_t steps = rng.pick(2 * batch);
            for (std::size_t i = 0; i < steps; ++i) {
                if (!wheel.step())
                    break;
                ASSERT_TRUE(heap.step());
            }
            ASSERT_EQ(wheel.now(), heap.now()) << "round " << round;
            ASSERT_EQ(wheel.pending(), heap.pending()) << "round " << round;
            ASSERT_EQ(wheel.minPendingTime(), heap.minPendingTime())
                << "round " << round;
        }

        wheel.run();
        heap.run();
        EXPECT_EQ(wheel.executed(), heap.executed());
        EXPECT_EQ(wheel.now(), heap.now());
        ASSERT_EQ(wheel_order.size(), heap_order.size());
        EXPECT_EQ(wheel_order, heap_order);
    }
}

TEST(QueueDifferential, CascadedEntryAndLaterNearInsertShareACycle)
{
    // A (cycle 100) is scheduled past the 64-cycle near window and so
    // lands in overflow level 1. B (cycle 70) fires after that bucket
    // cascaded into the near wheel, and schedules C at cycle 100 from
    // there: C is appended to the near bucket A now occupies, and must
    // fire after A (lower seq) on both schedulers.
    EventQueue wheel;
    wheel.configureWheel(64);
    ReferenceHeapQueue heap;
    std::vector<char> wheel_order, heap_order;
    const auto script = [](auto &q, std::vector<char> &order) {
        q.scheduleAt(100, [&order]() { order.push_back('A'); });
        q.scheduleAt(70, [&q, &order]() {
            order.push_back('B');
            q.scheduleAt(100, [&order]() { order.push_back('C'); });
        });
        q.run();
    };
    script(wheel, wheel_order);
    script(heap, heap_order);
    // A and B missed the near wheel; C, inserted after the cascade,
    // did not.
    EXPECT_EQ(wheel.wheel().overflowScheduled(), 2u);
    EXPECT_GE(wheel.wheel().cascades(), 1u);
    EXPECT_EQ(wheel_order, (std::vector<char>{'B', 'A', 'C'}));
    EXPECT_EQ(wheel_order, heap_order);
}

TEST(TimingWheelQueue, ArenaStaysWithinPeakLiveEvents)
{
    // Churn 1M events through every level -- the near wheel, the three
    // overflow levels and the far list -- and their cascades, while the
    // live set swells and shrinks. Entry storage must stay bounded by
    // the peak number of pending events, however many pass through.
    EventQueue q;
    q.configureWheel(64);
    const auto draw_delay = [](Rng &r) -> Cycle {
        const std::uint64_t k = r.pick(1000);
        if (k < 600)
            return r.pick(64); // near
        if (k < 900)
            return 64 + r.pick(16'384); // overflow level 1
        if (k < 990)
            return 16'384 + r.pick(1u << 22); // levels 2 and 3
        if (k < 998)
            return (Cycle{1} << 22) + r.pick(Cycle{1} << 28); // level 3
        return (Cycle{1} << 30) + r.pick(Cycle{1} << 32);    // far list
    };

    constexpr std::uint64_t kEvents = 1'000'000;
    Rng rng;
    std::uint64_t next_id = 0;
    std::size_t peak = 0;
    Cycle last_when = 0;
    std::uint64_t last_id = 0;
    std::uint64_t fired = 0;
    bool ordered = true;
    while (next_id < kEvents) {
        // The live-set target sweeps 16..1024 and back every 64K ids.
        const std::size_t target = 16 + ((next_id >> 10) % 64) * 16;
        while (q.pending() < target && next_id < kEvents) {
            const Cycle when = q.now() + draw_delay(rng);
            const std::uint64_t id = next_id++;
            q.scheduleAt(when, [&, when, id]() {
                // (cycle, schedule order) strictly increasing.
                ordered = ordered && q.now() == when &&
                          (fired == 0 || when > last_when ||
                           (when == last_when && id > last_id));
                last_when = when;
                last_id = id;
                ++fired;
            });
            peak = std::max(peak, q.pending());
        }
        ASSERT_TRUE(q.step());
    }
    q.run();

    EXPECT_TRUE(ordered);
    EXPECT_EQ(fired, kEvents);
    const TimingWheel &wheel = q.wheel();
    EXPECT_GT(wheel.overflowScheduled(), 0u);
    EXPECT_GT(wheel.farScheduled(), 0u);
    EXPECT_GT(wheel.cascades(), 0u);
    EXPECT_GT(wheel.cascadedEntries(), 0u);
    EXPECT_GE(peak, 1024u);
    EXPECT_LE(wheel.arenaSlots(), peak);
}

} // namespace
} // namespace flexsnoop
