/**
 * @file
 * Head-to-head scheduler benchmark: EventQueue's hierarchical timing
 * wheel vs the reference binary heap the tests check it against
 * (tests/reference_heap_queue.hh), on the event shapes the simulator
 * actually produces. Two scenarios:
 *
 *  - steady state: a full queue (1k / 16k pending) with one pop and one
 *    schedule per operation, delays drawn from the ring/bus/memory/
 *    watchdog latency mix — the figure benches' inner loop;
 *  - burst: schedule a batch cold and drain it — experiment setup and
 *    teardown phases.
 *
 * Reports ns/op per implementation and the wheel's speedup, and writes
 * BENCH_event_queue.json (schema in docs/METRICS.md). The acceptance
 * bound for the scheduler rewrite is speedup_steady_* >= 2.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "reference_heap_queue.hh"
#include "sim/event_queue.hh"

namespace flexsnoop
{
namespace
{

/** Deterministic xorshift64* so both implementations (and every run)
 *  see the same delay sequence. */
struct Rng
{
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
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

/** The simulator's delay mix: mostly ring-hop scale, some bus/memory
 *  round trips, a rare watchdog-scale timeout (paper Table 4). */
Cycle
drawDelay(Rng &rng)
{
    switch (rng.pick(16)) {
    case 0:
    case 1:
    case 2:
    case 3:
    case 4:
    case 5:
        return 39 + rng.pick(16); // link + serialization
    case 6:
    case 7:
    case 8:
    case 9:
        return 55 + rng.pick(64); // CMP snoop / gateway
    case 10:
    case 11:
        return 130 + rng.pick(64); // local bus round trip
    case 12:
    case 13:
        return 312 + rng.pick(128); // local memory
    case 14:
        return 710 + rng.pick(256); // remote memory
    default:
        return rng.pick(8) == 0 ? 20'000 // watchdog timeout
                                : 1 + rng.pick(8);
    }
}

double
toNs(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double, std::nano>(d).count();
}

/** Pre-drawn delay sequence (power-of-two length) so the timed loops
 *  measure the scheduler, not the RNG. */
constexpr std::size_t kDelayMask = (1u << 16) - 1;

std::vector<Cycle>
drawDelays()
{
    Rng rng;
    std::vector<Cycle> delays(kDelayMask + 1);
    for (Cycle &d : delays)
        d = drawDelay(rng);
    return delays;
}

/** Size each scheduler for a run of up to @p events pending. */
void
prepare(EventQueue &q, std::size_t)
{
    q.configureWheel(1024); // what MachineConfig::paperDefault derives
}

void
prepare(ReferenceHeapQueue &q, std::size_t events)
{
    q.reserve(events);
}

/** Steady-state schedule/pop at ~@p depth pending events. @return ns
 *  per (pop + schedule) pair. */
template <typename Queue>
double
steadyStateNsPerOp(std::size_t depth, std::size_t ops)
{
    static const std::vector<Cycle> delays = drawDelays();
    Queue q;
    prepare(q, depth + 1);
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(delays[i & kDelayMask], [&sink]() { ++sink; });

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
        q.step();
        q.schedule(delays[i & kDelayMask], [&sink]() { ++sink; });
    }
    const auto stop = std::chrono::steady_clock::now();

    q.clear();
    if (sink != ops) // keep the callables observable
        std::cerr << "steady-state sink mismatch\n";
    return toNs(stop - start) / static_cast<double>(ops);
}

/** Cold batch schedule + full drain. @return ns per event. */
template <typename Queue>
double
burstNsPerEvent(std::size_t batch, std::size_t rounds)
{
    static const std::vector<Cycle> delays = drawDelays();
    Queue q;
    prepare(q, batch);
    std::uint64_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < batch; ++i)
            q.schedule(delays[i & kDelayMask], [&sink]() { ++sink; });
        q.run();
    }
    const auto stop = std::chrono::steady_clock::now();
    if (sink != batch * rounds)
        std::cerr << "burst sink mismatch\n";
    return toNs(stop - start) / static_cast<double>(batch * rounds);
}

/** Best of five timed runs (after one warmup) to shed scheduler and
 *  allocator noise. */
template <typename Fn>
double
bestOf(Fn &&fn)
{
    fn(); // warmup: page faults, bucket/heap capacity growth
    double best = fn();
    for (int i = 0; i < 4; ++i)
        best = std::min(best, fn());
    return best;
}

struct Pair
{
    double heap;
    double wheel;
    double speedup() const { return heap / wheel; }
};

void
report(const std::string &label, const Pair &p)
{
    std::cout << "  " << label << ": heap " << p.heap << " ns, wheel "
              << p.wheel << " ns  (" << p.speedup() << "x)\n";
}

} // namespace
} // namespace flexsnoop

int
main()
{
    using namespace flexsnoop;
    const double scale = bench::benchScale();
    const auto ops = [&](std::size_t n) {
        return std::max<std::size_t>(1000,
                                     static_cast<std::size_t>(n * scale));
    };

    std::cout << "Event-queue scheduler: binary heap vs timing wheel\n";

    const Pair steady_1k = {
        bestOf([&]() {
            return steadyStateNsPerOp<ReferenceHeapQueue>(
                1024, ops(2'000'000));
        }),
        bestOf([&]() {
            return steadyStateNsPerOp<EventQueue>(1024, ops(2'000'000));
        })};
    report("steady 1k pending   ", steady_1k);

    const Pair steady_16k = {
        bestOf([&]() {
            return steadyStateNsPerOp<ReferenceHeapQueue>(
                16384, ops(2'000'000));
        }),
        bestOf([&]() {
            return steadyStateNsPerOp<EventQueue>(16384, ops(2'000'000));
        })};
    report("steady 16k pending  ", steady_16k);

    const std::size_t burst_rounds =
        std::max<std::size_t>(1, static_cast<std::size_t>(40 * scale));
    const Pair burst = {
        bestOf([&]() {
            return burstNsPerEvent<ReferenceHeapQueue>(16384, burst_rounds);
        }),
        bestOf([&]() {
            return burstNsPerEvent<EventQueue>(16384, burst_rounds);
        })};
    report("burst 16k batch     ", burst);

    bench::writeBenchRecord(
        "event_queue",
        {{"ns_per_op_steady1k_heap", steady_1k.heap},
         {"ns_per_op_steady1k_wheel", steady_1k.wheel},
         {"speedup_steady1k", steady_1k.speedup()},
         {"ns_per_op_steady16k_heap", steady_16k.heap},
         {"ns_per_op_steady16k_wheel", steady_16k.wheel},
         {"speedup_steady16k", steady_16k.speedup()},
         {"ns_per_event_burst_heap", burst.heap},
         {"ns_per_event_burst_wheel", burst.wheel},
         {"speedup_burst", burst.speedup()}});
    return 0;
}
