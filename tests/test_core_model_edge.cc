/**
 * @file
 * Edge-case tests for the trace-driven core model: degenerate traces,
 * barrier corner cases, and completion bookkeeping under merges.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "workload/core_model.hh"

namespace flexsnoop
{
namespace
{

Addr
lineAt(std::uint64_t idx)
{
    return idx * kLineSizeBytes;
}

CoreTraces
emptyTraces(std::size_t cores)
{
    CoreTraces traces;
    traces.traces.resize(cores);
    traces.warmupRefs = 0;
    return traces;
}

TEST(CoreModelEdge, EmptyTracesFinishImmediately)
{
    Machine machine(MachineConfig::testDefault(Algorithm::Lazy));
    const CoreTraces traces = emptyTraces(4);
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          CoreParams{});
    runner.run();
    EXPECT_TRUE(runner.allDone());
    EXPECT_EQ(machine.queue().now(), 0u);
}

TEST(CoreModelEdge, SingleRefPerCore)
{
    Machine machine(MachineConfig::testDefault(Algorithm::Lazy));
    CoreTraces traces = emptyTraces(4);
    for (CoreId c = 0; c < 4; ++c) {
        MemRef ref;
        ref.addr = lineAt(100 + c);
        ref.gap = 1;
        traces.traces[c].push_back(ref);
    }
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          CoreParams{});
    runner.run();
    EXPECT_TRUE(runner.allDone());
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_EQ(runner.core(c).refsIssued(), 1u);
}

TEST(CoreModelEdge, NoWarmupMeansNoBarrier)
{
    Machine machine(MachineConfig::testDefault(Algorithm::Lazy));
    CoreTraces traces = emptyTraces(4);
    for (CoreId c = 0; c < 4; ++c) {
        for (int i = 0; i < 5; ++i) {
            MemRef ref;
            ref.addr = lineAt(200 + c * 10 + i);
            ref.gap = 2;
            traces.traces[c].push_back(ref);
        }
    }
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          CoreParams{});
    bool warmup_fired = false;
    runner.setWarmupDoneFn([&]() { warmup_fired = true; });
    runner.run();
    EXPECT_TRUE(runner.allDone());
    EXPECT_FALSE(warmup_fired)
        << "warmupRefs == 0 must not trigger the barrier hook";
    EXPECT_EQ(runner.measureStart(), 0u);
}

TEST(CoreModelEdge, WholeTraceAsWarmup)
{
    // warmupRefs equal to the trace length: the barrier fires at the
    // end and the measured phase is empty but the run still drains.
    Machine machine(MachineConfig::testDefault(Algorithm::Lazy));
    CoreTraces traces = emptyTraces(4);
    traces.warmupRefs = 3;
    for (CoreId c = 0; c < 4; ++c) {
        for (int i = 0; i < 3; ++i) {
            MemRef ref;
            ref.addr = lineAt(300 + c * 10 + i);
            ref.gap = 2;
            traces.traces[c].push_back(ref);
        }
    }
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          CoreParams{});
    bool warmup_fired = false;
    runner.setWarmupDoneFn([&]() { warmup_fired = true; });
    runner.run();
    EXPECT_TRUE(runner.allDone());
    EXPECT_TRUE(warmup_fired);
}

TEST(CoreModelEdge, RepeatedSameLineRefsBalanceCompletions)
{
    // The same core hammers one line with reads and writes; the
    // per-line completion multiset must balance exactly.
    Machine machine(MachineConfig::testDefault(Algorithm::SupersetAgg));
    CoreTraces traces = emptyTraces(4);
    for (int i = 0; i < 40; ++i) {
        MemRef ref;
        ref.addr = lineAt(7);
        ref.isWrite = i % 3 == 0;
        ref.gap = 1;
        traces.traces[0].push_back(ref);
    }
    CoreParams params;
    params.maxOutstanding = 4;
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          params);
    runner.run();
    EXPECT_TRUE(runner.allDone());
    EXPECT_TRUE(runner.core(0).inFlight().empty());
    EXPECT_EQ(runner.core(0).stats().counterValue("completions"), 40u);
}

TEST(CoreModelEdge, UnevenTraceLengthsDrain)
{
    Machine machine(MachineConfig::testDefault(Algorithm::Lazy));
    CoreTraces traces = emptyTraces(4);
    for (int i = 0; i < 50; ++i) {
        MemRef ref;
        ref.addr = lineAt(400 + i);
        ref.gap = 3;
        traces.traces[0].push_back(ref);
    }
    MemRef lone;
    lone.addr = lineAt(999);
    lone.gap = 1;
    traces.traces[2].push_back(lone);
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          CoreParams{});
    runner.run();
    EXPECT_TRUE(runner.allDone());
}

TEST(CoreModelEdge, WindowOfOneSerializesIssues)
{
    Machine machine(MachineConfig::testDefault(Algorithm::Lazy));
    CoreTraces traces = emptyTraces(4);
    for (int i = 0; i < 10; ++i) {
        MemRef ref;
        ref.addr = lineAt(500 + i);
        ref.gap = 1;
        traces.traces[1].push_back(ref);
    }
    CoreParams params;
    params.maxOutstanding = 1;
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          params);
    runner.run();
    EXPECT_TRUE(runner.allDone());
    // With a window of one, each miss's full latency serializes: the
    // run must take at least 10 memory round trips.
    EXPECT_GT(machine.queue().now(), 10u * 300u);
}

} // namespace
} // namespace flexsnoop
