/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot data structures of the
 * simulator: event queue, set-associative arrays, Bloom filter,
 * predictors, and ring message hops. These guard the simulator's own
 * performance; they do not correspond to a paper figure.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hh"
#include "core/machine.hh"
#include "core/simulation.hh"
#include "net/ring.hh"
#include "trace/trace_sink.hh"
#include "workload/synthetic_generator.hh"
#include "predictor/exact_predictor.hh"
#include "predictor/subset_predictor.hh"
#include "predictor/superset_predictor.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "workload/core_model.hh"

namespace flexsnoop
{
namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue queue;
        int sink = 0;
        for (int i = 0; i < batch; ++i)
            queue.schedule(static_cast<Cycle>(i % 97), [&sink]() {
                benchmark::DoNotOptimize(++sink);
            });
        queue.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

/**
 * Same schedule/run loop but with a capture too large for EventFn's
 * inline buffer, forcing the heap fallback — the cost the
 * small-buffer optimization avoids on the simulator's hot path.
 */
void
BM_EventQueueScheduleRunHeapCallable(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue queue;
        int sink = 0;
        for (int i = 0; i < batch; ++i) {
            std::array<std::uint64_t, 16> payload{};
            payload[0] = static_cast<std::uint64_t>(i);
            queue.schedule(static_cast<Cycle>(i % 97),
                           [&sink, payload]() {
                               benchmark::DoNotOptimize(
                                   sink += static_cast<int>(payload[0]));
                           });
        }
        queue.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRunHeapCallable)->Arg(1024);

// Counter increment, the way the protocol hot path used to do it: a
// by-name lookup in the stat group on every event. The group carries a
// controller-sized population of counters.
void
BM_StatCounterIncByName(benchmark::State &state)
{
    StatGroup stats("bench");
    for (int i = 0; i < 30; ++i)
        stats.counter("counter_" + std::to_string(i));
    Counter &hot = stats.counter("read_snoops");
    for (auto _ : state) {
        stats.counter("read_snoops").inc();
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(hot.value());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatCounterIncByName);

// Counter increment through a handle resolved once at construction —
// what the controllers do now.
void
BM_StatCounterIncCached(benchmark::State &state)
{
    StatGroup stats("bench");
    for (int i = 0; i < 30; ++i)
        stats.counter("counter_" + std::to_string(i));
    Counter &hot = stats.counter("read_snoops");
    for (auto _ : state) {
        hot.inc();
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(hot.value());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatCounterIncCached);

void
BM_SetAssocArrayChurn(benchmark::State &state)
{
    SetAssocArray<int> array(8192, 8);
    Rng rng(1);
    for (auto _ : state) {
        const Addr line = rng.nextBelow(32768) * kLineSizeBytes;
        benchmark::DoNotOptimize(array.insert(line, 1));
        benchmark::DoNotOptimize(array.find(line));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetAssocArrayChurn);

void
BM_BloomFilterQuery(benchmark::State &state)
{
    CountingBloomFilter filter({10, 4, 7});
    Rng rng(2);
    for (int i = 0; i < 2000; ++i)
        filter.insert(rng.nextBelow(1 << 20) * kLineSizeBytes);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            filter.mayContain(rng.nextBelow(1 << 20) * kLineSizeBytes));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomFilterQuery);

void
BM_SubsetPredictorLookup(benchmark::State &state)
{
    SubsetPredictor pred("p", 2048, 8, 18, 2);
    Rng rng(3);
    for (int i = 0; i < 1500; ++i)
        pred.supplierGained(rng.nextBelow(1 << 16) * kLineSizeBytes);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pred.predict(rng.nextBelow(1 << 16) * kLineSizeBytes));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubsetPredictorLookup);

void
BM_SupersetPredictorLookup(benchmark::State &state)
{
    SupersetPredictor pred("p", {10, 4, 7}, 2048, 8, 18, 2);
    Rng rng(4);
    for (int i = 0; i < 1500; ++i)
        pred.supplierGained(rng.nextBelow(1 << 16) * kLineSizeBytes);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pred.predict(rng.nextBelow(1 << 16) * kLineSizeBytes));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SupersetPredictorLookup);

void
BM_RingFullCircle(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue queue;
        Ring ring(queue, 8, RingParams{}, "bench");
        int arrivals = 0;
        for (NodeId n = 0; n < 8; ++n) {
            ring.setHandler(n, [&, n](const SnoopMessage &msg) {
                ++arrivals;
                if (n != msg.requester)
                    ring.send(n, msg);
            });
        }
        SnoopMessage msg;
        msg.line = 0;
        msg.requester = 0;
        msg.txn = 1;
        ring.send(0, msg);
        queue.run();
        benchmark::DoNotOptimize(arrivals);
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_RingFullCircle);

/**
 * Trace-point cost with tracing disabled: the exact shape every
 * instrumented site compiles to — one branch on a cached null pointer.
 */
void
BM_TracePointDisabled(benchmark::State &state)
{
    TraceSink *trace = nullptr;
    benchmark::DoNotOptimize(trace);
    Cycle cycle = 0;
    for (auto _ : state) {
        ++cycle;
        if (trace)
            trace->record(TraceEvent::Hop, cycle, 1, 0x1234);
        benchmark::DoNotOptimize(cycle);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracePointDisabled);

/**
 * TraceSink::record() hot path, drop (0) vs spill (1) mode. The 256 KiB
 * buffer overflows every ~6.5k records, so the spill variant includes
 * the amortized fwrite cost — the worst case a traced run pays.
 */
void
BM_TraceSinkRecord(benchmark::State &state)
{
    const std::string path = "/tmp/flexsnoop_bench_sink.fstrace";
    TraceConfig cfg;
    cfg.path = path;
    cfg.mode =
        state.range(0) == 0 ? TraceMode::Drop : TraceMode::Spill;
    cfg.snapshotCycles = 0;
    {
        TraceSink sink(cfg, 8, 32);
        Cycle cycle = 0;
        for (auto _ : state) {
            ++cycle;
            sink.record(TraceEvent::Hop, cycle, 1, 0x1234, cycle + 9, 2,
                        0, 0);
        }
        benchmark::DoNotOptimize(sink.recorded());
    }
    state.SetItemsProcessed(state.iterations());
    std::remove(path.c_str());
}
BENCHMARK(BM_TraceSinkRecord)->Arg(0)->Arg(1);

/**
 * Ring-event microbench: one quiet requester streaming reads to fresh
 * lines on an eager 16-node ring, every snoop taking real ring hops.
 * Records simulator events executed per transaction (deterministic,
 * gated) and wall time per reference (informational).
 */
struct RingEventRun
{
    double eventsPerTxn = 0.0;
    double nsPerRef = 0.0;
};

RingEventRun
runRingEventWorkload(std::size_t refs)
{
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Eager, 1);
    cfg.setNumCmps(16);

    CoreTraces traces;
    traces.traces.resize(cfg.numCores());
    traces.warmupRefs = 0;
    for (std::size_t i = 0; i < refs; ++i) {
        MemRef ref;
        ref.addr = static_cast<Addr>((i + 1) * kLineSizeBytes);
        ref.gap = 4000; // longer than a full 16-node ring round trip
        traces.traces[0].push_back(ref);
    }

    Machine machine(cfg);
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          cfg.core);
    const auto start = std::chrono::steady_clock::now();
    runner.run();
    const auto stop = std::chrono::steady_clock::now();

    RingEventRun out;
    out.eventsPerTxn =
        static_cast<double>(machine.queue().executed()) /
        static_cast<double>(refs);
    out.nsPerRef = std::chrono::duration<double, std::nano>(stop - start)
                       .count() /
                   static_cast<double>(refs);
    return out;
}

void
reportRingEvents()
{
    const std::size_t refs =
        static_cast<std::size_t>(4000 * bench::benchScale());
    // Warm up once so page faults and pool growth do not land in the
    // timed run.
    runRingEventWorkload(refs / 4);
    const RingEventRun perhop = runRingEventWorkload(refs);

    std::cout << "\nRing events (eager, 16 nodes, " << refs << " reads):\n"
              << "  events/txn " << perhop.eventsPerTxn << "\n"
              << "  ns/ref     " << perhop.nsPerRef << "\n";

    bench::writeBenchRecord(
        "micro_structures",
        {{"events_per_txn_perhop", perhop.eventsPerTxn},
         {"ns_per_ref_perhop", perhop.nsPerRef}});
}

/**
 * End-to-end tracing overhead: the same mini workload untraced vs
 * traced (spill mode, the expensive one), whole-run wall clock. This is
 * the number docs/TRACING.md quotes, and the end-to-end counterpart of
 * the <2% acceptance bound on the figure benches with tracing off.
 */
double
runTraceOverheadWorkload(const MachineConfig &base,
                         const CoreTraces &traces, bool traced)
{
    MachineConfig cfg = base;
    const std::string path = "/tmp/flexsnoop_bench_overhead.fstrace";
    if (traced)
        cfg.trace.path = path;
    const auto start = std::chrono::steady_clock::now();
    runSimulation(cfg, traces, "mini");
    const auto stop = std::chrono::steady_clock::now();
    if (traced)
        std::remove(path.c_str());
    return std::chrono::duration<double, std::nano>(stop - start)
        .count();
}

void
reportTracingOverhead()
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore =
        static_cast<std::size_t>(1500 * bench::benchScale());
    profile.warmupRefs = profile.refsPerCore / 4;
    const CoreTraces traces = SyntheticGenerator(profile).generate();
    MachineConfig cfg = MachineConfig::paperDefault(
        Algorithm::SupersetAgg, profile.coresPerCmp);
    cfg.setNumCmps(profile.numCmps());
    const double total_refs = static_cast<double>(
        profile.refsPerCore * profile.numCores);

    // Warm both paths, then time each.
    runTraceOverheadWorkload(cfg, traces, false);
    runTraceOverheadWorkload(cfg, traces, true);
    const double off_ns = runTraceOverheadWorkload(cfg, traces, false);
    const double on_ns = runTraceOverheadWorkload(cfg, traces, true);
    const double overhead_pct = (on_ns / off_ns - 1.0) * 100.0;

    std::cout << "\nTracing overhead (mini, supersetagg, spill mode):\n"
              << "  ns/ref   off " << off_ns / total_refs << "  on "
              << on_ns / total_refs << "  (" << overhead_pct
              << "% overhead)\n";

    bench::writeBenchRecord(
        "trace_overhead",
        {{"ns_per_ref_untraced", off_ns / total_refs},
         {"ns_per_ref_traced_spill", on_ns / total_refs},
         {"overhead_pct", overhead_pct}});
}

/**
 * End-to-end metric-sampling overhead: the same mini workload with
 * telemetry off vs sampling every 10k cycles (the default cadence).
 * docs/TELEMETRY.md promises under 2% at that cadence and bit-identical
 * results; both are recorded as exact-gated metrics. Wall times are
 * min-of-repeats so scheduler noise cannot fake a regression.
 */
std::pair<double, RunResult>
runMetricsOverheadWorkload(const MachineConfig &base,
                           const CoreTraces &traces, bool sampled)
{
    MachineConfig cfg = base;
    const std::string path = "/tmp/flexsnoop_bench_overhead.fsmetrics";
    if (sampled) {
        cfg.metrics.path = path;
        cfg.metrics.intervalCycles = 10000;
    }
    const auto start = std::chrono::steady_clock::now();
    RunResult result = runSimulation(cfg, traces, "mini");
    const auto stop = std::chrono::steady_clock::now();
    if (sampled)
        std::remove(path.c_str());
    return {std::chrono::duration<double, std::nano>(stop - start)
                .count(),
            std::move(result)};
}

void
reportMetricsOverhead()
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore =
        static_cast<std::size_t>(1500 * bench::benchScale());
    profile.warmupRefs = profile.refsPerCore / 4;
    const CoreTraces traces = SyntheticGenerator(profile).generate();
    MachineConfig cfg = MachineConfig::paperDefault(
        Algorithm::SupersetAgg, profile.coresPerCmp);
    cfg.setNumCmps(profile.numCmps());
    const double total_refs = static_cast<double>(
        profile.refsPerCore * profile.numCores);

    // Warm both paths, keeping one result per path for the identity
    // check, then take the min wall time over the timed repeats.
    const RunResult off_result =
        runMetricsOverheadWorkload(cfg, traces, false).second;
    const RunResult on_result =
        runMetricsOverheadWorkload(cfg, traces, true).second;
    constexpr int kRepeats = 3;
    double off_ns = 0.0, on_ns = 0.0;
    for (int r = 0; r < kRepeats; ++r) {
        const double off = runMetricsOverheadWorkload(cfg, traces, false).first;
        const double on = runMetricsOverheadWorkload(cfg, traces, true).first;
        off_ns = r == 0 ? off : std::min(off_ns, off);
        on_ns = r == 0 ? on : std::min(on_ns, on);
    }
    const double overhead_pct = (on_ns / off_ns - 1.0) * 100.0;
    const bool identical =
        off_result.execCycles == on_result.execCycles &&
        off_result.readRingRequests == on_result.readRingRequests &&
        off_result.readSnoops == on_result.readSnoops &&
        off_result.readLinkMessages == on_result.readLinkMessages &&
        off_result.energyNj == on_result.energyNj &&
        off_result.retries == on_result.retries &&
        off_result.p95ReadLatency == on_result.p95ReadLatency;

    std::cout << "\nMetric-sampling overhead (mini, supersetagg, "
              << "interval 10k):\n"
              << "  ns/ref   off " << off_ns / total_refs << "  on "
              << on_ns / total_refs << "  (" << overhead_pct
              << "% overhead)\n"
              << "  results identical: " << (identical ? "yes" : "NO")
              << "\n";

    bench::writeBenchRecord(
        "metrics_overhead",
        {{"ns_per_ref_unsampled", off_ns / total_refs},
         {"ns_per_ref_sampled", on_ns / total_refs},
         {"overhead_pct", overhead_pct},
         {"results_identical", identical ? 1.0 : 0.0},
         {"metrics_overhead_within_budget",
          overhead_pct <= 2.0 ? 1.0 : 0.0}});
}

} // namespace
} // namespace flexsnoop

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    flexsnoop::reportRingEvents();
    flexsnoop::reportTracingOverhead();
    flexsnoop::reportMetricsOverhead();
    return 0;
}
