/**
 * @file
 * The repository benchmark (perfbench/README.md). One process runs one
 * named workload -- an algorithm sweep -- serially on one thread:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--refs-scale X] [--out DIR] [--commit ID]
 *
 * --trace 0 times set-up and repeated sweeps with tracing off and
 * prints the end-to-end metrics. --trace 1 runs the traced sweep: every
 * cell also runs as an untraced and a traced twin built from the same
 * traces, wrapped in spans, and then the layer drivers run; it prints
 * the per-layer metrics. The last stdout line is the result JSON.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "core/simulation.hh"
#include "layer_drivers.hh"
#include "trace/trace_analysis.hh"
#include "trace/trace_reader.hh"
#include "workload/synthetic_generator.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    double refsScale = 1.0;
    std::string out = ".bench_build/perfbench-out";
    std::string commit = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string v = argv[++i];
        std::size_t used = 0;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::stoull(v, &used);
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v, &used);
        } else if (flag == "--trace") {
            a.trace = std::stoi(v, &used);
        } else if (flag == "--refs-scale") {
            a.refsScale = std::stod(v, &used);
        } else if (flag == "--out") {
            a.out = v;
        } else if (flag == "--commit") {
            a.commit = v;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
        if (used != 0 && used != v.size())
            throw std::invalid_argument("bad value for " + flag + ": " + v);
    }
    if (a.workload.empty() || !have_seed || a.trace < 0 || a.trace > 1 ||
        !(a.seconds > 0.0) || !(a.refsScale > 0.0)) {
        throw std::invalid_argument(
            "usage: perfbench --workload NAME --seed N --seconds S "
            "--trace 0|1 [--refs-scale X] [--out DIR] [--commit ID]");
    }
    return a;
}

// ---------------------------------------------------------------------
// Spans: kept in memory, written out when the run ends.

class Spans
{
  public:
    struct Span
    {
        std::string name;
        double startNs = 0.0;
        double endNs = 0.0;
        long parent = -1; ///< index of the enclosing span, -1 at the root
        long cell = -1;   ///< sweep cell the span belongs to, -1 if none
    };

    std::size_t
    open(std::string name, long cell)
    {
        const long parent =
            _stack.empty() ? -1 : static_cast<long>(_stack.back());
        _spans.push_back({std::move(name), nowNs(), 0.0, parent, cell});
        _stack.push_back(_spans.size() - 1);
        return _spans.size() - 1;
    }

    void
    close(std::size_t id)
    {
        if (_stack.empty() || _stack.back() != id)
            throw std::logic_error("span closed out of order");
        _spans[id].endNs = nowNs();
        _stack.pop_back();
    }

    /** Summed duration of spans named @p name directly inside a span
     *  named @p parent (any parent when empty). */
    double
    seconds(const std::string &name, const std::string &parent = "") const
    {
        double ns = 0.0;
        for (const Span &s : _spans) {
            if (s.name != name)
                continue;
            if (!parent.empty() &&
                (s.parent < 0 || _spans[s.parent].name != parent))
                continue;
            ns += s.endNs - s.startNs;
        }
        return ns * 1e-9;
    }

    void
    write(std::ostream &os) const
    {
        os << "[\n";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "\"start_ns\": %.0f, \"end_ns\": %.0f, "
                          "\"parent\": %ld, \"cell\": %ld",
                          s.startNs, s.endNs, s.parent, s.cell);
            os << "  {\"id\": " << i << ", \"name\": \"" << s.name
               << "\", " << buf << "}" << (i + 1 < _spans.size() ? "," : "")
               << "\n";
        }
        os << "]\n";
    }

  private:
    double
    nowNs() const
    {
        return std::chrono::duration<double, std::nano>(Clock::now() -
                                                        _origin)
            .count();
    }

    Clock::time_point _origin = Clock::now();
    std::vector<Span> _spans;
    std::vector<std::size_t> _stack;
};

class ScopedSpan
{
  public:
    ScopedSpan(Spans &spans, std::string name, long cell = -1)
        : _spans(spans), _id(spans.open(std::move(name), cell))
    {
    }
    ~ScopedSpan() { _spans.close(_id); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Spans &_spans;
    std::size_t _id;
};

// ---------------------------------------------------------------------
// Result fingerprint: FNV-1a over every RunResult field, so a change
// that should only move host time can show its simulated results are
// byte-identical.

class Fnv
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            _h ^= b[i];
            _h *= 0x100000001b3ULL;
        }
    }
    template <typename T>
    void
    add(const T &v)
    {
        bytes(&v, sizeof v);
    }
    void
    add(const std::string &s)
    {
        add(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

void
hashResult(Fnv &h, const RunResult &r)
{
    h.add(r.workload);
    h.add(r.algorithm);
    h.add(r.predictor);
    for (double d :
         {r.snoopsPerReadRequest, r.readLinkMessagesPerRequest, r.energyNj,
          r.ringEnergyNj, r.snoopEnergyNj, r.predictorEnergyNj,
          r.downgradeEnergyNj, r.avgReadLatency, r.p50ReadLatency,
          r.p95ReadLatency})
        h.add(d);
    for (std::uint64_t u :
         {std::uint64_t{r.execCycles}, r.readRingRequests, r.readSnoops,
          r.readLinkMessages, r.truePositives, r.trueNegatives,
          r.falsePositives, r.falseNegatives, r.writeRingRequests,
          r.writeSnoops, r.writeFiltered, r.bridgeSkips, r.bridgeDescends,
          r.globalLinkMessages, r.cacheSupplies, r.memoryFetches,
          r.downgrades, r.collisions, r.retries, r.writebacks,
          r.faultLinkDecisions, r.faultDrops, r.faultDups, r.faultDelays,
          r.faultPredictorFlips, r.watchdogTimeouts,
          r.staleMessagesAbsorbed, r.predictorFlipDegrades,
          r.incompleteConclusionsRejected, r.retryStormAborts})
        h.add(u);
    h.add(r.failed);
    h.add(r.error);
}

std::uint64_t
fingerprint(const RunResult &r)
{
    Fnv h;
    hashResult(h, r);
    return h.value();
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------------
// Output.

struct MetricValue
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            const std::size_t start = line.find_first_not_of(' ', colon + 1);
            if (colon != std::string::npos && start != std::string::npos)
                return line.substr(start);
        }
    }
    return "unknown";
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/** The host shape every result is recorded beside. */
std::string
hostShape(const Args &args, const Plan &plan)
{
    std::ostringstream os;
    os << "{\"workload\": " << jsonString(plan.name)
       << ", \"seed\": " << args.seed
       << ", \"refs_per_core\": " << plan.profiles[0].refsPerCore
       << ", \"warmup_refs_per_core\": " << plan.profiles[0].warmupRefs
       << ", \"cells\": " << plan.cells.size()
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"cpu\": " << jsonString(cpuModel())
       << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
       << ", \"commit\": " << jsonString(args.commit) << "}";
    return os.str();
}

/** Everything a mode hands back for printing. */
struct Outcome
{
    std::vector<MetricValue> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;
    std::vector<RunResult> results; ///< reference results, cells order
    std::vector<bool> ok;           ///< per cell
};

std::vector<CoreTraces>
generateTraces(const Plan &plan, Spans *spans)
{
    std::vector<CoreTraces> traces;
    for (const WorkloadProfile &p : plan.profiles) {
        std::optional<ScopedSpan> span;
        if (spans)
            span.emplace(*spans, "workload.generate");
        traces.push_back(SyntheticGenerator(p).generate());
    }
    return traces;
}

/** Simulated (deterministic) end-to-end metrics over the cells that
 *  ran. */
std::vector<MetricValue>
simulatedMetrics(const Outcome &o)
{
    double exec = 0.0, p95 = 0.0, snoops = 0.0, links = 0.0, energy = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < o.results.size(); ++i) {
        if (!o.ok[i])
            continue;
        const RunResult &r = o.results[i];
        exec += static_cast<double>(r.execCycles);
        p95 += r.p95ReadLatency;
        snoops += r.snoopsPerReadRequest;
        links += r.readLinkMessagesPerRequest;
        energy += r.energyNj;
        ++n;
    }
    const double cells = static_cast<double>(std::max<std::size_t>(n, 1));
    return {
        {"sim_exec_mcycles", exec / 1e6, "Mcycles"},
        {"read_latency_p95_cycles", p95 / cells, "cycles"},
        {"snoops_per_read", snoops / cells, "snoops/read"},
        {"link_msgs_per_read", links / cells, "msgs/read"},
        {"snoop_energy_mj", energy / 1e6, "mJ"},
    };
}

/**
 * The quality results printed beside the gated metrics: the failed-cell
 * ratio, the Fig. 8 shape checks and the gap to the paper's Superset
 * Agg speedup. They are 0 when all is well, so they gate through the
 * result's `correct`/`failed` fields instead (README). Appends check
 * failures to @p o.errors; returns a JSON object.
 */
std::string
qualityJson(const Plan &plan, Outcome &o)
{
    std::ostringstream os;
    os << "{\"failed_ratio\": {\"value\": "
       << number(ratio(static_cast<double>(o.failed),
                       static_cast<double>(o.attempted)))
       << ", \"unit\": \"ratio\"}";
    const bool all_ok =
        std::all_of(o.ok.begin(), o.ok.end(), [](bool ok) { return ok; });
    if (!all_ok) {
        o.errors.push_back("paper checks skipped: some cells failed");
        return os.str() + "}";
    }
    const auto sweeps = sweepsOf(plan, o.results);
    const auto checks = paperChecks(plan, sweeps);
    std::size_t failed = 0;
    for (const PaperCheck &c : checks) {
        if (!c.pass) {
            ++failed;
            o.errors.push_back("paper check failed: " + c.name);
        }
    }
    const double agg = aggSpeedupPct(sweeps);
    os << ", \"paper_checks_failed\": {\"value\": " << failed
       << ", \"unit\": \"count\", \"of\": " << checks.size() << "}"
       << ", \"superset_agg_speedup_pct\": {\"value\": " << number(agg)
       << ", \"unit\": \"%\"}, \"paper_gap_pts\": ";
    if (plan.validated) {
        os << "{\"value\": "
           << number(std::abs(agg - plan.paperAggSpeedupPct))
           << ", \"unit\": \"pts\", \"reference_pct\": "
           << number(plan.paperAggSpeedupPct) << "}";
    } else {
        os << "{\"value\": null, \"unit\": \"pts\", \"reference\": "
              "\"unvalidated: the paper has no hierarchical-ring figure\"}";
    }
    return os.str() + "}";
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics with tracing off.

Outcome
runUntraced(const Plan &plan, const Args &args)
{
    Outcome o;
    o.results.resize(plan.cells.size());
    o.ok.assign(plan.cells.size(), true);

    // Set-up: trace generation plus Machine construction, summed over
    // cells; repeated, and the median reported.
    constexpr int kSetupReps = 15;
    std::vector<double> setups;
    std::vector<CoreTraces> traces;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto generate_start = Clock::now();
        traces = generateTraces(plan, nullptr);
        double setup = secondsSince(generate_start);
        for (const Cell &cell : plan.cells) {
            const auto start = Clock::now();
            auto machine = std::make_unique<Machine>(cell.config);
            setup += secondsSince(start);
        }
        setups.push_back(setup);
    }

    // The serial cell loop, repeated cell by cell until --seconds have
    // been measured (the first pass always completes). Every repeat of
    // a cell must reproduce its first result bit for bit. A cell's time
    // is the median of its repeats, which damps short bursts of host
    // noise (not the slow drifts the README describes).
    std::vector<std::uint64_t> prints(plan.cells.size(), 0);
    std::vector<std::vector<double>> times(plan.cells.size());
    double measured = 0.0;
    for (std::size_t k = 0; k < plan.cells.size() || measured < args.seconds;
         ++k) {
        const std::size_t i = k % plan.cells.size();
        const Cell &cell = plan.cells[i];
        const CoreTraces &t = traces[cell.profile];
        ++o.attempted;
        const auto start = Clock::now();
        RunResult r;
        try {
            r = runSimulation(cell.config, t,
                              plan.profiles[cell.profile].name);
        } catch (const std::exception &e) {
            r.failed = true;
            r.error = e.what();
        }
        times[i].push_back(secondsSince(start));
        measured += times[i].back();
        const std::uint64_t fp = fingerprint(r);
        if (k == i) {
            o.results[i] = r;
            prints[i] = fp;
        }
        if (r.failed || fp != prints[i]) {
            ++o.failed;
            o.ok[i] = false;
            o.errors.push_back(
                "cell " + std::to_string(i) + " (" +
                plan.profiles[cell.profile].name + "/" +
                std::string(toString(cell.algorithm)) + "): " +
                (r.failed ? r.error : "differs from its first run"));
        }
    }
    double refs = 0.0, wall = 0.0;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        refs += static_cast<double>(
            traces[plan.cells[i].profile].totalRefs());
        wall += median(times[i]);
    }

    // Throughput is printed, not gated: on a shared host it drifts with
    // the neighbours' load by more than any bound can hold (README).
    std::cout << "perfbench throughput {\"sim_refs_per_s\": {\"value\": "
              << number(refs / wall) << ", \"unit\": \"refs/s\"}"
              << ", \"cell_runs\": " << o.attempted
              << ", \"measured_s\": " << number(measured) << "}\n";
    o.metrics.push_back({"setup_s", median(setups), "s"});
    o.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    return o;
}

// ---------------------------------------------------------------------
// --trace 1: the traced run and the per-layer metrics.

/** Counters one twin run reads from the layers' public stats. */
struct TwinCounters
{
    RunResult result; ///< the subset of fields runSimulation also fills
    std::uint64_t executed = 0;
    std::uint64_t cascaded = 0;
    std::uint64_t l2Probes = 0;
    std::uint64_t gateDeferrals = 0;
    std::uint64_t dataTransfers = 0;
    std::uint64_t linkTraversals = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memReadsPrefetched = 0;
    std::uint64_t predLookups = 0;
    std::uint64_t excludeHits = 0;
    std::uint64_t supersetLookups = 0;
    std::uint64_t hopsVirtualized = 0;
    double ringNj = 0.0, snoopNj = 0.0, predictorNj = 0.0;
    TimingWheel::HorizonHistogram horizon{};

    /** Sum over cells (execCycles and energyNj are not summed). */
    TwinCounters &
    operator+=(const TwinCounters &c)
    {
        RunResult &r = result;
        const RunResult &o = c.result;
        for (auto [into, from] :
             {std::pair{&r.readRingRequests, o.readRingRequests},
              {&r.readSnoops, o.readSnoops},
              {&r.writeRingRequests, o.writeRingRequests},
              {&r.writeSnoops, o.writeSnoops},
              {&r.memoryFetches, o.memoryFetches},
              {&r.writebacks, o.writebacks},
              {&r.collisions, o.collisions},
              {&r.retries, o.retries},
              {&r.bridgeSkips, o.bridgeSkips},
              {&r.bridgeDescends, o.bridgeDescends},
              {&r.globalLinkMessages, o.globalLinkMessages},
              {&r.truePositives, o.truePositives},
              {&r.trueNegatives, o.trueNegatives},
              {&r.falsePositives, o.falsePositives},
              {&r.falseNegatives, o.falseNegatives},
              {&executed, c.executed},
              {&cascaded, c.cascaded},
              {&l2Probes, c.l2Probes},
              {&gateDeferrals, c.gateDeferrals},
              {&dataTransfers, c.dataTransfers},
              {&linkTraversals, c.linkTraversals},
              {&memReads, c.memReads},
              {&memReadsPrefetched, c.memReadsPrefetched},
              {&predLookups, c.predLookups},
              {&excludeHits, c.excludeHits},
              {&supersetLookups, c.supersetLookups},
              {&hopsVirtualized, c.hopsVirtualized}})
            *into += from;
        ringNj += c.ringNj;
        snoopNj += c.snoopNj;
        predictorNj += c.predictorNj;
        for (std::size_t b = 0; b < horizon.size(); ++b)
            horizon[b] += c.horizon[b];
        return *this;
    }
};

/** Fields of @p a and @p b that both runs fill; empty when equal. */
std::string
disagreement(const RunResult &a, const RunResult &b)
{
    const std::pair<const char *, bool> fields[] = {
        {"execCycles", a.execCycles == b.execCycles},
        {"readRingRequests", a.readRingRequests == b.readRingRequests},
        {"readSnoops", a.readSnoops == b.readSnoops},
        {"readLinkMessages", a.readLinkMessages == b.readLinkMessages},
        {"writeRingRequests", a.writeRingRequests == b.writeRingRequests},
        {"writeSnoops", a.writeSnoops == b.writeSnoops},
        {"cacheSupplies", a.cacheSupplies == b.cacheSupplies},
        {"memoryFetches", a.memoryFetches == b.memoryFetches},
        {"collisions", a.collisions == b.collisions},
        {"retries", a.retries == b.retries},
        {"writebacks", a.writebacks == b.writebacks},
        {"bridgeSkips", a.bridgeSkips == b.bridgeSkips},
        {"bridgeDescends", a.bridgeDescends == b.bridgeDescends},
        {"globalLinkMessages", a.globalLinkMessages == b.globalLinkMessages},
        {"truePositives", a.truePositives == b.truePositives},
        {"falsePositives", a.falsePositives == b.falsePositives},
        {"trueNegatives", a.trueNegatives == b.trueNegatives},
        {"falseNegatives", a.falseNegatives == b.falseNegatives},
        {"energyNj", a.energyNj == b.energyNj},
    };
    std::string out;
    for (const auto &[name, equal] : fields) {
        if (!equal)
            out += std::string(out.empty() ? "" : ", ") + name;
    }
    return out;
}

/**
 * Build and run one twin of @p cell the way runSimulation does, with
 * spans around the machine build, the event loop and the checker.
 * With @p trace_path set the machine writes a .fstrace there.
 */
TwinCounters
runTwin(const Cell &cell, const CoreTraces &traces, Spans &spans,
        long id, const std::string &trace_path)
{
    MachineConfig cfg = cell.config;
    cfg.trace.path = trace_path;
    std::unique_ptr<Machine> m;
    {
        ScopedSpan s(spans, "core.machine_build", id);
        m = std::make_unique<Machine>(cfg);
    }
    if (!trace_path.empty())
        m->queue().enableHorizonHistogram(true);
    WorkloadRunner runner(m->queue(), m->controller(), traces, cfg.core);
    Machine &machine = *m;
    runner.setWarmupDoneFn([&machine]() {
        machine.resetStats();
        if (TraceSink *trace = machine.traceSink())
            trace->record(TraceEvent::MeasureStart, machine.queue().now(),
                          0, 0);
    });

    TwinCounters c;
    {
        ScopedSpan s(spans, "sim.event_loop", id);
        c.result.execCycles = runner.run();
    }
    if (!runner.allDone() || machine.controller().outstanding() != 0)
        throw std::runtime_error("twin run drained with unfinished work");
    machine.finalizeEnergy();
    {
        ScopedSpan s(spans, "coherence.check", id);
        if (!machine.checker().check().empty())
            throw std::runtime_error("twin run violated coherence");
    }

    const StatGroup &cs = machine.controller().stats();
    RunResult &r = c.result;
    r.readRingRequests = cs.counterValue("read_ring_requests");
    r.readSnoops = cs.counterValue("read_snoops");
    r.readLinkMessages = cs.counterValue("read_link_messages");
    r.writeRingRequests = cs.counterValue("write_ring_requests");
    r.writeSnoops = cs.counterValue("write_snoops");
    r.cacheSupplies = cs.counterValue("read_cache_supplies");
    r.memoryFetches = cs.counterValue("memory_fetches");
    r.collisions = cs.counterValue("collisions");
    r.retries = cs.counterValue("retries");
    r.writebacks = machine.memory().writebacks();
    r.bridgeSkips = machine.controller().bridgeSkips();
    r.bridgeDescends = machine.controller().bridgeDescends();
    r.globalLinkMessages = machine.globalLinkTraversals();
    r.truePositives = machine.predictorTruePositives();
    r.trueNegatives = machine.predictorTrueNegatives();
    r.falsePositives = machine.predictorFalsePositives();
    r.falseNegatives = machine.predictorFalseNegatives();
    r.energyNj = machine.energy().totalNj();

    c.executed = machine.queue().executed();
    c.cascaded = machine.queue().wheel().cascadedEntries();
    c.horizon = machine.queue().wheel().horizonHistogram();
    // Every access probes its own L2 and a write snoop walks every L2 of
    // the CMP; a read snoop is answered from the CMP's supplier summary.
    c.l2Probes = cs.counterValue("reads") + cs.counterValue("writes") +
                 r.writeSnoops * cfg.coresPerCmp;
    c.gateDeferrals = cs.counterValue("gate_deferrals");
    c.dataTransfers = machine.dataNetwork().stats().counterValue("transfers");
    c.linkTraversals = machine.ring().linkTraversals();
    c.memReads = machine.memory().stats().counterValue("reads");
    c.memReadsPrefetched =
        machine.memory().stats().counterValue("reads_prefetched");
    for (std::size_t n = 0; n < machine.numNodes(); ++n) {
        const SupplierPredictor *p = machine.node(n).predictor();
        if (!p)
            continue;
        const std::uint64_t lookups = p->stats().counterValue("lookups");
        c.predLookups += lookups;
        if (cell.config.predictor.kind == PredictorKind::Superset) {
            c.supersetLookups += lookups;
            c.excludeHits += p->stats().counterValue("exclude_hits");
        }
    }
    if (const StatGroup *express = machine.controller().expressStats())
        c.hopsVirtualized = express->counterValue("hops_virtualized");
    const EnergyModel &e = machine.energy();
    c.ringNj = e.categoryNj(EnergyEvent::RingLinkMessage) +
               e.categoryNj(EnergyEvent::GlobalRingLinkMessage);
    c.snoopNj = e.categoryNj(EnergyEvent::CmpSnoop);
    c.predictorNj = e.categoryNj(EnergyEvent::PredictorAccess) +
                    e.categoryNj(EnergyEvent::PredictorTrain) +
                    e.categoryNj(EnergyEvent::BridgePredictorAccess) +
                    e.categoryNj(EnergyEvent::BridgePredictorTrain);
    return c;
}

void
addPath(CriticalPath &into, const CriticalPath &cp)
{
    into.issueLocal += cp.issueLocal;
    into.ringTransit += cp.ringTransit;
    into.snoopWait += cp.snoopWait;
    into.gatewayHold += cp.gatewayHold;
    into.dataNetwork += cp.dataNetwork;
    into.memory += cp.memory;
    into.other += cp.other;
}

/** What the .fstrace of one cell says. */
struct TraceFacts
{
    CriticalPath path;          ///< summed over measured transactions
    std::size_t transactions = 0;
    std::size_t peakLive = 0;   ///< most transactions in flight at once
};

TraceFacts
analyze(const std::string &path)
{
    const TraceFile file = loadTrace(path);
    const TraceAnalysis analysis = analyzeTrace(file);
    Cycle measure_start = 0;
    for (const TraceRecord &rec : file.records) {
        if (rec.event() == TraceEvent::MeasureStart)
            measure_start = rec.cycle;
    }
    TraceFacts f;
    f.transactions = analysis.txns.size();
    std::vector<std::pair<Cycle, int>> edges;
    for (const TxnTimeline &t : analysis.txns) {
        if (!t.complete)
            continue;
        edges.emplace_back(t.start, +1);
        edges.emplace_back(t.deliver, -1);
        if (t.start < measure_start)
            continue;
        addPath(f.path, criticalPath(file, t));
    }
    // Ends sort before starts at the same cycle.
    std::sort(edges.begin(), edges.end());
    long live = 0;
    for (const auto &[cycle, delta] : edges) {
        live += delta;
        f.peakLive = std::max<std::size_t>(f.peakLive,
                                           static_cast<std::size_t>(
                                               std::max(live, 0L)));
    }
    return f;
}

Outcome
runTraced(const Plan &plan, const Args &args, Spans &spans)
{
    Outcome o;
    o.results.resize(plan.cells.size());
    o.ok.assign(plan.cells.size(), true);
    ScopedSpan run(spans, "run");

    std::vector<CoreTraces> traces = generateTraces(plan, &spans);

    TwinCounters sum;
    TraceFacts facts;
    std::size_t max_txns = 0, peak_live = 0;
    double measured_refs = 0.0, total_refs = 0.0;
    const std::string trace_path =
        args.out + "/" + plan.name + "-seed" + std::to_string(args.seed) +
        ".fstrace";
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const Cell &cell = plan.cells[i];
        const CoreTraces &t = traces[cell.profile];
        const long id = static_cast<long>(i);
        ++o.attempted;
        ScopedSpan cell_span(spans, "cell", id);
        try {
            {
                ScopedSpan s(spans, "core.run_simulation", id);
                o.results[i] = runSimulation(
                    cell.config, t, plan.profiles[cell.profile].name);
            }
            TwinCounters plain, traced;
            {
                ScopedSpan s(spans, "untraced", id);
                plain = runTwin(cell, t, spans, id, "");
            }
            {
                ScopedSpan s(spans, "traced", id);
                traced = runTwin(cell, t, spans, id, trace_path);
                ScopedSpan a(spans, "trace.analyze", id);
                const TraceFacts f = analyze(trace_path);
                std::filesystem::remove(trace_path);
                addPath(facts.path, f.path);
                max_txns = std::max(max_txns, f.transactions);
                peak_live = std::max(peak_live, f.peakLive);
            }
            const std::string d1 = disagreement(o.results[i], plain.result);
            const std::string d2 = disagreement(o.results[i], traced.result);
            if (!d1.empty() || !d2.empty() ||
                plain.executed != traced.executed) {
                throw std::runtime_error(
                    "twins disagree with runSimulation: untraced [" + d1 +
                    "] traced [" + d2 + "]");
            }
            sum += traced;
            const WorkloadProfile &p = plan.profiles[cell.profile];
            measured_refs += static_cast<double>(p.numCores * p.refsPerCore);
            total_refs += static_cast<double>(t.totalRefs());
        } catch (const std::exception &e) {
            std::filesystem::remove(trace_path);
            ++o.failed;
            o.ok[i] = false;
            o.errors.push_back("cell " + std::to_string(i) + ": " +
                               e.what());
        }
    }

    // Layer drivers on this workload's own stream and run shape.
    double queue_ns = 0.0, l2_ns = 0.0, pred_ns = 0.0;
    ChurnResult churn;
    {
        ScopedSpan d(spans, "drivers");
        const MachineConfig &cfg = plan.cells.front().config;
        {
            ScopedSpan s(spans, "driver.sim.queue_op");
            queue_ns = queueOpNs(sum.horizon, cfg.eventQueueNearBuckets(),
                                 peak_live, args.seed);
        }
        {
            ScopedSpan s(spans, "driver.sim.flatmap_churn");
            churn = flatMapChurn(peak_live, max_txns);
        }
        {
            ScopedSpan s(spans, "driver.mem.l2_probe");
            l2_ns = l2ProbeNs(traces.front(), cfg);
        }
        {
            ScopedSpan s(spans, "driver.predictor.lookup");
            pred_ns = predictorCallNs(traces.front(), cfg);
        }
    }

    const RunResult &r = sum.result;
    const double mrefs = std::max(measured_refs, 1.0);
    const double txns =
        static_cast<double>(r.readRingRequests + r.writeRingRequests);
    const double predictions =
        static_cast<double>(r.truePositives + r.trueNegatives +
                            r.falsePositives + r.falseNegatives);
    const double cp_total = static_cast<double>(facts.path.total());
    const double loop_untraced = spans.seconds("sim.event_loop", "untraced");
    const double loop_traced = spans.seconds("sim.event_loop", "traced");
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };

    o.metrics = {
        {"core.sim_refs_per_s",
         ratio(total_refs, spans.seconds("core.run_simulation")), "refs/s"},
        {"workload.generate_s", spans.seconds("workload.generate"), "s"},
        {"core.machine_build_s",
         spans.seconds("core.machine_build", "untraced"), "s"},
        {"sim.event_loop_s", loop_untraced, "s"},
        {"sim.events_per_ref", ratio(u(sum.executed), total_refs),
         "events/ref"},
        {"sim.ns_per_event", ratio(loop_untraced * 1e9, u(sum.executed)),
         "ns"},
        {"sim.wheel_cascaded_per_event",
         ratio(u(sum.cascaded), u(sum.executed)), "entries/event"},
        {"sim.queue_op_ns", queue_ns, "ns"},
        {"sim.flatmap_churn_ns_per_op", churn.nsPerOp, "ns"},
        {"sim.flatmap_churn_rss_kb", churn.heapKb, "kB"},
        {"mem.l2_probe_ns", l2_ns, "ns"},
        {"mem.l2_probes_per_ref", u(sum.l2Probes) / mrefs,
         "probes/ref"},
        {"mem.memory_fetches_per_ref", u(r.memoryFetches) / mrefs,
         "fetches/ref"},
        {"mem.writebacks_per_ref", u(r.writebacks) / mrefs, "wb/ref"},
        {"mem.prefetch_hit_ratio",
         ratio(u(sum.memReadsPrefetched), u(sum.memReads)), "ratio"},
        {"predictor.lookups_per_ref", u(sum.predLookups) / mrefs,
         "lookups/ref"},
        {"predictor.lookup_ns", pred_ns, "ns"},
        {"predictor.accuracy",
         ratio(u(r.truePositives + r.trueNegatives), predictions),
         "ratio"},
        {"predictor.false_positive_ratio",
         ratio(u(r.falsePositives), predictions), "ratio"},
        {"predictor.exclude_hit_ratio",
         ratio(u(sum.excludeHits), u(sum.supersetLookups)), "ratio"},
        {"net.link_traversals_per_ref", u(sum.linkTraversals) / mrefs,
         "hops/ref"},
        {"net.global_link_traversals_per_ref",
         u(r.globalLinkMessages) / mrefs, "hops/ref"},
        {"net.data_transfers_per_ref", u(sum.dataTransfers) / mrefs,
         "transfers/ref"},
        {"net.ring_transit_frac",
         ratio(u(facts.path.ringTransit), cp_total), "ratio"},
        {"net.data_network_frac",
         ratio(u(facts.path.dataNetwork), cp_total), "ratio"},
        {"coherence.snoops_per_ref",
         u(r.readSnoops + r.writeSnoops) / mrefs, "snoops/ref"},
        {"coherence.collisions_per_txn", ratio(u(r.collisions), txns),
         "1/txn"},
        {"coherence.retries_per_txn", ratio(u(r.retries), txns), "1/txn"},
        {"coherence.gate_deferrals_per_txn",
         ratio(u(sum.gateDeferrals), txns), "1/txn"},
        {"coherence.express_virtualized_ratio",
         ratio(u(sum.hopsVirtualized), u(sum.linkTraversals)), "ratio"},
        {"coherence.check_s", spans.seconds("coherence.check", "untraced"),
         "s"},
        {"coherence.snoop_wait_frac",
         ratio(u(facts.path.snoopWait), cp_total), "ratio"},
        {"coherence.gateway_hold_frac",
         ratio(u(facts.path.gatewayHold), cp_total), "ratio"},
        {"topology.bridge_skip_ratio",
         ratio(u(r.bridgeSkips), u(r.bridgeSkips + r.bridgeDescends)),
         "ratio"},
        {"energy.ring_nj_per_ref", sum.ringNj / mrefs, "nJ/ref"},
        {"energy.snoop_nj_per_ref", sum.snoopNj / mrefs, "nJ/ref"},
        {"energy.predictor_nj_per_ref", sum.predictorNj / mrefs, "nJ/ref"},
        {"trace.overhead_pct",
         (ratio(loop_traced, loop_untraced) - 1.0) * 100.0, "%"},
    };
    return o;
}

/** Run the chosen mode and print its result; throws on a run error. */
void
runAndReport(const Args &args, const Plan &plan)
{
    const std::string shape = hostShape(args, plan);
    std::cout << "perfbench host " << shape << '\n';

    Spans spans;
    Outcome o = args.trace ? runTraced(plan, args, spans)
                           : runUntraced(plan, args);

    Fnv all;
    for (const RunResult &r : o.results)
        hashResult(all, r);
    const std::string print = hex(all.value());
    const std::string quality = qualityJson(plan, o);
    if (!args.trace) {
        const auto sim = simulatedMetrics(o);
        o.metrics.insert(o.metrics.end(), sim.begin(), sim.end());
    }

    const std::string stem = args.out + "/" + plan.name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace);
    std::ofstream report(stem + ".json");
    report << "{\n  \"host\": " << shape << ",\n  \"fingerprint\": \""
           << print << "\",\n  \"quality\": " << quality
           << ",\n  \"errors\": [";
    for (std::size_t i = 0; i < o.errors.size(); ++i)
        report << (i ? ", " : "") << jsonString(o.errors[i]);
    report << "],\n  \"cells\": [\n";
    for (std::size_t i = 0; i < o.results.size(); ++i) {
        const RunResult &r = o.results[i];
        report << "    {\"profile\": " << jsonString(r.workload)
               << ", \"algorithm\": " << jsonString(r.algorithm)
               << ", \"ok\": " << (o.ok[i] ? "true" : "false")
               << ", \"exec_cycles\": " << r.execCycles
               << ", \"fingerprint\": \"" << hex(fingerprint(r)) << "\"}"
               << (i + 1 < o.results.size() ? "," : "") << '\n';
    }
    report << "  ]\n}\n";
    if (args.trace) {
        std::ofstream out(stem + "-spans.json");
        spans.write(out);
    }

    for (const std::string &e : o.errors)
        std::cerr << "perfbench: FAIL " << e << '\n';
    std::cout << "perfbench quality " << quality << '\n';
    std::cout << "perfbench fingerprint " << plan.name << " seed "
              << args.seed << ' ' << print << '\n';

    std::ostringstream line;
    line << "{\"correct\": " << (o.errors.empty() ? "true" : "false")
         << ", \"attempted\": " << o.attempted
         << ", \"failed\": " << o.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < o.metrics.size(); ++i) {
        const MetricValue &m = o.metrics[i];
        line << (i ? ", " : "") << '"' << m.name
             << "\": {\"value\": " << number(m.value)
             << ", \"unit\": \"" << m.unit << "\"}";
    }
    line << "}}";
    std::cout << line.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    Plan plan;
    try {
        args = parseArgs(argc, argv);
        plan = makePlan(args.workload, args.seed, args.refsScale);
        std::filesystem::create_directories(args.out);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }
    try {
        runAndReport(args, plan);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
