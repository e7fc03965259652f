#include "layer_drivers.hh"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <unordered_set>
#include <vector>

#include "mem/l2_cache.hh"
#include "predictor/exact_predictor.hh"
#include "predictor/predictor_config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/random.hh"
#include "snoop/snoop_policy.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

/** Median of three timings of @p body, which returns ns per call. */
template <typename Fn>
double
medianOf3(Fn &&body)
{
    double t[3] = {body(), body(), body()};
    std::sort(t, t + 3);
    return t[1];
}

/** Every reference of @p traces as a line address, cores interleaved
 *  the way they issue, so shared lines recur as they do in the run. */
std::vector<MemRef>
interleavedRefs(const CoreTraces &traces)
{
    std::vector<MemRef> refs;
    refs.reserve(traces.totalRefs());
    std::size_t longest = 0;
    for (const Trace &t : traces.traces)
        longest = std::max(longest, t.size());
    for (std::size_t i = 0; i < longest; ++i) {
        for (const Trace &t : traces.traces) {
            if (i < t.size())
                refs.push_back({lineAddr(t[i].addr), t[i].isWrite, 1});
        }
    }
    return refs;
}

std::size_t
heapInUse()
{
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

} // namespace

double
queueOpNs(const TimingWheel::HorizonHistogram &horizon,
          std::size_t near_buckets, std::size_t standing,
          std::uint64_t seed)
{
    // Bucket i of the histogram holds delays of bit-width i.
    std::uint64_t total = 0;
    for (std::uint64_t n : horizon)
        total += n;
    constexpr std::size_t kDelays = 1u << 16;
    std::vector<Cycle> delays(kDelays, 1);
    if (total > 0) {
        Rng rng(seed);
        for (Cycle &d : delays) {
            std::uint64_t pick = rng.nextBelow(total);
            std::size_t b = 0;
            while (pick >= horizon[b])
                pick -= horizon[b++];
            d = b == 0 ? 0
                       : rng.nextRange(Cycle{1} << (b - 1),
                                       (Cycle{1} << b) - 1);
        }
    }

    standing = std::max<std::size_t>(standing, 1);
    constexpr std::size_t kOps = 1u << 21;
    return medianOf3([&]() {
        EventQueue q;
        q.configureWheel(near_buckets);
        for (std::size_t i = 0; i < standing; ++i)
            q.schedule(delays[i % kDelays], [] {});
        const auto start = Clock::now();
        for (std::size_t i = 0; i < kOps; ++i) {
            q.step();
            q.scheduleAt(q.now() + delays[i & (kDelays - 1)], [] {});
        }
        return nsSince(start) / static_cast<double>(kOps);
    });
}

ChurnResult
flatMapChurn(std::size_t live, std::size_t inserts)
{
    live = std::max<std::size_t>(live, 1);
    inserts = std::max(inserts, live);
    ChurnResult out;
    std::vector<double> ns;
    for (int rep = 0; rep < 3; ++rep) {
        const std::size_t heap_before = heapInUse();
        FlatMap<std::uint64_t> map;
        const auto start = Clock::now();
        for (std::uint64_t id = 1; id <= inserts; ++id) {
            map.put(id, id);
            if (id > live)
                map.erase(id - live);
        }
        ns.push_back(nsSince(start) /
                     static_cast<double>(2 * inserts - live));
        out.heapKb = (static_cast<double>(heapInUse()) -
                      static_cast<double>(heap_before)) /
                     1024.0;
    }
    std::sort(ns.begin(), ns.end());
    out.nsPerOp = ns[1];
    return out;
}

double
l2ProbeNs(const CoreTraces &traces, const MachineConfig &cfg)
{
    std::vector<Addr> lines;
    for (const MemRef &ref : interleavedRefs(traces))
        lines.push_back(ref.addr);
    L2Cache l2("perfbench.l2", cfg.l2Entries, cfg.l2Ways);
    for (Addr line : lines) {
        if (l2.contains(line))
            l2.touch(line);
        else
            l2.fill(line, LineState::Exclusive);
    }
    if (lines.empty())
        return 0.0;
    constexpr std::size_t kMinProbes = 1u << 21;
    const std::size_t rounds =
        (kMinProbes + lines.size() - 1) / lines.size();
    unsigned valid = 0;
    const double ns = medianOf3([&]() {
        const auto start = Clock::now();
        for (std::size_t r = 0; r < rounds; ++r) {
            for (Addr line : lines)
                valid += isValidState(l2.state(line));
        }
        return nsSince(start) / static_cast<double>(rounds * lines.size());
    });
    // Keep the probes observable so they cannot be optimized away.
    volatile unsigned sink = valid;
    (void)sink;
    return ns;
}

double
predictorCallNs(const CoreTraces &traces, const MachineConfig &cfg)
{
    std::vector<PredictorConfig> configs;
    for (Algorithm a : paperAlgorithms()) {
        PredictorConfig pc = defaultPredictorFor(a);
        if (pc.kind == PredictorKind::None ||
            pc.kind == PredictorKind::Perfect)
            continue;
        const bool seen = std::any_of(
            configs.begin(), configs.end(),
            [&pc](const PredictorConfig &c) { return c.id == pc.id; });
        if (!seen)
            configs.push_back(pc);
    }
    if (configs.empty())
        return 0.0;

    // The call sequence is worked out once, outside the timed replay:
    // every reference is predicted, a write to a line not yet held
    // gains a supplier, and past one L2's capacity the oldest is lost.
    enum class Call : std::uint8_t { Predict, Gained, Lost };
    std::vector<std::pair<Call, Addr>> calls;
    {
        std::unordered_set<Addr> held;
        std::deque<Addr> order;
        for (const MemRef &ref : interleavedRefs(traces)) {
            calls.emplace_back(Call::Predict, ref.addr);
            if (!ref.isWrite || !held.insert(ref.addr).second)
                continue;
            calls.emplace_back(Call::Gained, ref.addr);
            order.push_back(ref.addr);
            if (order.size() > cfg.l2Entries) {
                calls.emplace_back(Call::Lost, order.front());
                held.erase(order.front());
                order.pop_front();
            }
        }
    }
    if (calls.empty())
        return 0.0;

    double sum = 0.0;
    unsigned hits = 0;
    for (const PredictorConfig &pc : configs) {
        sum += medianOf3([&]() {
            auto pred = makePredictor(pc, "perfbench.pred");
            if (auto *exact = dynamic_cast<ExactPredictor *>(pred.get()))
                exact->setDowngradeFn([](Addr) {});
            const auto start = Clock::now();
            for (const auto &[call, line] : calls) {
                switch (call) {
                  case Call::Predict: hits += pred->predict(line); break;
                  case Call::Gained: pred->supplierGained(line); break;
                  case Call::Lost: pred->supplierLost(line); break;
                }
            }
            return nsSince(start) / static_cast<double>(calls.size());
        });
    }
    volatile unsigned sink = hits;
    (void)sink;
    return sum / static_cast<double>(configs.size());
}

} // namespace perfbench
