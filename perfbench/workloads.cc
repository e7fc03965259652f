#include "workloads.hh"

#include <cmath>
#include <stdexcept>

namespace perfbench
{

namespace
{

/** splitmix64: decorrelates the per-profile seeds of one run seed. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::size_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
sizeProfile(WorkloadProfile &p, std::size_t refs, std::size_t warmup,
            double scale, std::uint64_t seed, std::size_t index)
{
    p.refsPerCore = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(refs) * scale));
    p.warmupRefs = static_cast<std::size_t>(static_cast<double>(warmup) *
                                            scale);
    p.seed = deriveSeed(seed, index);
}

/** miniProfile() weak-scaled to @p nodes single-core CMPs exactly as
 *  runHierSweep() scales it. */
WorkloadProfile
weakScaledMini(std::size_t nodes)
{
    const WorkloadProfile base = miniProfile();
    WorkloadProfile p = base;
    p.name = "mini" + std::to_string(nodes);
    p.numCores = nodes * p.coresPerCmp;
    const double f = static_cast<double>(p.numCores) /
                     static_cast<double>(base.numCores);
    p.sharedLines = static_cast<std::size_t>(
        static_cast<double>(base.sharedLines) * f);
    p.meanGap = base.meanGap * std::pow(f, 0.75);
    return p;
}

} // namespace

Plan
makePlan(const std::string &name, std::uint64_t seed, double refs_scale)
{
    Plan plan;
    plan.name = name;
    // Refs per core are sized so one sweep takes a few seconds on one
    // core and its simulated figures move little from seed to seed.
    if (name == "splash2") {
        plan.profiles = splash2Profiles();
        for (std::size_t i = 0; i < plan.profiles.size(); ++i)
            sizeProfile(plan.profiles[i], 400, 160, refs_scale, seed, i);
        plan.paperAggSpeedupPct = 14.0;
    } else if (name == "specjbb") {
        plan.profiles = {specJbbProfile()};
        sizeProfile(plan.profiles[0], 12000, 3000, refs_scale, seed, 0);
        plan.paperAggSpeedupPct = 13.0;
    } else if (name == "hier64") {
        plan.profiles = {weakScaledMini(64)};
        sizeProfile(plan.profiles[0], 600, 200, refs_scale, seed, 0);
        plan.validated = false;
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (valid: splash2, specjbb, hier64)");
    }

    for (std::size_t p = 0; p < plan.profiles.size(); ++p) {
        for (Algorithm a : paperAlgorithms()) {
            Cell cell;
            cell.profile = p;
            cell.algorithm = a;
            cell.config = sweepConfig(a, plan.profiles[p]);
            if (name == "hier64") {
                // Eight local rings of eight nodes joined by the global
                // ring, with runHierSweep()'s global hop latency.
                cell.config.topology.kind = TopologyKind::Hier;
                cell.config.topology.localRings = 8;
                cell.config.topology.globalHopCycles = 62;
            }
            plan.cells.push_back(std::move(cell));
        }
    }
    return plan;
}

std::vector<SweepResult>
sweepsOf(const Plan &plan, const std::vector<RunResult> &results)
{
    std::vector<SweepResult> sweeps(plan.profiles.size());
    for (std::size_t p = 0; p < plan.profiles.size(); ++p)
        sweeps[p].workload = plan.profiles[p].name;
    for (std::size_t i = 0; i < plan.cells.size(); ++i)
        sweeps[plan.cells[i].profile].runs.push_back(results[i]);
    return sweeps;
}

namespace
{

double
execCycles(const RunResult &r)
{
    return static_cast<double>(r.execCycles);
}

/** Lazy-normalized execution time of @p a, aggregated as Fig. 8 does:
 *  geomean over apps (a single app is its own ratio). */
double
normalizedExec(const std::vector<SweepResult> &sweeps, Algorithm a)
{
    return lazyNormalizedGeoMean(sweeps, a, execCycles);
}

} // namespace

double
aggSpeedupPct(const std::vector<SweepResult> &sweeps)
{
    return (1.0 - normalizedExec(sweeps, Algorithm::SupersetAgg)) * 100.0;
}

std::vector<PaperCheck>
paperChecks(const Plan &plan, const std::vector<SweepResult> &sweeps)
{
    if (!plan.validated)
        return {};
    const double agg = normalizedExec(sweeps, Algorithm::SupersetAgg);
    const double eager = normalizedExec(sweeps, Algorithm::Eager);
    const double exact = normalizedExec(sweeps, Algorithm::Exact);
    if (plan.name == "specjbb") {
        return {
            {"SupersetAgg at least matches Eager", agg <= eager * 1.01},
            {"Exact does not hurt SPECjbb (vs Agg, ~5%)",
             exact < agg * 1.10},
        };
    }
    const double oracle = normalizedExec(sweeps, Algorithm::Oracle);
    const double con = normalizedExec(sweeps, Algorithm::SupersetCon);
    return {
        {"Lazy is slowest on SPLASH-2", agg < 1.0 && eager < 1.0},
        {"SupersetAgg tracks Oracle (within 5%)", agg < oracle * 1.05},
        {"SupersetAgg at least matches Eager", agg <= eager * 1.01},
        {"SupersetCon slower than Agg but beats Lazy",
         con >= agg && con < 1.0},
        {"Exact penalized on SPLASH-2 (vs Agg)", exact > agg},
    };
}

} // namespace perfbench
