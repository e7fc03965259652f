/**
 * @file
 * The benchmark's named workloads. Each one is an algorithm sweep: the
 * paper's seven algorithms, with their sweepConfig() defaults, over a
 * set of synthetic profiles whose traces the benchmark generates from
 * its own seed. perfbench/README.md says why each workload exists.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace perfbench
{

using namespace flexsnoop;

/** One simulation of a sweep: a profile replayed on one algorithm. */
struct Cell
{
    std::size_t profile = 0; ///< index into Plan::profiles
    Algorithm algorithm = Algorithm::Lazy;
    MachineConfig config;
};

struct Plan
{
    std::string name;
    std::vector<WorkloadProfile> profiles;
    /** profiles x paperAlgorithms(), profile-major. */
    std::vector<Cell> cells;
    /** The paper's Fig. 8 Superset Agg speedup over Lazy, in percent. */
    double paperAggSpeedupPct = 0.0;
    /** False when the paper has no figure for this machine (hier64):
     *  no paper checks and no reference speedup. */
    bool validated = true;
};

/**
 * Build workload @p name. Every profile's seed is derived from
 * @p seed; refs and warmup per core are the workload's defaults times
 * @p refs_scale. @throws std::invalid_argument on an unknown name.
 */
Plan makePlan(const std::string &name, std::uint64_t seed,
              double refs_scale);

/** Per-profile sweeps in paper algorithm order (for the paper's
 *  aggregation helpers). @p results is in Plan::cells order. */
std::vector<SweepResult> sweepsOf(const Plan &plan,
                                  const std::vector<RunResult> &results);

/** Measured Superset Agg speedup over Lazy, in percent, aggregated the
 *  paper's way (geomean of Lazy-normalized execution time over apps). */
double aggSpeedupPct(const std::vector<SweepResult> &sweeps);

struct PaperCheck
{
    std::string name;
    bool pass = false;
};

/** The Fig. 8 shape checks bench_fig8_exec_time prints that apply to
 *  this workload's suite (none for hier64). */
std::vector<PaperCheck> paperChecks(const Plan &plan,
                                    const std::vector<SweepResult> &sweeps);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
