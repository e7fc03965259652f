/**
 * @file
 * Fault-injection soak tests (docs/FAULTS.md): every paper algorithm
 * runs to completion with a clean checker under injected link faults
 * and predictor soft errors, recovery counters line up with the
 * injected distribution, fault-free hardened runs are bit-identical to
 * plain runs, and the hardened sweep runner isolates crashing cells and
 * resumes from its checkpoint.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/simulation.hh"
#include "snoop/snoop_policy.hh"
#include "workload/synthetic_generator.hh"
#include "temp_path.hh"

namespace flexsnoop
{
namespace
{

/** mini profile shrunk so the whole soak stays test-suite fast. */
WorkloadProfile
soakProfile()
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 2500;
    profile.warmupRefs = 400;
    return profile;
}

const CoreTraces &
soakTraces()
{
    static const CoreTraces traces =
        SyntheticGenerator(soakProfile()).generate();
    return traces;
}

FaultConfig
allClassFaults(double rate, std::uint64_t seed)
{
    FaultConfig faults;
    faults.dropRate = rate;
    faults.dupRate = rate;
    faults.delayRate = rate;
    faults.predictorRate = rate;
    faults.seed = seed;
    return faults;
}

struct SoakCase
{
    Algorithm algorithm;
    double rate;
};

std::vector<SoakCase>
soakCases()
{
    std::vector<SoakCase> cases;
    for (Algorithm a : paperAlgorithms())
        for (double rate : {1e-4, 1e-3})
            cases.push_back({a, rate});
    return cases;
}

class FaultSoak : public ::testing::TestWithParam<SoakCase>
{
};

TEST_P(FaultSoak, CompletesCleanlyUnderInjectedFaults)
{
    const SoakCase c = GetParam();
    MachineConfig cfg = sweepConfig(c.algorithm, soakProfile());
    cfg.faults = allClassFaults(c.rate, 42);
    cfg.coherence.watchdogCycles = 20000;

    // Completion with a clean checker: runSimulation throws on a
    // coherence violation, a stuck machine, or an unfinished core.
    const RunResult r = runSimulation(cfg, soakTraces(), "mini");

    EXPECT_GT(r.execCycles, 0u);
    EXPECT_GT(r.faultLinkDecisions, 0u)
        << "armed injector must see link traffic";

    // The injected counts must match the configured distribution. The
    // streams are seeded (deterministic), so the generous 5-sigma
    // binomial envelope documents the expectation rather than gambling.
    const double n = static_cast<double>(r.faultLinkDecisions);
    const double expected = n * c.rate;
    const double sigma = std::sqrt(expected * (1.0 - c.rate));
    const double slack = 5.0 * sigma + 3.0;
    EXPECT_NEAR(static_cast<double>(r.faultDrops), expected, slack);
    EXPECT_NEAR(static_cast<double>(r.faultDups), expected, slack);
    EXPECT_NEAR(static_cast<double>(r.faultDelays), expected, slack);

    if (c.rate >= 1e-3) {
        EXPECT_GT(r.faultDrops + r.faultDups + r.faultDelays, 0u)
            << "at 1e-3 over this much traffic, faults must land";
        // Lost conclusions are either rejected as incomplete or timed
        // out; either way recovery machinery must have engaged when
        // messages were dropped.
        if (r.faultDrops > 0) {
            EXPECT_GT(r.watchdogTimeouts +
                          r.incompleteConclusionsRejected +
                          r.staleMessagesAbsorbed,
                      0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsTwoRates, FaultSoak, ::testing::ValuesIn(soakCases()),
    [](const ::testing::TestParamInfo<SoakCase> &info) {
        return std::string(toString(info.param.algorithm)) +
               (info.param.rate < 5e-4 ? "_r1e4" : "_r1e3");
    });

TEST(FaultRecovery, WatchdogRecoversDroppedRounds)
{
    MachineConfig cfg = sweepConfig(Algorithm::Subset, soakProfile());
    cfg.faults.dropRate = 5e-3; // drops only: every loss needs recovery
    cfg.faults.seed = 7;
    cfg.coherence.watchdogCycles = 20000;
    const RunResult r = runSimulation(cfg, soakTraces(), "mini");
    EXPECT_GT(r.faultDrops, 0u);
    EXPECT_GT(r.watchdogTimeouts, 0u)
        << "dropped ring rounds must time out and reissue";
    EXPECT_EQ(r.retryStormAborts, 0u);
}

TEST(FaultRecovery, SameSeedIsBitReproducible)
{
    MachineConfig cfg =
        sweepConfig(Algorithm::SupersetAgg, soakProfile());
    cfg.faults = allClassFaults(1e-3, 1234);
    cfg.coherence.watchdogCycles = 20000;
    const RunResult a = runSimulation(cfg, soakTraces(), "mini");
    const RunResult b = runSimulation(cfg, soakTraces(), "mini");
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.faultDrops, b.faultDrops);
    EXPECT_EQ(a.faultDups, b.faultDups);
    EXPECT_EQ(a.faultDelays, b.faultDelays);
    EXPECT_EQ(a.faultPredictorFlips, b.faultPredictorFlips);
    EXPECT_EQ(a.watchdogTimeouts, b.watchdogTimeouts);
    EXPECT_EQ(a.readRingRequests, b.readRingRequests);
    EXPECT_EQ(a.energyNj, b.energyNj);
}

TEST(FaultRecovery, DisarmedConfigIsBitIdenticalToPlainRuns)
{
    // The acceptance bar of unreliable-ring mode: with --faults absent
    // (all rates zero) no injector is installed and a run is exactly
    // the run of a build that never heard of fault injection. (A
    // watchdog-armed run is a different, opt-in protocol mode: its
    // stale-traffic absorption and state sweeping legitimately change
    // message accounting, so it makes no bit-identity promise.)
    MachineConfig plain = sweepConfig(Algorithm::Exact, soakProfile());
    const RunResult base = runSimulation(plain, soakTraces(), "mini");

    MachineConfig disarmed = plain;
    disarmed.faults = FaultConfig{}; // explicit, but all rates zero
    disarmed.faults.seed = 999;      // seed alone must not arm anything
    const RunResult r = runSimulation(disarmed, soakTraces(), "mini");

    EXPECT_EQ(base.execCycles, r.execCycles);
    EXPECT_EQ(base.readRingRequests, r.readRingRequests);
    EXPECT_EQ(base.readSnoops, r.readSnoops);
    EXPECT_EQ(base.readLinkMessages, r.readLinkMessages);
    EXPECT_EQ(base.energyNj, r.energyNj);
    EXPECT_EQ(base.retries, r.retries);
    EXPECT_EQ(r.faultLinkDecisions, 0u) << "no injector installed";
    EXPECT_EQ(r.watchdogTimeouts, 0u);
    EXPECT_EQ(r.staleMessagesAbsorbed, 0u);
    EXPECT_EQ(r.incompleteConclusionsRejected, 0u);
}

TEST(FaultRecovery, WatchdogArmedFaultFreeRunStaysQuiet)
{
    // Watchdog armed on a loss-free ring: the simulation completes with
    // a clean checker and none of the recovery paths fire.
    MachineConfig cfg = sweepConfig(Algorithm::Exact, soakProfile());
    cfg.coherence.watchdogCycles = 200000; // far beyond any latency
    const RunResult r = runSimulation(cfg, soakTraces(), "mini");
    EXPECT_GT(r.execCycles, 0u);
    EXPECT_EQ(r.watchdogTimeouts, 0u);
    EXPECT_EQ(r.incompleteConclusionsRejected, 0u);
    EXPECT_EQ(r.retryStormAborts, 0u);
    EXPECT_EQ(r.faultLinkDecisions, 0u);
}

/** Cells for the hardened-runner tests: two good, optionally one bad. */
std::vector<PlannedCell>
hardenedCells(bool with_poisoned)
{
    std::vector<PlannedCell> cells;
    for (Algorithm a : {Algorithm::Lazy, Algorithm::SupersetAgg}) {
        PlannedCell cell;
        cell.cfg = sweepConfig(a, soakProfile());
        cell.traces = &soakTraces();
        cell.workload = "mini";
        cells.push_back(std::move(cell));
    }
    if (with_poisoned) {
        // Half the messages vanish and nothing recovers them (no
        // watchdog): the machine deadlocks and the run must surface a
        // SimulationStuckError instead of wedging the whole sweep.
        PlannedCell poisoned;
        poisoned.cfg = sweepConfig(Algorithm::Eager, soakProfile());
        poisoned.cfg.faults.dropRate = 0.5;
        poisoned.cfg.faults.seed = 3;
        poisoned.cfg.coherence.watchdogCycles = 0;
        poisoned.traces = &soakTraces();
        poisoned.workload = "mini";
        cells.push_back(std::move(poisoned));
    }
    return cells;
}

TEST(HardenedSweep, SerialAndParallelAreBitIdentical)
{
    const auto cells = hardenedCells(false);
    SweepHardening hardening;
    const auto serial = runCellsHardened(cells, 1, hardening);
    const auto parallel = runCellsHardened(cells, 4, hardening);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].failed);
        EXPECT_EQ(serial[i].execCycles, parallel[i].execCycles) << i;
        EXPECT_EQ(serial[i].energyNj, parallel[i].energyNj) << i;
    }
}

TEST(HardenedSweep, CrashIsolationCheckpointAndResume)
{
    const std::string checkpoint =
        testTempPath("fault_soak_checkpoint.csv");
    const std::string dumpdir = testTempPath("fault_soak_dumps");
    std::remove(checkpoint.c_str());
    std::filesystem::remove_all(dumpdir);

    SweepHardening hardening;
    hardening.checkpointPath = checkpoint;
    hardening.dumpDir = dumpdir;

    const auto cells = hardenedCells(true);
    const auto first = runCellsHardened(cells, 2, hardening);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_FALSE(first[0].failed);
    EXPECT_FALSE(first[1].failed);
    EXPECT_TRUE(first[2].failed)
        << "the poisoned cell must fail in isolation";
    EXPECT_FALSE(first[2].error.empty());

    // The stuck-transaction dump of the deadlocked cell was written.
    bool dump_found = false;
    for (const auto &entry :
         std::filesystem::directory_iterator(dumpdir))
        dump_found = dump_found || entry.path().string().find("stuck") !=
                                       std::string::npos;
    EXPECT_TRUE(dump_found);

    // Resume: the good cells are served from the checkpoint (identical
    // results), the failed cell is retried and fails again.
    const auto second = runCellsHardened(cells, 2, hardening);
    ASSERT_EQ(second.size(), 3u);
    EXPECT_EQ(second[0].execCycles, first[0].execCycles);
    EXPECT_EQ(second[1].execCycles, first[1].execCycles);
    EXPECT_TRUE(second[2].failed);

    std::remove(checkpoint.c_str());
    std::filesystem::remove_all(dumpdir);
}

} // namespace
} // namespace flexsnoop
