/**
 * @file
 * Unit tests for the workload substrate: profiles, synthetic and
 * uniform generators, and the trace-driven core model.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/machine.hh"
#include "workload/core_model.hh"
#include "workload/profile.hh"
#include "workload/synthetic_generator.hh"
#include "workload/uniform_generator.hh"

namespace flexsnoop
{
namespace
{

TEST(Profiles, Splash2HasElevenApplications)
{
    const auto apps = splash2Profiles();
    EXPECT_EQ(apps.size(), 11u); // all SPLASH-2 except Volrend
    std::set<std::string> names;
    for (const auto &p : apps) {
        names.insert(p.name);
        EXPECT_EQ(p.numCores, 32u);
        EXPECT_EQ(p.coresPerCmp, 4u);
        EXPECT_EQ(p.numCmps(), 8u);
        const double total = p.readMostlyFraction +
                             p.producerConsumerFraction +
                             p.migratoryFraction;
        EXPECT_NEAR(total, 1.0, 1e-9) << p.name;
    }
    EXPECT_EQ(names.size(), 11u) << "names must be distinct";
}

TEST(Profiles, SpecWorkloadsUseSingleCoreCmps)
{
    // Paper §5.1: SPECjbb/web run with 8 processors in 8 CMPs.
    for (const auto &p : {specJbbProfile(), specWebProfile()}) {
        EXPECT_EQ(p.numCores, 8u);
        EXPECT_EQ(p.coresPerCmp, 1u);
    }
}

TEST(Profiles, SpecJbbIsMemoryBoundByConstruction)
{
    const auto p = specJbbProfile();
    // Working set far above the 8K-line L2 and little sharing.
    EXPECT_GT(p.privateLines, 8192u * 2);
    EXPECT_LT(p.sharedFraction, 0.1);
}

TEST(Profiles, ByNameFindsEverything)
{
    EXPECT_EQ(profileByName("specjbb").name, "specjbb");
    EXPECT_EQ(profileByName("barnes").name, "barnes");
    EXPECT_EQ(profileByName("mini").name, "mini");
    EXPECT_THROW(profileByName("doom"), std::invalid_argument);
}

TEST(SyntheticGenerator, DeterministicPerSeed)
{
    const auto profile = miniProfile();
    const auto a = SyntheticGenerator(profile).generate();
    const auto b = SyntheticGenerator(profile).generate();
    ASSERT_EQ(a.traces.size(), b.traces.size());
    for (std::size_t c = 0; c < a.traces.size(); ++c) {
        ASSERT_EQ(a.traces[c].size(), b.traces[c].size());
        for (std::size_t i = 0; i < a.traces[c].size(); ++i) {
            EXPECT_EQ(a.traces[c][i].addr, b.traces[c][i].addr);
            EXPECT_EQ(a.traces[c][i].isWrite, b.traces[c][i].isWrite);
            EXPECT_EQ(a.traces[c][i].gap, b.traces[c][i].gap);
        }
    }
}

TEST(SyntheticGenerator, DifferentSeedsDiffer)
{
    auto profile = miniProfile();
    const auto a = SyntheticGenerator(profile).generate();
    profile.seed += 1;
    const auto b = SyntheticGenerator(profile).generate();
    bool any_diff = false;
    for (std::size_t i = 0; i < a.traces[0].size(); ++i)
        any_diff |= a.traces[0][i].addr != b.traces[0][i].addr;
    EXPECT_TRUE(any_diff);
}

TEST(SyntheticGenerator, TraceShapeMatchesProfile)
{
    const auto profile = miniProfile();
    const auto traces = SyntheticGenerator(profile).generate();
    EXPECT_EQ(traces.numCores(), profile.numCores);
    EXPECT_EQ(traces.warmupRefs, profile.warmupRefs);
    for (const auto &t : traces.traces)
        EXPECT_EQ(t.size(), profile.warmupRefs + profile.refsPerCore);
}

TEST(SyntheticGenerator, SharedFractionRoughlyHonored)
{
    auto profile = miniProfile();
    profile.sharedFraction = 0.4;
    profile.refsPerCore = 4000;
    SyntheticGenerator gen(profile);
    const auto traces = gen.generate();
    std::size_t shared = 0, total = 0;
    for (const auto &t : traces.traces) {
        for (const auto &ref : t) {
            total += 1;
            shared += ref.addr >= (Addr{1} << 40);
        }
    }
    const double frac = static_cast<double>(shared) / total;
    // Migratory refs emit read+write pairs, nudging the fraction up.
    EXPECT_GT(frac, 0.35);
    EXPECT_LT(frac, 0.55);
}

TEST(SyntheticGenerator, PrivateRegionsAreDisjointPerCore)
{
    const auto profile = miniProfile();
    SyntheticGenerator gen(profile);
    for (std::size_t c1 = 0; c1 < 3; ++c1) {
        for (std::size_t c2 = c1 + 1; c2 < 3; ++c2) {
            EXPECT_NE(lineIndex(gen.privateAddr(c1, 0)) / (1 << 20),
                      lineIndex(gen.privateAddr(c2, 0)) / (1 << 20));
        }
    }
}

TEST(SyntheticGenerator, PatternAssignmentIsStable)
{
    const auto profile = miniProfile();
    SyntheticGenerator gen(profile);
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(gen.patternOf(i), gen.patternOf(i));
        EXPECT_LT(gen.producerOf(i), profile.numCores);
    }
}

TEST(SyntheticGenerator, MigratoryRefsPairReadWithWrite)
{
    auto profile = miniProfile();
    profile.readMostlyFraction = 0.0;
    profile.producerConsumerFraction = 0.0;
    profile.migratoryFraction = 1.0;
    profile.sharedFraction = 1.0;
    const auto traces = SyntheticGenerator(profile).generate();
    const auto &t = traces.traces[0];
    // Every shared access is a read immediately followed by a write to
    // the same line.
    for (std::size_t i = 0; i + 1 < t.size(); i += 2) {
        EXPECT_FALSE(t[i].isWrite);
        EXPECT_TRUE(t[i + 1].isWrite);
        EXPECT_EQ(lineAddr(t[i].addr), lineAddr(t[i + 1].addr));
    }
}

TEST(UniformGenerator, WarmupWritesOwnLinesMeasurementReadsOthers)
{
    UniformWorkloadParams params;
    params.numCores = 4;
    params.linesPerReader = 8;
    UniformGenerator gen(params);
    const auto traces = gen.generate();
    ASSERT_EQ(traces.numCores(), 4u);
    // Warmup: (n-1) * linesPerReader writes per core.
    EXPECT_EQ(traces.warmupRefs, 3u * 8u);
    for (std::size_t core = 0; core < 4; ++core) {
        const auto &t = traces.traces[core];
        ASSERT_EQ(t.size(), 2 * traces.warmupRefs);
        for (std::size_t i = 0; i < traces.warmupRefs; ++i)
            EXPECT_TRUE(t[i].isWrite);
        for (std::size_t i = traces.warmupRefs; i < t.size(); ++i)
            EXPECT_FALSE(t[i].isWrite);
    }
}

TEST(UniformGenerator, MeasurementLinesAreUniqueAndForeign)
{
    UniformWorkloadParams params;
    params.numCores = 4;
    params.linesPerReader = 8;
    UniformGenerator gen(params);
    const auto traces = gen.generate();
    for (std::size_t reader = 0; reader < 4; ++reader) {
        const auto &t = traces.traces[reader];
        std::set<Addr> seen;
        for (std::size_t i = traces.warmupRefs; i < t.size(); ++i) {
            EXPECT_TRUE(seen.insert(lineAddr(t[i].addr)).second)
                << "line read twice";
        }
        // None of the measured lines belong to the reader's own pool.
        for (std::size_t other = 0; other < 4; ++other) {
            if (other == reader)
                continue;
            for (std::size_t i = 0; i < params.linesPerReader; ++i) {
                // The reader's slice of `other` must be in the set.
                EXPECT_TRUE(
                    seen.count(lineAddr(gen.addrOf(other, reader, i))));
            }
        }
    }
}

// --- Core model ------------------------------------------------------------------

class CoreModelTest : public ::testing::Test
{
  protected:
    CoreModelTest()
        : machine(MachineConfig::testDefault(Algorithm::Lazy))
    {
    }

    Machine machine;
};

TEST_F(CoreModelTest, DrivesTraceToCompletion)
{
    CoreTraces traces;
    traces.warmupRefs = 0;
    traces.traces.resize(4);
    for (CoreId c = 0; c < 4; ++c) {
        for (int i = 0; i < 20; ++i) {
            MemRef ref;
            ref.addr = (c * 100 + i) * kLineSizeBytes;
            ref.isWrite = i % 4 == 0;
            ref.gap = 5;
            traces.traces[c].push_back(ref);
        }
    }
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          CoreParams{});
    const Cycle cycles = runner.run();
    EXPECT_TRUE(runner.allDone());
    EXPECT_GT(cycles, 0u);
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_EQ(runner.core(c).refsIssued(), 20u);
}

TEST_F(CoreModelTest, WarmupBarrierResetsAtTheRightPoint)
{
    CoreTraces traces;
    traces.warmupRefs = 10;
    traces.traces.resize(4);
    for (CoreId c = 0; c < 4; ++c) {
        for (int i = 0; i < 30; ++i) {
            MemRef ref;
            ref.addr = (c * 100 + i) * kLineSizeBytes;
            ref.gap = 3;
            traces.traces[c].push_back(ref);
        }
    }
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          CoreParams{});
    bool warmup_fired = false;
    std::size_t min_issued_at_reset = 0;
    runner.setWarmupDoneFn([&]() {
        warmup_fired = true;
        min_issued_at_reset = SIZE_MAX;
        for (std::size_t c = 0; c < runner.numCores(); ++c) {
            min_issued_at_reset = std::min(min_issued_at_reset,
                                           runner.core(c).refsIssued());
        }
    });
    const Cycle measured = runner.run();
    EXPECT_TRUE(warmup_fired);
    EXPECT_EQ(min_issued_at_reset, 10u)
        << "all cores must be exactly at the barrier when stats reset";
    EXPECT_GT(runner.measureStart(), 0u);
    EXPECT_GT(measured, 0u);
}

TEST_F(CoreModelTest, WindowLimitsOutstandingMisses)
{
    CoreTraces traces;
    traces.warmupRefs = 0;
    traces.traces.resize(4);
    // Core 0 issues back-to-back misses; the rest idle.
    for (int i = 0; i < 50; ++i) {
        MemRef ref;
        ref.addr = (1000 + i) * kLineSizeBytes;
        ref.gap = 1;
        traces.traces[0].push_back(ref);
    }
    CoreParams params;
    params.maxOutstanding = 2;
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          params);
    runner.run();
    EXPECT_TRUE(runner.allDone());
    EXPECT_GT(runner.core(0).stats().counterValue("window_stalls"), 0u);
}

TEST_F(CoreModelTest, SmallerWindowRunsSlower)
{
    auto make_traces = []() {
        CoreTraces traces;
        traces.warmupRefs = 0;
        traces.traces.resize(4);
        for (int i = 0; i < 60; ++i) {
            MemRef ref;
            ref.addr = (2000 + i) * kLineSizeBytes;
            ref.gap = 1;
            traces.traces[0].push_back(ref);
        }
        return traces;
    };
    Cycle slow, fast;
    {
        Machine m(MachineConfig::testDefault(Algorithm::Lazy));
        CoreParams p;
        p.maxOutstanding = 1;
        const CoreTraces traces = make_traces();
        WorkloadRunner r(m.queue(), m.controller(), traces, p);
        r.run();
        slow = m.queue().now();
    }
    {
        Machine m(MachineConfig::testDefault(Algorithm::Lazy));
        CoreParams p;
        p.maxOutstanding = 8;
        const CoreTraces traces = make_traces();
        WorkloadRunner r(m.queue(), m.controller(), traces, p);
        r.run();
        fast = m.queue().now();
    }
    EXPECT_LT(fast, slow);
}

} // namespace
} // namespace flexsnoop
