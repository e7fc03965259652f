/**
 * @file
 * The `.fsmetrics` capture format (docs/TELEMETRY.md): CLI spec
 * parsing, selector globs, an exact write/read round trip through the
 * zigzag-varint delta codec, rejection of truncated and corrupt files,
 * selector filtering at registration, and the stuck-dump tail.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/metrics_reader.hh"
#include "telemetry/metrics_sampler.hh"
#include "temp_path.hh"

namespace flexsnoop
{
namespace
{

TEST(MetricsConfig, FromSpecParsesEveryKey)
{
    const MetricsConfig c =
        MetricsConfig::fromSpec("out/x.fsmetrics,interval=500,select=ctrl.*");
    EXPECT_EQ(c.path, "out/x.fsmetrics");
    EXPECT_EQ(c.intervalCycles, 500u);
    EXPECT_EQ(c.select, "ctrl.*");
    EXPECT_TRUE(c.enabled());
}

TEST(MetricsConfig, FromSpecDefaults)
{
    const MetricsConfig c = MetricsConfig::fromSpec("out.fsmetrics");
    EXPECT_EQ(c.path, "out.fsmetrics");
    EXPECT_EQ(c.intervalCycles, 10000u);
    EXPECT_TRUE(c.select.empty());
}

TEST(MetricsConfig, FromSpecRejectsBadSpecs)
{
    EXPECT_THROW(MetricsConfig::fromSpec(""), std::invalid_argument);
    EXPECT_THROW(MetricsConfig::fromSpec("f,interval=0"),
                 std::invalid_argument);
    EXPECT_THROW(MetricsConfig::fromSpec("f,interval=abc"),
                 std::invalid_argument);
    EXPECT_THROW(MetricsConfig::fromSpec("f,cadence=5"),
                 std::invalid_argument);
}

TEST(MetricsSelector, GlobSemantics)
{
    EXPECT_TRUE(metricSelectorMatches("", "anything.at.all"));
    EXPECT_TRUE(metricSelectorMatches("ctrl.*", "ctrl.retries"));
    EXPECT_FALSE(metricSelectorMatches("ctrl.*", "queue.depth"));
    EXPECT_TRUE(metricSelectorMatches("*.busy_links", "ring0.busy_links"));
    EXPECT_FALSE(metricSelectorMatches("*.busy_links", "ring0.busy"));
    EXPECT_TRUE(metricSelectorMatches("ring?.busy_links",
                                      "ring1.busy_links"));
    EXPECT_FALSE(metricSelectorMatches("ring?.busy_links",
                                       "ring10.busy_links"));
    // '*' may match an empty run, and backtracking must work across
    // multiple stars.
    EXPECT_TRUE(metricSelectorMatches("*", ""));
    EXPECT_TRUE(metricSelectorMatches("a*b*c", "abc"));
    EXPECT_TRUE(metricSelectorMatches("a*b*c", "axxbyybzzc"));
    EXPECT_FALSE(metricSelectorMatches("a*b*c", "acb"));
}

/** Capture a small synthetic set of series with known values. */
struct RoundTrip
{
    const std::string path = testTempPath("roundtrip.fsmetrics");
    std::vector<std::uint64_t> counter{0, 120, 7, 300, 300};
    std::vector<std::uint64_t> gauge{9, 2, 11, 0, 5};
    std::vector<std::uint64_t> cycles{100, 200, 300, 400, 500};

    RoundTrip()
    {
        MetricsConfig cfg;
        cfg.path = path;
        cfg.intervalCycles = 100;
        MetricsSampler sampler(cfg, 8, 16);
        std::size_t at = 0;
        // The counter column dips at sample 2 (the warmup reset): the
        // zigzag codec must absorb the negative delta.
        EXPECT_TRUE(sampler.addSeries(
            "test.counter", SeriesKind::Counter,
            [&](Cycle) { return counter[at]; }));
        EXPECT_TRUE(sampler.addSeries("test.gauge", SeriesKind::Gauge,
                                      [&](Cycle) { return gauge[at]; }));
        for (; at < cycles.size(); ++at) {
            if (at == 2)
                sampler.markMeasureStart(250);
            sampler.sample(cycles[at]);
        }
        sampler.finish();
    }
    ~RoundTrip() { std::remove(path.c_str()); }
};

TEST(MetricsRoundTrip, ValuesSurviveExactly)
{
    RoundTrip rt;
    const MetricsFile file = loadMetrics(rt.path);
    EXPECT_EQ(file.header.version, kMetricsVersion);
    EXPECT_EQ(file.header.seriesCount, 2u);
    EXPECT_EQ(file.header.sampleCount, 5u);
    EXPECT_EQ(file.header.intervalCycles, 100u);
    EXPECT_EQ(file.header.measureStartCycle, 250u);
    EXPECT_EQ(file.header.numNodes, 8u);
    EXPECT_EQ(file.header.numCores, 16u);

    EXPECT_EQ(file.cycles, rt.cycles);
    ASSERT_EQ(file.names.size(), 2u);
    EXPECT_EQ(file.kinds[file.indexOf("test.counter")],
              SeriesKind::Counter);
    EXPECT_EQ(file.kinds[file.indexOf("test.gauge")], SeriesKind::Gauge);
    ASSERT_NE(file.column("test.counter"), nullptr);
    EXPECT_EQ(*file.column("test.counter"), rt.counter);
    EXPECT_EQ(*file.column("test.gauge"), rt.gauge);
    EXPECT_EQ(file.column("test.absent"), nullptr);
    EXPECT_EQ(file.indexOf("test.absent"), -1);
}

TEST(MetricsRoundTrip, EmptyCaptureIsValid)
{
    const std::string path = testTempPath("empty.fsmetrics");
    {
        MetricsConfig cfg;
        cfg.path = path;
        MetricsSampler sampler(cfg, 4, 4);
        sampler.addSeries("only.series", SeriesKind::Gauge,
                          [](Cycle) { return 0u; });
        sampler.finish(); // no samples at all
    }
    const MetricsFile file = loadMetrics(path);
    EXPECT_EQ(file.header.sampleCount, 0u);
    EXPECT_EQ(file.header.measureStartCycle, kMetricsNoMeasureStart);
    EXPECT_TRUE(file.cycles.empty());
    std::remove(path.c_str());
}

TEST(MetricsReader, RejectsTruncationAtEveryPrefix)
{
    RoundTrip rt;
    std::ifstream is(rt.path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    is.close();
    ASSERT_GT(bytes.size(), sizeof(MetricsFileHeader));

    const std::string cut = testTempPath("truncated.fsmetrics");
    // Every proper prefix must be rejected: the header promises a
    // payload length the file cannot satisfy (or the header itself is
    // incomplete).
    for (std::size_t len : {std::size_t{0}, std::size_t{17},
                            sizeof(MetricsFileHeader),
                            sizeof(MetricsFileHeader) + 3,
                            bytes.size() - 1}) {
        std::ofstream os(cut, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(len));
        os.close();
        EXPECT_THROW(loadMetrics(cut), std::runtime_error)
            << "prefix of " << len << " bytes must not decode";
    }
    // Trailing garbage is a corruption signal too, not slack.
    std::ofstream os(cut, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os << "junk";
    os.close();
    EXPECT_THROW(loadMetrics(cut), std::runtime_error);
    std::remove(cut.c_str());
}

TEST(MetricsReader, RejectsBadMagicAndPlaceholderHeader)
{
    RoundTrip rt;
    std::ifstream is(rt.path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    is.close();

    const std::string bad = testTempPath("badmagic.fsmetrics");
    {
        std::string corrupt = bytes;
        corrupt[0] = 'X';
        std::ofstream os(bad, std::ios::binary | std::ios::trunc);
        os << corrupt;
    }
    EXPECT_THROW(loadMetrics(bad), std::runtime_error);

    // A crashed capture leaves the all-zero placeholder header: the
    // reader must refuse it rather than decode an empty file.
    {
        std::ofstream os(bad, std::ios::binary | std::ios::trunc);
        const std::string zeros(sizeof(MetricsFileHeader), '\0');
        os << zeros;
    }
    EXPECT_THROW(loadMetrics(bad), std::runtime_error);
    std::remove(bad.c_str());
}

TEST(MetricsSampler, SelectorFiltersAtRegistration)
{
    const std::string path = testTempPath("select.fsmetrics");
    MetricsConfig cfg;
    cfg.path = path;
    cfg.select = "ctrl.*";
    {
        MetricsSampler sampler(cfg, 2, 2);
        EXPECT_TRUE(sampler.addSeries("ctrl.retries", SeriesKind::Counter,
                                      [](Cycle) { return 1u; }));
        EXPECT_FALSE(sampler.addSeries("queue.depth", SeriesKind::Gauge,
                                       [](Cycle) { return 2u; }))
            << "a filtered-out series must not register";
        EXPECT_EQ(sampler.numSeries(), 1u);
        sampler.sample(10);
        sampler.finish();
    }
    const MetricsFile file = loadMetrics(path);
    ASSERT_EQ(file.names.size(), 1u);
    EXPECT_EQ(file.names[0], "ctrl.retries");
    std::remove(path.c_str());
}

TEST(MetricsSampler, DumpRecentShowsTail)
{
    const std::string path = testTempPath("dump.fsmetrics");
    MetricsConfig cfg;
    cfg.path = path;
    cfg.intervalCycles = 10;
    {
        MetricsSampler sampler(cfg, 2, 2);
        std::uint64_t v = 0;
        sampler.addSeries("test.tail", SeriesKind::Counter,
                          [&](Cycle) { return v; });
        for (v = 0; v < 10; ++v)
            sampler.sample(10 * (v + 1));

        std::ostringstream os;
        sampler.dumpRecent(os, 3);
        const std::string dump = os.str();
        EXPECT_NE(dump.find("telemetry: last 3 of 10"), std::string::npos)
            << dump;
        EXPECT_NE(dump.find("test.tail: 7 8 9"), std::string::npos)
            << dump;
        EXPECT_NE(dump.find("cycle: 80 90 100"), std::string::npos)
            << dump;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace flexsnoop
