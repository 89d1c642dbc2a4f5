/**
 * @file Tests for bit operations, units, config, stats, RNG, the lazily
 * zeroed array and the logging layer (levels, labels, JSONL event sink).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/config.hh"
#include "common/event_log.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/publish.hh"
#include "common/random.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "common/zeroed_array.hh"
#include "test_util.hh"

using namespace tdc;

// --------------------------------------------------------------- bitops

TEST(BitOps, PowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

TEST(BitOps, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
}

TEST(BitOps, Masks)
{
    EXPECT_EQ(mask(0), 0ULL);
    EXPECT_EQ(mask(12), 0xfffULL);
    EXPECT_EQ(mask(64), ~0ULL);
    EXPECT_EQ(bits(0xabcd, 4, 8), 0xbcULL);
}

TEST(BitOps, Alignment)
{
    EXPECT_EQ(alignDown(0x1fff, 0x1000), 0x1000u);
    EXPECT_EQ(alignUp(0x1001, 0x1000), 0x2000u);
    EXPECT_EQ(alignUp(0x1000, 0x1000), 0x1000u);
}

TEST(BitOps, PageMath)
{
    const Addr a = 0x12345678;
    EXPECT_EQ(pageOf(a), a >> 12);
    EXPECT_EQ(pageOffset(a), a & 0xfffu);
    EXPECT_EQ(pageBase(pageOf(a)) + pageOffset(a), a);
    EXPECT_EQ(lineOf(a), a >> 6);
    EXPECT_EQ(lineInPage(a), (a >> 6) & 63u);
}

// ---------------------------------------------------------------- units

TEST(Units, Literals)
{
    using namespace tdc::literals;
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(1_MiB, 1024u * 1024u);
    EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
    EXPECT_EQ(3_GHz, 3'000'000'000ull);
}

TEST(Units, FrequencyPeriod)
{
    EXPECT_EQ(frequencyToPeriod(1'000'000'000ULL), 1000u); // 1 GHz = 1 ns
    EXPECT_EQ(frequencyToPeriod(2'000'000'000ULL), 500u);
}

TEST(Units, NsTicks)
{
    EXPECT_EQ(nsToTicks(1.0), 1000u);
    EXPECT_DOUBLE_EQ(ticksToNs(2500), 2.5);
}

// --------------------------------------------------------------- config

TEST(Config, SetAndGet)
{
    Config c;
    c.set("a", std::uint64_t{42});
    c.set("b", std::string("hello"));
    c.set("c", true);
    EXPECT_EQ(c.getU64("a", 0), 42u);
    EXPECT_EQ(c.getString("b", ""), "hello");
    EXPECT_TRUE(c.getBool("c", false));
}

TEST(Config, Defaults)
{
    Config c;
    EXPECT_EQ(c.getU64("missing", 7), 7u);
    EXPECT_EQ(c.getString("missing", "d"), "d");
    EXPECT_FALSE(c.has("missing"));
}

TEST(Config, ParseAssignment)
{
    Config c;
    EXPECT_TRUE(c.parseAssignment("x.y=12"));
    EXPECT_EQ(c.getU64("x.y", 0), 12u);
    EXPECT_FALSE(c.parseAssignment("no-equals"));
    EXPECT_FALSE(c.parseAssignment("=value"));
}

TEST(Config, BoolSpellings)
{
    Config c;
    for (const char *t : {"true", "1", "yes", "on"}) {
        c.set("k", std::string(t));
        EXPECT_TRUE(c.getBool("k", false)) << t;
    }
    for (const char *f : {"false", "0", "no", "off"}) {
        c.set("k", std::string(f));
        EXPECT_FALSE(c.getBool("k", true)) << f;
    }
}

TEST(Config, DoubleRoundTrip)
{
    Config c;
    c.set("d", 2.5);
    EXPECT_DOUBLE_EQ(c.getDouble("d", 0.0), 2.5);
}

TEST(ConfigDeath, MalformedInteger)
{
    Config c;
    c.set("k", std::string("abc"));
    EXPECT_EXIT(c.getU64("k", 0), ::testing::ExitedWithCode(1), "fatal");
}

// ---------------------------------------------------------------- stats

TEST(Stats, Scalar)
{
    stats::Scalar s;
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 10;
    EXPECT_EQ(s.value(), 11u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, Average)
{
    stats::Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.sum(), 6.0);
}

TEST(Stats, Histogram)
{
    stats::Histogram h(10.0, 4);
    h.sample(5.0);   // bucket 0
    h.sample(15.0);  // bucket 1
    h.sample(39.9);  // bucket 3
    h.sample(1000);  // overflow
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.count(), 4u);
}

TEST(Stats, HistogramNegativeSamplesClampToBucketZero)
{
    // A negative sample used to underflow the size_t bucket index and
    // stomp memory far outside the counts array.
    stats::Histogram h(10.0, 4);
    h.sample(-1.0);
    h.sample(-1e12);
    h.sample(0.0);
    EXPECT_EQ(h.bucket(0), 3u);
    EXPECT_EQ(h.bucket(1), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.count(), 3u);
    // The mean still reflects the raw samples.
    EXPECT_LT(h.mean(), 0.0);

    // Huge positive samples land in the overflow bucket even when
    // the quotient exceeds the range of size_t.
    h.sample(1e300);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Stats, HistogramPercentileEmpty)
{
    stats::Histogram h(10.0, 4);
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(50.0), 0.0);
    EXPECT_EQ(h.percentile(100.0), 0.0);
}

TEST(Stats, HistogramPercentileEndpoints)
{
    stats::Histogram h(10.0, 4);
    h.sample(5.0);  // bucket 0
    h.sample(15.0); // bucket 1
    h.sample(25.0); // bucket 2
    // p=0 clamps its rank up to 1 (the first sample): the estimate is
    // bucket 0's upper edge, already within [min, max].
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
    // p=100 targets the last sample: bucket 2's upper edge (30.0)
    // clamped down to the observed maximum.
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 25.0);
}

TEST(Stats, HistogramPercentileSingleSample)
{
    stats::Histogram h(10.0, 4);
    h.sample(17.0);
    // Every percentile of a one-sample distribution is that sample,
    // thanks to the clamp to the observed extremes.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 17.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 17.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 17.0);
}

TEST(Stats, HistogramPercentileAllInOverflow)
{
    stats::Histogram h(10.0, 4);
    h.sample(100.0);
    h.sample(200.0);
    h.sample(300.0);
    // Every rank resolves past the regular buckets: the estimate is
    // the observed maximum regardless of p.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 300.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 300.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 300.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 300.0);
}

TEST(Stats, HistogramPercentileClampsToObservedExtremes)
{
    stats::Histogram h(10.0, 4);
    // Both samples land in bucket 1 (edge 20.0), but the bucket edge
    // overstates the upper tail and understates the lower: the clamp
    // pins the estimate inside [min, max].
    h.sample(12.0);
    h.sample(13.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 13.0)
        << "edge 20.0 must clamp down to the observed max";
    stats::Histogram lo(10.0, 4);
    lo.sample(19.0); // bucket 1: edge 20.0 > sample
    EXPECT_DOUBLE_EQ(lo.percentile(50.0), 19.0);
}

TEST(Stats, GroupDump)
{
    stats::StatGroup g("grp");
    stats::Scalar s;
    s += 5;
    g.addScalar("cnt", &s, "a counter");
    std::ostringstream os;
    g.dump(os, "top");
    const std::string out = os.str();
    EXPECT_NE(out.find("top.grp.cnt"), std::string::npos);
    EXPECT_NE(out.find("5"), std::string::npos);
    EXPECT_NE(out.find("a counter"), std::string::npos);
}

// --------------------------------------------------------------- random

TEST(Random, Deterministic)
{
    Pcg32 a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, SeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Random, BelowBounds)
{
    Pcg32 r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Random, Below64Bounds)
{
    Pcg32 r(7);
    // Bounds above 2^63 have no power-of-two cover in 64 bits; they
    // must still draw across the whole range, not collapse to 0.
    for (const std::uint64_t bound :
         {(1ULL << 40) + 12345, (1ULL << 63) + 1, ~0ULL}) {
        std::uint64_t largest = 0;
        for (int i = 0; i < 1000; ++i) {
            const std::uint64_t v = r.below64(bound);
            EXPECT_LT(v, bound);
            largest = std::max(largest, v);
        }
        EXPECT_GE(largest, bound / 2) << "bound " << bound;
    }
}

TEST(Random, UniformRange)
{
    Pcg32 r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Random, ChanceExtremes)
{
    Pcg32 r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Random, ZipfSkewsTowardLowRanks)
{
    Pcg32 r(13);
    ZipfSampler z(100, 1.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[z.sample(r)];
    EXPECT_GT(counts[0], counts[50]);
    EXPECT_GT(counts[0], 20000 / 100); // far above uniform share
}

TEST(Random, ZipfCoversDomain)
{
    Pcg32 r(17);
    ZipfSampler z(8, 0.5);
    std::set<std::size_t> seen;
    for (int i = 0; i < 5000; ++i)
        seen.insert(z.sample(r));
    EXPECT_EQ(seen.size(), 8u);
}

// -------------------------------------------------------------- logging

// ----------------------------------------------------------------- Ring

TEST(Ring, KeepsFifoOrderAcrossGrowthAndWrap)
{
    Ring<int> ring;
    std::deque<int> want;
    int next = 0;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i <= round % 7; ++i) {
            ring.push_back(next);
            want.push_back(next++);
        }
        for (int i = 0; i < round % 5 && !want.empty(); ++i) {
            EXPECT_EQ(ring.pop_front(), want.front());
            want.pop_front();
        }
        ASSERT_EQ(ring.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(ring[i], want[i]) << "round " << round;
        if (!want.empty()) {
            EXPECT_EQ(ring.front(), want.front());
            EXPECT_EQ(ring.back(), want.back());
        }
    }
    ring.clear();
    EXPECT_TRUE(ring.empty());
    ring.push_back(7);
    EXPECT_EQ(ring.pop_front(), 7);
}

// ---------------------------------------------------------- ZeroedArray

TEST(ZeroedArray, PaysOnlyForTouchedPagesAndReturnsThem)
{
    using test::residentKib;
    constexpr std::size_t size = 256u << 20;
    constexpr std::size_t touched = 32u << 20;
    const long before = residentKib();
    auto arr = std::make_unique<ZeroedArray<std::uint8_t>>(size);
    const long mapped = residentKib();
    EXPECT_LT(mapped - before, 1024) << "untouched pages cost nothing";
    EXPECT_EQ((*arr)[size - 1], 0u);
    EXPECT_EQ((*arr)[size / 2], 0u);

    for (std::size_t i = 0; i < touched; i += 4096)
        (*arr)[i] = 1;
    const long used = residentKib();
    EXPECT_GE(used - mapped, 31 * 1024) << "each touched page is resident";

    arr.reset();
    EXPECT_LT(residentKib() - before, 1024) << "destruction unmaps";
}

// ---------------------------------------------------------- publishFile

namespace {

namespace fs = std::filesystem;

/** A fresh directory for one publishFile() test. */
fs::path
publishDir(const std::string &leaf)
{
    const fs::path dir = fs::path(::testing::TempDir()) / leaf;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** A publishFile() writer that leaves `text` and then fails. */
void
halfWriteThenFatal(const std::string &staging)
{
    std::ofstream(staging) << "half";
    fatal("disk full");
}

} // namespace

TEST(PublishFile, ReplacesTheFileOrLeavesItAndNoStagingFile)
{
    const fs::path dir = publishDir("tdc_publish");
    const std::string dest = (dir / "out.txt").string();
    auto text = [](const char *t) {
        return [t](const std::string &staging) {
            std::ofstream(staging) << t;
        };
    };
    publishFile(dest, text("one"));
    EXPECT_EQ(slurp(dest), "one");

    // A writer that fails by fatal() or by any throw, and a rename
    // that fails: the old file stays and no staging file is left.
    fs::create_directories(dir / "blocked" / "occupied");
    {
        ScopedFatalCapture capture;
        EXPECT_THROW(publishFile(dest, halfWriteThenFatal), FatalError);
        EXPECT_THROW(publishFile(dest,
                                 [](const std::string &staging) {
                                     std::ofstream(staging) << "half";
                                     throw std::runtime_error("boom");
                                 }),
                     FatalError);
        EXPECT_THROW(publishFile((dir / "blocked").string(), text("x")),
                     FatalError);
    }
    EXPECT_EQ(slurp(dest), "one");
    std::set<std::string> names;
    for (const auto &e : fs::directory_iterator(dir))
        names.insert(e.path().filename().string());
    EXPECT_EQ(names, (std::set<std::string>{"blocked", "out.txt"}));

    // Staged in another directory of the same filesystem.
    fs::create_directories(dir / "staging");
    publishFile(dest, text("two"), (dir / "staging").string());
    EXPECT_EQ(slurp(dest), "two");
    EXPECT_TRUE(fs::is_empty(dir / "staging"));
}

TEST(PublishFileDeathTest, UncapturedFatalStillRemovesTheStagingFile)
{
    const fs::path dir = publishDir("tdc_publish_death");
    const std::string dest = (dir / "out.txt").string();
    EXPECT_EXIT(publishFile(dest, halfWriteThenFatal),
                ::testing::ExitedWithCode(1), "disk full");
    EXPECT_TRUE(fs::is_empty(dir));
}

TEST(Logging, LogLevelParseAndNameRoundTrip)
{
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
    EXPECT_EQ(parseLogLevel("off"), LogLevel::Off);
    EXPECT_FALSE(parseLogLevel("verbose").has_value());
    EXPECT_FALSE(parseLogLevel("").has_value());
    EXPECT_EQ(logLevelName(LogLevel::Warn), "warn");
    EXPECT_EQ(logLevelName(LogLevel::Debug), "debug");
}

TEST(Logging, ScopedLogLabelNestsAndRestores)
{
    EXPECT_EQ(currentLogLabel(), "");
    {
        ScopedLogLabel outer("job-a");
        EXPECT_EQ(currentLogLabel(), "job-a");
        {
            ScopedLogLabel inner("job-b");
            EXPECT_EQ(currentLogLabel(), "job-b");
        }
        EXPECT_EQ(currentLogLabel(), "job-a");
    }
    EXPECT_EQ(currentLogLabel(), "");
}

TEST(EventLog, WritesOneParseableRecordPerLine)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::path(::testing::TempDir()) / "tdc_events_test.jsonl";
    fs::remove(path);
    const LogLevel prev = logLevel();
    setLogLevel(LogLevel::Info);
    openEventLog(path.string());
    ASSERT_TRUE(eventLogOpen());

    auto fields = json::Value::object();
    fields.set("answer", std::uint64_t{42});
    {
        ScopedLogLabel label("cell-7");
        logEvent(LogLevel::Info, "unit_test", std::move(fields));
    }
    logEvent(LogLevel::Debug, "dropped_below_threshold");
    warn("mirrored into the event log");
    closeEventLog();
    setLogLevel(prev);
    EXPECT_FALSE(eventLogOpen());
    logEvent(LogLevel::Info, "after_close"); // no sink: dropped

    std::ifstream in(path);
    std::vector<json::Value> records;
    std::string line;
    while (std::getline(in, line)) {
        auto rec = json::Value::parse(line);
        ASSERT_TRUE(rec.has_value()) << line;
        records.push_back(std::move(*rec));
    }
    ASSERT_EQ(records.size(), 2u);

    // The structured event: standard fields, the thread's label, and
    // the caller's payload inlined after them.
    const json::Value &ev = records[0];
    EXPECT_EQ(ev.find("event")->asString(), "unit_test");
    EXPECT_EQ(ev.find("level")->asString(), "info");
    EXPECT_EQ(ev.find("label")->asString(), "cell-7");
    EXPECT_EQ(ev.find("answer")->asUint(), 42u);
    const std::string ts = ev.find("ts")->asString();
    ASSERT_EQ(ts.size(), 24u); // 2026-08-07T12:34:56.123Z
    EXPECT_EQ(ts[10], 'T');
    EXPECT_EQ(ts.back(), 'Z');

    // The stderr mirror: warn/inform lines become "log" records.
    const json::Value &mirror = records[1];
    EXPECT_EQ(mirror.find("event")->asString(), "log");
    EXPECT_EQ(mirror.find("level")->asString(), "warn");
    EXPECT_NE(mirror.find("msg")->asString().find("mirrored"),
              std::string::npos);
}
