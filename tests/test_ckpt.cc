/**
 * @file
 * Checkpoint subsystem tests: byte-level serializer, the versioned
 * container's validation, full-system round-trips across every L3
 * organization, fingerprint gating, and the sweep runner's warm-sharing
 * path.
 *
 * The headline property under test: a straight warmup+measure run and a
 * warmup/save/restore/measure run produce byte-identical run reports,
 * for every organization, and the sweep runner's --warm-once mode
 * preserves that identity at any worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cache/sram_cache.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/serializer.hh"
#include "common/logging.hh"
#include "dramcache/org_factory.hh"
#include "dramcache/tagless_cache.hh"
#include "runner/sweep.hh"
#include "runner/sweep_runner.hh"
#include "sys/report.hh"
#include "sys/system.hh"
#include "test_util.hh"
#include "vm/tlb.hh"

using namespace tdc;

namespace {

SystemConfig
quickConfig(OrgKind org, const std::vector<std::string> &w,
            std::uint64_t insts = 60'000, std::uint64_t warmup = 30'000)
{
    SystemConfig cfg;
    cfg.org = org;
    cfg.workloads = w;
    cfg.instsPerCore = insts;
    cfg.warmupInsts = warmup;
    return cfg;
}

/** Full report of a straight warmup+measure run. */
std::string
straightReport(const SystemConfig &cfg)
{
    System sys(cfg);
    const RunResult r = sys.run();
    return makeRunReport(cfg, r, &sys).dump();
}

/** A checkpoint of a System warmed with `cfg`. */
ckpt::Checkpoint
warmedCheckpoint(const SystemConfig &cfg)
{
    System sys(cfg);
    sys.warmup();
    return sys.makeCheckpoint();
}

/** `ck` with the payload of its section `name` replaced by `bytes`. */
ckpt::Checkpoint
withSection(const ckpt::Checkpoint &ck, std::string_view name,
            const std::vector<std::uint8_t> &payload)
{
    ckpt::Checkpoint out;
    out.setFingerprint(ck.fingerprint());
    for (const ckpt::Section &sec : ck.sections()) {
        const auto &bytes = sec.name == name ? payload : sec.payload;
        ckpt::Serializer s;
        s.putBytes(bytes.data(), bytes.size());
        out.addSection(sec.name, std::move(s));
    }
    return out;
}

std::uint64_t
u64At(const std::vector<std::uint8_t> &b, std::size_t at)
{
    std::uint64_t v;
    std::memcpy(&v, b.data() + at, sizeof(v));
    return v;
}

void
putU64At(std::vector<std::uint8_t> &b, std::size_t at, std::uint64_t v)
{
    std::memcpy(b.data() + at, &v, sizeof(v));
}

/** Full report of a warmup/checkpoint/fresh-System/restore/measure run. */
std::string
restoredReport(const SystemConfig &cfg)
{
    System sys(cfg);
    sys.restoreCheckpoint(warmedCheckpoint(cfg));
    const RunResult r = sys.measure();
    return makeRunReport(cfg, r, &sys).dump();
}

} // namespace

// ---------------------------------------------------------------------
// Serializer / Deserializer
// ---------------------------------------------------------------------

TEST(CkptSerializer, RoundTripsEveryType)
{
    ckpt::Serializer s;
    s.putU8(0xab);
    s.putU16(0xbeef);
    s.putU32(0xdeadbeefu);
    s.putU64(0x0123456789abcdefULL);
    s.putBool(true);
    s.putBool(false);
    s.putDouble(3.14159265358979);
    s.putDouble(-0.0);
    s.putString("hello checkpoint");
    s.putString("");

    ckpt::Deserializer d(s.bytes());
    EXPECT_EQ(d.getU8(), 0xab);
    EXPECT_EQ(d.getU16(), 0xbeef);
    EXPECT_EQ(d.getU32(), 0xdeadbeefu);
    EXPECT_EQ(d.getU64(), 0x0123456789abcdefULL);
    EXPECT_TRUE(d.getBool());
    EXPECT_FALSE(d.getBool());
    EXPECT_DOUBLE_EQ(d.getDouble(), 3.14159265358979);
    EXPECT_DOUBLE_EQ(d.getDouble(), -0.0);
    EXPECT_EQ(d.getString(), "hello checkpoint");
    EXPECT_EQ(d.getString(), "");
    EXPECT_TRUE(d.done());
}

TEST(CkptSerializer, LittleEndianOnDisk)
{
    ckpt::Serializer s;
    s.putU32(0x04030201u);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s.bytes()[0], 0x01);
    EXPECT_EQ(s.bytes()[3], 0x04);
}

namespace {

/**
 * Encodes a u8 and then one value with `put`, and checks that `get`
 * is fatal on every buffer that ends 1 to width-1 bytes into that
 * value. Each buffer is a vector of exactly the prefix, so a read past
 * its end is also a sanitizer report.
 */
template <typename Put, typename Get>
void
expectEveryCutIsFatal(Put put, Get get)
{
    ckpt::Serializer s;
    s.putU8(0x5a);
    put(s);
    const std::vector<std::uint8_t> &full = s.bytes();
    for (std::size_t n = 2; n < full.size(); ++n) {
        SCOPED_TRACE(n);
        const std::vector<std::uint8_t> prefix(
            full.begin(), full.begin() + static_cast<std::ptrdiff_t>(n));
        ckpt::Deserializer d(prefix);
        EXPECT_EQ(d.getU8(), 0x5a);
        EXPECT_THROW(get(d), FatalError);
    }
}

} // namespace

TEST(CkptSerializer, ReadPastEndIsFatal)
{
    ScopedFatalCapture capture;
    ckpt::Serializer s;
    s.putU32(7);
    ckpt::Deserializer d(s.bytes());
    d.getU16();
    d.getU16();
    EXPECT_TRUE(d.done());
    EXPECT_THROW(d.getU8(), FatalError);

    using S = ckpt::Serializer;
    using D = ckpt::Deserializer;
    expectEveryCutIsFatal([](S &out) { out.putU16(0xbeef); },
                          [](D &in) { in.getU16(); });
    expectEveryCutIsFatal([](S &out) { out.putU32(0xdeadbeefu); },
                          [](D &in) { in.getU32(); });
    expectEveryCutIsFatal([](S &out) { out.putU64(~0ULL); },
                          [](D &in) { in.getU64(); });
    expectEveryCutIsFatal([](S &out) { out.putDouble(-2.5); },
                          [](D &in) { in.getDouble(); });
    expectEveryCutIsFatal([](S &out) { out.putString("twelve bytes"); },
                          [](D &in) { in.getString(); });
}

TEST(CkptSerializer, TruncatedStringIsFatal)
{
    ScopedFatalCapture capture;
    ckpt::Serializer s;
    s.putString("twelve bytes");
    auto bytes = s.bytes();
    bytes.resize(bytes.size() - 3);
    ckpt::Deserializer d(bytes);
    EXPECT_THROW(d.getString(), FatalError);
}

TEST(CkptSerializer, SparseListRoundTripsAndNamesABadIndex)
{
    const std::vector<std::uint64_t> values = {0, 7, 0, 0, 9, 0};
    ckpt::Serializer out;
    ckpt::putSparse(
        out, values.size(),
        [&](std::uint64_t i) { return values[i] != 0; },
        [&](std::uint64_t i) { out.putU64(values[i]); });
    // count 2, then (index 1, 7) and (index 4, 9)
    ASSERT_EQ(out.size(), 5u * 8);

    std::vector<std::uint64_t> back(values.size(), 0);
    ckpt::Deserializer in(out.bytes());
    ckpt::getSparse(in, "slot", back.size(),
                    [&](std::uint64_t i) { back[i] = in.getU64(); });
    EXPECT_TRUE(in.done());
    EXPECT_EQ(back, values);

    // Each listed index is checked before its payload is read.
    auto expectFatal = [&](std::size_t word, std::uint64_t v,
                           const std::string &what) {
        std::vector<std::uint8_t> bad = out.bytes();
        std::memcpy(bad.data() + word * 8, &v, sizeof(v));
        ScopedFatalCapture capture;
        try {
            ckpt::Deserializer d(bad);
            ckpt::getSparse(d, "slot", back.size(),
                            [&](std::uint64_t) { d.getU64(); });
            ADD_FAILURE() << "accepted a list with " << what;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
        }
    };
    expectFatal(1, 6, "slot 6 out of range (6 in all)");
    expectFatal(3, 1, "slot 1 listed twice");
    expectFatal(3, 0, "slot 0 listed after slot 1");
}

// ---------------------------------------------------------------------
// Checkpoint container
// ---------------------------------------------------------------------

namespace {

ckpt::Checkpoint
tinyCheckpoint()
{
    ckpt::Checkpoint ck;
    ck.setFingerprint(0x1122334455667788ULL);
    ckpt::Serializer a;
    a.putU64(42);
    ck.addSection("alpha", std::move(a));
    ckpt::Serializer b;
    b.putString("beta payload");
    ck.addSection("beta", std::move(b));
    return ck;
}

} // namespace

TEST(CkptContainer, EncodeDecodeRoundTrip)
{
    const auto bytes = tinyCheckpoint().encode();
    const auto ck = ckpt::Checkpoint::decode(bytes);
    EXPECT_EQ(ck.fingerprint(), 0x1122334455667788ULL);
    ASSERT_EQ(ck.sections().size(), 2u);
    EXPECT_EQ(ck.sections()[0].name, "alpha");
    EXPECT_EQ(ck.sections()[1].name, "beta");
    const ckpt::Section *alpha = ck.find("alpha");
    ASSERT_NE(alpha, nullptr);
    ckpt::Deserializer d(alpha->payload.data(), alpha->payload.size());
    EXPECT_EQ(d.getU64(), 42u);
    EXPECT_EQ(ck.find("gamma"), nullptr);
}

TEST(CkptContainer, RejectsBadMagic)
{
    ScopedFatalCapture capture;
    auto bytes = tinyCheckpoint().encode();
    bytes[0] ^= 0xff;
    EXPECT_THROW(ckpt::Checkpoint::decode(bytes), FatalError);
}

TEST(CkptContainer, RejectsVersionSkew)
{
    ScopedFatalCapture capture;
    auto bytes = tinyCheckpoint().encode();
    bytes[8] = 0xff; // low byte of the u32 format version
    EXPECT_THROW(ckpt::Checkpoint::decode(bytes), FatalError);
}

TEST(CkptContainer, RejectsCorruptPayload)
{
    ScopedFatalCapture capture;
    auto bytes = tinyCheckpoint().encode();
    bytes.back() ^= 0x01; // flips a payload byte under its checksum
    EXPECT_THROW(ckpt::Checkpoint::decode(bytes), FatalError);
}

TEST(CkptContainer, RejectsTruncation)
{
    ScopedFatalCapture capture;
    const auto bytes = tinyCheckpoint().encode();
    // Every proper prefix must be rejected, not just "almost whole".
    // Each is a vector of exactly that length, so an over-read is also
    // a sanitizer report.
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        SCOPED_TRACE(n);
        const std::vector<std::uint8_t> prefix(
            bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(n));
        EXPECT_THROW(ckpt::Checkpoint::decode(prefix), FatalError);
    }
}

TEST(CkptContainer, V4BytesArePinned)
{
    // The version-4 byte image, field by field. The round-trip tests
    // only show that encode() and decode() agree with each other; this
    // pins what both must agree with.
    const std::vector<std::uint8_t> tiny = {
        // magic "TDCCKPT\0"
        'T', 'D', 'C', 'C', 'K', 'P', 'T', 0,
        // u32 format version 4
        4, 0, 0, 0,
        // u64 fingerprint
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
        // u32 section count 2
        2, 0, 0, 0,
        // "alpha": u64 name length, then the name
        5, 0, 0, 0, 0, 0, 0, 0, 'a', 'l', 'p', 'h', 'a',
        // u64 payload size
        8, 0, 0, 0, 0, 0, 0, 0,
        // u64 FNV-1a of the payload
        0xef, 0xda, 0x89, 0x37, 0x6b, 0xdd, 0x3a, 0xff,
        // payload: u64 42
        42, 0, 0, 0, 0, 0, 0, 0,
        // "beta": u64 name length, then the name
        4, 0, 0, 0, 0, 0, 0, 0, 'b', 'e', 't', 'a',
        // u64 payload size
        20, 0, 0, 0, 0, 0, 0, 0,
        // u64 FNV-1a of the payload
        0x11, 0xf7, 0xce, 0x61, 0x00, 0xe0, 0x64, 0xcf,
        // payload: u64 string length 12
        12, 0, 0, 0, 0, 0, 0, 0,
        // payload: the string's bytes
        'b', 'e', 't', 'a', ' ', 'p', 'a', 'y', 'l', 'o', 'a', 'd'};
    EXPECT_EQ(tinyCheckpoint().encode(), tiny);

    // A version-3 image is refused, not migrated.
    std::vector<std::uint8_t> v3 = tiny;
    v3[8] = 3;
    {
        ScopedFatalCapture capture;
        try {
            ckpt::Checkpoint::decode(v3);
            ADD_FAILURE() << "decode accepted a version-3 image";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "format version 3 unsupported"),
                      std::string::npos)
                << e.what();
        }
    }

    // A whole warmed System: every component's saveState goes through
    // the same Serializer, so its bytes are pinned by their hash.
    auto cfg = quickConfig(OrgKind::Tagless, {"mcf"}, 60'000, 100'000);
    cfg.l3SizeBytes = 64ULL << 20;
    System sys(cfg);
    sys.warmup();
    const auto bytes = sys.makeCheckpoint().encode();
    EXPECT_EQ(ckpt::fnv1a(bytes.data(), bytes.size()), 0x3e495fa693ceef2dULL);
}

TEST(CkptContainer, FileRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "tdc_ckpt_container.ckpt";
    tinyCheckpoint().writeFile(path);

    // The file holds exactly the encode() image.
    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> raw(std::istreambuf_iterator<char>(in), {});
    EXPECT_EQ(raw, tinyCheckpoint().encode());

    const auto ck = ckpt::Checkpoint::loadFile(path);
    EXPECT_EQ(ck.fingerprint(), 0x1122334455667788ULL);
    EXPECT_EQ(ck.sections().size(), 2u);
    EXPECT_EQ(ck.encode(), tinyCheckpoint().encode());
}

TEST(CkptContainer, MissingFileIsFatal)
{
    ScopedFatalCapture capture;
    EXPECT_THROW(
        ckpt::Checkpoint::loadFile("/nonexistent/path/to.ckpt"),
        FatalError);
}

TEST(CkptContainer, DirectoryIsFatal)
{
    // On ext4, fseek/ftell on a directory report success and a length
    // near LLONG_MAX; sizing a buffer from that must not happen.
    ScopedFatalCapture capture;
    const std::string dir = ::testing::TempDir();
    try {
        ckpt::Checkpoint::loadFile(dir);
        FAIL() << "loadFile accepted a directory";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Config fingerprint
// ---------------------------------------------------------------------

TEST(CkptFingerprint, SensitiveToWarmRelevantConfig)
{
    const auto base = quickConfig(OrgKind::Tagless, {"mcf"});
    const std::uint64_t fp = warmFingerprint(base);

    auto org = base;
    org.org = OrgKind::SramTag;
    EXPECT_NE(warmFingerprint(org), fp);

    auto workload = base;
    workload.workloads = {"libquantum"};
    EXPECT_NE(warmFingerprint(workload), fp);

    auto warmup = base;
    warmup.warmupInsts += 1;
    EXPECT_NE(warmFingerprint(warmup), fp);

    auto policy = base;
    policy.raw.set("l3.policy", std::string("lru"));
    EXPECT_NE(warmFingerprint(policy), fp);
}

TEST(CkptFingerprint, IgnoresMeasureOnlyConfig)
{
    const auto base = quickConfig(OrgKind::Tagless, {"mcf"});
    const std::uint64_t fp = warmFingerprint(base);

    // The measure budget does not affect warm state: jobs differing
    // only in instsPerCore share one warm group.
    auto budget = base;
    budget.instsPerCore *= 4;
    EXPECT_EQ(warmFingerprint(budget), fp);

    // Observability adds no timed state, so obs.* keys are excluded.
    auto traced = base;
    traced.raw.set("obs.trace_out", std::string("/tmp/x.trace.json"));
    EXPECT_EQ(warmFingerprint(traced), fp);
}

// ---------------------------------------------------------------------
// Full-system round-trips (the ckpt_roundtrip ctest gate)
// ---------------------------------------------------------------------

namespace {

void
expectRoundTripIdentical(const SystemConfig &cfg)
{
    const std::string straight = straightReport(cfg);
    const std::string restored = restoredReport(cfg);
    EXPECT_EQ(straight, restored);
}

} // namespace

TEST(CkptRoundTrip, EveryOrgMcf)
{
    for (OrgKind org : allOrgKinds()) {
        SCOPED_TRACE(std::string(cliName(org)));
        expectRoundTripIdentical(quickConfig(org, {"mcf"}));
    }
}

TEST(CkptRoundTrip, EveryOrgLibquantum)
{
    for (OrgKind org : allOrgKinds()) {
        SCOPED_TRACE(std::string(cliName(org)));
        expectRoundTripIdentical(quickConfig(org, {"libquantum"}));
    }
}

TEST(CkptRoundTrip, TaglessLruPolicyAndFilter)
{
    // LRU exercises the rebuilt victim heap; the fill filter carries
    // an unordered map that must serialize in canonical order.
    auto cfg = quickConfig(OrgKind::Tagless, {"mcf"});
    cfg.raw.set("l3.policy", std::string("lru"));
    cfg.raw.set("l3.filter", true);
    expectRoundTripIdentical(cfg);
}

TEST(CkptRoundTrip, MultiProgrammedMix)
{
    expectRoundTripIdentical(quickConfig(
        OrgKind::Tagless, {"milc", "leslie3d", "omnetpp", "sphinx3"},
        50'000, 25'000));
}

TEST(CkptRoundTrip, MultithreadedSharedPageTable)
{
    expectRoundTripIdentical(
        quickConfig(OrgKind::Tagless, {"streamcluster"}, 50'000,
                    25'000));
}

TEST(CkptRoundTrip, SaveAfterRestoreIsByteIdentical)
{
    // Restoring a checkpoint and immediately re-saving must reproduce
    // the original byte stream: no state is lost or reordered.
    for (OrgKind org : allOrgKinds()) {
        SCOPED_TRACE(std::string(cliName(org)));
        const auto cfg = quickConfig(org, {"mcf"});
        const ckpt::Checkpoint ck = warmedCheckpoint(cfg);
        System sys(cfg);
        sys.restoreCheckpoint(ck);
        EXPECT_EQ(sys.makeCheckpoint().encode(), ck.encode());
    }
    const auto ck = warmedCheckpoint(quickConfig(OrgKind::Tagless, {"mcf"}));

    // The section layout is part of the format: changing it means
    // bumping checkpointFormatVersion.
    std::string names;
    for (const ckpt::Section &sec : ck.sections())
        names += sec.name + " ";
    EXPECT_EQ(names, "meta phys page_tables org dram_in_pkg dram_off_pkg "
                     "mem_systems cores traces ");
    const json::Value info = ckpt::infoJson(ck, "");
    const json::Value *meta = info.find("meta");
    ASSERT_NE(meta, nullptr);
    EXPECT_NE(meta->find("core_insts"), nullptr);
    EXPECT_EQ(meta->find("tick"), nullptr);
}

TEST(CkptRoundTripDeath, RestoreAfterWarmupAborts)
{
    // Restoring over warm state the system built itself would mix two
    // histories; only a freshly built System may be restored into.
    const auto cfg = quickConfig(OrgKind::Tagless, {"mcf"});
    ckpt::Checkpoint ck;
    {
        System warm(cfg);
        warm.warmup();
        ck = warm.makeCheckpoint();
    }
    EXPECT_DEATH(
        {
            System sys(cfg);
            sys.warmup();
            sys.restoreCheckpoint(ck);
        },
        "restoring into a system that already ran");
}

TEST(CkptRoundTrip, FingerprintMismatchIsFatal)
{
    ScopedFatalCapture capture;
    ckpt::Checkpoint ck;
    {
        System warm(quickConfig(OrgKind::Tagless, {"mcf"}));
        warm.warmup();
        ck = warm.makeCheckpoint();
    }
    // Same org and workload, different warmup budget: warm state
    // would be silently wrong, so the restore must refuse.
    System sys(
        quickConfig(OrgKind::Tagless, {"mcf"}, 60'000, 40'000));
    try {
        sys.restoreCheckpoint(ck);
        FAIL() << "restore accepted a mismatched fingerprint";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Sparse organization sections (format version 3 on)
// ---------------------------------------------------------------------

TEST(CkptSparse, OrgSectionDoesNotGrowWithCapacity)
{
    // A section lists what the warmup filled, so the same warmup makes
    // the same section whatever the cache's size.
    for (OrgKind org : allOrgKinds()) {
        SCOPED_TRACE(std::string(cliName(org)));
        auto small = quickConfig(org, {"libquantum"}, 1000, 100'000);
        small.l3SizeBytes = 256ULL << 20;
        auto big = small;
        big.l3SizeBytes = 1ULL << 30;
        const std::size_t small_bytes =
            warmedCheckpoint(small).require("org").payload.size();
        const std::size_t big_bytes =
            warmedCheckpoint(big).require("org").payload.size();
        EXPECT_LE(big_bytes, small_bytes);
    }
}

TEST(CkptSparse, RestoreNamesAnEntryOutOfRangeRepeatedOrOutOfOrder)
{
    // Each org section opens with the shared stats (the whole section
    // of a stateless org), then the u64 table size and the entry count
    // of its first sparse list. Each entry is a u64 index followed by
    // a record of `record` bytes.
    struct Case
    {
        OrgKind org;
        std::string what;
        std::size_t record;
    };
    const Case cases[] = {
        {OrgKind::Tagless, "tagless frame", 8 + 16 + 4 + 1 + 8 + 8 + 2},
        {OrgKind::SramTag, "SRAM-tag way", 8 + 1 + 8},
        {OrgKind::Banshee, "Banshee way", 8 + 1 + 4},
        {OrgKind::Unison, "Unison way", 6 * 8},
        {OrgKind::Alloy, "Alloy slot", 8 + 1},
    };
    const std::size_t shared = warmedCheckpoint(quickConfig(
        OrgKind::NoL3, {"mcf"})).require("org").payload.size();

    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        const auto cfg = quickConfig(c.org, {"mcf"});
        const ckpt::Checkpoint ck = warmedCheckpoint(cfg);
        const std::vector<std::uint8_t> &good = ck.require("org").payload;
        const std::uint64_t limit = u64At(good, shared);
        ASSERT_GE(u64At(good, shared + 8), 2u) << "two listed entries";
        const std::size_t at0 = shared + 16;
        const std::size_t at1 = at0 + 8 + c.record;
        const std::uint64_t i0 = u64At(good, at0);
        const std::uint64_t i1 = u64At(good, at1);
        ASSERT_LT(i0, i1);
        ASSERT_LT(i1, limit);
        {
            System sys(cfg);
            sys.restoreCheckpoint(withSection(ck, "org", good));
        }

        auto expectFatal = [&](const std::vector<std::uint8_t> &org,
                               const std::string &msg) {
            ScopedFatalCapture capture;
            System sys(cfg);
            try {
                sys.restoreCheckpoint(withSection(ck, "org", org));
                ADD_FAILURE() << "restore accepted: " << msg;
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(msg),
                          std::string::npos)
                    << e.what();
            }
        };
        auto bad = good;
        putU64At(bad, at0, limit);
        expectFatal(bad, format("{} {} out of range", c.what, limit));
        bad = good;
        putU64At(bad, at1, i0);
        expectFatal(bad, format("{} {} listed twice", c.what, i0));
        // Whole entries swapped: the first is valid on its own.
        bad = good;
        std::swap_ranges(bad.begin() + at0, bad.begin() + at1,
                         bad.begin() + at1);
        expectFatal(bad, format("{} {} listed after {} {}", c.what, i0,
                                c.what, i1));
    }
}

TEST(CkptSparse, RestoreRejectsARecordTheCacheCouldNeverHold)
{
    // A way holds a page of its own set, and no page twice in one set;
    // an Alloy slot holds a line that maps to it; Unison's predictor
    // table has the cache's size. Each way or slot case rebuilds
    // the first sparse list of a real section from two entries, an
    // index and a record whose first u64 is the page or line and whose
    // other bytes are zero. The control pair restores.
    struct Case
    {
        OrgKind org;
        std::string what;
        std::size_t record;
        unsigned assoc; //!< 0 for Alloy
    };
    const Case cases[] = {
        {OrgKind::SramTag, "SRAM-tag way", 8 + 1 + 8, 16},
        {OrgKind::Banshee, "Banshee way", 8 + 1 + 4, 4},
        {OrgKind::Unison, "Unison way", 6 * 8, 4},
        {OrgKind::Alloy, "Alloy slot", 8 + 1, 0},
    };
    const std::size_t shared = warmedCheckpoint(quickConfig(
        OrgKind::NoL3, {"mcf"})).require("org").payload.size();

    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        const auto cfg = quickConfig(c.org, {"mcf"});
        const ckpt::Checkpoint ck = warmedCheckpoint(cfg);
        const std::vector<std::uint8_t> &good = ck.require("org").payload;
        const std::size_t list_end =
            shared + 16 + u64At(good, shared + 8) * (8 + c.record);
        using Entry = std::pair<std::uint64_t, std::uint64_t>;
        auto section = [&](Entry a, Entry b) {
            ckpt::Serializer s;
            s.putBytes(good.data(), shared + 8);
            s.putU64(2);
            for (const auto &[index, key] : {a, b}) {
                s.putU64(index);
                s.putU64(key);
                for (std::size_t k = 8; k < c.record; ++k)
                    s.putU8(0);
            }
            s.putBytes(good.data() + list_end, good.size() - list_end);
            return s.bytes();
        };
        auto restore = [&](Entry a, Entry b) {
            System sys(cfg);
            sys.restoreCheckpoint(withSection(ck, "org", section(a, b)));
        };
        auto expectFatal = [&](Entry a, Entry b, const std::string &msg) {
            ScopedFatalCapture capture;
            try {
                restore(a, b);
                ADD_FAILURE() << "restore accepted: " << msg;
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(msg),
                          std::string::npos)
                    << e.what();
            }
        };

        if (c.assoc == 0) {
            // Slots 5 and 6; line 7 maps to slot 7.
            const std::uint64_t slots = (1ULL << 30) / 72;
            restore({5, 5}, {6, 6 + 2 * slots});
            expectFatal({5, 5}, {6, 7}, "Alloy slot 6 holds line 7");
            const std::uint64_t far = 6 + (1ULL << 20) * slots;
            expectFatal({5, 5}, {6, far},
                        format("Alloy slot 6 holds line {}", far));
        } else {
            // Ways 0, 1 and 2 of set 3.
            const std::uint64_t sets = (1ULL << 30) / pageBytes / c.assoc;
            const std::uint64_t w0 = 3 * c.assoc;
            restore({w0, 3}, {w0 + 1, 3 + sets});
            expectFatal({w0, 3}, {w0 + 1, 4},
                        format("{} {} holds page 4", c.what, w0 + 1));
            expectFatal({w0, 3}, {w0 + 2, 3},
                        format("{} {} holds page 3", c.what, w0 + 2));
        }
        if (c.org == OrgKind::Unison) {
            // The predictor table's size follows the way list.
            const std::uint64_t n = u64At(good, list_end);
            std::vector<std::uint8_t> bad = good;
            putU64At(bad, list_end, n - 1);
            ScopedFatalCapture capture;
            System sys(cfg);
            try {
                sys.restoreCheckpoint(withSection(ck, "org", bad));
                ADD_FAILURE() << "restore accepted a short predictor";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(format(
                              "Unison predictor size {} does not match "
                              "the cache's {}",
                              n - 1, n)),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(CkptSparse, TaggedOrgSectionBytesArePinned)
{
    // The tagged organizations' records, their list order and encoding
    // stay the same whatever layout the caches keep them in. An 8 MiB
    // L3 under mcf fills several ways per set and evicts dirty pages
    // and lines.
    const std::pair<OrgKind, const char *> cases[] = {
        {OrgKind::SramTag, "f5d8578044d8ba5c"},
        {OrgKind::Banshee, "8b7c181a4be9dc23"},
        {OrgKind::Unison, "d50036cbdff26bbc"},
        {OrgKind::Alloy, "9e7250e5313a8924"},
    };
    for (const auto &[org, want] : cases) {
        SCOPED_TRACE(std::string(cliName(org)));
        auto cfg = quickConfig(org, {"mcf"}, 1000, 200'000);
        cfg.l3SizeBytes = 8ULL << 20;
        const ckpt::Checkpoint ck = warmedCheckpoint(cfg);
        const std::vector<std::uint8_t> &org_bytes =
            ck.require("org").payload;
        EXPECT_EQ(ckpt::hex16(ckpt::fnv1a(org_bytes.data(),
                                          org_bytes.size())),
                  want);
    }
}

TEST(CkptSparse, DirtyEvictionsFollowPageWritebacksAcrossRestore)
{
    // Every dirty eviction of these orgs is one page write-back, so the
    // checkpoint stores the count once and a restore sets both.
    for (OrgKind org : {OrgKind::SramTag, OrgKind::Banshee,
                        OrgKind::Unison}) {
        SCOPED_TRACE(std::string(cliName(org)));
        auto cfg = quickConfig(org, {"milc"}, 1000, 100'000);
        cfg.l3SizeBytes = 1ULL << 20;
        ckpt::Checkpoint ck;
        std::uint64_t writebacks = 0;
        {
            System warm(cfg);
            warm.warmup();
            writebacks = warm.org().pageWritebacks();
            ck = warm.makeCheckpoint();
        }
        ASSERT_GT(writebacks, 0u) << "the warmup must evict dirty pages";
        System sys(cfg);
        sys.restoreCheckpoint(ck);
        const json::Value stats = sys.statsJson();
        const json::Value *l3 = nullptr;
        for (const auto &[name, v] : stats.members())
            if (name.starts_with("l3_"))
                l3 = &v;
        ASSERT_NE(l3, nullptr);
        EXPECT_EQ(l3->find("page_writebacks")->asUint(), writebacks);
        EXPECT_EQ(l3->find("dirty_evictions")->asUint(), writebacks);
    }
}

// ---------------------------------------------------------------------
// Restore-time count checks
// ---------------------------------------------------------------------

namespace {

/** Expects `fn` to fail with a fatal() whose message holds `what`. */
template <typename Fn>
void
expectFatal(Fn fn, const std::string &what)
{
    ScopedFatalCapture capture;
    try {
        fn();
        ADD_FAILURE() << "accepted: " << what;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

/** Restores what `from` saved into `into`, expecting a fatal(). */
template <typename From, typename Into>
void
expectRestoreFatal(const From &from, Into &into, const std::string &what)
{
    ckpt::Serializer s;
    from.saveState(s);
    expectFatal(
        [&] {
            ckpt::Deserializer d(s.bytes());
            into.loadState(d);
        },
        what);
}

} // namespace

TEST(CkptRestoreCounts, ComponentsRefuseAnotherGeometry)
{
    // A checkpoint restored into a component of another size fails
    // cleanly, so one bad file cannot take a whole service down.
    SramCacheParams sp;
    sp.sizeBytes = 1024;
    sp.associativity = 2;
    const SramCache small("l1", sp);
    sp.sizeBytes = 2048;
    SramCache big("l1", sp);
    expectRestoreFatal(small, big, "16 lines for l1, which has 32");

    const PhysMem phys_a("phys", 100, 0);
    PhysMem phys_b("phys", 200, 0);
    expectRestoreFatal(phys_a, phys_b,
                       "physical memory has 100 off- and 0 in-package "
                       "pages, this system 200 and 0");

    Tlb tlb_a("dtlb", 8);
    for (PageNum vpn = 0; vpn < 8; ++vpn)
        tlb_a.insert(TlbEntry{makeAsidVpn(0, vpn), vpn});
    Tlb tlb_b("dtlb", 4);
    expectRestoreFatal(tlb_a, tlb_b,
                       "8 entries for dtlb, over its capacity 4");

    const DramDevice in_pkg("in_pkg", inPackageTiming(64ULL << 20),
                            inPackageEnergy());
    DramTimingParams two = inPackageTiming(64ULL << 20);
    two.channels = 2;
    DramDevice two_ch("in_pkg", two, inPackageEnergy());
    expectRestoreFatal(in_pkg, two_ch,
                       "1 channels for DRAM device in_pkg, which has 2");
    DramDevice off_pkg("off_pkg", offPackageTiming(1ULL << 30),
                       offPackageEnergy());
    expectRestoreFatal(in_pkg, off_pkg,
                       "32 banks a channel for DRAM device off_pkg, which "
                       "has 128");

    test::Machine m;
    TaglessCacheParams tp;
    tp.cacheBytes = 16 * pageBytes;
    const TaglessCache ctlb16("ctlb", m.inPkg, m.offPkg, m.phys,
                              m.cpuClk, tp);
    tp.cacheBytes = 32 * pageBytes;
    TaglessCache ctlb32("ctlb", m.inPkg, m.offPkg, m.phys, m.cpuClk, tp);
    ctlb32.setPteResolver(
        [](ProcId, PageType, PageNum) -> Pte * { return nullptr; });
    expectRestoreFatal(ctlb16, ctlb32,
                       "16 frames for ctlb, which has 32");
}

TEST(CkptRestoreCounts, SystemRefusesABadSectionCount)
{
    const auto cfg = quickConfig(OrgKind::Tagless, {"mcf"}, 1000, 20'000);
    const ckpt::Checkpoint ck = warmedCheckpoint(cfg);
    auto restore = [&](std::string_view name,
                       const std::vector<std::uint8_t> &payload) {
        return [&, name] {
            System sys(cfg);
            sys.restoreCheckpoint(withSection(ck, name, payload));
        };
    };
    // Every list section opens with its u64 entry count.
    for (const auto &[name, what] :
         {std::pair{"page_tables", "page tables"},
          std::pair{"mem_systems", "memory systems"},
          std::pair{"cores", "cores"}, std::pair{"traces", "traces"}}) {
        SCOPED_TRACE(name);
        auto bad = ck.require(name).payload;
        ASSERT_EQ(u64At(bad, 0), 1u);
        putU64At(bad, 0, 2);
        expectFatal(restore(name, bad),
                    format("checkpoint has 2 {}, system has 1", what));
    }

    // The core's outstanding misses follow its time cursor and carry.
    auto cores = ck.require("cores").payload;
    putU64At(cores, 8 + 16, 1000);
    expectFatal(restore("cores", cores),
                "1000 outstanding misses for core0, over its capacity");

    auto phys = ck.require("phys").payload;
    phys.push_back(0);
    expectFatal(restore("phys", phys),
                "section 'phys' has 1 trailing bytes");
}

// ---------------------------------------------------------------------
// Sweep-level warm sharing
// ---------------------------------------------------------------------

namespace {

runner::SweepManifest
smallSweep()
{
    return runner::SweepManifest::crossProduct(
        "ckpt-warm-share",
        {OrgKind::Tagless, OrgKind::SramTag},
        {"mcf", "libquantum"}, {1ULL << 30}, 60'000, 30'000, Config());
}

std::string
sweepReport(const runner::SweepManifest &m, bool share, unsigned jobs)
{
    runner::SweepOptions opt;
    opt.jobs = jobs;
    opt.progress = false;
    opt.shareWarmups = share;
    const auto results = runner::SweepRunner(opt).run(m);
    for (const auto &r : results)
        EXPECT_TRUE(r.ok()) << r.label << ": " << r.error;
    return runner::SweepRunner::aggregateReport(m, results, false)
        .dump();
}

} // namespace

TEST(CkptWarmShare, ByteIdenticalAtAnyWorkerCountAndVsUnshared)
{
    const auto m = smallSweep();
    const std::string unshared = sweepReport(m, false, 4);
    EXPECT_EQ(sweepReport(m, true, 1), unshared);
    EXPECT_EQ(sweepReport(m, true, 8), unshared);
}

TEST(CkptWarmShare, MeasureBudgetAxisSharesWarmGroups)
{
    // Jobs differing only in measure budget have equal fingerprints,
    // so a budget axis warms once per (org, workload) point.
    runner::SweepManifest m;
    m.name = "budget-axis";
    for (std::uint64_t insts : {40'000, 80'000}) {
        runner::JobSpec job;
        job.label = format("ctlb/mcf@{}", insts);
        job.org = OrgKind::Tagless;
        job.workloads = {"mcf"};
        job.instsPerCore = insts;
        job.warmupInsts = 30'000;
        m.jobs.push_back(std::move(job));
    }
    EXPECT_EQ(warmFingerprint(m.jobs[0].toSystemConfig()),
              warmFingerprint(m.jobs[1].toSystemConfig()));
    EXPECT_EQ(sweepReport(m, true, 2), sweepReport(m, false, 2));
}

// ---------------------------------------------------------------------
// Environment-override precedence (regression)
// ---------------------------------------------------------------------

TEST(EnvPrecedence, ManifestBudgetsBeatEnvironment)
{
    // TDC_INSTS/TDC_WARMUP are a convenience for tdc_sim and the bench
    // defaults only. A sweep manifest pins its budgets; the runner
    // must never let the environment override a job's spec.
    ASSERT_EQ(setenv("TDC_INSTS", "1000", 1), 0);
    ASSERT_EQ(setenv("TDC_WARMUP", "500", 1), 0);

    runner::JobSpec job;
    job.label = "ctlb/mcf";
    job.org = OrgKind::Tagless;
    job.workloads = {"mcf"};
    job.instsPerCore = 60'000;
    job.warmupInsts = 30'000;

    const SystemConfig cfg = job.toSystemConfig();
    EXPECT_EQ(cfg.instsPerCore, 60'000u);
    EXPECT_EQ(cfg.warmupInsts, 30'000u);

    // The environment is live (applyEnvironment picks it up), so the
    // check above demonstrates precedence rather than an unset env.
    SystemConfig envCfg;
    envCfg.applyEnvironment();
    EXPECT_EQ(envCfg.instsPerCore, 1000u);
    EXPECT_EQ(envCfg.warmupInsts, 500u);

    // End to end: the sweep result reflects the manifest budget.
    runner::SweepManifest m;
    m.name = "env-precedence";
    m.jobs.push_back(job);
    runner::SweepOptions opt;
    opt.jobs = 1;
    opt.progress = false;
    const auto results = runner::SweepRunner(opt).run(m);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok()) << results[0].error;
    // Quantum granularity can undershoot the budget by a few
    // instructions; the env's 1000-inst budget is far below this.
    EXPECT_GE(results[0].result.totalInsts, 59'000u);

    unsetenv("TDC_INSTS");
    unsetenv("TDC_WARMUP");
}
