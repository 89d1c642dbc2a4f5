/**
 * @file
 * tdc-mtrace-v1 trace container and record/replay subsystem tests.
 *
 * Coverage: writer/reader round-trips (varint and delta edges, block
 * boundaries, seek-vs-linear agreement, wrap), the adversarial decode
 * corpus (truncation, bad magic, checksum flips, reserved flag bits,
 * index corruption -- all must fail as catchable fatal()s, never UB),
 * the ChampSim converter, the trace: workload registry, and the headline
 * determinism property: a recorded run replays to the identical
 * measured result for every L3 organization, survives a mid-replay
 * checkpoint save/restore, and sweeps over traces are byte-identical
 * at any worker count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "dramcache/org_factory.hh"
#include "runner/sweep.hh"
#include "runner/sweep_runner.hh"
#include "sys/report.hh"
#include "sys/system.hh"
#include "test_util.hh"
#include "trace/mtrace.hh"
#include "trace/record.hh"
#include "trace/replay.hh"
#include "trace/workloads.hh"

using namespace tdc;
namespace fs = std::filesystem;

namespace {

std::string
tmpFile(const std::string &leaf)
{
    return (fs::path(::testing::TempDir()) / ("tdc_mtrace_" + leaf))
        .string();
}

TraceRecord
rec(AccessType t, Addr a, std::uint32_t nmi = 0, bool dep = false)
{
    TraceRecord r;
    r.type = t;
    r.vaddr = a;
    r.nonMemInsts = nmi;
    r.dependent = dep;
    return r;
}

bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.type == b.type && a.vaddr == b.vaddr
           && a.nonMemInsts == b.nonMemInsts
           && a.dependent == b.dependent;
}

std::vector<unsigned char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<unsigned char> &b)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
}

std::uint64_t
getLe64(const std::vector<unsigned char> &b, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | b[at + static_cast<std::size_t>(i)];
    return v;
}

void
putLe64(std::vector<unsigned char> &b, std::size_t at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b[at + static_cast<std::size_t>(i)] =
            static_cast<unsigned char>(v >> (8 * i));
}

/** Where one section sits in a container image. */
struct SectionAt
{
    std::size_t sizeAt = 0;    //!< its u64 payload size; the sum follows
    std::size_t payloadAt = 0;
    std::uint64_t size = 0;
};

SectionAt
findSection(const std::vector<unsigned char> &file, const std::string &name)
{
    std::size_t off = 8 + 4;                // magic + version
    const std::uint32_t nsec = file[off] | (file[off + 1] << 8)
                               | (file[off + 2] << 16)
                               | (std::uint32_t{file[off + 3]} << 24);
    off += 4;
    for (std::uint32_t s = 0; s < nsec; ++s) {
        const std::uint64_t nlen = getLe64(file, off);
        const std::string sname(
            reinterpret_cast<const char *>(file.data() + off + 8),
            nlen);
        off += 8 + nlen;
        const SectionAt at{off, off + 16, getLe64(file, off)};
        if (sname == name)
            return at;
        off = at.payloadAt + at.size;
    }
    ADD_FAILURE() << "section '" << name << "' not found";
    return {};
}

/**
 * Rewrites the named section's payload with `edit` and re-fixes its
 * size and checksum, so the corruption reaches the record decoder
 * instead of tripping the checksum gate.
 */
template <typename Edit>
std::vector<unsigned char>
editSection(const std::vector<unsigned char> &file,
            const std::string &name, Edit edit)
{
    const SectionAt at = findSection(file, name);
    const auto begin = file.begin()
                       + static_cast<std::ptrdiff_t>(at.payloadAt);
    const auto end = begin + static_cast<std::ptrdiff_t>(at.size);
    std::vector<unsigned char> payload(begin, end);
    edit(payload);
    std::vector<unsigned char> out(file.begin(), begin);
    out.insert(out.end(), payload.begin(), payload.end());
    out.insert(out.end(), end, file.end());
    putLe64(out, at.sizeAt, payload.size());
    putLe64(out, at.sizeAt + 8,
            ckpt::fnv1a(payload.data(), payload.size()));
    return out;
}

/** editSection() of one payload byte. */
std::vector<unsigned char>
patchSection(const std::vector<unsigned char> &file,
             const std::string &name, std::size_t payload_off,
             unsigned char (*mutate)(unsigned char))
{
    return editSection(file, name, [&](std::vector<unsigned char> &p) {
        EXPECT_LT(payload_off, p.size()) << "patch offset past payload";
        if (payload_off < p.size())
            p[payload_off] = mutate(p[payload_off]);
    });
}

/** A small deterministic two-core trace with hairy deltas. */
std::vector<std::vector<TraceRecord>>
hairyStreams()
{
    std::vector<std::vector<TraceRecord>> s(2);
    // Core 0: zero address, max address, sign flips, max nonMemInsts.
    s[0].push_back(rec(AccessType::Load, 0, 0));
    s[0].push_back(rec(AccessType::Store, ~std::uint64_t{0},
                       ~std::uint32_t{0}));
    s[0].push_back(rec(AccessType::InstFetch, 0x1000, 1, true));
    s[0].push_back(rec(AccessType::Load, 0xfff, 2));
    s[0].push_back(rec(AccessType::Load, 0x7fffffffffffffffULL, 3));
    // Core 1: a sequential walker with a dependent store thrown in.
    Addr a = 0x7000;
    for (int i = 0; i < 10; ++i) {
        s[1].push_back(rec(i % 3 == 0 ? AccessType::Store
                                      : AccessType::Load,
                           a, static_cast<std::uint32_t>(i),
                           i % 4 == 0));
        a += 64;
    }
    return s;
}

std::string
writeHairy(const std::string &leaf, std::uint64_t block_records)
{
    const std::string path = tmpFile(leaf);
    const auto streams = hairyStreams();
    mtrace::MtraceWriter w(path, 2, false, "test:hairy", block_records);
    for (unsigned c = 0; c < 2; ++c)
        for (const TraceRecord &r : streams[c])
            w.append(c, r);
    w.close();
    return path;
}

/**
 * Appends `n` records to each of cores [0, cores): pseudo-random
 * addresses and gaps, so most records encode into about 10 bytes.
 */
void
appendWide(mtrace::MtraceWriter &w, unsigned cores, std::uint64_t n)
{
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < n; ++i) {
        for (unsigned c = 0; c < cores; ++c) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            w.append(c, rec(static_cast<AccessType>((x >> 62) % 3),
                            x >> 16, static_cast<std::uint32_t>(x >> 50),
                            (x & 1) != 0));
        }
    }
}

/** A four-core trace of at least 32 MiB. */
std::string
writeBig(const std::string &leaf)
{
    const std::string path = tmpFile(leaf);
    mtrace::MtraceWriter w(path, 4, false, "test:big");
    appendWide(w, 4, 1'000'000);
    w.close();
    return path;
}

} // namespace

// ---------------------------------------------------------------------
// Container round-trips
// ---------------------------------------------------------------------

TEST(Mtrace, RoundTripsRecordsAndMeta)
{
    const std::string path = writeHairy("roundtrip.mtrace", 4);
    const auto streams = hairyStreams();

    mtrace::MtraceReader r(path);
    EXPECT_EQ(r.coreCount(), 2u);
    EXPECT_FALSE(r.sharedPageTable());
    EXPECT_EQ(r.meta().blockRecords, 4u);
    EXPECT_EQ(r.meta().source, "test:hairy");
    EXPECT_EQ(r.records(0), streams[0].size());
    EXPECT_EQ(r.records(1), streams[1].size());
    EXPECT_EQ(r.totalRecords(), streams[0].size() + streams[1].size());
    r.verifyAll();

    // Sections, in order: meta, core0, core1, index.
    ASSERT_EQ(r.sections().size(), 4u);
    EXPECT_EQ(r.sections()[0].name, "meta");
    EXPECT_EQ(r.sections()[1].name, "core0");
    EXPECT_EQ(r.sections()[2].name, "core1");
    EXPECT_EQ(r.sections()[3].name, "index");

    for (unsigned c = 0; c < 2; ++c) {
        mtrace::MtraceCursor cur(r, c);
        for (const TraceRecord &want : streams[c]) {
            const TraceRecord got = cur.next();
            EXPECT_TRUE(sameRecord(got, want))
                << "core " << c << " at " << cur.position();
        }
    }
}

TEST(Mtrace, CursorWrapsAndPositionIsMonotonic)
{
    const std::string path = writeHairy("wrap.mtrace", 4);
    const auto streams = hairyStreams();

    mtrace::MtraceReader r(path);
    mtrace::MtraceCursor cur(r, 1);
    const std::uint64_t n = streams[1].size();
    for (std::uint64_t i = 0; i < 3 * n; ++i) {
        EXPECT_EQ(cur.position(), i);
        const TraceRecord got = cur.next();
        EXPECT_TRUE(sameRecord(got, streams[1][i % n])) << "at " << i;
    }
}

TEST(Mtrace, SeekAgreesWithLinearDecodeEverywhere)
{
    // Block size 4 with 10 records: misaligned tail, multiple blocks.
    const std::string path = writeHairy("seek.mtrace", 4);
    const auto streams = hairyStreams();
    mtrace::MtraceReader r(path);

    const std::uint64_t n = streams[1].size();
    for (std::uint64_t pos = 0; pos < 3 * n; ++pos) {
        mtrace::MtraceCursor linear(r, 1);
        for (std::uint64_t i = 0; i < pos; ++i)
            linear.next();
        mtrace::MtraceCursor seeked(r, 1);
        seeked.seek(pos);
        EXPECT_EQ(seeked.position(), pos);
        EXPECT_TRUE(sameRecord(linear.next(), seeked.next()))
            << "position " << pos;
    }
}

TEST(Mtrace, ExactBlockMultipleStreamRoundTrips)
{
    const std::string path = tmpFile("exact_block.mtrace");
    mtrace::MtraceWriter w(path, 1, false, "test:exact", 4);
    for (int i = 0; i < 8; ++i) // exactly two full blocks
        w.append(0, rec(AccessType::Load, 0x4000 + 64u * i));
    w.close();
    mtrace::MtraceReader r(path);
    r.verifyAll();
    EXPECT_EQ(r.records(0), 8u);
    mtrace::MtraceCursor cur(r, 0);
    cur.seek(7);
    EXPECT_EQ(cur.next().vaddr, 0x4000 + 64u * 7);
    EXPECT_EQ(cur.next().vaddr, 0x4000u); // wrapped
}

TEST(Mtrace, WriterRefusesEmptyStreamAndDoubleAppendAfterClose)
{
    const std::string path = tmpFile("empty_core.mtrace");
    ScopedFatalCapture capture;
    mtrace::MtraceWriter w(path, 2, false, "test:empty");
    w.append(0, rec(AccessType::Load, 0x1000));
    // Core 1 never got a record: replay sources never run dry, so the
    // writer must refuse to publish the file.
    EXPECT_THROW(w.close(), FatalError);
}

TEST(Mtrace, ContentHashTracksContent)
{
    const std::string a = writeHairy("hash_a.mtrace", 4);
    const std::string b = writeHairy("hash_b.mtrace", 4);
    EXPECT_EQ(mtrace::traceContentHash(a), mtrace::traceContentHash(b));
    const std::string c = writeHairy("hash_c.mtrace", 8);
    EXPECT_NE(mtrace::traceContentHash(a), mtrace::traceContentHash(c));
}

TEST(Mtrace, BlocksLargerThanTheWindowDecode)
{
    // One block of ~3 MB: cursors read it a window at a time, and the
    // checked decoder slides the window on at each window's tail.
    const std::string path = tmpFile("big_block.mtrace");
    {
        mtrace::MtraceWriter w(path, 1, false, "test:big_block",
                               1ULL << 40);
        appendWide(w, 1, 300'000);
        w.close();
    }
    mtrace::MtraceReader r(path);
    r.verifyAll();
    mtrace::MtraceCursor linear(r, 0);
    std::vector<TraceRecord> want;
    for (int i = 0; i < 300'000; ++i)
        want.push_back(linear.next());
    for (const std::uint64_t pos :
         {std::uint64_t{0}, std::uint64_t{123'457}, std::uint64_t{299'999},
          std::uint64_t{300'001}}) {
        mtrace::MtraceCursor seeked(r, 0);
        seeked.seek(pos);
        EXPECT_TRUE(sameRecord(seeked.next(), want[pos % want.size()]))
            << "position " << pos;
    }
    fs::remove(path);
}

TEST(Mtrace, V1BytesArePinned)
{
    // The container's bytes, pinned across writer rewrites: a stream
    // that spills several chunks, one with edge values in one block,
    // and one a block plus a record long with falling addresses.
    const std::string path = tmpFile("pinned.mtrace");
    const auto hairy = hairyStreams();
    {
        mtrace::MtraceWriter w(path, 3, true, "test:pinned", 1000);
        appendWide(w, 1, 30'000);
        for (const TraceRecord &r : hairy[0])
            w.append(1, r);
        for (std::uint32_t i = 0; i < 1001; ++i)
            w.append(2, rec(AccessType::Store, 0x10000 - 64u * i, i % 7,
                            i % 5 == 0));
        w.close();
    }
    EXPECT_EQ(fs::file_size(path), 302'847u);
    EXPECT_EQ(ckpt::hex16(mtrace::traceContentHash(path)),
              "0aa0d5a957f06fba");
}

TEST(Mtrace, WriterHoldsOneBlockPerCore)
{
    const std::string path = tmpFile("big_writer.mtrace");
    const long before = test::residentKib();
    {
        mtrace::MtraceWriter w(path, 4, false, "test:big");
        appendWide(w, 4, 1'000'000);
        EXPECT_LT(test::residentKib() - before, 2048)
            << "records go to the spill, not to memory";
        w.close();
        EXPECT_LT(test::residentKib() - before, 2048)
            << "close() copies through a fixed buffer";
    }
    EXPECT_GE(fs::file_size(path), 32u << 20);
    fs::remove(path);
}

TEST(Mtrace, ReaderKeepsNoWholeFileResident)
{
    const std::string path = writeBig("big_reader.mtrace");
    ASSERT_GE(fs::file_size(path), 32u << 20);
    const long before = test::residentKib();
    {
        mtrace::MtraceReader r(path);
        r.verifyAll();
        std::uint64_t records = 0;
        for (unsigned c = 0; c < r.coreCount(); ++c) {
            mtrace::MtraceCursor cur(r, c);
            for (std::uint64_t i = 0; i < r.records(c); ++i, ++records)
                (void)cur.next();
        }
        EXPECT_EQ(records, 4'000'000u);
        EXPECT_LT(test::residentKib() - before, 2048)
            << "open, verifyAll() and cursors read through fixed buffers";
    }
    fs::remove(path);
}

TEST(Mtrace, LeavesNoSpillOrTempFile)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "tdc_mtrace_spill_dir";
    fs::remove_all(dir);
    fs::create_directories(dir);
    using Names = std::set<std::string>;
    auto names = [&] {
        Names n;
        for (const auto &e : fs::directory_iterator(dir))
            n.insert(e.path().filename().string());
        return n;
    };

    {
        mtrace::MtraceWriter w((dir / "closed.mtrace").string(), 2, false,
                               "test:spill");
        appendWide(w, 2, 20'000); // several spilled chunks per core
        EXPECT_EQ(names(), Names{}) << "the spill is unlinked at once";
        w.close();
        EXPECT_EQ(names(), Names{"closed.mtrace"});
    }
    {
        ScopedFatalCapture capture;
        mtrace::MtraceWriter w((dir / "failed.mtrace").string(), 2, false,
                               "test:spill");
        w.append(0, rec(AccessType::Load, 0x1000));
        EXPECT_THROW(w.close(), FatalError);
        EXPECT_EQ(names(), Names{"closed.mtrace"});
    }
    EXPECT_EQ(names(), Names{"closed.mtrace"})
        << "the destructor's retry fails the same way";
    {
        mtrace::MtraceWriter w((dir / "dropped.mtrace").string(), 1, false,
                               "test:spill");
        appendWide(w, 1, 20'000);
    }
    EXPECT_EQ(names(), (Names{"closed.mtrace", "dropped.mtrace"}))
        << "destruction without close() publishes";
    mtrace::MtraceReader((dir / "dropped.mtrace").string()).verifyAll();
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Adversarial decoding: every defect is a catchable fatal(), never UB
// ---------------------------------------------------------------------

TEST(MtraceAdversarial, RejectsMissingEmptyAndTruncatedFiles)
{
    ScopedFatalCapture capture;
    EXPECT_THROW(mtrace::MtraceReader r(tmpFile("nonexistent.mtrace")),
                 FatalError);

    const std::string path = writeHairy("trunc.mtrace", 4);
    const auto orig = readAll(path);
    const std::string mut = tmpFile("trunc_cut.mtrace");
    // Every prefix must fail cleanly -- in particular the empty file,
    // a cut inside the header, inside a section header and inside a
    // payload.
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{7}, std::size_t{15},
          std::size_t{40}, orig.size() / 2, orig.size() - 1}) {
        writeAll(mut, std::vector<unsigned char>(
                          orig.begin(),
                          orig.begin()
                              + static_cast<std::ptrdiff_t>(cut)));
        EXPECT_THROW(mtrace::MtraceReader r(mut), FatalError)
            << "cut at " << cut;
    }
}

TEST(MtraceAdversarial, RejectsBadMagicVersionAndChecksum)
{
    const std::string path = writeHairy("hdr.mtrace", 4);
    const auto orig = readAll(path);
    const std::string mut = tmpFile("hdr_mut.mtrace");
    ScopedFatalCapture capture;

    auto flipped = orig;
    flipped[0] ^= 0xff; // magic
    writeAll(mut, flipped);
    EXPECT_THROW(mtrace::MtraceReader r(mut), FatalError);

    flipped = orig;
    flipped[8] = 99; // version
    writeAll(mut, flipped);
    EXPECT_THROW(mtrace::MtraceReader r(mut), FatalError);

    // A payload flip without a checksum fix must trip the gate.
    flipped = orig;
    flipped[orig.size() - 1] ^= 0x01;
    writeAll(mut, flipped);
    EXPECT_THROW(mtrace::MtraceReader r(mut), FatalError);

    // Trailing garbage after the last section is a defect too.
    flipped = orig;
    flipped.push_back(0xcc);
    writeAll(mut, flipped);
    EXPECT_THROW(mtrace::MtraceReader r(mut), FatalError);
}

TEST(MtraceAdversarial, RejectsReservedFlagBitsAndBadType)
{
    const std::string path = writeHairy("flags.mtrace", 4);
    const auto orig = readAll(path);
    const std::string mut = tmpFile("flags_mut.mtrace");
    ScopedFatalCapture capture;

    // First byte of core1's payload is the first record's flags byte.
    writeAll(mut, patchSection(orig, "core1", 0, [](unsigned char b) {
                 return static_cast<unsigned char>(b | 0x80);
             }));
    {
        mtrace::MtraceReader r(mut); // checksum is valid again
        EXPECT_THROW(r.verifyAll(), FatalError);
        mtrace::MtraceCursor cur(r, 1);
        EXPECT_THROW(cur.next(), FatalError);
    }

    // AccessType 3 is the unassigned encoding.
    writeAll(mut, patchSection(orig, "core1", 0, [](unsigned char b) {
                 return static_cast<unsigned char>(b | 0x03);
             }));
    {
        mtrace::MtraceReader r(mut);
        EXPECT_THROW(r.verifyAll(), FatalError);
    }
}

TEST(MtraceAdversarial, RejectsCorruptIndexAndMeta)
{
    const std::string path = writeHairy("index.mtrace", 4);
    const auto orig = readAll(path);
    const std::string mut = tmpFile("index_mut.mtrace");
    ScopedFatalCapture capture;

    // Flipping a low byte of the index payload corrupts a count or a
    // block offset; open() cross-validates against meta and streams.
    writeAll(mut, patchSection(orig, "index", 4, [](unsigned char b) {
                 return static_cast<unsigned char>(b ^ 0x01);
             }));
    EXPECT_THROW(mtrace::MtraceReader r(mut), FatalError);

    // Garbling the JSON brace makes the meta section unparseable.
    writeAll(mut, patchSection(orig, "meta", 8, [](unsigned char) {
                 return static_cast<unsigned char>('X');
             }));
    EXPECT_THROW(mtrace::MtraceReader r(mut), FatalError);
}

TEST(MtraceAdversarial, RejectsBytesAfterTheLastRecord)
{
    const std::string path = writeHairy("tail.mtrace", 4);
    const auto orig = readAll(path);
    const SectionAt core0 = findSection(orig, "core0");
    const std::string mut = tmpFile("tail_mut.mtrace");
    // Six zero bytes decode as two well-formed records, but the meta
    // and the index say the stream has ended.
    writeAll(mut, editSection(orig, "core0",
                              [](std::vector<unsigned char> &p) {
                                  p.insert(p.end(), 6, 0x00);
                              }));
    ScopedFatalCapture capture;
    try {
        mtrace::MtraceReader r(mut);
        ADD_FAILURE() << "opened a stream with bytes after its last record";
    } catch (const FatalError &e) {
        const std::string want =
            format("core 0: 6 bytes after the last record at offset {}",
                   core0.payloadAt + core0.size);
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
    }
    // Replay opens through the same check.
    EXPECT_THROW(mtrace::acquireReader(mut), FatalError);
}

// ---------------------------------------------------------------------
// Converters
// ---------------------------------------------------------------------

namespace {

/** Mirrors the ChampSim input_instr layout (64 bytes, no padding). */
struct ChampSimTestInstr
{
    std::uint64_t ip;
    unsigned char isBranch;
    unsigned char branchTaken;
    unsigned char destRegs[2];
    unsigned char srcRegs[4];
    std::uint64_t destMem[2];
    std::uint64_t srcMem[4];
};
static_assert(sizeof(ChampSimTestInstr) == 64);

} // namespace

TEST(MtraceConvert, ChampSimLoadsThenStoresWithNonMemAccumulation)
{
    const std::string in = tmpFile("champ.in");
    const std::string out = tmpFile("champ.mtrace");

    std::vector<ChampSimTestInstr> prog(4);
    std::memset(prog.data(), 0, prog.size() * sizeof(prog[0]));
    prog[0].ip = 0x1000; // no memory operands: accumulates
    prog[1].ip = 0x1004;
    prog[1].isBranch = 1;
    prog[1].srcMem[0] = 0xA000;
    prog[1].srcMem[2] = 0xA040; // non-contiguous slots both count
    prog[1].destMem[0] = 0xB000;
    prog[2].ip = 0x1008; // accumulates into the next record
    prog[3].ip = 0x100c;
    prog[3].destMem[1] = 0xC000;
    {
        std::ofstream f(in, std::ios::binary);
        f.write(reinterpret_cast<const char *>(prog.data()),
                static_cast<std::streamsize>(prog.size()
                                             * sizeof(prog[0])));
    }

    const mtrace::ConvertStats st = mtrace::convertChampSim(in, out);
    EXPECT_EQ(st.instructions, 4u);
    EXPECT_EQ(st.records, 4u);
    EXPECT_EQ(st.loads, 2u);
    EXPECT_EQ(st.stores, 2u);

    mtrace::MtraceReader r(out);
    r.verifyAll();
    ASSERT_EQ(r.coreCount(), 1u);
    ASSERT_EQ(r.records(0), 4u);
    mtrace::MtraceCursor cur(r, 0);
    // Branch loads are dependent (the value steers control flow).
    EXPECT_TRUE(sameRecord(cur.next(),
                           rec(AccessType::Load, 0xA000, 1, true)));
    EXPECT_TRUE(sameRecord(cur.next(),
                           rec(AccessType::Load, 0xA040, 0, true)));
    EXPECT_TRUE(sameRecord(cur.next(), rec(AccessType::Store, 0xB000)));
    EXPECT_TRUE(sameRecord(cur.next(),
                           rec(AccessType::Store, 0xC000, 1)));
}

TEST(MtraceConvert, ChampSimRejectsTornAndEmptyInput)
{
    ScopedFatalCapture capture;
    const std::string in = tmpFile("champ_torn.in");
    const std::string out = tmpFile("champ_torn.mtrace");
    writeAll(in, std::vector<unsigned char>(100, 0x5a)); // not 64-aligned
    EXPECT_THROW(mtrace::convertChampSim(in, out), FatalError);
    writeAll(in, {});
    EXPECT_THROW(mtrace::convertChampSim(in, out), FatalError);
}

// ---------------------------------------------------------------------
// Workload registry and replay sources
// ---------------------------------------------------------------------

TEST(MtraceWorkloads, TraceNamesRegisterDynamically)
{
    const std::string path = tmpFile("registry.mtrace");
    {
        mtrace::MtraceWriter w(path, 1, false, "test:registry");
        for (int i = 0; i < 32; ++i)
            w.append(0, rec(AccessType::Load, 0x2000 + 64u * i));
        w.close();
    }
    const std::string name = "trace:" + path;
    EXPECT_TRUE(isTraceWorkload(name));
    EXPECT_FALSE(isTraceWorkload("libquantum"));
    EXPECT_EQ(tracePathOf(name), path);

    const WorkloadProfile &p = getWorkload(name);
    EXPECT_EQ(p.kind, WorkloadKind::Trace);
    EXPECT_EQ(p.tracePath, path);
    // Stable registration: the second lookup returns the same profile.
    EXPECT_EQ(&getWorkload(name), &p);

    auto src = makeWorkloadSource(p, 0);
    ASSERT_NE(src, nullptr);
    EXPECT_EQ(src->next().vaddr, 0x2000u);
}

TEST(MtraceWorkloads, RejectsBadTraceNames)
{
    ScopedFatalCapture capture;
    EXPECT_THROW(getWorkload("trace:"), FatalError);
    EXPECT_THROW(getWorkload("trace:/nonexistent/file.mtrace"),
                 FatalError);
    EXPECT_THROW(tracePathOf("libquantum"), FatalError);

    // Synthetic-only APIs must refuse trace profiles outright.
    const std::string path = writeHairy("nogen.mtrace", 4);
    EXPECT_THROW(makeGenerator(getWorkload("trace:" + path), 0),
                 FatalError);
    // A multi-core trace cannot be one lane of a mix.
    EXPECT_THROW(makeWorkloadSource(getWorkload("trace:" + path), 0),
                 FatalError);
}

TEST(MtraceReplay, SaveRestoreResumesMidStream)
{
    const std::string path = writeHairy("replay_ckpt.mtrace", 4);
    const auto streams = hairyStreams();
    auto reader = mtrace::acquireReader(path);

    mtrace::ReplayTraceSource src(reader, 1);
    for (int i = 0; i < 7; ++i)
        src.next();
    ckpt::Serializer s;
    src.saveState(s);

    mtrace::ReplayTraceSource fresh(reader, 1);
    ckpt::Deserializer d(s.bytes());
    fresh.loadState(d);
    EXPECT_TRUE(d.done());
    EXPECT_EQ(fresh.position(), 7u);
    for (std::uint64_t i = 7; i < 2 * streams[1].size(); ++i)
        EXPECT_TRUE(sameRecord(fresh.next(),
                               streams[1][i % streams[1].size()]))
            << "at " << i;
}

TEST(MtraceReplay, AcquireReaderCachesUntilFileChanges)
{
    const std::string path = writeHairy("cache.mtrace", 4);
    auto a = mtrace::acquireReader(path);
    auto b = mtrace::acquireReader(path);
    EXPECT_EQ(a.get(), b.get());
    // Rewrite with different content: the cache must re-open.
    {
        mtrace::MtraceWriter w(path, 1, false, "test:changed");
        w.append(0, rec(AccessType::Load, 0x9000));
        w.close();
    }
    auto c = mtrace::acquireReader(path);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(c->coreCount(), 1u);
}

TEST(MtraceReplay, AcquireReaderDetectsSameSizeSameMtimeRewrite)
{
    // Regression: the cache used to key on (size, mtime), so an
    // in-place rewrite to a same-size file within the filesystem's
    // mtime granularity served the stale mapped reader. The key is now
    // the content fingerprint from the verified header.
    const std::string path = tmpFile("stale.mtrace");
    auto write = [&](Addr base, const std::string &src) {
        mtrace::MtraceWriter w(path, 1, false, src);
        for (Addr i = 0; i < 32; ++i)
            w.append(0, rec(AccessType::Load, base + 64 * i));
        w.close();
    };

    write(0x2000, "test:A");
    const auto size_a = fs::file_size(path);
    const auto mtime_a = fs::last_write_time(path);
    auto a = mtrace::acquireReader(path);
    {
        mtrace::MtraceCursor cur(*a, 0);
        EXPECT_EQ(cur.next().vaddr, 0x2000u);
    }

    // Same record count, same varint widths, same source length: the
    // rewrite is byte-size identical. Pin the mtime back so only the
    // content distinguishes old from new.
    write(0x3000, "test:B");
    ASSERT_EQ(fs::file_size(path), size_a);
    fs::last_write_time(path, mtime_a);
    ASSERT_EQ(fs::last_write_time(path), mtime_a);

    auto b = mtrace::acquireReader(path);
    EXPECT_NE(a.get(), b.get());
    mtrace::MtraceCursor cur(*b, 0);
    EXPECT_EQ(cur.next().vaddr, 0x3000u);
}

// ---------------------------------------------------------------------
// Record -> replay determinism
// ---------------------------------------------------------------------

namespace {

SystemConfig
tinyConfig(OrgKind org, const std::vector<std::string> &w,
           std::uint64_t insts = 40'000, std::uint64_t warmup = 10'000)
{
    SystemConfig cfg;
    cfg.org = org;
    cfg.workloads = w;
    cfg.l3SizeBytes = 64ULL << 20;
    cfg.instsPerCore = insts;
    cfg.warmupInsts = warmup;
    cfg.raw.set("l3.size_bytes", cfg.l3SizeBytes);
    return cfg;
}

/** The "result" subtree of a run report (meta differs legitimately
 *  between a synthetic run and its trace replay). */
std::string
resultOf(const SystemConfig &cfg)
{
    System sys(cfg);
    const RunResult r = sys.run();
    sys.finishRecording();
    return makeRunReport(cfg, r, &sys).find("result")->dump(-1);
}

} // namespace

TEST(MtraceDeterminism, ReplayReproducesEveryOrgExactly)
{
    const std::string path = tmpFile("det_single.mtrace");
    // Record once (the trace content is org-invariant: cores consume
    // records as a function of the instruction budget alone)...
    SystemConfig rec_cfg = tinyConfig(OrgKind::Tagless, {"libquantum"});
    rec_cfg.recordTracePath = path;
    const std::string direct_tagless = resultOf(rec_cfg);

    // ...then replay against every organization and compare with that
    // organization's direct synthetic run, bit for bit.
    for (const OrgKind org : allOrgKinds()) {
        const std::string direct =
            org == OrgKind::Tagless
                ? direct_tagless
                : resultOf(tinyConfig(org, {"libquantum"}));
        const std::string replay =
            resultOf(tinyConfig(org, {"trace:" + path}));
        EXPECT_EQ(replay, direct) << "org " << toString(org);
    }
}

TEST(MtraceDeterminism, MultiProgramMixRecordsAndReplays)
{
    const std::string path = tmpFile("det_mix.mtrace");
    const std::vector<std::string> mix{"libquantum", "milc", "mcf",
                                       "omnetpp"};
    SystemConfig rec_cfg = tinyConfig(OrgKind::Tagless, mix, 20'000,
                                      5'000);
    rec_cfg.recordTracePath = path;
    const std::string direct = resultOf(rec_cfg);

    mtrace::MtraceReader check(path);
    EXPECT_EQ(check.coreCount(), 4u);
    EXPECT_FALSE(check.sharedPageTable());

    // The trace alone reconstitutes the four-core machine shape.
    SystemConfig rep_cfg = tinyConfig(OrgKind::Tagless,
                                      {"trace:" + path}, 20'000, 5'000);
    System sys(rep_cfg);
    EXPECT_EQ(sys.activeCores(), 4u);
    EXPECT_EQ(sys.pageTableCount(), 4u);
    const RunResult r = sys.run();
    EXPECT_EQ(makeRunReport(rep_cfg, r, &sys).find("result")->dump(-1),
              direct);
}

TEST(MtraceDeterminism, MultithreadedSharedPageTableReplays)
{
    const std::string path = tmpFile("det_mt.mtrace");
    SystemConfig rec_cfg = tinyConfig(OrgKind::Tagless, {"swaptions"},
                                      20'000, 5'000);
    rec_cfg.recordTracePath = path;
    const std::string direct = resultOf(rec_cfg);

    mtrace::MtraceReader check(path);
    EXPECT_EQ(check.coreCount(), 4u);
    EXPECT_TRUE(check.sharedPageTable());

    SystemConfig rep_cfg = tinyConfig(OrgKind::Tagless,
                                      {"trace:" + path}, 20'000, 5'000);
    System sys(rep_cfg);
    EXPECT_EQ(sys.activeCores(), 4u);
    EXPECT_EQ(sys.pageTableCount(), 1u); // shared PT restored
    const RunResult r = sys.run();
    EXPECT_EQ(makeRunReport(rep_cfg, r, &sys).find("result")->dump(-1),
              direct);
}

TEST(MtraceDeterminism, RecordingIsPureObservation)
{
    // A recording run's own results and fingerprint are identical to
    // the unrecorded run's: recording must never perturb simulation.
    const SystemConfig plain = tinyConfig(OrgKind::Tagless,
                                          {"libquantum"});
    SystemConfig recording = plain;
    recording.recordTracePath = tmpFile("pure_obs.mtrace");
    EXPECT_EQ(resultOf(recording), resultOf(plain));
    EXPECT_EQ(warmFingerprint(recording), warmFingerprint(plain));
}

TEST(MtraceDeterminism, MidReplayCheckpointSaveRestore)
{
    const std::string path = tmpFile("det_ckpt.mtrace");
    SystemConfig rec_cfg = tinyConfig(OrgKind::Tagless, {"libquantum"});
    rec_cfg.recordTracePath = path;
    resultOf(rec_cfg);

    const SystemConfig cfg = tinyConfig(OrgKind::Tagless,
                                        {"trace:" + path});
    // Straight replay...
    System straight(cfg);
    const RunResult rs = straight.run();
    const std::string want =
        makeRunReport(cfg, rs, &straight).find("result")->dump(-1);

    // ...vs a replay split at the warmup/measure boundary through a
    // checkpoint into a fresh System (cursor state rides along).
    ckpt::Checkpoint ck;
    {
        System warm(cfg);
        warm.warmup();
        ck = warm.makeCheckpoint();
    }
    System restored(cfg);
    restored.restoreCheckpoint(ck);
    const RunResult rr = restored.measure();
    EXPECT_EQ(makeRunReport(cfg, rr, &restored)
                  .find("result")
                  ->dump(-1),
              want);
}

TEST(MtraceDeterminism, TraceFingerprintTracksContentNotPath)
{
    const std::string path = tmpFile("fp.mtrace");
    {
        mtrace::MtraceWriter w(path, 1, false, "test:fp_a");
        for (int i = 0; i < 8; ++i)
            w.append(0, rec(AccessType::Load, 0x3000 + 64u * i));
        w.close();
    }
    const SystemConfig cfg = tinyConfig(OrgKind::Tagless,
                                        {"trace:" + path});
    const std::uint64_t before = warmFingerprint(cfg);
    {
        mtrace::MtraceWriter w(path, 1, false, "test:fp_b");
        for (int i = 0; i < 8; ++i)
            w.append(0, rec(AccessType::Store, 0x3000 + 64u * i));
        w.close();
    }
    // Same path, different bytes: the warm fingerprint must move.
    EXPECT_NE(warmFingerprint(cfg), before);
}

TEST(MtraceDeterminism, SweepOverTracesIdenticalAcrossWorkerCounts)
{
    using namespace tdc::runner;

    const std::string path = tmpFile("det_sweep.mtrace");
    SystemConfig rec_cfg = tinyConfig(OrgKind::Tagless, {"libquantum"},
                                      20'000, 5'000);
    rec_cfg.recordTracePath = path;
    resultOf(rec_cfg);

    auto makeManifest = [&] {
        SweepManifest m;
        m.name = "mtrace_det";
        for (const OrgKind org : {OrgKind::Tagless, OrgKind::Alloy}) {
            JobSpec job;
            job.org = org;
            job.workloads = {"trace:" + path};
            job.label = format("{}/trace", cliName(org));
            job.l3SizeBytes = 64ULL << 20;
            job.instsPerCore = 20'000;
            job.warmupInsts = 5'000;
            job.raw.set("l3.size_bytes", job.l3SizeBytes);
            m.jobs.push_back(std::move(job));
        }
        return m;
    };

    SweepOptions o1;
    o1.jobs = 1;
    o1.progress = false;
    SweepOptions o8;
    o8.jobs = 8;
    o8.progress = false;
    const auto r1 = SweepRunner(o1).run(makeManifest());
    const auto r8 = SweepRunner(o8).run(makeManifest());
    for (const auto &r : r1)
        ASSERT_EQ(r.status, JobResult::Status::Ok) << r.error;
    for (const auto &r : r8)
        ASSERT_EQ(r.status, JobResult::Status::Ok) << r.error;
    const auto m = makeManifest();
    EXPECT_EQ(SweepRunner::aggregateReport(m, r1).dump(),
              SweepRunner::aggregateReport(m, r8).dump());
}
