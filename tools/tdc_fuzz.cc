/**
 * @file
 * tdc_fuzz: seed-replayable randomized invariant/differential tester.
 *
 *   tdc_fuzz [--seed=N] [--points=N] [--insts=N] [--only=K] [--verbose=1]
 *   tdc_fuzz --trace-points=N [--seed=N] [--tmp=<dir>]
 *
 * Each point K derives its entire configuration from Pcg32(seed, K):
 * organization (all eight, biased toward the stateful page caches:
 * tagless, Banshee, Unison), workload shape (single-programmed, Table 5
 * four-program mix, or a multithreaded PARSEC profile on a shared page
 * table), cache size, replacement policy, alpha, the hot/cold filter,
 * the auditor's sweep interval, and whether the run is split by an
 * in-memory checkpoint save/restore at the warmup/measure boundary.
 * Every simulation runs with the invariant auditor armed
 * (DESIGN.md 9), so any cTLB/GIPT/PTE/free-queue inconsistency or
 * timing-monotonicity break is fatal on the spot.
 *
 * Three oracles per point:
 *   1. the armed InvariantAuditor (structural invariants, sweeps);
 *   2. differential comparison against the ideal all-in-package
 *      reference: quantities that depend only on the functional access
 *      stream -- per-core retired instructions, per-process page-table
 *      size and demand allocations, per-core TLB lookups -- must be
 *      identical across organizations (timing-dependent counters like
 *      TLB hit rates legitimately differ);
 *   3. for checkpointed points, the straight and the restored run must
 *      produce identical measured results.
 *
 * A failure prints the violation and a one-line repro command
 * (--only=K reruns exactly the failing point); the exit code is
 * non-zero. The point banner is printed and flushed *before* the run,
 * so even an uncatchable abort (tdc_panic/assert) identifies its
 * configuration in the log.
 *
 * --trace-points=N switches to the tdc-mtrace-v1 decoder fuzzer: each
 * point writes a random trace (random core count, block size, record
 * mix) to --tmp, checks it round-trips (open, verifyAll, random
 * seek-vs-linear-decode agreement, wrap), then attacks it with random
 * truncations, byte flips and bytes appended to a core section. Half
 * of the mutations re-seal the mutated section's size and checksum, so
 * they reach the meta, index and record decoders instead of stopping
 * at the checksum. A mutated file must either still decode cleanly or
 * fail with a catchable fatal() -- never crash or read out of bounds
 * (pair with a sanitizer build for teeth) -- and a re-sealed append,
 * which leaves bytes after a stream's last record, must fail.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "ckpt/checkpoint.hh"
#include "common/config.hh"
#include "common/format.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/units.hh"
#include "sys/system.hh"
#include "trace/mtrace.hh"
#include "trace/workloads.hh"

using namespace tdc;

namespace {

struct FuzzPoint
{
    OrgKind org = OrgKind::Tagless;
    std::vector<std::string> workloads;
    std::uint64_t insts = 0;
    std::uint64_t warmup = 0;
    std::uint64_t l3Bytes = 0;
    ReplPolicy policy = ReplPolicy::FIFO;
    unsigned alpha = 1;
    bool filter = false;
    unsigned filterThreshold = 2;
    unsigned bansheeSampleRate = 8;
    unsigned bansheeThreshold = 2;
    unsigned bansheeTagBuffer = 1024;
    unsigned unisonPredictorEntries = 4096;
    std::uint64_t sweepInterval = 1;
    bool ckptMidRun = false;
};

FuzzPoint
generatePoint(std::uint64_t seed, std::uint64_t index,
              std::uint64_t base_insts)
{
    Pcg32 rng(seed, /*stream=*/index);
    FuzzPoint p;

    // Bias toward the stateful page caches: 40% tagless (it owns
    // nearly all the structural invariants), 15% each for the newer
    // Banshee and Unison designs, and the rest spread over every
    // organization.
    const auto &orgs = allOrgKinds();
    const std::uint32_t pick = rng.below(100);
    if (pick < 40)
        p.org = OrgKind::Tagless;
    else if (pick < 55)
        p.org = OrgKind::Banshee;
    else if (pick < 70)
        p.org = OrgKind::Unison;
    else
        p.org = orgs[rng.below(static_cast<std::uint32_t>(orgs.size()))];

    switch (rng.below(3)) {
      case 0: { // single-programmed
        const auto &names = spec11Names();
        p.workloads = {names[rng.below(
            static_cast<std::uint32_t>(names.size()))]};
        break;
      }
      case 1: { // four-program mix
        const auto &mixes = table5Mixes();
        const auto &mix =
            mixes[rng.below(static_cast<std::uint32_t>(mixes.size()))];
        p.workloads.assign(mix.begin(), mix.end());
        break;
      }
      default: { // multithreaded (four threads, shared page table)
        const auto &names = parsecNames();
        p.workloads = {names[rng.below(
            static_cast<std::uint32_t>(names.size()))]};
        break;
      }
    }

    // Short, varied instruction budgets; warmup below the budget so
    // the measured window is never empty.
    p.insts = base_insts / 2 + rng.below64(base_insts);
    p.warmup = rng.below64(p.insts / 2 + 1);

    // Small caches force the eviction/free-stall/shootdown paths.
    p.l3Bytes = MiB << rng.below(7); // 1 MiB .. 64 MiB
    p.policy = rng.chance(0.5) ? ReplPolicy::FIFO : ReplPolicy::LRU;
    p.alpha = 1 + rng.below(4);
    p.filter = rng.chance(0.5);
    p.filterThreshold = 2 + rng.below(3);
    // Banshee/Unison knobs: small tag buffers force frequent lazy
    // flushes, small predictors force aliasing.
    p.bansheeSampleRate = 1 + rng.below(16);
    p.bansheeThreshold = rng.below(5);
    p.bansheeTagBuffer = 16u << (2 * rng.below(4)); // 16..1024
    p.unisonPredictorEntries = 256u << (2 * rng.below(3)); // 256..4096
    p.sweepInterval = 1 + rng.below64(64);
    p.ckptMidRun = rng.chance(0.25);
    return p;
}

SystemConfig
makeConfig(const FuzzPoint &p, OrgKind org)
{
    SystemConfig cfg;
    cfg.org = org;
    cfg.workloads = p.workloads;
    cfg.l3SizeBytes = p.l3Bytes;
    cfg.instsPerCore = p.insts;
    cfg.warmupInsts = p.warmup;
    cfg.raw.set("l3.size_bytes", p.l3Bytes);
    cfg.raw.set("l3.policy", std::string(p.policy == ReplPolicy::LRU
                                             ? "lru"
                                             : "fifo"));
    cfg.raw.set("l3.alpha", std::uint64_t{p.alpha});
    cfg.raw.set("l3.filter", p.filter);
    cfg.raw.set("l3.filter_threshold", std::uint64_t{p.filterThreshold});
    cfg.raw.set("l3.banshee.sample_rate",
                std::uint64_t{p.bansheeSampleRate});
    cfg.raw.set("l3.banshee.threshold",
                std::uint64_t{p.bansheeThreshold});
    cfg.raw.set("l3.banshee.tag_buffer_entries",
                std::uint64_t{p.bansheeTagBuffer});
    cfg.raw.set("l3.unison.predictor_entries",
                std::uint64_t{p.unisonPredictorEntries});
    cfg.raw.set("check.audit", true);
    cfg.raw.set("check.interval", p.sweepInterval);
    return cfg;
}

std::string
describe(const FuzzPoint &p)
{
    std::string wl;
    for (const auto &w : p.workloads) {
        if (!wl.empty())
            wl += ",";
        wl += w;
    }
    return format("org={} workloads={} insts={} warmup={} l3={}MiB "
                  "policy={} alpha={} filter={}/{} interval={} ckpt={}",
                  cliName(p.org), wl, p.insts, p.warmup,
                  p.l3Bytes >> 20,
                  p.policy == ReplPolicy::LRU ? "lru" : "fifo", p.alpha,
                  p.filter ? 1 : 0, p.filterThreshold, p.sweepInterval,
                  p.ckptMidRun ? 1 : 0);
}

/** Functional quantities that must not depend on the organization. */
struct FunctionalState
{
    std::vector<std::uint64_t> coreInsts;
    std::vector<std::uint64_t> tlbLookups;
    std::vector<std::uint64_t> ptSizes;
    std::vector<std::uint64_t> ptAllocs;
};

FunctionalState
captureFunctional(System &sys)
{
    FunctionalState f;
    for (unsigned i = 0; i < sys.activeCores(); ++i) {
        f.coreInsts.push_back(sys.core(i).instsRetired());
        f.tlbLookups.push_back(sys.memSystem(i).tlbAccesses());
    }
    for (unsigned i = 0; i < sys.pageTableCount(); ++i) {
        f.ptSizes.push_back(sys.pageTable(i).size());
        f.ptAllocs.push_back(sys.pageTable(i).demandAllocs());
    }
    return f;
}

void
compareVectors(const std::vector<std::uint64_t> &a,
               const std::vector<std::uint64_t> &b,
               std::string_view what, OrgKind org)
{
    if (a == b)
        return;
    std::string sa, sb;
    for (std::uint64_t v : a)
        sa += format("{} ", v);
    for (std::uint64_t v : b)
        sb += format("{} ", v);
    fatal("differential mismatch [{}]: {} = [{}] vs ideal [{}]", what,
          cliName(org), sa, sb);
}

void
compareRuns(const RunResult &a, const RunResult &b)
{
    if (a.totalInsts != b.totalInsts || a.cycles != b.cycles
        || a.l3Accesses != b.l3Accesses || a.victimHits != b.victimHits
        || a.coldFills != b.coldFills
        || a.pageWritebacks != b.pageWritebacks
        || a.inPkgBytes != b.inPkgBytes
        || a.offPkgBytes != b.offPkgBytes || a.coreIpc != b.coreIpc) {
        fatal("checkpoint divergence: straight run (insts={} cycles={} "
              "l3={} fills={}) vs restored run (insts={} cycles={} "
              "l3={} fills={})",
              a.totalInsts, a.cycles, a.l3Accesses, a.coldFills,
              b.totalInsts, b.cycles, b.l3Accesses, b.coldFills);
    }
}

/** Runs one point; throws FatalError (via capture) on any violation. */
void
runPoint(const FuzzPoint &p, bool verbose)
{
    const SystemConfig cfg = makeConfig(p, p.org);

    System sys(cfg);
    RunResult r;
    if (p.ckptMidRun) {
        // Split the run at the warmup/measure boundary through an
        // in-memory checkpoint; the restored system must measure
        // exactly what the straight one does (and the armed auditor
        // re-validates the rebuilt structures on restore).
        sys.warmup();
        const ckpt::Checkpoint ck = sys.makeCheckpoint();
        System restored(cfg);
        restored.restoreCheckpoint(ck);
        const RunResult rr = restored.measure();
        r = sys.measure();
        compareRuns(r, rr);
    } else {
        sys.warmup();
        r = sys.measure();
    }

    const FunctionalState got = captureFunctional(sys);

    // Differential reference: the ideal all-in-package system consumes
    // the identical trace streams, so every functional quantity must
    // match no matter how the organization under test times or places
    // pages.
    if (p.org != OrgKind::Ideal) {
        System ideal(makeConfig(p, OrgKind::Ideal));
        ideal.run();
        const FunctionalState want = captureFunctional(ideal);
        compareVectors(got.coreInsts, want.coreInsts,
                       "retired instructions", p.org);
        compareVectors(got.tlbLookups, want.tlbLookups, "TLB lookups",
                       p.org);
        compareVectors(got.ptSizes, want.ptSizes, "page-table size",
                       p.org);
        compareVectors(got.ptAllocs, want.ptAllocs, "demand allocs",
                       p.org);
    }

    if (verbose) {
        const auto *aud = sys.auditor();
        std::cout << format("  ok: ipc={:.3f} checks={} sweeps={}\n",
                            r.sumIpc, aud ? aud->eventChecks() : 0,
                            aud ? aud->sweeps() : 0);
    }
}

// ---- tdc-mtrace-v1 decoder fuzzing (--trace-points) ----

std::vector<unsigned char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        fatal("cannot reopen {}", path);
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
    if (!out.good())
        fatal("cannot write {}", path);
}

TraceRecord
randomRecord(Pcg32 &rng, Addr &walker)
{
    TraceRecord rec;
    const std::uint32_t t = rng.below(3);
    rec.type = t == 0 ? AccessType::InstFetch
                      : (t == 1 ? AccessType::Load : AccessType::Store);
    rec.dependent = rng.chance(0.2);
    // Mix tiny strides with occasional wild jumps so deltas cover one
    // to ten varint bytes, both signs.
    if (rng.chance(0.8)) {
        walker += 64 * (1 + rng.below(32));
    } else if (rng.chance(0.5)) {
        walker = rng.below64(~std::uint64_t{0});
    } else if (walker >= (4u << 20)) {
        walker -= rng.below64(4u << 20);
    }
    rec.vaddr = walker;
    rec.nonMemInsts = rng.chance(0.1)
                          ? rng.next()
                          : rng.below(8);
    return rec;
}

/**
 * Opens and fully decodes `path`: true when it is accepted, false on a
 * clean, catchable rejection. Either is within the contract; a crash
 * or an out-of-bounds read is what the fuzzer hunts.
 */
bool
decodes(const std::string &path)
{
    try {
        ScopedFatalCapture capture;
        mtrace::MtraceReader r(path);
        r.verifyAll();
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

/** Where one section's size field and payload sit in a container. */
struct SectionSpan
{
    std::size_t sizeAt; //!< its u64 payload size; the checksum follows
    std::size_t payloadAt;
    std::uint64_t size;
};

std::uint64_t
getLe(const std::vector<unsigned char> &b, std::size_t at, int bytes)
{
    std::uint64_t v = 0;
    for (int i = bytes - 1; i >= 0; --i)
        v = (v << 8) | b[at + static_cast<std::size_t>(i)];
    return v;
}

void
putLe64(std::vector<unsigned char> &b, std::size_t at, std::uint64_t v)
{
    for (std::size_t i = 0; i < 8; ++i)
        b[at + i] = static_cast<unsigned char>(v >> (8 * i));
}

/** The section table of a well-formed container, in file order. */
std::vector<SectionSpan>
sectionSpans(const std::vector<unsigned char> &file)
{
    std::vector<SectionSpan> spans;
    std::size_t off = 8 + 4; // magic + version
    const std::uint64_t nsec = getLe(file, off, 4);
    off += 4;
    for (std::uint64_t i = 0; i < nsec; ++i) {
        off += 8 + getLe(file, off, 8); // the name
        spans.push_back({off, off + 16, getLe(file, off, 8)});
        off = spans.back().payloadAt + spans.back().size;
    }
    return spans;
}

/**
 * `file` with section `s`'s payload replaced by `payload`. With
 * `reseal`, the section's size and checksum are rewritten to match, as
 * tests/test_mtrace.cc's editSection() does, so the change gets past
 * the checksum to the decoders behind it.
 */
std::vector<unsigned char>
withPayload(const std::vector<unsigned char> &file, const SectionSpan &s,
            const std::vector<unsigned char> &payload, bool reseal)
{
    const auto begin =
        file.begin() + static_cast<std::ptrdiff_t>(s.payloadAt);
    std::vector<unsigned char> out(file.begin(), begin);
    out.insert(out.end(), payload.begin(), payload.end());
    out.insert(out.end(), begin + static_cast<std::ptrdiff_t>(s.size),
               file.end());
    if (reseal) {
        putLe64(out, s.sizeAt, payload.size());
        putLe64(out, s.sizeAt + 8,
                ckpt::fnv1a(payload.data(), payload.size()));
    }
    return out;
}

void
runTracePoint(std::uint64_t seed, std::uint64_t index,
              const std::string &tmp, bool verbose)
{
    Pcg32 rng(seed ^ 0x7472616365ULL, /*stream=*/index);
    const unsigned cores = 1 + rng.below(4);
    const std::uint64_t block_records = 1 + rng.below(300);
    const std::string path =
        format("{}/fuzz_trace_{}.mtrace", tmp, index);

    std::vector<std::uint64_t> counts;
    {
        mtrace::MtraceWriter w(path, cores, rng.chance(0.5),
                               format("tdc_fuzz:point={}", index),
                               block_records);
        for (unsigned c = 0; c < cores; ++c) {
            // Cover empty-tail, exact-block and multi-block streams.
            const std::uint64_t n = 1 + rng.below64(3 * block_records);
            Addr walker = rng.below64(1ULL << 40);
            for (std::uint64_t i = 0; i < n; ++i)
                w.append(c, randomRecord(rng, walker));
            counts.push_back(n);
        }
        w.close();
    }

    // Round trip: the file we just wrote must verify and the seek
    // index must agree with a linear decode at random positions.
    mtrace::MtraceReader reader(path);
    if (reader.coreCount() != cores)
        fatal("core count mismatch: wrote {}, read {}", cores,
              reader.coreCount());
    reader.verifyAll();
    for (unsigned c = 0; c < cores; ++c) {
        if (reader.records(c) != counts[c])
            fatal("record count mismatch on core {}: wrote {}, read {}",
                  c, counts[c], reader.records(c));
        // Positions past the stream length exercise the wrap path.
        const std::uint64_t pos = rng.below64(3 * counts[c]);
        mtrace::MtraceCursor linear(reader, c);
        for (std::uint64_t i = 0; i < pos; ++i)
            linear.next();
        mtrace::MtraceCursor seeked(reader, c);
        seeked.seek(pos);
        const TraceRecord a = linear.next();
        const TraceRecord b = seeked.next();
        if (a.vaddr != b.vaddr || a.type != b.type
            || a.nonMemInsts != b.nonMemInsts
            || a.dependent != b.dependent)
            fatal("seek({}) disagrees with linear decode on core {}",
                  pos, c);
    }

    // Adversarial mutations: truncations, byte flips and bytes appended
    // to a core section. Each is re-sealed half the time, so it reaches
    // the decoders behind the checksum; unsealed, the checksum or the
    // section table must stop it.
    const std::vector<unsigned char> orig = readAll(path);
    const std::vector<SectionSpan> spans = sectionSpans(orig);
    const std::string mut = path + ".mut";
    for (int i = 0; i < 4; ++i) {
        const SectionSpan &s =
            spans[rng.below(static_cast<std::uint32_t>(spans.size()))];
        const auto first =
            orig.begin() + static_cast<std::ptrdiff_t>(s.payloadAt);
        const std::vector<unsigned char> payload(
            first, first + static_cast<std::ptrdiff_t>(s.size));

        if (rng.chance(0.5)) {
            writeAll(mut, std::vector<unsigned char>(
                              orig.begin(),
                              orig.begin()
                                  + static_cast<std::ptrdiff_t>(
                                      rng.below64(orig.size()))));
        } else {
            const auto cut =
                static_cast<std::ptrdiff_t>(rng.below64(s.size));
            writeAll(mut, withPayload(orig, s,
                                      std::vector<unsigned char>(
                                          payload.begin(),
                                          payload.begin() + cut),
                                      true));
        }
        decodes(mut);

        const auto flip =
            static_cast<unsigned char>(1 + rng.below(255));
        if (rng.chance(0.5)) {
            std::vector<unsigned char> f = orig;
            f[rng.below64(f.size())] ^= flip;
            writeAll(mut, f);
        } else {
            std::vector<unsigned char> p = payload;
            p[rng.below64(p.size())] ^= flip;
            writeAll(mut, withPayload(orig, s, p, true));
        }
        decodes(mut);

        // Sections are meta, core0..core<cores-1>, index.
        const SectionSpan &core = spans[1 + rng.below(cores)];
        const auto core_first =
            orig.begin() + static_cast<std::ptrdiff_t>(core.payloadAt);
        std::vector<unsigned char> longer(
            core_first, core_first + static_cast<std::ptrdiff_t>(core.size));
        const std::uint32_t extra = 1 + rng.below(8);
        for (std::uint32_t k = 0; k < extra; ++k)
            longer.push_back(static_cast<unsigned char>(rng.below(256)));
        const bool reseal = rng.chance(0.5);
        writeAll(mut, withPayload(orig, core, longer, reseal));
        if (decodes(mut) && reseal)
            fatal("a stream with bytes after its last record was "
                  "accepted");
    }

    if (verbose)
        std::cout << format("  ok: {} core(s), block={}, {} bytes\n",
                            cores, block_records, orig.size());
    std::remove(mut.c_str());
    std::remove(path.c_str());
}

int
traceFuzzMain(const Config &args)
{
    const std::uint64_t seed = args.getU64("seed", 1);
    const std::uint64_t points = args.getU64("trace-points", 20);
    const std::string tmp = args.getString("tmp", ".");
    const bool verbose = args.getBool("verbose", false);

    unsigned failures = 0;
    for (std::uint64_t k = 0; k < points; ++k) {
        std::cout << format("trace point {}\n", k) << std::flush;
        try {
            ScopedFatalCapture capture;
            runTracePoint(seed, k, tmp, verbose);
        } catch (const FatalError &e) {
            ++failures;
            std::cout << format(
                "FAILED trace point {}: {}\n"
                "repro: tdc_fuzz --seed={} --trace-points={}\n",
                k, e.what(), seed, points);
        }
    }
    if (failures != 0) {
        std::cout << format("{} of {} trace points failed\n", failures,
                            points);
        return 1;
    }
    std::cout << format("all {} trace points passed\n", points);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Config args;
    for (int i = 1; i < argc; ++i) {
        if (!args.parseAssignment(argv[i]))
            fatal("tdc_fuzz: unrecognized argument '{}' (every option "
                  "is key=value; see the header of tools/tdc_fuzz.cc)",
                  argv[i]);
    }
    args.checkKnown({"seed", "points", "insts", "only", "verbose",
                     "trace-points", "tmp"},
                    "tdc_fuzz");

    if (args.has("trace-points"))
        return traceFuzzMain(args);

    const std::uint64_t seed = args.getU64("seed", 1);
    const std::uint64_t points = args.getU64("points", 20);
    const std::uint64_t base_insts = args.getU64("insts", 40'000);
    const bool verbose = args.getBool("verbose", false);
    const bool only_one = args.has("only");
    const std::uint64_t only = args.getU64("only", 0);

    std::uint64_t first = only_one ? only : 0;
    std::uint64_t last = only_one ? only + 1 : points;

    unsigned failures = 0;
    for (std::uint64_t k = first; k < last; ++k) {
        const FuzzPoint p = generatePoint(seed, k, base_insts);
        // Flushed before the run: an uncatchable abort mid-simulation
        // still leaves the failing configuration in the log.
        std::cout << format("point {}: {}\n", k, describe(p))
                  << std::flush;
        try {
            ScopedFatalCapture capture;
            runPoint(p, verbose);
        } catch (const FatalError &e) {
            ++failures;
            std::cout << format(
                "FAILED point {}: {}\n"
                "repro: tdc_fuzz --seed={} --insts={} --only={}\n",
                k, e.what(), seed, base_insts, k);
        }
    }

    if (failures != 0) {
        std::cout << format("{} of {} points failed\n", failures,
                            last - first);
        return 1;
    }
    std::cout << format("all {} points passed\n", last - first);
    return 0;
}
