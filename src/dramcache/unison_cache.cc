#include "dramcache/unison_cache.hh"

#include <algorithm>
#include <bit>

#include "ckpt/stats_io.hh"

namespace tdc {

UnisonCache::UnisonCache(std::string name, DramDevice &in_pkg,
                         DramDevice &off_pkg, PhysMem &phys,
                         const ClockDomain &cpu_clk,
                         const UnisonCacheParams &params)
    : DramCacheOrg(std::move(name), in_pkg, off_pkg, phys, cpu_clk),
      params_(params),
      sets_(params.cacheBytes / pageBytes, params.associativity)
{
    tdc_assert(isPowerOf2(params_.predictorEntries),
               "predictor entry count must be a power of two");
    predictor_.assign(params_.predictorEntries, PredEntry{});

    auto &sg = statGroup();
    sg.addScalar("dram_tag_accesses", &dramTagAccesses_,
                 "in-DRAM tag bursts");
    sg.addScalar("line_fills", &lineFills_,
                 "single-line fills on footprint underprediction");
    sg.addScalar("partial_fill_lines", &partialFillLines_,
                 "lines moved by predicted partial fills");
    sg.addScalar("partial_wb_lines", &partialWbLines_,
                 "dirty lines moved by partial writebacks");
    sg.addScalar("predictor_hits", &predictorHits_,
                 "footprint predictions from a trained entry");
    sg.addScalar("predictor_misses", &predictorMisses_,
                 "cold predictor lookups (full-page fallback)");
    sg.addScalar("dirty_evictions", &dirtyEvictions_);
    sg.addScalar("wb_miss_off_pkg", &wbMissOffPkg_,
                 "L2 writebacks sent straight off-package");
}

namespace {

/**
 * Bus beats a set's tag metadata adds to an access. Unison colocates
 * the tags with the data in the DRAM row and way-predicts the access,
 * so a hit is a single compound burst (tag beat + predicted way's 64B
 * line) -- the paper's "single DRAM access" hit path. We model way
 * prediction as always correct and charge one extra 16B beat.
 */
constexpr std::uint64_t tagBeatBytes = 16;

} // namespace

Tick
UnisonCache::tagBurst(std::uint64_t frame, Addr offset, Tick when)
{
    ++dramTagAccesses_;
    const Addr dev = pageBase(frame) + alignDown(offset, cacheLineBytes);
    return inPkg_.access(dev, tagBeatBytes, false, when).completionTick;
}

Tick
UnisonCache::tagDataBurst(std::uint64_t frame, Addr offset, Tick when)
{
    ++dramTagAccesses_;
    const Addr dev = pageBase(frame) + alignDown(offset, cacheLineBytes);
    // Keep the widened burst within the row (cf. Alloy's TAD burst).
    const Addr row_end = alignUp(dev + 1, inPkg_.timing().rowBytes);
    const std::uint64_t burst = std::min<std::uint64_t>(
        cacheLineBytes + tagBeatBytes, row_end - dev);
    return inPkg_.access(dev, burst, false, when).completionTick;
}

Tick
UnisonCache::tagDataWrite(std::uint64_t frame, Addr offset, Tick when)
{
    // Writes need the tag verdict too, but the controller buffers
    // them: the tag/footprint update is piggybacked on the line and
    // both drain from the write queue as one row-clustered posted
    // burst (a separate demand-priority tag read per write would
    // thrash the open rows under the read stream for no information
    // the write queue does not already have).
    ++dramTagAccesses_;
    const Addr dev = pageBase(frame) + alignDown(offset, cacheLineBytes);
    const Addr row_end = alignUp(dev + 1, inPkg_.timing().rowBytes);
    const std::uint64_t burst = std::min<std::uint64_t>(
        cacheLineBytes + tagBeatBytes, row_end - dev);
    return inPkg_.postedWrite(dev, burst, when).completionTick;
}

Tick
UnisonCache::offPkgLines(PageNum ppn, unsigned nlines, bool write,
                         Tick when)
{
    tdc_assert(nlines > 0 && nlines <= linesPerPage,
               "bad footprint transfer size");
    const Addr dev = phys_.deviceAddr(ppn);
    const std::uint64_t bytes = std::uint64_t{nlines} * cacheLineBytes;
    if (write)
        return offPkg_.postedWrite(dev, bytes, when).completionTick;
    return offPkg_.access(dev, bytes, false, when).completionTick;
}

Tick
UnisonCache::inPkgLines(std::uint64_t frame, unsigned nlines, bool write,
                        Tick when)
{
    tdc_assert(nlines > 0 && nlines <= linesPerPage,
               "bad footprint transfer size");
    const std::uint64_t bytes = std::uint64_t{nlines} * cacheLineBytes;
    if (write)
        return inPkg_.postedWrite(pageBase(frame), bytes, when)
            .completionTick;
    return inPkg_.access(pageBase(frame), bytes, false, when)
        .completionTick;
}

std::uint64_t
UnisonCache::makeKey(CoreId core, unsigned line) const
{
    // PC proxy: the paper keys on (PC, page offset); traces carry no
    // PC, so the allocation context is (core, first-touch line).
    return (std::uint64_t{static_cast<unsigned>(core)} << 6) | line;
}

std::uint64_t
UnisonCache::predictFootprint(std::uint64_t key)
{
    const PredEntry &e = predictor_[key & (params_.predictorEntries - 1)];
    if (e.valid && e.key == key) {
        ++predictorHits_;
        return e.footprint;
    }
    ++predictorMisses_;
    return ~0ULL; // cold context: fetch the whole page
}

void
UnisonCache::trainPredictor(std::uint64_t key, std::uint64_t footprint)
{
    PredEntry &e = predictor_[key & (params_.predictorEntries - 1)];
    e.valid = true;
    e.key = key;
    e.footprint = footprint;
}

L3Result
UnisonCache::access(Addr addr, AccessType type, CoreId core, Tick when)
{
    tdc_assert(!isCaSpace(addr), "Unison cache saw a cache address");
    const PageNum ppn = frameNumOf(addr);
    const Addr offset = pageOffset(addr);
    const unsigned line = lineInPage(addr);
    const std::uint64_t bit = 1ULL << line;
    const bool write = isWrite(type);
    const std::uint64_t set = sets_.setOf(ppn);

    // The in-DRAM tag check gates every access, hit or miss; it is
    // colocated with the row the access will touch (the hit way, or
    // the LRU victim frame a miss will fill), and a read hit folds it
    // into the data burst itself.
    const int w = sets_.find(set, ppn);

    L3Result res;
    if (w >= 0) {
        Way &way = sets_.at(set, w);
        const std::uint64_t frame =
            sets_.frameOf(set, static_cast<unsigned>(w));
        way.lastUse = ++useClock_;
        way.refBits |= bit;
        if (way.validBits & bit) {
            if (write) {
                way.dirtyBits |= bit;
                res.completionTick = tagDataWrite(frame, offset, when);
            } else {
                res.completionTick = tagDataBurst(frame, offset, when);
            }
            res.servicedInPackage = true;
            res.l3Hit = true;
        } else {
            // Footprint underprediction: the page is cached but this
            // line was not fetched. Repair with a single off-package
            // line fill on the critical path.
            const Tick t = tagBurst(frame, offset, when);
            const Tick line_done = offPkgBlockAccess(ppn, offset, false,
                                                     t);
            way.validBits |= bit;
            if (write)
                way.dirtyBits |= bit;
            inPkgBlockAccess(frame, offset, true, line_done); // install
            res.completionTick = line_done;
            res.servicedInPackage = false;
            res.l3Hit = false;
            ++lineFills_;
        }
    } else {
        // Page miss: the footprint prediction is made when the miss
        // issues, then the LRU victim is evicted (writing back only
        // its dirty lines and training the predictor with its
        // reference bits), then only the predicted lines are filled.
        const std::uint64_t key = makeKey(core, line);
        const std::uint64_t footprint = predictFootprint(key) | bit;

        const unsigned victim =
            sets_.victim(set, [](const Way &v) { return v.lastUse; });
        Way &vw = sets_.at(set, victim);
        const std::uint64_t frame = sets_.frameOf(set, victim);
        const Tick t = tagBurst(frame, offset, when);
        if (vw.valid) {
            trainPredictor(vw.predKey, vw.refBits | 1ULL);
            const unsigned ndirty = static_cast<unsigned>(
                std::popcount(vw.dirtyBits));
            if (ndirty > 0) {
                const Tick rd = inPkgLines(frame, ndirty, false, t);
                offPkgLines(vw.ppn, ndirty, true, rd);
                partialWbLines_ += ndirty;
                ++dirtyEvictions_;
                ++pageWritebacks_;
            }
        }
        const unsigned nfill = static_cast<unsigned>(
            std::popcount(footprint));

        const Tick fill_done = offPkgLines(ppn, nfill, false, t);
        inPkgLines(frame, nfill, true, fill_done); // background install
        partialFillLines_ += nfill;
        ++pageFills_;

        vw.valid = true;
        vw.ppn = ppn;
        vw.validBits = footprint;
        vw.dirtyBits = write ? bit : 0;
        vw.refBits = bit;
        vw.predKey = key;
        vw.lastUse = ++useClock_;

        res.completionTick = inPkgBlockAccess(frame, offset, write,
                                              fill_done);
        res.servicedInPackage = false;
        res.l3Hit = false;
    }
    recordAccess(res);
    return res;
}

void
UnisonCache::writebackLine(Addr addr, CoreId core, Tick when)
{
    (void)core;
    const PageNum ppn = frameNumOf(addr);
    const Addr offset = pageOffset(addr);
    const std::uint64_t bit = 1ULL << lineInPage(addr);
    const std::uint64_t set = sets_.setOf(ppn);

    const int w = sets_.find(set, ppn);
    if (w >= 0) {
        // Write-allocate into the cached page: an L2 victim carries
        // the whole line, so it becomes valid+dirty even if the
        // footprint fill skipped it. Line + tag update drain as one
        // buffered compound write.
        Way &way = sets_.at(set, w);
        way.validBits |= bit;
        way.dirtyBits |= bit;
        way.refBits |= bit;
        way.lastUse = ++useClock_;
        tagDataWrite(sets_.frameOf(set, static_cast<unsigned>(w)),
                     offset, when);
    } else {
        // No page allocation for L2 victims: the (buffered) tag check
        // comes back negative and the line goes straight off-package.
        const Tick t = tagBurst(sets_.frameOf(set, 0), offset, when);
        offPkgBlockAccess(ppn, offset, true, t);
        ++wbMissOffPkg_;
    }
}

std::uint64_t
UnisonCache::validBitsOf(PageNum ppn) const
{
    const std::uint64_t set = sets_.setOf(ppn);
    const int w = sets_.find(set, ppn);
    return w < 0 ? 0 : sets_.at(set, w).validBits;
}

void
UnisonCache::saveOrgState(ckpt::Serializer &out) const
{
    sets_.save(out, [&](const Way &w) {
        out.putU64(w.ppn);
        out.putU64(w.validBits);
        out.putU64(w.dirtyBits);
        out.putU64(w.refBits);
        out.putU64(w.predKey);
        out.putU64(w.lastUse);
    });
    out.putU64(predictor_.size());
    for (const PredEntry &e : predictor_) {
        out.putBool(e.valid);
        out.putU64(e.key);
        out.putU64(e.footprint);
    }
    out.putU64(useClock_);
    ckpt::save(out, dramTagAccesses_);
    ckpt::save(out, lineFills_);
    ckpt::save(out, partialFillLines_);
    ckpt::save(out, partialWbLines_);
    ckpt::save(out, predictorHits_);
    ckpt::save(out, predictorMisses_);
    ckpt::save(out, wbMissOffPkg_);
}

void
UnisonCache::loadOrgState(ckpt::Deserializer &in)
{
    sets_.restore(in, "Unison way", [&](Way &w) {
        w.ppn = in.getU64();
        w.validBits = in.getU64();
        w.dirtyBits = in.getU64();
        w.refBits = in.getU64();
        w.predKey = in.getU64();
        w.lastUse = in.getU64();
    });
    const std::uint64_t n = in.getU64();
    if (n != predictor_.size())
        fatal("checkpoint: Unison predictor size {} does not match the "
              "cache's {}",
              n, predictor_.size());
    for (PredEntry &e : predictor_) {
        e.valid = in.getBool();
        e.key = in.getU64();
        e.footprint = in.getU64();
    }
    useClock_ = in.getU64();
    ckpt::load(in, dramTagAccesses_);
    ckpt::load(in, lineFills_);
    ckpt::load(in, partialFillLines_);
    ckpt::load(in, partialWbLines_);
    ckpt::load(in, predictorHits_);
    ckpt::load(in, predictorMisses_);
    ckpt::load(in, wbMissOffPkg_);
    // Every dirty eviction is one page write-back.
    dirtyEvictions_.restore(pageWritebacks_.value());
}

} // namespace tdc
