#include "dramcache/sram_tag_cache.hh"

#include <algorithm>

#include "ckpt/stats_io.hh"
#include "common/units.hh"

namespace tdc {

Cycles
sramTagLatencyForSize(std::uint64_t cache_bytes)
{
    // Table 6 (CACTI-6.5, 3 GHz cycles).
    if (cache_bytes <= 128 * MiB)
        return 5;
    if (cache_bytes <= 256 * MiB)
        return 6;
    if (cache_bytes <= 512 * MiB)
        return 9;
    return 11;
}

std::uint64_t
sramTagBytesForSize(std::uint64_t cache_bytes)
{
    // Table 6: 0.5MB tags per 128MB of cache (4KB pages, ~16B/entry).
    return cache_bytes / 256;
}

SramTagCache::SramTagCache(std::string name, DramDevice &in_pkg,
                           DramDevice &off_pkg, PhysMem &phys,
                           const ClockDomain &cpu_clk,
                           const SramTagCacheParams &params)
    : DramCacheOrg(std::move(name), in_pkg, off_pkg, phys, cpu_clk),
      params_(params)
{
    const std::uint64_t frames = params_.cacheBytes / pageBytes;
    tdc_assert(frames % params_.associativity == 0,
               "cache size not divisible by associativity");
    numSets_ = frames / params_.associativity;
    tdc_assert(isPowerOf2(numSets_), "set count must be a power of two");
    ways_.assign(frames, Way{});

    auto &sg = statGroup();
    sg.addScalar("tag_probes", &tagProbes_, "SRAM tag array accesses");
    sg.addScalar("dirty_evictions", &dirtyEvictions_);
    sg.addScalar("wb_miss_off_pkg", &wbMissOffPkg_,
                 "L2 writebacks sent straight off-package");
}

int
SramTagCache::findWay(std::uint64_t set, PageNum ppn) const
{
    const Way *base = &ways_[set * params_.associativity];
    for (unsigned w = 0; w < params_.associativity; ++w) {
        if (base[w].valid && base[w].ppn == ppn)
            return static_cast<int>(w);
    }
    return -1;
}

unsigned
SramTagCache::victimWay(std::uint64_t set)
{
    Way *base = &ways_[set * params_.associativity];
    for (unsigned w = 0; w < params_.associativity; ++w) {
        if (!base[w].valid)
            return w;
    }
    auto cmp_lru = [](const Way &a, const Way &b) {
        return a.lastUse < b.lastUse;
    };
    auto cmp_fifo = [](const Way &a, const Way &b) {
        return a.fillTime < b.fillTime;
    };
    const Way *victim =
        params_.policy == ReplPolicy::FIFO
            ? std::min_element(base, base + params_.associativity,
                               cmp_fifo)
            : std::min_element(base, base + params_.associativity,
                               cmp_lru);
    return static_cast<unsigned>(victim - base);
}

std::uint64_t
SramTagCache::fillPage(PageNum ppn, Tick when, bool dirty)
{
    const std::uint64_t set = setOf(ppn);
    const unsigned w = victimWay(set);
    Way &way = ways_[set * params_.associativity + w];
    const std::uint64_t frame = frameOf(set, w);

    if (way.valid && way.dirty) {
        // Stream the dirty victim back to off-package DRAM in the
        // background: in-package page read + off-package page write.
        const Tick rd = inPkgPageAccess(frame, false, when);
        offPkgPageAccess(way.ppn, true, rd);
        ++dirtyEvictions_;
        ++pageWritebacks_;
    }

    way.valid = true;
    way.ppn = ppn;
    way.dirty = dirty;
    way.lastUse = ++useClock_;
    way.fillTime = useClock_;
    ++pageFills_;
    return frame;
}

L3Result
SramTagCache::access(Addr addr, AccessType type, CoreId core, Tick when)
{
    (void)core;
    tdc_assert(!isCaSpace(addr), "SRAM-tag cache saw a cache address");
    const PageNum ppn = frameNumOf(addr);
    const Addr offset = pageOffset(addr);
    const bool write = isWrite(type);

    // Tag lookup is on the critical path regardless of hit or miss.
    ++tagProbes_;
    Tick t = when + cpuClk_.cyclesToTicks(params_.tagLatency);

    const std::uint64_t set = setOf(ppn);
    const int w = findWay(set, ppn);

    L3Result res;
    if (w >= 0) {
        Way &way = ways_[set * params_.associativity + w];
        way.lastUse = ++useClock_;
        way.dirty |= write;
        res.completionTick =
            inPkgBlockAccess(frameOf(set, static_cast<unsigned>(w)),
                             offset, write, t);
        res.servicedInPackage = true;
        res.l3Hit = true;
    } else {
        // Miss: fetch the page off-package (critical path), install it,
        // then deliver the block from the in-package copy.
        const Tick page_done = offPkgPageAccess(ppn, false, t);
        const std::uint64_t frame = fillPage(ppn, page_done, write);
        inPkgPageAccess(frame, true, page_done); // background fill write
        res.completionTick = inPkgBlockAccess(frame, offset, write,
                                              page_done);
        res.servicedInPackage = false;
        res.l3Hit = false;
    }
    recordAccess(when, res);
    return res;
}

void
SramTagCache::writebackLine(Addr addr, CoreId core, Tick when)
{
    (void)core;
    const PageNum ppn = frameNumOf(addr);
    const Addr offset = pageOffset(addr);

    ++tagProbes_;
    const Tick t = when + cpuClk_.cyclesToTicks(params_.tagLatency);
    const std::uint64_t set = setOf(ppn);
    const int w = findWay(set, ppn);
    if (w >= 0) {
        Way &way = ways_[set * params_.associativity + w];
        way.dirty = true;
        way.lastUse = ++useClock_;
        inPkgBlockAccess(frameOf(set, static_cast<unsigned>(w)), offset,
                         true, t);
    } else {
        // No write-allocate for L2 victims: send straight off-package.
        offPkgBlockAccess(ppn, offset, true, t);
        ++wbMissOffPkg_;
    }
}

bool
SramTagCache::containsPage(PageNum ppn) const
{
    return findWay(setOf(ppn), ppn) >= 0;
}

void
SramTagCache::saveOrgState(ckpt::Serializer &out) const
{
    out.putU64(ways_.size());
    for (const Way &w : ways_) {
        out.putU64(w.ppn);
        out.putBool(w.valid);
        out.putBool(w.dirty);
        out.putU64(w.lastUse);
        out.putU64(w.fillTime);
    }
    out.putU64(useClock_);
    ckpt::save(out, tagProbes_);
    ckpt::save(out, dirtyEvictions_);
    ckpt::save(out, wbMissOffPkg_);
}

void
SramTagCache::loadOrgState(ckpt::Deserializer &in)
{
    const std::uint64_t n = in.getU64();
    tdc_assert(n == ways_.size(),
               "SRAM-tag cache geometry mismatch on checkpoint restore");
    for (Way &w : ways_) {
        w.ppn = in.getU64();
        w.valid = in.getBool();
        w.dirty = in.getBool();
        w.lastUse = in.getU64();
        w.fillTime = in.getU64();
    }
    useClock_ = in.getU64();
    ckpt::load(in, tagProbes_);
    ckpt::load(in, dirtyEvictions_);
    ckpt::load(in, wbMissOffPkg_);
}

} // namespace tdc
