#include "dramcache/sram_tag_cache.hh"

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
      params_(params),
      sets_(params.cacheBytes / pageBytes, params.associativity)
{
    auto &sg = statGroup();
    sg.addScalar("tag_probes", &tagProbes_, "SRAM tag array accesses");
    sg.addScalar("dirty_evictions", &dirtyEvictions_);
    sg.addScalar("wb_miss_off_pkg", &wbMissOffPkg_,
                 "L2 writebacks sent straight off-package");
}

std::uint64_t
SramTagCache::fillPage(PageNum ppn, Tick when, bool dirty)
{
    const std::uint64_t set = sets_.setOf(ppn);
    const unsigned w =
        sets_.victim(set, [](const Way &v) { return v.stamp; });
    Way &way = sets_.at(set, w);
    const std::uint64_t frame = sets_.frameOf(set, w);

    if (way.valid && way.dirty) {
        // Stream the dirty victim back in the background.
        writeBackPage(frame, way.ppn, when);
        ++dirtyEvictions_;
    }

    way.valid = true;
    way.ppn = ppn;
    way.dirty = dirty;
    way.stamp = ++useClock_;
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

    const std::uint64_t set = sets_.setOf(ppn);
    const int w = sets_.find(set, ppn);

    L3Result res;
    if (w >= 0) {
        Way &way = sets_.at(set, w);
        touch(way);
        way.dirty |= write;
        res.completionTick =
            inPkgBlockAccess(sets_.frameOf(set, static_cast<unsigned>(w)),
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
    recordAccess(res);
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
    const std::uint64_t set = sets_.setOf(ppn);
    const int w = sets_.find(set, ppn);
    if (w >= 0) {
        Way &way = sets_.at(set, w);
        way.dirty = true;
        touch(way);
        inPkgBlockAccess(sets_.frameOf(set, static_cast<unsigned>(w)),
                         offset, true, t);
    } else {
        // No write-allocate for L2 victims: send straight off-package.
        offPkgBlockAccess(ppn, offset, true, t);
        ++wbMissOffPkg_;
    }
}

void
SramTagCache::saveOrgState(ckpt::Serializer &out) const
{
    sets_.save(out, [&](const Way &w) {
        out.putU64(w.ppn);
        out.putBool(w.dirty);
        out.putU64(w.stamp);
    });
    out.putU64(useClock_);
    ckpt::save(out, tagProbes_);
    ckpt::save(out, wbMissOffPkg_);
}

void
SramTagCache::loadOrgState(ckpt::Deserializer &in)
{
    sets_.restore(in, "SRAM-tag way", [&](Way &w) {
        w.ppn = in.getU64();
        w.dirty = in.getBool();
        w.stamp = in.getU64();
    });
    useClock_ = in.getU64();
    ckpt::load(in, tagProbes_);
    ckpt::load(in, wbMissOffPkg_);
    // Every dirty eviction is one page write-back.
    dirtyEvictions_.restore(pageWritebacks_.value());
}

} // namespace tdc
