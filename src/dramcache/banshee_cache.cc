#include "dramcache/banshee_cache.hh"

#include "ckpt/stats_io.hh"

namespace tdc {

BansheeCache::BansheeCache(std::string name, DramDevice &in_pkg,
                           DramDevice &off_pkg, PhysMem &phys,
                           const ClockDomain &cpu_clk,
                           const BansheeCacheParams &params)
    : DramCacheOrg(std::move(name), in_pkg, off_pkg, phys, cpu_clk),
      params_(params),
      sets_(params.cacheBytes / pageBytes, params.associativity)
{
    tdc_assert(params_.sampleRate > 0, "sample rate must be positive");
    tdc_assert(params_.tagBufferEntries > 0,
               "tag buffer needs at least one entry");
    cands_.reset(sets_.numSets());

    auto &sg = statGroup();
    sg.addScalar("sampled_events", &sampledEvents_,
                 "accesses that updated frequency counters");
    sg.addScalar("bypassed_misses", &bypassedMisses_,
                 "misses served off-package without a fill");
    sg.addScalar("tag_buffer_ops", &tagBufferOps_,
                 "tag-buffer inserts and flush drains");
    sg.addScalar("tag_buffer_flushes", &tagBufferFlushes_,
                 "lazy PTE write-back bursts");
    sg.addScalar("dirty_evictions", &dirtyEvictions_);
    sg.addScalar("wb_miss_off_pkg", &wbMissOffPkg_,
                 "L2 writebacks sent straight off-package");
}

void
BansheeCache::ageSet(std::uint64_t set)
{
    for (unsigned w = 0; w < params_.associativity; ++w)
        sets_.at(set, w).count /= 2;
    cands_[set].count /= 2;
}

void
BansheeCache::noteRemap(Tick when)
{
    ++tagBufferOcc_;
    ++tagBufferOps_;
    if (tagBufferOcc_ < params_.tagBufferEntries)
        return;
    // Lazy tag write-back: drain every pending remap as a posted PTE
    // update to off-package memory. The updates are metadata-sized; we
    // charge one 64B posted write per entry, clustered at the flush.
    Tick t = when;
    for (std::uint64_t i = 0; i < tagBufferOcc_; ++i) {
        t = offPkgBlockAccess(/*ppn=*/i, /*offset=*/0, /*write=*/true, t);
        ++tagBufferOps_;
    }
    tagBufferOcc_ = 0;
    ++tagBufferFlushes_;
}

void
BansheeCache::replacePage(std::uint64_t set, unsigned way, PageNum ppn,
                          std::uint32_t count, Tick when, bool dirty)
{
    Way &w = sets_.at(set, way);
    const std::uint64_t frame = sets_.frameOf(set, way);

    if (w.valid && w.dirty) {
        // Stream the dirty victim back in the background.
        writeBackPage(frame, w.ppn, when);
        ++dirtyEvictions_;
    }

    // Background fill of the whole page; the demanded block was already
    // served off-package on the critical path by the caller.
    const Tick page_done = offPkgPageAccess(ppn, false, when);
    inPkgPageAccess(frame, true, page_done);

    w.valid = true;
    w.ppn = ppn;
    w.dirty = dirty;
    w.count = count;
    ++pageFills_;
    noteRemap(when);
}

L3Result
BansheeCache::access(Addr addr, AccessType type, CoreId core, Tick when)
{
    (void)core;
    tdc_assert(!isCaSpace(addr), "Banshee cache saw a cache address");
    const PageNum ppn = frameNumOf(addr);
    const Addr offset = pageOffset(addr);
    const bool write = isWrite(type);
    const std::uint64_t set = sets_.setOf(ppn);
    const int w = sets_.find(set, ppn);

    // Deterministic 1-in-N sampling; no per-access tag probe is paid
    // because the mapping arrived with the translation.
    const bool sampled = ++sampleTick_ % params_.sampleRate == 0;
    if (sampled)
        ++sampledEvents_;

    L3Result res;
    if (w >= 0) {
        Way &way = sets_.at(set, w);
        way.dirty |= write;
        if (sampled && ++way.count >= maxCount)
            ageSet(set);
        res.completionTick =
            inPkgBlockAccess(sets_.frameOf(set, static_cast<unsigned>(w)),
                             offset, write, when);
        res.servicedInPackage = true;
        res.l3Hit = true;
    } else {
        // Miss: the block is served straight from off-package DRAM. A
        // fill only happens when the sampled frequency of the missing
        // page beats the coldest cached way by the threshold -- cold
        // pages bypass the cache entirely.
        res.completionTick = offPkgBlockAccess(ppn, offset, write, when);
        res.servicedInPackage = false;
        res.l3Hit = false;

        // The coldest way.
        const unsigned victim =
            sets_.victim(set, [](const Way &v) { return v.count; });
        Way &vw = sets_.at(set, victim);
        if (!vw.valid) {
            // Free way: cache on first touch, no counter race needed.
            replacePage(set, victim, ppn, /*count=*/1, res.completionTick,
                        write);
        } else if (sampled) {
            Candidate &cand = cands_[set];
            if (cand.ppnP1 == ppn + 1) {
                if (++cand.count >= maxCount)
                    ageSet(set);
            } else if (cand.count > 0) {
                --cand.count; //!< frequency-sketch style decay
            } else {
                cand.ppnP1 = ppn + 1;
                cand.count = 1;
            }
            if (cand.ppnP1 == ppn + 1
                && cand.count > vw.count + params_.threshold) {
                replacePage(set, victim, ppn, cand.count,
                            res.completionTick, write);
                cands_[set] = Candidate{};
            } else {
                ++bypassedMisses_;
            }
        } else {
            ++bypassedMisses_;
        }
    }
    recordAccess(res);
    return res;
}

void
BansheeCache::writebackLine(Addr addr, CoreId core, Tick when)
{
    (void)core;
    const PageNum ppn = frameNumOf(addr);
    const Addr offset = pageOffset(addr);
    const std::uint64_t set = sets_.setOf(ppn);
    const int w = sets_.find(set, ppn);
    if (w >= 0) {
        sets_.at(set, w).dirty = true;
        inPkgBlockAccess(sets_.frameOf(set, static_cast<unsigned>(w)),
                         offset, true, when);
    } else {
        // No write-allocate for L2 victims: send straight off-package.
        offPkgBlockAccess(ppn, offset, true, when);
        ++wbMissOffPkg_;
    }
}

void
BansheeCache::saveOrgState(ckpt::Serializer &out) const
{
    sets_.save(out, [&](const Way &w) {
        out.putU64(w.ppn);
        out.putBool(w.dirty);
        out.putU32(w.count);
    });
    ckpt::putSparse(
        out, cands_.size(),
        [this](std::uint64_t s) { return cands_[s].ppnP1 != 0; },
        [&](std::uint64_t s) {
            out.putU64(cands_[s].ppnP1 - 1);
            out.putU32(cands_[s].count);
        });
    out.putU64(sampleTick_);
    out.putU64(tagBufferOcc_);
    ckpt::save(out, sampledEvents_);
    ckpt::save(out, bypassedMisses_);
    ckpt::save(out, tagBufferOps_);
    ckpt::save(out, tagBufferFlushes_);
    ckpt::save(out, wbMissOffPkg_);
}

void
BansheeCache::loadOrgState(ckpt::Deserializer &in)
{
    sets_.restore(in, "Banshee way", [&](Way &w) {
        w.ppn = in.getU64();
        w.dirty = in.getBool();
        w.count = in.getU32();
    });
    ckpt::getSparse(in, "Banshee candidate set", cands_.size(),
                    [&](std::uint64_t s) {
                        cands_[s].ppnP1 = in.getU64() + 1;
                        cands_[s].count = in.getU32();
                    });
    sampleTick_ = in.getU64();
    tagBufferOcc_ = in.getU64();
    ckpt::load(in, sampledEvents_);
    ckpt::load(in, bypassedMisses_);
    ckpt::load(in, tagBufferOps_);
    ckpt::load(in, tagBufferFlushes_);
    ckpt::load(in, wbMissOffPkg_);
    // Every dirty eviction is one page write-back.
    dirtyEvictions_.restore(pageWritebacks_.value());
}

} // namespace tdc
