#include "dramcache/tagless_cache.hh"

#include <algorithm>
#include <vector>

#include "ckpt/stats_io.hh"

namespace tdc {

TaglessCache::TaglessCache(std::string name, DramDevice &in_pkg,
                           DramDevice &off_pkg, PhysMem &phys,
                           const ClockDomain &cpu_clk,
                           const TaglessCacheParams &params)
    : DramCacheOrg(std::move(name), in_pkg, off_pkg, phys, cpu_clk),
      params_(params), gipt_(params.cacheBytes / pageBytes),
      frames_(params.cacheBytes / pageBytes)
{
    tdc_assert(params_.alphaFreeBlocks >= 1, "alpha must be >= 1");
    tdc_assert(frames_.size() < (std::uint64_t{1} << 32),
               "{} frames: the victim order links frames in 32 bits",
               frames_.size());

    // Initially the whole cache is free; the header pointer starts at
    // frame 0 and walks the frames in order.
    if (!frames_.empty())
        freeQueue_.pushRun(0, frames_.size(), 0);

    // The GIPT itself lives in ordinary (off-package) DRAM right after
    // the last usable physical page.
    giptBase_ = pageBase(phys_.offPkgPages());

    auto &sg = statGroup();
    sg.addScalar("nc_bypasses", &ncBypasses_,
                 "accesses bypassing to off-package (NC pages)");
    sg.addScalar("pu_waits", &puWaits_,
                 "TLB misses that waited on an in-flight fill");
    sg.addScalar("free_stalls", &freeStalls_,
                 "fills that waited for eviction traffic");
    sg.addScalar("shootdowns", &shootdowns_,
                 "evictions requiring TLB shootdown");
    sg.addScalar("evictions", &evictions_, "frames reclaimed");
    sg.addScalar("resident_skips", &residentSkips_,
                 "victim candidates skipped for TLB residence");
    sg.addScalar("gipt_writes", &giptWrites_);
    sg.addScalar("gipt_reads", &giptReads_);
    sg.addScalar("superpage_fills", &superpageFills_,
                 "2MB superpages cached");
    sg.addScalar("superpage_nc_fallbacks", &superpageNcFallbacks_,
                 "superpages made NC for lack of a contiguous run");
}

void
TaglessCache::linkBack(std::uint64_t frame)
{
    FrameMeta &m = frames_[frame];
    const auto p1 = static_cast<std::uint32_t>(frame + 1);
    m.prevP1 = tailP1_;
    m.nextP1 = 0;
    if (tailP1_ != 0)
        frames_[tailP1_ - 1].nextP1 = p1;
    else
        headP1_ = p1;
    tailP1_ = p1;
    ++listed_;
}

void
TaglessCache::unlink(std::uint64_t frame)
{
    FrameMeta &m = frames_[frame];
    if (m.prevP1 != 0)
        frames_[m.prevP1 - 1].nextP1 = m.nextP1;
    else
        headP1_ = m.nextP1;
    if (m.nextP1 != 0)
        frames_[m.nextP1 - 1].prevP1 = m.prevP1;
    else
        tailP1_ = m.prevP1;
    m.prevP1 = 0;
    m.nextP1 = 0;
    --listed_;
}

void
TaglessCache::touch(std::uint64_t frame)
{
    if (params_.policy != ReplPolicy::LRU || frames_[frame].pinned
        || tailP1_ == frame + 1)
        return;
    unlink(frame);
    linkBack(frame);
}

TlbMissResult
TaglessCache::handleTlbMiss(PageTable &pt, PageNum vpn, CoreId core,
                            Tick when)
{
    Pte &pte = pt.walk(vpn);
    const AsidVpn key = makeAsidVpn(pt.proc(), vpn);

    TlbMissResult res;
    res.entry.key = key;
    res.readyTick = when;

    if (pte.type == PageType::Page2M) {
        // Superpage path (Section 6): the whole 2 MiB region is cached
        // or bypassed as a unit.
        res.entry.key = makeSuperKey(pt.proc(), vpn);
        res.entry.type = PageType::Page2M;
        res.entry.frame = pte.frame;
        res.entry.nc = pte.nc || !pte.vc;
        if (pte.nc) {
            return res; // declared non-cacheable by the OS or fallback
        }
        if (pte.vc) {
            res.victimHit = false; // superpages never leave the cache
            return res;
        }
        // Try to cache it: needs an aligned free 512-frame run.
        const std::uint64_t base = reserveSuperpageRun();
        if (base == invalidPage) {
            // No contiguous space: fall back to bypassing (the "safe
            // to specify superpages as non-cacheable" escape hatch).
            pte.nc = true;
            ++superpageNcFallbacks_;
            res.entry.nc = true;
            return res;
        }
        Tick t = when;
        // GIPT updates for 512 entries: HP-sequential, row-friendly.
        for (unsigned i = 0; i < params_.giptUpdateWrites * 4; ++i) {
            const Addr a =
                alignDown(giptEntryAddr(base), cacheLineBytes)
                + static_cast<Addr>(i) * cacheLineBytes;
            t = offPkg_.access(a, cacheLineBytes, true, t)
                    .completionTick;
            ++giptWrites_;
        }
        const Tick pte_done = t;
        const PageNum old_base_ppn = pte.frame;
        for (unsigned i = 0; i < pagesPerSuperpage; ++i) {
            gipt_.install(base + i, old_base_ppn + i, &pte);
            frames_[base + i] = FrameMeta{};
            frames_[base + i].pinned = true;
            // Stream the page in: off-package reads pipeline on the
            // bus; in-package writes are posted.
            const Tick rd = offPkgPageAccess(old_base_ppn + i, false, t);
            inPkgPageAccess(base + i, true, rd);
            t = rd;
        }
        pinnedCount_ += pagesPerSuperpage;
        pte.frame = base;
        pte.vc = true;
        ++superpageFills_;
        ++pageFills_;
        res.entry.frame = base;
        res.entry.nc = false;
        res.readyTick = t;
        res.coldFill = true;
        if (fillProbe.attached())
            fillProbe.fire(obs::PageFillEvent{
                .core = core,
                .vpn = vpn,
                .frame = base,
                .start = when,
                .pteDone = pte_done,
                .copyDone = t,
                .freeStall = false,
                .superpage = true});
        return res;
    }

    if (pte.nc) {
        // Non-cacheable page: the cTLB entry keeps the physical mapping.
        res.entry.frame = pte.frame;
        res.entry.nc = true;
        return res;
    }

    if (pte.pu) {
        // Another thread's fill is in flight: busy-wait on the PU bit,
        // which clears when the frame's fill completes.
        tdc_assert(pte.vc, "PU set but mapping not yet a cache address");
        res.readyTick = std::max(when, gipt_.at(pte.frame).fillDone);
        ++puWaits_;
        res.entry.frame = pte.frame;
        res.entry.nc = false;
        return res;
    }

    if (pte.vc) {
        // In-package victim hit: the page is cached but fell out of the
        // TLB reach. No penalty beyond the TLB miss itself (Table 1).
        res.entry.frame = pte.frame;
        res.entry.nc = false;
        res.victimHit = true;
        ++victimHits_;
        touch(pte.frame);
        if (victimHitProbe.attached())
            victimHitProbe.fire(obs::VictimHitEvent{
                .core = core, .vpn = vpn, .frame = pte.frame,
                .tick = when});
        return res;
    }

    if (params_.filterEnabled && !passesFilter(key)) {
        // Cold page under probation: serve it off-package through a
        // conventional mapping; it can still be promoted by a later
        // TLB miss once it proves hot.
        ++filterRejects_;
        res.entry.frame = pte.frame;
        res.entry.nc = true;
        return res;
    }

    // Cold fill (shaded path of Figure 4).
    if (params_.filterEnabled) {
        // While the page sat under filter probation its misses were
        // served through conventional NC mappings; any such entry
        // still resident in another TLB would keep routing accesses
        // off-package after this fill moves the page in-package.
        // Promotion therefore shoots the stale translation down first.
        if (shootdown_)
            shootdown_(key);
        ++shootdowns_;
    }
    pte.pu = true;
    Tick t = when;

    if (freeQueue_.empty()) {
        // The asynchronous evictor fell behind; reclaim synchronously.
        evictOne(t);
    }
    FreeQueue::FreeBlock fb = freeQueue_.pop();
    const bool free_stalled = fb.readyTick > t;
    if (free_stalled) {
        ++freeStalls_;
        t = fb.readyTick;
    }
    const std::uint64_t frame = fb.frame;
    const Tick fill_start = t;
    if (freeQueueProbe.attached())
        freeQueueProbe.fire(obs::FreeQueueEvent{
            .tick = t,
            .depth = freeQueue_.size(),
            .push = false,
            .belowAlpha = freeQueue_.size() < params_.alphaFreeBlocks});

    // GIPT update, charged conservatively as two full off-package
    // writes (Section 3.4). HP increments by one per fill, so these
    // writes enjoy row-buffer locality automatically.
    const PageNum old_ppn = pte.frame;
    for (unsigned i = 0; i < params_.giptUpdateWrites; ++i) {
        const Addr a = alignDown(giptEntryAddr(frame), cacheLineBytes)
                       + static_cast<Addr>(i) * cacheLineBytes;
        t = offPkg_.access(a, cacheLineBytes, true, t).completionTick;
        ++giptWrites_;
    }
    gipt_.install(frame, old_ppn, &pte);
    const Tick pte_done = t;
    if (giptProbe.attached())
        giptProbe.fire(obs::GiptEvent{
            .kind = obs::GiptEvent::Kind::Install,
            .frame = frame,
            .ppn = old_ppn,
            .tick = t});

    // Cache fill: stream the page from off-package DRAM (critical path)
    // into the frame (the in-package write overlaps subsequent work).
    const Tick page_read_done = offPkgPageAccess(old_ppn, false, t);
    inPkgPageAccess(frame, true, page_read_done);
    t = page_read_done;
    ++pageFills_;

    // Rewrite the PTE with the cache address and publish. PU stays set
    // until the handler is done so the replenish scan below cannot pick
    // the page we are just filling (in hardware the cTLB entry is
    // installed before the handler returns, protecting it the same way).
    pte.frame = frame;
    pte.vc = true;
    gipt_.at(frame).fillDone = t;
    frames_[frame] = FrameMeta{};
    linkBack(frame);

    // Keep at least alpha free blocks available for the next fill.
    while (freeQueue_.size() < params_.alphaFreeBlocks)
        evictOne(t);

    pte.pu = false;

    res.entry.frame = frame;
    res.entry.nc = false;
    res.readyTick = t;
    res.coldFill = true;
    if (fillProbe.attached())
        fillProbe.fire(obs::PageFillEvent{
            .core = core,
            .vpn = vpn,
            .frame = frame,
            .start = fill_start,
            .pteDone = pte_done,
            .copyDone = page_read_done,
            .freeStall = free_stalled,
            .superpage = false});
    return res;
}

bool
TaglessCache::passesFilter(AsidVpn key)
{
    if (filterCounts_.size() >= params_.filterTableSize) {
        // Decay: halve every count and drop the ones that hit zero, so
        // the filter tracks the current phase rather than all history.
        for (auto it = filterCounts_.begin();
             it != filterCounts_.end();) {
            it->second /= 2;
            it = it->second == 0 ? filterCounts_.erase(it)
                                 : std::next(it);
        }
    }
    std::uint32_t &count = filterCounts_[key];
    if (count + 1 >= params_.filterThreshold) {
        filterCounts_.erase(key);
        return true;
    }
    ++count;
    return false;
}

std::uint64_t
TaglessCache::reserveSuperpageRun()
{
    const std::uint64_t slots = frames_.size() / pagesPerSuperpage;
    for (std::uint64_t s = 0; s < slots; ++s) {
        const std::uint64_t base = s * pagesPerSuperpage;
        bool all_free = true;
        for (unsigned i = 0; i < pagesPerSuperpage && all_free; ++i)
            all_free = !gipt_.at(base + i).valid();
        if (!all_free)
            continue;
        // Claim the run: drop the frames from the free queue. The
        // caller maps them.
        freeQueue_.remove(base, base + pagesPerSuperpage);
        return base;
    }
    return invalidPage;
}

Tick
TaglessCache::releaseSuperpage(PageTable &pt, PageNum base_vpn,
                               Tick when)
{
    Pte *pte = pt.findSuperpage(base_vpn);
    tdc_assert(pte != nullptr, "no superpage at vpn {}", base_vpn);
    tdc_assert(pte->vc, "superpage at vpn {} is not cached", base_vpn);
    const std::uint64_t base = pte->frame;
    const PageNum old_base_ppn = gipt_.at(base).ppn;

    // Drop the translation everywhere before unpinning (shared-cache
    // consistency, Section 6: TLB shootdown on eviction).
    if (shootdown_)
        shootdown_(makeSuperKey(pte->proc, base_vpn));
    ++shootdowns_;

    Tick bt = when;
    for (unsigned i = 0; i < pagesPerSuperpage; ++i) {
        const std::uint64_t f = base + i;
        bt = flushOnDie(f, bt);
        if (frames_[f].dirty)
            bt = writeBackPage(f, old_base_ppn + i, bt);
        gipt_.invalidate(f);
        frames_[f] = FrameMeta{};
        freeQueue_.push(f, bt);
        ++evictions_;
        if (freeQueueProbe.attached())
            freeQueueProbe.fire(obs::FreeQueueEvent{
                .tick = bt,
                .depth = freeQueue_.size(),
                .push = true,
                .belowAlpha =
                    freeQueue_.size() < params_.alphaFreeBlocks});
    }
    tdc_assert(pinnedCount_ >= pagesPerSuperpage,
               "pinned-frame underflow");
    pinnedCount_ -= pagesPerSuperpage;

    pte->vc = false;
    pte->frame = old_base_ppn;
    return bt;
}

std::uint64_t
TaglessCache::pickVictim()
{
    tdc_assert(listed_ != 0, "no victim candidates");
    // One pass from the front. A blocked frame -- hot within the TLB
    // reach, mid-fill or pinned -- moves to the back and the scan goes
    // on (the paper only evicts non-resident blocks).
    for (std::uint64_t i = 0, n = listed_; i < n; ++i) {
        const std::uint64_t f = orderFront();
        unlink(f);
        if (!evictionBlocked(f))
            return f;
        linkBack(f);
        ++residentSkips_;
    }
    // Everything is TLB-resident (tiny cache / huge TLB reach): evict
    // the frontmost frame anyway, after shooting its translation down.
    // Frames mid-fill (PU set) stay protected even here.
    for (std::uint64_t i = 0, n = listed_; i < n; ++i) {
        const std::uint64_t f = orderFront();
        unlink(f);
        if (!gipt_.at(f).ptep->pu) {
            forceShootdown(f);
            return f;
        }
        linkBack(f);
    }
    tdc_panic("no evictable frame in tagless cache");
}

void
TaglessCache::forceShootdown(std::uint64_t frame)
{
    Gipt::Entry &g = gipt_.at(frame);
    tdc_assert(g.ptep != nullptr, "shootdown of unmapped frame");
    tdc_assert(!g.ptep->pu, "shootdown of frame mid-fill");
    ++shootdowns_;
    lastVictimForced_ = true;
    if (shootdown_)
        shootdown_(makeAsidVpn(g.ptep->proc, g.ptep->vpn));
    tdc_assert(!g.residentAnywhere(),
               "frame still TLB-resident after shootdown");
}

Tick
TaglessCache::flushOnDie(std::uint64_t frame, Tick when)
{
    // Flush CA-tagged lines of the departing page from the on-die
    // caches; dirty ones must land in the frame before the copy-out.
    if (!invalidator_)
        return when;
    FrameMeta &meta = frames_[frame];
    const unsigned dirty_lines =
        invalidator_(caAddr(frame, 0), meta.cores, meta.lines);
    if (dirty_lines == 0)
        return when;
    meta.dirty = true;
    return inPkg_
        .access(pageBase(frame),
                std::uint64_t{dirty_lines} * cacheLineBytes, true, when)
        .completionTick;
}

void
TaglessCache::evictOne(Tick when)
{
    lastVictimForced_ = false;
    const std::uint64_t frame = pickVictim();
    Gipt::Entry &g = gipt_.at(frame);
    tdc_assert(g.valid(), "evicting unoccupied frame {}", frame);

    // All of the following is off the access critical path (the free
    // queue is drained asynchronously); `bt` tracks background traffic.
    Tick bt = when;

    // GIPT lookup to recover the PPN and the PTE pointer.
    bt = offPkg_
             .access(alignDown(giptEntryAddr(frame), cacheLineBytes),
                     cacheLineBytes, false, bt)
             .completionTick;
    ++giptReads_;

    bt = flushOnDie(frame, bt);

    // Dirty pages stream back to off-package DRAM.
    if (frames_[frame].dirty)
        bt = writeBackPage(frame, g.ppn, bt);

    // Restore the physical mapping in the PTE.
    Pte &pte = *g.ptep;
    tdc_assert(pte.vc && pte.frame == frame,
               "PTE/GIPT mismatch on eviction");
    pte.vc = false;
    pte.frame = g.ppn;

    const PageNum old_ppn = g.ppn;
    const bool was_dirty = frames_[frame].dirty;
    gipt_.invalidate(frame);
    frames_[frame] = FrameMeta{};
    freeQueue_.push(frame, bt);
    ++evictions_;
    if (giptProbe.attached())
        giptProbe.fire(obs::GiptEvent{
            .kind = obs::GiptEvent::Kind::Invalidate,
            .frame = frame,
            .ppn = old_ppn,
            .tick = bt});
    if (freeQueueProbe.attached())
        freeQueueProbe.fire(obs::FreeQueueEvent{
            .tick = bt,
            .depth = freeQueue_.size(),
            .push = true,
            .belowAlpha =
                freeQueue_.size() < params_.alphaFreeBlocks});
    if (evictProbe.attached())
        evictProbe.fire(obs::EvictionEvent{
            .frame = frame,
            .ppn = old_ppn,
            .start = when,
            .end = bt,
            .dirty = was_dirty,
            .shootdown = lastVictimForced_,
            .freeDepth = freeQueue_.size()});
}

L3Result
TaglessCache::access(Addr addr, AccessType type, CoreId core, Tick when)
{
    const bool write = isWrite(type);
    L3Result res;

    if (isCaSpace(addr)) {
        const std::uint64_t frame = frameNumOf(addr);
        // The tagless guarantee: a cTLB translation always points at an
        // occupied frame, so this access needs no membership check.
        tdc_assert(gipt_.at(frame).valid(),
                   "CA access to unoccupied frame {}", frame);
        // Every on-die copy of a CA line enters through here (an L2
        // miss), so the masks name every core and line to flush.
        FrameMeta &meta = frames_[frame];
        meta.dirty |= write;
        meta.cores |= static_cast<std::uint8_t>(1u << core);
        meta.lines |= std::uint64_t{1} << (pageOffset(addr) >> cacheLineBits);
        touch(frame);
        res.completionTick =
            inPkgBlockAccess(frame, pageOffset(addr), write, when);
        res.servicedInPackage = true;
        res.l3Hit = true;
    } else {
        // Non-cacheable page: straight to off-package DRAM.
        ++ncBypasses_;
        res.completionTick = offPkgBlockAccess(
            frameNumOf(addr), pageOffset(addr), write, when);
        res.servicedInPackage = false;
        res.l3Hit = false;
    }
    recordAccess(res);
    return res;
}

void
TaglessCache::writebackLine(Addr addr, CoreId core, Tick when)
{
    (void)core;
    if (isCaSpace(addr)) {
        const std::uint64_t frame = frameNumOf(addr);
        tdc_assert(gipt_.at(frame).valid(),
                   "CA writeback to unoccupied frame {}", frame);
        frames_[frame].dirty = true;
        inPkgBlockAccess(frame, pageOffset(addr), true, when);
    } else {
        offPkgBlockAccess(frameNumOf(addr), pageOffset(addr), true, when);
    }
}

void
TaglessCache::onTlbResidence(const TlbEntry &entry, CoreId core,
                             bool resident)
{
    if (entry.nc)
        return; // physical mapping: not an in-package frame
    if (entry.type == PageType::Page2M)
        return; // superpages are pinned; residence tracking unneeded
    const std::uint64_t frame = entry.frame;
    if (!gipt_.at(frame).valid())
        return; // raced with an eviction path that already cleaned up
    if (resident)
        gipt_.addResidence(frame, core);
    else
        gipt_.removeResidence(frame, core);
}

void
TaglessCache::saveOrgState(ckpt::Serializer &out) const
{
    out.putU64(frames_.size());
    // Mapped frames. The PTEP pointer is serialized as the PTE's
    // (proc, type, vpn) identity and re-resolved against the restored
    // page tables at load time.
    ckpt::putSparse(
        out, gipt_.frames(),
        [this](std::uint64_t f) { return gipt_.at(f).valid(); },
        [&](std::uint64_t f) {
            const Gipt::Entry &g = gipt_.at(f);
            out.putU64(g.ppn);
            for (std::uint16_t r : g.residence)
                out.putU16(r);
            out.putU32(g.ptep->proc);
            out.putU8(static_cast<std::uint8_t>(g.ptep->type));
            out.putU64(g.ptep->vpn);
            out.putU64(g.fillDone);
            const FrameMeta &m = frames_[f];
            out.putBool(m.dirty);
            out.putBool(m.pinned);
        });

    out.putU64(freeQueue_.runCount());
    for (std::size_t i = 0; i < freeQueue_.runCount(); ++i) {
        const FreeQueue::Run &r = freeQueue_.run(i);
        out.putU64(r.first);
        out.putU64(r.count);
        out.putU64(r.readyTick);
    }

    out.putU64(listed_);
    for (std::uint64_t f = orderFront(); f != invalidPage; f = orderNext(f))
        out.putU64(f);

    // The format fixes the filter counts in key order.
    std::vector<std::pair<AsidVpn, std::uint32_t>> counts(
        filterCounts_.begin(), filterCounts_.end());
    std::sort(counts.begin(), counts.end());
    out.putU64(counts.size());
    for (const auto &[key, count] : counts) {
        out.putU64(key);
        out.putU32(count);
    }

    out.putBool(lastVictimForced_);

    ckpt::save(out, ncBypasses_);
    ckpt::save(out, puWaits_);
    ckpt::save(out, freeStalls_);
    ckpt::save(out, shootdowns_);
    ckpt::save(out, evictions_);
    ckpt::save(out, residentSkips_);
    ckpt::save(out, giptWrites_);
    ckpt::save(out, giptReads_);
    ckpt::save(out, superpageFills_);
    ckpt::save(out, superpageNcFallbacks_);
    ckpt::save(out, filterRejects_);
}

void
TaglessCache::loadOrgState(ckpt::Deserializer &in)
{
    tdc_assert(pteResolver_,
               "tagless cache restore requires a PTE resolver");
    const std::uint64_t nframes = in.getU64();
    if (nframes != frames_.size())
        fatal("checkpoint: {} frames for {}, which has {}", nframes,
              name(), frames_.size());

    // A freshly built cache has every frame unmapped with all of its
    // state zero, so only the listed frames are written.
    tdc_assert(listed_ == 0 && freeQueue_.size() == nframes,
               "tagless cache restore needs a freshly built cache");
    freeQueue_ = FreeQueue{};
    std::vector<std::uint64_t> mapped;
    ckpt::getSparse(in, "tagless frame", nframes, [&](std::uint64_t f) {
        Gipt::Entry &g = gipt_.at(f);
        g.ppn = in.getU64();
        for (std::uint16_t &r : g.residence)
            r = in.getU16();
        const ProcId proc = in.getU32();
        const auto type = static_cast<PageType>(in.getU8());
        const PageNum vpn = in.getU64();
        g.ptep = pteResolver_(proc, type, vpn);
        if (g.ptep == nullptr)
            fatal("checkpoint: GIPT frame {} names PTE (proc {}, vpn "
                  "{}), which the page tables do not hold", f, proc, vpn);
        const std::uint64_t base = g.ptep->frame;
        const bool maps_back =
            g.ptep->vc
            && (g.ptep->type == PageType::Page2M
                    ? f >= base && f - base < pagesPerSuperpage
                    : f == base);
        if (!maps_back)
            fatal("checkpoint: GIPT frame {} names PTE (proc {}, vpn "
                  "{}), which does not map back to it", f, proc, vpn);
        g.fillDone = in.getU64();
        FrameMeta &m = frames_[f];
        m.dirty = in.getBool();
        m.pinned = in.getBool();
        // The access masks are not checkpointed: until the frame turns
        // over, any core and any line may hold a copy.
        m.cores = 0xff;
        m.lines = ~std::uint64_t{0};
        pinnedCount_ += m.pinned ? 1 : 0;
        mapped.push_back(f);
    });

    // Free runs: in range, disjoint from each other and from the
    // mapped frames, and with them covering the whole cache.
    const std::uint64_t nruns = in.getU64();
    std::vector<FreeQueue::Run> spans;
    for (std::uint64_t i = 0; i < nruns; ++i) {
        const std::uint64_t first = in.getU64();
        const std::uint64_t count = in.getU64();
        const Tick ready = in.getU64();
        if (count == 0 || first >= nframes || count > nframes - first)
            fatal("checkpoint: tagless free-queue run [{}, +{}) is "
                  "empty or out of range ({} frames)", first, count,
                  nframes);
        freeQueue_.pushRun(first, count, ready);
        spans.push_back(FreeQueue::Run{first, count, ready});
    }
    std::sort(spans.begin(), spans.end(),
              [](const FreeQueue::Run &a, const FreeQueue::Run &b) {
                  return a.first < b.first;
              });
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const FreeQueue::Run &r = spans[i];
        if (i > 0 && r.first < spans[i - 1].end())
            fatal("checkpoint: tagless free-queue runs [{}, {}) and "
                  "[{}, {}) overlap", spans[i - 1].first,
                  spans[i - 1].end(), r.first, r.end());
        const auto m = std::lower_bound(mapped.begin(), mapped.end(),
                                        r.first);
        if (m != mapped.end() && *m < r.end())
            fatal("checkpoint: tagless free-queue run [{}, {}) overlaps "
                  "mapped frame {}", r.first, r.end(), *m);
    }
    if (mapped.size() + freeQueue_.size() != nframes)
        fatal("checkpoint: tagless cache has {} mapped and {} free of "
              "{} frames", mapped.size(), freeQueue_.size(), nframes);

    // The victim order: every mapped, unpinned frame exactly once.
    const std::uint64_t nlisted = in.getU64();
    for (std::uint64_t i = 0; i < nlisted; ++i) {
        const std::uint64_t f = in.getU64();
        if (f >= nframes)
            fatal("checkpoint: tagless victim-order frame {} out of "
                  "range ({} frames)", f, nframes);
        if (!gipt_.at(f).valid() || frames_[f].pinned)
            fatal("checkpoint: tagless victim-order frame {} is {}", f,
                  frames_[f].pinned ? "pinned" : "unmapped");
        if (listed(f))
            fatal("checkpoint: tagless victim-order frame {} listed "
                  "twice", f);
        linkBack(f);
    }
    if (listed_ != mapped.size() - pinnedCount_)
        fatal("checkpoint: tagless victim order lists {} of the {} "
              "mapped unpinned frames", listed_,
              mapped.size() - pinnedCount_);

    const std::uint64_t ncounts = in.getU64();
    for (std::uint64_t i = 0; i < ncounts; ++i) {
        const AsidVpn key = in.getU64();
        filterCounts_[key] = in.getU32();
    }

    lastVictimForced_ = in.getBool();

    ckpt::load(in, ncBypasses_);
    ckpt::load(in, puWaits_);
    ckpt::load(in, freeStalls_);
    ckpt::load(in, shootdowns_);
    ckpt::load(in, evictions_);
    ckpt::load(in, residentSkips_);
    ckpt::load(in, giptWrites_);
    ckpt::load(in, giptReads_);
    ckpt::load(in, superpageFills_);
    ckpt::load(in, superpageNcFallbacks_);
    ckpt::load(in, filterRejects_);
}

} // namespace tdc
