#include "core/memory_system.hh"

#include <bit>

#include "ckpt/stats_io.hh"
#include "common/bitops.hh"
#include "dramcache/org_dispatch.hh"

namespace tdc {

MemorySystem::MemorySystem(std::string name, CoreId core,
                           const CoreParams &params, const ClockDomain &clk,
                           PageTable &pt, DramCacheOrg &org)
    : SimObject(std::move(name)), core_(core), params_(params), clk_(clk),
      pt_(pt), org_(org)
{
    const std::string &n = this->name();
    itlb_ = std::make_unique<Tlb>(n + ".itlb", params.l1ItlbEntries);
    dtlb_ = std::make_unique<Tlb>(n + ".dtlb", params.l1DtlbEntries);
    l2tlb_ = std::make_unique<Tlb>(n + ".l2tlb", params.l2TlbEntries);
    l1i_ = std::make_unique<SramCache>(n + ".l1i", params.l1i);
    l1d_ = std::make_unique<SramCache>(n + ".l1d", params.l1d);
    l2_ = std::make_unique<SramCache>(n + ".l2", params.l2);
    tdc_assert(params.l1i.lineBytes == cacheLineBytes
                   && params.l1d.lineBytes == cacheLineBytes
                   && params.l2.lineBytes == cacheLineBytes,
               "page flushes address {}-byte lines", cacheLineBytes);

    // Residence listeners keep the GIPT's TLB bit vector exact; the
    // direct listener avoids a std::function hop per insert/evict.
    itlb_->setResidenceListener(&org_, core_);
    dtlb_->setResidenceListener(&org_, core_);
    l2tlb_->setResidenceListener(&org_, core_);

    auto &sg = statGroup();
    sg.addScalar("tlb_full_misses", &tlbFullMisses_,
                 "misses requiring a page walk");
    sg.addScalar("victim_hits", &victimHits_);
    sg.addScalar("cold_fills", &coldFills_);
    sg.addAverage("l3_latency_cycles", &l3LatencyCycles_,
                  "mean post-L2-miss latency");
    sg.addAverage("tlb_miss_penalty_cycles", &tlbMissPenaltyCycles_);
    sg.addChild(&itlb_->statGroup());
    sg.addChild(&dtlb_->statGroup());
    sg.addChild(&l2tlb_->statGroup());
    sg.addChild(&l1i_->statGroup());
    sg.addChild(&l1d_->statGroup());
    sg.addChild(&l2_->statGroup());
}

std::pair<TlbEntry, Tick>
MemorySystem::translate(AsidVpn key, bool ifetch, Tick when)
{
    Tlb &l1tlb = ifetch ? *itlb_ : *dtlb_;
    // Probe the 2MB granularity only when the process uses superpages;
    // hardware probes both granularities in parallel anyway. The common
    // (no-superpage) path never computes the super key at all.
    const bool use_super = pt_.hasSuperpages();
    const AsidVpn super_key =
        use_super ? makeSuperKey(pt_.proc(), vpnOf(key)) : 0;

    if (auto hit = l1tlb.lookup(key))
        return {*hit, when};
    if (use_super) {
        if (auto hit = l1tlb.lookup(super_key))
            return {*hit, when};
    }

    for (unsigned probe = 0; probe < (use_super ? 2u : 1u); ++probe) {
        if (auto hit = l2tlb_->lookup(probe == 0 ? key : super_key)) {
            // L2 TLB hit: refill the L1 TLB.
            Tick t = when + clk_.cyclesToTicks(params_.l2TlbHitPenalty);
            l1tlb.insert(*hit);
            return {*hit, t};
        }
    }

    // Full miss: page walk, then the organization's miss handler (for
    // the tagless cache this is where fills and PTE rewriting happen).
    ++tlbFullMisses_;
    Tick t = when + clk_.cyclesToTicks(params_.pageWalkCycles);
    const TlbMissResult res =
        org_.handleTlbMiss(pt_, vpnOf(key), core_, t);
    if (res.victimHit)
        ++victimHits_;
    if (res.coldFill)
        ++coldFills_;
    tlbMissPenaltyCycles_.sample(static_cast<double>(
        clk_.ticksToCycles(res.readyTick - when)));
    if (tlbMissProbe.attached())
        tlbMissProbe.fire(obs::TlbMissEvent{
            .core = core_,
            .vpn = vpnOf(key),
            .start = when,
            .walkDone = t,
            .end = res.readyTick,
            .victimHit = res.victimHit,
            .coldFill = res.coldFill,
            .bypass = res.entry.nc});
    l2tlb_->insert(res.entry);
    l1tlb.insert(res.entry);
    return {res.entry, res.readyTick};
}

MemAccessResult
MemorySystem::access(Addr vaddr, AccessType type, Tick when)
{
    const bool ifetch = type == AccessType::InstFetch;
    const AsidVpn key = makeAsidVpn(pt_.proc(), pageOf(vaddr));

    MemAccessResult out;

    auto [entry, t] = translate(key, ifetch, when);
    out.tlbMiss = t > when; // any level beyond the L1 TLB

    // Frame-space address: cache address for cached pages, physical
    // address for NC pages and conventional organizations. Superpage
    // entries map a contiguous 512-frame run.
    Addr frame = entry.frame;
    if (entry.type == PageType::Page2M)
        frame += pageOf(vaddr) % pagesPerSuperpage;
    const Addr fa = entry.nc ? paAddr(frame, pageOffset(vaddr))
                             : caAddr(frame, pageOffset(vaddr));

    SramCache &l1 = ifetch ? *l1i_ : *l1d_;
    const bool write = isWrite(type);

    const CacheAccessOutcome l1_out = l1.access(fa, write);
    if (l1_out.writebackAddr != invalidAddr) {
        // L1 victim drains into the L2 (functional; timing folded into
        // the pipelined write-back path).
        const CacheAccessOutcome wb = l2_->access(l1_out.writebackAddr,
                                                  true);
        if (wb.writebackAddr != invalidAddr)
            org_.writebackLine(wb.writebackAddr, core_, t);
    }
    t += clk_.cyclesToTicks(l1.hitLatency());
    if (l1_out.hit) {
        out.l1Hit = true;
        out.completionTick = t;
        return out;
    }

    // The demand fill enters the L2 clean even for stores: only the L1
    // copy is dirtied; the L2 copy becomes dirty when the L1 victim
    // drains into it.
    const CacheAccessOutcome l2_out = l2_->access(fa, false);
    if (l2_out.writebackAddr != invalidAddr)
        org_.writebackLine(l2_out.writebackAddr, core_, t);
    t += clk_.cyclesToTicks(l2_->hitLatency());
    if (l2_out.hit) {
        out.l2Hit = true;
        out.completionTick = t;
        return out;
    }

    // L3 (the DRAM cache organization under evaluation).
    out.reachedL3 = true;
    const L3Result l3 = dispatchL3Access(org_, fa, type, core_, t);
    l3LatencyCycles_.sample(
        static_cast<double>(clk_.ticksToCycles(l3.completionTick - t)));
    out.completionTick = l3.completionTick;
    return out;
}

std::uint64_t
MemorySystem::invalidatePage(Addr page_addr, std::uint64_t lines)
{
    const Addr page = alignDown(page_addr, pageBytes);
    std::uint64_t dirty = 0;
    for (; lines != 0; lines &= lines - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(lines));
        const Addr a = page + Addr{i} * cacheLineBytes;
        // `|`, not `||`: every level must drop its copy.
        const bool d = l1i_->invalidateLine(a) | l1d_->invalidateLine(a)
                       | l2_->invalidateLine(a);
        dirty |= std::uint64_t{d} << i;
    }
    return dirty;
}

void
MemorySystem::shootdown(AsidVpn key)
{
    itlb_->invalidate(key);
    dtlb_->invalidate(key);
    l2tlb_->invalidate(key);
}

void
MemorySystem::saveState(ckpt::Serializer &out) const
{
    itlb_->saveState(out);
    dtlb_->saveState(out);
    l2tlb_->saveState(out);
    l1i_->saveState(out);
    l1d_->saveState(out);
    l2_->saveState(out);
    ckpt::save(out, tlbFullMisses_);
    ckpt::save(out, victimHits_);
    ckpt::save(out, coldFills_);
    ckpt::save(out, l3LatencyCycles_);
    ckpt::save(out, tlbMissPenaltyCycles_);
}

void
MemorySystem::loadState(ckpt::Deserializer &in)
{
    itlb_->loadState(in);
    dtlb_->loadState(in);
    l2tlb_->loadState(in);
    l1i_->loadState(in);
    l1d_->loadState(in);
    l2_->loadState(in);
    ckpt::load(in, tlbFullMisses_);
    ckpt::load(in, victimHits_);
    ckpt::load(in, coldFills_);
    ckpt::load(in, l3LatencyCycles_);
    ckpt::load(in, tlbMissPenaltyCycles_);
}

} // namespace tdc
