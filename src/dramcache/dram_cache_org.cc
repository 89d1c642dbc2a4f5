#include "dramcache/dram_cache_org.hh"

#include "ckpt/stats_io.hh"

namespace tdc {

DramCacheOrg::DramCacheOrg(std::string name, DramDevice &in_pkg,
                           DramDevice &off_pkg, PhysMem &phys,
                           const ClockDomain &cpu_clk)
    : SimObject(std::move(name)), inPkg_(in_pkg), offPkg_(off_pkg),
      phys_(phys), cpuClk_(cpu_clk)
{
    auto &sg = statGroup();
    sg.addScalar("accesses", &accesses_, "64B demand accesses after L2");
    sg.addScalar("hits_in_pkg", &hitsInPkg_, "serviced in-package");
    sg.addScalar("misses_off_pkg", &missesOffPkg_, "serviced off-package");
    sg.addScalar("page_fills", &pageFills_, "4KB fills from off-package");
    sg.addScalar("page_writebacks", &pageWritebacks_,
                 "4KB dirty evictions to off-package");
    sg.addScalar("victim_hits", &victimHits_,
                 "TLB misses resolved in-package");
}

TlbMissResult
DramCacheOrg::handleTlbMiss(PageTable &pt, PageNum vpn, CoreId core,
                            Tick when)
{
    // Conventional path: the walk yields a physical mapping; the cache
    // (if any) is managed on the access path, not here.
    (void)core;
    Pte &pte = pt.walk(vpn);
    TlbMissResult res;
    res.entry.key = makeAsidVpn(pt.proc(), vpn);
    res.entry.frame = pte.frame;
    res.entry.nc = true; // physical mapping
    res.readyTick = when;
    return res;
}

void
DramCacheOrg::writebackLine(Addr addr, CoreId core, Tick when)
{
    // Default: treat as a timed store that nobody waits for.
    access(addr, AccessType::Store, core, when);
}

void
DramCacheOrg::onTlbResidence(const TlbEntry &entry, CoreId core,
                             bool resident)
{
    (void)entry;
    (void)core;
    (void)resident;
}

void
DramCacheOrg::saveState(ckpt::Serializer &out) const
{
    ckpt::save(out, accesses_);
    ckpt::save(out, hitsInPkg_);
    ckpt::save(out, missesOffPkg_);
    ckpt::save(out, pageFills_);
    ckpt::save(out, pageWritebacks_);
    ckpt::save(out, victimHits_);
    saveOrgState(out);
}

void
DramCacheOrg::loadState(ckpt::Deserializer &in)
{
    ckpt::load(in, accesses_);
    ckpt::load(in, hitsInPkg_);
    ckpt::load(in, missesOffPkg_);
    ckpt::load(in, pageFills_);
    ckpt::load(in, pageWritebacks_);
    ckpt::load(in, victimHits_);
    loadOrgState(in);
}

Tick
DramCacheOrg::offPkgBlockAccess(PageNum ppn, Addr offset, bool is_write,
                                Tick when)
{
    const Addr dev = phys_.deviceAddr(ppn) + alignDown(offset,
                                                       cacheLineBytes);
    if (is_write)
        return offPkg_.postedWrite(dev, cacheLineBytes, when)
            .completionTick;
    return offPkg_.access(dev, cacheLineBytes, false, when)
        .completionTick;
}

Tick
DramCacheOrg::inPkgBlockAccess(std::uint64_t frame, Addr offset,
                               bool is_write, Tick when)
{
    const Addr dev = pageBase(frame) + alignDown(offset, cacheLineBytes);
    if (is_write)
        return inPkg_.postedWrite(dev, cacheLineBytes, when)
            .completionTick;
    return inPkg_.access(dev, cacheLineBytes, false, when)
        .completionTick;
}

Tick
DramCacheOrg::offPkgPageAccess(PageNum ppn, bool is_write, Tick when)
{
    // Page reads (fills) are demand traffic and fully modeled; page
    // writes (write-backs) drain from the write buffer with demand
    // priority, so they are posted.
    if (is_write)
        return offPkg_.postedWrite(phys_.deviceAddr(ppn), pageBytes, when)
            .completionTick;
    return offPkg_.access(phys_.deviceAddr(ppn), pageBytes, false, when)
        .completionTick;
}

Tick
DramCacheOrg::inPkgPageAccess(std::uint64_t frame, bool is_write,
                              Tick when)
{
    // Fill writes into the cache are buffered and forwarded: demand
    // reads to the arriving page must not queue behind the bulk write.
    if (is_write)
        return inPkg_.postedWrite(pageBase(frame), pageBytes, when)
            .completionTick;
    return inPkg_.access(pageBase(frame), pageBytes, false, when)
        .completionTick;
}

Tick
DramCacheOrg::writeBackPage(std::uint64_t frame, PageNum ppn, Tick when)
{
    ++pageWritebacks_;
    return offPkgPageAccess(ppn, true, inPkgPageAccess(frame, false, when));
}

} // namespace tdc
