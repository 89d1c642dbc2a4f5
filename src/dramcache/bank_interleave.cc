#include "dramcache/bank_interleave.hh"

namespace tdc {

L3Result
BankInterleave::access(Addr addr, AccessType type, CoreId core, Tick when)
{
    (void)core;
    tdc_assert(!isCaSpace(addr), "BI saw a cache address");
    const PageNum ppn = frameNumOf(addr);
    const Addr line = alignDown(pageOffset(addr), cacheLineBytes);
    const bool write = isWrite(type);

    L3Result res;
    const Addr dev = phys_.deviceAddr(ppn) + line;
    DramDevice &mem =
        phys_.regionOf(ppn) == MemRegion::InPackage ? inPkg_ : offPkg_;
    res.completionTick =
        write ? mem.postedWrite(dev, cacheLineBytes, when).completionTick
              : mem.access(dev, cacheLineBytes, false, when)
                    .completionTick;
    if (&mem == &inPkg_) {
        res.servicedInPackage = true;
        res.l3Hit = true;
    }
    recordAccess(res);
    return res;
}

} // namespace tdc
