#include "dramcache/no_l3.hh"

namespace tdc {

L3Result
NoL3::access(Addr addr, AccessType type, CoreId core, Tick when)
{
    (void)core;
    tdc_assert(!isCaSpace(addr), "NoL3 saw a cache address");
    L3Result res;
    res.completionTick = offPkgBlockAccess(frameNumOf(addr),
                                           pageOffset(addr),
                                           isWrite(type), when);
    res.servicedInPackage = false;
    res.l3Hit = false;
    recordAccess(res);
    return res;
}

} // namespace tdc
