#include "dramcache/ideal_cache.hh"

namespace tdc {

L3Result
IdealCache::access(Addr addr, AccessType type, CoreId core, Tick when)
{
    (void)core;
    // Fold the physical page into the in-package device's capacity;
    // the ideal model pretends capacity is unbounded.
    const std::uint64_t dev_pages =
        inPkg_.timing().capacityBytes / pageBytes;
    const std::uint64_t frame = frameNumOf(addr) % dev_pages;
    const Addr line = alignDown(pageOffset(addr), cacheLineBytes);

    L3Result res;
    const Addr dev = pageBase(frame) + line;
    res.completionTick =
        isWrite(type)
            ? inPkg_.postedWrite(dev, cacheLineBytes, when).completionTick
            : inPkg_.access(dev, cacheLineBytes, false, when)
                  .completionTick;
    res.servicedInPackage = true;
    res.l3Hit = true;
    recordAccess(res);
    return res;
}

} // namespace tdc
