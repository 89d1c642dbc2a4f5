#include "dramcache/alloy_cache.hh"

#include "ckpt/stats_io.hh"

namespace tdc {

AlloyCache::AlloyCache(std::string name, DramDevice &in_pkg,
                       DramDevice &off_pkg, PhysMem &phys,
                       const ClockDomain &cpu_clk,
                       const AlloyCacheParams &params)
    : DramCacheOrg(std::move(name), in_pkg, off_pkg, phys, cpu_clk),
      params_(params)
{
    numSlots_ = params_.cacheBytes / params_.tadBytes;
    linesP1_.reset(numSlots_);
    state_.reset(numSlots_);
    statGroup().addScalar("dirty_evictions", &dirtyEvictions_);
}

L3Result
AlloyCache::access(Addr addr, AccessType type, CoreId core, Tick when)
{
    (void)core;
    tdc_assert(!isCaSpace(addr), "Alloy cache saw a cache address");
    const std::uint64_t line = lineOf(addr);
    const std::uint64_t slot = slotOf(line);
    const bool write = isWrite(type);

    // One TAD burst reads tag and data together. Keep the burst within
    // a row: clamp to the row containing the slot start.
    const Addr dev = slotAddr(slot);
    const Addr row_end = alignUp(dev + 1, inPkg_.timing().rowBytes);
    const std::uint64_t burst =
        std::min<std::uint64_t>(params_.tadBytes, row_end - dev);
    const Tick probe =
        inPkg_.access(dev, burst, false, when).completionTick;

    L3Result res;
    if ((state_[slot] & stValid) && linesP1_[slot] == line + 1) {
        if (write) {
            state_[slot] |= stDirty;
            inPkg_.postedWrite(dev, cacheLineBytes, probe);
        }
        res.completionTick = probe;
        res.servicedInPackage = true;
        res.l3Hit = true;
    } else {
        // Conflict miss: fetch the block off-package, evicting the slot.
        if ((state_[slot] & (stValid | stDirty)) == (stValid | stDirty)) {
            const std::uint64_t old = linesP1_[slot] - 1;
            offPkgBlockAccess(old >> (pageBits - cacheLineBits),
                              (old << cacheLineBits) & mask(pageBits),
                              true, probe);
            ++dirtyEvictions_;
        }
        const Tick fetched = offPkgBlockAccess(
            frameNumOf(addr), pageOffset(addr), false, probe);
        inPkg_.postedWrite(dev, burst, fetched); // background install
        linesP1_[slot] = line + 1;
        state_[slot] = write ? (stValid | stDirty) : stValid;
        res.completionTick = fetched;
        res.servicedInPackage = false;
        res.l3Hit = false;
    }
    recordAccess(when, res);
    return res;
}

void
AlloyCache::writebackLine(Addr addr, CoreId core, Tick when)
{
    (void)core;
    const std::uint64_t line = lineOf(addr);
    const std::uint64_t slot = slotOf(line);
    if ((state_[slot] & stValid) && linesP1_[slot] == line + 1) {
        state_[slot] |= stDirty;
        inPkg_.postedWrite(slotAddr(slot), cacheLineBytes, when);
    } else {
        offPkgBlockAccess(frameNumOf(addr), pageOffset(addr), true, when);
    }
}

void
AlloyCache::saveOrgState(ckpt::Serializer &out) const
{
    out.putU64(numSlots_);
    ckpt::putSparse(
        out, numSlots_,
        [this](std::uint64_t i) { return (state_[i] & stValid) != 0; },
        [&](std::uint64_t i) {
            out.putU64(linesP1_[i] - 1);
            out.putBool((state_[i] & stDirty) != 0);
        });
    ckpt::save(out, dirtyEvictions_);
}

void
AlloyCache::loadOrgState(ckpt::Deserializer &in)
{
    const std::uint64_t n = in.getU64();
    tdc_assert(n == numSlots_,
               "Alloy cache geometry mismatch on checkpoint restore");
    ckpt::getSparse(in, "Alloy slot", n, [&](std::uint64_t i) {
        linesP1_[i] = in.getU64() + 1;
        state_[i] = in.getBool() ? (stValid | stDirty) : stValid;
    });
    ckpt::load(in, dirtyEvictions_);
}

} // namespace tdc
