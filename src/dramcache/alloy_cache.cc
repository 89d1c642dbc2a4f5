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
    physLines_ = (phys.offPkgPages() + phys.inPkgPages())
                 << (pageBits - cacheLineBits);
    // The largest line's tag, (physLines_ - 1) / numSlots_ + 1, must
    // fit in the slot word.
    const std::uint64_t min_slots = (physLines_ - 1) / tagMask + 1;
    if (numSlots_ < min_slots)
        fatal("Alloy cache of {} bytes has {} slots; a 15-bit tag over "
              "{} bytes of physical memory needs at least {} ({} bytes)",
              params_.cacheBytes, numSlots_,
              physLines_ << cacheLineBits, min_slots,
              min_slots * params_.tadBytes);
    slots_.reset(numSlots_);
    statGroup().addScalar("dirty_evictions", &dirtyEvictions_);
}

L3Result
AlloyCache::access(Addr addr, AccessType type, CoreId core, Tick when)
{
    (void)core;
    tdc_assert(!isCaSpace(addr), "Alloy cache saw a cache address");
    const std::uint64_t line = lineOf(addr);
    const std::uint64_t slot = slotOf(line);
    const std::uint16_t tag = tagOf(line);
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
    std::uint16_t &word = slots_[slot];
    if ((word & tagMask) == tag) {
        if (write) {
            word |= dirtyBit;
            inPkg_.postedWrite(dev, cacheLineBytes, probe);
        }
        res.completionTick = probe;
        res.servicedInPackage = true;
        res.l3Hit = true;
    } else {
        // Conflict miss: fetch the block off-package, evicting the slot.
        if (word & dirtyBit) {
            const std::uint64_t old = lineAt(slot, word & tagMask);
            offPkgBlockAccess(old >> (pageBits - cacheLineBits),
                              (old << cacheLineBits) & mask(pageBits),
                              true, probe);
            ++dirtyEvictions_;
        }
        const Tick fetched = offPkgBlockAccess(
            frameNumOf(addr), pageOffset(addr), false, probe);
        inPkg_.postedWrite(dev, burst, fetched); // background install
        word = write ? (tag | dirtyBit) : tag;
        res.completionTick = fetched;
        res.servicedInPackage = false;
        res.l3Hit = false;
    }
    recordAccess(res);
    return res;
}

void
AlloyCache::writebackLine(Addr addr, CoreId core, Tick when)
{
    (void)core;
    const std::uint64_t line = lineOf(addr);
    const std::uint64_t slot = slotOf(line);
    if ((slots_[slot] & tagMask) == tagOf(line)) {
        slots_[slot] |= dirtyBit;
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
        out, numSlots_, [this](std::uint64_t i) { return slots_[i] != 0; },
        [&](std::uint64_t i) {
            out.putU64(lineAt(i, slots_[i] & tagMask));
            out.putBool((slots_[i] & dirtyBit) != 0);
        });
    ckpt::save(out, dirtyEvictions_);
}

void
AlloyCache::loadOrgState(ckpt::Deserializer &in)
{
    const std::uint64_t n = in.getU64();
    if (n != numSlots_)
        fatal("checkpoint: Alloy slot count {} does not match the "
              "cache's {}",
              n, numSlots_);
    ckpt::getSparse(in, "Alloy slot", n, [&](std::uint64_t i) {
        const std::uint64_t line = in.getU64();
        const bool dirty = in.getBool();
        if (line >= physLines_)
            fatal("checkpoint: Alloy slot {} holds line {}, past the {} "
                  "lines of physical memory",
                  i, line, physLines_);
        if (slotOf(line) != i)
            fatal("checkpoint: Alloy slot {} holds line {}, which maps "
                  "to slot {}",
                  i, line, slotOf(line));
        slots_[i] = tagOf(line) | (dirty ? dirtyBit : 0);
    });
    ckpt::load(in, dirtyEvictions_);
}

} // namespace tdc
