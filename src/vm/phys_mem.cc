#include "vm/phys_mem.hh"

#include <numeric>

#include "ckpt/stats_io.hh"
#include "common/bitops.hh"

namespace tdc {

PhysMem::PhysMem(std::string name, std::uint64_t off_pkg_pages,
                 std::uint64_t in_pkg_pages)
    : SimObject(std::move(name)), offPkgPages_(off_pkg_pages),
      inPkgPages_(in_pkg_pages)
{
    tdc_assert(off_pkg_pages > 0, "no off-package memory");
    if (inPkgPages_ > 0) {
        // Reduce (in : off) to the smallest integer interleave pattern
        // with a bounded period so allocation stays O(1).
        const std::uint64_t g = std::gcd(inPkgPages_, offPkgPages_);
        std::uint64_t in_part = inPkgPages_ / g;
        std::uint64_t total_part = (inPkgPages_ + offPkgPages_) / g;
        // Clamp the period to keep the pattern fine-grained.
        while (total_part > 64) {
            in_part = (in_part + 1) / 2;
            total_part = (total_part + 1) / 2;
        }
        interleaveInPkg_ = std::max<std::uint64_t>(in_part, 1);
        interleavePeriod_ = std::max<std::uint64_t>(total_part, 2);
    }

    auto &sg = statGroup();
    sg.addScalar("allocated_pages", &allocated_);
    sg.addScalar("allocated_in_pkg", &allocatedInPkg_);
}

PageNum
PhysMem::allocPage()
{
    ++allocated_;
    bool to_in_pkg = false;
    if (inPkgPages_ > 0 && nextIn_ < inPkgPages_) {
        const std::uint64_t slot = allocCounter_++ % interleavePeriod_;
        to_in_pkg = slot < interleaveInPkg_;
    }
    if (to_in_pkg) {
        ++allocatedInPkg_;
        tdc_assert(nextIn_ < inPkgPages_, "in-package region full");
        return offPkgPages_ + nextIn_++;
    }
    if (nextOff_ >= offPkgPages_)
        fatal("out of physical memory ({} pages)", offPkgPages_);
    return nextOff_++;
}

PageNum
PhysMem::allocContiguous(std::uint64_t count)
{
    tdc_assert(count > 0, "empty contiguous allocation");
    tdc_assert(inPkgPages_ == 0,
               "contiguous allocation under interleaving unsupported");
    if (nextOff_ + count > offPkgPages_)
        fatal("out of physical memory for {}-page superpage", count);
    const PageNum base = nextOff_;
    nextOff_ += count;
    allocated_ += count;
    return base;
}

MemRegion
PhysMem::regionOf(PageNum ppn) const
{
    return ppn >= offPkgPages_ ? MemRegion::InPackage
                               : MemRegion::OffPackage;
}

void
PhysMem::saveState(ckpt::Serializer &out) const
{
    // Region sizes are config-derived; saved only to cross-check the
    // fingerprint-validated restore target.
    out.putU64(offPkgPages_);
    out.putU64(inPkgPages_);
    out.putU64(nextOff_);
    out.putU64(nextIn_);
    out.putU64(allocCounter_);
    ckpt::save(out, allocated_);
    ckpt::save(out, allocatedInPkg_);
}

void
PhysMem::loadState(ckpt::Deserializer &in)
{
    const std::uint64_t off = in.getU64();
    const std::uint64_t in_pkg = in.getU64();
    if (off != offPkgPages_ || in_pkg != inPkgPages_)
        fatal("checkpoint: physical memory has {} off- and {} "
              "in-package pages, this system {} and {}", off, in_pkg,
              offPkgPages_, inPkgPages_);
    nextOff_ = in.getU64();
    nextIn_ = in.getU64();
    allocCounter_ = in.getU64();
    ckpt::load(in, allocated_);
    ckpt::load(in, allocatedInPkg_);
}

} // namespace tdc
