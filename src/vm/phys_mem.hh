/**
 * @file
 * Physical page allocator.
 *
 * The machine has two physical DRAM regions: the off-package device and,
 * in the bank-interleaving configuration only, the in-package device
 * mapped flat into the physical space. The allocator hands out page
 * frames; a policy decides which region each page lands in.
 */

#ifndef TDC_VM_PHYS_MEM_HH
#define TDC_VM_PHYS_MEM_HH

#include <cstdint>

#include "ckpt/checkpointable.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"

namespace tdc {

/** Which device a physical page lives on. */
enum class MemRegion : std::uint8_t {
    OffPackage,
    InPackage,
};

class PhysMem : public SimObject, public ckpt::Checkpointable
{
  public:
    /**
     * @param off_pkg_pages capacity of the off-package device in pages
     * @param in_pkg_pages  pages of in-package DRAM mapped into the
     *                      physical space (0 unless bank-interleaving)
     */
    PhysMem(std::string name, std::uint64_t off_pkg_pages,
            std::uint64_t in_pkg_pages = 0);

    /** Allocates one page, interleaving across regions when enabled. */
    PageNum allocPage();

    /**
     * Allocates `count` physically contiguous off-package pages
     * (superpage backing). Only supported without interleaving.
     */
    PageNum allocContiguous(std::uint64_t count);

    /** Region of a previously allocated page. */
    MemRegion regionOf(PageNum ppn) const;

    /** Device-local byte address of a physical page. */
    Addr
    deviceAddr(PageNum ppn) const
    {
        if (regionOf(ppn) == MemRegion::InPackage)
            return pageBase(ppn - offPkgPages_);
        return pageBase(ppn);
    }

    std::uint64_t offPkgPages() const { return offPkgPages_; }
    std::uint64_t inPkgPages() const { return inPkgPages_; }
    std::uint64_t allocatedPages() const { return allocated_.value(); }

    void saveState(ckpt::Serializer &out) const override;
    void loadState(ckpt::Deserializer &in) override;

  private:
    std::uint64_t offPkgPages_;
    std::uint64_t inPkgPages_;

    std::uint64_t nextOff_ = 0; //!< bump cursor in off-package region
    std::uint64_t nextIn_ = 0;  //!< bump cursor in in-package region

    /**
     * Deterministic interleave: out of every `interleavePeriod_` pages,
     * `interleaveInPkg_` go in-package (capacity-proportional).
     */
    std::uint64_t interleavePeriod_ = 0;
    std::uint64_t interleaveInPkg_ = 0;
    std::uint64_t allocCounter_ = 0;

    stats::Scalar allocated_;
    stats::Scalar allocatedInPkg_;
};

} // namespace tdc

#endif // TDC_VM_PHYS_MEM_HH
