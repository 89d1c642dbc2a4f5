/**
 * @file
 * Table 1: the four (TLB, DRAM cache) hit/miss cases of a memory
 * access under the tagless cache, measured with directed probes.
 *
 *   Hit  / Hit   cache hit, zero penalty beyond the in-package access
 *   Hit  / Miss  non-cacheable page: off-package block access
 *   Miss / Hit   in-package victim hit: TLB miss penalty only
 *   Miss / Miss  cold fill: page copy + GIPT update on the miss path
 */

#include <bit>
#include <memory>

#include "bench_util.hh"
#include "core/memory_system.hh"
#include "dram/dram_params.hh"
#include "dramcache/tagless_cache.hh"
#include "vm/page_table.hh"
#include "vm/phys_mem.hh"

using namespace tdc;
using namespace tdc::bench;

int
main(int argc, char **argv)
{
    bench::initReport(argc, argv);
    header("Table 1: latency of the four (TLB, cache) cases",
           "Hit/Hit zero penalty; Miss/Hit walk only; Miss/Miss pays "
           "fill + GIPT");

    ClockDomain clk(3'000'000'000ULL);
    DramDevice in_pkg("in_pkg", inPackageTiming(), inPackageEnergy());
    DramDevice off_pkg("off_pkg", offPackageTiming(), offPackageEnergy());
    PhysMem phys("phys", (8ULL << 30) / pageBytes);
    PageTable pt("pt", 0, phys);

    TaglessCacheParams params;
    TaglessCache cache("ctlb", in_pkg, off_pkg, phys, clk, params);
    cache.setPageInvalidator(
        [](Addr, std::uint32_t, std::uint64_t) { return 0u; });

    CoreParams cp;
    MemorySystem ms("mem", 0, cp, clk, pt, cache);
    cache.setPageInvalidator(
        [&ms](Addr a, std::uint32_t, std::uint64_t lines) {
            return static_cast<unsigned>(
                std::popcount(ms.invalidatePage(a, lines)));
        });
    cache.setShootdownFn([&ms](AsidVpn k) { ms.shootdown(k); });

    auto cycles = [&](Tick d) {
        return static_cast<double>(clk.ticksToCycles(d));
    };
    Tick t = 1'000'000;

    std::cout << format("{:<14} {:<12} {:>16}  {}\n", "TLB", "DRAM cache",
                        "latency (cycles)", "description");

    // Case 4 first (Miss/Miss): cold fill of a fresh page.
    const Addr va = 0x4000'0000;
    {
        const auto r = ms.access(va, AccessType::Load, t);
        std::cout << format("{:<14} {:<12} {:>16.0f}  {}\n", "Miss",
                            "Miss", cycles(r.completionTick - t),
                            "cold fill: page copy + GIPT update");
        t = r.completionTick + 1'000'000;
    }

    // Case 1 (Hit/Hit): same page, new line -> TLB hit, in-package.
    {
        const auto r = ms.access(va + 128, AccessType::Load, t);
        std::cout << format("{:<14} {:<12} {:>16.0f}  {}\n", "Hit", "Hit",
                            cycles(r.completionTick - t),
                            "guaranteed in-package hit, no tag check");
        t = r.completionTick + 1'000'000;
    }

    // Case 3 (Miss/Hit): flush the TLBs, revisit -> victim hit.
    {
        ms.shootdown(makeAsidVpn(0, pageOf(va)));
        const auto r = ms.access(va + 256, AccessType::Load, t);
        std::cout << format("{:<14} {:<12} {:>16.0f}  {}\n", "Miss",
                            "Hit", cycles(r.completionTick - t),
                            "victim hit: page walk only");
        t = r.completionTick + 1'000'000;
    }

    // Case 2 (Hit/Miss): non-cacheable page.
    {
        const Addr nc_va = 0x8000'0000;
        pt.setNonCacheableHint(pageOf(nc_va));
        const auto warm = ms.access(nc_va, AccessType::Load, t);
        t = warm.completionTick + 1'000'000;
        ms.shootdown(makeAsidVpn(0, pageOf(nc_va)));
        const auto tlb = ms.access(nc_va + 64 * 10, AccessType::Load, t);
        t = tlb.completionTick + 1'000'000;
        // Now the translation is TLB-resident; a fresh line misses the
        // on-die caches and goes off-package.
        const auto r = ms.access(nc_va + 64 * 20, AccessType::Load, t);
        std::cout << format("{:<14} {:<12} {:>16.0f}  {}\n", "Hit",
                            "Miss", cycles(r.completionTick - t),
                            "NC page: off-package block access");
    }

    return 0;
}
