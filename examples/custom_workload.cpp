/**
 * @file
 * Library-level usage without the System convenience wrapper: build a
 * custom machine from individual components, drive it with a hand-
 * tuned synthetic workload, and inspect the tagless cache's internal
 * state (GIPT occupancy, free queue, victim-hit behavior).
 *
 * This is the integration path for embedding the tagless-cache model
 * inside another simulator: instantiate DramDevice/Tlb/SramCache/
 * TaglessCache, wire the hooks, and feed it accesses.
 */

#include <bit>
#include <iostream>

#include "common/format.hh"
#include "core/memory_system.hh"
#include "core/ooo_core.hh"
#include "dram/dram_params.hh"
#include "dramcache/tagless_cache.hh"
#include "trace/synthetic.hh"
#include "vm/page_table.hh"
#include "vm/phys_mem.hh"

using namespace tdc;

int
main()
{
    // --- machine -------------------------------------------------
    ClockDomain cpu_clk(3'000'000'000ULL);
    DramDevice in_pkg("in_pkg", inPackageTiming(256ULL << 20),
                      inPackageEnergy());
    DramDevice off_pkg("off_pkg", offPackageTiming(), offPackageEnergy());
    PhysMem phys("phys", (8ULL << 30) / pageBytes);
    PageTable pt("proc0", 0, phys);

    TaglessCacheParams l3_params;
    l3_params.cacheBytes = 256ULL << 20; // a 256MB in-package cache
    l3_params.alphaFreeBlocks = 4;       // deeper free-block reserve
    TaglessCache l3("l3", in_pkg, off_pkg, phys, cpu_clk, l3_params);

    CoreParams core_params;
    MemorySystem mem("core0.mem", 0, core_params, cpu_clk, pt, l3);
    l3.setPageInvalidator(
        [&mem](Addr page, std::uint32_t, std::uint64_t lines) {
            return static_cast<unsigned>(
                std::popcount(mem.invalidatePage(page, lines)));
        });
    l3.setShootdownFn([&mem](AsidVpn key) { mem.shootdown(key); });

    // --- workload: a hand-tuned phase-change pattern ---------------
    SyntheticParams wp;
    wp.footprintPages = 24'000;  // ~96MB scanned region
    wp.hotPages = 384;           // ~1.5MB hot set
    wp.hotWeight = 0.75;
    wp.streamWeight = 0.20;
    wp.chaseWeight = 0.05;
    wp.seqRunLines = 32;
    wp.memRefFraction = 0.3;
    wp.writeFraction = 0.3;
    wp.seed = 2026;
    SyntheticTraceGen trace(wp);

    OooCore core("core0", 0, core_params, cpu_clk, trace, mem);

    // --- run and inspect -------------------------------------------
    const std::uint64_t insts = 6'000'000;
    core.runUntil(maxTick, insts);
    core.drain();

    std::cout << format("instructions       : {}\n", core.instsRetired());
    std::cout << format("IPC                : {:.3f}\n", core.ipc());
    std::cout << format("L1D miss rate      : {:.2f}%\n",
                        mem.l1d().missRate() * 100);
    std::cout << format("L2 miss rate       : {:.2f}%\n",
                        mem.l2().missRate() * 100);
    std::cout << format("full TLB misses    : {}\n", mem.tlbFullMisses());
    std::cout << format("victim hits        : {}\n", l3.victimHits());
    std::cout << format("cold fills         : {}\n", l3.coldFills());
    std::cout << format("evictions          : {}\n", l3.evictions());
    std::cout << format("page writebacks    : {}\n", l3.pageWritebacks());
    std::cout << format("free blocks (alpha={}) : {}\n",
                        l3_params.alphaFreeBlocks, l3.freeBlocks());

    // GIPT occupancy: valid entries == cached pages.
    std::uint64_t occupied = 0;
    for (std::uint64_t f = 0; f < l3.totalFrames(); ++f)
        occupied += l3.gipt().at(f).valid();
    std::cout << format("GIPT occupancy     : {} / {} frames "
                        "({:.1f}%), {:.2f} MB table\n",
                        occupied, l3.totalFrames(),
                        100.0 * occupied / l3.totalFrames(),
                        static_cast<double>(l3.gipt().storageBits()) / 8
                            / 1048576.0);

    // The tagless invariant, checked live: every occupied frame's PTE
    // points straight back at it.
    for (std::uint64_t f = 0; f < l3.totalFrames(); ++f) {
        const auto &g = l3.gipt().at(f);
        if (g.valid() && (!g.ptep->vc || g.ptep->frame != f)) {
            std::cout << "GIPT/PTE inconsistency at frame " << f << "\n";
            return 1;
        }
    }
    std::cout << "GIPT/PTE consistency verified across all frames.\n";
    return 0;
}
