/**
 * @file
 * Core and per-core memory-hierarchy parameters (Table 3).
 */

#ifndef TDC_CORE_CORE_PARAMS_HH
#define TDC_CORE_CORE_PARAMS_HH

#include <cstdint>

#include "cache/sram_cache.hh"
#include "common/types.hh"

namespace tdc {

struct CoreParams
{
    std::uint64_t freqHz = 3'000'000'000ULL; //!< 3 GHz

    /** Sustained non-memory issue rate (instructions per cycle). */
    unsigned issueWidth = 3;

    /** Reorder-buffer entries; bounds how far the core runs ahead. */
    unsigned robSize = 192;

    /** Maximum outstanding post-L1 misses (MSHRs toward L2/L3). */
    unsigned maxOutstanding = 10;

    // TLBs (per core).
    unsigned l1ItlbEntries = 32;
    unsigned l1DtlbEntries = 32;
    unsigned l2TlbEntries = 512;
    Cycles l2TlbHitPenalty = 7;

    /** Conventional page-table walk latency (PTEs hit on-die caches). */
    Cycles pageWalkCycles = 40;

    // On-die caches (LRU).
    SramCacheParams l1i{32 * 1024, 4, cacheLineBytes, 2};
    SramCacheParams l1d{32 * 1024, 4, cacheLineBytes, 2};
    SramCacheParams l2{2 * 1024 * 1024, 16, cacheLineBytes, 6};
};

} // namespace tdc

#endif // TDC_CORE_CORE_PARAMS_HH
