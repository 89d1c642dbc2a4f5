/**
 * @file
 * Builds a DramCacheOrg from a configuration string, the single switch
 * the System and the benches use to select an evaluation design point.
 */

#ifndef TDC_DRAMCACHE_ORG_FACTORY_HH
#define TDC_DRAMCACHE_ORG_FACTORY_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hh"
#include "dramcache/dram_cache_org.hh"

namespace tdc {

/**
 * The design points of Section 4, plus the block-based extra and the
 * two modern page-cache competitors (Banshee, Unison).
 */
enum class OrgKind {
    NoL3,
    BankInterleave,
    SramTag,
    Tagless,
    Ideal,
    Alloy,
    Banshee,
    Unison,
};

OrgKind orgKindFromString(std::string_view s);
std::string_view toString(OrgKind k);

/**
 * Canonical lower-case CLI token ("ctlb", "sram", ...): the stable
 * spelling used in run reports and golden-stats file names.
 */
std::string_view cliName(OrgKind k);

/** Every organization, in a fixed order (golden matrix, sweeps). */
const std::vector<OrgKind> &allOrgKinds();

/**
 * Instantiates an organization.
 *
 * Config keys consumed (all optional):
 *   l3.size_bytes        in-package capacity used as cache (1 GiB)
 *   l3.policy            "fifo" | "lru" (tagless / sram-tag)
 *   l3.alpha             tagless free-block low-water mark
 *   l3.tag_latency       override the Table 6 SRAM tag latency
 *   l3.gipt_writes       off-package writes charged per GIPT update
 *   l3.filter            enable the online hot/cold page filter
 *   l3.filter_threshold  TLB misses before a page may be cached
 *   l3.banshee.sample_rate        1-in-N counter sampling (banshee)
 *   l3.banshee.threshold          replacement hysteresis (banshee)
 *   l3.banshee.tag_buffer_entries pending remaps before a lazy flush
 *   l3.unison.predictor_entries   footprint predictor size (unison)
 */
std::unique_ptr<DramCacheOrg>
makeDramCacheOrg(OrgKind kind, const Config &cfg, DramDevice &in_pkg,
                 DramDevice &off_pkg, PhysMem &phys,
                 const ClockDomain &cpu_clk);

} // namespace tdc

#endif // TDC_DRAMCACHE_ORG_FACTORY_HH
