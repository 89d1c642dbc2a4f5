#include "dramcache/org_factory.hh"

#include "common/units.hh"
#include "dramcache/alloy_cache.hh"
#include "dramcache/bank_interleave.hh"
#include "dramcache/banshee_cache.hh"
#include "dramcache/ideal_cache.hh"
#include "dramcache/no_l3.hh"
#include "dramcache/sram_tag_cache.hh"
#include "dramcache/tagless_cache.hh"
#include "dramcache/unison_cache.hh"

namespace tdc {

OrgKind
orgKindFromString(std::string_view s)
{
    if (s == "nol3" || s == "NoL3" || s == "none")
        return OrgKind::NoL3;
    if (s == "bi" || s == "BI" || s == "bank_interleave")
        return OrgKind::BankInterleave;
    if (s == "sram" || s == "SRAM" || s == "sram_tag")
        return OrgKind::SramTag;
    if (s == "ctlb" || s == "cTLB" || s == "tagless")
        return OrgKind::Tagless;
    if (s == "ideal" || s == "Ideal")
        return OrgKind::Ideal;
    if (s == "alloy" || s == "Alloy")
        return OrgKind::Alloy;
    if (s == "banshee" || s == "Banshee")
        return OrgKind::Banshee;
    if (s == "unison" || s == "Unison")
        return OrgKind::Unison;
    std::string valid;
    for (OrgKind k : allOrgKinds()) {
        if (!valid.empty())
            valid += ", ";
        valid += cliName(k);
    }
    fatal("unknown L3 organization '{}' (valid: {})", s, valid);
}

std::string_view
toString(OrgKind k)
{
    switch (k) {
      case OrgKind::NoL3: return "NoL3";
      case OrgKind::BankInterleave: return "BI";
      case OrgKind::SramTag: return "SRAM";
      case OrgKind::Tagless: return "cTLB";
      case OrgKind::Ideal: return "Ideal";
      case OrgKind::Alloy: return "Alloy";
      case OrgKind::Banshee: return "Banshee";
      case OrgKind::Unison: return "Unison";
    }
    return "?";
}

std::string_view
cliName(OrgKind k)
{
    switch (k) {
      case OrgKind::NoL3: return "nol3";
      case OrgKind::BankInterleave: return "bi";
      case OrgKind::SramTag: return "sram";
      case OrgKind::Tagless: return "ctlb";
      case OrgKind::Ideal: return "ideal";
      case OrgKind::Alloy: return "alloy";
      case OrgKind::Banshee: return "banshee";
      case OrgKind::Unison: return "unison";
    }
    return "?";
}

const std::vector<OrgKind> &
allOrgKinds()
{
    static const std::vector<OrgKind> kinds = {
        OrgKind::NoL3,  OrgKind::BankInterleave, OrgKind::SramTag,
        OrgKind::Tagless, OrgKind::Ideal,        OrgKind::Alloy,
        OrgKind::Banshee, OrgKind::Unison,
    };
    return kinds;
}

std::unique_ptr<DramCacheOrg>
makeDramCacheOrg(OrgKind kind, const Config &cfg, DramDevice &in_pkg,
                 DramDevice &off_pkg, PhysMem &phys,
                 const ClockDomain &cpu_clk)
{
    const std::uint64_t size = cfg.getU64("l3.size_bytes", GiB);
    const ReplPolicy policy =
        replPolicyFromString(cfg.getString(
            "l3.policy", kind == OrgKind::SramTag ? "lru" : "fifo"));

    auto org = [&]() -> std::unique_ptr<DramCacheOrg> {
    switch (kind) {
      case OrgKind::NoL3:
        return std::make_unique<NoL3>("l3_nol3", in_pkg, off_pkg, phys,
                                      cpu_clk);
      case OrgKind::BankInterleave:
        return std::make_unique<BankInterleave>(
            "l3_bi", in_pkg, off_pkg, phys, cpu_clk);
      case OrgKind::SramTag: {
        SramTagCacheParams p;
        p.cacheBytes = size;
        p.policy = policy;
        p.tagLatency = cfg.getU64("l3.tag_latency",
                                  sramTagLatencyForSize(size));
        return std::make_unique<SramTagCache>(
            "l3_sram", in_pkg, off_pkg, phys, cpu_clk, p);
      }
      case OrgKind::Tagless: {
        TaglessCacheParams p;
        p.cacheBytes = size;
        p.policy = policy;
        p.alphaFreeBlocks = static_cast<unsigned>(
            cfg.getU64("l3.alpha", 1));
        p.giptUpdateWrites = static_cast<unsigned>(
            cfg.getU64("l3.gipt_writes", 2));
        p.filterEnabled = cfg.getBool("l3.filter", false);
        p.filterThreshold = static_cast<unsigned>(
            cfg.getU64("l3.filter_threshold", 2));
        return std::make_unique<TaglessCache>(
            "l3_ctlb", in_pkg, off_pkg, phys, cpu_clk, p);
      }
      case OrgKind::Ideal:
        return std::make_unique<IdealCache>(
            "l3_ideal", in_pkg, off_pkg, phys, cpu_clk);
      case OrgKind::Alloy: {
        AlloyCacheParams p;
        p.cacheBytes = size;
        return std::make_unique<AlloyCache>(
            "l3_alloy", in_pkg, off_pkg, phys, cpu_clk, p);
      }
      case OrgKind::Banshee: {
        BansheeCacheParams p;
        p.cacheBytes = size;
        p.sampleRate = static_cast<unsigned>(
            cfg.getU64("l3.banshee.sample_rate", 8));
        p.threshold = static_cast<unsigned>(
            cfg.getU64("l3.banshee.threshold", 2));
        p.tagBufferEntries = static_cast<unsigned>(
            cfg.getU64("l3.banshee.tag_buffer_entries", 1024));
        return std::make_unique<BansheeCache>(
            "l3_banshee", in_pkg, off_pkg, phys, cpu_clk, p);
      }
      case OrgKind::Unison: {
        UnisonCacheParams p;
        p.cacheBytes = size;
        p.predictorEntries = static_cast<unsigned>(
            cfg.getU64("l3.unison.predictor_entries", 4096));
        return std::make_unique<UnisonCache>(
            "l3_unison", in_pkg, off_pkg, phys, cpu_clk, p);
      }
    }
    tdc_panic("unreachable");
    }();
    // Stamp the static-dispatch id so hot call sites can bypass the
    // virtual access() dispatch (org_dispatch.hh).
    org->setOrgKindId(static_cast<int>(kind));
    return org;
}

} // namespace tdc
