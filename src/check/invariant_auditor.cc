#include "check/invariant_auditor.hh"

#include <array>
#include <unordered_map>
#include <unordered_set>

#include "cache/sram_cache.hh"
#include "common/logging.hh"
#include "dramcache/tagless_cache.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace tdc {
namespace check {

AuditConfig
AuditConfig::fromConfig(const Config &cfg)
{
    AuditConfig c;
    c.enabled = cfg.getBool("check.audit", c.enabled);
    c.sweepInterval = cfg.getU64("check.interval", c.sweepInterval);
    if (c.sweepInterval == 0)
        c.sweepInterval = 1;
    return c;
}

InvariantAuditor::InvariantAuditor(const AuditConfig &cfg) : cfg_(cfg) {}

void
InvariantAuditor::addTlb(const Tlb *tlb, CoreId core,
                         const PageTable *pt)
{
    tdc_assert(tlb != nullptr && pt != nullptr, "null auditor target");
    tlbs_.push_back(TlbSite{tlb, core, pt});
    addPageTable(pt);
}

void
InvariantAuditor::addCache(const SramCache *cache)
{
    tdc_assert(cache != nullptr, "null auditor target");
    caches_.push_back(cache);
}

void
InvariantAuditor::addPageTable(const PageTable *pt)
{
    for (const PageTable *p : pageTables_)
        if (p == pt)
            return;
    pageTables_.push_back(pt);
}

void
InvariantAuditor::maybeSweep()
{
    if (++fires_ % cfg_.sweepInterval == 0)
        verifyAll();
}

void
InvariantAuditor::observeTlbMiss(obs::ProbePoint<obs::TlbMissEvent> &p)
{
    probes_.bridge(p, [this](const obs::TlbMissEvent &e) {
        ++eventChecks_;
        if (e.start > e.walkDone || e.walkDone > e.end)
            fatal("invariant violation [tlb-miss monotonicity]: core {} "
                  "vpn {} start={} walkDone={} end={}",
                  e.core, e.vpn, e.start, e.walkDone, e.end);
        if (e.victimHit && e.coldFill)
            fatal("invariant violation [tlb-miss outcome]: vpn {} "
                  "reported as both victim hit and cold fill", e.vpn);
        maybeSweep();
    });
}

void
InvariantAuditor::observePageFill(obs::ProbePoint<obs::PageFillEvent> &p)
{
    probes_.bridge(p, [this](const obs::PageFillEvent &e) {
        ++eventChecks_;
        if (e.start > e.pteDone || e.pteDone > e.copyDone)
            fatal("invariant violation [fill monotonicity]: frame {} "
                  "start={} pteDone={} copyDone={}",
                  e.frame, e.start, e.pteDone, e.copyDone);
        if (tagless_ != nullptr) {
            const unsigned n =
                e.superpage ? pagesPerSuperpage : 1;
            for (unsigned i = 0; i < n; ++i) {
                const std::uint64_t f = e.frame + i;
                const Gipt::Entry &g = tagless_->gipt().at(f);
                if (!g.valid())
                    fatal("invariant violation [fill state]: filled "
                          "frame {} is not GIPT-mapped", f);
                if (!e.superpage && g.ptep->frame != f)
                    fatal("invariant violation [fill state]: frame "
                          "{}'s PTE does not hold its cache address",
                          f);
            }
        }
        maybeSweep();
    });
}

void
InvariantAuditor::observeEviction(obs::ProbePoint<obs::EvictionEvent> &p)
{
    probes_.bridge(p, [this](const obs::EvictionEvent &e) {
        ++eventChecks_;
        if (e.start > e.end)
            fatal("invariant violation [eviction monotonicity]: frame "
                  "{} start={} end={}", e.frame, e.start, e.end);
        if (tagless_ != nullptr && tagless_->gipt().at(e.frame).valid())
            fatal("invariant violation [eviction state]: evicted frame "
                  "{} still GIPT-mapped", e.frame);
        // The flush covers only the frame's access masks; any copy
        // left behind would alias the frame's next page.
        for (const SramCache *c : caches_) {
            for (unsigned i = 0; i < linesPerPage; ++i) {
                if (c->contains(caAddr(e.frame, i * cacheLineBytes)))
                    fatal("invariant violation [flush completeness]: "
                          "{} still holds line {} of evicted frame {}",
                          c->name(), i, e.frame);
            }
        }
        maybeSweep();
    });
}

void
InvariantAuditor::observeVictimHit(
    obs::ProbePoint<obs::VictimHitEvent> &p)
{
    probes_.bridge(p, [this](const obs::VictimHitEvent &e) {
        ++eventChecks_;
        if (tagless_ != nullptr && !tagless_->gipt().at(e.frame).valid())
            fatal("invariant violation [victim hit]: vpn {} hit "
                  "unmapped frame {}", e.vpn, e.frame);
    });
}

void
InvariantAuditor::observeFreeQueue(
    obs::ProbePoint<obs::FreeQueueEvent> &p)
{
    probes_.bridge(p, [this](const obs::FreeQueueEvent &e) {
        ++eventChecks_;
        if (tagless_ != nullptr && e.depth != tagless_->freeBlocks())
            fatal("invariant violation [free-queue depth]: event "
                  "reports {} blocks, queue holds {}", e.depth,
                  tagless_->freeBlocks());
    });
}

void
InvariantAuditor::observeGipt(obs::ProbePoint<obs::GiptEvent> &p)
{
    probes_.bridge(p, [this](const obs::GiptEvent &e) {
        ++eventChecks_;
        if (tagless_ == nullptr)
            return;
        const bool valid = tagless_->gipt().at(e.frame).valid();
        if (e.kind == obs::GiptEvent::Kind::Install && !valid)
            fatal("invariant violation [gipt install]: frame {} "
                  "invalid after install", e.frame);
        if (e.kind == obs::GiptEvent::Kind::Invalidate && valid)
            fatal("invariant violation [gipt invalidate]: frame {} "
                  "still valid after invalidate", e.frame);
    });
}

void
InvariantAuditor::observeDram(obs::ProbePoint<obs::DramAccessEvent> &p)
{
    probes_.bridge(p, [this](const obs::DramAccessEvent &e) {
        ++eventChecks_;
        if (e.start > e.completion)
            fatal("invariant violation [dram monotonicity]: {} "
                  "ch{}/b{} start={} completion={}", e.device,
                  e.channel, e.bank, e.start, e.completion);
        if (e.bytes == 0)
            fatal("invariant violation [dram payload]: {} access "
                  "transfers zero bytes", e.device);
    });
}

/**
 * Invariant (b), frame side: a mapped frame's PTE holds VC=1, not NC,
 * and points back at this frame (superpages: at the 512-aligned base,
 * with pinned frames and contiguous PPNs); the victim order links
 * every mapped non-pinned frame exactly once and nothing else. A frame
 * is free exactly when it is unmapped, so the free side is
 * verifyFreeQueue()'s.
 */
void
InvariantAuditor::verifyFrameTable() const
{
    const Gipt &gipt = tagless_->gipt();
    std::unordered_set<std::uint64_t> order;
    std::uint64_t prev = invalidPage;
    for (std::uint64_t f = tagless_->orderFront(); f != invalidPage;
         prev = f, f = tagless_->orderNext(f)) {
        if (order.size() == tagless_->orderSize())
            fatal("invariant violation [victim order]: more than {} "
                  "frames linked", tagless_->orderSize());
        if (f >= gipt.frames() || !gipt.at(f).valid()
            || tagless_->framePinned(f))
            fatal("invariant violation [victim order]: frame {} is "
                  "linked but not a mapped unpinned frame", f);
        if (!order.insert(f).second)
            fatal("invariant violation [victim order]: frame {} "
                  "linked twice", f);
        if (tagless_->orderPrev(f) != prev)
            fatal("invariant violation [victim order]: frame {} links "
                  "back to {}, not {}", f, tagless_->orderPrev(f), prev);
    }
    if (order.size() != tagless_->orderSize())
        fatal("invariant violation [victim order]: {} frames linked, "
              "{} counted", order.size(), tagless_->orderSize());

    for (std::uint64_t f = 0; f < gipt.frames(); ++f) {
        const Gipt::Entry &g = gipt.at(f);
        if (!g.valid())
            continue;
        const Pte &pte = *g.ptep;
        if (!pte.vc)
            fatal("invariant violation [bijection]: frame {} is "
                  "GIPT-mapped but its PTE has VC=0", f);
        if (pte.nc)
            fatal("invariant violation [nc/vc]: frame {}'s PTE has VC "
                  "and NC both set", f);
        if (pte.type == PageType::Page2M) {
            if (f < pte.frame || f >= pte.frame + pagesPerSuperpage)
                fatal("invariant violation [superpage]: frame {} "
                      "outside its PTE's 2M run at {}", f, pte.frame);
            if (!tagless_->framePinned(f))
                fatal("invariant violation [superpage]: cached "
                      "superpage frame {} is not pinned", f);
            if (g.ppn != gipt.at(pte.frame).ppn + (f - pte.frame))
                fatal("invariant violation [superpage]: frame {}'s PPN "
                      "breaks the contiguous 2M run", f);
        } else {
            if (pte.frame != f)
                fatal("invariant violation [bijection]: frame {} "
                      "GIPT-mapped but its PTE points at {}", f,
                      pte.frame);
            if (!tagless_->framePinned(f) && order.count(f) == 0)
                fatal("invariant violation [victim order]: mapped frame "
                      "{} unreachable by the victim scan", f);
        }
    }
}

/**
 * Invariant (c): free-queue entries are unique, within range and
 * unmapped -- including the header pointer at the queue front -- and
 * together with the mapped frames account for the whole cache.
 */
void
InvariantAuditor::verifyFreeQueue() const
{
    const Gipt &gipt = tagless_->gipt();
    std::unordered_set<std::uint64_t> seen;
    const FreeQueue &queue = tagless_->freeQueue();
    for (std::size_t i = 0; i < queue.runCount(); ++i) {
        const FreeQueue::Run &r = queue.run(i);
        for (std::uint64_t f = r.first; f < r.end(); ++f) {
            if (f >= gipt.frames())
                fatal("invariant violation [free queue]: frame {} out "
                      "of range", f);
            if (!seen.insert(f).second)
                fatal("invariant violation [free queue]: frame {} "
                      "queued twice", f);
            if (gipt.at(f).valid())
                fatal("invariant violation [free queue]: frame {} both "
                      "free-queued and GIPT-mapped", f);
        }
    }

    std::uint64_t mapped = 0;
    for (std::uint64_t f = 0; f < gipt.frames(); ++f)
        mapped += gipt.at(f).valid() ? 1 : 0;
    if (mapped + seen.size() != gipt.frames())
        fatal("invariant violation [frame accounting]: {} mapped + {} "
              "free != {} total frames", mapped, seen.size(),
              gipt.frames());
}

/**
 * Invariant (b), PTE side: every VC=1 PTE's cache address is live in
 * the GIPT and the GIPT's PTEP points back at exactly this PTE (which,
 * with the frame-side scan, makes the mapping a bijection).
 */
void
InvariantAuditor::verifyPageTables() const
{
    const Gipt &gipt = tagless_->gipt();
    for (const PageTable *pt : pageTables_) {
        pt->forEachPte([&](const Pte &pte) {
            if (pte.pu && !pte.vc)
                fatal("invariant violation [pu/vc]: PTE (proc {}, vpn "
                      "{}) has PU set without VC", pte.proc, pte.vpn);
            if (!pte.vc)
                return;
            if (pte.nc)
                fatal("invariant violation [nc/vc]: PTE (proc {}, vpn "
                      "{}) has VC and NC both set", pte.proc, pte.vpn);
            const unsigned n = pte.type == PageType::Page2M
                                   ? pagesPerSuperpage
                                   : 1;
            for (unsigned i = 0; i < n; ++i) {
                const std::uint64_t f = pte.frame + i;
                if (f >= gipt.frames())
                    fatal("invariant violation [bijection]: VC PTE "
                          "(proc {}, vpn {}) points outside the cache "
                          "({})", pte.proc, pte.vpn, f);
                if (gipt.at(f).ptep != &pte)
                    fatal("invariant violation [bijection]: VC PTE "
                          "(proc {}, vpn {}) not mapped back by GIPT "
                          "frame {}", pte.proc, pte.vpn, f);
            }
        });
    }
}

/**
 * Invariant (a): every resident cTLB entry is coherent with the page
 * table and the GIPT. Cache-space entries must target mapped frames
 * whose PTEP round-trips to the entry's (proc, vpn); NC entries must
 * match the PTE's current physical mapping -- a cached page behind a
 * stale NC entry would silently split reads and writes between the
 * in-package copy and off-package DRAM. Per-core GIPT residence counts
 * must equal the observed TLB contents exactly.
 */
void
InvariantAuditor::verifyTlbs() const
{
    const Gipt &gipt = tagless_->gipt();
    std::unordered_map<std::uint64_t,
                       std::array<std::uint16_t, Gipt::maxCores>>
        counted;

    for (const TlbSite &site : tlbs_) {
        site.tlb->forEachEntry([&](const TlbEntry &e) {
            const PageNum vpn = vpnOf(e.key);
            if (e.type == PageType::Page2M) {
                const PageNum base = vpn * pagesPerSuperpage;
                const Pte *pte = site.pt->findSuperpage(base);
                if (pte == nullptr)
                    fatal("invariant violation [tlb]: 2M entry for "
                          "base vpn {} has no superpage PTE", base);
                if (e.nc) {
                    if (!pte->nc && pte->vc)
                        fatal("invariant violation [stale nc]: 2M "
                              "entry for base vpn {} is NC but the "
                              "superpage is cached", base);
                } else if (!pte->vc || pte->frame != e.frame) {
                    fatal("invariant violation [tlb]: 2M entry for "
                          "base vpn {} disagrees with its PTE", base);
                }
                return;
            }
            const Pte *pte = site.pt->find(vpn);
            if (pte == nullptr)
                fatal("invariant violation [tlb]: entry for (proc {}, "
                      "vpn {}) has no PTE", procOf(e.key), vpn);
            if (e.nc) {
                if (pte->vc)
                    fatal("invariant violation [stale nc]: (proc {}, "
                          "vpn {}) is cached in frame {} but core {} "
                          "still holds a physical NC mapping",
                          procOf(e.key), vpn, pte->frame, site.core);
                if (e.frame != pte->frame)
                    fatal("invariant violation [tlb]: NC entry for "
                          "(proc {}, vpn {}) holds frame {} but the "
                          "PTE maps {}", procOf(e.key), vpn, e.frame,
                          pte->frame);
                return;
            }
            // Cache-space entry: the paper's TLB-hit => cache-hit
            // guarantee, checked structurally.
            if (e.frame >= gipt.frames()
                || !gipt.at(e.frame).valid())
                fatal("invariant violation [tlb=>cache]: core {} maps "
                      "(proc {}, vpn {}) to unoccupied frame {}",
                      site.core, procOf(e.key), vpn, e.frame);
            const Gipt::Entry &g = gipt.at(e.frame);
            if (g.ptep != pte || !pte->vc || pte->frame != e.frame)
                fatal("invariant violation [tlb=>cache]: frame {} "
                      "does not map back to (proc {}, vpn {})",
                      e.frame, procOf(e.key), vpn);
            ++counted[e.frame][site.core];
        });
    }

    for (std::uint64_t f = 0; f < gipt.frames(); ++f) {
        const Gipt::Entry &g = gipt.at(f);
        auto it = counted.find(f);
        for (unsigned c = 0; c < Gipt::maxCores; ++c) {
            const std::uint16_t expect =
                it == counted.end() ? 0 : it->second[c];
            if (g.residence[c] != expect)
                fatal("invariant violation [residence]: frame {} core "
                      "{} GIPT count {} but {} resident TLB entr{}",
                      f, c, g.residence[c], expect,
                      expect == 1 ? "y" : "ies");
        }
    }
}

void
InvariantAuditor::verifyAll() const
{
    ++sweeps_;
    if (tagless_ == nullptr)
        return; // timing-only wiring (conventional organizations)
    verifyFrameTable();
    verifyFreeQueue();
    verifyPageTables();
    verifyTlbs();
}

} // namespace check
} // namespace tdc
