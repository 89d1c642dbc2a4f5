/**
 * @file
 * Warm-state checkpointing of a full System (DESIGN.md 8).
 *
 * A checkpoint captures the complete architectural and timing state at
 * the warmup/measure boundary: physical-frame allocation, page tables,
 * the L3 organization (including the tagless cache's GIPT, free queue
 * and frame metadata), both DRAM devices, every core's TLBs, SRAM
 * caches and access-path stats, the core time cursors, and the trace
 * generators' RNG/cursor state. Restoring into a freshly built System
 * with a matching warm-relevant configuration makes the subsequent
 * measure() byte-identical to a straight warmup()+measure() run.
 */

#include <string>

#include "common/json.hh"
#include "dramcache/org_factory.hh"
#include "sys/system.hh"
#include "trace/mtrace.hh"

namespace tdc {

std::uint64_t
warmFingerprint(const SystemConfig &cfg)
{
    // Canonical "key=value;" string over every warm-relevant field,
    // hashed with FNV-1a. Order is fixed; growing the string for a new
    // field intentionally changes every fingerprint.
    std::string s;
    s += format("org={};", std::string(cliName(cfg.org)));
    s += format("l3_bytes={};off_bytes={};", cfg.l3SizeBytes,
                cfg.offPkgBytes);
    for (const std::string &w : cfg.workloads) {
        s += format("workload={};", w);
        // A trace workload's warm state is a function of the file's
        // *content*, not its name: fold in the content hash so editing
        // a trace in place invalidates checkpoints keyed on its path.
        if (isTraceWorkload(w))
            s += format("trace_hash={};",
                        ckpt::hex16(
                            mtrace::traceContentHash(tracePathOf(w))));
    }
    s += format("warmup={};quantum={};", cfg.warmupInsts, cfg.quantum);

    const CoreParams &cp = cfg.coreParams;
    s += format("freq={};issue={};rob={};mshr={};", cp.freqHz,
                cp.issueWidth, cp.robSize, cp.maxOutstanding);
    s += format("itlb={};dtlb={};l2tlb={};l2tlb_pen={};walk={};",
                cp.l1ItlbEntries, cp.l1DtlbEntries, cp.l2TlbEntries,
                cp.l2TlbHitPenalty, cp.pageWalkCycles);
    for (const SramCacheParams *c : {&cp.l1i, &cp.l1d, &cp.l2}) {
        s += format("sram={},{},{},{};", c->sizeBytes, c->associativity,
                    c->lineBytes, c->hitLatency);
    }

    // Dotted raw keys are component overrides (l3.policy, l3.alpha,
    // dram.*...) and shape warm state; flat keys are driver CLI flags
    // and "obs."/"check." keys only add zero-overhead observers (the
    // tracer/sampler and the invariant auditor never change simulated
    // state), so those are excluded (as are instsPerCore and
    // energyParams above: they only affect the measured window, not
    // the state at its start).
    for (const auto &[key, value] : cfg.raw.entries()) {
        if (key.find('.') == std::string::npos)
            continue;
        if (key.rfind("obs.", 0) == 0 || key.rfind("check.", 0) == 0)
            continue;
        s += format("{}={};", key, value);
    }
    return ckpt::fnv1a(s);
}

ckpt::Checkpoint
System::makeCheckpoint() const
{
    ckpt::Checkpoint ck;
    ck.setFingerprint(warmFingerprint(cfg_));

    {
        // Human-readable summary for the tdc_ckpt inspector.
        auto meta = json::Value::object();
        meta.set("org", std::string(cliName(cfg_.org)));
        auto wl = json::Value::array();
        for (const std::string &w : cfg_.workloads)
            wl.push(w);
        meta.set("workloads", std::move(wl));
        meta.set("warmup_insts", cfg_.warmupInsts);
        meta.set("cores", static_cast<std::uint64_t>(cores_.size()));
        auto insts = json::Value::array();
        for (const auto &c : cores_)
            insts.push(c->instsRetired());
        meta.set("core_insts", std::move(insts));
        ckpt::Serializer s;
        s.putString(meta.dump());
        ck.addSection("meta", std::move(s));
    }
    {
        ckpt::Serializer s;
        phys_->saveState(s);
        ck.addSection("phys", std::move(s));
    }
    {
        ckpt::Serializer s;
        s.putU64(pageTables_.size());
        for (const auto &pt : pageTables_)
            pt->saveState(s);
        ck.addSection("page_tables", std::move(s));
    }
    {
        ckpt::Serializer s;
        org_->saveState(s);
        ck.addSection("org", std::move(s));
    }
    {
        ckpt::Serializer s;
        inPkg_->saveState(s);
        ck.addSection("dram_in_pkg", std::move(s));
    }
    {
        ckpt::Serializer s;
        offPkg_->saveState(s);
        ck.addSection("dram_off_pkg", std::move(s));
    }
    {
        ckpt::Serializer s;
        s.putU64(memSystems_.size());
        for (const auto &ms : memSystems_)
            ms->saveState(s);
        ck.addSection("mem_systems", std::move(s));
    }
    {
        ckpt::Serializer s;
        s.putU64(cores_.size());
        for (const auto &c : cores_)
            c->saveState(s);
        ck.addSection("cores", std::move(s));
    }
    {
        ckpt::Serializer s;
        s.putU64(traces_.size());
        for (const auto &t : traces_)
            t->saveState(s);
        ck.addSection("traces", std::move(s));
    }
    return ck;
}

void
System::restoreCheckpoint(const ckpt::Checkpoint &ck)
{
    const std::uint64_t want = warmFingerprint(cfg_);
    if (ck.fingerprint() != want) {
        fatal("checkpoint fingerprint mismatch: file {:#x}, this "
              "configuration {:#x} -- the checkpoint was saved under a "
              "different warm-relevant configuration (org, workloads, "
              "warmup budget, core parameters or l3.* overrides)",
              ck.fingerprint(), want);
    }
    for (const auto &c : cores_)
        tdc_assert(c->instsRetired() == 0,
                   "restoring into a system that already ran ({} has "
                   "retired {} instructions)", c->name(),
                   c->instsRetired());

    // The tagless cache's GIPT stores live Pte pointers; its section
    // encodes them as (proc, type, vpn) identities that are resolved
    // against the page tables restored just before it.
    org_->setPteResolver(
        [this](ProcId proc, PageType type, PageNum vpn) -> Pte * {
            for (auto &pt : pageTables_) {
                if (pt->proc() != proc)
                    continue;
                return type == PageType::Page2M ? pt->findSuperpage(vpn)
                                                : pt->find(vpn);
            }
            return nullptr;
        });

    auto load = [&](std::string_view name, auto &&fn) {
        const ckpt::Section &sec = ck.require(name);
        ckpt::Deserializer d(sec.payload.data(), sec.payload.size());
        fn(d);
        if (!d.done())
            fatal("checkpoint: section '{}' has {} trailing bytes", name,
                  d.remaining());
    };

    load("phys", [&](ckpt::Deserializer &d) { phys_->loadState(d); });
    load("page_tables", [&](ckpt::Deserializer &d) {
        const std::uint64_t n = d.getU64();
        if (n != pageTables_.size())
            fatal("checkpoint has {} page tables, system has {}", n,
                  pageTables_.size());
        for (auto &pt : pageTables_)
            pt->loadState(d);
    });
    load("org", [&](ckpt::Deserializer &d) { org_->loadState(d); });
    load("dram_in_pkg",
         [&](ckpt::Deserializer &d) { inPkg_->loadState(d); });
    load("dram_off_pkg",
         [&](ckpt::Deserializer &d) { offPkg_->loadState(d); });
    load("mem_systems", [&](ckpt::Deserializer &d) {
        const std::uint64_t n = d.getU64();
        if (n != memSystems_.size())
            fatal("checkpoint has {} memory systems, system has {}", n,
                  memSystems_.size());
        for (auto &ms : memSystems_)
            ms->loadState(d);
    });
    load("cores", [&](ckpt::Deserializer &d) {
        const std::uint64_t n = d.getU64();
        if (n != cores_.size())
            fatal("checkpoint has {} cores, system has {}", n,
                  cores_.size());
        for (auto &c : cores_)
            c->loadState(d);
    });
    load("traces", [&](ckpt::Deserializer &d) {
        const std::uint64_t n = d.getU64();
        if (n != traces_.size())
            fatal("checkpoint has {} traces, system has {}", n,
                  traces_.size());
        for (auto &t : traces_)
            t->loadState(d);
    });

    // An armed auditor vets the restored state before measure() runs
    // on it: a deserialization bug surfaces here, at the boundary,
    // rather than as a mysterious divergence later.
    if (auditor_)
        auditor_->verifyAll();
}

void
System::saveCheckpoint(const std::string &path) const
{
    makeCheckpoint().writeFile(path);
}

void
System::loadCheckpoint(const std::string &path)
{
    restoreCheckpoint(ckpt::Checkpoint::loadFile(path));
}

} // namespace tdc
