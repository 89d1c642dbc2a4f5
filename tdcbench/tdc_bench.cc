/**
 * @file
 * tdc_bench: the repository benchmark.
 *
 * Four workloads, each chosen to load a different set of layers (the
 * README next to this file gives the reasons and the metric tables):
 *
 *  - spec-hit: the golden matrix, 8 organizations x {libquantum, mcf,
 *    milc}, every cell checked against tests/golden/;
 *  - mix-thrash: Table 5 MIX5 on {ctlb, sram, banshee, unison} with a
 *    32 MiB L3, where page fills, evictions and dirty writebacks
 *    dominate; the seed picks which core runs which program;
 *  - replay-lowmiss: PARSEC swaptions on ctlb run synthetic, recorded
 *    to a tdc-mtrace-v1 file and replayed, with almost no L3 traffic;
 *  - serve-drain: SweepService cold, warm and cached drains of the two
 *    committed manifests.
 *
 * A run repeats its workload until --seconds have passed (or exactly
 * --reps times) and reports medians over the repetitions. Only public
 * functions are timed, from outside, and nothing in the simulator is
 * instrumented. --trace selects the separate traced run: it reports
 * the per-layer metrics and writes its spans, kept in memory until the
 * end, as Chrome trace events to --trace-out.
 *
 *   tdc_bench [--workload=NAME] [--seed=N] [--seconds=S] [--reps=N]
 *             [--trace] [--trace-out=PATH] [--out=PATH] [--work=DIR]
 *   tdc_bench --update-expected      rewrite expected/mix-thrash.json
 *   tdc_bench --check-catalog=PATH   compare names with BENCHMARK.json
 *
 * Without --workload every workload runs in its own child process, one
 * at a time, so each one's peak RSS is its own. A single-workload run
 * prints one JSON object as its last stdout line (correct, attempted,
 * failed, metrics) and exits non-zero if any operation failed.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/config.hh"
#include "common/format.hh"
#include "common/json.hh"
#include "obs/events.hh"
#include "obs/probe.hh"
#include "runner/sweep.hh"
#include "runner/sweep_runner.hh"
#include "serve/cache_key.hh"
#include "serve/service.hh"
#include "sys/report.hh"
#include "sys/system.hh"
#include "trace/mtrace.hh"
#include "trace/replay.hh"
#include "trace/workloads.hh"

extern char **environ;

// ---- heap allocation counting -------------------------------------------
//
// The traced run arms the counter around each measure() call, which
// makes DESIGN.md 5c's "no per-event heap allocation" rule measurable
// (sys.measure_allocs). Disarmed, the cost is one relaxed load.

namespace {

std::atomic<bool> countAllocs{false};
std::atomic<std::uint64_t> allocCount{0};

} // namespace

void *
operator new(std::size_t n)
{
    if (countAllocs.load(std::memory_order_relaxed))
        allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace tdc;
namespace fs = std::filesystem;

namespace {

// ---- workload parameters ------------------------------------------------

/** tdc_check's budgets: spec-hit cells must match tests/golden/. */
constexpr std::uint64_t goldenWarmup = 500'000;
constexpr std::uint64_t goldenInsts = 1'000'000;

/** mix-thrash: a 32 MiB L3 that MIX5's footprint keeps thrashing. */
constexpr std::uint64_t mixL3Bytes = 32ULL << 20;
constexpr std::uint64_t mixWarmup = 500'000;
constexpr std::uint64_t mixInsts = 1'000'000;

/** replay-lowmiss: per-thread budgets of the 4-thread swaptions run. */
constexpr std::uint64_t replayWarmup = 1'000'000;
constexpr std::uint64_t replayInsts = 4'000'000;

/** serve-drain: workers per drain and cached re-drains per rep. */
constexpr unsigned serveWorkers = 2;
constexpr unsigned cachedDrainsPerRep = 10;
constexpr unsigned cachedDrainsTraced = 3;

/** Relative tolerance on floating-point results (tdc_check's). */
constexpr double floatTolerance = 1e-6;

/** Per-call samples the traced run takes on each cell. */
constexpr std::size_t probeCallsPerWorkload = 400'000;
constexpr std::size_t probeCallsMin = 50'000;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "spec-hit", "mix-thrash", "replay-lowmiss", "serve-drain"};
    return names;
}

// ---- the metric catalog -------------------------------------------------

struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better; //!< "higher" or "lower"
};

/** What a user of the simulator waits for; BENCHMARK.json bounds them. */
const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"kips", "kinst/s", "higher"},
        {"op_ms", "ms", "lower"},
        {"setup_s", "s", "lower"},
        {"peak_rss_mb", "MiB", "lower"},
    };
    return defs;
}

enum AccessClass { L1Hit, L2Hit, L3Path, TlbMiss, numClasses };
constexpr const char *classNames[numClasses] = {"l1hit", "l2hit", "l3",
                                                "tlbmiss"};

/** One metric per layer quantity the traced run measures. */
const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> v = {
            {"trace.records", "count", "lower"},
            {"vm.tlb_misses", "count", "lower"},
            {"cache.l1_accesses", "count", "lower"},
            {"cache.l2_accesses", "count", "lower"},
            {"dramcache.accesses", "count", "lower"},
            {"dramcache.page_fills", "count", "lower"},
            {"dramcache.page_writebacks", "count", "lower"},
            {"dramcache.victim_hits", "count", "higher"},
            {"dram.in_pkg_accesses", "count", "lower"},
            {"dram.off_pkg_accesses", "count", "lower"},
            {"sys.measure_allocs", "count", "lower"},
            {"obs.probe_events", "count", "lower"},
            {"ckpt.bytes", "bytes", "lower"},
            {"serve.result_hits", "count", "higher"},
            {"serve.warm_hits", "count", "higher"},
            {"serve.warm_misses", "count", "lower"},
            {"serve.spool_bytes", "bytes", "lower"},
            {"trace.clock_ns", "ns", "lower"},
            {"trace.next_ns.p50", "ns", "lower"},
            {"trace.next_ns.p99", "ns", "lower"},
            {"trace.replay_next_ns.p50", "ns", "lower"},
            {"trace.replay_next_ns.p99", "ns", "lower"},
        };
        for (const char *c : classNames)
            for (const char *q : {"p50", "p99"})
                v.push_back({format("core.access_ns.{}.{}", c, q), "ns",
                             "lower"});
        v.insert(v.end(), {
            {"cache.l2_ns", "ns", "lower"},
            {"dramcache.l3_path_ns", "ns", "lower"},
            {"core.self_ns_per_inst", "ns", "lower"},
            {"attrib.residual_frac", "frac", "lower"},
            {"obs.probe_slowdown", "ratio", "lower"},
            {"sys.ctor_ms", "ms", "lower"},
            {"sys.warmup_s", "s", "lower"},
            {"sys.measure_s", "s", "lower"},
            {"trace.record_slowdown", "ratio", "lower"},
        });
        for (OrgKind k : allOrgKinds())
            v.push_back({format("sys.kips.{}", cliName(k)), "kinst/s",
                         "higher"});
        for (OrgKind k : allOrgKinds())
            v.push_back({format("dramcache.l3_path_ns.{}", cliName(k)),
                         "ns", "lower"});
        for (OrgKind k : allOrgKinds())
            v.push_back({format("core.access_ns.tlbmiss.{}", cliName(k)),
                         "ns", "lower"});
        v.insert(v.end(), {
            {"runner.sweep_s", "s", "lower"},
            {"serve.cold_overhead_frac", "frac", "lower"},
            {"serve.cached_job_ms", "ms", "lower"},
            {"ckpt.save_ms", "ms", "lower"},
            {"ckpt.restore_ms", "ms", "lower"},
            {"metrics.publish_ms", "ms", "lower"},
        });
        return v;
    }();
    return defs;
}

// ---- statistics ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
nanos(Clock::duration d)
{
    return std::chrono::duration<double, std::nano>(d).count();
}

/** A sample set; quantiles interpolate between order statistics. */
class Samples
{
  public:
    void
    add(double x)
    {
        xs_.push_back(x);
        sorted_ = false;
    }

    void
    append(const Samples &o)
    {
        xs_.insert(xs_.end(), o.xs_.begin(), o.xs_.end());
        sorted_ = false;
    }

    std::size_t size() const { return xs_.size(); }

    /** 0 for an empty set, so every reported metric is a number. */
    double
    quantile(double q)
    {
        if (xs_.empty())
            return 0.0;
        if (!sorted_) {
            std::sort(xs_.begin(), xs_.end());
            sorted_ = true;
        }
        const double pos = q * static_cast<double>(xs_.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, xs_.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return xs_[lo] + frac * (xs_[hi] - xs_[lo]);
    }

    double median() { return quantile(0.5); }

    /**
     * The mean of the order statistics within (1 - q) / 5 of rank
     * around quantile q: p50 averages p40..p60, p99 averages
     * p98.8..p99.2. Per-call times are whole nanoseconds, so a plain
     * quantile would repeat to the digit and hide small shifts.
     */
    double
    bandMean(double q)
    {
        if (xs_.empty())
            return 0.0;
        quantile(q); // sorts
        const std::size_t n = xs_.size();
        const std::size_t h = std::max<std::size_t>(
            1, static_cast<std::size_t>((1.0 - q) / 5.0
                                        * static_cast<double>(n)));
        const auto r = static_cast<std::size_t>(
            std::lround(q * static_cast<double>(n - 1)));
        const std::size_t lo = r > h ? r - h : 0;
        const std::size_t hi = std::min(n - 1, r + h);
        return std::accumulate(xs_.begin() + lo, xs_.begin() + hi + 1, 0.0)
               / static_cast<double>(hi - lo + 1);
    }

  private:
    std::vector<double> xs_;
    bool sorted_ = true;
};

/** Every metric a run reports, in catalog order, with its spread. */
class Report
{
  public:
    explicit Report(const std::vector<MetricDef> &catalog)
        : catalog_(catalog)
    {
    }

    void
    sampled(const std::string &name, Samples &s)
    {
        stats_[name] = {s.median(), s.quantile(0.25), s.quantile(0.75),
                        s.size()};
    }

    void
    value(const std::string &name, double v, std::size_t n = 1)
    {
        stats_[name] = {v, v, v, n};
    }

    /** {"name": {"value", "unit"}} in catalog order; a catalog
     *  metric the run did not produce is a benchmark bug. */
    json::Value
    metrics(bool spread) const
    {
        auto m = json::Value::object();
        for (const MetricDef &d : catalog_) {
            auto it = stats_.find(d.name);
            if (it == stats_.end())
                tdc_panic("metric '{}' was not measured", d.name);
            auto e = json::Value::object();
            e.set("value", it->second.value);
            e.set("unit", d.unit);
            if (spread) {
                e.set("p25", it->second.p25);
                e.set("p75", it->second.p75);
                e.set("n", std::uint64_t{it->second.n});
            }
            m.set(d.name, std::move(e));
        }
        return m;
    }

    void
    print(std::ostream &os) const
    {
        os << format("  {:<34} {:<8} {:>14} {:>14} {:>14} {:>7}\n",
                     "metric", "unit", "median", "p25", "p75", "n");
        for (const MetricDef &d : catalog_) {
            auto it = stats_.find(d.name);
            if (it == stats_.end())
                continue;
            const Stat &s = it->second;
            os << format("  {:<34} {:<8} {:>14.4f} {:>14.4f} {:>14.4f} "
                         "{:>7}\n",
                         d.name, d.unit, s.value, s.p25, s.p75, s.n);
        }
    }

  private:
    struct Stat
    {
        double value = 0.0, p25 = 0.0, p75 = 0.0;
        std::size_t n = 0;
    };

    const std::vector<MetricDef> &catalog_;
    std::map<std::string, Stat> stats_;
};

/** Operations attempted and failed; an operation is one cell-rep, one
 *  drain or one report comparison. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    op(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        std::cerr << "[tdc_bench] FAIL " << what << "\n";
        if (errors.size() < 20)
            errors.push_back(what);
    }
};

// ---- correctness --------------------------------------------------------

/**
 * Collects every leaf of `want` that `got` lacks or contradicts:
 * counters exactly, other numbers within relative `tol` (tdc_check's
 * rule), everything else by its serialization.
 */
void
diffJson(const json::Value &want, const json::Value *got, double tol,
         const std::string &path, std::vector<std::string> &diffs)
{
    if (got == nullptr) {
        diffs.push_back(path + " missing");
        return;
    }
    if (want.isObject()) {
        for (const auto &[key, v] : want.members())
            diffJson(v, got->find(key), tol,
                     path.empty() ? key : path + "." + key, diffs);
        return;
    }
    if (want.isArray()) {
        if (!got->isArray() || got->size() != want.size()) {
            diffs.push_back(path + " length differs");
            return;
        }
        for (std::size_t i = 0; i < want.size(); ++i)
            diffJson(want.at(i), &got->at(i), tol,
                     format("{}[{}]", path, i), diffs);
        return;
    }
    if (want.isUint() && got->isUint()) {
        if (want.asUint() != got->asUint())
            diffs.push_back(format("{} want {} got {}", path,
                                   want.asUint(), got->asUint()));
        return;
    }
    if (want.isNumber() && got->isNumber()) {
        const double w = want.asDouble(), g = got->asDouble();
        const double scale = std::max(std::abs(w), std::abs(g));
        if (scale > 0.0 && std::abs(w - g) / scale > tol)
            diffs.push_back(format("{} want {} got {}", path, w, g));
        return;
    }
    if (want.dump(-1) != got->dump(-1))
        diffs.push_back(path + " differs");
}

/** "" when `got` matches `want`, else the first few differences. */
std::string
mismatch(const json::Value &want, const json::Value &got, double tol)
{
    std::vector<std::string> diffs;
    diffJson(want, &got, tol, "", diffs);
    std::string s;
    for (std::size_t i = 0; i < diffs.size() && i < 3; ++i)
        s += (i != 0 ? "; " : "") + diffs[i];
    if (diffs.size() > 3)
        s += format(" (+{} more)", diffs.size() - 3);
    return s;
}

// ---- cells --------------------------------------------------------------

runner::JobSpec
cell(OrgKind org, const std::vector<std::string> &workloads,
     std::uint64_t l3_bytes, std::uint64_t warmup, std::uint64_t insts)
{
    runner::JobSpec j;
    j.org = org;
    j.workloads = workloads;
    j.l3SizeBytes = l3_bytes;
    j.warmupInsts = warmup;
    j.instsPerCore = insts;
    std::string names;
    for (const std::string &w : workloads)
        names += (names.empty() ? "" : ",") + w;
    j.label = format("{}/{}", cliName(org), names);
    return j;
}

std::vector<runner::JobSpec>
specHitCells()
{
    std::vector<runner::JobSpec> cells;
    for (OrgKind org : allOrgKinds())
        for (const char *w : {"libquantum", "mcf", "milc"})
            cells.push_back(
                cell(org, {w}, 1ULL << 30, goldenWarmup, goldenInsts));
    return cells;
}

/**
 * MIX5 (mcf, soplex, GemsFDTD, lbm) with its programs placed on the
 * cores in one of the 8 rotations and reflections; `seed` picks which.
 * Every arrangement keeps the mix's footprint and write traffic, so
 * seeds give held-out inputs without changing the workload's nature
 * (different Table 5 mixes differ in run time by up to 2.7x).
 */
std::vector<std::string>
mixArrangement(std::uint64_t seed)
{
    const auto &mix = table5Mixes().at(4);
    const unsigned k = static_cast<unsigned>(seed % 8);
    std::vector<std::string> w;
    for (unsigned i = 0; i < 4; ++i)
        w.push_back(mix[(i + k) % 4]);
    if (k >= 4)
        std::reverse(w.begin(), w.end());
    return w;
}

std::vector<runner::JobSpec>
mixThrashCells(std::uint64_t seed)
{
    std::vector<runner::JobSpec> cells;
    for (OrgKind org : {OrgKind::Tagless, OrgKind::SramTag,
                        OrgKind::Banshee, OrgKind::Unison})
        cells.push_back(cell(org, mixArrangement(seed), mixL3Bytes,
                             mixWarmup, mixInsts));
    return cells;
}

runner::JobSpec
replayCell()
{
    return cell(OrgKind::Tagless, {"swaptions"}, 1ULL << 30, replayWarmup,
                replayInsts);
}

runner::SweepManifest
benchManifest(const std::string &file)
{
    try {
        return runner::SweepManifest::load(
            format("{}/manifests/{}", TDC_BENCH_DIR, file));
    } catch (const runner::ManifestError &e) {
        fatal("tdc_bench: {}", e.what());
    }
}

runner::SweepManifest
manifestOf(const std::string &name, std::vector<runner::JobSpec> jobs)
{
    runner::SweepManifest m;
    m.name = name;
    m.jobs = std::move(jobs);
    return m;
}

std::string
mixExpectedPath()
{
    return format("{}/expected/mix-thrash.json", TDC_BENCH_DIR);
}

/** The expected `result` subtree of every cell, by label. */
std::vector<json::Value>
expectedResults(const std::string &workload,
                const std::vector<runner::JobSpec> &cells)
{
    std::vector<json::Value> want;
    if (workload == "spec-hit") {
        for (const auto &c : cells) {
            const json::Value doc = json::readFile(
                format("{}/tests/golden/{}_{}.json", TDC_SOURCE_DIR,
                       cliName(c.org), c.workloads.front()));
            const json::Value *r = doc.find("result");
            want.push_back(r != nullptr ? *r : json::Value());
        }
        return want;
    }
    const json::Value doc = json::readFile(mixExpectedPath());
    const json::Value *all = doc.find("cells");
    for (const auto &c : cells) {
        const json::Value *r =
            all != nullptr ? all->find(c.label) : nullptr;
        want.push_back(r != nullptr ? *r : json::Value());
    }
    return want;
}

// ---- end-to-end runs ----------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 5;
    double seconds = 25.0;
    unsigned reps = 0; //!< exact repetitions; 0 means time-bounded
    bool trace = false;
    std::string traceOut = "bench-trace.json";
    std::string out;
    std::string work = ".bench_work";
};

/** What the untraced repetitions measure. */
struct Run
{
    Tally tally;
    Samples kips;  //!< per rep: simulated kinst / host s of the
                   //!< simulating calls
    Samples opMs;  //!< per rep: the workload's repeated request
    Samples setup; //!< per rep: what must precede the timed calls
    unsigned reps = 0;
};

/** Runs `rep` until the time budget is spent, or exactly --reps times;
 *  always at least once. */
template <typename Fn>
void
repeat(const Options &opt, Run &run, Fn &&rep)
{
    const auto t0 = Clock::now();
    do {
        rep();
        ++run.reps;
    } while (opt.reps != 0 ? run.reps < opt.reps
                           : seconds(Clock::now() - t0) < opt.seconds);
}

/** One rep of spec-hit or mix-thrash: build, warm, measure and check
 *  every cell. op_ms is the mean time of one whole design point. */
void
cellsRep(const std::vector<runner::JobSpec> &cells,
         const std::vector<json::Value> &want, Run &run)
{
    double setup = 0.0, sim = 0.0;
    std::uint64_t insts = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::string err;
        try {
            ScopedFatalCapture capture;
            const SystemConfig cfg = cells[i].toSystemConfig();
            const auto t0 = Clock::now();
            System sys(cfg);
            sys.warmup();
            const auto t1 = Clock::now();
            const RunResult r = sys.measure();
            const auto t2 = Clock::now();
            setup += seconds(t1 - t0);
            sim += seconds(t2 - t1);
            insts += r.totalInsts;
            err = want[i].isNull()
                      ? "no expected result"
                      : mismatch(want[i], toJson(r), floatTolerance);
        } catch (const std::exception &e) {
            err = e.what();
        }
        run.tally.op(err.empty(), cells[i].label + ": " + err);
    }
    run.setup.add(setup);
    run.opMs.add((setup + sim) * 1e3 / static_cast<double>(cells.size()));
    if (sim > 0.0)
        run.kips.add(static_cast<double>(insts) / sim / 1e3);
}

/**
 * One rep of replay-lowmiss: the synthetic run, the same run recording
 * every core's stream, and a replay of that recording. Set-up counts
 * construction, warmup, publishing the trace and opening it the way a
 * fresh process would; kips counts the three measure() calls; op_ms is
 * the whole replay leg. Recording and replay must reproduce the
 * synthetic result exactly.
 */
void
replayRep(const std::string &trace_path, Run &run)
{
    std::string err;
    try {
        ScopedFatalCapture capture;
        const SystemConfig synth = replayCell().toSystemConfig();
        SystemConfig record = synth;
        record.recordTracePath = trace_path;
        SystemConfig replay = synth;
        replay.workloads = {"trace:" + trace_path};

        double setup = 0.0, sim = 0.0;
        std::uint64_t insts = 0;
        auto leg = [&](const SystemConfig &cfg, bool replaying) {
            const auto t0 = Clock::now();
            if (replaying) {
                const mtrace::MtraceReader open(trace_path);
            }
            System sys(cfg);
            sys.warmup();
            const auto t1 = Clock::now();
            const RunResult r = sys.measure();
            const auto t2 = Clock::now();
            sys.finishRecording();
            setup += seconds(t1 - t0) + seconds(Clock::now() - t2);
            sim += seconds(t2 - t1);
            insts += r.totalInsts;
            if (replaying)
                run.opMs.add(seconds(t2 - t0) * 1e3);
            return toJson(r);
        };
        const json::Value want = leg(synth, false);
        const json::Value recorded = leg(record, false);
        const json::Value replayed = leg(replay, true);
        run.setup.add(setup);
        run.kips.add(static_cast<double>(insts) / sim / 1e3);

        err = mismatch(want, recorded, 0.0);
        if (!err.empty())
            err = "recorded run differs: " + err;
        else if (!(err = mismatch(want, replayed, 0.0)).empty())
            err = "replay differs: " + err;
    } catch (const std::exception &e) {
        err = e.what();
    }
    run.tally.op(err.empty(), "replay-lowmiss: " + err);
}

serve::ServeConfig
serveConfig(const std::string &root)
{
    serve::ServeConfig cfg;
    cfg.root = root;
    cfg.jobs = serveWorkers;
    cfg.progress = false;
    return cfg;
}

std::uint64_t
warmGroups(const runner::SweepManifest &m)
{
    std::vector<std::uint64_t> fps;
    for (const auto &j : m.jobs)
        fps.push_back(warmFingerprint(j.toSystemConfig()));
    std::sort(fps.begin(), fps.end());
    return static_cast<std::uint64_t>(
        std::unique(fps.begin(), fps.end()) - fps.begin());
}

/** Host seconds and hit counts of one cold, warm, cached sequence. */
struct DrainTimes
{
    double cold = 0.0;
    double warm = 0.0;
    Samples cachedMs;
    std::uint64_t simulatedInsts = 0;
    std::uint64_t resultHits = 0, warmHits = 0, warmMisses = 0;
};

/**
 * Drains `m` cold, `warm_m` (the same warm groups, other budgets) from
 * the warm cache, then `m` `cached` more times from the result cache.
 * Each drain is one op and must report exactly the expected hits; the
 * served report of `m` must equal `reference` byte for byte.
 */
DrainTimes
drainSequence(serve::SweepService &svc, const runner::SweepManifest &m,
              const runner::SweepManifest &warm_m, unsigned cached,
              const std::string &reference, Tally &tally)
{
    DrainTimes dt;
    const std::uint64_t groups = warmGroups(m);
    auto drain = [&](const runner::SweepManifest &x, const char *kind,
                     std::uint64_t result_hits, std::uint64_t warm_hits,
                     std::uint64_t warm_misses) {
        const auto t0 = Clock::now();
        svc.enqueue(x);
        const serve::DrainStats st = svc.drainOnce();
        const double wall = seconds(Clock::now() - t0);
        tally.op(st.jobs == x.jobs.size() && st.ok == st.jobs
                     && st.resultCacheHits == result_hits
                     && st.warmCacheHits == warm_hits
                     && st.warmCacheMisses == warm_misses,
                 format("{} drain of {}: {}", kind, x.name,
                        st.summaryLine()));
        dt.simulatedInsts +=
            st.warmupInstsSimulated + st.measureInstsSimulated;
        dt.resultHits += st.resultCacheHits;
        dt.warmHits += st.warmCacheHits;
        dt.warmMisses += st.warmCacheMisses;
        return wall;
    };
    dt.cold = drain(m, "cold", 0, 0, groups);
    dt.warm = drain(warm_m, "warm", 0, groups, 0);
    for (unsigned i = 0; i < cached; ++i)
        dt.cachedMs.add(drain(m, "cached", m.jobs.size(), 0, 0) * 1e3);
    tally.op(svc.reportFor(m).dump() == reference,
             format("served report of {} differs from the direct sweep",
                    m.name));
    return dt;
}

/** SweepRunner over `m` as tdc_sweep --warm-once -j2 runs it. */
std::vector<runner::JobResult>
directSweep(const runner::SweepManifest &m)
{
    runner::SweepOptions o;
    o.jobs = serveWorkers;
    o.progress = false;
    o.shareWarmups = true;
    return runner::SweepRunner(o).run(m);
}

/**
 * One rep of serve-drain on a fresh root. Set-up is the direct sweep
 * of A whose report the served one must equal, plus starting the
 * service. kips is simulated instructions over the cold and warm
 * drains, and op_ms is the warm drain: the request the warm cache
 * exists for. Cached drains simulate nothing and take a few ms of
 * file operations, too noisy to bound; they are checked here and
 * timed by the traced run (serve.cached_job_ms).
 */
void
serveRep(const runner::SweepManifest &a, const runner::SweepManifest &b,
         const std::string &root, Run &run)
{
    fs::remove_all(root);
    try {
        const auto t0 = Clock::now();
        const std::string reference =
            runner::SweepRunner::aggregateReport(a, directSweep(a)).dump();
        serve::SweepService svc(serveConfig(root));
        run.setup.add(seconds(Clock::now() - t0));
        const DrainTimes dt = drainSequence(svc, a, b, cachedDrainsPerRep,
                                            reference, run.tally);
        run.kips.add(static_cast<double>(dt.simulatedInsts)
                     / (dt.cold + dt.warm) / 1e3);
        run.opMs.add(dt.warm * 1e3);
    } catch (const std::exception &e) {
        run.tally.op(false, format("serve-drain: {}", e.what()));
    }
    fs::remove_all(root);
}

/**
 * The peak resident set of this process image (VmHWM). getrusage()
 * would also count the images this process ran before exec(), such
 * as the interpreter of a launcher script.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    double kib = 0.0;
    while (status >> key) {
        if (key == "VmHWM:") {
            status >> kib;
            break;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return kib / 1024.0;
}

void
endToEnd(const Options &opt, const std::string &work, Tally &tally,
         Report &report)
{
    Run run;
    const std::string &w = opt.workload;
    if (w == "spec-hit" || w == "mix-thrash") {
        const auto cells =
            w == "spec-hit" ? specHitCells() : mixThrashCells(opt.seed);
        const auto want = expectedResults(w, cells);
        repeat(opt, run, [&] { cellsRep(cells, want, run); });
    } else if (w == "replay-lowmiss") {
        const std::string path = work + "/replay.mtrace";
        repeat(opt, run, [&] { replayRep(path, run); });
    } else {
        const auto a = benchManifest("drain-a.json");
        const auto b = benchManifest("drain-b.json");
        // Hash the executable before timing: every cache key needs it.
        serve::binaryHash();
        repeat(opt, run, [&] { serveRep(a, b, work + "/serve", run); });
    }
    report.sampled("kips", run.kips);
    report.sampled("op_ms", run.opMs);
    report.sampled("setup_s", run.setup);
    report.value("peak_rss_mb", peakRssMb());
    tally = run.tally;
    std::cerr << format("[tdc_bench] {} seed={}: {} rep(s)\n", w,
                        opt.seed, run.reps);
}

// ---- the traced run -----------------------------------------------------

/**
 * Spans around the calls into each layer, held in memory and written
 * once as Chrome trace events (Perfetto opens them). A span's parent
 * is the innermost span open when it began.
 */
class Tracer
{
  public:
    std::size_t
    begin(std::string name)
    {
        const std::size_t parent = stack_.empty() ? 0 : stack_.back() + 1;
        spans_.push_back({std::move(name), nanos(Clock::now() - epoch_),
                          0.0, parent});
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    /** Closes the innermost span `h`; returns its length in seconds. */
    double
    end(std::size_t h)
    {
        tdc_assert(!stack_.empty() && stack_.back() == h,
                   "span '{}' closed out of order", spans_.at(h).name);
        stack_.pop_back();
        Span &s = spans_[h];
        s.durNs = nanos(Clock::now() - epoch_) - s.startNs;
        return s.durNs * 1e-9;
    }

    json::Value
    events(std::uint64_t pid) const
    {
        auto ev = json::Value::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            auto e = json::Value::object();
            e.set("name", s.name);
            e.set("cat", "tdc_bench");
            e.set("ph", "X");
            e.set("ts", s.startNs / 1e3);
            e.set("dur", s.durNs / 1e3);
            e.set("pid", pid);
            e.set("tid", std::uint64_t{1});
            auto args = json::Value::object();
            args.set("id", std::uint64_t{i + 1});
            args.set("parent", std::uint64_t{s.parent});
            e.set("args", std::move(args));
            ev.push(std::move(e));
        }
        return ev;
    }

  private:
    struct Span
    {
        std::string name;
        double startNs;
        double durNs;
        std::size_t parent; //!< 1-based span id; 0 for a root
    };

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

json::Value
traceDocument(json::Value events)
{
    auto doc = json::Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ns");
    return doc;
}

/** Counts every event fired at one System's public probe points. */
template <typename Event>
class CountingListener final : public obs::ProbeListener<Event>
{
  public:
    void notify(const Event &) override { ++count; }
    std::uint64_t count = 0;
};

struct ProbeCounters
{
    CountingListener<obs::TlbMissEvent> tlbMiss;
    CountingListener<obs::PageFillEvent> fill;
    CountingListener<obs::EvictionEvent> evict;
    CountingListener<obs::VictimHitEvent> victimHit;
    CountingListener<obs::FreeQueueEvent> freeQueue;
    CountingListener<obs::GiptEvent> gipt;
    CountingListener<obs::DramAccessEvent> dram;
    CountingListener<obs::RetireEvent> retire;

    /** The listeners must outlive `sys`. */
    void
    attach(System &sys)
    {
        DramCacheOrg &org = sys.org();
        org.fillProbe.attach(&fill);
        org.evictProbe.attach(&evict);
        org.victimHitProbe.attach(&victimHit);
        org.freeQueueProbe.attach(&freeQueue);
        org.giptProbe.attach(&gipt);
        sys.inPkgDram().accessProbe.attach(&dram);
        sys.offPkgDram().accessProbe.attach(&dram);
        for (unsigned i = 0; i < sys.activeCores(); ++i) {
            sys.memSystem(i).tlbMissProbe.attach(&tlbMiss);
            sys.core(i).retireProbe.attach(&retire);
        }
    }

    std::uint64_t
    total() const
    {
        return tlbMiss.count + fill.count + evict.count + victimHit.count
               + freeQueue.count + gipt.count + dram.count + retire.count;
    }
};

/** Public counters of one System; `refs` and `now` are per core. */
struct Counters
{
    std::uint64_t records = 0, tlbMisses = 0, l1 = 0, l2 = 0;
    std::uint64_t inPkg = 0, offPkg = 0;
    std::vector<std::uint64_t> refs;
    std::vector<Tick> now;

    static Counters
    of(System &sys)
    {
        Counters c;
        for (unsigned i = 0; i < sys.activeCores(); ++i) {
            c.refs.push_back(sys.core(i).memRefs());
            c.now.push_back(sys.core(i).now());
            c.records += c.refs.back();
            const MemorySystem &ms = sys.memSystem(i);
            c.tlbMisses += ms.tlbFullMisses();
            c.l1 += ms.l1Accesses();
            c.l2 += ms.l2Accesses();
        }
        c.inPkg = sys.inPkgDram().reads() + sys.inPkgDram().writes();
        c.offPkg = sys.offPkgDram().reads() + sys.offPkgDram().writes();
        return c;
    }
};

/** Host ns per call, after subtracting the clock-read cost. */
struct CallTimes
{
    Samples next;
    Samples access[numClasses];
    double explainedS = 0.0; //!< the measure leg's references at the
                             //!< bulk-timed next() + access() rate

    /** Pools the per-call samples. */
    void
    append(const CallTimes &o)
    {
        next.append(o.next);
        for (int c = 0; c < numClasses; ++c)
            access[c].append(o.access[c]);
    }
};

AccessClass
classify(const MemAccessResult &r)
{
    if (r.tlbMiss)
        return TlbMiss;
    if (r.l1Hit)
        return L1Hit;
    return r.l2Hit ? L2Hit : L3Path;
}

/** Host cost of one clock read: what a timed interval adds. */
double
clockCostNs()
{
    constexpr int reads = 200000;
    const auto t0 = Clock::now();
    Clock::time_point last = t0;
    for (int i = 0; i < reads; ++i)
        last = Clock::now();
    return nanos(last - t0) / reads;
}

/** next() costs about one clock read, so it is timed in groups. */
constexpr std::size_t nextGroup = 16;

/** Appends the per-call cost of `n` next() calls, timed in groups. */
void
timeNext(TraceSource &src, std::size_t n, double clock_ns, Samples &out)
{
    for (std::size_t i = 0; i < n; i += nextGroup) {
        const auto a = Clock::now();
        for (std::size_t j = 0; j < nextGroup; ++j)
            src.next();
        const auto b = Clock::now();
        out.add((nanos(b - a) - clock_ns) / nextGroup);
    }
}

/**
 * Calls of every core's workload source and memory system on the
 * cell's own measured System, `n` in all. Each core's source is built
 * afresh and first skips the records the core already consumed, so the
 * calls continue the measured stream with its steady-state hit and
 * miss mix; the tick advances at the core's measured ticks per
 * reference.
 *
 * Per core, the first half of the records is timed in bulk, one clock
 * pair around all next() and access() calls, and that rate times the
 * core's measure-leg references is the attributed time (timing each
 * call alone serializes calls that overlap in a real run). The second
 * half is timed one call at a time for the percentiles, accesses
 * bucketed by the MemAccessResult they return.
 */
CallTimes
timeCalls(System &sys, const Counters &before, const Counters &after,
          std::size_t n, double clock_ns)
{
    CallTimes t;
    const std::vector<std::string> &names = sys.config().workloads;
    const unsigned cores = sys.activeCores();
    const std::size_t half = n / cores / 2;
    std::vector<TraceRecord> recs(half);
    for (unsigned c = 0; c < cores; ++c) {
        auto src = makeWorkloadSource(
            getWorkload(names.size() == 1 ? names[0] : names[c]), c);
        for (std::uint64_t i = after.refs[c]; i > 0; --i)
            src->next();
        const std::uint64_t refs = after.refs[c] - before.refs[c];
        const double ticks_per_ref =
            refs != 0 ? static_cast<double>(after.now[c] - before.now[c])
                            / static_cast<double>(refs)
                      : 0.0;
        auto when = [&](std::size_t i) {
            return static_cast<Tick>(static_cast<double>(after.now[c])
                                     + static_cast<double>(i)
                                           * ticks_per_ref);
        };
        MemorySystem &ms = sys.memSystem(c);

        const auto b0 = Clock::now();
        for (TraceRecord &r : recs)
            r = src->next();
        for (std::size_t i = 0; i < half; ++i)
            ms.access(recs[i].vaddr, recs[i].type, when(i));
        t.explainedS += seconds(Clock::now() - b0)
                        / static_cast<double>(half)
                        * static_cast<double>(refs);

        for (TraceRecord &r : recs)
            r = src->next();
        for (std::size_t i = 0; i < half; ++i) {
            const auto a = Clock::now();
            const MemAccessResult r =
                ms.access(recs[i].vaddr, recs[i].type, when(half + i));
            const auto b = Clock::now();
            t.access[classify(r)].add(nanos(b - a) - clock_ns);
        }
        timeNext(*src, half, clock_ns, t.next);
    }
    return t;
}

/** Everything the traced run accumulates for one workload. */
struct LayerPass
{
    double clockNs = 0.0;
    std::size_t ownCalls = probeCallsMin;

    CallTimes own; //!< the workload's own cells, pooled

    // Every cell, by position in allOrgKinds().
    std::vector<CallTimes> byOrg{allOrgKinds().size()};
    std::vector<double> orgInsts = std::vector<double>(byOrg.size());
    std::vector<double> orgMeasureS = std::vector<double>(byOrg.size());

    Samples replayNext;

    // Sums over the workload's own cells.
    double ctorS = 0.0, warmupS = 0.0, measureS = 0.0;
    double explainedS = 0.0, insts = 0.0;
    Samples saveMs, restoreMs;
    std::map<std::string, std::uint64_t> counts;
    json::Value cellAllocs = json::Value::array();

    // Over every cell.
    double allMeasureS = 0.0, probedS = 0.0;
    double recordSlowdown = 0.0;

    double sweepS = 0.0, coldOverhead = 0.0, cachedJobMs = 0.0;
    Samples publishMs;
};

unsigned
orgIndex(OrgKind k)
{
    const auto &all = allOrgKinds();
    return static_cast<unsigned>(
        std::find(all.begin(), all.end(), k) - all.begin());
}

/**
 * The record leg of the traced run: the cell again, recording every
 * core's stream (record_slowdown against the plain build + warmup +
 * measure), then replay next() times on that recording.
 */
void
recordLeg(const runner::JobSpec &spec, double plain_s,
          const std::string &work, Tracer &tr, LayerPass &lp)
{
    SystemConfig cfg = spec.toSystemConfig();
    cfg.recordTracePath = work + "/layer.mtrace";
    std::size_t s = tr.begin("trace.record");
    {
        System sys(cfg);
        sys.warmup();
        sys.measure();
        sys.finishRecording();
    }
    lp.recordSlowdown = tr.end(s) / plain_s;

    s = tr.begin("trace.replay_next");
    mtrace::ReplayTraceSource src(
        mtrace::acquireReader(cfg.recordTracePath), 0);
    timeNext(src, lp.ownCalls, lp.clockNs, lp.replayNext);
    tr.end(s);
}

/**
 * One cell of the traced run. System A builds, warms, checkpoints to a
 * file and measures with the allocation counter armed; System B
 * restores that checkpoint and measures again with a counting listener
 * on every probe point (its result must equal A's); then per-call
 * times are taken on A. Only the workload's own cells feed the counts,
 * spans and attribution; other cells add per-organization numbers.
 */
void
layerCell(const runner::JobSpec &spec, bool own, bool record,
          const std::string &work, Tracer &tr, LayerPass &lp, Tally &tally)
{
    const SystemConfig cfg = spec.toSystemConfig();
    const std::string ckpt_path = work + "/layer.ckpt";
    const std::size_t cell_span = tr.begin("cell " + spec.label);

    std::size_t s = tr.begin("sys.ctor");
    System a(cfg);
    const double ctor_s = tr.end(s);
    s = tr.begin("sys.warmup");
    a.warmup();
    const double warmup_s = tr.end(s);
    s = tr.begin("ckpt.save");
    a.saveCheckpoint(ckpt_path);
    const double save_s = tr.end(s);

    const Counters c0 = Counters::of(a);
    s = tr.begin("sys.measure");
    allocCount.store(0, std::memory_order_relaxed);
    countAllocs.store(true, std::memory_order_relaxed);
    const RunResult ra = a.measure();
    countAllocs.store(false, std::memory_order_relaxed);
    const double measure_s = tr.end(s);
    const std::uint64_t allocs = allocCount.load(std::memory_order_relaxed);
    const Counters c1 = Counters::of(a);

    ProbeCounters probes;
    double restore_s = 0.0, probed_s = 0.0;
    {
        System b(cfg);
        probes.attach(b);
        s = tr.begin("ckpt.restore");
        b.loadCheckpoint(ckpt_path);
        restore_s = tr.end(s);
        s = tr.begin("sys.measure.probed");
        const RunResult rb = b.measure();
        probed_s = tr.end(s);
        const std::string err = mismatch(toJson(ra), toJson(rb), 0.0);
        tally.op(err.empty(),
                 spec.label + ": restored measure differs: " + err);
    }

    s = tr.begin("probe.calls");
    const CallTimes ct = timeCalls(a, c0, c1,
                                   own ? lp.ownCalls : probeCallsMin,
                                   lp.clockNs);
    tr.end(s);

    const unsigned k = orgIndex(spec.org);
    lp.byOrg[k].append(ct);
    lp.orgInsts[k] += static_cast<double>(ra.totalInsts);
    lp.orgMeasureS[k] += measure_s;
    lp.allMeasureS += measure_s;
    lp.probedS += probed_s;
    if (own) {
        lp.own.append(ct);
        lp.ctorS += ctor_s;
        lp.warmupS += warmup_s;
        lp.measureS += measure_s;
        lp.insts += static_cast<double>(ra.totalInsts);
        lp.explainedS += ct.explainedS;
        lp.saveMs.add(save_s * 1e3);
        lp.restoreMs.add(restore_s * 1e3);
        auto &n = lp.counts;
        n["trace.records"] += c1.records - c0.records;
        n["vm.tlb_misses"] += c1.tlbMisses - c0.tlbMisses;
        n["cache.l1_accesses"] += c1.l1 - c0.l1;
        n["cache.l2_accesses"] += c1.l2 - c0.l2;
        n["dramcache.accesses"] += ra.l3Accesses;
        n["dramcache.page_fills"] += ra.pageFills;
        n["dramcache.page_writebacks"] += ra.pageWritebacks;
        n["dramcache.victim_hits"] += ra.victimHits;
        n["dram.in_pkg_accesses"] += c1.inPkg - c0.inPkg;
        n["dram.off_pkg_accesses"] += c1.offPkg - c0.offPkg;
        n["sys.measure_allocs"] += allocs;
        n["obs.probe_events"] += probes.total();
        n["ckpt.bytes"] += fs::file_size(ckpt_path);
        auto e = json::Value::object();
        e.set("label", spec.label);
        e.set("measure_allocs", allocs);
        lp.cellAllocs.push(std::move(e));
    }
    if (record)
        recordLeg(spec, ctor_s + warmup_s + measure_s, work, tr, lp);
    tr.end(cell_span);
}

/**
 * The runner, serve, ckpt and metrics layers on the workload's own
 * cells: a direct SweepRunner sweep, then a fresh service's cold, warm
 * and cached drains, and snapshot publication.
 */
void
servicePass(const runner::SweepManifest &m,
            const runner::SweepManifest &warm_m, const std::string &work,
            Tracer &tr, LayerPass &lp, Tally &tally)
{
    std::size_t s = tr.begin("runner.sweep");
    const auto direct = directSweep(m);
    lp.sweepS = tr.end(s);
    for (const auto &r : direct)
        tally.op(r.ok(), format("{}: direct sweep {}: {}", r.label,
                                runner::statusName(r.status), r.error));
    const std::string reference =
        runner::SweepRunner::aggregateReport(m, direct).dump();

    const std::string root = work + "/serve-layer";
    fs::remove_all(root);
    {
        s = tr.begin("serve.drains");
        serve::SweepService svc(serveConfig(root));
        DrainTimes dt = drainSequence(svc, m, warm_m, cachedDrainsTraced,
                                      reference, tally);
        tr.end(s);
        lp.coldOverhead = dt.cold / lp.sweepS - 1.0;
        lp.cachedJobMs =
            dt.cachedMs.median() / static_cast<double>(m.jobs.size());
        lp.counts["serve.result_hits"] += dt.resultHits;
        lp.counts["serve.warm_hits"] += dt.warmHits;
        lp.counts["serve.warm_misses"] += dt.warmMisses;
        for (int i = 0; i < 5; ++i) {
            s = tr.begin("metrics.publish");
            svc.publishMetrics();
            lp.publishMs.add(tr.end(s) * 1e3);
        }
    }
    std::uint64_t spool = 0;
    for (const auto &e : fs::recursive_directory_iterator(
             fs::path(root) / "queue"))
        if (e.is_regular_file())
            spool += e.file_size();
    lp.counts["serve.spool_bytes"] += spool;
    fs::remove_all(root);
}

/** The same jobs at 1.5x the measure budget: same warm groups. */
runner::SweepManifest
longerBudgets(const runner::SweepManifest &m)
{
    runner::SweepManifest w = m;
    w.name = m.name + "-warm";
    for (auto &j : w.jobs) {
        j.instsPerCore = j.instsPerCore * 3 / 2;
        j.label += "@1.5x";
    }
    return w;
}

void
tracedRun(const Options &opt, const std::string &work, Tracer &tr,
          Tally &tally, Report &report, json::Value &cell_allocs)
{
    const std::string &w = opt.workload;
    runner::SweepManifest m, warm_m;
    if (w == "spec-hit") {
        m = manifestOf(w, specHitCells());
    } else if (w == "mix-thrash") {
        m = manifestOf(w, mixThrashCells(opt.seed));
    } else if (w == "replay-lowmiss") {
        m = manifestOf(w, {replayCell()});
    } else {
        m = benchManifest("drain-a.json");
        warm_m = benchManifest("drain-b.json");
    }
    if (warm_m.jobs.empty())
        warm_m = longerBudgets(m);

    LayerPass lp;
    for (const MetricDef &d : perLayerMetrics())
        if (d.unit == "count" || d.unit == "bytes")
            lp.counts[d.name] = 0;
    lp.clockNs = clockCostNs();
    lp.ownCalls = std::max(probeCallsMin,
                           probeCallsPerWorkload / m.jobs.size());

    // Every organization runs on this workload's stream: its own cells,
    // then the first cell again for each organization it lacks.
    std::vector<bool> seen(allOrgKinds().size(), false);
    for (std::size_t i = 0; i < m.jobs.size(); ++i) {
        layerCell(m.jobs[i], true, i == 0, work, tr, lp, tally);
        seen[orgIndex(m.jobs[i].org)] = true;
    }
    const runner::JobSpec &first = m.jobs.front();
    for (OrgKind k : allOrgKinds())
        if (!seen[orgIndex(k)])
            layerCell(cell(k, first.workloads, first.l3SizeBytes,
                           first.warmupInsts, first.instsPerCore),
                      false, false, work, tr, lp, tally);
    fs::remove(work + "/layer.ckpt");
    fs::remove(work + "/layer.mtrace");

    servicePass(m, warm_m, work, tr, lp, tally);

    for (const auto &[name, n] : lp.counts)
        report.value(name, static_cast<double>(n));
    report.value("trace.clock_ns", lp.clockNs);
    auto percentiles = [&](const std::string &name, Samples &s) {
        report.value(name + ".p50", s.bandMean(0.5), s.size());
        report.value(name + ".p99", s.bandMean(0.99), s.size());
        return s.bandMean(0.5);
    };
    percentiles("trace.next_ns", lp.own.next);
    percentiles("trace.replay_next_ns", lp.replayNext);
    double p50[numClasses];
    for (int c = 0; c < numClasses; ++c)
        p50[c] = percentiles(format("core.access_ns.{}", classNames[c]),
                             lp.own.access[c]);
    report.value("cache.l2_ns", p50[L2Hit] - p50[L1Hit]);
    report.value("dramcache.l3_path_ns", p50[L3Path] - p50[L2Hit]);
    const double residual = lp.measureS - lp.explainedS;
    report.value("core.self_ns_per_inst", residual / lp.insts * 1e9);
    report.value("attrib.residual_frac", residual / lp.measureS);
    report.value("obs.probe_slowdown", lp.probedS / lp.allMeasureS);
    report.value("sys.ctor_ms", lp.ctorS * 1e3);
    report.value("sys.warmup_s", lp.warmupS);
    report.value("sys.measure_s", lp.measureS);
    report.value("trace.record_slowdown", lp.recordSlowdown);
    for (OrgKind k : allOrgKinds()) {
        const unsigned i = orgIndex(k);
        CallTimes &t = lp.byOrg[i];
        report.value(format("sys.kips.{}", cliName(k)),
                     lp.orgInsts[i] / lp.orgMeasureS[i] / 1e3);
        report.value(format("dramcache.l3_path_ns.{}", cliName(k)),
                     t.access[L3Path].bandMean(0.5)
                         - t.access[L2Hit].bandMean(0.5));
        report.value(format("core.access_ns.tlbmiss.{}", cliName(k)),
                     t.access[TlbMiss].bandMean(0.5),
                     t.access[TlbMiss].size());
    }
    report.value("runner.sweep_s", lp.sweepS);
    report.value("serve.cold_overhead_frac", lp.coldOverhead);
    report.value("serve.cached_job_ms", lp.cachedJobMs);
    report.sampled("ckpt.save_ms", lp.saveMs);
    report.sampled("ckpt.restore_ms", lp.restoreMs);
    report.sampled("metrics.publish_ms", lp.publishMs);
    cell_allocs = std::move(lp.cellAllocs);
}

// ---- entry points -------------------------------------------------------

bool
isWorkload(const std::string &w)
{
    const auto &all = workloadNames();
    return std::find(all.begin(), all.end(), w) != all.end();
}

int
runWorkload(const Options &opt)
{
    if (!isWorkload(opt.workload))
        fatal("tdc_bench: unknown workload '{}'", opt.workload);
    // Every drain prints a summary line on std::cout; the last stdout
    // line must be the result, so std::cout discards output meanwhile
    // (a null buffer sets badbit; restoring the buffer clears it).
    std::streambuf *stdout_buf = std::cout.rdbuf(nullptr);

    const std::string work =
        format("{}/{}-{}", opt.work, opt.workload, getpid());
    fs::create_directories(work);
    Tally tally;
    Report report(opt.trace ? perLayerMetrics() : endToEndMetrics());
    json::Value cell_allocs;
    if (opt.trace) {
        Tracer tr;
        tracedRun(opt, work, tr, tally, report, cell_allocs);
        json::writeFile(traceDocument(tr.events(1)), opt.traceOut);
    } else {
        endToEnd(opt, work, tally, report);
    }
    fs::remove_all(work);

    const bool correct = tally.failed == 0;
    std::cerr << format("[tdc_bench] {}{}: {}/{} operation(s) ok\n",
                        opt.workload, opt.trace ? " (traced)" : "",
                        tally.attempted - tally.failed, tally.attempted);
    report.print(std::cerr);

    if (!opt.out.empty()) {
        auto doc = json::Value::object();
        doc.set("schema", "tdc-bench-run-v1");
        doc.set("workload", opt.workload);
        doc.set("seed", opt.seed);
        doc.set("traced", opt.trace);
        doc.set("correct", correct);
        doc.set("attempted", tally.attempted);
        doc.set("failed", tally.failed);
        auto errors = json::Value::array();
        for (const std::string &e : tally.errors)
            errors.push(e);
        doc.set("errors", std::move(errors));
        doc.set("metrics", report.metrics(true));
        if (!cell_allocs.isNull())
            doc.set("measure_allocs_per_cell", std::move(cell_allocs));
        json::writeFile(doc, opt.out);
    }
    std::error_code ec;
    fs::remove(opt.work, ec); // only if no one else left files there

    auto line = json::Value::object();
    line.set("correct", correct);
    line.set("attempted", tally.attempted);
    line.set("failed", tally.failed);
    line.set("metrics", report.metrics(false));
    std::cout.rdbuf(stdout_buf);
    std::cout << line.dump(-1) << std::endl;
    return correct ? 0 : 1;
}

/** Every workload in its own child process, one at a time; the
 *  children's reports and spans are merged into --out/--trace-out. */
int
runAll(const char *self, const Options &opt)
{
    fs::create_directories(opt.work);
    bool ok = true;
    auto doc = json::Value::object();
    doc.set("schema", "tdc-bench-report-v1");
    auto workloads = json::Value::object();
    auto events = json::Value::array();
    for (std::size_t i = 0; i < workloadNames().size(); ++i) {
        const std::string &w = workloadNames()[i];
        const std::string out = format("{}/{}.json", opt.work, w);
        const std::string spans = format("{}/{}.trace.json", opt.work, w);
        std::vector<std::string> args = {
            self,
            "--workload=" + w,
            format("--seed={}", opt.seed),
            format("--seconds={}", opt.seconds),
            format("--reps={}", opt.reps),
            "--out=" + out,
            "--work=" + opt.work,
        };
        if (opt.trace) {
            args.push_back("--trace");
            args.push_back("--trace-out=" + spans);
        }
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        pid_t pid = 0;
        if (posix_spawnp(&pid, self, nullptr, nullptr, argv.data(),
                         environ)
            != 0)
            fatal("tdc_bench: cannot start '{}'", self);
        int status = 0;
        waitpid(pid, &status, 0);
        ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;

        if (auto rep = json::tryReadFile(out))
            workloads.set(w, std::move(*rep));
        else
            ok = false;
        if (opt.trace) {
            const auto t = json::tryReadFile(spans);
            if (const json::Value *ev = t ? t->find("traceEvents") : nullptr)
                for (json::Value e : ev->items()) {
                    e.set("pid", std::uint64_t{i + 1});
                    events.push(std::move(e));
                }
            fs::remove(spans);
        }
        fs::remove(out);
    }
    std::error_code ec;
    fs::remove(opt.work, ec); // only if no one else left files there
    doc.set("workloads", std::move(workloads));
    if (!opt.out.empty())
        json::writeFile(doc, opt.out);
    if (opt.trace)
        json::writeFile(traceDocument(std::move(events)), opt.traceOut);
    return ok ? 0 : 1;
}

/** Runs every MIX5 arrangement once and rewrites the expected file. */
int
updateExpected()
{
    auto cells = json::Value::object();
    for (std::uint64_t k = 0; k < 8; ++k) {
        for (const auto &spec : mixThrashCells(k)) {
            System sys(spec.toSystemConfig());
            cells.set(spec.label, toJson(sys.run()));
            std::cerr << format("[tdc_bench] expected {}\n", spec.label);
        }
    }
    auto doc = json::Value::object();
    doc.set("schema", "tdc-bench-expected-v1");
    doc.set("workload", "mix-thrash");
    doc.set("l3_size_bytes", mixL3Bytes);
    doc.set("warmup_insts", mixWarmup);
    doc.set("insts_per_core", mixInsts);
    doc.set("cells", std::move(cells));
    json::writeFile(doc, mixExpectedPath());
    std::cout << format("wrote {}\n", mixExpectedPath());
    return 0;
}

/** BENCHMARK.json must declare exactly the binary's workloads and
 *  metrics, in the binary's order. */
int
checkCatalog(const std::string &path)
{
    const json::Value doc = json::readFile(path);
    std::vector<std::string> diffs;
    // Each entry as "name|unit|better" (workloads: just the name).
    auto entries = [&](const char *key) {
        std::vector<std::string> v;
        const json::Value *list = doc.find(key);
        if (list == nullptr || !list->isArray())
            return v;
        for (const json::Value &e : list->items()) {
            std::string s;
            for (const char *f : {"name", "unit", "better"})
                if (const json::Value *x = e.find(f); x && x->isString())
                    s += (s.empty() ? "" : "|") + x->asString();
            v.push_back(s);
        }
        return v;
    };
    auto expect = [&](const char *key, const std::vector<std::string> &want) {
        const auto got = entries(key);
        for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
            const std::string g = i < got.size() ? got[i] : "(none)";
            const std::string w = i < want.size() ? want[i] : "(none)";
            if (g != w) {
                diffs.push_back(format("{}[{}]: BENCHMARK.json has {}, "
                                       "the binary {}",
                                       key, i, g, w));
                return;
            }
        }
    };
    expect("workloads", workloadNames());
    for (const char *key : {"end_to_end", "per_layer"}) {
        std::vector<std::string> want;
        for (const MetricDef &d : std::string(key) == "end_to_end"
                                      ? endToEndMetrics()
                                      : perLayerMetrics())
            want.push_back(d.name + "|" + d.unit + "|" + d.better);
        expect(key, want);
    }
    for (const std::string &d : diffs)
        std::cout << "catalog mismatch: " << d << "\n";
    std::cout << (diffs.empty() ? "catalog ok\n" : "catalog differs\n");
    return diffs.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    Config args;
    bool update_expected = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view tok(argv[i]);
        if (tok == "--trace")
            opt.trace = true;
        else if (tok == "--update-expected")
            update_expected = true;
        else if (!args.parseAssignment(tok))
            fatal("tdc_bench: unrecognized argument '{}'", tok);
    }
    args.checkKnown({"workload", "seed", "seconds", "reps", "trace-out",
                     "out", "work", "check-catalog"},
                    "tdc_bench");
    opt.workload = args.getString("workload", opt.workload);
    opt.seed = args.getU64("seed", opt.seed);
    opt.seconds = args.getDouble("seconds", opt.seconds);
    opt.reps = static_cast<unsigned>(args.getU64("reps", opt.reps));
    opt.traceOut = args.getString("trace-out", opt.traceOut);
    opt.out = args.getString("out", opt.out);
    opt.work = args.getString("work", opt.work);

    if (args.has("check-catalog"))
        return checkCatalog(args.getString("check-catalog", ""));
    if (update_expected)
        return updateExpected();
    if (opt.workload.empty())
        return runAll(argv[0], opt);
    return runWorkload(opt);
}
