/**
 * @file
 * Shared helpers for the per-figure experiment harnesses.
 *
 * Every bench prints the rows/series of one table or figure from the
 * paper's evaluation section, computed from fresh simulations. Budgets
 * honor TDC_INSTS / TDC_WARMUP; each bench picks defaults that keep the
 * full suite runnable in minutes while preserving the figure's shape.
 */

#ifndef TDC_BENCH_BENCH_UTIL_HH
#define TDC_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/format.hh"
#include "common/units.hh"
#include "runner/sweep.hh"
#include "runner/sweep_runner.hh"
#include "sys/report.hh"
#include "sys/system.hh"

namespace tdc {
namespace bench {

/**
 * Collects one machine-readable row per simulated design point and
 * writes them out as a JSON document when the bench exits.
 *
 * Every call to runConfig() records a row automatically, so each
 * figure bench emits diffable data alongside its text for free. The
 * output path comes from a "--json=<path>" argument (see initReport)
 * or the TDC_JSON environment variable; with neither set, collection
 * is a no-op.
 */
class JsonReport
{
  public:
    static JsonReport &
    instance()
    {
        static JsonReport r;
        return r;
    }

    void setBench(const std::string &name) { bench_ = name; }
    void setPath(const std::string &path) { path_ = path; }
    bool enabled() const { return !path_.empty(); }

    /** Adds one run row (meta + headline metrics). */
    void
    addRun(const SystemConfig &cfg, const RunResult &r)
    {
        if (!enabled())
            return;
        auto row = json::Value::object();
        row.set("meta", toJson(cfg));
        row.set("result", toJson(r));
        rows_.push(std::move(row));
    }

    /** Adds a bench-specific derived row (geomeans, normalized IPC). */
    void
    addRow(json::Value row)
    {
        if (enabled())
            derived_.push(std::move(row));
    }

    ~JsonReport()
    {
        // Writes even when empty: a requested report should always
        // exist, so downstream tooling can tell "no runs" from "bench
        // crashed before the report".
        if (!enabled())
            return;
        auto doc = json::Value::object();
        doc.set("schema", "tdc-figure-report-v1");
        doc.set("bench", bench_);
        doc.set("runs", std::move(rows_));
        if (derived_.size() != 0)
            doc.set("derived", std::move(derived_));
        json::writeFile(doc, path_);
        std::cerr << format("[bench] json report written to {}\n",
                            path_);
    }

  private:
    JsonReport()
        : rows_(json::Value::array()), derived_(json::Value::array())
    {
        if (const char *env = std::getenv("TDC_JSON"))
            path_ = env;
    }

    std::string bench_;
    std::string path_;
    json::Value rows_;
    json::Value derived_;
};

/**
 * Scans argv for --json=<path> (or json=<path>) and enables the JSON
 * report. Benches call this first thing in main().
 */
inline void
initReport(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string_view tok(argv[i]);
        while (!tok.empty() && tok.front() == '-')
            tok.remove_prefix(1);
        if (tok.rfind("json=", 0) == 0)
            JsonReport::instance().setPath(std::string(tok.substr(5)));
    }
}

struct Budget
{
    std::uint64_t insts;
    std::uint64_t warmup;
};

/** Default budget unless TDC_INSTS/TDC_WARMUP override it. */
inline Budget
budget(std::uint64_t def_insts, std::uint64_t def_warmup)
{
    Budget b{def_insts, def_warmup};
    SystemConfig probe;
    probe.instsPerCore = def_insts;
    probe.warmupInsts = def_warmup;
    probe.applyEnvironment();
    b.insts = probe.instsPerCore;
    b.warmup = probe.warmupInsts;
    return b;
}

/** Builds, runs and tears down one design point. */
inline RunResult
runConfig(OrgKind org, const std::vector<std::string> &workloads,
          const Budget &b, std::uint64_t l3_bytes = 1ULL << 30,
          const Config &raw = {})
{
    SystemConfig cfg;
    cfg.org = org;
    cfg.workloads = workloads;
    cfg.l3SizeBytes = l3_bytes;
    cfg.instsPerCore = b.insts;
    cfg.warmupInsts = b.warmup;
    cfg.raw = raw;
    System sys(cfg);
    RunResult r = sys.run();
    JsonReport::instance().addRun(cfg, r);
    return r;
}

/**
 * One design point of a figure's sweep. Declared up front so a bench
 * can hand the whole figure to runSweep() and print from the results.
 */
struct SweepPoint
{
    OrgKind org;
    std::vector<std::string> workloads;
    std::uint64_t l3Bytes = 1ULL << 30;
    Config raw{};
};

/**
 * Simulates every point on the parallel SweepRunner and returns the
 * results in declaration order (so figure tables are byte-identical
 * at any worker count). Worker count comes from TDC_JOBS, defaulting
 * to the machine's cores. Each point is recorded in the JsonReport,
 * in order, exactly as per-point runConfig() calls would have. A
 * failed point is fatal: a figure with holes is not a figure.
 *
 * With share_warmups, points run through the checkpoint-restore path:
 * each warm group (identical warm-relevant configuration) warms one
 * System and every member measures from the restored state. Results
 * are byte-identical either way, so figures opt in freely.
 */
inline std::vector<RunResult>
runSweep(const std::vector<SweepPoint> &points, const Budget &b,
         bool share_warmups = false)
{
    runner::SweepManifest m;
    m.name = "bench";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        runner::JobSpec job;
        job.label = format("{:03}:{}/{}", i, cliName(p.org),
                           p.workloads.empty() ? "?"
                                               : p.workloads.front());
        job.org = p.org;
        job.workloads = p.workloads;
        job.l3SizeBytes = p.l3Bytes;
        job.instsPerCore = b.insts;
        job.warmupInsts = b.warmup;
        job.raw = p.raw;
        m.jobs.push_back(std::move(job));
    }

    runner::SweepOptions opt;
    opt.jobs = runner::SweepRunner::envJobs(0);
    opt.progress = false;
    opt.shareWarmups = share_warmups;
    const auto results = runner::SweepRunner(opt).run(m);

    std::vector<RunResult> out;
    out.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        if (!r.ok())
            fatal("sweep point '{}' {}: {}", r.label,
                  runner::statusName(r.status), r.error);
        JsonReport::instance().addRun(m.jobs[i].toSystemConfig(),
                                      r.result);
        out.push_back(r.result);
    }
    return out;
}

inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

inline void
header(const std::string &title, const std::string &paper_note)
{
    JsonReport::instance().setBench(title);
    std::cout << "\n==== " << title << " ====\n";
    std::cout << "paper: " << paper_note << "\n\n";
}

} // namespace bench
} // namespace tdc

#endif // TDC_BENCH_BENCH_UTIL_HH
