/**
 * @file
 * tdc_trace: memory-trace (tdc-mtrace-v1) inspector and converter.
 *
 * Inspection:
 *   tdc_trace --trace=<path> [--info] [--verify] [--json]
 *             [--dump=<N>] [--core=<i>]
 *
 *   --info    (default) print the header: format version, cores,
 *             per-core record counts, block size, provenance string,
 *             content hash and the section table
 *   --verify  decode every record of every stream, cross-check the
 *             seek index and reject bytes after a stream's last record;
 *             prints one verdict line
 *   --json    print the same information as one tdc-mtrace-info-v1
 *             JSON document
 *   --dump=N  decode and print the first N records (of --core=<i>,
 *             default core 0)
 *
 * Conversion (writes a tdc-mtrace-v1 file to --out):
 *   tdc_trace --convert-champsim=<in> --out=<path>
 *             [--block-records=<N>] [--source=<provenance>]
 *
 * Report comparison (replay determinism checks):
 *   tdc_trace --compare-runs=<a.json>,<b.json>
 *
 *   Compares the "result" subtree of two tdc-run-report-v1 files and
 *   exits non-zero on any difference. The reports' "meta" sections
 *   legitimately differ between a direct run and a trace replay (the
 *   workload names differ), so whole-file comparison is too strict.
 *
 * Exit status is non-zero for a missing, truncated, corrupt or
 * version-skewed file (decoding fatal()s), so the tool doubles as a
 * scriptable integrity check.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <string_view>

#include "ckpt/checkpoint.hh"
#include "common/config.hh"
#include "common/format.hh"
#include "common/json.hh"
#include "trace/mtrace.hh"

using namespace tdc;

namespace {

const char *
typeName(AccessType t)
{
    switch (t) {
      case AccessType::InstFetch:
        return "fetch";
      case AccessType::Load:
        return "load";
      case AccessType::Store:
        return "store";
    }
    return "?";
}

void
printInfo(const mtrace::MtraceReader &r, const std::string &path)
{
    const mtrace::MtraceMeta &m = r.meta();
    std::cout << format("trace                 : {}\n", path);
    std::cout << format("schema                : {} (format v{})\n",
                        mtrace::mtraceSchema,
                        mtrace::mtraceFormatVersion);
    std::cout << format("file size             : {} bytes\n",
                        r.fileBytes());
    std::cout << format("content hash          : {}\n",
                        ckpt::hex16(mtrace::traceContentHash(path)));
    std::cout << format("cores                 : {}\n", m.cores);
    std::cout << format("shared page table     : {}\n",
                        m.sharedPageTable ? "yes" : "no");
    std::cout << format("block records         : {}\n", m.blockRecords);
    std::cout << format("total records         : {}\n",
                        r.totalRecords());
    for (unsigned c = 0; c < m.cores; ++c)
        std::cout << format("  core{} records       : {}\n", c,
                            r.records(c));
    if (!m.source.empty())
        std::cout << format("source                : {}\n", m.source);
    std::cout << format("sections              : {}\n",
                        r.sections().size());
    for (const auto &sec : r.sections())
        std::cout << format("  {:<10} {:>12} bytes  fnv1a {}\n",
                            sec.name, sec.bytes,
                            ckpt::hex16(sec.checksum));
}

json::Value
infoJson(const mtrace::MtraceReader &r, const std::string &path)
{
    const mtrace::MtraceMeta &m = r.meta();
    auto doc = json::Value::object();
    doc.set("schema", std::string("tdc-mtrace-info-v1"));
    doc.set("trace_schema", std::string(mtrace::mtraceSchema));
    doc.set("format_version",
            static_cast<std::uint64_t>(mtrace::mtraceFormatVersion));
    doc.set("path", path);
    doc.set("file_bytes", r.fileBytes());
    doc.set("content_hash",
            ckpt::hex16(mtrace::traceContentHash(path)));
    doc.set("cores", static_cast<std::uint64_t>(m.cores));
    doc.set("shared_page_table", m.sharedPageTable);
    doc.set("block_records", m.blockRecords);
    doc.set("total_records", r.totalRecords());
    auto counts = json::Value::array();
    for (unsigned c = 0; c < m.cores; ++c)
        counts.push(r.records(c));
    doc.set("records", std::move(counts));
    doc.set("source", m.source);
    auto secs = json::Value::array();
    for (const auto &sec : r.sections()) {
        auto s = json::Value::object();
        s.set("name", sec.name);
        s.set("bytes", sec.bytes);
        s.set("checksum", ckpt::hex16(sec.checksum));
        secs.push(std::move(s));
    }
    doc.set("sections", std::move(secs));
    return doc;
}

void
dumpRecords(const mtrace::MtraceReader &r, unsigned core,
            std::uint64_t n)
{
    if (core >= r.coreCount())
        fatal("tdc_trace: --core={} out of range (trace has {} "
              "core(s))",
              core, r.coreCount());
    mtrace::MtraceCursor cur(r, core);
    const std::uint64_t count = std::min(n, r.records(core));
    for (std::uint64_t i = 0; i < count; ++i) {
        const TraceRecord rec = cur.next();
        std::cout << format("core{} #{:<8} {:<5} {:#014x} nmi={}{}\n",
                            core, i, typeName(rec.type), rec.vaddr,
                            rec.nonMemInsts,
                            rec.dependent ? " dep" : "");
    }
}

/** Exact comparison of the "result" subtrees of two run reports. */
int
compareRuns(const std::string &spec)
{
    const std::size_t comma = spec.find(',');
    if (comma == std::string::npos)
        fatal("tdc_trace: --compare-runs wants two paths separated by "
              "a comma, got '{}'",
              spec);
    const std::string a_path = spec.substr(0, comma);
    const std::string b_path = spec.substr(comma + 1);
    const json::Value a = json::readFile(a_path);
    const json::Value b = json::readFile(b_path);
    const json::Value *ra = a.find("result");
    const json::Value *rb = b.find("result");
    if (ra == nullptr)
        fatal("tdc_trace: {} has no \"result\" member (not a run "
              "report?)",
              a_path);
    if (rb == nullptr)
        fatal("tdc_trace: {} has no \"result\" member (not a run "
              "report?)",
              b_path);
    const std::string da = ra->dump(-1);
    const std::string db = rb->dump(-1);
    if (da != db) {
        // Point at the first diverging member to make the mismatch
        // actionable without a JSON diff tool.
        for (const auto &[key, val] : ra->members()) {
            const json::Value *other = rb->find(key);
            if (other == nullptr || other->dump(-1) != val.dump(-1)) {
                std::cout << format(
                    "MISMATCH: result.{} differs\n  {}: {}\n  {}: {}\n",
                    key, a_path, val.dump(-1), b_path,
                    other != nullptr ? other->dump(-1) : "<absent>");
            }
        }
        std::cout << format("FAIL: results differ ({} vs {})\n", a_path,
                            b_path);
        return 1;
    }
    std::cout << format("OK: results identical ({} vs {})\n", a_path,
                        b_path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Config args;
    bool info = false, verify = false, json_out = false;
    for (int i = 1; i < argc; ++i) {
        std::string_view tok(argv[i]);
        if (tok == "--info") {
            info = true;
        } else if (tok == "--verify") {
            verify = true;
        } else if (tok == "--json") {
            json_out = true;
        } else if (!args.parseAssignment(tok)) {
            fatal("tdc_trace: unrecognized argument '{}' (see the "
                  "header of tools/tdc_trace.cc for usage)",
                  tok);
        }
    }
    args.checkKnown({"trace", "dump", "core", "convert-champsim", "out",
                     "source", "block-records", "compare-runs"},
                    "tdc_trace");

    if (args.has("compare-runs"))
        return compareRuns(args.getString("compare-runs", ""));

    const std::uint64_t block_records =
        args.getU64("block-records", mtrace::defaultBlockRecords);
    if (args.has("convert-champsim")) {
        const std::string out = args.getString("out", "");
        if (out.empty())
            fatal("tdc_trace: conversion requires --out=<path>");
        const mtrace::ConvertStats st = mtrace::convertChampSim(
            args.getString("convert-champsim", ""), out, block_records);
        std::cout << format(
            "converted: {} instruction(s), {} record(s) ({} loads, {} "
            "stores) -> {}\n",
            st.instructions, st.records, st.loads, st.stores, out);
        return 0;
    }

    const std::string path = args.getString("trace", "");
    if (path.empty())
        fatal("tdc_trace: --trace=<path> is required (or one of "
              "--convert-champsim/--compare-runs)");
    if (!info && !verify && !json_out && !args.has("dump"))
        info = true;

    // The constructor streams the file once to validate the header,
    // meta, index and every section checksum, and decodes each
    // stream's last block to check that it ends the section; any defect
    // is a fatal (non-zero) exit. Afterwards the reader holds only the
    // descriptor and the index, so --verify and --dump read the
    // streams block by block in constant memory.
    const mtrace::MtraceReader reader(path);

    if (verify) {
        reader.verifyAll();
        std::cout << format("{}: OK (format v{}, {} core(s), {} "
                            "records)\n",
                            path, mtrace::mtraceFormatVersion,
                            reader.coreCount(), reader.totalRecords());
    }
    if (json_out) {
        infoJson(reader, path).write(std::cout);
        std::cout << "\n";
    }
    if (info && !json_out)
        printInfo(reader, path);
    if (args.has("dump"))
        dumpRecords(reader, static_cast<unsigned>(
                                args.getU64("core", 0)),
                    args.getU64("dump", 16));
    return 0;
}
