/**
 * @file
 * Replay of recorded tdc-mtrace-v1 traces through the TraceSource
 * interface, so a trace file drives the existing OooCore/MemorySystem
 * unchanged.
 *
 * One ReplayTraceSource replays one core's stream. The reader behind it
 * is shared: all cores of a multi-core replay (and all jobs of a sweep
 * replaying the same file) reference one validated MtraceReader through
 * acquireReader()'s process-wide cache, which re-opens a path whenever
 * the file's content changes (keyed on size plus a cheap fingerprint of
 * the verified header's section checksums, so even a same-size in-place
 * rewrite within mtime granularity is detected). A cached reader pins
 * an open descriptor, the meta and the block index, not the file's
 * bytes: each source's cursor pread()s the block it is decoding into
 * its own buffer, so sweep workers share the descriptor and read-only
 * tables, no mutable state.
 *
 * Checkpoint discipline: the replay cursor's entire warm state is its
 * monotonic absolute position, so saveState() is one u64 and
 * loadState() is a seek -- O(blockRecords) thanks to the block index.
 */

#ifndef TDC_TRACE_REPLAY_HH
#define TDC_TRACE_REPLAY_HH

#include <memory>
#include <string>

#include "trace/mtrace.hh"
#include "trace/trace.hh"

namespace tdc {
namespace mtrace {

/** Replays one core stream of a shared reader; loops at stream end. */
class ReplayTraceSource : public WorkloadSource
{
  public:
    ReplayTraceSource(std::shared_ptr<const MtraceReader> reader,
                      unsigned core);

    TraceRecord next() override { return cursor_.next(); }
    void reset() override { cursor_.seek(0); }

    void saveState(ckpt::Serializer &out) const override;
    void loadState(ckpt::Deserializer &in) override;

    const MtraceReader &reader() const { return *reader_; }
    std::uint64_t position() const { return cursor_.position(); }

  private:
    std::shared_ptr<const MtraceReader> reader_;
    MtraceCursor cursor_;
};

/**
 * Opens (or reuses) the process-wide reader for `path`. Thread-safe;
 * fatal() -- catchable -- on a missing, truncated or corrupt file, so
 * registry/manifest validation of a `trace:` workload fails loudly at
 * parse time instead of mid-sweep.
 */
std::shared_ptr<const MtraceReader>
acquireReader(const std::string &path);

} // namespace mtrace
} // namespace tdc

#endif // TDC_TRACE_REPLAY_HH
