/**
 * @file
 * The versioned memory-trace container `tdc-mtrace-v1`.
 *
 * The repository's one trace format: a sectioned, checksummed,
 * seekable container that reuses the ckpt Serializer discipline:
 *
 *     offset 0  8 bytes   magic "TDCMTRC\0"
 *               u32       format version (mtraceFormatVersion)
 *               u32       section count
 *     per section, in order:
 *               u64+bytes section name (length-prefixed string)
 *               u64       payload size in bytes
 *               u64       FNV-1a checksum of the payload
 *               bytes     payload
 *
 * Sections, in order:
 *
 *  - "meta":   a length-prefixed JSON string: schema tag, core count,
 *              shared-page-table flag, block size, per-core record
 *              counts and a free-form provenance string;
 *  - "core<i>" (one per core, 0-based): that core's record stream,
 *              encoded in independent blocks of `blockRecords` records;
 *  - "index":  per core, the record count plus a table of
 *              (byte offset, first record index) block references, so
 *              a cursor can seek to any absolute position by decoding
 *              at most one block instead of the whole stream.
 *
 * Record encoding (within a block): one flags byte -- bits 0-1 the
 * AccessType (0 fetch, 1 load, 2 store; 3 invalid), bit 2 the
 * dependent-load flag, bit 3 the sign of the address delta, bits 4-7
 * must be zero -- followed by two LEB128 varints: the non-memory
 * instruction count and |vaddr - previous vaddr|. The delta base
 * restarts at zero on every block boundary (the first record of a block
 * encodes its absolute address), so blocks decode independently.
 *
 * Every decoder is bounds-checked and fatal()s -- catchable via
 * ScopedFatalCapture -- with the offending absolute file offset on any
 * defect: truncation, bad magic/version, checksum mismatch, malformed
 * varint, reserved flag bits, or an index that disagrees with the
 * streams. Malformed input is never undefined behaviour.
 *
 * Note the deliberate tag spelling: "tdc-trace-v1" already names the
 * Perfetto *event* trace schema (src/obs/trace_writer.hh); this
 * *memory* trace container is "tdc-mtrace-v1" (DESIGN.md 12).
 */

#ifndef TDC_TRACE_MTRACE_HH
#define TDC_TRACE_MTRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace tdc {
namespace mtrace {

inline constexpr char mtraceMagic[8] =
    {'T', 'D', 'C', 'M', 'T', 'R', 'C', '\0'};
inline constexpr std::uint32_t mtraceFormatVersion = 1;

/** Schema tag embedded in the "meta" section (and `--info` output). */
inline constexpr const char *mtraceSchema = "tdc-mtrace-v1";

/** Records per block: the seek granularity / delta-restart interval. */
inline constexpr std::uint64_t defaultBlockRecords = 4096;

/** Decoded "meta" section. */
struct MtraceMeta
{
    unsigned cores = 1;
    bool sharedPageTable = false;
    std::uint64_t blockRecords = defaultBlockRecords;
    std::vector<std::uint64_t> records; //!< per-core record counts
    std::string source;                 //!< free-form provenance
};

/** One block reference in the per-core seek index. */
struct BlockRef
{
    std::uint64_t byteOffset = 0;  //!< into the core section payload
    std::uint64_t firstRecord = 0; //!< stream index of its first record
};

/**
 * Accumulates per-core record streams in memory and writes the whole
 * container on close() (write-to-temp + atomic rename). The in-memory
 * cost is the encoded size (~2-4 bytes/record), not TraceRecords.
 */
class MtraceWriter
{
  public:
    MtraceWriter(std::string path, unsigned cores,
                 bool shared_page_table, std::string source,
                 std::uint64_t block_records = defaultBlockRecords);
    ~MtraceWriter();

    MtraceWriter(const MtraceWriter &) = delete;
    MtraceWriter &operator=(const MtraceWriter &) = delete;

    void append(unsigned core, const TraceRecord &rec);

    /** Encodes and publishes the file; idempotent. Every core must
     *  have at least one record (replay sources never run dry). */
    void close();

    std::uint64_t recordsWritten(unsigned core) const;
    std::uint64_t totalRecords() const;
    const std::string &path() const { return path_; }
    bool closed() const { return closed_; }

  private:
    struct Stream
    {
        std::vector<std::uint8_t> bytes;
        std::vector<BlockRef> blocks;
        std::uint64_t count = 0;
        Addr prev = 0;
    };

    std::string path_;
    bool sharedPt_;
    std::string source_;
    std::uint64_t blockRecords_;
    std::vector<Stream> streams_;
    bool closed_ = false;
};

/**
 * An immutable, validated view of one trace file. The file is mapped
 * read-only (falling back to a heap copy where mmap is unavailable);
 * open validates the header, the meta and index sections and every
 * section checksum. Thread-safe once constructed: cursors carry all
 * mutable state.
 */
class MtraceReader
{
  public:
    explicit MtraceReader(const std::string &path);
    ~MtraceReader();

    MtraceReader(const MtraceReader &) = delete;
    MtraceReader &operator=(const MtraceReader &) = delete;

    const MtraceMeta &meta() const { return meta_; }
    unsigned coreCount() const { return meta_.cores; }
    bool sharedPageTable() const { return meta_.sharedPageTable; }
    std::uint64_t records(unsigned core) const;
    std::uint64_t totalRecords() const;
    const std::string &path() const { return path_; }
    std::uint64_t fileBytes() const { return size_; }

    /** Section table (name, payload bytes, checksum) for --info. */
    struct SectionInfo
    {
        std::string name;
        std::uint64_t bytes = 0;
        std::uint64_t checksum = 0;
    };
    const std::vector<SectionInfo> &sections() const
    {
        return sections_;
    }

    /**
     * Decodes every record of every stream and cross-checks block
     * boundaries against the index; fatal() on any defect. O(file), so
     * it backs `tdc_trace --verify` and tests rather than open().
     */
    void verifyAll() const;

  private:
    friend class MtraceCursor;

    struct CoreStream
    {
        const std::uint8_t *data = nullptr;
        std::uint64_t size = 0;
        std::uint64_t fileOffset = 0; //!< for error messages
        std::uint64_t count = 0;
        std::vector<BlockRef> blocks;
    };

    void mapFile();
    void parse();

    std::string path_;
    const std::uint8_t *data_ = nullptr;
    std::uint64_t size_ = 0;
    bool mapped_ = false;
    std::vector<std::uint8_t> fallback_;

    MtraceMeta meta_;
    std::vector<SectionInfo> sections_;
    std::vector<CoreStream> cores_;
};

/**
 * A decoding cursor over one core's stream. `position()` is the
 * monotonic absolute record position (it does not wrap); the record
 * returned by the next next() call is position() % records. seek()
 * restores any position by jumping to the enclosing block and decoding
 * forward, so replay state save/restore is O(blockRecords).
 */
class MtraceCursor
{
  public:
    MtraceCursor(const MtraceReader &reader, unsigned core);

    TraceRecord next();
    void seek(std::uint64_t position);
    std::uint64_t position() const { return position_; }

  private:
    TraceRecord decodeOne();
    void loadBlock(std::uint64_t block);
    [[noreturn]] void corrupt(std::uint64_t at, const std::string &what)
        const;

    const MtraceReader *reader_;
    const MtraceReader::CoreStream *cs_;
    unsigned core_;
    std::uint64_t pos_ = 0;      //!< byte position within the payload
    std::uint64_t idx_ = 0;      //!< record index within the stream
    std::uint64_t blockIdx_ = 0;
    std::uint64_t blockEnd_ = 0; //!< first record index past the block
    Addr prev_ = 0;
    std::uint64_t position_ = 0;
};

/**
 * FNV-1a over the file's raw bytes. This is what ties checkpoints and
 * cached results to trace *content*: warmFingerprint() and the serve
 * layer's jobConfigHash() fold it in for every `trace:` workload, so
 * editing a trace file in place invalidates everything keyed on it.
 */
std::uint64_t traceContentHash(const std::string &path);

/** Conversion tallies reported by the tdc_trace converter. */
struct ConvertStats
{
    std::uint64_t instructions = 0; //!< input instructions consumed
    std::uint64_t records = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
};

/**
 * Converts a raw (decompressed) ChampSim instruction trace -- 64-byte
 * records: u64 ip, u8 is_branch, u8 branch_taken, u8 dest_regs[2],
 * u8 src_regs[4], u64 dest_mem[2], u64 src_mem[4] -- into a
 * single-core tdc-mtrace-v1 file. Each non-zero memory operand becomes
 * one record (src_mem loads first, then dest_mem stores); instructions
 * without memory operands accumulate into the next record's
 * nonMemInsts. Loads of branch instructions are marked dependent (the
 * value steers control, so the core cannot run ahead of it).
 * Instruction fetches are not modeled, matching the synthetic sources.
 */
ConvertStats convertChampSim(
    const std::string &in, const std::string &out,
    std::uint64_t block_records = defaultBlockRecords);

} // namespace mtrace
} // namespace tdc

#endif // TDC_TRACE_MTRACE_HH
