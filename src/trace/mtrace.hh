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
 * varint, reserved flag bits, an index that disagrees with the streams,
 * or bytes after a stream's last record. Malformed input is never
 * undefined behaviour.
 *
 * Note the deliberate tag spelling: "tdc-trace-v1" already names the
 * Perfetto *event* trace schema (src/obs/trace_writer.hh); this
 * *memory* trace container is "tdc-mtrace-v1" (DESIGN.md 12).
 */

#ifndef TDC_TRACE_MTRACE_HH
#define TDC_TRACE_MTRACE_HH

#include <cstddef>
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

/** Owns a POSIX file descriptor and closes it on destruction. */
class FileHandle
{
  public:
    FileHandle() = default;
    ~FileHandle() { reset(); }

    FileHandle(const FileHandle &) = delete;
    FileHandle &operator=(const FileHandle &) = delete;

    /** Closes the descriptor held, if any, and takes `fd`. */
    void reset(int fd = -1);
    int get() const { return fd_; }

  private:
    int fd_ = -1;
};

/**
 * Streams per-core record streams to disk and publishes the container
 * on close() (through publishFile()), in memory that does not
 * grow with the trace.
 *
 * Each core encodes its records straight into one fixed buffer. A
 * buffer that cannot take another record is appended to a spill file
 * that lives next to the output and is unlinked as soon as it is
 * created, so it never outlives the writer. close() copies each core's
 * spilled chunks into its section, hashing them on the way, and
 * patches the checksum into the section header. What stays in memory
 * is the buffers (spillChunkBytes per core) plus 16 bytes of index per
 * block and per spilled chunk.
 */
class MtraceWriter
{
  public:
    /** Bytes of each core's encode buffer, and so at most of a spilled
     *  chunk: one default block at the largest record encoding. */
    static constexpr std::size_t spillChunkBytes = 64 << 10;

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
    /** One spilled buffer: `bytes` at `offset` in the spill file. */
    struct Chunk
    {
        std::uint64_t offset = 0;
        std::uint64_t bytes = 0;
    };

    struct Stream
    {
        std::vector<std::uint8_t> buf; //!< spillChunkBytes, encoded
        std::size_t fill = 0;          //!< bytes of buf in use
        std::uint64_t spilled = 0;     //!< payload bytes in chunks
        std::vector<Chunk> chunks;
        std::vector<BlockRef> blocks;
        std::uint64_t count = 0;
        std::uint64_t blockLeft = 0; //!< records until the next block
        Addr prev = 0;
    };

    void spill(Stream &s);
    /** Writes the container to `fd`; false on a failed read or write. */
    bool writeContainer(int fd);

    std::string path_;
    bool sharedPt_;
    std::string source_;
    std::uint64_t blockRecords_;
    std::vector<Stream> streams_;
    FileHandle spill_;
    std::uint64_t spillBytes_ = 0;
    bool closed_ = false;
};

/**
 * An immutable, validated view of one trace file. Open streams the
 * whole file once through a fixed buffer, validating the header, the
 * meta and index sections and every section checksum, and decodes the
 * last block of every stream to check that it ends the section. After
 * that the reader holds the open descriptor, the meta and the index;
 * cursors read blocks with pread(), so nothing of the file stays
 * resident. Thread-safe once constructed: cursors carry all mutable
 * state.
 */
class MtraceReader
{
  public:
    explicit MtraceReader(const std::string &path);

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
        std::uint64_t size = 0;
        std::uint64_t fileOffset = 0; //!< payload start in the file
        std::uint64_t count = 0;
        std::vector<BlockRef> blocks;
    };

    void parse();

    /** pread()s exactly `n` bytes at file offset `at`; fatal() if the
     *  file no longer has them. */
    void readAt(std::uint64_t at, std::uint8_t *out, std::size_t n) const;

    std::string path_;
    FileHandle fd_;
    std::uint64_t size_ = 0;
    std::uint64_t maxBlockBytes_ = 0; //!< over every core's blocks

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
 *
 * The cursor owns a window of its section: one pread() per block,
 * sized once from the reader's largest block (up to windowCapBytes)
 * plus the longest record a decoder may read, so a record decodes with
 * one bounds check. Records within that many bytes of the window's end
 * take the checked decoder, which slides the window on when the section
 * goes on.
 */
class MtraceCursor
{
  public:
    MtraceCursor(const MtraceReader &reader, unsigned core);

    TraceRecord next();
    void seek(std::uint64_t position);
    std::uint64_t position() const { return position_; }

  private:
    friend class MtraceReader;

    /** Blocks larger than this are read a window at a time. */
    static constexpr std::uint64_t windowCapBytes = 1 << 20;

    TraceRecord decodeOne();
    template <bool Checked> TraceRecord decode();
    void loadBlock(std::uint64_t block);
    void fill(std::uint64_t at);
    void checkBlockEnd() const;
    [[noreturn]] void corrupt(std::uint64_t at, const std::string &what)
        const;

    const MtraceReader *reader_;
    const MtraceReader::CoreStream *cs_;
    unsigned core_;
    std::vector<std::uint8_t> window_; //!< section bytes [winStart_, winEnd_)
    std::uint64_t winStart_ = 0;
    std::uint64_t winEnd_ = 0;
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
