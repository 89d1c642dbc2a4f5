#include "trace/mtrace.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "ckpt/checkpoint.hh"
#include "ckpt/serializer.hh"
#include "common/format.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/publish.hh"

namespace tdc {
namespace mtrace {

namespace {

constexpr std::uint8_t flagTypeMask = 0x03;
constexpr std::uint8_t flagDependent = 0x04;
constexpr std::uint8_t flagNegDelta = 0x08;
constexpr std::uint8_t flagReserved = 0xF0;

/** The most bytes the writer encodes a record into: the flags byte, a
 *  32-bit nonMemInsts varint and a 64-bit address-delta varint. */
constexpr std::size_t maxRecordBytes = 1 + 5 + 10;

/** The most bytes the decoder reads for one record, well-formed or
 *  not: it rejects a varint at its tenth byte. */
constexpr std::size_t maxDecodeBytes = 1 + 10 + 10;

/** Bytes of the buffer open() streams the file through. */
constexpr std::size_t streamBufferBytes = 64 << 10;

std::uint8_t *
putVarint(std::uint8_t *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
}

std::string
coreSectionName(unsigned core)
{
    return format("core{}", core);
}

/** pwrite()s all of [data, data + n) at offset `at`; false on error. */
bool
pwriteFully(int fd, const std::uint8_t *data, std::size_t n,
            std::uint64_t at)
{
    while (n > 0) {
        const ssize_t got =
            ::pwrite(fd, data, n, static_cast<off_t>(at));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        data += got;
        at += static_cast<std::uint64_t>(got);
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

/** pread()s exactly `n` bytes at offset `at`; false on an error or an
 *  early end of file. */
bool
preadFully(int fd, std::uint8_t *out, std::size_t n, std::uint64_t at)
{
    while (n > 0) {
        const ssize_t got = ::pread(fd, out, n, static_cast<off_t>(at));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        out += got;
        at += static_cast<std::uint64_t>(got);
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

} // namespace

void
FileHandle::reset(int fd)
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = fd;
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

MtraceWriter::MtraceWriter(std::string path, unsigned cores,
                           bool shared_page_table, std::string source,
                           std::uint64_t block_records)
    : path_(std::move(path)), sharedPt_(shared_page_table),
      source_(std::move(source)),
      blockRecords_(block_records > 0 ? block_records : 1),
      streams_(cores)
{
    tdc_assert(cores >= 1, "mtrace writer needs at least one core");
    for (Stream &s : streams_)
        s.buf.resize(spillChunkBytes);
    // Unlinked at once: only the descriptor reaches the spill, so no
    // way out of the writer, a crash included, leaves it behind.
    std::string spill_path = path_ + ".spill.XXXXXX";
    spill_.reset(::mkostemp(spill_path.data(), O_CLOEXEC));
    if (spill_.get() < 0)
        fatal("cannot create a spill file next to mtrace '{}'", path_);
    ::unlink(spill_path.c_str());
}

MtraceWriter::~MtraceWriter()
{
    if (!closed_) {
        try {
            close();
        } catch (...) {
            // A FatalError (e.g. an empty stream) must not escape a
            // destructor; the explicit close() path reports it.
        }
    }
}

void
MtraceWriter::append(unsigned core, const TraceRecord &rec)
{
    tdc_assert(!closed_, "append after close");
    tdc_assert(core < streams_.size(),
               "mtrace writer: core {} out of range ({} streams)", core,
               streams_.size());
    Stream &s = streams_[core];

    if (s.blockLeft == 0) {
        // Block boundary: record the reference and restart the delta
        // base, so this block decodes without its predecessors.
        s.blocks.push_back({s.spilled + s.fill, s.count});
        s.blockLeft = blockRecords_;
        s.prev = 0;
    }
    --s.blockLeft;
    if (s.buf.size() - s.fill < maxRecordBytes)
        spill(s);

    std::uint8_t flags = static_cast<std::uint8_t>(rec.type);
    if (rec.dependent)
        flags |= flagDependent;
    std::uint64_t delta;
    if (rec.vaddr >= s.prev) {
        delta = rec.vaddr - s.prev;
    } else {
        delta = s.prev - rec.vaddr;
        flags |= flagNegDelta;
    }
    std::uint8_t *p = s.buf.data() + s.fill;
    *p++ = flags;
    p = putVarint(p, rec.nonMemInsts);
    p = putVarint(p, delta);
    s.fill = static_cast<std::size_t>(p - s.buf.data());
    s.prev = rec.vaddr;
    ++s.count;
}

void
MtraceWriter::spill(Stream &s)
{
    if (s.fill == 0)
        return;
    if (!pwriteFully(spill_.get(), s.buf.data(), s.fill, spillBytes_))
        fatal("error writing the spill file of mtrace '{}'", path_);
    s.chunks.push_back({spillBytes_, s.fill});
    spillBytes_ += s.fill;
    s.spilled += s.fill;
    s.fill = 0;
}

std::uint64_t
MtraceWriter::recordsWritten(unsigned core) const
{
    return streams_.at(core).count;
}

std::uint64_t
MtraceWriter::totalRecords() const
{
    std::uint64_t n = 0;
    for (const Stream &s : streams_)
        n += s.count;
    return n;
}

void
MtraceWriter::close()
{
    if (closed_)
        return;
    for (std::size_t c = 0; c < streams_.size(); ++c) {
        if (streams_[c].count == 0)
            fatal("mtrace '{}': core {} has no records (replay sources "
                  "never run dry, so every stream must be non-empty)",
                  path_, c);
    }
    for (Stream &s : streams_)
        spill(s);

    publishFile(path_, [this](const std::string &staging) {
        FileHandle out;
        out.reset(::open(staging.c_str(), O_WRONLY | O_CREAT | O_TRUNC
                                              | O_CLOEXEC,
                         0666));
        if (out.get() < 0)
            fatal("cannot open '{}' for writing", staging);
        if (!writeContainer(out.get()))
            fatal("error writing mtrace file '{}'", staging);
    });
    for (Stream &s : streams_) {
        s.buf = {};
        s.chunks = {};
        s.blocks = {};
    }
    spill_.reset();
    closed_ = true;
}

bool
MtraceWriter::writeContainer(int fd)
{
    auto meta = json::Value::object();
    meta.set("schema", mtraceSchema);
    meta.set("cores", static_cast<std::uint64_t>(streams_.size()));
    meta.set("shared_page_table", sharedPt_);
    meta.set("block_records", blockRecords_);
    auto counts = json::Value::array();
    for (const Stream &s : streams_)
        counts.push(s.count);
    meta.set("records", std::move(counts));
    meta.set("source", source_);
    ckpt::Serializer meta_payload;
    meta_payload.putString(meta.dump());

    ckpt::Serializer index;
    index.putU32(static_cast<std::uint32_t>(streams_.size()));
    for (const Stream &s : streams_) {
        index.putU64(s.count);
        index.putU64(s.blocks.size());
        for (const BlockRef &b : s.blocks) {
            index.putU64(b.byteOffset);
            index.putU64(b.firstRecord);
        }
    }

    // Any failed read or write sticks, and close() reports it.
    bool ok = true;
    std::uint64_t at = 0;
    auto put = [&](const std::uint8_t *data, std::size_t n) {
        ok = ok && pwriteFully(fd, data, n, at);
        at += n;
    };
    // A section header goes out with a zero checksum; the payload is
    // hashed on its way out and the sum patched in after it.
    std::uint64_t sum_at = 0;
    std::uint64_t sum = 0;
    auto beginSection = [&](const std::string &name, std::uint64_t size) {
        ckpt::Serializer sh;
        sh.putString(name);
        sh.putU64(size);
        sum_at = at + sh.size();
        sh.putU64(0);
        put(sh.bytes().data(), sh.size());
        sum = ckpt::fnv1aBasis;
    };
    auto payload = [&](const std::uint8_t *data, std::size_t n) {
        sum = ckpt::fnv1a(data, n, sum);
        put(data, n);
    };
    auto endSection = [&] {
        ckpt::Serializer s;
        s.putU64(sum);
        ok = ok && pwriteFully(fd, s.bytes().data(), s.size(), sum_at);
    };

    ckpt::Serializer head;
    for (char ch : mtraceMagic)
        head.putU8(static_cast<std::uint8_t>(ch));
    head.putU32(mtraceFormatVersion);
    head.putU32(static_cast<std::uint32_t>(streams_.size() + 2));
    put(head.bytes().data(), head.size());

    beginSection("meta", meta_payload.size());
    payload(meta_payload.bytes().data(), meta_payload.size());
    endSection();
    std::vector<std::uint8_t> copy(spillChunkBytes);
    for (std::size_t c = 0; c < streams_.size(); ++c) {
        const Stream &s = streams_[c];
        beginSection(coreSectionName(static_cast<unsigned>(c)),
                     s.spilled);
        for (const Chunk &k : s.chunks) {
            const auto n = static_cast<std::size_t>(k.bytes);
            ok = ok
                 && preadFully(spill_.get(), copy.data(), n, k.offset);
            payload(copy.data(), n);
        }
        endSection();
    }
    beginSection("index", index.size());
    payload(index.bytes().data(), index.size());
    endSection();
    return ok;
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

namespace {

/**
 * Bounds-checked sequential reads of the file range [pos, end) through
 * a fixed buffer, reporting the absolute offset of whatever is
 * malformed or missing.
 */
class FileStream
{
  public:
    FileStream(const std::string &path, int fd, std::uint64_t pos,
               std::uint64_t end)
        : path_(path), fd_(fd), pos_(pos), end_(end),
          buf_(static_cast<std::size_t>(
              std::min<std::uint64_t>(streamBufferBytes, end - pos))),
          bufStart_(pos), bufEnd_(pos)
    {
    }

    std::uint64_t pos() const { return pos_; }

    void
    need(std::uint64_t n, const char *what) const
    {
        if (n > end_ - pos_)
            fatal("mtrace '{}': truncated {} at offset {} (need {} "
                  "bytes, {} available)",
                  path_, what, pos_, n, end_ - pos_);
    }

    std::uint32_t
    getU32(const char *what)
    {
        need(4, what);
        std::uint8_t b[4];
        take(b, 4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
        return v;
    }

    std::uint64_t
    getU64(const char *what)
    {
        need(8, what);
        std::uint8_t b[8];
        take(b, 8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return v;
    }

    std::string
    getString(const char *what)
    {
        const std::uint64_t len = getU64(what);
        need(len, what);
        std::string s(static_cast<std::size_t>(len), '\0');
        take(reinterpret_cast<std::uint8_t *>(s.data()), s.size());
        return s;
    }

    /** Copies the next `n` bytes, which need() has vouched for. */
    void
    take(std::uint8_t *out, std::size_t n)
    {
        while (n > 0) {
            const std::size_t k = std::min(n, buffered());
            std::memcpy(out, buf_.data() + (pos_ - bufStart_), k);
            out += k;
            n -= k;
            pos_ += k;
        }
    }

    /** FNV-1a of the next `n` bytes, which need() has vouched for. */
    std::uint64_t
    hash(std::uint64_t n)
    {
        std::uint64_t h = ckpt::fnv1aBasis;
        while (n > 0) {
            const std::size_t k = static_cast<std::size_t>(
                std::min<std::uint64_t>(n, buffered()));
            h = ckpt::fnv1a(buf_.data() + (pos_ - bufStart_), k, h);
            n -= k;
            pos_ += k;
        }
        return h;
    }

  private:
    /** Bytes buffered from pos_ on, refilling when there are none. */
    std::size_t
    buffered()
    {
        if (pos_ == bufEnd_) {
            const auto n = static_cast<std::size_t>(
                std::min<std::uint64_t>(buf_.size(), end_ - pos_));
            if (!preadFully(fd_, buf_.data(), n, pos_))
                fatal("mtrace '{}': cannot read {} bytes at offset {}",
                      path_, n, pos_);
            bufStart_ = pos_;
            bufEnd_ = pos_ + n;
        }
        return static_cast<std::size_t>(bufEnd_ - pos_);
    }

    const std::string &path_;
    int fd_;
    std::uint64_t pos_;
    std::uint64_t end_;
    std::vector<std::uint8_t> buf_;
    std::uint64_t bufStart_; //!< file offset of buf_[0]
    std::uint64_t bufEnd_;   //!< past the last buffered byte
};

} // namespace

MtraceReader::MtraceReader(const std::string &path) : path_(path)
{
    fd_.reset(::open(path_.c_str(), O_RDONLY | O_CLOEXEC));
    if (fd_.get() < 0)
        fatal("cannot open mtrace file '{}'", path_);
    struct stat st{};
    if (::fstat(fd_.get(), &st) != 0)
        fatal("cannot stat mtrace file '{}'", path_);
    size_ = static_cast<std::uint64_t>(st.st_size);
    if (size_ == 0)
        fatal("mtrace '{}': file is empty", path_);
    parse();

    // Each stream must end with its last record. Decoding every last
    // block makes bytes after it an open-time error, so replay rejects
    // them too, not only verifyAll().
    for (unsigned c = 0; c < meta_.cores; ++c) {
        MtraceCursor tail(*this, c);
        tail.seek(meta_.records[c] - 1);
        (void)tail.next();
        tail.checkBlockEnd();
    }
}

void
MtraceReader::readAt(std::uint64_t at, std::uint8_t *out,
                     std::size_t n) const
{
    if (!preadFully(fd_.get(), out, n, at))
        fatal("mtrace '{}': cannot read {} bytes at offset {}", path_, n,
              at);
}

void
MtraceReader::parse()
{
    FileStream v{path_, fd_.get(), 0, size_};

    std::uint8_t magic[sizeof(mtraceMagic)];
    v.need(sizeof(magic), "magic");
    v.take(magic, sizeof(magic));
    if (std::memcmp(magic, mtraceMagic, sizeof(magic)) != 0)
        fatal("'{}' is not a tdc-mtrace file (bad magic)", path_);
    const std::uint32_t version = v.getU32("format version");
    if (version != mtraceFormatVersion)
        fatal("mtrace '{}': unsupported format version {} (this build "
              "reads v{})",
              path_, version, mtraceFormatVersion);
    const std::uint32_t nsec = v.getU32("section count");
    if (nsec < 3 || nsec > 3 + 1024)
        fatal("mtrace '{}': implausible section count {} at offset {}",
              path_, nsec, v.pos() - 4);

    struct RawSec
    {
        std::string name;
        std::uint64_t offset; //!< payload file offset
        std::uint64_t size;
    };
    std::vector<RawSec> raw;
    for (std::uint32_t i = 0; i < nsec; ++i) {
        const std::string name = v.getString("section name");
        const std::uint64_t sz = v.getU64("section size");
        const std::uint64_t sum = v.getU64("section checksum");
        v.need(sz, "section payload");
        const std::uint64_t at = v.pos();
        const std::uint64_t got = v.hash(sz);
        if (got != sum)
            fatal("mtrace '{}': checksum mismatch in section '{}' at "
                  "offset {} (stored {:016x}, computed {:016x})",
                  path_, name, at, sum, got);
        raw.push_back({name, at, sz});
        sections_.push_back({name, sz, sum});
    }
    if (v.pos() != size_)
        fatal("mtrace '{}': {} trailing bytes after the last section "
              "(offset {})",
              path_, size_ - v.pos(), v.pos());

    auto findSec = [&](const std::string &name) -> const RawSec & {
        for (const RawSec &s : raw)
            if (s.name == name)
                return s;
        fatal("mtrace '{}': missing required section '{}'", path_,
              name);
    };

    // "meta": a length-prefixed JSON string.
    {
        const RawSec &ms = findSec("meta");
        FileStream mv{path_, fd_.get(), ms.offset, ms.offset + ms.size};
        const std::string text = mv.getString("meta JSON");
        if (mv.pos() != ms.offset + ms.size)
            fatal("mtrace '{}': trailing bytes in 'meta' at offset {}",
                  path_, mv.pos());
        std::string err;
        auto doc = json::Value::parse(text, &err);
        if (!doc || !doc->isObject())
            fatal("mtrace '{}': 'meta' is not a JSON object: {}", path_,
                  err.empty() ? "wrong type" : err);
        const json::Value *schema = doc->find("schema");
        if (schema == nullptr || !schema->isString()
            || schema->asString() != mtraceSchema)
            fatal("mtrace '{}': meta schema tag is not '{}'", path_,
                  mtraceSchema);
        const json::Value *cores = doc->find("cores");
        const json::Value *shared = doc->find("shared_page_table");
        const json::Value *block = doc->find("block_records");
        const json::Value *recs = doc->find("records");
        if (cores == nullptr || !cores->isUint() || shared == nullptr
            || !shared->isBool() || block == nullptr || !block->isUint()
            || recs == nullptr || !recs->isArray())
            fatal("mtrace '{}': meta is missing cores / "
                  "shared_page_table / block_records / records",
                  path_);
        if (cores->asUint() < 1 || cores->asUint() > 1024)
            fatal("mtrace '{}': implausible core count {}", path_,
                  cores->asUint());
        meta_.cores = static_cast<unsigned>(cores->asUint());
        meta_.sharedPageTable = shared->asBool();
        meta_.blockRecords = block->asUint();
        if (meta_.blockRecords == 0)
            fatal("mtrace '{}': block_records must be >= 1", path_);
        if (recs->items().size() != meta_.cores)
            fatal("mtrace '{}': meta lists {} record counts for {} "
                  "cores",
                  path_, recs->items().size(), meta_.cores);
        for (const json::Value &r : recs->items()) {
            if (!r.isUint() || r.asUint() == 0)
                fatal("mtrace '{}': meta record counts must be "
                      "positive integers",
                      path_);
            meta_.records.push_back(r.asUint());
        }
        if (const json::Value *src = doc->find("source");
            src != nullptr && src->isString())
            meta_.source = src->asString();
    }

    // Core sections, in order.
    for (unsigned c = 0; c < meta_.cores; ++c) {
        const RawSec &cs = findSec(coreSectionName(c));
        cores_.push_back({cs.size, cs.offset, meta_.records[c], {}});
    }

    // "index": per-core block tables, validated against the streams.
    {
        const RawSec &is = findSec("index");
        FileStream iv{path_, fd_.get(), is.offset, is.offset + is.size};
        const std::uint32_t n = iv.getU32("index core count");
        if (n != meta_.cores)
            fatal("mtrace '{}': index lists {} cores, meta lists {}",
                  path_, n, meta_.cores);
        for (unsigned c = 0; c < meta_.cores; ++c) {
            CoreStream &st = cores_[c];
            const std::uint64_t count = iv.getU64("index record count");
            if (count != st.count)
                fatal("mtrace '{}': index says core {} has {} records, "
                      "meta says {}",
                      path_, c, count, st.count);
            const std::uint64_t nblocks = iv.getU64("index block count");
            const std::uint64_t expect =
                (count + meta_.blockRecords - 1) / meta_.blockRecords;
            if (nblocks != expect)
                fatal("mtrace '{}': core {} has {} index blocks, {} "
                      "records at {} per block need {}",
                      path_, c, nblocks, count, meta_.blockRecords,
                      expect);
            st.blocks.reserve(static_cast<std::size_t>(nblocks));
            for (std::uint64_t b = 0; b < nblocks; ++b) {
                BlockRef ref;
                ref.byteOffset = iv.getU64("index block offset");
                ref.firstRecord = iv.getU64("index first record");
                if (ref.firstRecord != b * meta_.blockRecords)
                    fatal("mtrace '{}': core {} block {} starts at "
                          "record {}, expected {}",
                          path_, c, b, ref.firstRecord,
                          b * meta_.blockRecords);
                if (ref.byteOffset >= st.size
                    || (b > 0
                        && ref.byteOffset
                               <= st.blocks.back().byteOffset))
                    fatal("mtrace '{}': core {} block {} has byte "
                          "offset {} out of range or non-increasing "
                          "(section is {} bytes)",
                          path_, c, b, ref.byteOffset, st.size);
                st.blocks.push_back(ref);
            }
            if (!st.blocks.empty() && st.blocks[0].byteOffset != 0)
                fatal("mtrace '{}': core {} block 0 does not start at "
                      "byte 0",
                      path_, c);
        }
        if (iv.pos() != is.offset + is.size)
            fatal("mtrace '{}': trailing bytes in 'index' at offset {}",
                  path_, iv.pos());
    }

    for (const CoreStream &st : cores_) {
        for (std::size_t b = 0; b < st.blocks.size(); ++b) {
            const std::uint64_t end = b + 1 < st.blocks.size()
                                          ? st.blocks[b + 1].byteOffset
                                          : st.size;
            maxBlockBytes_ =
                std::max(maxBlockBytes_, end - st.blocks[b].byteOffset);
        }
    }
}

std::uint64_t
MtraceReader::records(unsigned core) const
{
    tdc_assert(core < meta_.cores, "core {} out of range", core);
    return meta_.records[core];
}

std::uint64_t
MtraceReader::totalRecords() const
{
    std::uint64_t n = 0;
    for (std::uint64_t c : meta_.records)
        n += c;
    return n;
}

void
MtraceReader::verifyAll() const
{
    for (unsigned c = 0; c < meta_.cores; ++c) {
        MtraceCursor cur(*this, c);
        const std::uint64_t count = meta_.records[c];
        for (std::uint64_t i = 0; i < count; ++i)
            (void)cur.next();
        // One more next() must wrap to record 0 without fault; it also
        // checks that the final record ended exactly at the payload end.
        (void)cur.next();
    }
}

// ---------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------

MtraceCursor::MtraceCursor(const MtraceReader &reader, unsigned core)
    : reader_(&reader), core_(core)
{
    tdc_assert(core < reader.coreCount(),
               "mtrace '{}': cursor core {} out of range ({} cores)",
               reader.path(), core, reader.coreCount());
    cs_ = &reader.cores_[core];
    window_.resize(static_cast<std::size_t>(
        std::min(reader.maxBlockBytes_, windowCapBytes)
        + maxDecodeBytes));
    loadBlock(0);
}

void
MtraceCursor::corrupt(std::uint64_t at, const std::string &what) const
{
    fatal("mtrace '{}': core {}: {} at offset {}", reader_->path(),
          core_, what, cs_->fileOffset + at);
}

void
MtraceCursor::fill(std::uint64_t at)
{
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(window_.size(), cs_->size - at));
    reader_->readAt(cs_->fileOffset + at, window_.data(), n);
    winStart_ = at;
    winEnd_ = at + n;
}

void
MtraceCursor::loadBlock(std::uint64_t block)
{
    const auto &blocks = cs_->blocks;
    tdc_assert(block < blocks.size(), "block {} out of range", block);
    blockIdx_ = block;
    pos_ = blocks[block].byteOffset;
    idx_ = blocks[block].firstRecord;
    blockEnd_ = block + 1 < blocks.size() ? blocks[block + 1].firstRecord
                                          : cs_->count;
    prev_ = 0;
    fill(pos_);
}

void
MtraceCursor::checkBlockEnd() const
{
    const auto &blocks = cs_->blocks;
    if (blockIdx_ + 1 == blocks.size()) {
        if (pos_ != cs_->size)
            corrupt(pos_, format("{} bytes after the last record",
                                 cs_->size - pos_));
        return;
    }
    const std::uint64_t expect = blocks[blockIdx_ + 1].byteOffset;
    if (pos_ != expect)
        corrupt(pos_, format("block {} ended at byte {} but the index "
                             "places it at byte {}",
                             blockIdx_, pos_, expect));
}

template <bool Checked>
TraceRecord
MtraceCursor::decode()
{
    const std::uint64_t at = pos_;
    const std::uint8_t *const base = window_.data();
    const std::uint8_t *const end = base + (winEnd_ - winStart_);
    const std::uint8_t *p = base + (pos_ - winStart_);

    auto byte = [&]() -> std::uint8_t {
        if constexpr (Checked) {
            if (p == end)
                corrupt(winEnd_, "truncated record stream");
        }
        return *p++;
    };
    auto varint = [&](const char *what) -> std::uint64_t {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            const std::uint8_t b = byte();
            v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if ((b & 0x80) == 0) {
                if (shift == 63 && (b & 0x7E) != 0)
                    corrupt(at, format("{} varint overflows 64 bits",
                                       what));
                return v;
            }
        }
        corrupt(at, format("malformed {} varint (no terminator within "
                           "10 bytes)",
                           what));
    };

    const std::uint8_t flags = byte();
    if ((flags & flagReserved) != 0)
        corrupt(at, format("reserved flag bits set ({:#04x})", flags));
    const std::uint8_t type = flags & flagTypeMask;
    if (type > static_cast<std::uint8_t>(AccessType::Store))
        corrupt(at, format("invalid access type {}", type));

    const std::uint64_t nmi = varint("nonMemInsts");
    if (nmi > 0xFFFF'FFFFULL)
        corrupt(at, format("nonMemInsts {} exceeds 32 bits", nmi));
    const std::uint64_t delta = varint("address delta");
    pos_ = winStart_ + static_cast<std::uint64_t>(p - base);

    TraceRecord rec;
    rec.nonMemInsts = static_cast<std::uint32_t>(nmi);
    rec.type = static_cast<AccessType>(type);
    rec.dependent = (flags & flagDependent) != 0;
    rec.vaddr = (flags & flagNegDelta) != 0 ? prev_ - delta
                                            : prev_ + delta;
    prev_ = rec.vaddr;
    return rec;
}

TraceRecord
MtraceCursor::decodeOne()
{
    // The one bounds check: a record that cannot run past the window
    // decodes unchecked.
    if (winEnd_ - pos_ >= maxDecodeBytes)
        return decode<false>();
    // Near the window's end: slide it on to this record unless it
    // already ends with the section. Either way no record can need a
    // byte past the window that the section has, so the checked
    // decoder's bound is in effect the section's end.
    if (winEnd_ < cs_->size)
        fill(pos_);
    return decode<true>();
}

TraceRecord
MtraceCursor::next()
{
    if (idx_ == blockEnd_) {
        checkBlockEnd();
        // After the last block, wrap: replay loops forever.
        loadBlock(blockIdx_ + 1 < cs_->blocks.size() ? blockIdx_ + 1
                                                     : 0);
    }
    const TraceRecord rec = decodeOne();
    ++idx_;
    ++position_;
    return rec;
}

void
MtraceCursor::seek(std::uint64_t position)
{
    const std::uint64_t target = position % cs_->count;

    // Find the block containing `target`: last block whose firstRecord
    // is <= target. Block first-records are uniform multiples of
    // blockRecords (validated at open), so this is a direct divide.
    const std::uint64_t block =
        target / reader_->meta().blockRecords;
    loadBlock(block);
    while (idx_ < target) {
        (void)decodeOne();
        ++idx_;
    }
    position_ = position;
}

// ---------------------------------------------------------------------
// Content hash
// ---------------------------------------------------------------------

std::uint64_t
traceContentHash(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open trace file '{}' for hashing", path);
    // Hashing in chunks equals hashing the whole file at once.
    std::uint64_t h = ckpt::fnv1aBasis;
    std::vector<char> buf(streamBufferBytes);
    while (in.read(buf.data(),
                   static_cast<std::streamsize>(buf.size()))
           || in.gcount() > 0) {
        const std::streamsize got = in.gcount();
        h = ckpt::fnv1a(reinterpret_cast<const std::uint8_t *>(buf.data()),
                        static_cast<std::size_t>(got), h);
        if (got < static_cast<std::streamsize>(buf.size()))
            break;
    }
    return h;
}

} // namespace mtrace
} // namespace tdc
