/**
 * @file
 * Trace file I/O implementation.
 *
 * The readers follow three rules (see io.hh): validate everything,
 * never trust a size field further than the bytes that remain, and
 * roll the destination buffer back on any failure.
 */

#include "io.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>

#include "util/bytes.hh"
#include "util/crc32.hh"
#include "util/metrics.hh"

namespace tlc {

const char kTraceMagic[4] = {'T', 'L', 'C', 'T'};

namespace {

/** Write a magic + version + record-count header. */
void
writeHeader(std::ostream &os, std::uint32_t version, std::uint64_t count)
{
    std::string h(kTraceMagic, 4);
    putU32le(h, version);
    putU64le(h, count);
    os.write(h.data(), static_cast<std::streamsize>(h.size()));
}

/** Read one little-endian u32 or u64; false when the stream ends
 *  first. */
template <typename T>
bool
readLe(std::istream &is, T &v)
{
    unsigned char b[sizeof(T)];
    if (!is.read(reinterpret_cast<char *>(b), sizeof b))
        return false;
    if constexpr (sizeof(T) == 4)
        v = loadU32le(b);
    else
        v = loadU64le(b);
    return true;
}

constexpr std::uint64_t kUnknownRemaining = ~std::uint64_t{0};

/**
 * Bytes left between the current position and the end of the
 * stream, or kUnknownRemaining when the stream is not seekable
 * (e.g. a pipe). Restores the read position and stream state.
 */
std::uint64_t
remainingBytes(std::istream &is)
{
    std::istream::pos_type cur = is.tellg();
    if (cur == std::istream::pos_type(-1)) {
        is.clear();
        return kUnknownRemaining;
    }
    is.seekg(0, std::ios::end);
    std::istream::pos_type end = is.tellg();
    is.clear();
    is.seekg(cur);
    if (end == std::istream::pos_type(-1) || end < cur)
        return kUnknownRemaining;
    return static_cast<std::uint64_t>(end - cur);
}

/**
 * Safe reserve() hint for @p count records of at least
 * @p min_record_bytes each: never larger than what the remaining
 * stream bytes could actually hold, and bounded by a fixed cap when
 * the stream size is unknowable (the vector still grows on demand
 * past the hint; only the up-front allocation is limited).
 */
std::uint64_t
clampedReserve(std::uint64_t count, std::uint64_t remaining,
               std::uint64_t min_record_bytes)
{
    constexpr std::uint64_t kBlindCap = 1u << 20; // 1 M records
    if (remaining == kUnknownRemaining)
        return count < kBlindCap ? count : kBlindCap;
    std::uint64_t fit = remaining / min_record_bytes;
    return count < fit ? count : fit;
}

/** Canonical record size: u32le address + type byte. This is the raw
 *  format's on-disk record and the unit the v3 footer CRC covers. */
constexpr std::size_t kRecordBytes = 5;

/*
 * Past the header, records move a byte at a time straight through the
 * stream's buffer (inline sbumpc/sputc) rather than through is.read or
 * os.write, which build a sentry per call. The buffer's own refills
 * are the only block I/O, and a reader stops at the end of its trace.
 * A reader that hits the end sets eofbit and failbit, and a writer
 * whose bytes are refused sets badbit, as the stream calls would.
 */

/** Read @p n bytes from @p sb; false when the stream ends first. */
bool
getBytes(std::streambuf &sb, unsigned char *p, std::size_t n)
{
    for (; n > 0; ++p, --n) {
        const auto c = sb.sbumpc();
        if (c == std::char_traits<char>::eof())
            return false;
        *p = static_cast<unsigned char>(c);
    }
    return true;
}

/** Write @p n bytes to @p sb; false when it refuses one. */
bool
putBytes(std::streambuf &sb, const unsigned char *p, std::size_t n)
{
    for (; n > 0; ++p, --n) {
        if (sb.sputc(static_cast<char>(*p)) ==
            std::char_traits<char>::eof())
            return false;
    }
    return true;
}

/**
 * The v3 footer CRC. Records are staged in their canonical 5-byte
 * form and folded in a stage at a time. Checksumming the DECODED
 * side, not the varint bytes, keeps the footer meaningful across
 * recompression and pins down the delta/zigzag decode itself.
 */
class RecordCrc
{
  public:
    void add(std::uint32_t addr, unsigned ty)
    {
        storeU32le(stage_ + staged_, addr);
        stage_[staged_ + 4] = static_cast<unsigned char>(ty);
        staged_ += kRecordBytes;
        if (staged_ == sizeof stage_)
            fold();
    }

    std::uint32_t final()
    {
        fold();
        return crc32Final(state_);
    }

  private:
    void fold()
    {
        state_ = crc32Update(state_, stage_, staged_);
        staged_ = 0;
    }

    unsigned char stage_[1024 * kRecordBytes];
    std::size_t staged_ = 0;
    std::uint32_t state_ = kCrc32Init;
};

/** Read and check the magic; the version and count follow. */
Status
readMagic(std::istream &is)
{
    char magic[4];
    if (!is.read(magic, 4))
        return Status(StatusCode::Truncated,
                      "stream shorter than the 4-byte magic");
    if (std::memcmp(magic, kTraceMagic, 4) != 0) {
        return statusf(StatusCode::BadMagic,
                       "magic bytes %02x%02x%02x%02x are not \"TLCT\"",
                       static_cast<unsigned char>(magic[0]),
                       static_cast<unsigned char>(magic[1]),
                       static_cast<unsigned char>(magic[2]),
                       static_cast<unsigned char>(magic[3]));
    }
    return Status();
}

} // namespace

void
writeBinaryTrace(std::ostream &os, const TraceBuffer &buf)
{
    writeHeader(os, kTraceVersion, buf.size());
    if (!os)
        return;
    std::streambuf &sb = *os.rdbuf();
    bool ok = true;
    for (const auto &rec : buf) {
        unsigned char r[kRecordBytes];
        storeU32le(r, rec.addr);
        r[4] = static_cast<unsigned char>(rec.type);
        ok &= putBytes(sb, r, sizeof r);
    }
    if (!ok)
        os.setstate(std::ios::badbit);
}

Status
readBinaryTrace(std::istream &is, TraceBuffer &buf)
{
    const std::size_t entry = buf.size();
    auto fail = [&](Status s) {
        buf.truncate(entry);
        return s;
    };

    if (Status s = readMagic(is); !s.ok())
        return s;
    std::uint32_t version;
    if (!readLe(is, version))
        return Status(StatusCode::Truncated,
                      "stream ends inside the version field");
    if (version != kTraceVersion) {
        return statusf(StatusCode::VersionMismatch,
                       "version %u where the raw binary reader expects %u",
                       version, kTraceVersion);
    }
    std::uint64_t count;
    if (!readLe(is, count))
        return Status(StatusCode::Truncated,
                      "stream ends inside the record count");
    // Reject only clearly-hostile counts here (more records than
    // remaining BYTES): a file that merely lost its tail still
    // enters the record loop and reports WHERE it was cut. Either
    // way the reserve() below is clamped, so a lying header can
    // never force a huge allocation.
    const std::uint64_t remaining = remainingBytes(is);
    if (remaining != kUnknownRemaining && count > remaining) {
        return statusf(StatusCode::CountTooLarge,
                       "record count %llu exceeds even one byte per "
                       "record in the %llu bytes remaining",
                       static_cast<unsigned long long>(count),
                       static_cast<unsigned long long>(remaining));
    }
    buf.reserve(entry + clampedReserve(count, remaining, kRecordBytes));
    std::streambuf &sb = *is.rdbuf();
    for (std::uint64_t i = 0; i < count; ++i) {
        unsigned char r[kRecordBytes];
        if (!getBytes(sb, r, sizeof r)) {
            is.setstate(std::ios::eofbit | std::ios::failbit);
            return fail(statusf(
                StatusCode::Truncated,
                "stream ends inside record %llu of %llu",
                static_cast<unsigned long long>(i),
                static_cast<unsigned long long>(count)));
        }
        const char t = static_cast<char>(r[4]);
        if (t < 0 || t > 2) {
            return fail(statusf(
                StatusCode::TypeOutOfRange,
                "record %llu has reference type %d (expected 0..2)",
                static_cast<unsigned long long>(i), static_cast<int>(t)));
        }
        buf.append(loadU32le(r), static_cast<RefType>(t));
    }
    return Status();
}

namespace {

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
        static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
        -static_cast<std::int64_t>(v & 1);
}

} // namespace

void
writeCompressedTrace(std::ostream &os, const TraceBuffer &buf)
{
    writeHeader(os, kTraceVersionCompressedCrc, buf.size());
    if (!os)
        return;
    std::streambuf &sb = *os.rdbuf();
    bool ok = true;
    RecordCrc crc;
    std::uint32_t last[3] = {0, 0, 0};
    for (const auto &rec : buf) {
        unsigned ty = static_cast<unsigned>(rec.type);
        std::int64_t delta = static_cast<std::int64_t>(rec.addr) -
            static_cast<std::int64_t>(last[ty]);
        last[ty] = rec.addr;
        unsigned char v[kMaxVarintBytes];
        ok &= putBytes(sb, v, encodeVarint(v, (zigzag(delta) << 2) | ty));
        crc.add(rec.addr, ty);
    }
    unsigned char footer[4];
    storeU32le(footer, crc.final());
    ok &= putBytes(sb, footer, sizeof footer);
    if (!ok)
        os.setstate(std::ios::badbit);
}

Status
readCompressedTrace(std::istream &is, TraceBuffer &buf)
{
    const std::size_t entry = buf.size();
    auto fail = [&](Status s) {
        buf.truncate(entry);
        return s;
    };

    if (Status s = readMagic(is); !s.ok())
        return s;
    std::uint32_t version;
    if (!readLe(is, version))
        return Status(StatusCode::Truncated,
                      "stream ends inside the version field");
    if (version != kTraceVersionCompressed &&
        version != kTraceVersionCompressedCrc) {
        return statusf(StatusCode::VersionMismatch,
                       "version %u where the compressed reader expects "
                       "%u or %u", version, kTraceVersionCompressed,
                       kTraceVersionCompressedCrc);
    }
    const bool hasFooter = version == kTraceVersionCompressedCrc;
    std::uint64_t count;
    if (!readLe(is, count))
        return Status(StatusCode::Truncated,
                      "stream ends inside the record count");
    const std::uint64_t remaining = remainingBytes(is);
    // Compressed records are at least one byte each, and version 3
    // owes a 4-byte footer on top.
    const std::uint64_t overhead = hasFooter ? 4 : 0;
    if (remaining != kUnknownRemaining && remaining < overhead) {
        return Status(StatusCode::Truncated,
                      "stream ends inside the CRC footer");
    }
    if (remaining != kUnknownRemaining &&
        count > remaining - overhead) {
        return statusf(StatusCode::CountTooLarge,
                       "record count %llu exceeds the %llu bytes that "
                       "remain (compressed records are >= 1 byte)",
                       static_cast<unsigned long long>(count),
                       static_cast<unsigned long long>(remaining));
    }
    buf.reserve(entry + clampedReserve(count, remaining, 1));
    std::streambuf &sb = *is.rdbuf();
    RecordCrc crc;
    std::uint32_t last[3] = {0, 0, 0};
    for (std::uint64_t i = 0; i < count; ++i) {
        auto varintFail = [&](Status s) {
            return fail(s.withContext("record " + std::to_string(i) +
                                      " of " + std::to_string(count)));
        };
        // LEB128: a u64 takes at most kMaxVarintBytes, and the last
        // one carries only the top bit (shift 63).
        std::uint64_t word = 0;
        for (unsigned nbytes = 1, shift = 0;; ++nbytes, shift += 7) {
            unsigned char b;
            if (!getBytes(sb, &b, 1)) {
                is.setstate(std::ios::eofbit | std::ios::failbit);
                return varintFail(Status(StatusCode::Truncated,
                                         "stream ends inside a varint"));
            }
            if (shift == 63 && (b & 0x7e)) {
                return varintFail(statusf(
                    StatusCode::OverlongVarint,
                    "varint overflows 64 bits at byte %u", nbytes));
            }
            word |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                break;
            if (nbytes == kMaxVarintBytes) {
                return varintFail(Status(StatusCode::OverlongVarint,
                                         "varint continues past 10 bytes"));
            }
        }
        unsigned ty = static_cast<unsigned>(word & 3);
        if (ty > 2) {
            return fail(statusf(
                StatusCode::TypeOutOfRange,
                "record %llu has reference type %u (expected 0..2)",
                static_cast<unsigned long long>(i), ty));
        }
        std::int64_t delta = unzigzag(word >> 2);
        std::uint32_t addr = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(last[ty]) + delta);
        last[ty] = addr;
        buf.append(addr, static_cast<RefType>(ty));
        if (hasFooter)
            crc.add(addr, ty);
    }
    if (hasFooter) {
        std::uint32_t want;
        if (!readLe(is, want)) {
            return fail(Status(StatusCode::Truncated,
                               "stream ends inside the CRC footer"));
        }
        const std::uint32_t got = crc.final();
        if (want != got) {
            return fail(statusf(
                StatusCode::ChecksumMismatch,
                "CRC footer 0x%08x does not match 0x%08x computed "
                "over the %llu decoded records", want, got,
                static_cast<unsigned long long>(count)));
        }
    }
    return Status();
}

void
writeTextTrace(std::ostream &os, const TraceBuffer &buf)
{
    for (const auto &rec : buf) {
        os << refTypeChar(rec.type) << " 0x" << std::hex << rec.addr
           << std::dec << '\n';
    }
}

Status
readTextTrace(std::istream &is, TraceBuffer &buf)
{
    const std::size_t entry = buf.size();
    auto fail = [&](Status s) {
        buf.truncate(entry);
        return s;
    };

    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        char tc;
        std::string addr_str;
        if (!(ls >> tc >> addr_str)) {
            return fail(statusf(StatusCode::ParseError,
                                "line %zu: expected \"<type> <address>\"",
                                lineno));
        }
        RefType type;
        if (!refTypeFromChar(tc, type)) {
            return fail(statusf(
                StatusCode::ParseError,
                "line %zu: unknown reference type '%c' (expected i/l/s)",
                lineno, tc));
        }
        char *end = nullptr;
        unsigned long addr = std::strtoul(addr_str.c_str(), &end, 0);
        if (end == addr_str.c_str() || *end != '\0') {
            return fail(statusf(StatusCode::ParseError,
                                "line %zu: bad address '%s'", lineno,
                                addr_str.c_str()));
        }
        buf.append(static_cast<std::uint32_t>(addr), type);
    }
    return Status();
}

namespace {

/** Trace-reader metrics, registered once and shared by all sites. */
struct TraceIoMetrics
{
    MetricCounter &files;
    MetricCounter &records;
    MetricCounter &bytes;
    MetricCounter &errors;

    static TraceIoMetrics &get()
    {
        static TraceIoMetrics m{
            MetricsRegistry::global().counter("trace.load.files"),
            MetricsRegistry::global().counter("trace.load.records"),
            MetricsRegistry::global().counter("trace.load.bytes"),
            MetricsRegistry::global().counter("trace.load.errors"),
        };
        return m;
    }
};

/** Tick the load counters for one loadTraceFile outcome. */
void
recordLoad(const Status &s, std::size_t records_added,
           std::uintmax_t bytes)
{
    TraceIoMetrics &m = TraceIoMetrics::get();
    if (!s.ok()) {
        m.errors.inc();
        return;
    }
    m.files.inc();
    m.records.inc(records_added);
    m.bytes.inc(bytes);
}

} // namespace

Status
loadTraceFile(const std::string &path, TraceBuffer &buf)
{
    const std::size_t entry_records = buf.size();
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        TraceIoMetrics::get().errors.inc();
        return statusf(StatusCode::IoError,
                       "cannot open trace file '%s'", path.c_str());
    }
    is.seekg(0, std::ios::end);
    std::streamoff file_bytes = is.tellg();
    is.seekg(0);
    char magic[4];
    if (is.read(magic, 4) && std::memcmp(magic, kTraceMagic, 4) == 0) {
        std::uint32_t version = 0;
        if (!readLe(is, version)) {
            TraceIoMetrics::get().errors.inc();
            return statusf(StatusCode::Truncated,
                           "'%s': file ends inside the binary trace "
                           "header", path.c_str());
        }
        is.seekg(0);
        Status s;
        if (version == kTraceVersionCompressed ||
            version == kTraceVersionCompressedCrc)
            s = readCompressedTrace(is, buf);
        else if (version == kTraceVersion)
            s = readBinaryTrace(is, buf);
        else {
            TraceIoMetrics::get().errors.inc();
            return statusf(StatusCode::VersionMismatch,
                           "'%s': unsupported trace version %u "
                           "(expected %u, %u or %u)", path.c_str(),
                           version, kTraceVersion,
                           kTraceVersionCompressed,
                           kTraceVersionCompressedCrc);
        }
        recordLoad(s, buf.size() - entry_records,
                   file_bytes > 0
                       ? static_cast<std::uintmax_t>(file_bytes)
                       : 0);
        return s.withContext("'" + path + "'");
    }
    is.clear();
    is.seekg(0);
    Status s = readTextTrace(is, buf);
    recordLoad(s, buf.size() - entry_records,
               file_bytes > 0 ? static_cast<std::uintmax_t>(file_bytes)
                              : 0);
    return s.withContext("'" + path + "' (text)");
}

Status
saveTraceFile(const std::string &path, const TraceBuffer &buf,
              bool compressed)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        return statusf(StatusCode::IoError,
                       "cannot open trace file '%s' for writing",
                       path.c_str());
    }
    if (compressed)
        writeCompressedTrace(os, buf);
    else
        writeBinaryTrace(os, buf);
    if (!os.good()) {
        return statusf(StatusCode::IoError,
                       "write to trace file '%s' failed", path.c_str());
    }
    return Status();
}

} // namespace tlc
