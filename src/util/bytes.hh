/**
 * @file
 * The one little-endian byte codec. The result store, sweep-cache
 * payloads, supervisor frames, the worker wire protocol and the trace
 * container all encode their integers through here: load/store at a
 * checked pointer, put* to append to a string, encodeVarint (LEB128)
 * into a buffer, and ByteReader, a cursor whose reads fail instead of
 * stepping past the end. Strings are a u32le length plus the bytes.
 * The signal-safe flight recorder keeps its own encoder: it must not
 * allocate.
 */

#ifndef TLC_UTIL_BYTES_HH
#define TLC_UTIL_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tlc {

// Spelled out byte by byte on purpose: GCC folds these shapes into
// single loads and stores, but compiles the equivalent loops as byte
// loops (the trace decoder runs storeU32le once per record).

inline std::uint32_t
loadU32le(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t
loadU64le(const unsigned char *p)
{
    return static_cast<std::uint64_t>(loadU32le(p)) |
        (static_cast<std::uint64_t>(loadU32le(p + 4)) << 32);
}

inline void
storeU32le(unsigned char *p, std::uint32_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
    p[2] = static_cast<unsigned char>(v >> 16);
    p[3] = static_cast<unsigned char>(v >> 24);
}

inline void
putU32le(std::string &s, std::uint32_t v)
{
    unsigned char b[4];
    storeU32le(b, v);
    s.append(reinterpret_cast<const char *>(b), sizeof b);
}

inline void
putU64le(std::string &s, std::uint64_t v)
{
    putU32le(s, static_cast<std::uint32_t>(v));
    putU32le(s, static_cast<std::uint32_t>(v >> 32));
}

inline void
putString(std::string &s, std::string_view v)
{
    putU32le(s, static_cast<std::uint32_t>(v.size()));
    s.append(v);
}

/** Longest LEB128 encoding of a u64. */
inline constexpr std::size_t kMaxVarintBytes = 10;

/** LEB128-encode @p v into @p out; returns the bytes written. */
inline std::size_t
encodeVarint(unsigned char (&out)[kMaxVarintBytes], std::uint64_t v)
{
    std::size_t n = 0;
    for (; v >= 0x80; v >>= 7)
        out[n++] = static_cast<unsigned char>((v & 0x7f) | 0x80);
    out[n++] = static_cast<unsigned char>(v);
    return n;
}

/** Bounds-checked read cursor: a read whose bytes are not all there
 *  returns false and leaves the cursor where it was. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes, std::size_t offset = 0)
        : bytes_(bytes), off_(offset)
    {
    }

    bool u8(std::uint8_t &v)
    {
        if (remaining() < 1)
            return false;
        v = static_cast<std::uint8_t>(bytes_[off_++]);
        return true;
    }

    bool u32(std::uint32_t &v)
    {
        if (remaining() < 4)
            return false;
        v = loadU32le(at());
        off_ += 4;
        return true;
    }

    bool u64(std::uint64_t &v)
    {
        if (remaining() < 8)
            return false;
        v = loadU64le(at());
        off_ += 8;
        return true;
    }

    /** A u32le-length-prefixed string (see putString). */
    bool str(std::string &v)
    {
        if (remaining() < 4 || remaining() - 4 < loadU32le(at()))
            return false;
        const std::uint32_t len = loadU32le(at());
        v.assign(bytes_.data() + off_ + 4, len);
        off_ += 4 + std::size_t{len};
        return true;
    }

    std::size_t remaining() const { return bytes_.size() - off_; }
    bool done() const { return off_ == bytes_.size(); }

  private:
    const unsigned char *at() const
    {
        return reinterpret_cast<const unsigned char *>(bytes_.data()) +
            off_;
    }

    std::string_view bytes_;
    std::size_t off_;
};

} // namespace tlc

#endif // TLC_UTIL_BYTES_HH
