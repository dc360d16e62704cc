/**
 * @file
 * The shared byte codec (util/bytes.hh) and CRC-32 (util/crc32.hh).
 * Their layout is the on-disk and on-wire format of every binary file
 * and frame, so it is pinned byte for byte, the read cursor must never
 * step past the end, and the sliced CRC must equal a bitwise one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "util/bytes.hh"
#include "util/crc32.hh"
#include "util/random.hh"

using namespace tlc;

TEST(Bytes, LayoutIsLittleEndianAndVarintIsLeb128)
{
    std::string s;
    putU32le(s, 0x04030201u);
    putU64le(s, 0x0c0b0a0908070605ull);
    ASSERT_EQ(s.size(), 12u);
    for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_EQ(static_cast<unsigned char>(s[i]), i + 1) << i;
    const auto *p = reinterpret_cast<const unsigned char *>(s.data());
    EXPECT_EQ(loadU32le(p), 0x04030201u);
    EXPECT_EQ(loadU64le(p + 4), 0x0c0b0a0908070605ull);
    unsigned char b[4];
    storeU32le(b, 0x04030201u);
    EXPECT_EQ(std::string(reinterpret_cast<const char *>(b), 4),
              s.substr(0, 4));

    auto varint = [](std::uint64_t v) {
        unsigned char b[kMaxVarintBytes];
        return std::string(reinterpret_cast<const char *>(b),
                           encodeVarint(b, v));
    };
    EXPECT_EQ(varint(0), std::string(1, '\0'));
    EXPECT_EQ(varint(0x7f), "\x7f");
    EXPECT_EQ(varint(300), "\xac\x02");
    const std::string max =
        varint(std::numeric_limits<std::uint64_t>::max());
    ASSERT_EQ(max.size(), kMaxVarintBytes);
    EXPECT_EQ(static_cast<unsigned char>(max.back()), 0x01);
}

TEST(Bytes, ReaderRoundTripsAndRefusesToReadPastTheEnd)
{
    std::string s;
    s.push_back('\x07');
    putU64le(s, 0xdeadbeefcafef00dull);
    putString(s, "design point");
    putU32le(s, 10); // a string length promising 10 bytes...
    s += "abc";      // ...followed by only 3

    ByteReader r(s);
    std::uint8_t tag = 0;
    std::uint64_t wide = 0;
    std::string text;
    ASSERT_TRUE(r.u8(tag) && r.u64(wide) && r.str(text));
    EXPECT_EQ(tag, 7u);
    EXPECT_EQ(wide, 0xdeadbeefcafef00dull);
    EXPECT_EQ(text, "design point");

    EXPECT_FALSE(r.str(text));
    EXPECT_EQ(r.remaining(), 7u) << "a failed read must not move";
    EXPECT_FALSE(r.u64(wide));
    std::uint32_t len = 0;
    ASSERT_TRUE(r.u32(len));
    EXPECT_EQ(len, 10u);
    EXPECT_FALSE(r.u32(len));
    for (char want : std::string("abc")) {
        ASSERT_TRUE(r.u8(tag));
        EXPECT_EQ(tag, static_cast<unsigned char>(want));
    }
    EXPECT_FALSE(r.u8(tag));
    EXPECT_TRUE(r.done());
}

namespace {

/** Bytewise reference CRC-32 (reflected 0xedb88320), one bit at a
 *  time: independent of the sliced tables under test. */
std::uint32_t
crcBitwise(std::uint32_t state, const unsigned char *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        state ^= p[i];
        for (int k = 0; k < 8; ++k)
            state = (state >> 1) ^ ((state & 1) ? 0xedb88320u : 0);
    }
    return state;
}

} // namespace

TEST(Crc32, KnownAnswer)
{
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, SlicedUpdateMatchesBytewiseAtEveryLengthAndAlignment)
{
    Pcg32 rng(0xc0ffee, 7);
    std::vector<unsigned char> data(1024 + 8);
    for (unsigned char &c : data)
        c = static_cast<unsigned char>(rng.next());
    for (std::size_t start = 0; start < 8; ++start) {
        for (std::size_t len = 0; len <= 1024; ++len) {
            const unsigned char *p = data.data() + start;
            ASSERT_EQ(crc32Update(kCrc32Init, p, len),
                      crcBitwise(kCrc32Init, p, len))
                << "start " << start << " length " << len;
        }
    }
}

TEST(Crc32, IncrementalChunksMatchOneShot)
{
    Pcg32 rng(0xfeed, 3);
    for (unsigned round = 0; round < 200; ++round) {
        std::vector<unsigned char> data(rng.nextBounded(4096) + 1);
        for (unsigned char &c : data)
            c = static_cast<unsigned char>(rng.next());
        std::uint32_t state = kCrc32Init;
        for (std::size_t off = 0; off < data.size();) {
            const std::size_t n = std::min<std::size_t>(
                rng.nextBounded(40), data.size() - off);
            state = crc32Update(state, data.data() + off, n);
            off += n;
        }
        ASSERT_EQ(crc32Final(state),
                  crc32Final(crcBitwise(kCrc32Init, data.data(),
                                        data.size())))
            << "round " << round;
        ASSERT_EQ(crc32Final(state), crc32(data.data(), data.size()));
    }
}
