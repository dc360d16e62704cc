/**
 * @file
 * The shared byte codec (util/bytes.hh). Its layout is the on-disk
 * and on-wire format of every binary file and frame, so it is pinned
 * byte for byte, and its read cursor must never step past the end.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "util/bytes.hh"

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
