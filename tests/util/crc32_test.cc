#include "util/crc32.hh"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using namespace ref;

/** Byte-at-a-time table loop: the reference slice-by-8 must
 *  reproduce exactly. */
std::uint32_t
crc32Bytewise(const unsigned char *bytes, std::size_t size,
              std::uint32_t seed)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> values{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t value = i;
            for (int bit = 0; bit < 8; ++bit)
                value = (value >> 1) ^
                        ((value & 1u) ? 0xedb88320u : 0u);
            values[i] = value;
        }
        return values;
    }();
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < size; ++i)
        crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xffu];
    return ~crc;
}

TEST(Crc32, KnownVectors)
{
    // The standard CRC-32/ISO-HDLC check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
    EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
    EXPECT_EQ(crc32("abc"), 0x352441C2u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    const std::string data =
        "the journal frames every record with this checksum";
    const std::uint32_t oneShot = crc32(data);
    for (std::size_t split = 0; split <= data.size(); ++split) {
        const std::uint32_t first =
            crc32(data.data(), split);
        const std::uint32_t both =
            crc32(data.data() + split, data.size() - split, first);
        EXPECT_EQ(both, oneShot) << "split at " << split;
    }
}

TEST(Crc32, DetectsSingleBitFlips)
{
    std::string data = "sensitive payload bytes";
    const std::uint32_t good = crc32(data);
    for (std::size_t byte = 0; byte < data.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            data[byte] ^= static_cast<char>(1 << bit);
            EXPECT_NE(crc32(data), good)
                << "missed flip at byte " << byte << " bit " << bit;
            data[byte] ^= static_cast<char>(1 << bit);
        }
    }
}

TEST(Crc32, SliceBy8MatchesBytewiseAtEveryLengthAndAlignment)
{
    std::vector<unsigned char> buffer(1024 + 8);
    std::uint32_t state = 0x9e3779b9u;
    for (auto &byte : buffer) {
        state = state * 1664525u + 1013904223u;
        byte = static_cast<unsigned char>(state >> 24);
    }
    for (const std::uint32_t seed :
         {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
        for (std::size_t offset = 0; offset < 8; ++offset) {
            for (std::size_t length = 0; length <= 1024; ++length) {
                const unsigned char *start = buffer.data() + offset;
                ASSERT_EQ(crc32(start, length, seed),
                          crc32Bytewise(start, length, seed))
                    << "seed " << seed << " offset " << offset
                    << " length " << length;
            }
        }
    }
}

} // namespace
