#include "crc32.hh"

#include <array>

namespace ref {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slice-by-8 tables for the reflected IEEE polynomial: tables[0] is
 * the classic byte-at-a-time table, and tables[k][b] is the CRC of
 * byte b followed by k zero bytes, so eight table lookups advance
 * the CRC over eight input bytes at once.
 */
constexpr Tables
makeTables()
{
    Tables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t value = i;
        for (int bit = 0; bit < 8; ++bit) {
            value = (value >> 1) ^
                    ((value & 1u) ? 0xedb88320u : 0u);
        }
        tables[0][i] = value;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            tables[k][i] = (tables[k - 1][i] >> 8) ^
                           tables[0][tables[k - 1][i] & 0xffu];
    return tables;
}

constexpr Tables kTables = makeTables();

/** Little-endian u32 at @p bytes, whatever the host byte order. */
inline std::uint32_t
loadLe32(const unsigned char *bytes)
{
    return static_cast<std::uint32_t>(bytes[0]) |
           static_cast<std::uint32_t>(bytes[1]) << 8 |
           static_cast<std::uint32_t>(bytes[2]) << 16 |
           static_cast<std::uint32_t>(bytes[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint32_t crc = ~seed;
    for (; size >= 8; bytes += 8, size -= 8) {
        const std::uint32_t low = crc ^ loadLe32(bytes);
        const std::uint32_t high = loadLe32(bytes + 4);
        crc = kTables[7][low & 0xffu] ^
              kTables[6][(low >> 8) & 0xffu] ^
              kTables[5][(low >> 16) & 0xffu] ^
              kTables[4][low >> 24] ^
              kTables[3][high & 0xffu] ^
              kTables[2][(high >> 8) & 0xffu] ^
              kTables[1][(high >> 16) & 0xffu] ^
              kTables[0][high >> 24];
    }
    for (; size > 0; ++bytes, --size)
        crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xffu];
    return ~crc;
}

} // namespace ref
