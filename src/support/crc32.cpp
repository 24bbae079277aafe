#include "support/crc32.h"

namespace wj {

namespace {

/// Slicing-by-8 tables: t[0] is the bytewise table; t[s][b] is the CRC
/// contribution of byte b followed by s zero bytes.
struct Crc32Table {
    uint32_t t[8][256];
    Crc32Table() noexcept {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
            }
            t[0][i] = c;
        }
        for (uint32_t i = 0; i < 256; ++i) {
            for (int s = 1; s < 8; ++s) t[s][i] = t[0][t[s - 1][i] & 0xffu] ^ (t[s - 1][i] >> 8);
        }
    }
};

/// Four bytes as a little-endian word (one load on x86; no alignment or
/// aliasing assumption).
inline uint32_t le32(const uint8_t* p) noexcept {
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 | uint32_t(p[3]) << 24;
}

} // namespace

uint32_t crc32(const void* data, size_t n, uint32_t seed) noexcept {
    static const Crc32Table table;
    const auto& t = table.t;
    uint32_t c = seed ^ 0xffffffffu;
    const auto* p = static_cast<const uint8_t*>(data);
    // Eight bytes per step: the eight table lookups are independent, where
    // the bytewise loop chains each lookup on the previous one.
    for (; n >= 8; p += 8, n -= 8) {
        const uint32_t lo = c ^ le32(p);
        const uint32_t hi = le32(p + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
            t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace wj
