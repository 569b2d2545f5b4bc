/**
 * @file
 * Wire-format primitives shared by the frame codec and the payload
 * serializers: LEB128 varints, zigzag signed mapping, delta-encoded
 * unsigned arrays (the common case — function profiles — is nearly
 * sorted, so deltas varint-pack into a fraction of the raw bytes),
 * raw IEEE-754 doubles (bit-exact round trips, a requirement of the
 * byte-identical-reports invariant), and the XXH64 checksum that
 * guards every frame, WAL record and snapshot image.
 *
 * ByteReader is the safety boundary for everything arriving off the
 * simulated wire: every accessor bounds-checks and latches a failure
 * flag instead of over-reading, so corrupted or truncated frames
 * decode to "false", never to UB (tests/fuzz_test.cc hammers this).
 */
#ifndef EXIST_NET_WIRE_H
#define EXIST_NET_WIRE_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace exist::net {

namespace detail {

inline constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

/** Little-endian loads through memcpy: no alignment or aliasing UB,
 *  and the same value on every host. */
inline std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

inline std::uint32_t
loadLe32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap32(v);
    return v;
}

inline std::uint64_t
xxRound(std::uint64_t acc, std::uint64_t lane)
{
    acc += lane * kXxPrime2;
    return std::rotl(acc, 31) * kXxPrime1;
}

inline std::uint64_t
xxMerge(std::uint64_t h, std::uint64_t acc)
{
    h ^= xxRound(0, acc);
    return h * kXxPrime1 + kXxPrime4;
}

}  // namespace detail

/**
 * XXH64 with seed 0 (the integrity check of frames, WAL records and
 * snapshot images). Four independent multiply-rotate lanes consume
 * 32-byte stripes, so it runs at memory speed rather than one
 * dependent multiply per byte; the tail folds 8, 4 and 1 bytes at a
 * time, and a final avalanche spreads every input bit over the word.
 */
inline std::uint64_t
xxh64(const std::uint8_t *data, std::size_t size)
{
    using namespace detail;
    const std::uint8_t *p = data;
    const std::uint8_t *end = data + size;
    std::uint64_t h;
    if (size >= 32) {
        std::uint64_t v1 = kXxPrime1 + kXxPrime2;
        std::uint64_t v2 = kXxPrime2;
        std::uint64_t v3 = 0;
        std::uint64_t v4 = 0 - kXxPrime1;
        for (; end - p >= 32; p += 32) {
            v1 = xxRound(v1, loadLe64(p));
            v2 = xxRound(v2, loadLe64(p + 8));
            v3 = xxRound(v3, loadLe64(p + 16));
            v4 = xxRound(v4, loadLe64(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = xxMerge(h, v1);
        h = xxMerge(h, v2);
        h = xxMerge(h, v3);
        h = xxMerge(h, v4);
    } else {
        h = kXxPrime5;
    }
    h += size;
    for (; end - p >= 8; p += 8) {
        h ^= xxRound(0, loadLe64(p));
        h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
    }
    if (end - p >= 4) {
        h ^= loadLe32(p) * kXxPrime1;
        h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
        p += 4;
    }
    for (; p < end; ++p) {
        h ^= *p * kXxPrime5;
        h = std::rotl(h, 11) * kXxPrime1;
    }
    h ^= h >> 33;
    h *= kXxPrime2;
    h ^= h >> 29;
    h *= kXxPrime3;
    h ^= h >> 32;
    return h;
}

/** Zigzag mapping so small negative ints varint-pack small. */
constexpr std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Append-only serializer over a caller-owned byte vector. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t> *out) : out_(out) {}

    void putU8(std::uint8_t v) { out_->push_back(v); }

    void
    putU32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    putU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    /** Overwrite bytes already written at `at` (a reserved header). */
    void
    patchU32(std::size_t at, std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            (*out_)[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    void
    patchU64(std::size_t at, std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            (*out_)[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    /** LEB128 unsigned varint (1 byte for < 128, the common case). */
    void
    putVarint(std::uint64_t v)
    {
        while (v >= 0x80) {
            out_->push_back(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        out_->push_back(static_cast<std::uint8_t>(v));
    }

    void putSVarint(std::int64_t v) { putVarint(zigzag(v)); }

    /** Bit-exact double (the accuracy/CPI fields must round-trip). */
    void
    putDouble(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        putU64(bits);
    }

    void
    putBytes(const std::uint8_t *data, std::size_t size)
    {
        out_->insert(out_->end(), data, data + size);
    }

    void
    putString(const std::string &s)
    {
        putVarint(s.size());
        putBytes(reinterpret_cast<const std::uint8_t *>(s.data()),
                 s.size());
    }

    /**
     * Delta-encoded unsigned array: length, first value, then zigzag
     * deltas between consecutive elements. Function-profile arrays are
     * smooth, so this is the agent's main wire-byte saving.
     */
    void
    putDeltaArray(const std::vector<std::uint64_t> &values)
    {
        putVarint(values.size());
        std::uint64_t prev = 0;
        for (std::uint64_t v : values) {
            putSVarint(static_cast<std::int64_t>(v) -
                       static_cast<std::int64_t>(prev));
            prev = v;
        }
    }

  private:
    std::vector<std::uint8_t> *out_;
};

/**
 * Bounds-checked deserializer. All accessors return a value *and*
 * keep an `ok()` flag: once a read would cross the end, ok() latches
 * false and every subsequent read returns zero values, so decoders
 * can parse straight-line and check once.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool ok() const { return ok_; }
    std::size_t remaining() const { return size_ - pos_; }
    std::size_t consumed() const { return pos_; }

    std::uint8_t
    getU8()
    {
        if (!require(1))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    getU32()
    {
        if (!require(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    getU64()
    {
        if (!require(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    getVarint()
    {
        std::uint64_t v = 0;
        int shift = 0;
        while (true) {
            if (!require(1) || shift > 63) {
                ok_ = false;
                return 0;
            }
            std::uint8_t b = data_[pos_++];
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0)
                return v;
            shift += 7;
        }
    }

    std::int64_t getSVarint() { return unzigzag(getVarint()); }

    double
    getDouble()
    {
        std::uint64_t bits = getU64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return ok_ ? v : 0.0;
    }

    /** Borrow `size` bytes in place (no copy); nullptr when short. */
    const std::uint8_t *
    getBytes(std::size_t size)
    {
        if (!require(size))
            return nullptr;
        const std::uint8_t *p = data_ + pos_;
        pos_ += size;
        return p;
    }

    std::string
    getString()
    {
        std::uint64_t n = getVarint();
        const std::uint8_t *p = getBytes(n);
        if (p == nullptr)
            return {};
        return std::string(reinterpret_cast<const char *>(p), n);
    }

    std::vector<std::uint64_t>
    getDeltaArray()
    {
        std::uint64_t n = getVarint();
        // Each element costs at least one wire byte; reject length
        // prefixes the buffer cannot possibly back (allocation bomb).
        if (!ok_ || n > remaining()) {
            ok_ = false;
            return {};
        }
        std::vector<std::uint64_t> values;
        values.reserve(n);
        std::int64_t prev = 0;
        for (std::uint64_t i = 0; i < n && ok_; ++i) {
            prev += getSVarint();
            values.push_back(static_cast<std::uint64_t>(prev));
        }
        if (!ok_)
            return {};
        return values;
    }

  private:
    bool
    require(std::size_t n)
    {
        if (!ok_ || size_ - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

}  // namespace exist::net

#endif  // EXIST_NET_WIRE_H
