/**
 * @file
 * 64-bit FNV-1a, the one byte hash behind the sweep-point key, the
 * BENCH label keys and config_hash, and the PADCTRC2 checksums. Every
 * one of those values is persisted or compared across builds, so the
 * constants below must never change.
 */

#ifndef PADC_COMMON_FNV_HH
#define PADC_COMMON_FNV_HH

#include <cstddef>
#include <cstdint>

namespace padc
{

/** FNV-1a offset basis: the seed of a fresh hash. */
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/**
 * The offset basis with its last decimal digit lost (1469598103934665603
 * instead of 14695981039346656037). The BENCH label keys, config_hash
 * and the PADCTRC2 checksums were first written with this seed, and
 * those values are stored in BENCH files and trace files, so they keep
 * it.
 */
inline constexpr std::uint64_t kFnvTruncatedOffset = 1469598103934665603ULL;

/** FNV-1a 64-bit prime. */
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/**
 * FNV-1a over @p size bytes at @p data, continuing from @p seed; chain
 * calls by passing the previous result as the next seed.
 */
inline std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t seed = kFnvOffset)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= kFnvPrime;
    }
    return hash;
}

} // namespace padc

#endif // PADC_COMMON_FNV_HH
