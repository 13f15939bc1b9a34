/**
 * @file
 * Victim-selection policies for the set-associative cache.
 *
 * LRU is the baseline (and what the paper's processor model uses); a
 * deterministic pseudo-random policy is provided for sensitivity tests.
 */

#ifndef PADC_CACHE_REPLACEMENT_HH
#define PADC_CACHE_REPLACEMENT_HH

#include <cstdint>

#include "common/types.hh"

namespace padc::cache
{

/** Replacement policy selector. */
enum class ReplPolicyKind : std::uint8_t
{
    Lru,
    Random,
};

/**
 * Chooses a victim way within a set.
 *
 * The cache passes the per-way recency stamps (larger = more recently
 * used) and validity; invalid ways are always preferred and handled by
 * the cache itself before consulting the policy.
 */
class ReplacementPolicy
{
  public:
    explicit ReplacementPolicy(ReplPolicyKind kind,
                               std::uint64_t seed = 0x5EEDULL);

    /**
     * Pick the victim among @p ways valid lines.
     * @param stamps recency stamp per way (larger = newer), @p ways long
     * @return way index of the victim
     */
    std::uint32_t victim(const std::uint64_t *stamps, std::uint32_t ways);

    ReplPolicyKind kind() const { return kind_; }

  private:
    ReplPolicyKind kind_;
    std::uint64_t rand_state_;
};

} // namespace padc::cache

#endif // PADC_CACHE_REPLACEMENT_HH
