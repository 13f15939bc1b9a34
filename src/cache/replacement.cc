#include "cache/replacement.hh"

namespace padc::cache
{

ReplacementPolicy::ReplacementPolicy(ReplPolicyKind kind, std::uint64_t seed)
    : kind_(kind), rand_state_(seed | 1)
{
}

std::uint32_t
ReplacementPolicy::victim(const std::uint64_t *stamps, std::uint32_t ways)
{
    if (kind_ == ReplPolicyKind::Random) {
        // xorshift64: deterministic, cheap, good enough for victim choice.
        rand_state_ ^= rand_state_ << 13;
        rand_state_ ^= rand_state_ >> 7;
        rand_state_ ^= rand_state_ << 17;
        return static_cast<std::uint32_t>(rand_state_ % ways);
    }

    std::uint32_t victim_way = 0;
    for (std::uint32_t way = 1; way < ways; ++way) {
        if (stamps[way] < stamps[victim_way])
            victim_way = way;
    }
    return victim_way;
}

} // namespace padc::cache
