#include "cache/cache.hh"

#include <cassert>
#include <utility>

namespace padc::cache
{

bool
CacheConfig::valid() const
{
    ConfigErrors errors;
    validate(errors, "cache");
    return errors.ok();
}

void
CacheConfig::validate(ConfigErrors &errors, const std::string &prefix) const
{
    if (ways == 0) {
        errors.add(prefix + ".ways", "must be >= 1");
        return; // the remaining checks divide by ways
    }
    if (hit_latency == 0)
        errors.add(prefix + ".hit_latency", "must be >= 1 cycle");
    if (size_bytes % (kLineBytes * ways) != 0) {
        errors.add(prefix + ".size_bytes",
                   "must be a multiple of line size (" +
                       std::to_string(kLineBytes) + ") x ways (" +
                       std::to_string(ways) + "); got " +
                       std::to_string(size_bytes));
        return; // sets() is meaningless below
    }
    const std::uint32_t s = sets();
    if (s == 0 || (s & (s - 1)) != 0) {
        errors.add(prefix + ".size_bytes",
                   "implies " + std::to_string(s) +
                       " sets; the set count must be a non-zero power "
                       "of two");
    }
}

SetAssocCache::SetAssocCache(const CacheConfig &config, std::string name)
    : config_(config), name_(std::move(name)),
      lines_(static_cast<std::size_t>(config.sets()) * config.ways),
      repl_(config.repl), stamps_(config.ways)
{
    assert(config_.valid());
}

std::uint32_t
SetAssocCache::setIndex(Addr line_addr) const
{
    return static_cast<std::uint32_t>(lineIndex(line_addr) &
                                      (config_.sets() - 1));
}

Line *
SetAssocCache::lookup(Addr addr)
{
    const Addr line_addr = lineAlign(addr);
    const std::uint32_t set = setIndex(line_addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * config_.ways];
    for (std::uint32_t way = 0; way < config_.ways; ++way) {
        if (base[way].valid && base[way].line_addr == line_addr)
            return &base[way];
    }
    return nullptr;
}

bool
SetAssocCache::probe(Addr addr) const
{
    return const_cast<SetAssocCache *>(this)->lookup(addr) != nullptr;
}

Line *
SetAssocCache::access(Addr addr)
{
    Line *line = lookup(addr);
    if (line != nullptr) {
        ++stats_.hits;
        line->stamp = next_stamp_++;
        return line;
    }
    ++stats_.misses;
    return nullptr;
}

Line *
SetAssocCache::peek(Addr addr)
{
    return lookup(addr);
}

const Line *
SetAssocCache::peek(Addr addr) const
{
    return const_cast<SetAssocCache *>(this)->lookup(addr);
}

EvictResult
SetAssocCache::fill(Addr addr, CoreId owner, Addr pc, bool prefetched,
                    bool fill_row_hit, std::uint32_t service_time)
{
    const Addr line_addr = lineAlign(addr);
    assert(lookup(line_addr) == nullptr && "fill of already-present line");

    const std::uint32_t set = setIndex(line_addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * config_.ways];

    Line *slot = nullptr;
    for (std::uint32_t way = 0; way < config_.ways; ++way) {
        if (!base[way].valid) {
            slot = &base[way];
            break;
        }
    }

    EvictResult evicted;
    if (slot == nullptr) {
        for (std::uint32_t way = 0; way < config_.ways; ++way)
            stamps_[way] = base[way].stamp;
        Line &victim = base[repl_.victim(stamps_.data(), config_.ways)];

        evicted.valid = true;
        evicted.line_addr = victim.line_addr;
        evicted.dirty = victim.dirty;
        evicted.prefetched_unused = victim.prefetched;
        evicted.owner = victim.owner;
        evicted.pc = victim.pc;
        evicted.service_time = victim.service_time;

        ++stats_.evictions;
        if (victim.dirty)
            ++stats_.dirty_evictions;
        if (victim.prefetched)
            ++stats_.useless_evictions;
        slot = &victim;
    }

    slot->line_addr = line_addr;
    slot->valid = true;
    slot->dirty = false;
    slot->prefetched = prefetched;
    slot->owner = owner;
    slot->pc = pc;
    slot->fill_row_hit = fill_row_hit;
    slot->service_time = service_time;
    slot->stamp = next_stamp_++;
    ++stats_.fills;
    return evicted;
}

bool
SetAssocCache::invalidate(Addr addr)
{
    Line *line = lookup(addr);
    if (line == nullptr)
        return false;
    const bool was_dirty = line->dirty;
    line->valid = false;
    line->dirty = false;
    line->prefetched = false;
    line->line_addr = kInvalidAddr;
    line->stamp = 0;
    return was_dirty;
}

} // namespace padc::cache
