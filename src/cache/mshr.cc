#include "cache/mshr.hh"

#include <algorithm>
#include <cassert>
#include <utility>

namespace padc::cache
{

MshrFile::MshrFile(std::uint32_t capacity)
    : capacity_(capacity), entries_(capacity), index_(capacity)
{
    free_.reserve(capacity);
    for (std::uint32_t slot = capacity; slot > 0; --slot)
        free_.push_back(slot - 1);
}

MshrEntry *
MshrFile::find(Addr line_addr)
{
    const std::uint32_t slot = index_.find(line_addr);
    return slot == FlatAddrMap::kMissing ? nullptr : &entries_[slot];
}

const MshrEntry *
MshrFile::find(Addr line_addr) const
{
    const std::uint32_t slot = index_.find(line_addr);
    return slot == FlatAddrMap::kMissing ? nullptr : &entries_[slot];
}

MshrEntry &
MshrFile::alloc(Addr line_addr)
{
    assert(!full());
    assert(find(line_addr) == nullptr);
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    index_.tryEmplace(line_addr, slot);
    // Reset every field, but hand the old waiter vector (cleared) to
    // the new entry so its capacity is reused.
    MshrEntry &entry = entries_[slot];
    std::vector<LoadToken> waiters = std::move(entry.waiters);
    waiters.clear();
    entry = MshrEntry{};
    entry.waiters = std::move(waiters);
    entry.line_addr = line_addr;
    peak_ = std::max(peak_, index_.size());
    return entry;
}

void
MshrFile::release(Addr line_addr)
{
    const std::uint32_t slot = index_.find(line_addr);
    assert(slot != FlatAddrMap::kMissing);
    index_.erase(line_addr);
    free_.push_back(slot);
}

} // namespace padc::cache
