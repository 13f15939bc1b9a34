/**
 * @file
 * Miss Status Holding Registers for the L2 cache.
 *
 * Tracks every outstanding L2 miss (demand or prefetch) and the loads
 * waiting for it. The paper sizes the MSHR file identically to the
 * memory request buffer (Table 4), so a full MSHR file is the same
 * back-pressure point as a full request buffer.
 *
 * A demand miss that finds an in-flight *prefetch* entry promotes it
 * (paper Section 4.1: the prefetch becomes a demand and counts as used);
 * Adaptive Prefetch Dropping invalidates entries that still have their
 * prefetch flag set, which is safe exactly because promotion clears it.
 */

#ifndef PADC_CACHE_MSHR_HH
#define PADC_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/flat_addr_map.hh"
#include "common/types.hh"

namespace padc::cache
{

/** Identifies a core-side load waiting on a miss. */
struct LoadToken
{
    CoreId core = 0;
    std::uint64_t tag = 0; ///< core-private identifier of the load
};

/** One outstanding L2 miss. */
struct MshrEntry
{
    Addr line_addr = kInvalidAddr;
    CoreId core = 0; ///< core that created the entry
    Addr pc = 0;

    /**
     * Request class of the miss (the class its memory request carries).
     * Prefetch while the miss is still a pure (unpromoted) prefetch;
     * rewritten to DemandRead on promotion.
     */
    RequestClass cls = RequestClass::DemandRead;

    /** True if the miss was created by the prefetcher. */
    bool was_prefetch = false;

    /** True while the miss is still a pure prefetch (unpromoted). */
    bool isPrefetch() const { return cls == RequestClass::Prefetch; }

    /** A store is among the waiters: the line fills dirty. */
    bool store_waiting = false;

    Cycle issue_cycle = 0;

    /** Loads blocked on this line. */
    std::vector<LoadToken> waiters;
};

/**
 * Fixed-capacity MSHR file, indexed by line address.
 *
 * Entries live in fixed slots, so an entry's address is stable from
 * alloc() to release() whatever else is allocated or released meanwhile
 * (the fill path holds one across core wake-ups), and a reused slot
 * keeps its waiter vector's capacity: steady-state misses allocate
 * nothing.
 */
class MshrFile
{
  public:
    explicit MshrFile(std::uint32_t capacity);

    bool full() const { return index_.size() >= capacity_; }

    std::size_t size() const { return index_.size(); }

    std::uint32_t capacity() const { return capacity_; }

    /** Find the entry for @p line_addr, or nullptr. */
    MshrEntry *find(Addr line_addr);
    const MshrEntry *find(Addr line_addr) const;

    /**
     * Allocate an entry. @pre !full() && find(line_addr) == nullptr.
     * @return reference to the new entry for the caller to fill in.
     */
    MshrEntry &alloc(Addr line_addr);

    /** Release the entry for @p line_addr. @pre it exists. */
    void release(Addr line_addr);

    /** Peak occupancy seen (for reporting). */
    std::size_t peak() const { return peak_; }

  private:
    std::uint32_t capacity_;
    std::vector<MshrEntry> entries_; ///< capacity_ fixed slots
    std::vector<std::uint32_t> free_; ///< unused slots (LIFO)
    FlatAddrMap index_;               ///< line address -> slot
    std::size_t peak_ = 0;
};

} // namespace padc::cache

#endif // PADC_CACHE_MSHR_HH
