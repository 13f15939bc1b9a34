/**
 * @file
 * A small open-addressing map from line address to a 32-bit slot
 * number.
 *
 * The controller's read and write indexes and the MSHR file map a line
 * address to the arena slot that holds its record. They are probed on
 * every enqueue, completion and L2 miss, and std::unordered_map pays a
 * heap node per insert and a pointer chase per probe there. This map
 * keeps its entries in one flat power-of-two table with linear probing
 * (load factor at most 1/2), so a lookup is a multiply, a shift and
 * usually one cache line, and insert/erase allocate nothing once the
 * table has grown to the working set. Erase shifts the following probe
 * run back into the hole (no tombstones), so probe lengths never
 * degrade over a long run.
 *
 * kInvalidAddr marks an empty cell and is therefore not a valid key:
 * tryEmplace() throws on it, find() reports it missing.
 */

#ifndef PADC_COMMON_FLAT_ADDR_MAP_HH
#define PADC_COMMON_FLAT_ADDR_MAP_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace padc
{

/** Open-addressing Addr -> uint32 map; see file comment. */
class FlatAddrMap
{
  public:
    /** find() result for an absent key. */
    static constexpr std::uint32_t kMissing = 0xFFFFFFFFu;

    /** An empty map sized to hold @p expected entries without growing. */
    explicit FlatAddrMap(std::size_t expected = 0)
    {
        std::size_t cap = kMinCapacity;
        while (cap < 2 * expected)
            cap *= 2;
        rehash(cap);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Cells in the table (a power of two, at least twice size()). */
    std::size_t capacity() const { return cells_.size(); }

    /** The value stored for @p key, or kMissing. */
    std::uint32_t
    find(Addr key) const
    {
        if (key == kInvalidAddr)
            return kMissing;
        for (std::size_t i = homeOf(key);; i = (i + 1) & mask_) {
            const Cell &cell = cells_[i];
            if (cell.key == key)
                return cell.value;
            if (cell.key == kInvalidAddr)
                return kMissing;
        }
    }

    bool contains(Addr key) const { return find(key) != kMissing; }

    /** The cell @p key's probe run starts at in the current table:
        Fibonacci hashing, the top bits of key * 2^64/phi, which mixes
        the zero low bits of line addresses into the index. */
    std::size_t
    homeOf(Addr key) const
    {
        return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                        shift_);
    }

    /**
     * Insert @p key -> @p value unless @p key is present.
     * @return the stored value's address (valid until the next insert
     *         or erase) and whether this call inserted it
     * @throws std::invalid_argument when @p key is kInvalidAddr
     */
    std::pair<std::uint32_t *, bool>
    tryEmplace(Addr key, std::uint32_t value)
    {
        if (key == kInvalidAddr)
            throw std::invalid_argument(
                "FlatAddrMap: kInvalidAddr is the empty-cell marker");
        if (2 * (size_ + 1) > cells_.size())
            rehash(2 * cells_.size());
        std::size_t i = homeOf(key);
        for (; cells_[i].key != kInvalidAddr; i = (i + 1) & mask_) {
            if (cells_[i].key == key)
                return {&cells_[i].value, false};
        }
        cells_[i] = {key, value};
        ++size_;
        return {&cells_[i].value, true};
    }

    /** Remove @p key. @return true if it was present. */
    bool
    erase(Addr key)
    {
        if (key == kInvalidAddr)
            return false;
        std::size_t hole = homeOf(key);
        while (cells_[hole].key != key) {
            if (cells_[hole].key == kInvalidAddr)
                return false;
            hole = (hole + 1) & mask_;
        }
        // Backward-shift deletion: walk the rest of the probe run and
        // move back every entry whose home does not lie cyclically in
        // (hole, j], i.e. every entry the hole would cut off from its
        // home.
        for (std::size_t j = (hole + 1) & mask_;
             cells_[j].key != kInvalidAddr; j = (j + 1) & mask_) {
            const std::size_t h = homeOf(cells_[j].key);
            const bool stays = hole <= j ? (hole < h && h <= j)
                                         : (hole < h || h <= j);
            if (stays)
                continue;
            cells_[hole] = cells_[j];
            hole = j;
        }
        cells_[hole].key = kInvalidAddr;
        --size_;
        return true;
    }

  private:
    static constexpr std::size_t kMinCapacity = 16;

    struct Cell
    {
        Addr key = kInvalidAddr;
        std::uint32_t value = 0;
    };

    void
    rehash(std::size_t cap)
    {
        std::vector<Cell> old = std::move(cells_);
        cells_.assign(cap, Cell{});
        mask_ = cap - 1;
        shift_ = 64;
        for (std::size_t c = cap; c > 1; c >>= 1)
            --shift_;
        size_ = 0;
        for (const Cell &cell : old) {
            if (cell.key != kInvalidAddr)
                tryEmplace(cell.key, cell.value);
        }
    }

    std::vector<Cell> cells_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace padc

#endif // PADC_COMMON_FLAT_ADDR_MAP_HH
