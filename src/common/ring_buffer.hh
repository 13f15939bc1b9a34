/**
 * @file
 * Fixed-capacity FIFO ring.
 *
 * Storage is allocated once, at construction, and an element keeps its
 * address from push_back() until pop_front(), so other structures may
 * hold pointers to queued elements (the core's issue queue and pending
 * misses point into its reorder buffer). std::deque gives the same
 * pointer stability but allocates and frees a chunk every few hundred
 * pushes.
 */

#ifndef PADC_COMMON_RING_BUFFER_HH
#define PADC_COMMON_RING_BUFFER_HH

#include <cassert>
#include <cstddef>
#include <vector>

namespace padc
{

/** FIFO of at most capacity() elements; see file comment. */
template <typename T>
class RingBuffer
{
  public:
    /** A ring holding up to @p capacity elements (rounded up to a
        power of two). */
    explicit RingBuffer(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap *= 2;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    bool empty() const { return size_ == 0; }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    T &back() { return slots_[(head_ + size_ - 1) & mask_]; }

    /** Append @p value. @pre the ring is not full */
    T &
    push_back(const T &value)
    {
        assert(size_ < slots_.size() && "ring buffer overflow");
        T &slot = slots_[(head_ + size_) & mask_];
        slot = value;
        ++size_;
        return slot;
    }

    /** Drop the oldest element. @pre !empty() */
    void
    pop_front()
    {
        assert(size_ > 0);
        head_ = (head_ + 1) & mask_;
        --size_;
    }

  private:
    std::vector<T> slots_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace padc

#endif // PADC_COMMON_RING_BUFFER_HH
