/**
 * @file
 * Global branch history for TAGE-family predictors: a ring-buffer
 * history register with O(1) push and lookup, and a bank of folded
 * (compressed) histories that hashes very long histories into table
 * indices and tags incrementally, one branch at a time.
 */

#ifndef BPNSP_UTIL_FOLDED_HISTORY_HPP
#define BPNSP_UTIL_FOLDED_HISTORY_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/logging.hpp"

namespace bpnsp {

/**
 * The raw global history of branch outcomes.
 *
 * Remembers at least the `capacity` most recent outcomes; position 0 is
 * the most recent. Backed by a power-of-two ring of one byte per
 * outcome and a head index (the CBP TAGE-SC-L idiom), so push() and
 * at() cost O(1) whatever the capacity. low() reads a separate 64-bit
 * shift register of the newest outcomes.
 */
class HistoryRegister
{
  public:
    explicit HistoryRegister(unsigned capacity = 4096)
        : cap(capacity), mask(std::bit_ceil(std::max(capacity, 1u)) - 1),
          ring(mask + 1, 0)
    {
        BPNSP_ASSERT(capacity >= 1);
    }

    /** Shift in a new outcome as the most recent bit. */
    void
    push(bool taken)
    {
        head = (head - 1) & mask;
        ring[head] = taken;
        recent = (recent << 1) | (taken ? 1u : 0u);
    }

    /** Outcome of the branch `pos` steps in the past (0 = most recent). */
    bool
    at(unsigned pos) const
    {
        BPNSP_ASSERT(pos < cap);
        return ring[(head + pos) & mask];
    }

    /** The `n` most recent outcomes packed into the low bits (n <= 64). */
    uint64_t
    low(unsigned n) const
    {
        BPNSP_ASSERT(n <= 64);
        return n < 64 ? recent & ((1ull << n) - 1) : recent;
    }

    unsigned capacity() const { return cap; }

    /** Clear all history. */
    void
    reset()
    {
        std::fill(ring.begin(), ring.end(), 0);
        head = 0;
        recent = 0;
    }

  private:
    friend class FoldedHistoryBank;

    unsigned cap;
    unsigned mask;        ///< ring size - 1 (ring size is 2^n >= cap)
    unsigned head = 0;    ///< ring slot of the most recent outcome
    uint64_t recent = 0;  ///< newest 64 outcomes, bit 0 most recent
    std::vector<uint8_t> ring;
};

/**
 * A predictor's global history plus every folded view of it.
 *
 * A fold added as add(L, W) is the XOR fold of the newest L outcomes
 * down to W bits: the outcome of age a lands on bit a % W, so for
 * L <= 64 its value equals foldTo(history().low(L), W). push() updates
 * every fold in O(1) each, struct-of-arrays, with no variable shifts:
 * the new outcome enters at bit 0, the outcome leaving the window is
 * cancelled at bit L % W, and the bit shifted out at the top wraps
 * around to bit 0.
 */
class FoldedHistoryBank
{
  public:
    /** @param capacity raw history kept (>= every fold's length) */
    explicit FoldedHistoryBank(unsigned capacity) : hist(capacity) {}

    /**
     * Track one more fold.
     *
     * @param history_length outcomes folded (1..capacity)
     * @param width folded value width in bits (1..31)
     * @return the fold's handle for value(): 0, 1, 2, ... in order
     */
    unsigned
    add(unsigned history_length, unsigned width)
    {
        BPNSP_ASSERT(width >= 1 && width < 32);
        BPNSP_ASSERT(history_length >= 1 &&
                     history_length <= hist.capacity());
        folds.push_back(0);
        lowMask.push_back((1u << width) - 1);
        topBit.push_back(1u << width);
        outBit.push_back(1u << (history_length % width));
        expiredAge.push_back(history_length - 1);
        expired.push_back(0);
        return static_cast<unsigned>(folds.size() - 1);
    }

    /** Append an outcome to the history and advance every fold. */
    void
    push(bool taken)
    {
        // Gather the outcomes leaving each window first, so the update
        // itself is a branch-free loop over plain arrays that the
        // compiler vectorizes.
        gather(hist.ring.data(), hist.head, hist.mask, expiredAge.data(),
               expired.data(), folds.size());
        advance(folds.data(), expired.data(), outBit.data(),
                lowMask.data(), topBit.data(), folds.size(),
                taken ? 1u : 0u);
        hist.push(taken);
    }

    /** Current value of fold `fold` (its W bits). */
    uint32_t value(unsigned fold) const { return folds[fold]; }

    /** Number of folds tracked. */
    unsigned size() const { return static_cast<unsigned>(folds.size()); }

    /** The raw history the folds are taken over. */
    const HistoryRegister &history() const { return hist; }

    /** Clear the history and every fold (folds of zeros are zero). */
    void
    reset()
    {
        hist.reset();
        std::fill(folds.begin(), folds.end(), 0);
    }

  private:
    /** gone[i] = the outcome of age age[i] in the ring. */
    static void
    gather(const uint8_t *__restrict ring, unsigned head, unsigned mask,
           const unsigned *__restrict age, uint32_t *__restrict gone,
           size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            gone[i] = ring[(head + age[i]) & mask];
    }

    /** v = f << 1 | in, minus the expired bit; the top bit wraps. */
    static void
    advance(uint32_t *__restrict fold, const uint32_t *__restrict gone,
            const uint32_t *__restrict out, const uint32_t *__restrict low,
            const uint32_t *__restrict top, size_t n, uint32_t in)
    {
        for (size_t i = 0; i < n; ++i) {
            const uint32_t v =
                ((fold[i] << 1) | in) ^ (out[i] & (0u - gone[i]));
            fold[i] = (v & low[i]) ^ ((v & top[i]) != 0 ? 1u : 0u);
        }
    }

    HistoryRegister hist;
    std::vector<uint32_t> folds;
    std::vector<uint32_t> lowMask;     ///< W bits set
    std::vector<uint32_t> topBit;      ///< bit W, wraps to bit 0
    std::vector<uint32_t> outBit;      ///< bit L % W
    std::vector<unsigned> expiredAge;  ///< L - 1
    std::vector<uint32_t> expired;     ///< push() scratch, 0 or 1
};

} // namespace bpnsp

#endif // BPNSP_UTIL_FOLDED_HISTORY_HPP
