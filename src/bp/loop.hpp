/**
 * @file
 * Loop termination predictor (the "L" of TAGE-SC-L; after Sherwood &
 * Calder's loop termination prediction and Seznec's CBP2016 component).
 *
 * Tracks, per branch, the trip count of loops whose branch is taken
 * for N consecutive iterations and then falls through once. When the
 * trip count has been confirmed several times, it predicts the exit
 * iteration exactly — a domain-specific template model (Sec. II).
 */

#ifndef BPNSP_BP_LOOP_HPP
#define BPNSP_BP_LOOP_HPP

#include <cstdint>
#include <vector>

#include "bp/predictor.hpp"

namespace bpnsp {

/** Component-style loop predictor. */
class LoopPredictor
{
  public:
    /** Result of a component lookup. */
    struct LoopPrediction
    {
        bool valid = false;   ///< entry found and confident
        bool taken = false;   ///< predicted direction
    };

    /**
     * @param log2_entries log2 of the loop table size
     * @param max_iter_bits width of the iteration counters
     */
    explicit LoopPredictor(unsigned log2_entries = 6,
                           unsigned max_iter_bits = 14);

    /** Look up a loop prediction for the branch at ip. */
    LoopPrediction lookup(uint64_t ip) const;

    /** Train with the resolved direction. */
    void update(uint64_t ip, bool taken);

    /** Storage estimate in bits. */
    uint64_t storageBits() const;

  private:
    struct Entry
    {
        uint32_t tag = 0;
        uint32_t pastIter = 0;     ///< learned trip count
        uint32_t currentIter = 0;  ///< iterations in the current visit
        uint8_t confidence = 0;    ///< confirmations of pastIter
        bool valid = false;
    };

    static constexpr uint8_t kConfidenceMax = 7;
    static constexpr uint8_t kConfidentAt = 7;

    unsigned indexBits;
    uint32_t iterMax;
    std::vector<Entry> entries;

    size_t indexOf(uint64_t ip_hash) const;     ///< from mix64(ip)
    uint32_t tagOf(uint64_t ip_hash) const;     ///< from mix64(ip)
};

} // namespace bpnsp

#endif // BPNSP_BP_LOOP_HPP
