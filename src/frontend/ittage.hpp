/**
 * @file
 * ITTAGE-style indirect target predictor.
 *
 * The direction predictors in src/bp answer taken/not-taken; indirect
 * jumps and calls (`jmpr`/`callr`) instead need a full target, and the
 * paper's measurement argument — that wrong-path cost hides in places
 * TAGE-for-direction cannot see — applies verbatim to them. ITTAGE
 * (Seznec, "A 64-Kbytes ITTAGE indirect branch predictor") reuses the
 * TAGE machinery: a base last-target table plus N tagged tables
 * indexed by geometrically longer global-history folds, where the
 * longest-history hit provides the target and a confidence counter
 * arbitrates replacement.
 *
 * This model mirrors the repo's TAGE implementation idioms
 * (bp/tage.cpp): a FoldedHistoryBank for index/tag compression over a
 * ring-buffer history, allocate-on-mispredict with useful-bit decay. The
 * history is fed by the front end with both conditional outcomes and
 * a target-hash bit per indirect transfer, so correlated dispatch
 * sequences (interpreter loops, virtual-call chains) are separable.
 */

#ifndef BPNSP_FRONTEND_ITTAGE_HPP
#define BPNSP_FRONTEND_ITTAGE_HPP

#include <cstdint>
#include <vector>

#include "util/folded_history.hpp"
#include "util/sat_counter.hpp"

namespace bpnsp {

/** Tagged geometric-history indirect target predictor. */
class Ittage
{
  public:
    /**
     * @param log2Entries log2 of entries per tagged table (the budget
     *        knob exposed to campaigns as `itt=<n>`)
     * @param numTables tagged table count (history lengths grow
     *        geometrically from kMinHistory to kMaxHistory)
     */
    Ittage(unsigned log2Entries, unsigned numTables);

    /**
     * Predict the target for an indirect transfer at `ip`. Returns
     * false when no component (not even the base table) has a
     * prediction yet — a compulsory miss.
     */
    bool predict(uint64_t ip, uint64_t *target);

    /**
     * Train with the resolved target. Call after predict() for the
     * same ip; allocation on a wrong prediction follows the TAGE
     * useful-bit protocol.
     */
    void update(uint64_t ip, uint64_t actualTarget);

    /**
     * Advance the global history by one bit. The front end pushes
     * conditional outcomes and indirect target-hash bits through
     * this; both the index and tag folds track incrementally.
     */
    void pushHistory(bool bit);

    uint64_t lookups() const { return lookupCount; }
    uint64_t mispredicts() const { return mispredictCount; }

    /** Modeled storage cost across base + tagged tables. */
    uint64_t storageBits() const;

    unsigned numTaggedTables() const
    {
        return static_cast<unsigned>(tables.size());
    }

  private:
    struct Entry
    {
        bool valid = false;
        uint16_t tag = 0;
        uint64_t target = 0;
        SatCounter conf{2, 1};   ///< 2-bit replacement confidence
        uint8_t useful = 0;
    };

    void computeIndices(uint64_t ip);
    uint32_t lfsrNext();

    unsigned log2Entries;
    /// Per table: index fold, tag fold, and a second tag fold that
    /// decorrelates the tag.
    FoldedHistoryBank folds;
    std::vector<std::vector<Entry>> tables;
    std::vector<uint64_t> baseTable;    ///< last-target, direct mapped
    std::vector<bool> baseValid;
    uint32_t lfsr = 0x2a5f19d3;         ///< allocation tie-break
    uint64_t lookupCount = 0;
    uint64_t mispredictCount = 0;

    // Per-table index/tag scratch and provider state carried from
    // predict() to update() (same single-branch-in-flight contract as
    // TagePredictor).
    std::vector<uint64_t> lastIndex;
    std::vector<uint16_t> lastTag;
    uint64_t lastBaseIndex = 0;
    int providerTable = -1;             ///< -1 = base table provided
    uint64_t lastPrediction = 0;
    bool lastPredictionValid = false;
};

} // namespace bpnsp

#endif // BPNSP_FRONTEND_ITTAGE_HPP
