/**
 * @file
 * PPM-like tagged predictor (Michaud, CBP-1; after Cleary & Witten's
 * partial pattern matching). Tagged tables over increasing history
 * lengths; the longest matching entry predicts. This is the ancestor
 * of TAGE and serves as a mid-tier comparator.
 */

#ifndef BPNSP_BP_PPM_HPP
#define BPNSP_BP_PPM_HPP

#include <cstdint>
#include <vector>

#include "bp/predictor.hpp"
#include "util/folded_history.hpp"
#include "util/rng.hpp"
#include "util/sat_counter.hpp"

namespace bpnsp {

/** Configuration of the PPM-like predictor. */
struct PpmConfig
{
    unsigned numTables = 4;      ///< tagged tables
    unsigned log2Entries = 10;   ///< entries per tagged table
    unsigned log2Bimodal = 12;   ///< base bimodal table size
    unsigned tagBits = 8;        ///< partial tag width
    unsigned maxHistory = 80;    ///< longest history length
};

/** Tagged PPM-like predictor with a bimodal fallback. */
class PpmPredictor : public BranchPredictor
{
  public:
    explicit PpmPredictor(const PpmConfig &config = PpmConfig{});

    std::string name() const override;
    bool predict(uint64_t ip, bool) override;
    void update(uint64_t ip, bool taken, bool predicted,
                uint64_t target) override;
    uint64_t storageBits() const override;

  private:
    struct Entry
    {
        uint16_t tag = 0;
        SatCounter ctr{3, 4};   // weakly taken
        bool valid = false;
    };

    PpmConfig cfg;
    std::vector<std::vector<Entry>> tables;
    std::vector<SatCounter> bimodal;
    FoldedHistoryBank folds;   ///< per table: index, tag
    Rng rng;

    // predict() scratch consumed by update()
    int providerTable = -1;
    size_t providerIndex = 0;
    std::vector<size_t> lastIndex;
    std::vector<uint16_t> lastTag;

    size_t bimodalIndex(uint64_t ip) const;
};

} // namespace bpnsp

#endif // BPNSP_BP_PPM_HPP
