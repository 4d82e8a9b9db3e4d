/**
 * @file
 * Statistical corrector (the "SC" of TAGE-SC-L).
 *
 * A perceptron-like ensemble arbiter (Sec. II: "Ensemble Models"): a
 * bias table plus GEHL-style weight tables over several global-history
 * lengths and an IMLI (inner-most loop iteration) table vote on whether
 * to keep or invert the primary prediction. The decision threshold is
 * adapted dynamically.
 */

#ifndef BPNSP_BP_SC_HPP
#define BPNSP_BP_SC_HPP

#include <cstdint>
#include <vector>

#include "trace/record.hpp"
#include "util/folded_history.hpp"

namespace bpnsp {

/** Configuration of the statistical corrector. */
struct ScConfig
{
    unsigned log2Entries = 9;     ///< entries per weight table
    unsigned weightBits = 6;      ///< signed weight width
    std::vector<unsigned> histLengths = {4, 10, 16, 27, 44};
    unsigned log2Imli = 8;        ///< IMLI table size
    int32_t initialThreshold = 6; ///< |sum| needed to override
};

/** Component-style statistical corrector. */
class StatisticalCorrector
{
  public:
    explicit StatisticalCorrector(const ScConfig &config = ScConfig{});

    /**
     * Decide the final prediction.
     *
     * @param ip branch instruction pointer
     * @param primary_pred the TAGE(+loop) prediction
     * @param primary_conf provider counter confidence (0..3)
     * @return the possibly-inverted final prediction
     */
    bool predict(uint64_t ip, bool primary_pred, uint32_t primary_conf);

    /**
     * Train with the resolved outcome. Must follow each predict().
     *
     * @param ip branch instruction pointer
     * @param taken resolved direction
     * @param target taken-path target (drives IMLI)
     */
    void update(uint64_t ip, bool taken, uint64_t target);

    /** Storage estimate in bits. */
    uint64_t storageBits() const;

    /** Sum from the most recent predict() (for tests). */
    int32_t lastSum() const { return sum; }

    /** Current adaptive threshold (for tests). */
    int32_t currentThreshold() const { return threshold; }

    /** Current IMLI counter (for tests). */
    uint64_t imliCount() const { return imli; }

  private:
    ScConfig cfg;
    int32_t threshold;
    int32_t thresholdCtr = 0;
    int32_t weightMax;
    int32_t weightMin;

    // Weights fit in weightBits <= 8, so they are stored as bytes.
    std::vector<int8_t> gehl;      ///< [table << log2Entries | entry]
    std::vector<int8_t> bias;      ///< indexed by (ip, pred)
    std::vector<int8_t> imliTable;
    FoldedHistoryBank folds;       ///< one index fold per GEHL table

    uint64_t imli = 0;
    uint64_t lastLoopTarget = 0;

    // predict() scratch consumed by update()
    int32_t sum = 0;
    bool primaryPred = false;
    bool finalPred = false;
    std::vector<size_t> lastIndex;   ///< into `gehl`
    size_t lastBiasIndex = 0;
    size_t lastImliIndex = 0;

    void adjust(int8_t &w, bool taken);
};

} // namespace bpnsp

#endif // BPNSP_BP_SC_HPP
