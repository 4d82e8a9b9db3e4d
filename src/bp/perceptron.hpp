/**
 * @file
 * Hashed perceptron predictor (Jiménez & Lin, HPCA 2001; Jiménez,
 * MICRO 2003). Learns signed weights over segments of the global
 * history, damping uncorrelated positions — the mitigation of PPM's
 * exact-match weakness discussed in Sec. II of the paper.
 */

#ifndef BPNSP_BP_PERCEPTRON_HPP
#define BPNSP_BP_PERCEPTRON_HPP

#include <cstdint>
#include <vector>

#include "bp/predictor.hpp"
#include "util/folded_history.hpp"

namespace bpnsp {

/** Configuration of a hashed perceptron. */
struct PerceptronConfig
{
    unsigned numTables = 8;       ///< weight tables (history segments)
    unsigned log2Entries = 10;    ///< entries per table
    unsigned weightBits = 8;      ///< signed weight width
    unsigned maxHistory = 128;    ///< longest history segment end
    /** Training threshold; 0 selects the classic 1.93*h + 14 rule. */
    int32_t theta = 0;
};

/** Hashed perceptron over geometrically growing history segments. */
class PerceptronPredictor : public BranchPredictor
{
  public:
    explicit PerceptronPredictor(
        const PerceptronConfig &config = PerceptronConfig{});

    std::string name() const override;
    bool predict(uint64_t ip, bool) override;
    void update(uint64_t ip, bool taken, bool predicted,
                uint64_t target) override;
    void trackOther(uint64_t ip, InstrClass cls,
                    uint64_t target) override;
    uint64_t storageBits() const override;

    /** Perceptron output (sum) from the most recent predict(). */
    int32_t lastSum() const { return sum; }

  private:
    PerceptronConfig cfg;
    int32_t threshold;
    int32_t weightMax;
    int32_t weightMin;

    std::vector<std::vector<int32_t>> tables;  ///< [table][entry]
    FoldedHistoryBank folds;                   ///< per-table index fold

    int32_t sum = 0;
    std::vector<size_t> lastIndex;             ///< indices from predict()

    size_t indexOf(unsigned table, uint64_t ip) const;
};

} // namespace bpnsp

#endif // BPNSP_BP_PERCEPTRON_HPP
