#include "bp/sc.hpp"

#include <cmath>

#include "util/bitops.hpp"
#include "util/logging.hpp"

namespace bpnsp {

StatisticalCorrector::StatisticalCorrector(const ScConfig &config)
    : cfg(config), threshold(config.initialThreshold),
      folds(config.histLengths.empty()
                ? 2
                : config.histLengths.back() + 1)
{
    BPNSP_ASSERT(!cfg.histLengths.empty());
    BPNSP_ASSERT(cfg.weightBits >= 1 && cfg.weightBits <= 8);
    weightMax = (1 << (cfg.weightBits - 1)) - 1;
    weightMin = -(1 << (cfg.weightBits - 1));

    gehl.assign(cfg.histLengths.size() << cfg.log2Entries, 0);
    bias.assign(1ull << (cfg.log2Entries + 1), 0);
    imliTable.assign(1ull << cfg.log2Imli, 0);
    lastIndex.assign(cfg.histLengths.size(), 0);

    for (unsigned len : cfg.histLengths)
        folds.add(len, cfg.log2Entries);
}

bool
StatisticalCorrector::predict(uint64_t ip, bool primary_pred,
                              uint32_t primary_conf)
{
    primaryPred = primary_pred;
    const uint64_t pc_hash = mix64(ip);

    // The primary prediction enters the sum with a confidence-scaled
    // weight, so high-confidence TAGE predictions are hard to override.
    sum = (primary_pred ? 1 : -1) *
          static_cast<int32_t>(3 + 2 * primary_conf);

    lastBiasIndex = bits((pc_hash << 1) | (primary_pred ? 1 : 0), 0,
                         cfg.log2Entries + 1);
    sum += 2 * bias[lastBiasIndex] + 1;

    for (unsigned t = 0; t < folds.size(); ++t) {
        lastIndex[t] = (static_cast<size_t>(t) << cfg.log2Entries) |
                       bits(pc_hash ^ folds.value(t) ^
                                (pc_hash >> (t + 4)),
                            0, cfg.log2Entries);
        sum += 2 * gehl[lastIndex[t]] + 1;
    }

    lastImliIndex = bits(pc_hash ^ mix64(imli), 0, cfg.log2Imli);
    sum += 2 * imliTable[lastImliIndex] + 1;

    const bool sc_pred = sum >= 0;
    // Only override a disagreeing primary prediction when the
    // statistical evidence clears the adaptive threshold.
    if (sc_pred != primary_pred && std::abs(sum) < threshold)
        finalPred = primary_pred;
    else
        finalPred = sc_pred;
    return finalPred;
}

void
StatisticalCorrector::adjust(int8_t &w, bool taken)
{
    if (taken) {
        if (w < weightMax)
            ++w;
    } else {
        if (w > weightMin)
            --w;
    }
}

void
StatisticalCorrector::update(uint64_t ip, bool taken, uint64_t target)
{
    // Threshold adaptation (Seznec's TC mechanism): tune how bold the
    // corrector is, based on whether overrides would have helped.
    const bool sc_pred = sum >= 0;
    if (sc_pred != primaryPred) {
        if (sc_pred == taken) {
            if (--thresholdCtr <= -8) {
                thresholdCtr = 0;
                if (threshold > 4)
                    --threshold;
            }
        } else {
            if (++thresholdCtr >= 8) {
                thresholdCtr = 0;
                if (threshold < 128)
                    ++threshold;
            }
        }
    }

    // Train on mispredictions and low-margin correct predictions.
    if (finalPred != taken || std::abs(sum) < threshold * 2) {
        adjust(bias[lastBiasIndex], taken);
        for (size_t index : lastIndex)
            adjust(gehl[index], taken);
        adjust(imliTable[lastImliIndex], taken);
    }

    // IMLI: count successive iterations of the inner-most loop,
    // identified by a backward taken conditional branch.
    if (taken && target < ip) {
        if (target == lastLoopTarget) {
            if (imli < (1ull << cfg.log2Imli) - 1)
                ++imli;
        } else {
            lastLoopTarget = target;
            imli = 1;
        }
    } else if (!taken && target < ip) {
        imli = 0;
    }

    // Global history for the GEHL folds.
    folds.push(taken);
}

uint64_t
StatisticalCorrector::storageBits() const
{
    uint64_t total = 0;
    total += gehl.size() * cfg.weightBits;
    total += (1ull << (cfg.log2Entries + 1)) * cfg.weightBits;
    total += (1ull << cfg.log2Imli) * cfg.weightBits;
    total += cfg.histLengths.back();
    return total;
}

} // namespace bpnsp
