#include "bp/perceptron.hpp"

#include <cmath>

#include "util/bitops.hpp"
#include "util/logging.hpp"

namespace bpnsp {

PerceptronPredictor::PerceptronPredictor(const PerceptronConfig &config)
    : cfg(config), folds(config.maxHistory + 1)
{
    BPNSP_ASSERT(cfg.numTables >= 1 && cfg.log2Entries >= 1);
    weightMax = (1 << (cfg.weightBits - 1)) - 1;
    weightMin = -(1 << (cfg.weightBits - 1));
    threshold = cfg.theta != 0
        ? cfg.theta
        : static_cast<int32_t>(1.93 * cfg.maxHistory / cfg.numTables +
                               14);

    tables.assign(cfg.numTables,
                  std::vector<int32_t>(1ull << cfg.log2Entries, 0));
    lastIndex.assign(cfg.numTables, 0);

    // Geometric history segment endpoints from 1 to maxHistory.
    std::vector<unsigned> segmentLen(cfg.numTables);
    const double ratio =
        cfg.numTables > 1
            ? std::pow(static_cast<double>(cfg.maxHistory),
                       1.0 / (cfg.numTables - 1))
            : 1.0;
    double len = 1.0;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        segmentLen[t] = static_cast<unsigned>(len + 0.5);
        if (t > 0 && segmentLen[t] <= segmentLen[t - 1])
            segmentLen[t] = segmentLen[t - 1] + 1;
        len *= ratio;
    }
    segmentLen.back() = cfg.maxHistory;

    for (unsigned len : segmentLen)
        folds.add(len, cfg.log2Entries);
}

std::string
PerceptronPredictor::name() const
{
    return "perceptron-" + std::to_string(cfg.numTables) + "x" +
           std::to_string(1ull << cfg.log2Entries);
}

size_t
PerceptronPredictor::indexOf(unsigned table, uint64_t ip) const
{
    const uint64_t h = mix64(ip * 31 + table) ^ folds.value(table);
    return bits(h, 0, cfg.log2Entries);
}

bool
PerceptronPredictor::predict(uint64_t ip, bool)
{
    sum = 0;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        lastIndex[t] = indexOf(t, ip);
        sum += tables[t][lastIndex[t]];
    }
    return sum >= 0;
}

void
PerceptronPredictor::update(uint64_t ip, bool taken, bool predicted,
                            uint64_t)
{
    (void)ip;
    // Train on mispredictions or low-confidence predictions.
    if (predicted != taken || std::abs(sum) <= threshold) {
        for (unsigned t = 0; t < cfg.numTables; ++t) {
            int32_t &w = tables[t][lastIndex[t]];
            if (taken) {
                if (w < weightMax)
                    ++w;
            } else {
                if (w > weightMin)
                    --w;
            }
        }
    }
    folds.push(taken);
}

void
PerceptronPredictor::trackOther(uint64_t, InstrClass cls, uint64_t)
{
    // Fold unconditional transfers into history as "taken", which is
    // how real implementations keep global history aligned with the
    // fetch stream.
    if (cls == InstrClass::Call || cls == InstrClass::Ret)
        folds.push(true);
}

uint64_t
PerceptronPredictor::storageBits() const
{
    return static_cast<uint64_t>(cfg.numTables) *
               (1ull << cfg.log2Entries) * cfg.weightBits +
           cfg.maxHistory;
}

} // namespace bpnsp
