#include "bp/ppm.hpp"

#include <cmath>

#include "util/bitops.hpp"
#include "util/logging.hpp"

namespace bpnsp {

PpmPredictor::PpmPredictor(const PpmConfig &config)
    : cfg(config), folds(config.maxHistory + 1), rng(0x99f1)
{
    BPNSP_ASSERT(cfg.numTables >= 1);
    tables.assign(cfg.numTables,
                  std::vector<Entry>(1ull << cfg.log2Entries));
    bimodal.assign(1ull << cfg.log2Bimodal, SatCounter(2, 2));
    lastIndex.assign(cfg.numTables, 0);
    lastTag.assign(cfg.numTables, 0);

    std::vector<unsigned> histLen(cfg.numTables);
    const double ratio =
        cfg.numTables > 1
            ? std::pow(static_cast<double>(cfg.maxHistory) / 2.0,
                       1.0 / (cfg.numTables - 1))
            : 1.0;
    double len = 2.0;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        histLen[t] = static_cast<unsigned>(len + 0.5);
        if (t > 0 && histLen[t] <= histLen[t - 1])
            histLen[t] = histLen[t - 1] + 1;
        len *= ratio;
    }
    histLen.back() = cfg.maxHistory;

    for (unsigned t = 0; t < cfg.numTables; ++t) {
        folds.add(histLen[t], cfg.log2Entries);
        folds.add(histLen[t], cfg.tagBits);
    }
}

std::string
PpmPredictor::name() const
{
    return "ppm-" + std::to_string(cfg.numTables) + "t";
}

size_t
PpmPredictor::bimodalIndex(uint64_t ip) const
{
    return bits(mix64(ip), 0, cfg.log2Bimodal);
}

bool
PpmPredictor::predict(uint64_t ip, bool)
{
    providerTable = -1;
    const uint64_t pc_hash = mix64(ip);
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        lastIndex[t] =
            bits(pc_hash ^ folds.value(2 * t) ^ (pc_hash >> (t + 3)), 0,
                 cfg.log2Entries);
        lastTag[t] = static_cast<uint16_t>(
            bits(pc_hash ^ (folds.value(2 * t + 1) << 1) ^ (pc_hash >> 17),
                 0, cfg.tagBits));
    }
    // Longest-history matching table provides the prediction.
    for (int t = static_cast<int>(cfg.numTables) - 1; t >= 0; --t) {
        const Entry &e = tables[t][lastIndex[t]];
        if (e.valid && e.tag == lastTag[t]) {
            providerTable = t;
            providerIndex = lastIndex[t];
            return e.ctr.taken();
        }
    }
    return bimodal[bimodalIndex(ip)].taken();
}

void
PpmPredictor::update(uint64_t ip, bool taken, bool predicted, uint64_t)
{
    if (providerTable >= 0) {
        tables[providerTable][providerIndex].ctr.update(taken);
    } else {
        bimodal[bimodalIndex(ip)].update(taken);
    }

    // On a misprediction, allocate one entry in a longer-history table.
    if (predicted != taken &&
        providerTable + 1 < static_cast<int>(cfg.numTables)) {
        // Choose uniformly among the longer tables.
        const unsigned lo = static_cast<unsigned>(providerTable + 1);
        const unsigned t =
            lo + static_cast<unsigned>(rng.below(cfg.numTables - lo));
        Entry &e = tables[t][lastIndex[t]];
        e.tag = lastTag[t];
        e.ctr = SatCounter(3, taken ? 4 : 3);
        e.valid = true;
    }
    folds.push(taken);
}

uint64_t
PpmPredictor::storageBits() const
{
    const uint64_t entry_bits = cfg.tagBits + 3 + 1;
    return static_cast<uint64_t>(cfg.numTables) *
               (1ull << cfg.log2Entries) * entry_bits +
           (1ull << cfg.log2Bimodal) * 2 + cfg.maxHistory;
}

} // namespace bpnsp
