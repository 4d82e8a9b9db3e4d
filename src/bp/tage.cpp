#include "bp/tage.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/bitops.hpp"
#include "util/logging.hpp"

#if BPNSP_OBS_DETAIL
#include "obs/metrics.hpp"
#endif

namespace bpnsp {

#if BPNSP_OBS_DETAIL
namespace {

/**
 * Per-table allocation counters, aggregated over every TAGE instance
 * in the process (names sort by table index in the run report). Only
 * compiled under BPNSP_OBS_DETAIL so the default build's predict and
 * update loops carry zero instrumentation.
 */
obs::Counter &
tageAllocCounter(unsigned table)
{
    static constexpr unsigned kMaxTables = 32;
    static const auto counters = [] {
        std::array<obs::Counter *, kMaxTables> handles{};
        for (unsigned t = 0; t < kMaxTables; ++t) {
            const std::string suffix =
                (t < 10 ? "0" : "") + std::to_string(t);
            handles[t] = &obs::counter("bp.tage.alloc_table_" + suffix);
        }
        return handles;
    }();
    return *counters[table < kMaxTables ? table : kMaxTables - 1];
}

} // namespace
#endif

std::vector<unsigned>
TageConfig::histLengths() const
{
    BPNSP_ASSERT(numTables >= 2);
    BPNSP_ASSERT(maxHist > minHist);
    std::vector<unsigned> lengths(numTables);
    const double ratio =
        std::pow(static_cast<double>(maxHist) / minHist,
                 1.0 / (numTables - 1));
    double len = minHist;
    for (unsigned t = 0; t < numTables; ++t) {
        lengths[t] = static_cast<unsigned>(len + 0.5);
        if (t > 0 && lengths[t] <= lengths[t - 1])
            lengths[t] = lengths[t - 1] + 1;
        len *= ratio;
    }
    lengths.back() = maxHist;
    return lengths;
}

TageConfig
TageConfig::preset(unsigned kilobytes)
{
    TageConfig cfg;
    cfg.label = std::to_string(kilobytes) + "KB";
    switch (kilobytes) {
      case 8:
        cfg.numTables = 10;
        cfg.minHist = 4;
        cfg.maxHist = 1000;
        cfg.log2Bimodal = 12;
        cfg.log2Entries.assign(cfg.numTables, 9);
        break;
      case 64:
        cfg.numTables = 12;
        cfg.minHist = 4;
        cfg.maxHist = 3000;
        cfg.log2Bimodal = 14;
        cfg.log2Entries.assign(cfg.numTables, 11);
        break;
      case 128:
      case 256:
      case 512:
      case 1024: {
        // Fig. 7 methodology: same organization as 64KB with the
        // number of table entries scaled up.
        cfg = preset(64);
        cfg.label = std::to_string(kilobytes) + "KB";
        unsigned extra = log2Ceil(kilobytes / 64);
        for (auto &l2 : cfg.log2Entries)
            l2 += extra;
        cfg.log2Bimodal += extra;
        return cfg;
      }
      default:
        fatal("unsupported TAGE preset: ", kilobytes, "KB");
    }
    // Tag widths grow with history length, as in Seznec's entries.
    cfg.tagBits.resize(cfg.numTables);
    for (unsigned t = 0; t < cfg.numTables; ++t)
        cfg.tagBits[t] = 8 + (t * 5) / cfg.numTables;
    return cfg;
}

TagePredictor::TagePredictor(const TageConfig &config)
    : cfg(config), folds(config.maxHist + 1), rng(0x7a6e),
      updatesToDecay(config.uResetPeriod)
{
    BPNSP_ASSERT(cfg.log2Entries.size() == cfg.numTables,
                 "log2Entries size mismatch");
    BPNSP_ASSERT(cfg.uResetPeriod >= 1, "uResetPeriod must be >= 1");
    if (cfg.tagBits.empty()) {
        cfg.tagBits.resize(cfg.numTables);
        for (unsigned t = 0; t < cfg.numTables; ++t)
            cfg.tagBits[t] = 8 + (t * 5) / cfg.numTables;
    }
    BPNSP_ASSERT(cfg.tagBits.size() == cfg.numTables,
                 "tagBits size mismatch");

    BPNSP_ASSERT(cfg.numTables <= 32, "hit mask holds 32 tables");
    const std::vector<unsigned> histLen = cfg.histLengths();
    uint64_t base = 0;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        BPNSP_ASSERT(cfg.tagBits[t] <= 15, "tag must leave the valid bit");
        tableGeom.push_back(Table{
            base,
            (1ull << cfg.log2Entries[t]) - 1,
            (1ull << cfg.tagBits[t]) - 1,
            (1ull << std::min<unsigned>(16, histLen[t])) - 1,
        });
        base += 1ull << cfg.log2Entries[t];
        folds.add(histLen[t], cfg.log2Entries[t]);
        folds.add(histLen[t], cfg.tagBits[t]);
        folds.add(histLen[t], cfg.tagBits[t] > 1 ? cfg.tagBits[t] - 1 : 1);
    }
    entries.assign(base, Entry{});
    ownerIp.assign(base, 0);
    bimodal.assign(1ull << cfg.log2Bimodal, 2);
    lastIndex.assign(cfg.numTables, 0);
    lastTag.assign(cfg.numTables, 0);
}

std::string
TagePredictor::name() const
{
    return "tage-" + cfg.label;
}

int8_t
TagePredictor::ctrMax() const
{
    return static_cast<int8_t>((1 << (cfg.ctrBits - 1)) - 1);
}

int8_t
TagePredictor::ctrMin() const
{
    return static_cast<int8_t>(-(1 << (cfg.ctrBits - 1)));
}

bool
TagePredictor::predict(uint64_t ip, bool)
{
    const uint64_t pc_hash = mix64(ip);
    lastBimodal = bits(pc_hash, 0, cfg.log2Bimodal);

    // Compute every table's index and tag and probe them all at once:
    // the loads are independent, and which tables hit becomes a bit
    // mask instead of a chain of data-dependent branches. Path masks
    // only grow with t, so the path hash is rehashed only on a change.
    uint32_t hits = 0;
    uint64_t mask = 0;
    uint64_t path_hash = 0;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        const Table &tab = tableGeom[t];
        if (tab.pathMask != mask) {
            mask = tab.pathMask;
            path_hash = mix64(pathHistory & mask);
        }
        const unsigned f = 3 * t;
        const size_t index =
            tab.base + ((pc_hash ^ (pc_hash >> (t + 2)) ^ folds.value(f) ^
                         (path_hash >> (t + 1))) &
                        tab.indexMask);
        const auto tag = static_cast<uint16_t>(
            (pc_hash ^ folds.value(f + 1) ^
             (static_cast<uint64_t>(folds.value(f + 2)) << 1)) &
            tab.tagMask);
        lastIndex[t] = index;
        lastTag[t] = tag;
        hits |= static_cast<uint32_t>(entries[index].key ==
                                      (tag | kValid))
                << t;
    }
    // Longest hit provides; the next longest is the alternate.
    provider = static_cast<int>(std::bit_width(hits)) - 1;
    const uint32_t below =
        provider > 0 ? hits & ((1u << provider) - 1) : 0;
    altTable = static_cast<int>(std::bit_width(below)) - 1;

#if BPNSP_OBS_DETAIL
    // Hit-bank distribution: bucket 0 is the bimodal base predictor,
    // bucket t+1 the tagged table t that provided the prediction.
    static obs::Histogram &providerHist =
        obs::histogram("bp.tage.provider_table");
    providerHist.observe(static_cast<uint64_t>(provider + 1));
#endif

    const bool bimodal_pred = bimodal[lastBimodal] >= 2;
    if (provider < 0) {
        providerPred = altPred = finalPred = bimodal_pred;
        providerWeakNew = false;
        providerConf = 0;
        return finalPred;
    }

    const Entry &pe = entries[lastIndex[provider]];
    providerPred = pe.ctr >= 0;
    providerConf = pe.ctr >= 0 ? static_cast<uint32_t>(pe.ctr)
                               : static_cast<uint32_t>(-pe.ctr - 1);
    altPred = altTable >= 0 ? (entries[lastIndex[altTable]].ctr >= 0)
                            : bimodal_pred;

    // Newly allocated entries (u == 0, weak counter) may be less
    // reliable than the alternate prediction; arbitrate dynamically.
    providerWeakNew =
        pe.u == 0 && (pe.ctr == 0 || pe.ctr == -1);
    finalPred = (providerWeakNew && useAltOnNa.read() >= 0) ? altPred
                                                            : providerPred;
    return finalPred;
}

void
TagePredictor::update(uint64_t ip, bool taken, bool predicted,
                      uint64_t)
{
    (void)predicted;   // equals finalPred by contract

    bool train_bimodal = provider < 0;
    if (provider >= 0) {
        Entry &pe = entries[lastIndex[provider]];

        // Arbitrate the use-alt-on-newly-allocated policy.
        if (providerWeakNew && providerPred != altPred)
            useAltOnNa.update(altPred == taken);

        // Usefulness: the provider proved its value over the alternate.
        if (providerPred != altPred) {
            if (providerPred == taken) {
                if (pe.u < (1u << cfg.uBits) - 1)
                    ++pe.u;
            } else if (pe.u > 0) {
                --pe.u;
            }
        }

        // Direction counter.
        if (taken) {
            if (pe.ctr < ctrMax())
                ++pe.ctr;
        } else {
            if (pe.ctr > ctrMin())
                --pe.ctr;
        }

        // Also train the bimodal when the provider is the lowest table
        // and weak, keeping the base predictor warm.
        train_bimodal = provider == 0 && (pe.ctr == 0 || pe.ctr == -1);
    }
    if (train_bimodal) {
        uint8_t &b = bimodal[lastBimodal];
        if (taken) {
            if (b < 3)
                ++b;
        } else if (b > 0) {
            --b;
        }
    }

    if (finalPred != taken)
        allocate(ip, taken);

    if (--updatesToDecay == 0) {
        updatesToDecay = cfg.uResetPeriod;
        decayUsefulness();
    }

    pushHistory(taken, ip);
}

void
TagePredictor::allocate(uint64_t ip, bool taken)
{
    const unsigned first = static_cast<unsigned>(provider + 1);
    if (first >= cfg.numTables)
        return;

    // Randomized start avoids ping-pong between branches contending
    // for the same tables (Seznec's allocation throttling).
    unsigned start = first;
    if (cfg.numTables - first > 1 && rng.below(2) == 0)
        start = first + 1 +
                static_cast<unsigned>(rng.below(
                    std::min<uint64_t>(2, cfg.numTables - first - 1)));

    unsigned allocated = 0;
    bool any_free = false;
    for (unsigned t = start; t < cfg.numTables && allocated < 1; ++t) {
        const size_t index = lastIndex[t];
        Entry &e = entries[index];
        if (e.u == 0) {
            const uint64_t evicted = ownerIp[index];
            e.key = lastTag[t] | (ip != 0 ? kValid : 0);
            e.ctr = taken ? 0 : -1;
            e.u = 0;
            ownerIp[index] = ip;
#if BPNSP_OBS_DETAIL
            tageAllocCounter(static_cast<unsigned>(t)).inc();
#endif
            if (allocListener != nullptr)
                allocListener->onAllocation(ip, t, index, evicted);
            ++allocated;
            any_free = true;
        }
    }
    if (!any_free) {
        // Nothing free: age the candidates so future allocations can
        // succeed (usefulness decrement on allocation failure).
        for (unsigned t = first; t < cfg.numTables; ++t) {
            Entry &e = entries[lastIndex[t]];
            if (e.u > 0)
                --e.u;
        }
    }
}

void
TagePredictor::decayUsefulness()
{
    for (auto &e : entries)
        e.u >>= 1;
}

void
TagePredictor::pushHistory(bool taken, uint64_t ip)
{
    folds.push(taken);
    pathHistory = (pathHistory << 1) | ((ip >> 2) & 1);
}

void
TagePredictor::trackOther(uint64_t ip, InstrClass cls, uint64_t)
{
    if (isControl(cls))
        pathHistory = (pathHistory << 1) | ((ip >> 2) & 1);
}

void
TagePredictor::setAllocationListener(TageAllocationListener *listener)
{
    allocListener = listener;
}

uint64_t
TagePredictor::storageBits() const
{
    uint64_t total = (1ull << cfg.log2Bimodal) * 2;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        const uint64_t entry_bits =
            cfg.tagBits[t] + cfg.ctrBits + cfg.uBits;
        total += (1ull << cfg.log2Entries[t]) * entry_bits;
    }
    total += cfg.maxHist;   // history register
    total += 16;            // path history
    return total;
}

} // namespace bpnsp
