#include "frontend/ittage.hpp"

#include <algorithm>
#include <cmath>

#include "util/bitops.hpp"
#include "util/logging.hpp"

namespace bpnsp {

namespace {

// History window of the shortest/longest tagged table. The spread is
// narrower than direction-TAGE's: indirect correlation distances are
// short (dispatch loops) and very long folds mostly dilute the tag.
constexpr unsigned kMinHistory = 4;
constexpr unsigned kMaxHistory = 64;
constexpr unsigned kTagBits = 11;

} // namespace

Ittage::Ittage(unsigned log2Entries_, unsigned numTables)
    : log2Entries(log2Entries_), folds(kMaxHistory + 1)
{
    BPNSP_ASSERT(log2Entries >= 4 && log2Entries <= 20,
                 "ITTAGE log2Entries out of sane range");
    BPNSP_ASSERT(numTables >= 1 && numTables <= 16,
                 "ITTAGE table count out of sane range");

    const size_t rows = 1ull << log2Entries;
    tables.reserve(numTables);
    for (unsigned t = 0; t < numTables; ++t) {
        // Geometric history lengths, kMinHistory..kMaxHistory.
        const double frac =
            numTables > 1 ? static_cast<double>(t) / (numTables - 1)
                          : 0.0;
        const auto len = static_cast<unsigned>(std::lround(
            kMinHistory *
            std::pow(static_cast<double>(kMaxHistory) / kMinHistory,
                     frac)));
        tables.emplace_back(rows);
        folds.add(len, log2Entries);
        folds.add(len, kTagBits);
        folds.add(len, kTagBits - 1);
    }
    // The base table is twice the tagged size: it is tagless, so
    // aliasing is its only failure mode and capacity is cheap.
    baseTable.assign(rows * 2, 0);
    baseValid.assign(rows * 2, false);
    lastIndex.assign(numTables, 0);
    lastTag.assign(numTables, 0);
}

uint32_t
Ittage::lfsrNext()
{
    lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xd0000001u);
    return lfsr;
}

void
Ittage::computeIndices(uint64_t ip)
{
    const uint64_t pc = mix64(ip);
    for (unsigned t = 0; t < tables.size(); ++t) {
        lastIndex[t] = bits(pc ^ (pc >> (t + 2)) ^ folds.value(3 * t),
                            0, log2Entries);
        lastTag[t] = static_cast<uint16_t>(
            bits(pc ^ folds.value(3 * t + 1) ^
                     (static_cast<uint64_t>(folds.value(3 * t + 2)) << 1),
                 0, kTagBits));
    }
    lastBaseIndex = bits(pc, 0, log2Entries + 1);
}

bool
Ittage::predict(uint64_t ip, uint64_t *target)
{
    ++lookupCount;
    computeIndices(ip);

    providerTable = -1;
    for (int t = static_cast<int>(tables.size()) - 1; t >= 0; --t) {
        const Entry &e = tables[t][lastIndex[t]];
        if (e.valid && e.tag == lastTag[t]) {
            providerTable = t;
            break;
        }
    }

    if (providerTable >= 0) {
        lastPrediction =
            tables[providerTable][lastIndex[providerTable]].target;
    } else if (baseValid[lastBaseIndex]) {
        lastPrediction = baseTable[lastBaseIndex];
    } else {
        // Compulsory miss: nothing anywhere, not even a last target.
        lastPredictionValid = false;
        return false;
    }
    lastPredictionValid = true;
    *target = lastPrediction;
    return true;
}

void
Ittage::update(uint64_t ip, uint64_t actualTarget)
{
    (void)ip;   // indices were latched by predict()

    const bool correct =
        lastPredictionValid && lastPrediction == actualTarget;
    if (!correct)
        ++mispredictCount;

    if (providerTable >= 0) {
        Entry &e = tables[providerTable][lastIndex[providerTable]];
        if (e.target == actualTarget) {
            e.conf.increment();
            if (correct && e.useful < 3)
                ++e.useful;
        } else if (e.conf.read() == 0) {
            // Confidence exhausted: steal the entry for the new target.
            e.target = actualTarget;
            e.conf.set(1);
        } else {
            e.conf.decrement();
        }
    }

    // The base table always tracks the most recent target.
    baseTable[lastBaseIndex] = actualTarget;
    baseValid[lastBaseIndex] = true;

    if (!correct) {
        // Allocate in a longer-history table, starting at a
        // pseudo-random candidate so one hot branch cannot pin a
        // single table (mirrors TAGE's probabilistic start).
        const int numTables = static_cast<int>(tables.size());
        int first = providerTable + 1;
        if (first < numTables) {
            if (first + 1 < numTables && (lfsrNext() & 1u))
                ++first;   // skip one table half the time
            bool allocated = false;
            for (int t = first; t < numTables; ++t) {
                Entry &e = tables[t][lastIndex[t]];
                if (!e.valid || e.useful == 0) {
                    e.valid = true;
                    e.tag = lastTag[t];
                    e.target = actualTarget;
                    e.conf.set(1);
                    e.useful = 0;
                    allocated = true;
                    break;
                }
            }
            if (!allocated) {
                // Everybody useful: age them so a later attempt can
                // succeed (TAGE usefulness-decrement-on-failure).
                for (int t = first; t < numTables; ++t) {
                    Entry &e = tables[t][lastIndex[t]];
                    if (e.useful > 0)
                        --e.useful;
                }
            }
        }
    }
}

void
Ittage::pushHistory(bool bit)
{
    folds.push(bit);
}

uint64_t
Ittage::storageBits() const
{
    // Tagged entry: tag + compressed target (32b) + conf + useful.
    const uint64_t taggedEntryBits = kTagBits + 32 + 2 + 2;
    uint64_t total =
        tables.size() * (1ull << log2Entries) * taggedEntryBits;
    total += baseTable.size() * 33;   // target + valid
    total += kMaxHistory;
    return total;
}

} // namespace bpnsp
