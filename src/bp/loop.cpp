#include "bp/loop.hpp"

#include "util/bitops.hpp"
#include "util/logging.hpp"

namespace bpnsp {

LoopPredictor::LoopPredictor(unsigned log2_entries,
                             unsigned max_iter_bits)
    : indexBits(log2_entries),
      iterMax((1u << max_iter_bits) - 1),
      entries(1ull << log2_entries)
{
    BPNSP_ASSERT(log2_entries >= 1 && log2_entries <= 16);
    BPNSP_ASSERT(max_iter_bits >= 4 && max_iter_bits <= 20);
}

size_t
LoopPredictor::indexOf(uint64_t ip_hash) const
{
    return bits(ip_hash, 0, indexBits);
}

uint32_t
LoopPredictor::tagOf(uint64_t ip_hash) const
{
    return static_cast<uint32_t>(bits(ip_hash, indexBits, 14));
}

LoopPredictor::LoopPrediction
LoopPredictor::lookup(uint64_t ip) const
{
    const uint64_t ip_hash = mix64(ip);
    const Entry &e = entries[indexOf(ip_hash)];
    LoopPrediction out;
    if (!e.valid || e.tag != tagOf(ip_hash) || e.confidence < kConfidentAt)
        return out;
    out.valid = true;
    // Taken while inside the loop; fall through on the exit iteration.
    out.taken = (e.currentIter + 1) < e.pastIter;
    return out;
}

void
LoopPredictor::update(uint64_t ip, bool taken)
{
    const uint64_t ip_hash = mix64(ip);
    Entry &e = entries[indexOf(ip_hash)];
    const uint32_t tag = tagOf(ip_hash);

    if (!e.valid || e.tag != tag) {
        // Adopt the slot on a not-taken outcome (potential loop exit
        // boundary) so that counting starts aligned with a full visit.
        if (!taken) {
            e = Entry{};
            e.tag = tag;
            e.valid = true;
        }
        return;
    }

    if (taken) {
        if (e.currentIter < iterMax)
            ++e.currentIter;
        else
            e.valid = false;   // trip count out of range; give up
        return;
    }

    // Loop exit observed: check the learned trip count.
    const uint32_t trip = e.currentIter + 1;
    if (e.pastIter == trip) {
        if (e.confidence < kConfidenceMax)
            ++e.confidence;
    } else {
        e.pastIter = trip;
        e.confidence = 0;
    }
    e.currentIter = 0;
}

uint64_t
LoopPredictor::storageBits() const
{
    // tag(14) + past(14) + current(14) + confidence(3) + valid(1)
    return (1ull << indexBits) * (14 + 14 + 14 + 3 + 1);
}

} // namespace bpnsp
