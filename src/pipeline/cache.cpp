#include "pipeline/cache.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/logging.hpp"

namespace bpnsp {

Cache::Cache(std::string cache_name, uint64_t size_bytes,
             unsigned associativity, unsigned line_bytes,
             unsigned hit_latency, Cache *next_level,
             unsigned memory_latency)
    : cacheName(std::move(cache_name)), assoc(associativity),
      lineShift(log2Floor(line_bytes)),
      numSets(size_bytes / line_bytes / associativity),
      latency(hit_latency), next(next_level), memLatency(memory_latency)
{
    BPNSP_ASSERT(isPowerOfTwo(line_bytes) && line_bytes >= 2,
                 "line size must be 2^n, n >= 1");
    BPNSP_ASSERT(numSets >= 1, "cache too small: ", cacheName);
    BPNSP_ASSERT(isPowerOfTwo(numSets), "sets must be 2^n: ", cacheName);
    BPNSP_ASSERT(next != nullptr || memLatency > 0,
                 "last level needs a memory latency: ", cacheName);
    tags.assign(numSets * assoc, kInvalid);
    lastUse.assign(numSets * assoc, 0);
}

uint64_t
Cache::setOf(uint64_t addr) const
{
    return (addr >> lineShift) & (numSets - 1);
}

uint64_t
Cache::tagOf(uint64_t addr) const
{
    return addr >> lineShift;
}

bool
Cache::probe(uint64_t addr) const
{
    const uint64_t *set = &tags[setOf(addr) * assoc];
    const uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < assoc; ++w) {
        if (set[w] == tag)
            return true;
    }
    return false;
}

unsigned
Cache::access(uint64_t addr)
{
    const uint64_t first = setOf(addr) * assoc;
    uint64_t *set = &tags[first];
    uint64_t *stamp = &lastUse[first];
    const uint64_t tag = tagOf(addr);
    ++useClock;

    for (unsigned w = 0; w < assoc; ++w) {
        if (set[w] == tag) {
            stamp[w] = useClock;
            ++hitCount;
            return latency;
        }
    }

    ++missCount;
    // LRU victim selection: any invalid way first, else the oldest.
    unsigned victim = 0;
    for (unsigned w = 0; w < assoc; ++w) {
        if (set[w] == kInvalid) {
            victim = w;
            break;
        }
        if (stamp[w] < stamp[victim])
            victim = w;
    }
    const unsigned below =
        next != nullptr ? next->access(addr) : memLatency;
    set[victim] = tag;
    stamp[victim] = useClock;
    return latency + below;
}

void
Cache::reset()
{
    std::fill(tags.begin(), tags.end(), kInvalid);
    std::fill(lastUse.begin(), lastUse.end(), 0);
    useClock = 0;
    hitCount = 0;
    missCount = 0;
}

CacheHierarchy::CacheHierarchy()
    : llc("llc", 2 * 1024 * 1024, 16, 64, 30, nullptr, 160),
      l2("l2", 256 * 1024, 8, 64, 10, &llc),
      l1i("l1i", 32 * 1024, 8, 64, 0, &l2),
      l1d("l1d", 32 * 1024, 8, 64, 4, &l2)
{
}

void
CacheHierarchy::reset()
{
    llc.reset();
    l2.reset();
    l1i.reset();
    l1d.reset();
}

} // namespace bpnsp
