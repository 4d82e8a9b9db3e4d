/**
 * @file
 * Set-associative cache model with LRU replacement, composed into the
 * L1I/L1D/L2/LLC hierarchy of the Skylake-like core configuration.
 * Timing-only: the model returns access latencies and tracks hit/miss
 * counters; no data is stored.
 */

#ifndef BPNSP_PIPELINE_CACHE_HPP
#define BPNSP_PIPELINE_CACHE_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace bpnsp {

/** One level of a timing-only cache hierarchy. */
class Cache
{
  public:
    /**
     * @param cache_name reporting name
     * @param size_bytes total capacity
     * @param associativity ways per set
     * @param line_bytes cache line size
     * @param hit_latency cycles on a hit at this level
     * @param next lower level (nullptr = memory is next)
     * @param memory_latency cycles to memory when next == nullptr
     */
    Cache(std::string cache_name, uint64_t size_bytes,
          unsigned associativity, unsigned line_bytes,
          unsigned hit_latency, Cache *next_level,
          unsigned memory_latency = 0);

    /**
     * Access the line containing addr, filling on miss.
     * @return total latency in cycles including lower levels.
     */
    unsigned access(uint64_t addr);

    /** True if the line containing addr is resident (no side effects). */
    bool probe(uint64_t addr) const;

    uint64_t hits() const { return hitCount; }
    uint64_t misses() const { return missCount; }

    /** Miss ratio (0 when never accessed). */
    double
    missRatio() const
    {
        const uint64_t total = hitCount + missCount;
        return total ? static_cast<double>(missCount) / total : 0.0;
    }

    const std::string &name() const { return cacheName; }
    unsigned hitLatency() const { return latency; }

    /** Invalidate all lines and zero the counters. */
    void reset();

  private:
    /// Tag of an invalid way: line addresses (line size >= 2) never
    /// reach it, so a hit test is one compare per way.
    static constexpr uint64_t kInvalid = ~0ull;

    std::string cacheName;
    unsigned assoc;
    unsigned lineShift;
    uint64_t numSets;
    unsigned latency;
    Cache *next;
    unsigned memLatency;
    // numSets * assoc each, row-major by set: a set's tags share one
    // 64-byte line at 8 ways, and the LRU stamps are only touched on a
    // hit's update and on a miss.
    std::vector<uint64_t> tags;
    std::vector<uint64_t> lastUse;
    uint64_t useClock = 0;
    uint64_t hitCount = 0;
    uint64_t missCount = 0;

    uint64_t setOf(uint64_t addr) const;
    uint64_t tagOf(uint64_t addr) const;
};

/** The full hierarchy used by the core model. */
struct CacheHierarchy
{
    Cache llc;
    Cache l2;
    Cache l1i;
    Cache l1d;

    /** Skylake-like sizes: 32K/32K L1, 256K L2, 2M LLC. */
    CacheHierarchy();

    /** Invalidate everything. */
    void reset();
};

} // namespace bpnsp

#endif // BPNSP_PIPELINE_CACHE_HPP
