/**
 * @file
 * Trace-driven out-of-order core timing model.
 *
 * A dependency-aware scoreboard in the spirit of ChampSim's simplified
 * core: each retired instruction is assigned fetch, issue, complete,
 * and retire cycles subject to (1) front-end width and I-cache misses,
 * (2) ROB/scheduler/LQ/SQ occupancy, (3) register dependencies and
 * execution latencies (loads probe the D-cache hierarchy), (4) issue
 * and retire widths, and (5) branch mispredictions, which stall the
 * front end until the branch resolves plus a redirect penalty.
 *
 * This reproduces the mechanism behind the paper's IPC results: as
 * capacities scale up, correctly-predicted code exposes more ILP while
 * each misprediction still serializes the machine, so the misprediction
 * penalty dominates and IPC saturates (Fig. 1, Fig. 5).
 */

#ifndef BPNSP_PIPELINE_CORE_HPP
#define BPNSP_PIPELINE_CORE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "bp/sim.hpp"
#include "frontend/frontend.hpp"
#include "pipeline/cache.hpp"
#include "pipeline/core_config.hpp"
#include "trace/sink.hpp"
#include "util/logging.hpp"
#include "vm/isa.hpp"

namespace bpnsp {

/** Aggregate performance counters of one core simulation. */
struct PerfCounters
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t condBranches = 0;
    uint64_t mispredicts = 0;

    // Frontend-attributed events (zero when no FrontendModel is wired
    // in: the legacy configuration assumes a perfect fetch engine).
    uint64_t targetMispredicts = 0;   ///< wrong RAS/ITTAGE targets
    uint64_t ftqStallCycles = 0;      ///< BTB bubbles the FTQ missed
    uint64_t directionFlushCycles = 0;///< flush cycles: wrong direction
    uint64_t targetFlushCycles = 0;   ///< flush cycles: wrong target

    /** Instructions per cycle. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Mispredictions per kilo-instruction. */
    double
    mpki() const
    {
        return instructions
                   ? 1000.0 * static_cast<double>(mispredicts) /
                         static_cast<double>(instructions)
                   : 0.0;
    }

    /** Target mispredictions per kilo-instruction. */
    double
    targetMpki() const
    {
        return instructions
                   ? 1000.0 * static_cast<double>(targetMispredicts) /
                         static_cast<double>(instructions)
                   : 0.0;
    }
};

/**
 * The core model, consuming a trace stream.
 *
 * Branch outcomes are read from a PredictorSim that must be registered
 * *before* this sink in the same fanout, so that by the time the core
 * sees a record the predictor has already resolved it. This lets one
 * predictor feed many core configurations in a single trace pass.
 *
 * A FrontendModel may optionally be wired in the same way (registered
 * before this sink); the core then charges its per-record FTQ stall
 * cycles against fetch and flushes on target mispredicts exactly like
 * direction mispredicts, with the two flush causes accounted
 * separately. With no frontend the fetch engine is target-perfect,
 * which preserves the timing of every pre-frontend configuration
 * bit for bit.
 */
class CoreModel : public TraceSink
{
  public:
    CoreModel(const CoreConfig &config, const PredictorSim &bp_outcomes,
              const FrontendModel *frontend = nullptr);

    void onRecord(const TraceRecord &rec) override;

    /** Results so far. */
    const PerfCounters &counters() const { return stats; }

    /** Cache hierarchy (for miss statistics). */
    const CacheHierarchy &caches() const { return hierarchy; }

    const CoreConfig &config() const { return cfg; }

  private:
    /**
     * In-order slot allocator: grants at most `width` slots per cycle
     * to a monotonically nondecreasing sequence of requests.
     */
    class SlotAllocator
    {
      public:
        explicit SlotAllocator(unsigned width_) : width(width_) {}

        /** Earliest cycle >= bound with a free slot; consumes it. */
        uint64_t
        alloc(uint64_t bound)
        {
            if (bound > cycle) {
                cycle = bound;
                used = 1;
            } else if (used < width) {
                ++used;
            } else {
                ++cycle;
                used = 1;
            }
            return cycle;
        }

        /**
         * Close the group at `at`: no further slots are granted in
         * that cycle. Models the front end's one-taken-branch-per-
         * cycle redirect limit.
         */
        void
        closeCycle(uint64_t at)
        {
            if (at >= cycle) {
                cycle = at;
                used = width;
            }
        }

      private:
        unsigned width;
        uint64_t cycle = 0;
        unsigned used = 0;
    };

    /**
     * Out-of-order slot allocator: grants at most `width` slots per
     * cycle, to requests arriving in any cycle order (the scheduler
     * wakes instructions as operands become ready, not in program
     * order). Backed by a ring of per-cycle counters whose floor
     * advances with the (monotonic) fetch stream.
     */
    class IssueWindow
    {
      public:
        explicit IssueWindow(unsigned width_)
            : width(width_), used(kWindow, 0)
        {}

        /** Advance the window floor (cycles below are immutable). */
        void
        advanceFloor(uint64_t cycle)
        {
            if (cycle <= floor)
                return;
            // Slots of cycles dropping below the new floor are
            // recycled for the cycles entering at the top of the
            // window; clear them as they change identity.
            const uint64_t steps =
                std::min<uint64_t>(cycle - floor, kWindow);
            for (uint64_t i = 0; i < steps; ++i)
                used[(floor + i) % kWindow] = 0;
            floor = cycle;
        }

        /** Earliest cycle >= bound with a free slot; consumes it. */
        uint64_t
        alloc(uint64_t bound)
        {
            uint64_t c = std::max(bound, floor);
            // Clamp far-future requests into the window (rare).
            if (c >= floor + kWindow)
                c = floor + kWindow - 1;
            while (used[c % kWindow] >= width &&
                   c + 1 < floor + kWindow) {
                ++c;
            }
            ++used[c % kWindow];
            return c;
        }

      private:
        static constexpr uint64_t kWindow = 1ull << 15;
        unsigned width;
        uint64_t floor = 0;
        std::vector<uint32_t> used;
    };

    /**
     * Per-slot cycles of an in-order window (ROB, scheduler, LQ, SQ),
     * walked by a wrap-around cursor: slot() is the entry the next
     * instruction reuses, so no division sits on the hot path.
     */
    class CycleRing
    {
      public:
        explicit CycleRing(unsigned size) : slots(size, 0)
        {
            BPNSP_ASSERT(size >= 1, "window size must be >= 1");
        }

        uint64_t &slot() { return slots[pos]; }

        void
        advance()
        {
            if (++pos == slots.size())
                pos = 0;
        }

      private:
        std::vector<uint64_t> slots;
        size_t pos = 0;
    };

    CoreConfig cfg;
    const PredictorSim &bp;
    const FrontendModel *fe;   ///< optional; nullptr = perfect fetch
    CacheHierarchy hierarchy;
    PerfCounters stats;

    SlotAllocator fetchSlots;
    IssueWindow issueSlots;
    SlotAllocator retireSlots;

    std::array<unsigned, kMaxInstrClass + 1> classLatency{};  ///< not loads
    uint64_t regReady[kNumRegs] = {};
    CycleRing robRing;     ///< retire cycles, ROB window
    CycleRing schedRing;   ///< issue cycles, scheduler window
    CycleRing lqRing;      ///< load retire cycles
    CycleRing sqRing;      ///< store retire cycles
    uint64_t fetchResume = 0;         ///< front end stalled until here
    uint64_t lastRetire = 0;
    uint64_t lastFetchLine = ~0ull;

    unsigned execLatency(const TraceRecord &rec);
};

} // namespace bpnsp

#endif // BPNSP_PIPELINE_CORE_HPP
