#include "pipeline/core.hpp"

#include <algorithm>

namespace bpnsp {

CoreModel::CoreModel(const CoreConfig &config,
                     const PredictorSim &bp_outcomes,
                     const FrontendModel *frontend)
    : cfg(config), bp(bp_outcomes), fe(frontend),
      fetchSlots(config.fetchWidth),
      issueSlots(config.issueWidth), retireSlots(config.retireWidth),
      robRing(config.robSize), schedRing(config.schedSize),
      lqRing(config.lqSize), sqRing(config.sqSize)
{
    classLatency.fill(cfg.aluLatency);
    classLatency[static_cast<uint8_t>(InstrClass::Mul)] = cfg.mulLatency;
    classLatency[static_cast<uint8_t>(InstrClass::Div)] = cfg.divLatency;
    classLatency[static_cast<uint8_t>(InstrClass::Store)] =
        cfg.storeLatency;
}

unsigned
CoreModel::execLatency(const TraceRecord &rec)
{
    // Loads probe the D-cache; every other class has a fixed latency.
    if (rec.cls == InstrClass::Load)
        return hierarchy.l1d.access(rec.memAddr);
    return classLatency[static_cast<uint8_t>(rec.cls)];
}

void
CoreModel::onRecord(const TraceRecord &rec)
{
    // ---- Front end ----
    // The fetch of this instruction cannot begin before the front end
    // recovered from the last misprediction, and cannot dispatch while
    // the ROB slot it needs is still occupied.
    uint64_t fetch_bound = std::max(fetchResume, robRing.slot());

    // I-cache: pay the miss latency when crossing into a new line that
    // misses; sequential fetches within a line are free.
    const uint64_t line = rec.ip >> 6;
    unsigned icache_extra = 0;
    if (line != lastFetchLine) {
        const unsigned lat = hierarchy.l1i.access(rec.ip);
        icache_extra = lat;   // L1I hit latency is folded into depth
        lastFetchLine = line;
    }
    // Frontend stalls (BTB-miss bubbles the FTQ could not absorb)
    // delay fetch just like an I-cache miss does.
    unsigned frontend_extra = 0;
    if (fe != nullptr) {
        frontend_extra = static_cast<unsigned>(fe->lastStallCycles());
        stats.ftqStallCycles += frontend_extra;
    }
    const uint64_t fetch_cycle =
        fetchSlots.alloc(fetch_bound) + icache_extra + frontend_extra;

    // ---- Dispatch / schedule ----
    const uint64_t dispatch_ready = fetch_cycle + cfg.frontendDepth;
    uint64_t issue_bound =
        std::max(dispatch_ready, schedRing.slot());

    // Load/store queue occupancy.
    if (rec.cls == InstrClass::Load) {
        issue_bound = std::max(issue_bound, lqRing.slot());
    } else if (rec.cls == InstrClass::Store) {
        issue_bound = std::max(issue_bound, sqRing.slot());
    }

    // Register dependencies.
    for (unsigned s = 0; s < rec.numSrc; ++s)
        issue_bound = std::max(issue_bound, regReady[rec.src[s]]);

    // Issue is out of order: the window floor rides the in-order
    // fetch stream (nothing can issue before it was fetched).
    issueSlots.advanceFloor(fetch_cycle);
    const uint64_t issue_cycle = issueSlots.alloc(issue_bound);
    schedRing.slot() = issue_cycle;
    schedRing.advance();

    // ---- Execute ----
    const uint64_t complete_cycle = issue_cycle + execLatency(rec);
    if (rec.hasDst)
        regReady[rec.dst] = complete_cycle;

    // ---- Retire (in order) ----
    const uint64_t retire_cycle =
        retireSlots.alloc(std::max(complete_cycle, lastRetire));
    lastRetire = retire_cycle;
    robRing.slot() = retire_cycle;
    robRing.advance();
    if (rec.cls == InstrClass::Load) {
        lqRing.slot() = retire_cycle;
        lqRing.advance();
    } else if (rec.cls == InstrClass::Store) {
        sqRing.slot() = retire_cycle;
        sqRing.advance();
    }

    // ---- Branch handling ----
    // Any taken control transfer ends the fetch group: the front end
    // redirects at most once per cycle, which is what ultimately
    // bounds IPC on branchy code even under perfect prediction.
    if (isControl(rec.cls) && rec.taken)
        fetchSlots.closeCycle(fetch_cycle);

    if (rec.isCondBranch()) {
        ++stats.condBranches;
        if (bp.lastMispredicted()) {
            ++stats.mispredicts;
            stats.directionFlushCycles += cfg.redirectPenalty;
            // Wrong-path fetch is squashed when the branch resolves;
            // the front end restarts after the redirect penalty.
            fetchResume = std::max(
                fetchResume, complete_cycle + cfg.redirectPenalty);
            lastFetchLine = ~0ull;   // refetch pays the I-cache again
        }
    } else if (fe != nullptr && fe->lastTargetMispredict()) {
        // A wrong RAS/ITTAGE target is discovered at execute just like
        // a wrong direction, and flushes through the same mechanism —
        // only the attribution differs.
        ++stats.targetMispredicts;
        stats.targetFlushCycles += cfg.redirectPenalty;
        fetchResume = std::max(fetchResume,
                               complete_cycle + cfg.redirectPenalty);
        lastFetchLine = ~0ull;
    }

    ++stats.instructions;
    stats.cycles = std::max(stats.cycles, retire_cycle);
}

} // namespace bpnsp
