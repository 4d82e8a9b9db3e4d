/**
 * @file
 * Profile fitting: stream any retired-instruction trace (VM-captured
 * or trace-store replay — both arrive through the same TraceSink
 * interface) and distill it into a SynthProfile.
 *
 * The fitter keeps O(static branches) state, not O(trace): per static
 * conditional branch it tracks executions, taken outcomes, and a
 * 16x2 outcome table conditioned on the branch's own last four
 * outcomes, from which it computes the conditional history entropy
 * H(outcome | last-4) in [0,1] — the axis that separates
 * data-dependent H2Ps (entropy near 1) from patterned or biased
 * branches (entropy near 0). Recurrence intervals ride on the
 * existing analysis/recurrence reservoir collector, and the Fig. 3
 * execution-count histogram comes from analysis/distributions, so
 * the profile is consistent with the characterization figures the
 * repo already produces.
 */

#ifndef BPNSP_SYNTH_FITTER_HPP
#define BPNSP_SYNTH_FITTER_HPP

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/recurrence.hpp"
#include "synth/profile.hpp"
#include "trace/sink.hpp"
#include "workloads/workload.hpp"

namespace bpnsp::synth {

/** Streams a trace and fits a SynthProfile over it. */
class ProfileFitter : public TraceSink
{
  public:
    ProfileFitter();

    void onRecord(const TraceRecord &rec) override;
    void onEnd() override;

    /**
     * The fitted profile; call after the stream ended. `name` becomes
     * the profile identifier (used in generated program names).
     */
    SynthProfile profile(const std::string &name) const;

    /** Instructions observed so far. */
    uint64_t instructions() const { return instrCount; }

    /** Distinct static conditional branches observed so far. */
    size_t staticBranches() const { return perBranch.size(); }

    /** Per-branch measurement (diagnostics / validation dumps). */
    struct BranchSummary
    {
        uint64_t ip = 0;
        uint64_t execs = 0;
        uint64_t taken = 0;
        double entropy = 0.0;
    };

    /** All observed static branches, sorted by ip. */
    std::vector<BranchSummary> branchSummaries() const;

  private:
    struct BranchState
    {
        uint64_t execs = 0;
        uint64_t taken = 0;
        uint8_t history = 0;        ///< last 4 outcomes, bit0 = newest
        uint32_t ctx[16][2] = {};   ///< [history][outcome] counts
    };

    uint64_t instrCount = 0;
    uint64_t condExecs = 0;
    uint64_t condTaken = 0;
    uint64_t callCount = 0;
    uint64_t classCounts[10] = {};
    std::unordered_map<uint64_t, BranchState> perBranch;
    std::unordered_set<uint64_t> callTargets;
    RecurrenceCollector recurrence;
};

/**
 * Conditional history entropy H(outcome | last-4 outcomes) of one
 * branch's context table, normalized to [0,1]. Exposed for tests.
 */
double conditionalEntropy(const uint32_t ctx[16][2]);

/**
 * Fit one workload input end to end: stream `instructions` of its
 * VM-executed trace into a fitter and return the profile. Bumps synth.profiles_fitted /
 * synth.branches_fitted.
 */
SynthProfile fitWorkloadProfile(const Workload &workload,
                                size_t input_idx, uint64_t instructions,
                                const std::string &profile_name);

} // namespace bpnsp::synth

#endif // BPNSP_SYNTH_FITTER_HPP
