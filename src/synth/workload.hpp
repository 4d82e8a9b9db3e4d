/**
 * @file
 * Synthesized programs as first-class workloads.
 *
 * Name grammar (accepted everywhere a workload name is —
 * campaigns, the serving daemon, benches, bpnsp_synth itself):
 *
 *   synth:<profile-ref>:<seed>          one generated workload
 *   synth:<profile-ref>:<base>+<count>  a population: seeds
 *                                       base, base+1, ..., base+count-1
 *
 * <profile-ref> is a profile JSON path when it contains '/' or ends
 * in ".json"; otherwise it names a profile in the directory given by
 * BPNSP_SYNTH_PROFILES (resolved as <dir>/<ref>.json). The seed is
 * decimal. Since a generated program is a pure function of
 * (profile document, seed), a synth name identifies one exact trace,
 * which is what makes it safe as a serve-corpus key and as a
 * campaign-cell coordinate.
 */

#ifndef BPNSP_SYNTH_WORKLOAD_HPP
#define BPNSP_SYNTH_WORKLOAD_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "synth/profile.hpp"
#include "util/status.hpp"
#include "workloads/workload.hpp"

namespace bpnsp::synth {

/** True when `name` uses the synth: prefix (not necessarily valid). */
bool isSynthName(const std::string &name);

/** Parsed form of a single (non-population) synth workload name. */
struct SynthName
{
    std::string profileRef;
    uint64_t seed = 0;
};

/**
 * Parse `synth:<profile-ref>:<seed>`; InvalidArgument (never fatal)
 * on grammar violations — the serving daemon feeds client-controlled
 * names through this.
 */
Status parseSynthName(const std::string &name, SynthName *out);

/**
 * Resolve a profile reference to a loaded profile. `path_out`
 * (optional) receives the file path consulted.
 */
Status resolveProfileRef(const std::string &ref, SynthProfile *out,
                         std::string *path_out = nullptr);

/**
 * Build the Workload for one synth name: a single input whose seed is
 * the name's seed and whose builder regenerates the program from the
 * (loaded) profile. Never fatal; the error names the defect.
 */
Status makeSynthWorkload(const std::string &name, Workload *out);

/**
 * Expand a workload-name spec that may be a synth population
 * (`synth:ref:base+count`) into concrete workload names. Non-synth
 * and single-seed synth names pass through as one element.
 * InvalidArgument on a malformed population suffix.
 */
Status expandPopulation(const std::string &spec,
                        std::vector<std::string> *names);

} // namespace bpnsp::synth

#endif // BPNSP_SYNTH_WORKLOAD_HPP
