/**
 * @file
 * bpnsp_synth: fit branch-behavior profiles from traces and generate
 * seeded micro-ISA program populations from them.
 *
 * Modes (--mode):
 *   fit        Run a workload input's trace and write a
 *              bpnsp-synth-profile-v1 JSON document.
 *   generate   Resolve a profile and print the workload name(s) and
 *              program digest(s) for --seed, or for the population
 *              --seed-base .. --seed-base + --count - 1. The printed
 *              names are exactly what bpnsp_campaign --workloads,
 *              bpnsp_served clients, and the benches accept.
 *   validate   Regenerate the program twice and assert bit-identity,
 *              then execute it, refit a profile from the synthesized
 *              trace, and check the fitted-vs-source taken-rate
 *              distribution distance against --max-taken-tvd.
 *
 * Quickstart:
 *   bpnsp_synth --mode=fit --workload=mcf_like --input=0 \
 *       --instructions=500000 --out=/tmp/mcf.json
 *   bpnsp_synth --mode=generate --profile=/tmp/mcf.json \
 *       --seed-base=1 --count=8
 *   bpnsp_synth --mode=validate --profile=/tmp/mcf.json --seed=1 \
 *       --instructions=500000
 *
 * Exit status: 0 on success, 1 on a validation failure.
 */

#include <cstdio>

#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "synth/fitter.hpp"
#include "synth/generator.hpp"
#include "synth/workload.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

namespace {

int
runFit(const OptionParser &opts)
{
    const std::string name = opts.getString("workload");
    const Workload workload = findWorkload(name);
    const size_t input = static_cast<size_t>(opts.getInt("input"));
    if (input >= workload.inputs.size())
        fatal("--input ", input, " out of range for ", name, " (",
              workload.inputs.size(), " inputs)");
    std::string profileName = opts.getString("profile-name");
    if (profileName.empty())
        profileName = name + "-" + workload.inputs[input].label;

    const synth::SynthProfile profile = synth::fitWorkloadProfile(
        workload, input,
        static_cast<uint64_t>(opts.getInt("instructions")),
        profileName);

    const std::string out = opts.getString("out");
    if (out.empty()) {
        std::fputs(profile.render().c_str(), stdout);
    } else {
        if (Status st = profile.save(out); !st.ok())
            fatal("cannot write profile: ", st.str());
        inform("synth: profile '", profileName, "' (",
               profile.staticCondBranches, " static branches, digest ",
               profile.digest(), ") written to ", out);
    }
    return 0;
}

int
runGenerate(const OptionParser &opts)
{
    const std::string ref = opts.getString("profile");
    synth::SynthProfile profile;
    if (Status st = synth::resolveProfileRef(ref, &profile); !st.ok())
        fatal(st.str());

    std::vector<uint64_t> seeds;
    if (const int64_t count = opts.getInt("count"); count > 1) {
        const uint64_t base =
            static_cast<uint64_t>(opts.getInt("seed-base"));
        for (int64_t i = 0; i < count; ++i)
            seeds.push_back(base + static_cast<uint64_t>(i));
    } else {
        seeds.push_back(static_cast<uint64_t>(opts.getInt("seed")));
    }

    for (const uint64_t seed : seeds) {
        const std::string name =
            "synth:" + ref + ":" + std::to_string(seed);
        const Program program =
            synth::generateProgram(profile, seed, name);
        std::printf("%s digest=%s instrs=%llu cond_branches=%llu\n",
                    name.c_str(),
                    synth::programDigest(program).c_str(),
                    static_cast<unsigned long long>(program.size()),
                    static_cast<unsigned long long>(
                        program.staticCondBranches()));
        if (const std::string &listing = opts.getString("listing-out");
            !listing.empty() && seeds.size() == 1) {
            std::FILE *f = std::fopen(listing.c_str(), "w");
            if (f == nullptr)
                fatal("cannot open ", listing);
            const std::string text =
                synth::renderProgramListing(program);
            std::fwrite(text.data(), 1, text.size(), f);
            std::fclose(f);
        }
    }
    return 0;
}

int
runValidate(const OptionParser &opts)
{
    static obs::Counter &failures =
        obs::counter("synth.validate_failures");

    const std::string ref = opts.getString("profile");
    const uint64_t seed = static_cast<uint64_t>(opts.getInt("seed"));
    const std::string name =
        "synth:" + ref + ":" + std::to_string(seed);

    synth::SynthProfile profile;
    if (Status st = synth::resolveProfileRef(ref, &profile); !st.ok())
        fatal(st.str());

    // Bit-identity: two independent generations must agree byte for
    // byte (instructions and initial data image).
    const Program first = synth::generateProgram(profile, seed, name);
    const Program second = synth::generateProgram(profile, seed, name);
    const std::string digest = synth::programDigest(first);
    if (synth::renderProgramListing(first) !=
        synth::renderProgramListing(second)) {
        failures.inc();
        std::printf("FAIL %s: regeneration is not bit-identical "
                    "(%s vs %s)\n",
                    name.c_str(), digest.c_str(),
                    synth::programDigest(second).c_str());
        return 1;
    }

    // Fidelity: refit the synthesized trace and compare distributions.
    Workload workload;
    if (Status st = synth::makeSynthWorkload(name, &workload); !st.ok())
        fatal(st.str());
    synth::ProfileFitter fitter;
    const uint64_t instructions =
        static_cast<uint64_t>(opts.getInt("instructions"));
    runWorkloadTrace(workload, 0, {&fitter}, instructions);
    const synth::SynthProfile refit = fitter.profile(name);

    if (opts.getFlag("dump-branches")) {
        for (const auto &b : fitter.branchSummaries())
            std::printf("branch ip=%llu execs=%llu taken_rate=%.4f "
                        "entropy=%.4f\n",
                        static_cast<unsigned long long>(b.ip),
                        static_cast<unsigned long long>(b.execs),
                        b.execs > 0 ? static_cast<double>(b.taken) /
                                          static_cast<double>(b.execs)
                                    : 0.0,
                        b.entropy);
    }

    const double takenTvd =
        synth::distSpecDistance(profile.takenRate, refit.takenRate);
    const double entropyTvd = synth::distSpecDistance(
        profile.historyEntropy, refit.historyEntropy);
    const double maxTvd = opts.getDouble("max-taken-tvd");
    const bool ok = takenTvd <= maxTvd;
    std::printf("%s %s digest=%s taken_tvd=%.4f entropy_tvd=%.4f "
                "static_branches=%llu/%llu\n",
                ok ? "OK" : "FAIL", name.c_str(), digest.c_str(),
                takenTvd, entropyTvd,
                static_cast<unsigned long long>(
                    refit.staticCondBranches),
                static_cast<unsigned long long>(
                    profile.staticCondBranches));
    if (!ok)
        failures.inc();
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts(
        "Fit branch-behavior profiles and generate seeded synthetic "
        "workloads.");
    opts.addString("mode", "fit", "fit | generate | validate");
    opts.addString("workload", "mcf_like",
                   "source workload name (fit)");
    opts.addInt("input", 0, "source workload input index (fit)");
    opts.addInt("instructions", 500000,
                "instructions to trace (fit / validate)");
    opts.addString("profile-name", "",
                   "profile identifier (fit; default "
                   "<workload>-<input-label>)");
    opts.addString("out", "",
                   "profile output path (fit; stdout when empty)");
    opts.addString("profile", "",
                   "profile reference (generate / validate): a JSON "
                   "path, or a name under BPNSP_SYNTH_PROFILES");
    opts.addInt("seed", 1, "generation seed (generate / validate)");
    opts.addInt("seed-base", 1, "first seed of a population (generate)");
    opts.addInt("count", 1, "population size (generate)");
    opts.addString("listing-out", "",
                   "write the program listing here (generate, single "
                   "seed)");
    opts.addFlag("dump-branches",
                 "print per-branch rates/entropies of the synthesized "
                 "trace (validate)");
    opts.addDouble("max-taken-tvd", 0.35,
                   "validation tolerance on the taken-rate "
                   "distribution distance (validate)");
    opts.parse(argc, argv);
    obs::configureFromOptions(opts);
    faultsim::configureFromOptions(opts);

    const std::string &mode = opts.getString("mode");
    if (mode == "fit")
        return runFit(opts);
    if (mode == "generate")
        return runGenerate(opts);
    if (mode == "validate")
        return runValidate(opts);
    fatal("unknown --mode '", mode, "' (want fit|generate|validate)");
}
