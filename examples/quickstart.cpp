/**
 * @file
 * Quickstart: build a synthetic workload, run several predictors over
 * the same trace in one pass, and print accuracy/MPKI plus the H2P
 * screen — the library's core loop in ~60 lines.
 *
 * Usage: quickstart [--workload=leela_like] [--instructions=2000000]
 */

#include <cstdio>
#include <memory>

#include "analysis/h2p.hpp"
#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/report.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

int
main(int argc, char **argv)
{
    OptionParser opts("Quickstart: predictor accuracy on one workload.");
    opts.addString("workload", "leela_like", "workload name");
    opts.addInt("instructions", 2000000, "trace length");
    opts.parse(argc, argv);
    obs::configureFromOptions(opts);
    faultsim::configureFromOptions(opts);

    const Workload workload = findWorkload(opts.getString("workload"));
    const uint64_t instructions =
        static_cast<uint64_t>(opts.getInt("instructions"));

    // One trace pass feeds every predictor.
    std::vector<std::unique_ptr<BranchPredictor>> predictors;
    std::vector<std::unique_ptr<PredictorSim>> sims;
    std::vector<TraceSink *> sinks;
    for (const char *name :
         {"always-taken", "bimodal", "gshare", "local", "perceptron",
          "ppm", "tage-sc-l-8KB", "tage-sc-l-64KB"}) {
        predictors.push_back(makePredictor(name));
        sims.push_back(
            std::make_unique<PredictorSim>(*predictors.back()));
        sinks.push_back(sims.back().get());
    }
    // The shared workload path: one VM pass feeds every sink.
    runWorkloadTrace(workload, 0, sinks, instructions);

    TextTable table("Prediction accuracy on " + workload.name + " (" +
                    std::to_string(instructions) + " instructions)");
    table.setHeader({"predictor", "storage KB", "accuracy", "MPKI"});
    for (size_t i = 0; i < sims.size(); ++i) {
        table.beginRow();
        table.cell(predictors[i]->name());
        table.cell(predictors[i]->storageKB(), 1);
        table.cell(sims[i]->accuracy(), 4);
        table.cell(sims[i]->mpki(), 2);
    }
    std::printf("%s\n", table.render().c_str());

    // H2P screen under the state-of-the-art baseline.
    const auto &tage_sim = *sims[6];
    const H2pCriteria criteria = H2pCriteria{}.scaledTo(instructions);
    size_t h2p_count = 0;
    uint64_t h2p_mispreds = 0;
    for (const auto &[ip, c] : tage_sim.perBranch()) {
        if (criteria.matches(c)) {
            ++h2p_count;
            h2p_mispreds += c.mispreds;
        }
    }
    std::printf("H2P screen (tage-sc-l-8KB): %zu H2P branches cause "
                "%.1f%% of %llu mispredictions\n",
                h2p_count,
                tage_sim.condMispreds()
                    ? 100.0 * static_cast<double>(h2p_mispreds) /
                          static_cast<double>(tage_sim.condMispreds())
                    : 0.0,
                static_cast<unsigned long long>(
                    tage_sim.condMispreds()));
    return 0;
}
