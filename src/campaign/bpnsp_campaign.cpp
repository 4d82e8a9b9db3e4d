/**
 * @file
 * bpnsp_campaign: run a declarative experiment campaign — a sweep of
 * (workload, input, predictor[, frontend]) cells over a fixed
 * instruction budget —
 * under full supervision: journaled checkpoints, per-cell deadlines, a
 * campaign wall budget, bounded retries, and graceful SIGINT/SIGTERM
 * drain. Kill it at any point and re-run with --resume: completed
 * cells are skipped and the final results file is byte-identical to an
 * uninterrupted run.
 *
 * Quickstart:
 *   bpnsp_campaign --workloads=mcf_like,xz_like --predictors=gshare \
 *       --instructions=200000 --journal=/tmp/camp.journal \
 *       --out=/tmp/camp.json
 *   # Ctrl-C it, then:
 *   bpnsp_campaign ... --resume
 *
 * Exit status: 0 all cells done, 1 some cells failed/poisoned,
 * 130 interrupted (re-run with --resume to continue).
 */

#include <cstdio>

#include "campaign/campaign.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"
#include "util/signals.hpp"

using namespace bpnsp;

int
main(int argc, char **argv)
{
    OptionParser opts(
        "Run a resumable, supervised experiment campaign.");
    opts.addString("workloads", "mcf_like",
                   "comma-separated workload names, or 'all'");
    opts.addInt("inputs", 1, "inputs per workload (first N)");
    opts.addString("predictors", "gshare",
                   "comma-separated predictor names");
    opts.addString("frontends", "",
                   "comma-separated frontend specs, ':' joins fields "
                   "within one spec (e.g. 'off,default,btb=64x2:ras=4'); "
                   "empty keeps the frontend axis out of the sweep");
    opts.addInt("instructions", 200000, "instruction budget per cell");
    opts.addString("journal", "bpnsp_campaign.journal",
                   "checkpoint journal path");
    opts.addFlag("resume",
                 "resume from the journal: skip completed cells, "
                 "re-run the rest");
    opts.addString("out", "", "deterministic results JSON path");
    opts.addInt("deadline-ms", 0, "per-cell deadline (0 = none)");
    opts.addInt("budget-wall-ms", 0,
                "campaign-wide wall budget (0 = none)");
    opts.addInt("retries", 2,
                "retries per cell for transient failures");
    opts.addInt("backoff-ms", 100,
                "base retry backoff, doubled per retry");
    opts.parse(argc, argv);
    obs::configureFromOptions(opts);
    faultsim::configureFromOptions(opts);

    // The campaign owns its drain: the first SIGINT/SIGTERM only fires
    // the cancel token; the supervisor journals the interruption,
    // writes the results + report, and exits 130. A second signal
    // force-exits. (Shared discipline: util/signals.hpp.)
    signals::installGracefulDrain();

    CampaignConfig config;
    config.cells = buildCells(
        opts.getString("workloads"),
        static_cast<unsigned>(opts.getInt("inputs")),
        opts.getString("predictors"),
        static_cast<uint64_t>(opts.getInt("instructions")),
        opts.getString("frontends"));
    config.journalPath = opts.getString("journal");
    config.resume = opts.getFlag("resume");
    config.cellDeadlineMs =
        static_cast<uint64_t>(opts.getInt("deadline-ms"));
    config.wallBudgetMs =
        static_cast<uint64_t>(opts.getInt("budget-wall-ms"));
    config.maxRetries = static_cast<int>(opts.getInt("retries"));
    config.backoffMs =
        static_cast<uint64_t>(opts.getInt("backoff-ms"));

    obs::Registry::instance().setRunField("campaign_spec",
                                          campaignSpecDigest(config));
    inform("campaign: ", config.cells.size(), " cell(s), journal ",
           config.journalPath, config.resume ? " (resume)" : "");

    const CampaignResult result = runCampaign(config);
    if (!result.status.ok())
        fatal("campaign supervisor failed: ", result.status.str());

    if (const std::string &out = opts.getString("out"); !out.empty()) {
        if (Status st = writeCampaignResults(config, result, out);
            !st.ok())
            warn("cannot write campaign results: ", st.str());
        else
            inform("campaign: results written to ", out);
    }

    std::printf(
        "campaign: %zu cell(s): %llu done, %llu failed, %llu skipped "
        "(journal), %llu retry attempt(s)%s\n",
        result.outcomes.size(),
        static_cast<unsigned long long>(result.done),
        static_cast<unsigned long long>(result.failed),
        static_cast<unsigned long long>(result.skipped),
        static_cast<unsigned long long>(result.retried),
        result.interrupted ? " -- INTERRUPTED, re-run with --resume"
                           : "");

    if (result.interrupted)
        return 130;
    return result.failed > 0 ? 1 : 0;
}
