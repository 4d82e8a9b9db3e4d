/**
 * @file
 * Campaign ledger of traced paper-study runs: runCampaign (default
 * serial mode) over cells that replay a trace cache captured just
 * before. Each sweep is one campaign over one trace and the four
 * table-lookup predictors; the traces are LCF and frontend-suite
 * workloads plus one synth: program fitted from a built-in workload
 * and generated with the benchmark seed. It measures the synth,
 * campaign and sequential-replay layers; their end-to-end workload
 * was dropped because journal fsync stalls made its latency tail
 * follow the host's I/O load.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "campaign/campaign.hpp"
#include "core/runner.hpp"
#include "obs/trace.hpp"
#include "synth/fitter.hpp"
#include "workloads/suite.hpp"

namespace bpbench {

using namespace bpnsp;

namespace {

constexpr const char *kTraces[] = {"gcc_like", "game", "vcall",
                                   "interp_like"};
constexpr const char *kProfileName = "bench_fit";
constexpr const char *kFitSource = "leela_like";

// The defaults of bpnsp_campaign --instructions (per cell) and
// bpnsp_synth --instructions (fit).
constexpr uint64_t kCellInstructions = 200000;
constexpr uint64_t kTinyCellInstructions = 20000;
constexpr uint64_t kFitInstructions = 500000;
constexpr unsigned kRounds = 4;

/** A campaign over one trace and every predictor. */
struct Sweep
{
    std::string workload;
    CampaignConfig config;
};

std::vector<Sweep>
planSweeps(uint64_t seed, uint64_t n, const std::string &journal)
{
    BenchRng rng(seed);
    std::vector<std::string> names(std::begin(kTraces), std::end(kTraces));
    names.push_back("synth:" + std::string(kProfileName) + ":" +
                    std::to_string(seed));
    std::vector<Sweep> sweeps;
    for (const std::string &name : names) {
        const Workload w = findWorkload(name);
        const size_t idx = rng.below(w.inputs.size());
        Sweep sweep;
        sweep.workload = name;
        sweep.config.journalPath = journal;
        for (const char *predictor : kSweepPredictors) {
            CampaignCell cell;
            cell.workload = name;
            cell.input = w.inputs[idx].label;
            cell.inputIdx = idx;
            cell.predictor = predictor;
            cell.instructions = n;
            sweep.config.cells.push_back(cell);
        }
        sweeps.push_back(std::move(sweep));
    }
    return sweeps;
}

/** Direct path: every cell on the VM with no trace cache involved. */
std::string
directResultsDigest(const CampaignConfig &config)
{
    CampaignResult result;
    for (const CampaignCell &cell : config.cells) {
        const Workload w = findWorkload(cell.workload);
        const auto bp = makePredictor(cell.predictor);
        PredictorSim sim(*bp, false);
        CellOutcome outcome;
        outcome.cell = cell;
        outcome.state = CellState::Done;
        outcome.result.instructions =
            runTrace(w.build(cell.inputIdx), {&sim}, cell.instructions);
        outcome.result.predictions = sim.condExecs();
        outcome.result.mispredicts = sim.condMispreds();
        result.outcomes.push_back(outcome);
    }
    return digestHex(renderCampaignResults(config, result));
}

struct SetupTimes
{
    double fitMs = 0.0;
    double generateMs = 0.0;
};

/**
 * Fit the synth profile, generate its program, plan the sweeps and
 * capture every sweep's trace into a fresh cache under `dir`.
 */
bool
setUp(const Options &opts, const std::string &dir, uint64_t n,
      std::vector<Sweep> *sweeps, SetupTimes *times)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir + "/profiles", ec);
    setTraceCacheDir("");

    const uint64_t fitInstructions =
        opts.tiny ? kTinyCellInstructions : kFitInstructions;
    auto t0 = Clock::now();
    const synth::SynthProfile profile = synth::fitWorkloadProfile(
        findWorkload(kFitSource), 0, fitInstructions, kProfileName);
    if (!profile.save(dir + "/profiles/" + kProfileName + ".json").ok())
        return false;
    times->fitMs = secondsSince(t0) * 1e3;
    ::setenv("BPNSP_SYNTH_PROFILES", (dir + "/profiles").c_str(), 1);

    *sweeps = planSweeps(opts.seed, n, opts.workDir + "/journal.log");
    t0 = Clock::now();
    const Program generated = findWorkload(sweeps->back().workload).build(0);
    times->generateMs = secondsSince(t0) * 1e3;
    if (generated.code.empty())
        return false;

    setTraceCacheDir(dir + "/cache");
    for (const Sweep &sweep : *sweeps) {
        const CampaignCell &cell = sweep.config.cells.front();
        if (runWorkloadTrace(findWorkload(cell.workload), cell.inputIdx, {},
                             n) != n)
            return false;
    }
    return true;
}

} // namespace

bool
runCampaignLedger(const Options &opts, RunResult *out)
{
    const uint64_t n = opts.tiny ? kTinyCellInstructions : kCellInstructions;
    SetupTimes setupTimes;
    std::vector<Sweep> sweeps;
    if (!setUp(opts, opts.workDir + "/campaign", n, &sweeps, &setupTimes))
        return false;

    std::string refSource;
    const auto ref = referenceAnswers(
        opts, "campaign", n,
        [&] {
            std::map<std::string, std::string> answers;
            for (const Sweep &sweep : sweeps)
                answers[sweep.workload] = directResultsDigest(sweep.config);
            return answers;
        },
        &refSource);
    if (!opts.goldenOut.empty())
        return true;

    const uint64_t deliveriesBefore =
        counterValue("core.runner.vm_runs") +
        counterValue("core.runner.replay_runs");
    const uint64_t replayedBefore = counterValue("run.instructions");
    std::vector<double> cellMs;
    double overheadMs = 0.0;
    enableTracing(true);
    for (unsigned r = 0; r < kRounds; ++r) {
        for (const Sweep &sweep : sweeps) {
            const auto t0 = Clock::now();
            CampaignResult result;
            {
                obs::Span span("bench.campaign.sweep");
                result = runCampaign(sweep.config);
            }
            double sweepMs = secondsSince(t0) * 1e3;
            for (const CellOutcome &o : result.outcomes) {
                cellMs.push_back(static_cast<double>(o.result.wallMs));
                sweepMs -= static_cast<double>(o.result.wallMs);
            }
            overheadMs += sweepMs;
            // A cell that did not finish shows in the document.
            ++out->attempted;
            const std::string got =
                digestHex(renderCampaignResults(sweep.config, result));
            const auto it = ref.find(sweep.workload);
            if (it == ref.end() || it->second != got)
                out->wrongAnswer(sweep.workload + " results digest", got,
                                 it == ref.end() ? "none" : it->second);
        }
    }
    enableTracing(false);
    setTraceCacheDir("");
    std::printf("campaign: %zu sweeps x %zu predictors x %llu instructions, "
                "%u rounds, reference %s\n",
                sweeps.size(), std::size(kSweepPredictors),
                static_cast<unsigned long long>(n), kRounds,
                refSource.c_str());

    const double cells = static_cast<double>(cellMs.size());
    out->add("tracestore.records_replayed",
             static_cast<double>(counterValue("run.instructions") -
                                 replayedBefore),
             "count");
    out->add("core.deliveries_per_cell",
             static_cast<double>(counterValue("core.runner.vm_runs") +
                                 counterValue("core.runner.replay_runs") -
                                 deliveriesBefore) /
                 cells,
             "count");
    out->add("synth.fit_ms", setupTimes.fitMs, "ms");
    out->add("synth.generate_ms", setupTimes.generateMs, "ms");
    out->add("campaign.cell_ms.p50", quantile(cellMs, 0.5), "ms");
    out->add("campaign.overhead_ms_per_cell", overheadMs / cells, "ms");
    return true;
}

} // namespace bpbench
