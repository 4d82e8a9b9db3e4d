/**
 * @file
 * paper-study: the Fig. 1/7 measurement path. A fixed list of
 * (workload, input) cells from the SPEC-like, LCF and frontend suites
 * runs on the VM, each cell feeding TAGE-SC-L 8KB and 64KB sims that
 * each drive a 1x core model; frontend-suite cells add the frontend
 * model. The seed picks each workload's input.
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "frontend/frontend.hpp"
#include "obs/trace.hpp"
#include "pipeline/core.hpp"
#include "workloads/suite.hpp"

namespace bpbench {

using namespace bpnsp;

namespace {

struct CellSpec
{
    std::string workload;
    size_t inputIdx = 0;
    std::string key;        ///< "<workload>/<input label>"
    bool frontend = false;  ///< frontend-suite cell
};

constexpr const char *kSuite[] = {
    "mcf_like", "leela_like", "deepsjeng_like", "xz_like",  // SPEC-like
    "gcc_like", "rdbms",                                    // LCF
    "vcall",    "interp_like",                              // frontend
};

// The trace length per workload of the Fig. 1 and Fig. 7 benches
// (their --instructions default at scale 1).
constexpr uint64_t kCellInstructions = 2000000;
constexpr uint64_t kTinyCellInstructions = 20000;
constexpr double kRoundsPerSecond = 0.25;
// Set-ups timed by one set-up sample, which reports their mean.
constexpr unsigned kBuildsPerSample = 20;

std::vector<CellSpec>
pickCells(uint64_t seed)
{
    BenchRng rng(seed);
    std::vector<CellSpec> cells;
    for (const char *name : kSuite) {
        const Workload w = findWorkload(name);
        CellSpec cell;
        cell.workload = name;
        cell.inputIdx = rng.below(w.inputs.size());
        cell.key = cell.workload + "/" + w.inputs[cell.inputIdx].label;
        cell.frontend = cell.workload == "vcall" ||
                        cell.workload == "interp_like";
        cells.push_back(cell);
    }
    return cells;
}

struct CellOutput
{
    std::string answer;
    uint64_t instructions = 0;
    uint64_t branches = 0;   ///< conditional branches, both sims
};

/**
 * One cell: both predictor sims, an optional frontend model and one
 * 1x core model per sim, fed by `deliver` (VM or direct path).
 */
CellOutput
runCell(bool with_frontend,
        const std::function<uint64_t(const std::vector<TraceSink *> &)>
            &deliver)
{
    const auto p8 = makePredictor("tage-sc-l-8KB");
    const auto p64 = makePredictor("tage-sc-l-64KB");
    PredictorSim s8(*p8, false);
    PredictorSim s64(*p64, false);
    std::unique_ptr<FrontendModel> feOn;
    const FrontendModel *feArg = nullptr;
    std::vector<TraceSink *> sinks{&s8, &s64};
    if (with_frontend) {
        feOn = std::make_unique<FrontendModel>(FrontendConfig());
        feArg = feOn.get();
        sinks.push_back(feOn.get());
    }
    CoreModel c8(CoreConfig::skylake(), s8, feArg);
    CoreModel c64(CoreConfig::skylake(), s64, feArg);
    sinks.push_back(&c8);
    sinks.push_back(&c64);

    CellOutput out;
    out.instructions = deliver(sinks);
    out.branches = s8.condExecs() + s64.condExecs();
    std::ostringstream oss;
    oss << "instr=" << out.instructions << " mp8=" << s8.condMispreds()
        << " mp64=" << s64.condMispreds()
        << " cyc8=" << c8.counters().cycles
        << " cyc64=" << c64.counters().cycles
        << " tgt=" << (feArg != nullptr ? feArg->targetMispredicts() : 0);
    out.answer = oss.str();
    return out;
}

} // namespace

bool
runPaperStudy(const Options &opts, RunResult *out)
{
    const uint64_t n = opts.tiny ? kTinyCellInstructions : kCellInstructions;
    const std::vector<CellSpec> cells = pickCells(opts.seed);

    // Reference answers through the direct path: each workload rebuilt
    // and executed by runWorkloadTrace, not from the set-up programs.
    std::string refSource;
    const auto ref = referenceAnswers(
        opts, "paper-study", n,
        [&] {
            std::map<std::string, std::string> answers;
            for (const CellSpec &cell : cells) {
                const Workload w = findWorkload(cell.workload);
                answers[cell.key] =
                    runCell(cell.frontend,
                            [&](const std::vector<TraceSink *> &sinks) {
                                return runWorkloadTrace(w, cell.inputIdx,
                                                        sinks, n);
                            })
                        .answer;
            }
            return answers;
        },
        &refSource);
    if (!opts.goldenOut.empty())
        return runCampaignLedger(opts, out);

    // Set-up: build every cell's program. One set-up takes a few
    // milliseconds, so a sample times a batch of set-ups, rotated over
    // the CPUs. One sample precedes the rounds and one precedes each
    // round, outside its wall, so that the samples meet the host as
    // the rounds do; the last set-up's programs are the ones run.
    std::vector<Program> programs;
    std::vector<double> setups;
    const auto setUp = [&] {
        const auto t0 = Clock::now();
        for (unsigned build = 0; build < kBuildsPerSample; ++build) {
            runOnCpu(build);
            programs.clear();
            for (const CellSpec &cell : cells)
                programs.push_back(
                    findWorkload(cell.workload).build(cell.inputIdx));
        }
        setups.push_back(secondsSince(t0) / kBuildsPerSample);
    };
    setUp();

    const unsigned numRounds = roundCount(opts, kRoundsPerSecond);
    resetPeakRss();
    // One Round per cell run, grouped by cell: a round of eight cells
    // lasts seconds, too coarse to sort contended host stretches from
    // uncontended ones, while runs of one cell do equal work.
    std::vector<Round> cellRuns(numRounds * cells.size());
    uint64_t branches = 0;
    uint64_t traceId = 0;
    // Traced runs alternate untraced and traced phases of equal round
    // counts, so the tracing overhead is measured under the same host
    // drift.
    const unsigned phases = opts.trace ? kTracedPhases : 1;
    std::vector<double> phaseWalls(phases, 0.0);
    for (unsigned r = 0; r < numRounds; ++r) {
        const unsigned phase = r * phases / numRounds;
        setUp();
        enableTracing(opts.trace && phase % 2 == 1);
        const auto roundStart = Clock::now();
        for (size_t i = 0; i < cells.size(); ++i) {
            const CellSpec &cell = cells[i];
            Round &run = cellRuns[r * cells.size() + i];
            // Every round runs its cells on every CPU in turn, and
            // each cell moves on by one CPU per round.
            runOnCpu(static_cast<unsigned>(r + i));
            const auto t0 = Clock::now();
            obs::ScopedTraceId id(++traceId);
            obs::Span span("bench.paper_study.cell");
            const CellOutput res = runCell(
                cell.frontend,
                [&](const std::vector<TraceSink *> &sinks) {
                    return runTrace(programs[i], sinks, n);
                });
            const double ms = secondsSince(t0) * 1e3;
            // Every cell is a direct call with no batch tier behind
            // it, so every cell counts as interactive.
            run.group = i;
            run.wall = ms / 1e3;
            run.opMs.push_back(ms);
            run.interactiveMs.push_back(ms);
            run.instructions = static_cast<double>(res.instructions);
            branches += res.branches;
            ++out->attempted;
            const auto it = ref.find(cell.key);
            if (it == ref.end() || it->second != res.answer)
                out->wrongAnswer(cell.key, res.answer,
                                 it == ref.end() ? "none" : it->second);
        }
        phaseWalls[phase] += secondsSince(roundStart);
    }
    enableTracing(false);
    runOnAnyCpu();
    const double peakRss = peakRssMb();

    std::printf("paper-study: %zu cells x %llu instructions, %u rounds, "
                "reference %s\n",
                cells.size(), static_cast<unsigned long long>(n), numRounds,
                refSource.c_str());
    double instructions = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
        std::vector<double> ms;
        for (const Round &run : cellRuns) {
            if (run.group == i)
                ms.push_back(run.opMs.front());
        }
        std::printf("  cell %-28s median %.3f ms\n", cells[i].key.c_str(),
                    median(ms));
    }
    for (const Round &run : cellRuns)
        instructions += run.instructions;
    addEndToEnd(cellRuns, setups, peakRss, out);

    if (opts.trace) {
        out->add("trace.overhead_pct", tracingOverheadPct(phaseWalls), "%");
        out->add("vm.instructions", instructions, "count");
        out->add("bp.branches", static_cast<double>(branches), "count");
        if (!runCampaignLedger(opts, out))
            return false;
        runLedger(programs.front(), opts.tiny ? 20000 : 200000, opts.workDir,
                  out);
        if (!opts.traceOut.empty() && !exportTrace(opts.traceOut))
            std::printf("warning: cannot write %s\n", opts.traceOut.c_str());
    }
    return true;
}

} // namespace bpbench
