/**
 * @file
 * Shared scaffolding for the bench harnesses. Each bench binary
 * regenerates one table or figure of the paper; this header provides
 * the common pieces: scale handling (BPNSP_SCALE / --scale multiply
 * the default trace sizes toward the paper's full methodology), H2P
 * screening passes, and the Fig. 1/5 four-curve IPC study.
 */

#ifndef BPNSP_BENCH_COMMON_HPP
#define BPNSP_BENCH_COMMON_HPP

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/h2p.hpp"
#include "bp/factory.hpp"
#include "bp/oracle.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace bpnsp::bench {

/**
 * Standard bench option set; returns the parsed scale factor. Also
 * activates the standard telemetry options (--metrics-out writes a
 * JSON run report on exit, --progress prints an instr/sec heartbeat)
 * and fault injection (--faults), and stamps the effective scale into
 * the run manifest.
 */
inline double
parseScale(OptionParser &opts, int argc, char **argv)
{
    opts.addDouble("scale", 1.0,
                   "multiply trace/slice sizes (also BPNSP_SCALE)");
    opts.addFlag("csv", "emit CSV instead of tables");
    opts.parse(argc, argv);
    obs::configureFromOptions(opts);
    faultsim::configureFromOptions(opts);
    const double scale = opts.getDouble("scale") * experimentScale();
    obs::Registry::instance().setRunField("scale",
                                          std::to_string(scale));
    return scale;
}

/** Print a table in the format selected by --csv. */
inline void
emit(const TextTable &table, bool csv)
{
    std::printf("%s\n",
                csv ? table.renderCsv().c_str() : table.render().c_str());
}

/** Banner naming the experiment and its paper counterpart. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::printf("=== %s ===\n(reproduces %s of Lin & Tarsa, IISWC "
                "2019)\n\n",
                what.c_str(), paper_ref.c_str());
}

/**
 * Screen the H2P set of one workload input: run the baseline over the
 * trace, slice it, and take the union of per-slice H2P sets — the
 * paper's screening methodology.
 */
inline std::unordered_set<uint64_t>
screenH2pSet(const Workload &workload, size_t input_idx,
             uint64_t slice_len, uint64_t num_slices,
             const std::string &baseline = "tage-sc-l-8KB")
{
    auto bp = makePredictor(baseline);
    SlicedBranchStats stats(*bp, slice_len);
    runWorkloadTrace(workload, input_idx, {&stats},
                     slice_len * num_slices);
    const H2pCriteria criteria = H2pCriteria{}.scaledTo(slice_len);
    return summarizeH2ps(stats, criteria).allH2ps;
}

/**
 * The Fig. 1 / Fig. 5 study for one workload input: four predictor
 * columns (TAGE-SC-L 8KB, TAGE-SC-L 64KB, Perfect H2Ps, Perfect BP)
 * across pipeline scales, all in two trace passes (screen + measure).
 */
inline IpcStudyResult
fourCurveStudy(const Workload &workload, size_t input_idx,
               uint64_t instructions,
               const std::vector<unsigned> &scales)
{
    const uint64_t slice = instructions / 4;
    const auto h2ps = screenH2pSet(workload, input_idx, slice, 4);

    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> preds;
    preds.emplace_back("tage-sc-l-8KB", makePredictor("tage-sc-l-8KB"));
    preds.emplace_back("tage-sc-l-64KB",
                       makePredictor("tage-sc-l-64KB"));
    preds.emplace_back("perfect-h2p",
                       std::make_unique<PerfectOnSetPredictor>(
                           makePredictor("tage-sc-l-8KB"), h2ps,
                           "h2p"));
    preds.emplace_back("perfect", makePredictor("perfect"));
    return runIpcStudy(workload, input_idx, std::move(preds), scales,
                       instructions);
}

/** Geomean of per-workload relative IPC, one row per scale. */
inline TextTable
relativeIpcTable(const std::string &title,
                 const std::vector<IpcStudyResult> &per_workload,
                 const std::vector<unsigned> &scales)
{
    TextTable table(title);
    table.setHeader({"pipeline scale", "tage-sc-l-8KB",
                     "tage-sc-l-64KB", "perfect-h2p", "perfect"});
    for (size_t s = 0; s < scales.size(); ++s) {
        table.beginRow();
        table.cell(std::to_string(scales[s]) + "x");
        for (size_t col = 0; col < 4; ++col) {
            std::vector<double> rel;
            for (const auto &study : per_workload) {
                // Relative to the TAGE-SC-L 8KB 1x baseline.
                rel.push_back(study.ipc(col, s) / study.ipc(0, 0));
            }
            table.cell(geomean(rel), 3);
        }
    }
    return table;
}

} // namespace bpnsp::bench

#endif // BPNSP_BENCH_COMMON_HPP
