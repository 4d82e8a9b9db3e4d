/**
 * @file
 * Trace execution and characterization drivers — the top of the
 * library, tying workloads, predictors, the pipeline model, and the
 * analyses together. One VM execution can feed any number of consumers
 * through a fanout, which is how the bench harnesses evaluate many
 * predictor/pipeline configurations in a single trace pass.
 */

#ifndef BPNSP_CORE_RUNNER_HPP
#define BPNSP_CORE_RUNNER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/branch_stats.hpp"
#include "analysis/h2p.hpp"
#include "analysis/simpoint.hpp"
#include "bp/predictor.hpp"
#include "pipeline/core.hpp"
#include "trace/sink.hpp"
#include "tracestore/cache.hpp"
#include "util/status.hpp"
#include "vm/program.hpp"
#include "workloads/workload.hpp"

namespace bpnsp {

/**
 * Execute a program for a fixed number of instructions, streaming to
 * the given sinks (restart-on-halt is enabled so any budget works).
 * onEnd() is delivered to every sink.
 *
 * Honors cooperative cancellation: the delivery loop polls
 * currentCancelToken() (util/cancel.hpp) every ~256K instructions and
 * stops short when it fires — a campaign interrupt or per-cell
 * deadline never waits for the full budget. An early return smaller
 * than `instructions` signals the cut; consult the token's check()
 * for Cancelled vs DeadlineExceeded.
 *
 * @return instructions executed.
 */
uint64_t runTrace(const Program &program,
                  const std::vector<TraceSink *> &sinks,
                  uint64_t instructions);

/**
 * Record the directory of the served trace corpus. Only the serve
 * tools read it back (bpnsp_client --verify opens the corpus the
 * server publishes into); no batch path consults it.
 */
void setTraceCacheDir(const std::string &dir);

/** The recorded corpus directory ("" when never set). */
std::string traceCacheDir();

/**
 * The canonical workload-execution path: stream one workload input's
 * trace into the sinks by running runTrace(w.build(input_idx), ...),
 * after stamping the workload, input and budget into the run
 * manifest. Cancellation behaves as in runTrace().
 *
 * @return instructions delivered.
 */
uint64_t runWorkloadTrace(const Workload &workload, size_t input_idx,
                          const std::vector<TraceSink *> &sinks,
                          uint64_t instructions);

/**
 * Generate one workload input's trace into `cache` (the serve
 * corpus): take the entry's generation lock, record a
 * runWorkloadTrace() pass into a private staging file, and publish it
 * atomically. `sinks` see the same live stream as the recorder.
 *
 * @return Ok once the entry is published (also when a peer published
 *         it first); Busy when a live peer holds the generation lock;
 *         Cancelled or DeadlineExceeded when the current cancel token
 *         cut the pass short; the recorder's or the publisher's
 *         error (IoError, or Cancelled for an injected crash) when
 *         either failed. Nothing is published unless Ok.
 */
Status captureTrace(const TraceCache &cache, const Workload &workload,
                    size_t input_idx, uint64_t instructions,
                    const std::vector<TraceSink *> &sinks = {});

/** Configuration of a characterization pass (Table I methodology). */
struct CharacterizationConfig
{
    std::string predictor = "tage-sc-l-8KB";
    uint64_t sliceLength = 2000000;   ///< paper: 30M
    uint64_t numSlices = 6;           ///< paper: 333 (10B / 30M)
    bool collectPhases = true;        ///< run SimPoint clustering
};

/** Everything measured about one workload input. */
struct CharacterizationResult
{
    std::string workloadName;
    std::string inputLabel;
    std::unique_ptr<BranchPredictor> predictor;
    std::unique_ptr<SlicedBranchStats> stats;
    H2pCriteria criteria;         ///< scaled to the slice length
    H2pSummary h2p;
    SimpointResult phases;
    uint64_t staticBranchesInProgram = 0;

    /** Median per-slice distinct static branch count. */
    uint64_t medianStaticPerSlice() const;
};

/** Run the full characterization of one workload input. */
CharacterizationResult characterize(const Workload &workload,
                                    size_t input_idx,
                                    const CharacterizationConfig &config);

/** One predictor column of an IPC study (Figs. 1, 5, 7, 8). */
struct IpcColumn
{
    std::string name;                ///< predictor name
    std::vector<PerfCounters> perScale;
    double accuracy = 0.0;           ///< trace-wide accuracy
};

/** Result grid of an IPC study. */
struct IpcStudyResult
{
    std::vector<unsigned> scales;
    std::vector<IpcColumn> columns;

    /** IPC of (predictor index, scale index). */
    double
    ipc(size_t col, size_t scale_idx) const
    {
        return columns.at(col).perScale.at(scale_idx).ipc();
    }
};

/**
 * Run every (predictor, pipeline-scale) combination over one trace in
 * a single pass. Takes ownership of the predictors.
 */
IpcStudyResult runIpcStudy(
    const Program &program,
    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> predictors,
    const std::vector<unsigned> &scales, uint64_t instructions);

/** The same study over a workload input (runWorkloadTrace). */
IpcStudyResult runIpcStudy(
    const Workload &workload, size_t input_idx,
    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> predictors,
    const std::vector<unsigned> &scales, uint64_t instructions);

} // namespace bpnsp

#endif // BPNSP_CORE_RUNNER_HPP
