#include "core/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>

#include "bp/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "tracestore/store.hpp"
#include "util/cancel.hpp"
#include "util/logging.hpp"
#include "vm/interpreter.hpp"

namespace bpnsp {

namespace {

/**
 * Heartbeat sink: appended to the delivery fan-out only when
 * --progress is active, so disabled runs pay nothing. Reports
 * instructions delivered and the delivery rate through inform(), which
 * BPNSP_LOG_LEVEL=warn silences.
 */
class ProgressSink : public TraceSink
{
  public:
    ProgressSink()
        : interval(obs::progressInterval()), next(interval),
          begin(std::chrono::steady_clock::now())
    {
    }

    void
    onRecord(const TraceRecord &) override
    {
        if (++seen >= next) {
            report();
            next += interval;
        }
    }

  private:
    void
    report() const
    {
        const double sec =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - begin)
                .count();
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "progress (vm): %.0fM instr, %.1fM instr/s",
                      static_cast<double>(seen) / 1e6,
                      sec > 0.0
                          ? static_cast<double>(seen) / 1e6 / sec
                          : 0.0);
        inform(buf);
    }

    const uint64_t interval;
    uint64_t next;
    uint64_t seen = 0;
    const std::chrono::steady_clock::time_point begin;
};

/**
 * Pulse sink: invokes a callback every `interval` records.
 * captureTrace() uses one to refresh the generation lock's mtime
 * heartbeat, so a progressing recorder is distinguishable from a
 * wedged one (see TraceCacheLock::ttlMs()).
 */
class PulseSink : public TraceSink
{
  public:
    PulseSink(uint64_t interval, std::function<void()> fn)
        : period(interval), remaining(interval), pulse(std::move(fn))
    {
    }

    void
    onRecord(const TraceRecord &) override
    {
        if (--remaining == 0) {
            remaining = period;
            pulse();
        }
    }

  private:
    const uint64_t period;
    uint64_t remaining;
    const std::function<void()> pulse;
};

/** Records between generation-lock heartbeats (~a second of VM). */
constexpr uint64_t kLockPulseInterval = 1u << 21;

} // namespace

/**
 * Instructions delivered between cancellation polls of the VM path.
 * ~256K instructions is single-digit milliseconds of VM execution, so
 * deadlines and interrupts land promptly while the poll itself (one
 * relaxed atomic load, plus a clock read when a deadline is armed)
 * stays invisible in profiles.
 */
constexpr uint64_t kCancelCheckInterval = 1u << 18;

uint64_t
runTrace(const Program &program, const std::vector<TraceSink *> &sinks,
         uint64_t instructions)
{
    static obs::Counter &vmRuns = obs::counter("core.runner.vm_runs");
    static obs::Counter &delivered = obs::counter("run.instructions");
    static obs::Counter &cancelledRuns =
        obs::counter("core.runner.cancelled");
    static obs::Histogram &executeNs = obs::histogram("vm.execute_ns");
    obs::ScopedTimer timer(executeNs);
    obs::Span span("vm.execute");

    FanoutSink fanout;
    ProgressSink progress;
    if (obs::progressInterval() > 0)
        fanout.add(&progress);
    for (TraceSink *sink : sinks)
        fanout.add(sink);
    Interpreter interp(program);
    interp.setRestartOnHalt(true);

    // The delivery loop runs in cancellation-poll slices. A fired
    // token stops the run short — callers detect the early exit via
    // the return value and learn *why* from currentCancelToken();
    // onEnd() is still delivered so sinks flush what they saw.
    CancelToken *cancel = currentCancelToken();
    uint64_t executed = 0;
    while (executed < instructions) {
        if (cancel->cancelled()) {
            cancelledRuns.inc();
            break;
        }
        const uint64_t slice = std::min<uint64_t>(
            kCancelCheckInterval, instructions - executed);
        executed += interp.run(fanout, slice);
    }
    fanout.onEnd();
    vmRuns.inc();
    delivered.add(executed);
    return executed;
}

// --- workload runs and corpus capture --------------------------------

namespace {

std::mutex gCacheDirMutex;
std::string gCacheDir;

} // namespace

void
setTraceCacheDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(gCacheDirMutex);
    gCacheDir = dir;
}

std::string
traceCacheDir()
{
    std::lock_guard<std::mutex> lock(gCacheDirMutex);
    return gCacheDir;
}

uint64_t
runWorkloadTrace(const Workload &workload, size_t input_idx,
                 const std::vector<TraceSink *> &sinks,
                 uint64_t instructions)
{
    obs::Span span("run.workload_trace");

    // Run-manifest identity: the last workload executed describes the
    // run (single-workload binaries, the common case, get exact
    // attribution; sweeps get their final leg).
    obs::Registry &reg = obs::Registry::instance();
    reg.setRunField("workload", workload.name);
    reg.setRunField("input", workload.inputs.at(input_idx).label);
    reg.setRunField("instruction_budget", std::to_string(instructions));

    return runTrace(workload.build(input_idx), sinks, instructions);
}

Status
captureTrace(const TraceCache &cache, const Workload &workload,
             size_t input_idx, uint64_t instructions,
             const std::vector<TraceSink *> &sinks)
{
    const WorkloadInput &input = workload.inputs.at(input_idx);
    const TraceCacheKey key{workload.name, input.label, input.seed,
                            instructions};

    // The generation lock keeps two processes from recording the same
    // key at once; the loser answers Busy instead of waiting on or
    // interleaving with the winner.
    Status st;
    TraceCacheLock lock = TraceCacheLock::acquire(cache, key, &st);
    if (!lock.held())
        return st;
    if (cache.contains(key))
        return Status();   // a peer published it before we got the lock

    // Execute the VM and record into a private staging file, then
    // publish atomically so a crash can never leave a partial entry.
    const std::string staging = cache.stagingPath(key);
    uint64_t executed = 0;
    bool torn = false;
    {
        TraceStoreWriter writer(staging);
        PulseSink heartbeat(kLockPulseInterval,
                            [&lock]() { lock.touch(); });
        std::vector<TraceSink *> all(sinks);
        all.push_back(&writer);
        all.push_back(&heartbeat);
        executed = runWorkloadTrace(workload, input_idx, all,
                                    instructions);
        st = writer.status();
        torn = writer.crashed();
    }
    if (st.ok() && executed != instructions) {
        // runTrace stops short only when the cancel token fired.
        st = currentCancelToken()->check();
        if (st.ok())
            st = Status::cancelled("trace capture stopped short");
    }
    if (st.ok())
        st = cache.publish(staging, key);

    // A simulated crash deliberately leaves its torn staging file
    // behind (the "dead process" debris) so the constructor-time GC
    // path stays exercised; every other failure cleans up.
    if (!st.ok() && !torn) {
        std::error_code ec;
        std::filesystem::remove(staging, ec);
    }
    return st;
}

// --- characterization ------------------------------------------------

uint64_t
CharacterizationResult::medianStaticPerSlice() const
{
    std::vector<uint64_t> counts;
    for (const auto &slice : stats->slices())
        counts.push_back(slice.branches.size());
    std::sort(counts.begin(), counts.end());
    return counts.empty() ? 0 : counts[counts.size() / 2];
}

CharacterizationResult
characterize(const Workload &workload, size_t input_idx,
             const CharacterizationConfig &config)
{
    static obs::Counter &slices =
        obs::counter("core.characterize.slices");
    static obs::Histogram &charNs =
        obs::histogram("core.characterize_ns");
    obs::ScopedTimer timer(charNs);
    slices.add(config.numSlices);
    obs::Registry::instance().setRunField("predictor",
                                          config.predictor);

    CharacterizationResult result;
    result.workloadName = workload.name;
    result.inputLabel = workload.inputs.at(input_idx).label;
    result.predictor = makePredictor(config.predictor);

    result.staticBranchesInProgram =
        workload.build(input_idx).staticCondBranches();
    result.stats = std::make_unique<SlicedBranchStats>(
        *result.predictor, config.sliceLength);

    BbvCollector bbv(config.sliceLength);
    std::vector<TraceSink *> sinks{result.stats.get()};
    if (config.collectPhases)
        sinks.push_back(&bbv);

    runWorkloadTrace(workload, input_idx, sinks,
                     config.sliceLength * config.numSlices);

    result.criteria = H2pCriteria{}.scaledTo(config.sliceLength);
    result.h2p = summarizeH2ps(*result.stats, result.criteria);
    if (config.collectPhases)
        result.phases = clusterPhases(bbv.vectors());
    return result;
}

// --- IPC studies -----------------------------------------------------

namespace {

/**
 * The single-pass many-consumer study over any trace source: builds
 * one PredictorSim per predictor and one CoreModel per (predictor,
 * scale), runs the trace once, and collects the grid.
 */
template <typename RunTraceFn>
IpcStudyResult
runIpcStudyOver(
    RunTraceFn &&run_trace,
    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> predictors,
    const std::vector<unsigned> &scales)
{
    BPNSP_ASSERT(!predictors.empty() && !scales.empty());

    IpcStudyResult result;
    result.scales = scales;

    std::vector<std::unique_ptr<PredictorSim>> sims;
    std::vector<std::vector<std::unique_ptr<CoreModel>>> cores;
    std::vector<TraceSink *> sinks;
    const CoreConfig base = CoreConfig::skylake();
    for (auto &[name, bp] : predictors) {
        sims.push_back(std::make_unique<PredictorSim>(
            *bp, /*collect_per_branch=*/false));
        sinks.push_back(sims.back().get());
        cores.emplace_back();
        for (unsigned scale : scales) {
            cores.back().push_back(std::make_unique<CoreModel>(
                base.scaled(scale), *sims.back()));
            sinks.push_back(cores.back().back().get());
        }
    }

    run_trace(sinks);

    for (size_t p = 0; p < predictors.size(); ++p) {
        IpcColumn col;
        col.name = predictors[p].first;
        col.accuracy = sims[p]->accuracy();
        for (size_t s = 0; s < scales.size(); ++s)
            col.perScale.push_back(cores[p][s]->counters());
        result.columns.push_back(std::move(col));
    }
    return result;
}

} // namespace

IpcStudyResult
runIpcStudy(
    const Program &program,
    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> predictors,
    const std::vector<unsigned> &scales, uint64_t instructions)
{
    return runIpcStudyOver(
        [&](const std::vector<TraceSink *> &sinks) {
            runTrace(program, sinks, instructions);
        },
        std::move(predictors), scales);
}

IpcStudyResult
runIpcStudy(
    const Workload &workload, size_t input_idx,
    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> predictors,
    const std::vector<unsigned> &scales, uint64_t instructions)
{
    return runIpcStudyOver(
        [&](const std::vector<TraceSink *> &sinks) {
            runWorkloadTrace(workload, input_idx, sinks, instructions);
        },
        std::move(predictors), scales);
}

} // namespace bpnsp
