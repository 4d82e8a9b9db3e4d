/**
 * @file
 * Shared pieces of the repo benchmark driver: run options, the result
 * line, seeded input choice, order statistics, the host-drift probe,
 * the run manifest, the committed answer tables and the per-layer
 * record-batch ledger.
 *
 * The driver measures the library from outside: it times calls into
 * public entry points and never relies on instrumentation inside them,
 * apart from counters and histograms the library already exports.
 */

#ifndef BPBENCH_BENCH_HPP
#define BPBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "vm/program.hpp"

namespace bpbench {

using Clock = std::chrono::steady_clock;

/**
 * The campaign sweep's predictor set: the four table-lookup
 * predictors, swept by the campaign ledger and drawn by serve-mixed.
 */
constexpr const char *kSweepPredictors[] = {"bimodal", "gshare", "local",
                                            "perceptron"};

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    unsigned seconds = 10;     ///< sizes the fixed work list
    bool trace = false;        ///< traced run: per-layer metrics
    bool tiny = false;         ///< self-test size
    bool corruptReference = false;  ///< self-test of the answer check
    bool corruptCorpus = false;     ///< self-test: plant a wrong trace
    std::string workDir;       ///< scratch files of this run
    std::string goldenDir;     ///< committed answer tables
    std::string traceOut;      ///< Chrome trace path (traced runs)
    std::string revision;      ///< source revision for the manifest
    std::string goldenOut;     ///< write the reference tables here, exit
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a run reports on its last output line. */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;   ///< refused, errored or wrong operations
    uint64_t wrong = 0;    ///< answers that differ from the reference
    std::vector<Metric> metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Count a wrong answer as a failed operation; print the first few. */
    void wrongAnswer(const std::string &what, const std::string &got,
                     const std::string &want);
};

/**
 * The benchmark's own seeded generator (splitmix64). Inputs must not
 * move when the library's generators change, so none are shared.
 */
class BenchRng
{
  public:
    explicit BenchRng(uint64_t seed) : state(seed) {}

    uint64_t next();

    /** Uniform in [0, n); n > 0. */
    uint64_t below(uint64_t n) { return next() % n; }

    /** Uniform in [0, 1). */
    double
    unit()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    uint64_t state;
};

/** Linear-interpolated quantile (q in [0, 1]); 0 for no samples. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * Median of the slower half of `values`: the contended-host reading of
 * repeated equal-work samples (see addEndToEnd).
 */
double contendedMedian(std::vector<double> values);

/**
 * One round of a run. Rounds of one group do equal work, so their
 * walls differ only by what the host gave them.
 */
struct Round
{
    size_t group = 0;           ///< rounds doing the same work
    double wall = 0.0;          ///< seconds
    double instructions = 0.0;  ///< instructions (records) simulated
    std::vector<double> opMs;   ///< latency of every operation
    std::vector<double> interactiveMs;  ///< the interactive subset
};

/**
 * Add the end-to-end metrics of a run. Rounds of a group do equal
 * work, but a shared host drifts between contended stretches and
 * uncontended bursts (up to ~1.9x faster on a 4-vCPU KVM guest), so a
 * run's median flips with the share of bursts it happened to get.
 * Every timing is therefore taken over the contended rounds: the
 * slower half of each group, ranked by each round's median operation
 * latency. sim_mips and req_per_s are their totals over their summed
 * wall, latency percentiles are over their operations, setup_s is the
 * contendedMedian of the set-up samples (each the time of one set-up),
 * and peak_rss_mb is the resident peak of the timed rounds.
 */
void addEndToEnd(std::vector<Round> rounds,
                 const std::vector<double> &setup_seconds, double peak_rss_mb,
                 RunResult *out);

/** Phases of a traced run; odd phases are traced. */
constexpr unsigned kTracedPhases = 8;

/**
 * Rounds of a run: `per_second` x --seconds (2 at the self-test size),
 * rounded up in a traced run so that every phase does equal work.
 */
unsigned roundCount(const Options &opts, double per_second);

/**
 * Tracing overhead in percent from the phase walls of a traced run,
 * whose odd phases are traced: traced wall against untraced wall.
 */
double tracingOverheadPct(const std::vector<double> &phase_walls);

/**
 * Host-drift control: ns per step of a fixed branch-and-table kernel
 * that shares no code with the library, the median of passes rotated
 * over every CPU. No change to the library can move it, so a shift
 * between two sets of runs marks the host.
 */
double hostProbeNs();

/**
 * Run the calling thread on the i-th (mod their count) of the CPUs the
 * process started with. On a shared KVM guest one vCPU can run the
 * simulators up to 2x slower than another for minutes at a time, so a
 * single-threaded run's speed would follow wherever the scheduler
 * happened to keep it; rotating its work over every CPU gives each run
 * the same mix.
 */
void runOnCpu(unsigned i);

/** Let the calling thread run on every CPU the process started with. */
void runOnAnyCpu();

/**
 * Start a peak-memory window: hand freed heap back to the OS and reset
 * the kernel's resident high-water mark, so that set-up repetitions
 * and answer checks outside the window do not set the peak.
 */
void resetPeakRss();

/** Resident high-water mark (VmHWM) since resetPeakRss(), in MiB. */
double peakRssMb();

/** 16-hex-digit FNV-1a digest of a byte string. */
std::string digestHex(const std::string &bytes);

/**
 * Print the run manifest line: host, build, revision, seed, start
 * time, and whether the build is comparable with a Release run.
 */
void printManifest(const Options &opts);

/**
 * Committed reference answers, one table per check: lines of
 * "<seed>\t<size>\t<key>\t<answer>" in <dir>/<table>.tsv.
 */
class AnswerTable
{
  public:
    AnswerTable(const std::string &dir, const std::string &table);

    /** All answers committed for (seed, size); empty when none. */
    std::map<std::string, std::string> lookup(uint64_t seed,
                                              uint64_t size) const;

    /** Write answers for (seed, size) as a table file at `path`. */
    static bool write(const std::string &path, uint64_t seed,
                      uint64_t size,
                      const std::map<std::string, std::string> &answers);

  private:
    std::map<std::string, std::map<std::string, std::string>> rows;
};

/**
 * The reference answers of a run: the committed table when it covers
 * (seed, size), else `recompute()` through the direct path. Reports
 * which in `source`. With --golden-out the recomputed answers are
 * written to <golden-out>/<table>.tsv instead; with --corrupt-reference
 * one answer is altered so the run must fail.
 */
template <typename Recompute>
std::map<std::string, std::string>
referenceAnswers(const Options &opts, const std::string &table,
                 uint64_t size, Recompute recompute, std::string *source)
{
    std::map<std::string, std::string> ref;
    if (opts.goldenOut.empty())
        ref = AnswerTable(opts.goldenDir, table).lookup(opts.seed, size);
    *source = "committed";
    if (ref.empty()) {
        ref = recompute();
        *source = "recomputed";
    }
    if (!opts.goldenOut.empty())
        AnswerTable::write(opts.goldenOut + "/" + table + ".tsv", opts.seed,
                           size, ref);
    if (opts.corruptReference && !ref.empty())
        ref.begin()->second += "-corrupted";
    return ref;
}

/**
 * Per-layer ledger: time each layer's public entry point alone over
 * one batch of `records` records of `program`, each call in a traced
 * span, and add the ns-per-record (or per conditional branch) figures
 * to `out`.
 */
void runLedger(const bpnsp::Program &program, uint64_t records,
               const std::string &scratch_dir, RunResult *out);

/**
 * Campaign ledger of a traced run: synth fit and generation, trace
 * capture, and traced runCampaign sweeps over the captured traces,
 * answer-checked; adds the synth, campaign and replay layer metrics.
 * With --golden-out it only writes its reference table.
 */
bool runCampaignLedger(const Options &opts, RunResult *out);

/** Enable span recording for a traced run (large per-thread rings). */
void enableTracing(bool on);

/**
 * Write `spans` (drained earlier) plus every span still recorded as one
 * Chrome trace file.
 */
bool exportTrace(const std::string &path,
                 std::vector<bpnsp::obs::SpanEvent> spans = {});

/** Registry counter value (0 when the library never registered it). */
uint64_t counterValue(const std::string &name);

/** @{ Workload entry points. Each fills `out` and returns true. */
bool runPaperStudy(const Options &opts, RunResult *out);
bool runServeMixed(const Options &opts, RunResult *out);
/** @} */

} // namespace bpbench

#endif // BPBENCH_BENCH_HPP
