/**
 * @file
 * Trace store micro-benchmark: what a stored trace costs next to
 * running the VM again, and proof that the replay is bit-identical.
 *
 * Three timed paths over the same workload trace:
 *   vm      — runWorkloadTrace, the path every batch binary takes
 *   capture — captureTrace: the same VM pass recorded into a fresh
 *             corpus and published (what serve pays for a cold trace)
 *   replay  — open + verify + replay of the captured entry (what serve
 *             pays for a warm one)
 *
 * Bit-identity is proven with an order-sensitive digest over every
 * field of every record (DigestSink); the bench exits 1 when the
 * three digests differ. --faults injects into the capture (failed
 * captures are retried a bounded number of times) and the replay.
 */

#include <chrono>
#include <filesystem>

#include <unistd.h>

#include "common.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/format.hpp"
#include "tracestore/store.hpp"
#include "util/logging.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

namespace {

/** Capture attempts before a faulted capture counts as failed. */
constexpr int kCaptureAttempts = 3;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Open, verify and replay a published entry into `sink`. */
Status
replayEntry(const std::string &path, TraceSink &sink)
{
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    if (reader == nullptr)
        return st;
    st = reader->verify();
    return st.ok() ? reader->replay(sink, 0) : st;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("Trace store: VM vs capture vs replay timing.");
    opts.addString("workload", "mcf_like", "workload to trace");
    opts.addInt("instructions", 4000000, "trace length (pre-scale)");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    // A private corpus per run, so every capture is cold.
    const std::string corpus =
        (std::filesystem::temp_directory_path() /
         ("bpnsp-trace-store-bench." + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(corpus);
    const TraceCache cache(corpus);

    banner("Trace store: run the VM or replay a stored trace",
           "Sec. III-A methodology");
    const Workload w = findWorkload(opts.getString("workload"));
    std::printf("workload %s, %llu instructions\n\n", w.name.c_str(),
                static_cast<unsigned long long>(instructions));

    DigestSink vmDigest;
    auto start = std::chrono::steady_clock::now();
    runWorkloadTrace(w, 0, {&vmDigest}, instructions);
    const double vmSec = secondsSince(start);

    DigestSink captureDigest;
    Status captured;
    double captureSec = 0.0;
    for (int attempt = 1; attempt <= kCaptureAttempts; ++attempt) {
        captureDigest = DigestSink();
        start = std::chrono::steady_clock::now();
        captured = captureTrace(cache, w, 0, instructions,
                                {&captureDigest});
        captureSec = secondsSince(start);
        if (captured.ok())
            break;
        warn("capture attempt ", attempt, " failed: ", captured.str());
    }

    DigestSink replayDigest;
    Status replayed = captured;
    double replaySec = 0.0;
    if (captured.ok()) {
        const WorkloadInput &input = w.inputs[0];
        start = std::chrono::steady_clock::now();
        replayed = replayEntry(
            cache.entryPath({w.name, input.label, input.seed,
                             instructions}),
            replayDigest);
        replaySec = secondsSince(start);
    }
    std::filesystem::remove_all(corpus);

    TextTable table("Trace store timing (" + w.name + ")");
    table.setHeader({"path", "records", "seconds", "x vm"});
    const auto row = [&](const char *path, uint64_t records,
                         double sec) {
        table.beginRow();
        table.cell(std::string(path));
        table.cell(records);
        table.cell(sec, 3);
        table.cell(vmSec > 0 ? sec / vmSec : 0.0, 2);
    };
    row("vm (runWorkloadTrace)", vmDigest.count(), vmSec);
    row("vm + capture (captureTrace)", captureDigest.count(),
        captureSec);
    row("replay (open + verify + replay)", replayDigest.count(),
        replaySec);
    emit(table, opts.getFlag("csv"));

    // Export the timings as gauges so a --metrics-out report of this
    // bench doubles as a perf-trajectory data point.
    obs::gauge("bench.trace_replay.vm_seconds").set(vmSec);
    obs::gauge("bench.trace_replay.capture_seconds").set(captureSec);
    obs::gauge("bench.trace_replay.replay_seconds").set(replaySec);
    obs::gauge("bench.trace_replay.replay_vs_vm")
        .set(vmSec > 0 ? replaySec / vmSec : 0.0);

    if (!replayed.ok()) {
        std::printf("no replay: %s\n", replayed.str().c_str());
        return 1;
    }
    const bool identical =
        vmDigest.digest() == captureDigest.digest() &&
        vmDigest.digest() == replayDigest.digest() &&
        vmDigest.count() == replayDigest.count();
    std::printf("replay bit-identical to execution: %s (digest "
                "%016llx over %llu records x 12 fields)\n",
                identical ? "yes" : "NO — BUG",
                static_cast<unsigned long long>(vmDigest.digest()),
                static_cast<unsigned long long>(vmDigest.count()));
    return identical ? 0 : 1;
}
