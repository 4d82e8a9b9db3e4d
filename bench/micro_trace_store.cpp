/**
 * @file
 * Trace store micro-benchmark: times regenerating a trace through the
 * VM against replaying it from the trace cache, and checks that the
 * replay is bit-identical.
 *
 * Two timed phases over the same workload trace:
 *   cold — VM execution, recording into the trace cache
 *   warm — replay of the cached store through the same sink set
 *
 * Bit-identity is proven with an order-sensitive digest over every
 * field of every record (DigestSink).
 */

#include <chrono>

#include "common.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/format.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("Trace store cold/warm replay timing.");
    opts.addString("workload", "mcf_like", "workload to trace");
    opts.addInt("instructions", 4000000, "trace length (pre-scale)");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    // Default to a temporary cache so the bench runs standalone; an
    // explicit --trace-cache exercises (and populates) a real one.
    if (traceCacheDir().empty())
        setTraceCacheDir("/tmp/bpnsp-trace-cache");

    banner("Trace store: collect once, analyze many",
           "Sec. III-A methodology");
    const Workload w = findWorkload(opts.getString("workload"));
    std::printf("workload %s, %llu instructions, cache %s\n\n",
                w.name.c_str(),
                static_cast<unsigned long long>(instructions),
                traceCacheDir().c_str());

    // Start from a cold cache entry so the first phase really pays
    // trace generation.
    const TraceCacheKey key{w.name, w.inputs[0].label, w.inputs[0].seed,
                            instructions};
    TraceCache(traceCacheDir()).evict(key);

    // Cold: VM execution + store recording.
    DigestSink coldDigest;
    auto coldStart = std::chrono::steady_clock::now();
    runWorkloadTrace(w, 0, {&coldDigest}, instructions);
    const double coldSec = secondsSince(coldStart);

    // Warm: replay from the published cache entry.
    DigestSink warmDigest;
    auto warmStart = std::chrono::steady_clock::now();
    runWorkloadTrace(w, 0, {&warmDigest}, instructions);
    const double warmSec = secondsSince(warmStart);

    const bool identical =
        coldDigest.digest() == warmDigest.digest() &&
        coldDigest.count() == warmDigest.count();

    TextTable table("Trace store timing (" + w.name + ")");
    table.setHeader({"phase", "records", "seconds", "speedup vs cold"});
    const auto row = [&](const char *phase, uint64_t records,
                         double sec) {
        table.beginRow();
        table.cell(std::string(phase));
        table.cell(records);
        table.cell(sec, 3);
        table.cell(sec > 0 ? coldSec / sec : 0.0, 2);
    };
    row("cold (VM + record)", coldDigest.count(), coldSec);
    row("warm (cached replay)", warmDigest.count(), warmSec);
    emit(table, opts.getFlag("csv"));

    // Export the phase timings as gauges so a --metrics-out report of
    // this bench doubles as a perf-trajectory data point.
    obs::gauge("bench.trace_replay.cold_seconds").set(coldSec);
    obs::gauge("bench.trace_replay.warm_seconds").set(warmSec);
    obs::gauge("bench.trace_replay.warm_speedup")
        .set(warmSec > 0 ? coldSec / warmSec : 0.0);

    std::printf("replay bit-identical to execution: %s (digest "
                "%016llx over %llu records x 12 fields)\n",
                identical ? "yes" : "NO — BUG",
                static_cast<unsigned long long>(coldDigest.digest()),
                static_cast<unsigned long long>(coldDigest.count()));
    return identical ? 0 : 1;
}
