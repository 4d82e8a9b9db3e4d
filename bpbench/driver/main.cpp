/**
 * @file
 * bpbench: the repo benchmark driver. Usually started through run.py,
 * which builds it; see bpbench/README.md for workloads and metrics.
 *
 *   bpbench --workload W --seed N --seconds S --trace 0|1
 *           [--size tiny] [--work-dir D] [--golden-dir D]
 *           [--trace-out F] [--revision R] [--golden-out D]
 *           [--corrupt-reference] [--corrupt-corpus]
 *
 * The last stdout line is the result object. Exit 1 on a wrong answer,
 * 2 on a set-up error (then no result line is printed).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <malloc.h>

#include "bench.hpp"
#include "core/runner.hpp"

namespace {

using bpbench::Metric;
using bpbench::Options;
using bpbench::RunResult;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Untraced runs report exactly these (BENCHMARK.json end_to_end). */
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"sim_mips", "Minstr/s"},
    {"p50_ms", "ms"},         {"p99_ms", "ms"},
    {"interactive_p90_ms", "ms"}, {"req_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

/**
 * Traced runs report exactly these (BENCHMARK.json per_layer). A layer
 * the workload does not exercise reads 0.
 */
const MetricSpec kPerLayer[] = {
    {"host.probe_ns", "ns"},
    {"trace.overhead_pct", "%"},
    {"vm.instructions", "count"},
    {"vm.ns_per_instr", "ns"},
    {"tracestore.capture_ns_per_record", "ns"},
    {"tracestore.bytes_per_record", "B"},
    {"tracestore.verify_ns_per_record", "ns"},
    {"tracestore.decode_ns_per_record", "ns"},
    {"tracestore.records_replayed", "count"},
    {"tracestore.chunk_cache_hit_ratio", "ratio"},
    {"tracestore.chunk_retries", "count"},
    {"core.deliveries_per_cell", "count"},
    {"bp.branches", "count"},
    {"bp.tage-sc-l-8KB.ns_per_branch", "ns"},
    {"bp.tage-sc-l-64KB.ns_per_branch", "ns"},
    {"bp.bimodal.ns_per_branch", "ns"},
    {"bp.gshare.ns_per_branch", "ns"},
    {"bp.local.ns_per_branch", "ns"},
    {"bp.perceptron.ns_per_branch", "ns"},
    {"frontend.ns_per_record", "ns"},
    {"pipeline.ns_per_record", "ns"},
    {"analysis.branch_stats_ns_per_record", "ns"},
    {"synth.fit_ms", "ms"},
    {"synth.generate_ms", "ms"},
    {"campaign.cell_ms.p50", "ms"},
    {"campaign.overhead_ms_per_cell", "ms"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.exec_ms.p50", "ms"},
    {"serve.exec_ms.p99", "ms"},
    {"serve.wire_ms.p50", "ms"},
    {"serve.batch_size.mean", "count"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bpbench: %s\nusage: bpbench --workload "
                 "paper-study|serve-mixed --seed N "
                 "--seconds S --trace 0|1 [--size tiny|full] "
                 "[--work-dir D] [--golden-dir D] [--trace-out F] "
                 "[--revision R] [--golden-out D] [--corrupt-reference] "
                 "[--corrupt-corpus]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    opts.workDir = ".bench_build/work";
    opts.goldenDir = "bpbench/golden";
    opts.revision = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--corrupt-reference") {
            opts.corruptReference = true;
            continue;
        }
        if (arg == "--corrupt-corpus") {
            opts.corruptCorpus = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        const unsigned long long number =
            std::strtoull(value.c_str(), &end, 10);
        const bool isNumber = !value.empty() && *end == '\0';
        if (arg == "--workload")
            opts.workload = value;
        else if (arg == "--seed" && isNumber)
            opts.seed = number;
        else if (arg == "--seconds" && isNumber && number > 0 &&
                 number <= 3600)
            opts.seconds = static_cast<unsigned>(number);
        else if (arg == "--trace" && (value == "0" || value == "1"))
            opts.trace = value == "1";
        else if (arg == "--size" && (value == "tiny" || value == "full"))
            opts.tiny = value == "tiny";
        else if (arg == "--work-dir")
            opts.workDir = value;
        else if (arg == "--golden-dir")
            opts.goldenDir = value;
        else if (arg == "--trace-out")
            opts.traceOut = value;
        else if (arg == "--revision")
            opts.revision = value;
        else if (arg == "--golden-out")
            opts.goldenOut = value;
        else
            usage(("bad argument " + arg + " " + value).c_str());
    }
    if (opts.workload.empty())
        usage("--workload is required");
    return opts;
}

const Metric *
findMetric(const RunResult &result, const std::string &name)
{
    for (const Metric &m : result.metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    // Keep freed heap in the process. By default glibc hands large
    // blocks back to the kernel, so every repeated set-up (a program
    // build allocates ~10 MB) paid ~2.5K fresh page faults, half of its
    // time; on a shared KVM guest their cost followed other tenants'
    // memory load and moved setup_s by up to 1.5x between runs.
    mallopt(M_MMAP_THRESHOLD, 256 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    bool (*run)(const Options &, RunResult *) = nullptr;
    if (opts.workload == "paper-study")
        run = bpbench::runPaperStudy;
    else if (opts.workload == "serve-mixed")
        run = bpbench::runServeMixed;
    else
        usage(("unknown workload " + opts.workload).c_str());

    std::error_code ec;
    std::filesystem::create_directories(opts.workDir, ec);
    if (ec)
        usage(("cannot create work dir " + opts.workDir).c_str());
    // Every trace is generated or executed by the run itself; an
    // inherited cache directory would turn VM cells into replays.
    bpnsp::setTraceCacheDir("");

    bpbench::printManifest(opts);
    const double probeStart = bpbench::hostProbeNs();
    RunResult result;
    const bool ok = run(opts, &result);
    const double probeEnd = bpbench::hostProbeNs();
    std::printf("host.probe_ns: start %.4f end %.4f\n", probeStart,
                probeEnd);
    if (!ok) {
        std::fprintf(stderr, "bpbench: %s set-up failed\n",
                     opts.workload.c_str());
        return 2;
    }
    if (!opts.goldenOut.empty())
        return 0;
    result.add("host.probe_ns", (probeStart + probeEnd) / 2.0, "ns");

    for (const Metric &m : result.metrics)
        std::printf("metric %-40s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json;
    const auto emit = [&](const MetricSpec &spec, double value) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", spec.name, value, spec.unit);
        json += buf;
    };
    if (opts.trace) {
        for (const MetricSpec &spec : kPerLayer) {
            const Metric *m = findMetric(result, spec.name);
            emit(spec, m != nullptr && std::isfinite(m->value) ? m->value
                                                               : 0.0);
        }
    } else {
        for (const MetricSpec &spec : kEndToEnd) {
            const Metric *m = findMetric(result, spec.name);
            if (m == nullptr || !std::isfinite(m->value)) {
                std::fprintf(stderr, "bpbench: no value for %s\n",
                             spec.name);
                return 2;
            }
            emit(spec, m->value);
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                result.wrong == 0 ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                json.c_str());
    std::fflush(stdout);
    return result.wrong == 0 ? 0 : 1;
}
