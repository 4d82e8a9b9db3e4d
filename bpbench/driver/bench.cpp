#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bpbench {

void
RunResult::wrongAnswer(const std::string &what, const std::string &got,
                       const std::string &want)
{
    ++failed;
    if (++wrong <= 5)
        std::printf("wrong answer: %s got [%s] want [%s]\n", what.c_str(),
                    got.c_str(), want.c_str());
}

uint64_t
BenchRng::next()
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = static_cast<size_t>(std::ceil(rank));
    return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

double
contendedMedian(std::vector<double> values)
{
    std::sort(values.rbegin(), values.rend());
    values.resize((values.size() + 1) / 2);
    return median(std::move(values));
}

void
addEndToEnd(std::vector<Round> rounds,
            const std::vector<double> &setup_seconds, double peak_rss_mb,
            RunResult *out)
{
    // Rank by the round's median operation, which one preempted
    // operation cannot move, so the tail is not drawn from the rounds
    // that happened to hold a hiccup.
    std::map<size_t, std::vector<std::pair<double, size_t>>> groups;
    std::printf("round Minstr/s:");
    for (size_t i = 0; i < rounds.size(); ++i) {
        groups[rounds[i].group].emplace_back(median(rounds[i].opMs), i);
        std::printf(" %.3f", rounds[i].instructions / rounds[i].wall / 1e6);
    }
    std::printf("\n");
    std::vector<Round> contended;
    for (auto &[group, order] : groups) {
        std::sort(order.rbegin(), order.rend());
        for (size_t i = 0; i < (order.size() + 1) / 2; ++i)
            contended.push_back(std::move(rounds[order[i].second]));
    }
    rounds = std::move(contended);
    double wall = 0.0, instructions = 0.0;
    std::vector<double> opMs, interactiveMs;
    for (const Round &r : rounds) {
        wall += r.wall;
        instructions += r.instructions;
        opMs.insert(opMs.end(), r.opMs.begin(), r.opMs.end());
        interactiveMs.insert(interactiveMs.end(), r.interactiveMs.begin(),
                             r.interactiveMs.end());
    }
    out->add("setup_s", contendedMedian(setup_seconds), "s");
    out->add("sim_mips", instructions / wall / 1e6, "Minstr/s");
    out->add("p50_ms", quantile(opMs, 0.50), "ms");
    out->add("p99_ms", quantile(opMs, 0.99), "ms");
    out->add("interactive_p90_ms", quantile(interactiveMs, 0.90), "ms");
    out->add("req_per_s", static_cast<double>(opMs.size()) / wall, "1/s");
    out->add("peak_rss_mb", peak_rss_mb, "MiB");
    std::printf("contended rounds: %zu, %.3f s, %zu operations (%zu "
                "interactive)\n",
                rounds.size(), wall, opMs.size(), interactiveMs.size());
}

unsigned
roundCount(const Options &opts, double per_second)
{
    unsigned n = opts.tiny ? 2
                           : std::max(2u, static_cast<unsigned>(
                                              opts.seconds * per_second + 0.5));
    if (opts.trace)
        n = (n + kTracedPhases - 1) / kTracedPhases * kTracedPhases;
    return n;
}

double
tracingOverheadPct(const std::vector<double> &phase_walls)
{
    double wall[2] = {0.0, 0.0};   // [traced]
    for (size_t p = 0; p < phase_walls.size(); ++p)
        wall[p % 2] += phase_walls[p];
    return (wall[1] / wall[0] - 1.0) * 100.0;
}

namespace {

/**
 * One pass of the probe kernel: a data-dependent walk over a 256 KiB
 * table with an unpredictable branch per step — the same two host
 * resources (branch predictor, data caches) the simulators lean on.
 */
uint64_t
probePass(const std::vector<uint32_t> &table, uint64_t steps)
{
    const uint64_t mask = table.size() - 1;
    uint64_t idx = 1;
    uint64_t acc = 0;
    for (uint64_t i = 0; i < steps; ++i) {
        const uint32_t v = table[idx];
        if (v & 1u)
            acc += v >> 3;
        else
            acc ^= v * 0x9e37u;
        idx = (idx * 5 + v + (acc & 7)) & mask;
    }
    return acc;
}

} // namespace

double
hostProbeNs()
{
    constexpr uint64_t kSteps = 1u << 21;
    std::vector<uint32_t> table(1u << 16);
    BenchRng rng(0x70b3);
    for (uint32_t &v : table)
        v = static_cast<uint32_t>(rng.next());
    std::vector<double> perStep;
    volatile uint64_t sink = 0;
    for (unsigned rep = 0; rep < 8; ++rep) {
        runOnCpu(rep);
        const auto t0 = Clock::now();
        sink = sink + probePass(table, kSteps);
        perStep.push_back(secondsSince(t0) * 1e9 /
                          static_cast<double>(kSteps));
    }
    runOnAnyCpu();
    return median(perStep);
}

namespace {

/** The CPUs the process started with, read on first use. */
const cpu_set_t &
startCpus()
{
    static const cpu_set_t cpus = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            CPU_ZERO(&set);
        return set;
    }();
    return cpus;
}

} // namespace

void
runOnCpu(unsigned i)
{
    const cpu_set_t &all = startCpus();
    const int n = CPU_COUNT(&all);
    if (n == 0)
        return;
    for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &all) || seen++ != static_cast<int>(i % n))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
        return;
    }
}

void
runOnAnyCpu()
{
    const cpu_set_t &all = startCpus();
    if (CPU_COUNT(&all) > 0)
        sched_setaffinity(0, sizeof(all), &all);
}

void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
digestHex(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

bool
sanitizerBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return std::string(BPBENCH_CXX_FLAGS).find("-fsanitize") !=
           std::string::npos;
#endif
}

} // namespace

void
printManifest(const Options &opts)
{
    const std::string buildType = BPBENCH_BUILD_TYPE;
#ifdef BPNSP_OBS_DETAIL
    const bool obsDetail = true;
#else
    const bool obsDetail = false;
#endif
    const char *faults = std::getenv("BPNSP_FAULTS");
    const bool faultsSet = faults != nullptr && faults[0] != '\0';
    std::vector<std::string> reasons;
    if (buildType == "Debug")
        reasons.push_back("debug build");
    if (sanitizerBuild())
        reasons.push_back("sanitizer build");
    if (obsDetail)
        reasons.push_back("BPNSP_OBS_DETAIL build");
    if (faultsSet)
        reasons.push_back("BPNSP_FAULTS set");
    std::string why;
    for (const std::string &r : reasons)
        why += (why.empty() ? "" : ", ") + r;

    char started[32];
    const std::time_t now = std::time(nullptr);
    std::strftime(started, sizeof(started), "%Y-%m-%dT%H:%M:%SZ",
                  std::gmtime(&now));
    std::printf(
        "manifest: {\"cpu\": %s, \"nproc\": %u, \"compiler\": %s, "
        "\"build_type\": %s, \"revision\": %s, \"workload\": %s, "
        "\"seed\": %llu, \"seconds\": %u, \"size\": %s, \"trace\": %s, "
        "\"started\": %s, \"comparable\": %s, \"non_comparable_why\": "
        "%s}\n",
        jsonString(cpuModel()).c_str(),
        std::thread::hardware_concurrency(),
        jsonString(std::string("g++ ") + __VERSION__).c_str(),
        jsonString(buildType).c_str(), jsonString(opts.revision).c_str(),
        jsonString(opts.workload).c_str(),
        static_cast<unsigned long long>(opts.seed), opts.seconds,
        opts.tiny ? "\"tiny\"" : "\"full\"", opts.trace ? "true" : "false",
        jsonString(started).c_str(), reasons.empty() ? "true" : "false",
        jsonString(why).c_str());
    std::fflush(stdout);
}

AnswerTable::AnswerTable(const std::string &dir, const std::string &table)
{
    std::ifstream in(dir + "/" + table + ".tsv");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string seed, size, key, answer;
        if (std::getline(fields, seed, '\t') &&
            std::getline(fields, size, '\t') &&
            std::getline(fields, key, '\t') &&
            std::getline(fields, answer))
            rows[seed + "/" + size][key] = answer;
    }
}

std::map<std::string, std::string>
AnswerTable::lookup(uint64_t seed, uint64_t size) const
{
    const auto it =
        rows.find(std::to_string(seed) + "/" + std::to_string(size));
    return it == rows.end() ? std::map<std::string, std::string>{}
                            : it->second;
}

bool
AnswerTable::write(const std::string &path, uint64_t seed, uint64_t size,
                   const std::map<std::string, std::string> &answers)
{
    std::ofstream out(path);
    for (const auto &[key, answer] : answers)
        out << seed << '\t' << size << '\t' << key << '\t' << answer
            << '\n';
    return static_cast<bool>(out);
}

void
enableTracing(bool on)
{
    auto &rec = bpnsp::obs::TraceRecorder::instance();
    // Rings are sized on a thread's first span and live on after their
    // thread; the busiest thread of a traced run (a serve worker over
    // one block) records a few thousand spans.
    rec.setRingCapacity(1u << 15);
    rec.setEnabled(on);
}

bool
exportTrace(const std::string &path, std::vector<bpnsp::obs::SpanEvent> spans)
{
    const std::vector<bpnsp::obs::SpanEvent> rest =
        bpnsp::obs::TraceRecorder::instance().drain();
    spans.insert(spans.end(), rest.begin(), rest.end());
    std::ofstream file(path);
    file << bpnsp::obs::TraceRecorder::chromeTraceJson(spans);
    return static_cast<bool>(file);
}

uint64_t
counterValue(const std::string &name)
{
    return bpnsp::obs::Registry::instance().counterValue(name);
}

} // namespace bpbench
