/**
 * @file
 * bpnsp_served: the prediction-serving daemon. Binds a UNIX-domain
 * socket (TCP loopback optional behind --tcp-port), serves concurrent
 * bpnsp-serve-v1 requests — predictor simulation over trace slices,
 * branch stats, H2P lists, trace materialization — from a shared
 * on-disk trace corpus, and drains gracefully on SIGINT/SIGTERM:
 * in-flight requests finish, the listener closes immediately, and the
 * final run report (--metrics-out) captures the serve.* counters.
 *
 * Three modes share this binary:
 *
 *  - single process (default, --workers=0): one ServeServer, exactly
 *    the pre-fleet daemon.
 *  - fleet supervisor (--workers=N, N >= 1): fork+exec N copies of
 *    this binary as shard workers, route client frames to the owning
 *    shard, monitor/respawn crashed or wedged workers, degrade a
 *    crash-looping shard behind a circuit breaker (see
 *    serve/fleet.hpp). The supervisor owns the run report; workers
 *    write none.
 *  - fleet worker (--fleet-worker=IDX, spawned by a supervisor, not
 *    by hand): a single-process server on a private socket that also
 *    pulses a heartbeat file so the supervisor can tell wedged from
 *    busy, and hosts the serve.worker.{crash,wedge} failpoints for
 *    chaos drills.
 *
 * Quickstart:
 *   bpnsp_served --socket=/tmp/bpnsp.sock --trace-cache=/tmp/traces \
 *       --workers=4 &
 *   bpnsp_client --socket=/tmp/bpnsp.sock --op=simulate \
 *       --workload=mcf_like --predictor=gshare --instructions=200000
 *
 * Exit status: 0 on a clean drain (signal or --max-seconds), 1 when
 * the server could not start.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "tracestore/chunk_cache.hpp"
#include "util/cancel.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"
#include "util/signals.hpp"

using namespace bpnsp;

namespace {

/**
 * Path of this very binary, for the supervisor to exec workers from.
 * /proc/self/exe survives PATH-relative and cwd-relative launches;
 * argv[0] is the fallback.
 */
std::string
selfBinaryPath(const char *argv0)
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return std::string(buf);
    }
    return std::string(argv0);
}

/** Create-or-touch `path` so its mtime is now. */
void
pulseHeartbeat(const std::string &path)
{
    if (::utimensat(AT_FDCWD, path.c_str(), nullptr, 0) == 0)
        return;
    if (FILE *f = std::fopen(path.c_str(), "w"))
        std::fclose(f);
}

/**
 * Worker idle loop: pulse the heartbeat and host the chaos
 * failpoints. serve.worker.crash (and the per-shard .w<i> variant)
 * exits abruptly, as a real crash would; serve.worker.wedge stops the
 * heartbeat and parks, so only the supervisor's stall watchdog can
 * clear it. Returns when the drain token fires.
 */
void
workerIdleLoop(const std::string &heartbeatPath, uint64_t heartbeatMs,
               int shard)
{
    const std::string crashShardPoint =
        "serve.worker.crash.w" + std::to_string(shard);
    const std::string wedgeShardPoint =
        "serve.worker.wedge.w" + std::to_string(shard);
    while (!globalCancelToken().cancelled()) {
        if (faultsim::evaluate("serve.worker.crash") ||
            faultsim::evaluate(crashShardPoint.c_str())) {
            warn("worker ", shard,
                 ": serve.worker.crash fired; dying");
            std::_Exit(3);
        }
        if (faultsim::evaluate("serve.worker.wedge") ||
            faultsim::evaluate(wedgeShardPoint.c_str())) {
            warn("worker ", shard,
                 ": serve.worker.wedge fired; heartbeat stops now");
            for (;;)
                std::this_thread::sleep_for(std::chrono::seconds(60));
        }
        pulseHeartbeat(heartbeatPath);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(heartbeatMs));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts(
        "Serve trace/simulation queries over a UNIX-domain socket.");
    opts.addString("socket", "bpnsp_served.sock",
                   "UNIX-domain socket path to bind");
    opts.addInt("tcp-port", 0,
                "also listen on 127.0.0.1:PORT (0 = off; -1 = "
                "OS-assigned, printed at startup; single-process "
                "mode only)");
    opts.addInt("workers", 0,
                "fleet mode: fork N worker processes, each owning a "
                "shard of the trace-digest space (0 = single "
                "process)");
    opts.addInt("threads", 4, "simulation worker threads per process");
    opts.addInt("queue-depth", 64,
                "admission queue bound; beyond it requests are "
                "rejected with RESOURCE_EXHAUSTED");
    opts.addInt("max-inflight-cost", 0,
                "cost-aware admission bound: max estimated queued + "
                "in-flight work in ms of predicted execute time "
                "(0 = count-only admission)");
    opts.addInt("client-weight", 1,
                "fair-share quantum weight per client in the "
                "deficit-round-robin scheduler");
    opts.addString("shed-policy", "heaviest",
                   "overflow victim selection: 'heaviest' sheds the "
                   "newest work of the heaviest client; 'tail' always "
                   "rejects the arriving request");
    opts.addInt("hedge-ms", 0,
                "fleet router: duplicate an idempotent request to the "
                "next shard when the owning worker has not replied "
                "after N ms (0 = off)");
    opts.addString("trace-cache", "",
                   "trace corpus directory (required; also "
                   "BPNSP_TRACE_CACHE)");
    opts.addInt("chunk-cache-mb", 64,
                "in-memory decoded-chunk LRU capacity (0 = off)");
    opts.addInt("max-open-readers", 32, "mmap'd store reader LRU cap");
    opts.addInt("max-seconds", 0,
                "self-terminate (drain) after N seconds (0 = run "
                "until signalled)");
    opts.addString("trace-dir", "",
                   "write rotating Chrome-trace span exports into this "
                   "directory (trace-<seq>.json, size-bounded)");
    opts.addInt("trace-files", 8, "rotated trace files kept");
    opts.addInt("trace-rotate-ms", 2000, "trace rotation period");
    opts.addInt("slow-ms", 0,
                "log requests slower than N ms with their span tree "
                "(0 = off)");
    // Fleet supervision knobs (--workers >= 1).
    opts.addInt("heartbeat-ms", 250, "worker liveness pulse period");
    opts.addInt("stall-ms", 5000,
                "heartbeat staleness that means a worker is wedged "
                "(it is SIGKILLed and respawned)");
    opts.addInt("respawn-backoff-ms", 100,
                "respawn backoff floor after a rapid worker death");
    opts.addInt("respawn-backoff-cap-ms", 2000, "respawn backoff cap");
    opts.addInt("breaker-deaths", 5,
                "deaths within --breaker-window-ms that trip a "
                "shard's circuit breaker (shard degrades to "
                "UNAVAILABLE instead of crash-looping)");
    opts.addInt("breaker-window-ms", 10000, "breaker death window");
    opts.addInt("breaker-cooldown-ms", 3000,
                "degraded time before a half-open probe respawn");
    opts.addInt("drain-grace-ms", 5000,
                "in-flight connection grace during a fleet drain");
    // Worker-mode plumbing (set by the supervisor, not by hand).
    opts.addInt("fleet-worker", -1,
                "internal: run as fleet shard worker IDX");
    opts.addString("heartbeat-file", "",
                   "internal: worker heartbeat file to pulse");
    opts.addInt("faults-bump", 0,
                "internal: decorrelate failpoint rng streams "
                "per worker (stream = seed + bump)");
    opts.parse(argc, argv);
    obs::configureFromOptions(opts);
    faultsim::configureFromOptions(opts);
    if (const int64_t bump = opts.getInt("faults-bump"); bump > 0)
        faultsim::setStreamBump(static_cast<uint64_t>(bump));

    // Shared signal discipline (util/signals.hpp): the first
    // SIGINT/SIGTERM fires the global cancel token and returns; we
    // notice below and drain. A second signal force-exits.
    signals::installGracefulDrain();

    std::string cacheDir = opts.getString("trace-cache");
    if (cacheDir.empty()) {
        if (const char *env = std::getenv("BPNSP_TRACE_CACHE"))
            cacheDir = env;
    }
    if (cacheDir.empty())
        fatal("bpnsp_served needs --trace-cache (or "
              "BPNSP_TRACE_CACHE): the corpus directory to serve");

    const int64_t fleetWorkers = opts.getInt("workers");
    const int64_t workerIdx = opts.getInt("fleet-worker");
    const int64_t maxSeconds = opts.getInt("max-seconds");

    // ---- fleet supervisor -------------------------------------------
    if (fleetWorkers > 0 && workerIdx < 0) {
        if (opts.getInt("tcp-port") != 0)
            fatal("--tcp-port is single-process only; the fleet "
                  "router speaks UNIX-domain sockets");
        serve::FleetConfig fleet;
        fleet.socketPath = opts.getString("socket");
        fleet.workers = static_cast<unsigned>(fleetWorkers);
        fleet.heartbeatMs =
            static_cast<uint64_t>(opts.getInt("heartbeat-ms"));
        fleet.stallMs = static_cast<uint64_t>(opts.getInt("stall-ms"));
        fleet.backoffBaseMs =
            static_cast<uint64_t>(opts.getInt("respawn-backoff-ms"));
        fleet.backoffCapMs = static_cast<uint64_t>(
            opts.getInt("respawn-backoff-cap-ms"));
        fleet.breakerDeaths =
            static_cast<unsigned>(opts.getInt("breaker-deaths"));
        fleet.breakerWindowMs =
            static_cast<uint64_t>(opts.getInt("breaker-window-ms"));
        fleet.breakerCooldownMs =
            static_cast<uint64_t>(opts.getInt("breaker-cooldown-ms"));
        fleet.drainGraceMs =
            static_cast<uint64_t>(opts.getInt("drain-grace-ms"));
        fleet.hedgeMs = static_cast<uint64_t>(opts.getInt("hedge-ms"));

        // Workers are fresh execs of this very binary; pass through
        // every per-process serving knob. The supervisor keeps
        // --metrics-out and --trace-dir for itself: one report, one
        // span stream, owned by the process that survives crashes.
        fleet.workerCommand = {
            selfBinaryPath(argv[0]),
            "--trace-cache=" + cacheDir,
            "--threads=" + std::to_string(opts.getInt("threads")),
            "--queue-depth=" +
                std::to_string(opts.getInt("queue-depth")),
            "--chunk-cache-mb=" +
                std::to_string(opts.getInt("chunk-cache-mb")),
            "--max-open-readers=" +
                std::to_string(opts.getInt("max-open-readers")),
            "--slow-ms=" + std::to_string(opts.getInt("slow-ms")),
            "--max-inflight-cost=" +
                std::to_string(opts.getInt("max-inflight-cost")),
            "--client-weight=" +
                std::to_string(opts.getInt("client-weight")),
            "--shed-policy=" + opts.getString("shed-policy"),
        };
        if (!opts.getString("faults").empty())
            fleet.workerCommand.push_back(
                "--faults=" + opts.getString("faults"));

        serve::FleetSupervisor supervisor(std::move(fleet));
        if (const Status st = supervisor.start(); !st.ok()) {
            warn("bpnsp_served: ", st.str());
            return 1;
        }
        obs::Registry::instance().setRunField(
            "serve_socket", supervisor.config().socketPath);
        obs::Registry::instance().setRunField(
            "fleet_workers",
            std::to_string(supervisor.config().workers));

        const auto start = std::chrono::steady_clock::now();
        while (!globalCancelToken().cancelled()) {
            if (maxSeconds > 0 &&
                std::chrono::steady_clock::now() - start >=
                    std::chrono::seconds(maxSeconds))
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        inform("bpnsp_served: draining the fleet");
        supervisor.drain();
        std::printf("bpnsp_served: drained cleanly\n");
        return 0;
    }

    // ---- single process / fleet worker ------------------------------
    if (const int64_t mb = opts.getInt("chunk-cache-mb"); mb > 0)
        DecodedChunkCache::instance().setCapacityBytes(
            static_cast<size_t>(mb) * 1024 * 1024);

    serve::ServeConfig config;
    config.socketPath = opts.getString("socket");
    config.tcpPort = static_cast<int>(opts.getInt("tcp-port"));
    config.workers = static_cast<unsigned>(opts.getInt("threads"));
    config.queueDepth =
        static_cast<size_t>(opts.getInt("queue-depth"));
    config.traceCacheDir = cacheDir;
    config.maxOpenReaders =
        static_cast<size_t>(opts.getInt("max-open-readers"));
    config.slowMs = static_cast<uint32_t>(opts.getInt("slow-ms"));
    config.maxInflightCostMs =
        static_cast<uint64_t>(opts.getInt("max-inflight-cost"));
    config.clientWeight =
        static_cast<unsigned>(opts.getInt("client-weight"));
    config.shedPolicy = opts.getString("shed-policy");

    // Continuous span capture for a long-lived daemon: --trace-dir
    // rotates bounded exports (newest N kept) instead of the one-shot
    // at-exit file --trace-out writes.
    const std::string traceDir = opts.getString("trace-dir");
    if (!traceDir.empty()) {
        obs::TraceRecorder::instance().setEnabled(true);
        obs::TraceRecorder::instance().startRotation(
            traceDir, static_cast<size_t>(opts.getInt("trace-files")),
            static_cast<uint64_t>(opts.getInt("trace-rotate-ms")));
    }

    serve::ServeServer server(std::move(config));
    if (const Status st = server.start(); !st.ok()) {
        warn("bpnsp_served: ", st.str());
        return 1;
    }
    obs::Registry::instance().setRunField("serve_socket",
                                          server.config().socketPath);

    // Idle until the signal token fires or the wall budget expires.
    // The serving work itself happens on the server's own threads. A
    // fleet worker also pulses its heartbeat from this loop and hosts
    // the chaos failpoints.
    const std::string heartbeatFile = opts.getString("heartbeat-file");
    if (workerIdx >= 0 && !heartbeatFile.empty()) {
        workerIdleLoop(
            heartbeatFile,
            static_cast<uint64_t>(opts.getInt("heartbeat-ms")),
            static_cast<int>(workerIdx));
    } else {
        const auto start = std::chrono::steady_clock::now();
        while (!globalCancelToken().cancelled()) {
            if (maxSeconds > 0 &&
                std::chrono::steady_clock::now() - start >=
                    std::chrono::seconds(maxSeconds))
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
    }

    inform("bpnsp_served: draining (in-flight requests finish, "
           "listener closed)");
    server.drain();
    if (!traceDir.empty())
        obs::TraceRecorder::instance().stopRotation();

    // The run report flushes through the --metrics-out atexit hook
    // (obs::configureFromOptions), after the drain has settled every
    // serve.* counter.
    std::printf("bpnsp_served: drained cleanly\n");
    return 0;
}
