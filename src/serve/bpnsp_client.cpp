/**
 * @file
 * bpnsp_client: command-line client for a running bpnsp_served.
 *
 * Single-request mode (--op=ping|simulate|branch-stats|h2p|
 * materialize|health) prints one human-readable result; --op=stats
 * pulls the server's live metric-registry snapshot (add --watch to
 * poll it; the watch survives daemon restarts by reconnecting with
 * backoff); --op=loadgen runs the closed-loop load generator (N
 * concurrent clients, optional randomized kills and reply
 * verification) and prints its aggregate tally.
 *
 * --retries=N arms the client-side retry policy (serve/client.hpp):
 * idempotent requests that fail retryably — UNAVAILABLE from a
 * respawning fleet shard, BUSY, admission rejection, a dropped
 * connection — are retried up to N extra times with jittered
 * exponential backoff. This is how a client rides out fleet worker
 * crashes without scripting a loop.
 *
 * Examples:
 *   bpnsp_client --socket=/tmp/b.sock --op=ping
 *   bpnsp_client --socket=/tmp/b.sock --op=simulate \
 *       --workload=mcf_like --predictor=gshare \
 *       --instructions=200000 --first=50000 --count=100000
 *   bpnsp_client --socket=/tmp/b.sock --op=health
 *   bpnsp_client --socket=/tmp/b.sock --op=stats --watch
 *   bpnsp_client --socket=/tmp/b.sock --op=loadgen --clients=32 \
 *       --requests=64 --kill-prob=0.05 --verify --retries=4
 *
 * Exit status: 0 on an Ok reply (loadgen: no transport errors and no
 * verify mismatches), 1 otherwise.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "util/json.hpp"

#include "core/runner.hpp"
#include "serve/client.hpp"
#include "trace/record.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"

using namespace bpnsp;
using namespace bpnsp::serve;

namespace {

/** The --retries/--retry-*-ms knobs as a RetryPolicy. */
RetryPolicy
retryPolicyFromOptions(const OptionParser &opts)
{
    RetryPolicy policy;
    policy.maxAttempts =
        1 + static_cast<unsigned>(opts.getInt("retries"));
    policy.baseBackoffMs =
        static_cast<uint64_t>(opts.getInt("retry-base-ms"));
    policy.maxBackoffMs =
        static_cast<uint64_t>(opts.getInt("retry-cap-ms"));
    policy.seed = static_cast<uint64_t>(opts.getInt("seed"));
    return policy;
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

int
runOne(const OptionParser &opts, const std::string &op)
{
    ServeClient client;
    Status st;
    if (const int64_t port = opts.getInt("tcp-port"); port > 0)
        st = client.connectTcp(static_cast<int>(port));
    else
        st = client.connectUnix(opts.getString("socket"));
    if (!st.ok()) {
        warn("bpnsp_client: ", st.str());
        return 1;
    }
    client.setRetryPolicy(retryPolicyFromOptions(opts));
    client.setHedgeMs(static_cast<uint64_t>(opts.getInt("hedge-ms")));

    if (op == "health") {
        std::vector<ShardHealth> shards;
        st = client.health(&shards);
        if (!st.ok()) {
            warn("bpnsp_client: ", st.str());
            return 1;
        }
        std::printf("health: %zu shard(s)\n", shards.size());
        bool allReady = true;
        for (const ShardHealth &row : shards) {
            std::printf("  shard %u: %-10s pid=%llu restarts=%u "
                        "deaths=%u queue=%u queued_cost_ms=%llu\n",
                        row.shard, shardStateName(row.state),
                        static_cast<unsigned long long>(row.pid),
                        row.restarts, row.deaths, row.queueDepth,
                        static_cast<unsigned long long>(
                            row.queuedCostMs));
            if (row.state != ShardHealth::Ready)
                allReady = false;
        }
        return allReady ? 0 : 1;
    }

    ServeRequest request;
    request.workload = opts.getString("workload");
    request.inputIdx = static_cast<uint32_t>(opts.getInt("input"));
    request.instructions =
        static_cast<uint64_t>(opts.getInt("instructions"));
    request.predictor = opts.getString("predictor");
    request.first = static_cast<uint64_t>(opts.getInt("first"));
    request.count = static_cast<uint64_t>(opts.getInt("count"));
    request.sliceLength =
        static_cast<uint64_t>(opts.getInt("slice"));
    request.topK = static_cast<uint32_t>(opts.getInt("top"));
    request.deadlineMs =
        static_cast<uint32_t>(opts.getInt("deadline-ms"));

    if (op == "ping") {
        request.type = MessageType::Ping;
    } else if (op == "simulate") {
        request.type = MessageType::Simulate;
    } else if (op == "branch-stats") {
        request.type = MessageType::BranchStats;
    } else if (op == "h2p") {
        request.type = MessageType::H2p;
    } else if (op == "materialize") {
        request.type = MessageType::Materialize;
    } else {
        fatal("unknown --op \"", op,
              "\" (want ping|simulate|branch-stats|h2p|materialize|"
              "health|stats|loadgen)");
    }

    ServeReply reply;
    st = client.call(request, &reply);
    if (!st.ok()) {
        warn("bpnsp_client: ", st.str());
        return 1;
    }
    if (reply.code != WireCode::Ok) {
        std::printf("%s: %s\n", wireCodeName(reply.code),
                    reply.message.c_str());
        return 1;
    }

    switch (reply.type) {
      case MessageType::PingReply:
        std::printf("pong: %s\n", reply.serverInfo.c_str());
        break;
      case MessageType::SimulateReply:
        std::printf("simulate %s/%s: %llu records, %llu cond execs, "
                    "%llu mispredicts, accuracy %.6f\n",
                    request.workload.c_str(),
                    request.predictor.c_str(),
                    static_cast<unsigned long long>(reply.delivered),
                    static_cast<unsigned long long>(reply.condExecs),
                    static_cast<unsigned long long>(
                        reply.condMispreds),
                    bitsDouble(reply.accuracyBits));
        break;
      case MessageType::BranchStatsReply:
        std::printf("branch stats %s/%s: %llu records, %llu cond "
                    "execs, %llu mispredicts, %zu branch row(s)\n",
                    request.workload.c_str(),
                    request.predictor.c_str(),
                    static_cast<unsigned long long>(reply.delivered),
                    static_cast<unsigned long long>(reply.condExecs),
                    static_cast<unsigned long long>(
                        reply.condMispreds),
                    reply.branches.size());
        for (const BranchRow &row : reply.branches)
            std::printf("  ip=0x%llx execs=%llu mispreds=%llu "
                        "taken=%llu\n",
                        static_cast<unsigned long long>(row.ip),
                        static_cast<unsigned long long>(row.execs),
                        static_cast<unsigned long long>(row.mispreds),
                        static_cast<unsigned long long>(row.taken));
        // Target columns: the server sends the per-class block in the
        // analysis layer's stable class order (Call, Ret, JumpInd,
        // CallInd); print it as received so output is byte-stable
        // across runs. Absent from pre-frontend servers.
        for (const TargetClassStat &row : reply.targetClasses)
            std::printf("  target-class %s: execs=%llu "
                        "target-mispreds=%llu\n",
                        instrClassName(
                            static_cast<InstrClass>(row.cls)),
                        static_cast<unsigned long long>(row.execs),
                        static_cast<unsigned long long>(
                            row.targetMispreds));
        break;
      case MessageType::H2pReply:
        std::printf("h2p %s/%s: %zu H2P ip(s) over %llu slice(s), "
                    "avg/slice %.2f, avg mispred fraction %.4f\n",
                    request.workload.c_str(),
                    request.predictor.c_str(), reply.h2pIps.size(),
                    static_cast<unsigned long long>(reply.slices),
                    bitsDouble(reply.avgPerSliceBits),
                    bitsDouble(reply.avgMispredFractionBits));
        for (const uint64_t ip : reply.h2pIps)
            std::printf("  0x%llx\n",
                        static_cast<unsigned long long>(ip));
        break;
      case MessageType::MaterializeReply:
        std::printf("materialized %s input %u: digest %s, %llu "
                    "records at %s\n",
                    request.workload.c_str(), request.inputIdx,
                    reply.digest.c_str(),
                    static_cast<unsigned long long>(reply.records),
                    reply.path.c_str());
        break;
      default:
        std::printf("unexpected reply type %s\n",
                    messageTypeName(reply.type));
        return 1;
    }
    return 0;
}

/** "123456789" -> "123,456,789" (stats tables only). */
std::string
withThousands(uint64_t v)
{
    std::string digits = std::to_string(v);
    std::string out;
    const size_t n = digits.size();
    for (size_t i = 0; i < n; ++i) {
        if (i != 0 && (n - i) % 3 == 0)
            out += ',';
        out += digits[i];
    }
    return out;
}

/** One quantile cell: ns as a human latency, "-" when null. */
std::string
quantileCell(const JsonValue &hist, const char *key)
{
    const JsonValue &v = hist.get(key);
    if (!v.isNumber())
        return "-";
    const double ns = v.asDouble();
    char buf[32];
    if (ns >= 1e9)
        std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
    else if (ns >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
    else if (ns >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0fns", ns);
    return buf;
}

/**
 * Render one bpnsp-stats-v1 document for a terminal. Parse failures
 * degrade to printing the raw JSON: a newer server must stay
 * inspectable from an older client.
 */
void
printStatsPretty(const std::string &json, uint64_t trace_id)
{
    JsonValue doc;
    if (!JsonValue::parse(json, &doc).ok() || !doc.isObject()) {
        std::fputs(json.c_str(), stdout);
        return;
    }
    std::printf("%s  git %s  wall %.1fs  (stats trace id %llu)\n",
                doc.get("schema").asString().c_str(),
                doc.get("git").asString().c_str(),
                doc.get("wall_seconds").asDouble(),
                static_cast<unsigned long long>(trace_id));

    std::printf("counters:\n");
    for (const auto &[name, value] : doc.get("counters").members())
        std::printf("  %-32s %s\n", name.c_str(),
                    withThousands(value.asUint()).c_str());

    if (!doc.get("gauges").members().empty()) {
        std::printf("gauges:\n");
        for (const auto &[name, value] : doc.get("gauges").members())
            std::printf("  %-32s %.6g\n", name.c_str(),
                        value.asDouble());
    }

    if (!doc.get("histograms").members().empty()) {
        std::printf("histograms:%*s count      p50      p90      p99"
                    "     p999\n",
                    24, "");
        for (const auto &[name, h] : doc.get("histograms").members())
            std::printf("  %-32s %7llu %8s %8s %8s %8s\n", name.c_str(),
                        static_cast<unsigned long long>(
                            h.get("count").asUint()),
                        quantileCell(h, "p50").c_str(),
                        quantileCell(h, "p90").c_str(),
                        quantileCell(h, "p99").c_str(),
                        quantileCell(h, "p999").c_str());
    }
}

/**
 * --op=stats: pull the live snapshot once, or poll it with --watch.
 * --raw prints the JSON document verbatim for scripts.
 *
 * A watch is a monitoring loop, so a daemon restart mid-watch must
 * not kill it: on a dropped connection the watch reconnects with
 * capped backoff and keeps polling. One-shot mode (no --watch) keeps
 * strict fail-fast semantics for scripts.
 */
int
runStats(const OptionParser &opts)
{
    ServeClient client;
    Status st;
    if (const int64_t port = opts.getInt("tcp-port"); port > 0)
        st = client.connectTcp(static_cast<int>(port));
    else
        st = client.connectUnix(opts.getString("socket"));

    const bool raw = opts.getFlag("raw");
    const bool watch = opts.getFlag("watch");
    const int64_t watchMs = opts.getInt("watch-ms");
    if (!st.ok()) {
        warn("bpnsp_client: ", st.str());
        if (!watch)
            return 1;
    }

    uint64_t reconnectBackoffMs = 0;
    for (;;) {
        std::string json;
        uint64_t traceId = 0;
        st = client.connected() ? client.stats(&json, &traceId)
                                : Status::unavailable("not connected");
        if (!st.ok()) {
            if (!watch) {
                warn("bpnsp_client: ", st.str());
                return 1;
            }
            // Daemon gone (restart, crash, drain): back off, then try
            // the endpoint again. The watch outlives the daemon.
            client.close();
            reconnectBackoffMs =
                reconnectBackoffMs == 0
                    ? 100
                    : std::min<uint64_t>(reconnectBackoffMs * 2, 2000);
            warn("bpnsp_client: ", st.str(), "; reconnecting in ",
                 reconnectBackoffMs, " ms");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(reconnectBackoffMs));
            client.reconnect();
            continue;
        }
        reconnectBackoffMs = 0;
        if (raw)
            std::fputs(json.c_str(), stdout);
        else
            printStatsPretty(json, traceId);
        std::fflush(stdout);
        if (!watch)
            return 0;
        std::printf("\n");
        std::this_thread::sleep_for(
            std::chrono::milliseconds(watchMs > 0 ? watchMs : 1000));
    }
}

int
runLoad(const OptionParser &opts)
{
    LoadGenConfig cfg;
    cfg.socketPath = opts.getString("socket");
    cfg.clients = static_cast<unsigned>(opts.getInt("clients"));
    cfg.requestsPerClient =
        static_cast<unsigned>(opts.getInt("requests"));
    cfg.workload = opts.getString("workload");
    cfg.inputIdx = static_cast<uint32_t>(opts.getInt("input"));
    cfg.instructions =
        static_cast<uint64_t>(opts.getInt("instructions"));
    cfg.predictors = splitCsv(opts.getString("predictor"));
    if (cfg.predictors.empty())
        cfg.predictors = {"gshare"};
    cfg.sliceRecords = static_cast<uint64_t>(opts.getInt("count"));
    cfg.killProb = opts.getDouble("kill-prob");
    cfg.seed = static_cast<uint64_t>(opts.getInt("seed"));
    cfg.verify = opts.getFlag("verify");
    cfg.retry = retryPolicyFromOptions(opts);
    cfg.openLoopHz = opts.getDouble("open-loop-hz");
    cfg.interactiveFraction = opts.getDouble("interactive-frac");
    cfg.deadlineMs =
        static_cast<uint32_t>(opts.getInt("deadline-ms"));
    cfg.hedgeMs = static_cast<uint64_t>(opts.getInt("hedge-ms"));

    const LoadGenResult result = runLoadGen(cfg);
    std::printf(
        "loadgen: %u client(s) x %u request(s): %llu ok, %llu "
        "rejected, %llu error(s), %llu transport, %llu killed, %llu "
        "mismatch(es), %llu retried (%llu retries, %llu gave up, "
        "first-try %.4f) in %.2fs (%.0f req/s, p50 %.2fms, p99 "
        "%.2fms)\n",
        cfg.clients, cfg.requestsPerClient,
        static_cast<unsigned long long>(result.ok),
        static_cast<unsigned long long>(result.rejected),
        static_cast<unsigned long long>(result.errors),
        static_cast<unsigned long long>(result.transport),
        static_cast<unsigned long long>(result.killed),
        static_cast<unsigned long long>(result.mismatches),
        static_cast<unsigned long long>(result.retried),
        static_cast<unsigned long long>(result.retries),
        static_cast<unsigned long long>(result.gaveUp),
        result.firstTryFraction(), result.elapsedSeconds,
        result.requestsPerSecond(), result.p50Ms, result.p99Ms);
    // Machine-parsable overload line (one key=value row the soak
    // script greps): per-class tails plus the shed/expire/hedge story.
    std::printf(
        "loadgen-overload: interactive_p50_ms=%.3f "
        "interactive_p99_ms=%.3f batch_p50_ms=%.3f batch_p99_ms=%.3f "
        "expired=%llu hedges=%llu hedge_wins=%llu rejected=%llu "
        "ok=%llu mismatches=%llu\n",
        result.interactiveP50Ms, result.interactiveP99Ms,
        result.batchP50Ms, result.batchP99Ms,
        static_cast<unsigned long long>(result.expired),
        static_cast<unsigned long long>(result.hedges),
        static_cast<unsigned long long>(result.hedgeWins),
        static_cast<unsigned long long>(result.rejected),
        static_cast<unsigned long long>(result.ok),
        static_cast<unsigned long long>(result.mismatches));

    if (result.mismatches != 0)
        return 1;
    // Kills close connections deliberately, so transport errors are
    // only fatal in a kill-free run.
    if (cfg.killProb == 0.0 && result.transport != 0)
        return 1;
    return result.ok == 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("Query a running bpnsp_served.");
    opts.addString("socket", "bpnsp_served.sock",
                   "server UNIX-domain socket path");
    opts.addInt("tcp-port", 0,
                "connect to 127.0.0.1:PORT instead of the socket");
    opts.addString("op", "ping",
                   "ping|simulate|branch-stats|h2p|materialize|health|"
                   "stats|loadgen");
    opts.addString("workload", "mcf_like", "workload name");
    opts.addInt("input", 0, "workload input index");
    opts.addInt("instructions", 200000, "trace length (cache key)");
    opts.addString("predictor", "gshare",
                   "predictor name (loadgen: comma-separated pool)");
    opts.addInt("first", 0, "simulate: slice start record");
    opts.addInt("count", 0,
                "simulate: slice record count (0 = to end; loadgen: "
                "random slice width, 0 = whole trace)");
    opts.addInt("slice", 0,
                "branch-stats/h2p: slice length (0 = whole trace)");
    opts.addInt("top", 0, "branch-stats: top-K rows (0 = all)");
    opts.addFlag("watch", "stats: poll the snapshot until killed");
    opts.addInt("watch-ms", 1000, "stats: --watch poll period");
    opts.addFlag("raw", "stats: print the JSON document verbatim");
    opts.addInt("deadline-ms", 0, "per-request deadline (0 = none)");
    opts.addInt("hedge-ms", 0,
                "hedge idempotent requests on a second connection "
                "after N ms / the observed p95 (0 = off)");
    opts.addInt("clients", 4, "loadgen: concurrent clients");
    opts.addInt("requests", 32, "loadgen: requests per client");
    opts.addDouble("open-loop-hz", 0.0,
                   "loadgen: per-client open-loop send rate in req/s "
                   "(0 = closed loop); offered load does not slow "
                   "down when the server does");
    opts.addDouble("interactive-frac", 0.0,
                   "loadgen: fraction of requests sent as interactive "
                   "BranchStats reads");
    opts.addDouble("kill-prob", 0.0,
                   "loadgen: P(vanish before reading the reply)");
    opts.addInt("seed", 1, "loadgen: randomization seed");
    opts.addInt("retries", 0,
                "extra attempts for retryable failures of idempotent "
                "requests (0 = single-shot)");
    opts.addInt("retry-base-ms", 10, "first retry's backoff scale");
    opts.addInt("retry-cap-ms", 1000, "retry backoff cap");
    opts.addFlag("verify",
                 "loadgen: check every Ok reply bit-for-bit against "
                 "a direct in-process run (needs --trace-cache "
                 "pointing at the server's corpus)");
    opts.addString("trace-cache", "",
                   "trace corpus directory (verify mode)");
    opts.parse(argc, argv);

    if (const std::string &dir = opts.getString("trace-cache");
        !dir.empty())
        setTraceCacheDir(dir);
    else if (opts.getFlag("verify"))
        fatal("--verify needs --trace-cache: the server's corpus");

    const std::string op = opts.getString("op");
    if (op == "loadgen")
        return runLoad(opts);
    if (op == "stats")
        return runStats(opts);
    return runOne(opts, op);
}
