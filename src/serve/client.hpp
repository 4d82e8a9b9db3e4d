/**
 * @file
 * Client side of bpnsp-serve-v1: a small blocking client (one
 * outstanding request per connection) plus a closed-loop load
 * generator for the latency bench and the soak test.
 *
 * The client is deliberately simple — connect, send one frame, block
 * for the matching reply — because every caller here (CLI, tests,
 * bench workers) wants request/reply semantics; concurrency comes from
 * running many clients against the server's worker pool.
 *
 * Retry contract (fleet mode): a RetryPolicy makes call() retry — with
 * bounded, jittered exponential backoff — when the failure is
 * *retryable* (UNAVAILABLE from a respawning/degraded shard, BUSY,
 * RESOURCE_EXHAUSTED admission rejection, or a transport error on a
 * request the client never saw answered) AND the request type is
 * idempotent. Every request this repo serves is a pure read or a
 * content-addressed materialization, so all request types qualify —
 * but the gate is structural (isIdempotentRequest), so a future
 * mutating type is excluded by default, not by vigilance. The server's
 * retry-after hint (reply.retryAfterMs) is a floor on the backoff.
 * serve.client.retries / serve.client.gave_up count what the policy
 * did; each give-up also bumps serve.client.gave_up.<code> with the
 * terminal wire code, so a soak can tell shed from corrupt from
 * timeout.
 *
 * Hedge contract (tail tolerance): with setHedgeMs(ms != 0), an
 * idempotent call that has not been answered after the observed p95
 * latency (floored by `ms`; `ms` alone until enough samples exist)
 * is re-sent on a *second* connection. The first reply wins; the
 * loser's connection gets a Cancel frame for its request id — so the
 * server can shed or cancel the duplicate before it costs more
 * worker time — and is closed. serve.hedges / serve.hedge_wins count
 * the decisions; both replies are bit-identical when they do race to
 * completion, because every hedged op is a pure read.
 */

#ifndef BPNSP_SERVE_CLIENT_HPP
#define BPNSP_SERVE_CLIENT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "util/status.hpp"

namespace bpnsp::serve {

/**
 * True for request types a client may safely re-send when it cannot
 * know whether the server executed the first attempt: pure reads and
 * content-addressed idempotent writes. The retry policy refuses to
 * retry anything else.
 */
bool isIdempotentRequest(MessageType type);

/** True for the reply codes that mean "retry later, it may clear". */
bool isRetryableCode(WireCode code);

/** Bounded, jittered exponential backoff for retryable failures. */
struct RetryPolicy
{
    unsigned maxAttempts = 1;    ///< total tries; 1 = never retry
    uint64_t baseBackoffMs = 10; ///< first retry's backoff scale
    uint64_t maxBackoffMs = 1000; ///< backoff cap
    uint64_t seed = 1;           ///< jitter stream seed
};

/** Blocking request/reply client over one connection. */
class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Connect to a UNIX-domain socket path. */
    Status connectUnix(const std::string &socket_path);

    /** Connect to the loopback TCP listener. */
    Status connectTcp(int port);

    /**
     * Re-establish the last connectUnix/connectTcp endpoint (retry
     * path: a respawned worker means a fresh socket).
     */
    Status reconnect();

    bool connected() const { return fd >= 0; }

    void close();

    /**
     * Retry discipline for call() and the probes built on it. The
     * default policy (maxAttempts = 1) never retries, preserving
     * strict single-shot semantics for callers that do their own
     * failure handling.
     */
    void setRetryPolicy(const RetryPolicy &policy);
    const RetryPolicy &retryPolicy() const { return policy; }

    /**
     * Attempts beyond the first across this client's lifetime, and
     * calls abandoned with a retryable failure after the budget
     * (mirrors the serve.client.{retries,gave_up} counters).
     */
    uint64_t retriesObserved() const { return retriesTally; }
    uint64_t gaveUpObserved() const { return gaveUpTally; }

    /**
     * Hedged-request policy: 0 (default) disables hedging; non-zero
     * arms it for idempotent calls, as the floor (and cold-start
     * value) of the observed-p95 hedge delay.
     */
    void setHedgeMs(uint64_t ms) { hedgeMs = ms; }
    uint64_t hedgesObserved() const { return hedgesTally; }
    uint64_t hedgeWinsObserved() const { return hedgeWinsTally; }

    /**
     * Send `request` and block for the reply, retrying per the policy
     * when the request is idempotent and the failure retryable
     * (reconnecting first if the transport dropped). Protocol-level
     * failures (connection loss, malformed reply, id mismatch) come
     * back as a Status; application-level failures arrive as an Ok
     * Status with reply->code != WireCode::Ok.
     */
    Status call(const ServeRequest &request, ServeReply *reply);

    /** Liveness probe; fills `info` from the server's PingReply. */
    Status ping(std::string *info);

    /**
     * Live metric snapshot: a bpnsp-stats-v1 JSON document rendered by
     * the server's io thread (never queued behind workers, so it works
     * under full load and during a drain). `trace_id_out` (optional)
     * receives the server-assigned trace id — 0 from a pre-tracing
     * server.
     */
    Status stats(std::string *json, uint64_t *trace_id_out = nullptr);

    /**
     * Per-shard readiness probe (Health/HealthReply). A single-process
     * server answers one ready row; a fleet supervisor answers one row
     * per shard. Answered from the io thread, so it works under full
     * load and mid-drain.
     */
    Status health(std::vector<ShardHealth> *shards);

    /**
     * Send a request and do NOT wait for the reply. Used by the load
     * generator's randomized client kills (send, vanish) to prove the
     * server shrugs off peers that disappear mid-request.
     */
    Status fireAndForget(const ServeRequest &request);

  private:
    Status callOnce(const ServeRequest &request, ServeReply *reply);
    Status callHedged(const ServeRequest &request, ServeReply *reply);
    Status sendFrame(MessageType type, uint64_t request_id,
                     const std::vector<uint8_t> &payload);
    Status recvReply(uint64_t expect_id, ServeReply *reply);
    Status sendFrameFd(int dst_fd, MessageType type, uint64_t request_id,
                       const std::vector<uint8_t> &payload);
    Status recvReplyFd(int src_fd, uint64_t expect_id,
                       ServeReply *reply);
    int openEndpointFd(Status *status);
    uint64_t hedgeDelayMs() const;
    void recordLatencyMs(double ms);

    int fd = -1;
    uint64_t nextRequestId = 1;

    RetryPolicy policy;
    uint64_t jitterState = 0;   ///< lazily seeded from policy.seed
    uint64_t retriesTally = 0;
    uint64_t gaveUpTally = 0;

    uint64_t hedgeMs = 0;        ///< 0 = hedging off
    uint64_t hedgesTally = 0;
    uint64_t hedgeWinsTally = 0;

    // Sliding reservoir of recent reply latencies; once it has enough
    // samples the hedge delay tracks its p95 instead of the floor.
    std::vector<double> recentMs;
    size_t recentNext = 0;

    // Remembered endpoint for reconnect() (kUnset = never connected).
    enum class Endpoint { None, Unix, Tcp };
    Endpoint endpoint = Endpoint::None;
    std::string endpointPath;
    int endpointPort = 0;
};

/** Knobs of one closed-loop load-generation run. */
struct LoadGenConfig
{
    std::string socketPath;
    unsigned clients = 4;           ///< concurrent connections
    unsigned requestsPerClient = 32;
    std::string workload = "mcf_like";
    uint32_t inputIdx = 0;
    uint64_t instructions = 200000;
    std::vector<std::string> predictors = {"gshare"};
    uint64_t sliceRecords = 0;      ///< slice width (0 = whole trace)
    double killProb = 0.0;          ///< P(disconnect before reply)
    uint64_t seed = 1;              ///< drives slice + kill draws
    bool verify = false;            ///< check replies vs direct runs
    RetryPolicy retry;              ///< per-client retry discipline

    /**
     * Open-loop send rate per client in requests/second (0 = closed
     * loop: send, wait for the reply, send again). Open loop is what
     * makes oversubscription honest — a slow server does not slow the
     * arrival process, it grows the queue.
     */
    double openLoopHz = 0.0;

    /** Fraction of requests sent as interactive BranchStats reads. */
    double interactiveFraction = 0.0;

    /** Per-request deadline stamped on the wire (0 = none). */
    uint32_t deadlineMs = 0;

    /** Client hedging floor in ms (0 = off); see setHedgeMs(). */
    uint64_t hedgeMs = 0;
};

/** What the closed loop observed. */
struct LoadGenResult
{
    uint64_t attempted = 0;  ///< requests sent
    uint64_t ok = 0;         ///< Ok replies
    uint64_t rejected = 0;   ///< RESOURCE_EXHAUSTED / BUSY replies
    uint64_t errors = 0;     ///< other error replies
    uint64_t transport = 0;  ///< connection-level failures
    uint64_t killed = 0;     ///< deliberate client-side disconnects
    uint64_t mismatches = 0; ///< verify failures (must stay 0)
    uint64_t retried = 0;    ///< requests that needed >= 1 retry
    uint64_t retries = 0;    ///< total extra attempts
    uint64_t gaveUp = 0;     ///< retry budget exhausted, still failing
    uint64_t expired = 0;    ///< DEADLINE_EXCEEDED replies
    uint64_t hedges = 0;     ///< hedge requests issued
    uint64_t hedgeWins = 0;  ///< hedges that beat the primary
    double elapsedSeconds = 0.0;
    double p50Ms = 0.0;      ///< exact percentiles over all replies
    double p99Ms = 0.0;
    // Per-priority-class percentiles (0 when the class saw no Ok
    // reply): interactive = BranchStats, batch = everything else.
    double interactiveP50Ms = 0.0;
    double interactiveP99Ms = 0.0;
    double batchP50Ms = 0.0;
    double batchP99Ms = 0.0;

    /** 1.0 = every request answered on its first attempt. */
    double
    firstTryFraction() const
    {
        if (attempted == 0)
            return 1.0;
        return 1.0 - static_cast<double>(retried) /
                         static_cast<double>(attempted);
    }

    double
    requestsPerSecond() const
    {
        if (elapsedSeconds <= 0.0)
            return 0.0;
        return static_cast<double>(ok) / elapsedSeconds;
    }
};

/**
 * Run `clients` concurrent closed loops of Simulate requests against a
 * server and aggregate what they saw. With cfg.verify, every Ok reply
 * is checked bit-for-bit against a direct in-process run of the same
 * slice. Latency percentiles are exact (computed from the full sample
 * vector, not a histogram estimate).
 */
LoadGenResult runLoadGen(const LoadGenConfig &cfg);

} // namespace bpnsp::serve

#endif // BPNSP_SERVE_CLIENT_HPP
