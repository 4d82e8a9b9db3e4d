/**
 * @file
 * `bpnsp_served`'s engine: a concurrent trace/simulation query service
 * over the shared mmap'd trace store corpus.
 *
 * Architecture (see DESIGN.md "Serving"):
 *
 *  - One I/O thread owns accept() on the UNIX-domain listener (plus an
 *    optional loopback TCP listener behind a flag) and a poll() loop
 *    over every live connection. It assembles length-prefixed frames
 *    incrementally, validates magic/version/length *before* buffering
 *    a payload, verifies the payload checksum, and decodes requests.
 *    Malformed input of any kind — truncated frame, oversized length
 *    prefix, corrupt checksum, mid-frame disconnect — produces a clean
 *    Status, a best-effort Error reply, and a closed connection; never
 *    a crash.
 *  - Admission is cost-aware and fair (DESIGN.md "Overload"): each
 *    request gets an estimated cost (work units × op-class ns/unit,
 *    refined online from observed execute times, × a cold/warm
 *    reader-cache multiplier) and is queued into a per-client
 *    (SO_PEERCRED) weighted deficit queue at one of two priorities
 *    (interactive BranchStats above batch Simulate/Materialize/H2p).
 *    When the queue is full by count (queueDepth) or by estimated
 *    work (maxInflightCostMs) the scheduler sheds from the heaviest
 *    over-quota client first — newest batch work first — answering
 *    RESOURCE_EXHAUSTED with a retry-after hint (serve.rejected,
 *    serve.shed); backpressure stays explicit and memory bounded
 *    under any offered load. Requests whose deadline can no longer be
 *    met are swept out with DEADLINE_EXCEEDED before consuming worker
 *    time (serve.expired), and a Cancel frame sheds or cancels its
 *    target (serve.cancels) — the hedge-loser reclamation path.
 *  - A fixed pool of worker threads pops one request at a time and
 *    dispatches it to its op's handler, which replays the shared
 *    mmap'd store into that request's own sinks. The in-memory
 *    decoded-chunk LRU (tracestore/chunk_cache.hpp) sits below this,
 *    so concurrent requests on a hot trace skip the varint decode.
 *  - Each request runs under its own CancelToken carrying the
 *    client-supplied deadline, parented to the server's stop token —
 *    deliberately *not* to the process-global signal token, so a
 *    SIGTERM drain lets in-flight requests finish while the listener
 *    is already closed. stop() fires the stop token for a hard cut.
 *  - Cold traces are generated on demand by captureTrace()
 *    (core/runner.hpp): one VM pass recorded into a staging file and
 *    published atomically into the corpus, serialized per digest so
 *    concurrent requests for the same cold trace generate it once.
 *    Busy (a peer process holds the generation lock), a cancellation
 *    or an I/O failure becomes the request's reply.
 *  - A replay that hits CorruptData part-way quarantines the entry and
 *    drops its reader, whatever the op, so the next request
 *    regenerates the trace (settleReplay).
 *
 * Thread-safety: start(), drain(), and stop() are for the owning
 * thread; everything else is internal.
 */

#ifndef BPNSP_SERVE_SERVER_HPP
#define BPNSP_SERVE_SERVER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/store.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "workloads/workload.hpp"

namespace bpnsp::serve {

/** Everything a server needs. */
struct ServeConfig
{
    std::string socketPath;    ///< UNIX-domain socket (required)
    int tcpPort = 0;           ///< optional loopback TCP (0 = off)
    unsigned workers = 4;      ///< fixed worker pool size
    size_t queueDepth = 64;    ///< bounded admission queue
    std::string traceCacheDir; ///< on-disk corpus (required)
    size_t maxOpenReaders = 32; ///< mmap'd reader LRU cap

    /**
     * Cost-aware admission bound: the maximum *estimated* queued plus
     * in-flight work, in milliseconds of predicted execute time
     * (0 = count-only admission via queueDepth). With it set, 64
     * cached stats queries and 2 cold Simulates stop being "the same"
     * queue pressure.
     */
    uint64_t maxInflightCostMs = 0;

    /**
     * Fair-share quantum weight: how much estimated work (multiples
     * of a 10 ms quantum) each client's deficit counter earns per
     * scheduling round. Larger values trade fairness granularity for
     * fewer round-robin passes.
     */
    unsigned clientWeight = 1;

    /**
     * Shed victim selection when admission overflows: "heaviest"
     * (default) sheds the newest batch work of the client holding the
     * most estimated queued work — the abusive client absorbs the
     * sheds; "tail" always rejects the arriving request (the pre-
     * overload behavior).
     */
    std::string shedPolicy = "heaviest";

    /**
     * Slow-request threshold in milliseconds (0 = off). A request
     * whose accept-to-reply wall time crosses it is counted in
     * `serve.slow_requests` and logged as a structured
     * `serve.slow_request` warn line carrying its trace id and — when
     * span recording is on — its whole span tree, offsets relative to
     * admission.
     */
    uint32_t slowMs = 0;
};

/** The serving engine. */
class ServeServer
{
  public:
    explicit ServeServer(ServeConfig config);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /**
     * Bind, listen, and spawn the I/O thread plus the worker pool.
     * InvalidArgument for a missing socket path or trace cache dir,
     * IoError when the OS refuses the socket.
     */
    Status start();

    /**
     * Graceful drain: close the listeners (no new connections, no new
     * requests), let the queue empty and in-flight requests finish,
     * then shut the pool down and close every connection. Idempotent.
     */
    void drain();

    /**
     * Hard stop: fire the stop token (cancelling in-flight requests at
     * their next poll), then drain the machinery. Idempotent.
     */
    void stop();

    bool running() const { return started && !stopped; }

    const ServeConfig &config() const { return cfg; }

    /** The bound TCP port (0 when TCP is off); valid after start(). */
    int boundTcpPort() const { return tcpPortBound; }

  private:
    struct Conn;
    struct Pending;
    struct PeerQueue;
    struct FrontendMemo;

    // --- I/O side (io thread) ---
    void ioLoop();
    void acceptOne(int listen_fd);
    void readConn(const std::shared_ptr<Conn> &conn);
    void parseFrames(const std::shared_ptr<Conn> &conn);
    void admit(const std::shared_ptr<Conn> &conn,
               const FrameHeader &header, ServeRequest request);
    void handleCancel(const std::shared_ptr<Conn> &conn,
                      const FrameHeader &header,
                      const ServeRequest &request);

    // --- admission scheduler (queueMu held unless noted) ---
    void estimateCost(Pending *pending);
    void noteObservedCost(MessageType type, uint64_t units,
                          uint64_t exec_ns, bool warm);
    PeerQueue &peerQueueFor(uint64_t peer);
    bool overCapacityLocked(uint64_t arriving_cost_ns) const;
    uint32_t retryAfterMsLocked() const;
    void removeQueuedLocked(const Pending &pending);
    void sweepExpiredLocked(std::vector<Pending> *expired);
    bool popNextLocked(Pending *out);
    void updateQueueGaugesLocked();

    // --- worker side ---
    void workerLoop();
    bool popRequest(Pending *out);
    void execute(Pending p);
    ServeReply executeSimulate(const ServeRequest &request);
    ServeReply executeBranchStats(const ServeRequest &request);
    ServeReply executeH2p(const ServeRequest &request);
    ServeReply executeMaterialize(const ServeRequest &request);

    // --- shared helpers ---
    void sendReply(const std::shared_ptr<Conn> &conn,
                   uint64_t request_id, const ServeReply &reply);
    void sendError(const std::shared_ptr<Conn> &conn,
                   uint64_t request_id, WireCode code,
                   const std::string &message, uint64_t trace_id = 0,
                   uint32_t retry_after_ms = 0);
    void logSlowRequest(const Pending &pending, uint64_t wall_ns);
    void closeConn(const std::shared_ptr<Conn> &conn);

    /** Non-fatal workload lookup (nullptr when unknown). */
    const Workload *findServableWorkload(const std::string &name);

    /** Validate the common request fields; Ok or InvalidArgument. */
    Status validateRequest(const ServeRequest &request,
                           const Workload **workload_out);

    /**
     * The open reader for (workload, input, instructions),
     * materializing and publishing the trace first when cold. When
     * `frontend` is given it receives the entry's frontend memo.
     */
    std::shared_ptr<TraceStoreReader>
    ensureReader(const Workload &workload, const ServeRequest &request,
                 Status *status,
                 std::shared_ptr<FrontendMemo> *frontend = nullptr);

    void dropReader(const std::string &digest);

    /** The corpus key a request's trace is stored under. */
    static TraceCacheKey corpusKey(const Workload &workload,
                                   const ServeRequest &request);

    /**
     * Every op's replay-error policy: CorruptData quarantines the
     * entry and drops its reader, so the next request regenerates the
     * trace; a cancellation or deadline leaves the entry alone.
     * Returns `st`.
     */
    Status settleReplay(const Workload &workload,
                        const ServeRequest &request, Status st);

    ServeConfig cfg;
    bool started = false;
    bool stopped = false;
    int tcpPortBound = 0;

    std::vector<int> listenFds;
    int wakePipe[2] = {-1, -1};   ///< self-pipe to nudge poll()

    std::thread ioThread;
    std::vector<std::thread> workerThreads;

    std::atomic<bool> acceptingFlag{true};
    std::atomic<bool> quitFlag{false};     ///< workers + io exit
    CancelToken stopToken;                 ///< in-flight hard cut

    // Connections are owned by the io thread; workers hold shared_ptrs
    // only long enough to write replies.
    std::vector<std::shared_ptr<Conn>> conns;

    std::mutex queueMu;
    std::condition_variable queueCv;       ///< workers wait here
    std::condition_variable idleCv;        ///< drain() waits here

    // Per-client weighted deficit queues (the admission queue). All
    // scheduler state below queueMu. Peers with no queued work are
    // dropped from the rotation (their deficit resets), so the deque
    // stays as small as the set of clients with work in flight.
    std::deque<PeerQueue> peerQueues;
    size_t queuedCount = 0;                ///< requests across peers
    uint64_t queuedCostNs = 0;             ///< estimated queued work
    uint64_t inflightCostNs = 0;           ///< estimated popped work
    size_t rrInteractive = 0;              ///< round-robin cursors
    size_t rrBatch = 0;
    unsigned inFlight = 0;                 ///< popped, not yet replied

    // In-flight cancel registry: (conn id, request id) -> the
    // request's cancel token, registered at pop.
    std::map<std::pair<uint64_t, uint64_t>,
             std::shared_ptr<CancelToken>>
        inflightTokens;

    // Online cost model: per-op-class EWMA of observed execute ns per
    // work unit (x16 fixed point), seeded with priors and refined
    // from warm executions only. Atomics: estimateCost reads on the
    // io thread while workers refine.
    std::atomic<uint64_t> costNsPerUnitX16[4];
    std::atomic<uint64_t> costSamples[4] = {};

    /**
     * One open trace's frontend target-class rows. They depend only
     * on the trace, so the first BranchStats whose replay completes
     * publishes them and later ones copy them instead of running the
     * frontend model again.
     */
    struct FrontendMemo
    {
        std::mutex mu;
        std::optional<std::vector<TargetClassStat>> rows;
    };

    std::mutex readersMu;
    struct ReaderEntry
    {
        std::shared_ptr<TraceStoreReader> reader;
        /// Dropped with the entry (LRU eviction, dropReader, stop).
        std::shared_ptr<FrontendMemo> frontend;
        uint64_t lastUse = 0;
    };
    std::map<std::string, ReaderEntry> readers;   ///< digest -> entry
    uint64_t readerClock = 0;
    std::map<std::string, std::shared_ptr<std::mutex>> genMutexes;

    std::unique_ptr<TraceCache> cache;
    std::vector<Workload> workloadsCatalog;       ///< loaded at start

    // Resolved synth:<profile>:<seed> workloads, cached by name.
    // std::map gives pointer stability across inserts, which is what
    // lets findServableWorkload hand out long-lived Workload*.
    std::mutex synthMu;
    std::map<std::string, Workload> synthCatalog;
};

} // namespace bpnsp::serve

#endif // BPNSP_SERVE_SERVER_HPP
