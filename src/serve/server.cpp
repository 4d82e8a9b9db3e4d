#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <sstream>

#include "analysis/branch_stats.hpp"
#include "analysis/h2p.hpp"
#include "analysis/target_stats.hpp"
#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "synth/workload.hpp"
#include "util/logging.hpp"
#include "workloads/suite.hpp"

namespace bpnsp::serve {

namespace {

/** Request-size sanity bound: longer traces are refused up front. */
constexpr uint64_t kMaxServeInstructions = 2000000000ull;

/** Reply-size bound on BranchStats rows (frames are <= 16 MiB). */
constexpr uint32_t kMaxBranchRows = 65536;

/** poll() tick so quit/drain flags are noticed without wire traffic. */
constexpr int kPollTimeoutMs = 200;

obs::Counter &
serveRequests()
{
    static obs::Counter &c = obs::counter("serve.requests");
    return c;
}

obs::Counter &
serveAccepted()
{
    static obs::Counter &c = obs::counter("serve.accepted");
    return c;
}

obs::Counter &
serveRejected()
{
    static obs::Counter &c = obs::counter("serve.rejected");
    return c;
}

obs::Counter &
serveCompleted()
{
    static obs::Counter &c = obs::counter("serve.completed");
    return c;
}

obs::Counter &
serveFramesCorrupt()
{
    static obs::Counter &c = obs::counter("serve.frames_corrupt");
    return c;
}

obs::Gauge &
queueDepthGauge()
{
    static obs::Gauge &g = obs::gauge("serve.queue_depth");
    return g;
}

obs::Counter &
serveShed()
{
    static obs::Counter &c = obs::counter("serve.shed");
    return c;
}

obs::Counter &
serveExpired()
{
    static obs::Counter &c = obs::counter("serve.expired");
    return c;
}

obs::Counter &
serveCancels()
{
    static obs::Counter &c = obs::counter("serve.cancels");
    return c;
}

/**
 * Cost-model op classes. Ping/Stats/Health answer on the io thread
 * and never reach the scheduler, so only the four queued types need a
 * slot; anything unexpected shares the materialize slot (it is the
 * most conservative prior).
 */
unsigned
costClassFor(MessageType type)
{
    switch (type) {
      case MessageType::Simulate:
        return 0;
      case MessageType::BranchStats:
        return 1;
      case MessageType::H2p:
        return 2;
      default:
        return 3;   // Materialize and anything unexpected
    }
}

/**
 * The two scheduler priorities. BranchStats is the one interactive op
 * that actually queues (Ping/Stats/Health answer inline): operators
 * poll it while the batch classes grind, so it must not wait behind
 * them.
 */
bool
isInteractiveQueued(MessageType type)
{
    return type == MessageType::BranchStats;
}

/** Deficit-round-robin quantum (scaled by cfg.clientWeight). */
constexpr uint64_t kDrrQuantumNs = 10ull * 1000 * 1000;

/** Cold-path cost multipliers over the warm per-unit EWMA. */
constexpr uint64_t kColdOpenFactor = 2;   ///< open + full verify pass
constexpr uint64_t kColdGenFactor = 8;    ///< full trace generation

/** EWMA refinement only kicks in once a class has real evidence. */
constexpr uint64_t kCostModelMinSamples = 8;

/**
 * Per-request-type latency histograms (accept-to-reply), alongside
 * the aggregate serve.request_ns: a slow BranchStats must not hide
 * inside a million fast Simulates. Handles resolved once.
 */
obs::Histogram &
requestNsForType(MessageType type)
{
    static obs::Histogram &sim =
        obs::histogram("serve.request_ns.simulate");
    static obs::Histogram &branchStats =
        obs::histogram("serve.request_ns.branch_stats");
    static obs::Histogram &h2p = obs::histogram("serve.request_ns.h2p");
    static obs::Histogram &materialize =
        obs::histogram("serve.request_ns.materialize");
    static obs::Histogram &other =
        obs::histogram("serve.request_ns.other");
    switch (type) {
      case MessageType::Simulate:
        return sim;
      case MessageType::BranchStats:
        return branchStats;
      case MessageType::H2p:
        return h2p;
      case MessageType::Materialize:
        return materialize;
      default:
        return other;
    }
}

/**
 * Server-assigned trace ids: unique within the process, monotonically
 * increasing, never 0 (0 means "unassigned" on the wire). Every
 * request gets one — even rejected ones, so a RESOURCE_EXHAUSTED
 * reply is still correlatable with the admission decision.
 */
uint64_t
allocTraceId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Write all of `len` bytes to a non-blocking socket through the
 * shared EINTR-audited helper (protocol.hpp). The 5 s bound is per
 * wait-for-writability: a peer that stays unwritable that long is
 * wedged and the connection is abandoned — but a signal interrupting
 * the wait (SIGCHLD fires routinely in fleet mode) restarts it
 * instead of being mistaken for a wedge, which used to drop the
 * connection.
 */
bool
sendAll(int fd, const uint8_t *bytes, size_t len)
{
    return writeAllFd(fd, bytes, len, /*poll_timeout_ms=*/5000).ok();
}

void
setNonBlocking(int fd)
{
    // Sockets come from accept()/socket() moments earlier; fcntl on
    // them cannot meaningfully fail, but stay defensive.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

/** One live client connection (owned by the io thread). */
struct ServeServer::Conn
{
    int fd = -1;
    uint64_t id = 0;
    uint64_t peer = 0;            ///< fair-share identity (see admit)
    std::vector<uint8_t> inbuf;   ///< unparsed bytes, frame-aligned
    std::mutex writeMu;           ///< serializes reply frames
    std::atomic<bool> open{true};
};

/** One admitted request waiting for (or owned by) a worker. */
struct ServeServer::Pending
{
    std::shared_ptr<Conn> conn;
    uint64_t requestId = 0;
    ServeRequest request;
    uint64_t enqueuedNs = 0;
    uint64_t traceId = 0;

    // Scheduler view, stamped at admission.
    uint64_t peer = 0;
    bool interactive = false;
    uint64_t costNs = 0;      ///< estimated execute time
    uint64_t costUnits = 1;   ///< work units behind the estimate
    bool costWarm = true;     ///< reader was open (EWMA-grade sample)
    uint64_t deadlineNs = 0;  ///< absolute expiry (0 = none)
    std::shared_ptr<CancelToken> cancel;   ///< chained to stopToken
};

/** One client's slice of the admission queue (keyed by peer). */
struct ServeServer::PeerQueue
{
    uint64_t peer = 0;
    std::deque<Pending> interactive;
    std::deque<Pending> batch;
    uint64_t costNs = 0;      ///< estimated work queued here
    uint64_t deficitNs = 0;   ///< DRR credit (batch class)

    bool empty() const { return interactive.empty() && batch.empty(); }
};

ServeServer::ServeServer(ServeConfig config)
    : cfg(std::move(config))
{
    if (cfg.workers == 0)
        cfg.workers = 1;
    if (cfg.queueDepth == 0)
        cfg.queueDepth = 1;
    if (cfg.maxOpenReaders == 0)
        cfg.maxOpenReaders = 1;
    if (cfg.clientWeight == 0)
        cfg.clientWeight = 1;
    if (cfg.shedPolicy != "tail")
        cfg.shedPolicy = "heaviest";
    // Cost-model priors, ns per work unit (x16 fixed point): replay
    // classes start near the observed ~10 ns/record of a warm mmap'd
    // replay; materialize is bookkeeping once the reader is open.
    // All refined online from warm executions.
    costNsPerUnitX16[0].store(10 * 16);   // simulate
    costNsPerUnitX16[1].store(14 * 16);   // branch-stats (per-branch map)
    costNsPerUnitX16[2].store(14 * 16);   // h2p (sliced stats)
    costNsPerUnitX16[3].store(2 * 16);    // materialize (reader ready)
}

ServeServer::~ServeServer()
{
    if (started && !stopped)
        stop();
}

Status
ServeServer::start()
{
    if (started)
        return Status::invalidArgument("server already started");
    if (cfg.socketPath.empty())
        return Status::invalidArgument("serve: socket path required");
    if (cfg.traceCacheDir.empty())
        return Status::invalidArgument(
            "serve: trace cache directory required");

    struct sockaddr_un addr;
    if (cfg.socketPath.size() >= sizeof(addr.sun_path))
        return Status::invalidArgument(
            "serve: socket path too long: " + cfg.socketPath);

    cache = std::make_unique<TraceCache>(cfg.traceCacheDir);
    workloadsCatalog = allWorkloads();

    // UNIX-domain listener. The bound name is daemon-owned: a stale
    // socket file from a previous (dead) instance is removed, exactly
    // like the trace cache GCs its orphaned lockfiles.
    const int ufd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ufd < 0)
        return Status::ioError(std::string("serve: socket(): ") +
                               std::strerror(errno));
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(cfg.socketPath.c_str());
    if (::bind(ufd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(ufd, 128) != 0) {
        const Status st = Status::ioError(
            "serve: bind/listen on " + cfg.socketPath + ": " +
            std::strerror(errno));
        ::close(ufd);
        return st;
    }
    listenFds.push_back(ufd);

    // Optional TCP listener, loopback only: serving is a host-local
    // facility, not a network-exposed one.
    if (cfg.tcpPort != 0) {
        const int tfd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tfd < 0)
            return Status::ioError(
                std::string("serve: tcp socket(): ") +
                std::strerror(errno));
        const int one = 1;
        ::setsockopt(tfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        struct sockaddr_in tin;
        std::memset(&tin, 0, sizeof(tin));
        tin.sin_family = AF_INET;
        tin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        tin.sin_port =
            htons(static_cast<uint16_t>(cfg.tcpPort < 0 ? 0
                                                        : cfg.tcpPort));
        if (::bind(tfd, reinterpret_cast<struct sockaddr *>(&tin),
                   sizeof(tin)) != 0 ||
            ::listen(tfd, 128) != 0) {
            const Status st = Status::ioError(
                "serve: tcp bind/listen on 127.0.0.1:" +
                std::to_string(cfg.tcpPort) + ": " +
                std::strerror(errno));
            ::close(tfd);
            ::close(ufd);
            listenFds.clear();
            return st;
        }
        socklen_t tlen = sizeof(tin);
        ::getsockname(tfd, reinterpret_cast<struct sockaddr *>(&tin),
                      &tlen);
        tcpPortBound = ntohs(tin.sin_port);
        listenFds.push_back(tfd);
    }

    if (::pipe(wakePipe) != 0)
        return Status::ioError(std::string("serve: pipe(): ") +
                               std::strerror(errno));
    setNonBlocking(wakePipe[0]);
    setNonBlocking(wakePipe[1]);

    started = true;
    acceptingFlag.store(true);
    quitFlag.store(false);
    ioThread = std::thread([this] { ioLoop(); });
    workerThreads.reserve(cfg.workers);
    for (unsigned i = 0; i < cfg.workers; ++i)
        workerThreads.emplace_back([this] { workerLoop(); });

    static obs::Gauge &workersGauge = obs::gauge("serve.workers");
    workersGauge.set(static_cast<double>(cfg.workers));
    inform("serving on ", cfg.socketPath,
           tcpPortBound != 0
               ? " and 127.0.0.1:" + std::to_string(tcpPortBound)
               : std::string(),
           " (", cfg.workers, " workers, queue depth ",
           cfg.queueDepth, ")");
    return Status();
}

void
ServeServer::drain()
{
    if (!started || stopped)
        return;
    static obs::Counter &drains = obs::counter("serve.drains");
    drains.inc();

    // Phase 1: stop admitting. The io thread keeps running so replies
    // to in-flight requests still go out, but every listener closes
    // and every newly parsed request is refused.
    acceptingFlag.store(false);
    {
        const uint8_t byte = 1;
        [[maybe_unused]] ssize_t n = ::write(wakePipe[1], &byte, 1);
    }

    // Phase 2: wait for the queue to empty and in-flight work to
    // finish — the whole point of a graceful drain.
    {
        std::unique_lock<std::mutex> lock(queueMu);
        idleCv.wait(lock, [this] {
            return queuedCount == 0 && inFlight == 0;
        });
    }

    // Phase 3: tear the machinery down.
    quitFlag.store(true);
    queueCv.notify_all();
    {
        const uint8_t byte = 1;
        [[maybe_unused]] ssize_t n = ::write(wakePipe[1], &byte, 1);
    }
    for (std::thread &t : workerThreads)
        t.join();
    workerThreads.clear();
    if (ioThread.joinable())
        ioThread.join();

    for (const int fd : listenFds)
        ::close(fd);
    listenFds.clear();
    ::unlink(cfg.socketPath.c_str());
    ::close(wakePipe[0]);
    ::close(wakePipe[1]);
    wakePipe[0] = wakePipe[1] = -1;

    {
        std::lock_guard<std::mutex> lock(readersMu);
        readers.clear();
        genMutexes.clear();
    }
    stopped = true;
}

void
ServeServer::stop()
{
    if (!started || stopped)
        return;
    // The hard cut: every in-flight request's token chains to this
    // one, so replay/generation loops unwind at their next poll; the
    // drain below then completes quickly.
    stopToken.requestCancel(CancelCause::User);
    drain();
}

// --- io thread -------------------------------------------------------

void
ServeServer::ioLoop()
{
    std::vector<struct pollfd> pfds;
    bool listenersClosed = false;
    while (!quitFlag.load()) {
        if (!acceptingFlag.load() && !listenersClosed) {
            // Drain phase 1: close the listeners so new connect()s are
            // refused by the OS while existing conns keep their
            // replies coming.
            for (const int fd : listenFds)
                ::close(fd);
            listenFds.clear();
            ::unlink(cfg.socketPath.c_str());
            listenersClosed = true;
        }

        pfds.clear();
        pfds.push_back({wakePipe[0], POLLIN, 0});
        for (const int fd : listenFds)
            pfds.push_back({fd, POLLIN, 0});
        const size_t connBase = pfds.size();
        for (const auto &conn : conns)
            pfds.push_back({conn->fd, POLLIN, 0});

        const int ready =
            ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll(): ", std::strerror(errno));
            break;
        }

        if ((pfds[0].revents & POLLIN) != 0) {
            uint8_t sink[64];
            while (::read(wakePipe[0], sink, sizeof(sink)) > 0) {
            }
        }

        for (size_t i = 1; i < connBase; ++i) {
            if ((pfds[i].revents & POLLIN) != 0)
                acceptOne(pfds[i].fd);
        }

        // Snapshot: readConn may close (and remove) connections.
        std::vector<std::shared_ptr<Conn>> readable;
        for (size_t i = connBase; i < pfds.size(); ++i) {
            if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
                readable.push_back(conns[i - connBase]);
        }
        for (const auto &conn : readable)
            readConn(conn);
    }

    // Shutdown: close every connection. Workers are already gone (the
    // drain joins them before the io thread), so nobody writes.
    // closeConn() erases from `conns`, so walk a swapped-out list.
    std::vector<std::shared_ptr<Conn>> closing;
    closing.swap(conns);
    for (const auto &conn : closing)
        closeConn(conn);
}

void
ServeServer::acceptOne(int listen_fd)
{
    static obs::Counter &connections =
        obs::counter("serve.connections");
    static obs::Counter &acceptFailures =
        obs::counter("serve.accept_failures");
    static uint64_t nextConnId = 1;

    obs::Span span("serve.accept");
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != ECONNABORTED && errno != EINTR)
            warn("serve: accept(): ", std::strerror(errno));
        return;
    }
    if (faultsim::evaluate("serve.accept.fail")) {
        // Injected transient accept failure: the client sees a
        // connection that opens and immediately closes, exactly like
        // an accept-queue overflow under real load.
        acceptFailures.inc();
        ::close(fd);
        return;
    }
    setNonBlocking(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->id = nextConnId++;
    // Fair-share identity: the peer *process* (SO_PEERCRED pid on
    // UNIX-domain sockets), so one client opening many connections is
    // still one client to the scheduler. TCP loopback peers (no
    // credentials) fall back to per-connection identity.
    struct ucred cred;
    socklen_t credLen = sizeof(cred);
    if (::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &cred, &credLen) ==
            0 &&
        cred.pid > 0)
        conn->peer = static_cast<uint64_t>(cred.pid);
    else
        conn->peer = conn->id;
    conns.push_back(std::move(conn));
    connections.inc();
}

void
ServeServer::readConn(const std::shared_ptr<Conn> &conn)
{
    static obs::Counter &connResets = obs::counter("serve.conn_resets");

    bool eof = false;
    uint8_t chunk[16384];
    while (conn->open.load()) {
        const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            conn->inbuf.insert(conn->inbuf.end(), chunk, chunk + n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        eof = true;   // orderly close or reset, either way: done
        break;
    }

    if (conn->open.load())
        parseFrames(conn);

    if (eof && conn->open.load()) {
        // A mid-frame disconnect leaves a partial frame in inbuf;
        // that is the peer's prerogative, not a protocol error.
        if (!conn->inbuf.empty())
            connResets.inc();
        closeConn(conn);
    } else if (!conn->open.load()) {
        closeConn(conn);
    }
}

void
ServeServer::parseFrames(const std::shared_ptr<Conn> &conn)
{
    while (conn->open.load() &&
           conn->inbuf.size() >= kFrameHeaderBytes) {
        FrameHeader header;
        Status st = parseFrameHeader(conn->inbuf.data(),
                                     conn->inbuf.size(), &header);
        if (!st.ok()) {
            // Bad magic / unsupported version / oversized length
            // prefix: the stream cannot be resynchronized, so answer
            // once and hang up.
            serveFramesCorrupt().inc();
            sendError(conn, 0, wireCodeFor(st), st.str());
            conn->open.store(false);
            return;
        }
        const size_t frameBytes = kFrameHeaderBytes + header.payloadLen;
        if (conn->inbuf.size() < frameBytes)
            return;   // wait for the rest of the frame

        std::vector<uint8_t> payload(
            conn->inbuf.begin() + kFrameHeaderBytes,
            conn->inbuf.begin() + frameBytes);
        conn->inbuf.erase(conn->inbuf.begin(),
                          conn->inbuf.begin() + frameBytes);

        if (faultsim::evaluate("serve.frame.corrupt")) {
            // Injected wire corruption: flip one payload bit (or the
            // expected checksum itself for empty payloads) so the
            // verify below must catch it.
            if (!payload.empty()) {
                const uint64_t draw =
                    faultsim::payloadDraw("serve.frame.corrupt");
                payload[draw % payload.size()] ^=
                    static_cast<uint8_t>(1u << (draw % 8));
            } else {
                header.payloadCrc ^= 1u;
            }
        }

        st = verifyFramePayload(header, payload.data());
        if (!st.ok()) {
            serveFramesCorrupt().inc();
            sendError(conn, header.requestId, WireCode::CorruptData,
                      st.str());
            conn->open.store(false);
            return;
        }

        const MessageType type =
            static_cast<MessageType>(header.type);
        if (!isRequestType(type)) {
            sendError(conn, header.requestId,
                      WireCode::InvalidArgument,
                      std::string("unexpected message type: ") +
                          messageTypeName(type));
            conn->open.store(false);
            return;
        }

        ServeRequest request;
        st = decodeRequestPayload(type, payload.data(),
                                  payload.size(), &request);
        if (!st.ok()) {
            // The checksum passed, so this is a malformed-but-intact
            // payload: reply and keep the connection (the framing is
            // still synchronized).
            serveRequests().inc();
            serveRejected().inc();
            sendError(conn, header.requestId, wireCodeFor(st),
                      st.str());
            continue;
        }

        if (type == MessageType::Ping) {
            // Pings answer from the io thread: they are the liveness
            // probe, so they must not queue behind real work.
            serveRequests().inc();
            serveAccepted().inc();
            ServeReply reply;
            reply.type = MessageType::PingReply;
            reply.traceId = allocTraceId();
            reply.serverInfo =
                "bpnsp-serve-v1 workers=" +
                std::to_string(cfg.workers) +
                " queue=" + std::to_string(cfg.queueDepth);
            sendReply(conn, header.requestId, reply);
            serveCompleted().inc();
            continue;
        }

        if (type == MessageType::Health) {
            // Health answers from the io thread like Ping: it is the
            // probe a router or operator uses to decide whether this
            // endpoint can take traffic, so it must work under full
            // load and mid-drain. A single-process server is its own
            // one-shard fleet: one row, ready, never restarted.
            static obs::Counter &healthRequests =
                obs::counter("serve.health_requests");
            serveRequests().inc();
            serveAccepted().inc();
            healthRequests.inc();
            ServeReply reply;
            reply.type = MessageType::HealthReply;
            reply.traceId = allocTraceId();
            ShardHealth row;
            row.shard = 0;
            row.state = ShardHealth::Ready;
            row.pid = static_cast<uint64_t>(::getpid());
            {
                // Overload view: what is queued plus what the workers
                // hold, in estimated milliseconds of execute time —
                // the number a router or operator needs to pick (or
                // avoid) this worker.
                std::lock_guard<std::mutex> lock(queueMu);
                row.queueDepth = static_cast<uint32_t>(queuedCount);
                row.queuedCostMs =
                    (queuedCostNs + inflightCostNs) / 1000000ull;
            }
            reply.shards.push_back(row);
            sendReply(conn, header.requestId, reply);
            serveCompleted().inc();
            continue;
        }

        if (type == MessageType::Cancel) {
            // Cancel answers from the io thread: its whole purpose is
            // to reclaim capacity (hedge losers), so it must not wait
            // behind the very queue it is pruning.
            serveRequests().inc();
            serveAccepted().inc();
            handleCancel(conn, header, request);
            serveCompleted().inc();
            continue;
        }

        if (type == MessageType::Stats) {
            // Live introspection answers from the io thread, exactly
            // like Ping: it never queues behind real work, never
            // touches the worker pool, and keeps answering while a
            // drain waits for in-flight requests — which is precisely
            // when an operator wants to watch the queue empty.
            static obs::Counter &statsRequests =
                obs::counter("serve.stats_requests");
            serveRequests().inc();
            serveAccepted().inc();
            statsRequests.inc();
            ServeReply reply;
            reply.type = MessageType::StatsReply;
            reply.traceId = allocTraceId();
            {
                obs::ScopedTraceId traceScope(reply.traceId);
                obs::Span span("serve.stats");
                reply.statsJson = obs::renderStatsSnapshotJson();
            }
            sendReply(conn, header.requestId, reply);
            serveCompleted().inc();
            continue;
        }

        admit(conn, header, std::move(request));
    }
}

/**
 * Estimate a request's execute cost: work units (trace records the
 * handler will touch) × the op class's observed ns-per-unit EWMA × a
 * cold/warm multiplier from the reader-cache state. The estimate is
 * deliberately cheap (one map lookup, at worst one stat()) because it
 * runs on the io thread for every request.
 */
void
ServeServer::estimateCost(Pending *pending)
{
    const ServeRequest &r = pending->request;
    uint64_t units = r.instructions;
    if (r.type == MessageType::Simulate)
        units = r.count != 0 ? r.count
                             : (r.instructions > r.first
                                    ? r.instructions - r.first
                                    : 1);
    if (units == 0)
        units = 1;

    // Cold/warm: an open reader replays immediately; an on-disk entry
    // pays open + a full verify pass; a missing entry pays full trace
    // generation. The digest needs the workload's input — resolvable
    // only for known workloads, so unknown names (rejected later by
    // validateRequest) just count as warm.
    uint64_t mult = 1;
    bool warm = true;
    const Workload *w = findServableWorkload(r.workload);
    if (w != nullptr && r.inputIdx < w->inputs.size()) {
        const WorkloadInput &input = w->inputs.at(r.inputIdx);
        const TraceCacheKey key{w->name, input.label, input.seed,
                                r.instructions};
        const std::string digest = traceCacheDigest(key);
        bool open = false;
        {
            std::lock_guard<std::mutex> lock(readersMu);
            open = readers.find(digest) != readers.end();
        }
        if (!open) {
            warm = false;
            mult = cache->contains(key) ? kColdOpenFactor
                                        : kColdGenFactor;
            // Cold cost scales with the whole trace (generation and
            // verify read every record), not just the slice.
            units = std::max(units, r.instructions);
        }
    }

    const unsigned cls = costClassFor(r.type);
    const uint64_t nsPerUnitX16 = costNsPerUnitX16[cls].load(
        std::memory_order_relaxed);
    pending->costUnits = units;
    pending->costWarm = warm;
    pending->costNs = units * nsPerUnitX16 / 16 * mult;
    if (pending->costNs == 0)
        pending->costNs = 1000;   // floor: nothing is free
}

/** Fold a warm observation into the op class's ns-per-unit EWMA. */
void
ServeServer::noteObservedCost(MessageType type, uint64_t units,
                              uint64_t exec_ns, bool warm)
{
    if (!warm || units == 0)
        return;   // cold samples measure generation, not the class
    const unsigned cls = costClassFor(type);
    const uint64_t obsX16 = exec_ns * 16 / units;
    uint64_t cur = costNsPerUnitX16[cls].load(
        std::memory_order_relaxed);
    // alpha = 1/8: stable under noisy per-request timings but adapts
    // within a few dozen requests. Lost races just drop a sample.
    const uint64_t next = std::max<uint64_t>(
        1, cur - cur / 8 + obsX16 / 8);
    costNsPerUnitX16[cls].compare_exchange_weak(
        cur, next, std::memory_order_relaxed);
    costSamples[cls].fetch_add(1, std::memory_order_relaxed);
}

ServeServer::PeerQueue &
ServeServer::peerQueueFor(uint64_t peer)
{
    for (PeerQueue &pq : peerQueues) {
        if (pq.peer == peer)
            return pq;
    }
    PeerQueue pq;
    pq.peer = peer;
    peerQueues.push_back(std::move(pq));
    return peerQueues.back();
}

bool
ServeServer::overCapacityLocked(uint64_t arriving_cost_ns) const
{
    if (queuedCount + 1 > cfg.queueDepth)
        return true;
    if (cfg.maxInflightCostMs != 0 &&
        queuedCostNs + inflightCostNs + arriving_cost_ns >
            cfg.maxInflightCostMs * 1000000ull)
        return true;
    return false;
}

/**
 * Retry-after hint: the moment the backlog could plausibly have
 * drained through the worker pool. A floor on client backoff, never a
 * guarantee.
 */
uint32_t
ServeServer::retryAfterMsLocked() const
{
    const uint64_t backlogNs =
        (queuedCostNs + inflightCostNs) / cfg.workers;
    uint64_t ms = backlogNs / 1000000ull;
    if (ms < 1)
        ms = 1;
    if (ms > 30000)
        ms = 30000;
    return static_cast<uint32_t>(ms);
}

/** Undo one queued request's accounting (already out of its deque). */
void
ServeServer::removeQueuedLocked(const Pending &pending)
{
    PeerQueue &pq = peerQueueFor(pending.peer);
    pq.costNs -= std::min(pq.costNs, pending.costNs);
    queuedCostNs -= std::min(queuedCostNs, pending.costNs);
    --queuedCount;
}

void
ServeServer::updateQueueGaugesLocked()
{
    static obs::Gauge &interactiveDepth =
        obs::gauge("serve.queue_depth.interactive");
    static obs::Gauge &batchDepth =
        obs::gauge("serve.queue_depth.batch");
    static obs::Gauge &inflightCost =
        obs::gauge("serve.inflight_cost_ms");
    size_t ni = 0;
    size_t nb = 0;
    for (const PeerQueue &pq : peerQueues) {
        ni += pq.interactive.size();
        nb += pq.batch.size();
    }
    queueDepthGauge().set(static_cast<double>(queuedCount));
    interactiveDepth.set(static_cast<double>(ni));
    batchDepth.set(static_cast<double>(nb));
    inflightCost.set(
        static_cast<double>((queuedCostNs + inflightCostNs) /
                            1000000ull));
}

void
ServeServer::admit(const std::shared_ptr<Conn> &conn,
                   const FrameHeader &header, ServeRequest request)
{
    serveRequests().inc();
    const uint64_t traceId = allocTraceId();

    if (!acceptingFlag.load()) {
        serveRejected().inc();
        sendError(conn, header.requestId, WireCode::Busy,
                  "server is draining", traceId);
        return;
    }

    Pending p;
    p.conn = conn;
    p.requestId = header.requestId;
    p.request = std::move(request);
    p.enqueuedNs = nowNs();
    p.traceId = traceId;
    p.peer = conn->peer;
    p.interactive = isInteractiveQueued(p.request.type);
    p.cancel = std::make_shared<CancelToken>(&stopToken);
    estimateCost(&p);
    if (p.request.deadlineMs != 0)
        p.deadlineNs =
            p.enqueuedNs +
            static_cast<uint64_t>(p.request.deadlineMs) * 1000000ull;

    std::vector<Pending> shed;   // victims, replied to after unlock
    bool shedSelf = false;
    uint32_t retryAfterMs = 0;
    {
        std::lock_guard<std::mutex> lock(queueMu);
        retryAfterMs = retryAfterMsLocked();
        while (overCapacityLocked(p.costNs)) {
            if (cfg.shedPolicy == "tail") {
                shedSelf = true;
                break;
            }
            // Heaviest-first: the client holding the most estimated
            // queued work absorbs the shed — counting the arrival as
            // part of its own client's backlog, so a lone client
            // overflowing the queue still sheds its own newest work
            // (which is the arrival itself).
            PeerQueue *heavy = nullptr;
            uint64_t heavyCost = 0;
            uint64_t ownCost = p.costNs;
            for (PeerQueue &pq : peerQueues) {
                if (pq.peer == p.peer) {
                    ownCost += pq.costNs;
                    continue;
                }
                if (!pq.empty() &&
                    (heavy == nullptr || pq.costNs > heavyCost)) {
                    heavy = &pq;
                    heavyCost = pq.costNs;
                }
            }
            if (heavy == nullptr || heavyCost <= ownCost) {
                // The arriving client *is* the heaviest (or no other
                // client holds anything): newest-first means the
                // arrival itself is the victim.
                shedSelf = true;
                break;
            }
            // Shed the heaviest client's newest batch work first;
            // its interactive tail only when it queued nothing else.
            std::deque<Pending> &victims = heavy->batch.empty()
                                               ? heavy->interactive
                                               : heavy->batch;
            Pending victim = std::move(victims.back());
            victims.pop_back();
            removeQueuedLocked(victim);
            shed.push_back(std::move(victim));
        }
        if (!shedSelf) {
            PeerQueue &pq = peerQueueFor(p.peer);
            pq.costNs += p.costNs;
            queuedCostNs += p.costNs;
            ++queuedCount;
            (p.interactive ? pq.interactive : pq.batch)
                .push_back(std::move(p));
            updateQueueGaugesLocked();
        }
    }

    for (const Pending &victim : shed) {
        serveRejected().inc();
        serveShed().inc();
        sendError(victim.conn, victim.requestId,
                  WireCode::ResourceExhausted,
                  "shed under overload (heaviest client, newest "
                  "work first); retry after the hint",
                  victim.traceId, retryAfterMs);
    }
    if (shedSelf) {
        serveRejected().inc();
        serveShed().inc();
        sendError(conn, header.requestId,
                  WireCode::ResourceExhausted,
                  "admission queue full (" +
                      std::to_string(cfg.queueDepth) +
                      " requests); retry with backoff",
                  traceId, retryAfterMs);
        return;
    }
    queueCv.notify_one();
}

/**
 * Best-effort cancellation of an earlier request on this connection.
 * Queued target: shed before it costs a worker anything, CANCELLED
 * reply to the original id. In-flight target: its token fires and the
 * handler unwinds at its next poll. Already-answered ids report
 * cancelFound = 0.
 */
void
ServeServer::handleCancel(const std::shared_ptr<Conn> &conn,
                          const FrameHeader &header,
                          const ServeRequest &request)
{
    bool haveQueued = false;
    bool found = false;
    Pending victim;
    {
        std::lock_guard<std::mutex> lock(queueMu);
        for (PeerQueue &pq : peerQueues) {
            for (std::deque<Pending> *dq :
                 {&pq.interactive, &pq.batch}) {
                for (auto it = dq->begin(); it != dq->end(); ++it) {
                    if (it->conn->id == conn->id &&
                        it->requestId == request.cancelTargetId) {
                        victim = std::move(*it);
                        dq->erase(it);
                        removeQueuedLocked(victim);
                        updateQueueGaugesLocked();
                        haveQueued = true;
                        found = true;
                        break;
                    }
                }
                if (haveQueued)
                    break;
            }
            if (haveQueued)
                break;
        }
        if (!haveQueued) {
            auto it = inflightTokens.find(
                {conn->id, request.cancelTargetId});
            if (it != inflightTokens.end()) {
                it->second->requestCancel(CancelCause::User);
                found = true;
            }
        }
        if (haveQueued && queuedCount == 0 && inFlight == 0)
            idleCv.notify_all();
    }

    if (haveQueued) {
        serveRejected().inc();
        sendError(victim.conn, victim.requestId, WireCode::Cancelled,
                  "cancelled by the client before execution",
                  victim.traceId);
    }
    if (found)
        serveCancels().inc();

    ServeReply reply;
    reply.type = MessageType::CancelReply;
    reply.traceId = allocTraceId();
    reply.cancelFound = found ? 1 : 0;
    sendReply(conn, header.requestId, reply);
}

// --- workers ---------------------------------------------------------

void
ServeServer::workerLoop()
{
    Pending pending;
    while (popRequest(&pending))
        execute(std::move(pending));
}

/**
 * Deadline sweep (queueMu held): move every queued request that can
 * no longer finish in time into `expired` — expiry replies go out
 * before the request costs a worker anything. "Cannot finish" means
 * the absolute deadline already passed, or (once the op class's cost
 * model has real evidence) the remaining budget is smaller than the
 * estimated execute time.
 */
void
ServeServer::sweepExpiredLocked(std::vector<Pending> *expired)
{
    const uint64_t now = nowNs();
    for (PeerQueue &pq : peerQueues) {
        for (std::deque<Pending> *dq : {&pq.interactive, &pq.batch}) {
            for (auto it = dq->begin(); it != dq->end();) {
                bool late = false;
                if (it->deadlineNs != 0) {
                    if (now >= it->deadlineNs) {
                        late = true;
                    } else if (costSamples[costClassFor(
                                   it->request.type)]
                                       .load(
                                           std::memory_order_relaxed) >=
                                   kCostModelMinSamples &&
                               it->deadlineNs - now < it->costNs) {
                        late = true;
                    }
                }
                if (!late) {
                    ++it;
                    continue;
                }
                Pending victim = std::move(*it);
                it = dq->erase(it);
                removeQueuedLocked(victim);
                expired->push_back(std::move(victim));
            }
        }
    }
    if (!expired->empty())
        updateQueueGaugesLocked();
}

/**
 * Scheduler selection (queueMu held): any interactive request first
 * (round-robin across clients), else batch work by weighted deficit
 * round robin — a client may dequeue when its deficit covers the
 * head's estimated cost; every pass over the rotation earns each
 * waiting client one quantum × weight. Clients that go idle leave
 * the rotation and their deficit resets.
 */
bool
ServeServer::popNextLocked(Pending *out)
{
    // Drop idle peers so the rotation only visits clients with work
    // (and an idle client cannot bank deficit).
    for (auto it = peerQueues.begin(); it != peerQueues.end();) {
        if (it->empty() && it->costNs == 0)
            it = peerQueues.erase(it);
        else
            ++it;
    }
    if (peerQueues.empty() || queuedCount == 0)
        return false;
    const size_t n = peerQueues.size();

    for (size_t i = 0; i < n; ++i) {
        PeerQueue &pq = peerQueues[(rrInteractive + i) % n];
        if (pq.interactive.empty())
            continue;
        rrInteractive = (rrInteractive + i + 1) % n;
        *out = std::move(pq.interactive.front());
        pq.interactive.pop_front();
        removeQueuedLocked(*out);
        return true;
    }

    const uint64_t quantum = kDrrQuantumNs * cfg.clientWeight;
    for (;;) {
        bool anyBatch = false;
        for (size_t i = 0; i < n; ++i) {
            PeerQueue &pq = peerQueues[rrBatch % n];
            rrBatch = (rrBatch + 1) % n;
            if (pq.batch.empty())
                continue;
            anyBatch = true;
            if (pq.deficitNs < pq.batch.front().costNs) {
                pq.deficitNs += quantum;
                continue;
            }
            pq.deficitNs -= pq.batch.front().costNs;
            *out = std::move(pq.batch.front());
            pq.batch.pop_front();
            removeQueuedLocked(*out);
            return true;
        }
        if (!anyBatch)
            return false;
        // Every waiting client earned a quantum this pass; the next
        // pass (or one soon after) can afford its head.
    }
}

/**
 * Pop the next request per the fair-share scheduler and register it
 * in flight, individually cancellable by id. Expired requests found
 * while popping are answered DEADLINE_EXCEEDED here, before any worker
 * time is spent on them. Returns false once the server quits with
 * nothing left to pop.
 */
bool
ServeServer::popRequest(Pending *out)
{
    static obs::Histogram &queueWait =
        obs::histogram("serve.queue_wait_ns");

    for (;;) {
        bool popped = false;
        std::vector<Pending> expired;
        uint64_t sweepStartNs = 0;
        uint32_t retryAfterMs = 0;
        {
            std::unique_lock<std::mutex> lock(queueMu);
            queueCv.wait(lock, [this] {
                return quitFlag.load() || queuedCount > 0;
            });
            sweepStartNs = nowNs();
            sweepExpiredLocked(&expired);
            retryAfterMs = retryAfterMsLocked();

            popped = popNextLocked(out);
            if (popped) {
                ++inFlight;
                inflightCostNs += out->costNs;
                inflightTokens[{out->conn->id, out->requestId}] =
                    out->cancel;
                // serve.accepted counts requests handed to a worker:
                // queued work that is later shed, swept, or cancelled
                // was never accepted, keeping shed + accepted <=
                // requests additive.
                serveAccepted().inc();
            }
            updateQueueGaugesLocked();
            if (queuedCount == 0 && inFlight == 0)
                idleCv.notify_all();
            if (!popped && expired.empty() && quitFlag.load())
                return false;
        }

        if (!expired.empty()) {
            const uint64_t sweepEndNs = nowNs();
            obs::emitSpan("serve.queue_sweep",
                          expired.front().traceId, sweepStartNs,
                          sweepEndNs > sweepStartNs
                              ? sweepEndNs - sweepStartNs
                              : 0);
            for (const Pending &p : expired) {
                serveRejected().inc();
                serveExpired().inc();
                sendError(p.conn, p.requestId,
                          WireCode::DeadlineExceeded,
                          "deadline expired in the admission queue "
                          "(estimated backlog exceeds the remaining "
                          "budget)",
                          p.traceId, retryAfterMs);
            }
        }
        if (!popped)
            continue;   // swept everything; wait for more work

        const uint64_t now = nowNs();
        const uint64_t wait =
            now > out->enqueuedNs ? now - out->enqueuedNs : 0;
        queueWait.observe(wait);
        // Retroactive span: the wait started on the io thread, ended
        // here. Recorded explicitly since no scope lived across both.
        obs::emitSpan("serve.queue_wait", out->traceId, out->enqueuedNs,
                      wait);
        return true;
    }
}

void
ServeServer::execute(Pending p)
{
    static obs::Counter &stalls = obs::counter("serve.worker_stalls");
    static obs::Histogram &execNs = obs::histogram("serve.exec_ns");
    static obs::Histogram &requestNs =
        obs::histogram("serve.request_ns");

    if (faultsim::evaluate("serve.worker.stall")) {
        // Injected worker stall: park this worker for a bounded,
        // cancellable moment. Under a drain the stop token cuts the
        // nap short, so a stalled pool can never hang shutdown.
        stalls.inc();
        CancelScope scope(stopToken);
        cancellableSleepMs(
            25 + faultsim::payloadDraw("serve.worker.stall") % 200);
    }

    const uint64_t execStartNs = nowNs();
    {
        obs::ScopedTraceId traceScope(p.traceId);
        obs::Span span("serve.execute");
        // The request's own token (registered in inflightTokens at
        // pop) makes it cancellable; the deadline is *absolute* from
        // admission, so queue wait already spent the budget — the
        // deadline-propagation contract at this hop.
        CancelToken &token = *p.cancel;
        if (p.deadlineNs != 0) {
            const uint64_t now = nowNs();
            if (now >= p.deadlineNs)
                token.requestCancel(CancelCause::Deadline);
            else
                token.setDeadlineAfterMs(
                    (p.deadlineNs - now + 999999ull) / 1000000ull);
        }
        CancelScope scope(token);
        ServeReply reply;
        switch (p.request.type) {
          case MessageType::Simulate:
            reply = executeSimulate(p.request);
            break;
          case MessageType::BranchStats:
            reply = executeBranchStats(p.request);
            break;
          case MessageType::H2p:
            reply = executeH2p(p.request);
            break;
          case MessageType::Materialize:
            reply = executeMaterialize(p.request);
            break;
          default:
            reply.type = MessageType::Error;
            reply.code = WireCode::Unimplemented;
            reply.message = std::string("no handler for ") +
                            messageTypeName(p.request.type);
            break;
        }
        reply.traceId = p.traceId;
        obs::Span replySpan("serve.reply");
        sendReply(p.conn, p.requestId, reply);
    }
    const uint64_t execEndNs = nowNs();
    const uint64_t execDurNs =
        execEndNs > execStartNs ? execEndNs - execStartNs : 0;
    execNs.observe(static_cast<double>(execDurNs));

    // Refine the cost model from what actually happened; cold
    // executions measured generation, not the op class, and are
    // skipped inside.
    noteObservedCost(p.request.type, p.costUnits, execDurNs,
                     p.costWarm);

    const uint64_t now = nowNs();
    const uint64_t wall = now > p.enqueuedNs ? now - p.enqueuedNs : 0;
    requestNs.observe(wall);
    requestNsForType(p.request.type).observe(wall);
    // The root of the request's span tree: admission to reply.
    obs::emitSpan("serve.request", p.traceId, p.enqueuedNs, wall);
    if (cfg.slowMs != 0 &&
        wall >= static_cast<uint64_t>(cfg.slowMs) * 1000000ull)
        logSlowRequest(p, wall);
    serveCompleted().inc();

    std::lock_guard<std::mutex> lock(queueMu);
    --inFlight;
    inflightCostNs -= std::min(inflightCostNs, p.costNs);
    inflightTokens.erase({p.conn->id, p.requestId});
    updateQueueGaugesLocked();
    if (queuedCount == 0 && inFlight == 0)
        idleCv.notify_all();
}

ServeReply
ServeServer::executeSimulate(const ServeRequest &request)
{
    ServeReply reply;
    reply.type = MessageType::SimulateReply;

    const Workload *workload = nullptr;
    Status st = validateRequest(request, &workload);
    if (st.ok()) {
        std::shared_ptr<TraceStoreReader> reader;
        {
            obs::Span span("serve.ensure_reader");
            reader = ensureReader(*workload, request, &st);
        }
        if (st.ok()) {
            const uint64_t count = request.count == 0
                                       ? reader->count() - request.first
                                       : request.count;
            std::unique_ptr<BranchPredictor> predictor =
                makePredictor(request.predictor);
            PredictorSim sim(*predictor, /*collect_per_branch=*/false);
            {
                obs::Span span("serve.replay");
                st = settleReplay(
                    *workload, request,
                    reader->replayRange(request.first, count, sim));
            }
            if (st.ok()) {
                sim.onEnd();   // flush sim deltas into the bp.* counters
                reply.delivered = count;
                reply.condExecs = sim.condExecs();
                reply.condMispreds = sim.condMispreds();
                reply.accuracyBits = doubleBits(sim.accuracy());
            }
        }
    }
    if (!st.ok()) {
        reply.type = MessageType::Error;
        reply.code = wireCodeFor(st);
        reply.message = st.str();
    }
    return reply;
}

ServeReply
ServeServer::executeBranchStats(const ServeRequest &request)
{
    static obs::Counter &memoHits =
        obs::counter("serve.frontend_memo.hits");
    static obs::Counter &memoMisses =
        obs::counter("serve.frontend_memo.misses");
    ServeReply reply;
    reply.type = MessageType::BranchStatsReply;

    const Workload *workload = nullptr;
    Status st = validateRequest(request, &workload);
    if (st.ok()) {
        std::shared_ptr<FrontendMemo> memo;
        std::shared_ptr<TraceStoreReader> reader =
            ensureReader(*workload, request, &st, &memo);
        if (st.ok()) {
            std::unique_ptr<BranchPredictor> predictor =
                makePredictor(request.predictor);
            PredictorSim sim(*predictor, /*collect_per_branch=*/true);
            std::optional<std::vector<TargetClassStat>> targets;
            {
                std::lock_guard<std::mutex> lock(memo->mu);
                targets = memo->rows;
            }
            if (targets.has_value()) {
                memoHits.inc();
                st = settleReplay(*workload, request,
                                  reader->replay(sim, 0));
            } else {
                memoMisses.inc();
                // The frontend rides the same replay pass so the
                // target columns are computed from exactly the records
                // the direction columns saw. Only a completed pass
                // publishes; concurrent misses compute equal rows and
                // the first publish wins.
                FrontendModel fe((FrontendConfig()));
                FanoutSink fanout({&sim, &fe});
                st = settleReplay(*workload, request,
                                  reader->replay(fanout, 0));
                if (st.ok()) {
                    targets.emplace();
                    for (const TargetClassRow &row : targetClassRows(fe))
                        targets->push_back(
                            {static_cast<uint8_t>(row.cls), row.execs,
                             row.targetMispreds});
                    std::lock_guard<std::mutex> lock(memo->mu);
                    if (!memo->rows.has_value())
                        memo->rows = targets;
                }
            }
            if (st.ok()) {
                reply.delivered = sim.instructions();
                reply.condExecs = sim.condExecs();
                reply.condMispreds = sim.condMispreds();
                reply.targetClasses = std::move(*targets);
                std::vector<BranchRow> rows;
                rows.reserve(sim.perBranch().size());
                for (const auto &[ip, c] : sim.perBranch())
                    rows.push_back({ip, c.execs, c.mispreds, c.taken});
                // Deterministic order: most-mispredicted first, IP
                // ascending on ties (the H2P-ranking convention).
                std::sort(rows.begin(), rows.end(),
                          [](const BranchRow &a, const BranchRow &b) {
                              if (a.mispreds != b.mispreds)
                                  return a.mispreds > b.mispreds;
                              return a.ip < b.ip;
                          });
                uint32_t keep = request.topK == 0 ? kMaxBranchRows
                                                 : request.topK;
                keep = std::min(keep, kMaxBranchRows);
                if (rows.size() > keep)
                    rows.resize(keep);
                reply.branches = std::move(rows);
            }
        }
    }
    if (!st.ok()) {
        reply.type = MessageType::Error;
        reply.code = wireCodeFor(st);
        reply.message = st.str();
    }
    return reply;
}

ServeReply
ServeServer::executeH2p(const ServeRequest &request)
{
    ServeReply reply;
    reply.type = MessageType::H2pReply;

    const Workload *workload = nullptr;
    Status st = validateRequest(request, &workload);
    if (st.ok()) {
        std::shared_ptr<TraceStoreReader> reader =
            ensureReader(*workload, request, &st);
        if (st.ok()) {
            const uint64_t sliceLen = request.sliceLength != 0
                                          ? request.sliceLength
                                          : request.instructions;
            std::unique_ptr<BranchPredictor> predictor =
                makePredictor(request.predictor);
            SlicedBranchStats stats(*predictor, sliceLen);
            st = settleReplay(*workload, request,
                              reader->replay(stats, 0));
            if (st.ok()) {
                const H2pCriteria criteria =
                    H2pCriteria{}.scaledTo(sliceLen);
                const H2pSummary summary =
                    summarizeH2ps(stats, criteria);
                reply.h2pIps.assign(summary.allH2ps.begin(),
                                    summary.allH2ps.end());
                std::sort(reply.h2pIps.begin(), reply.h2pIps.end());
                reply.slices = stats.slices().size();
                reply.avgPerSliceBits =
                    doubleBits(summary.avgPerSlice);
                reply.avgMispredFractionBits =
                    doubleBits(summary.avgMispredFraction);
            }
        }
    }
    if (!st.ok()) {
        reply.type = MessageType::Error;
        reply.code = wireCodeFor(st);
        reply.message = st.str();
    }
    return reply;
}

ServeReply
ServeServer::executeMaterialize(const ServeRequest &request)
{
    ServeReply reply;
    reply.type = MessageType::MaterializeReply;

    const Workload *workload = nullptr;
    Status st = validateRequest(request, &workload);
    if (st.ok()) {
        std::shared_ptr<TraceStoreReader> reader =
            ensureReader(*workload, request, &st);
        if (st.ok()) {
            const TraceCacheKey key = corpusKey(*workload, request);
            reply.digest = traceCacheDigest(key);
            reply.records = reader->count();
            reply.path = cache->entryPath(key);
        }
    }
    if (!st.ok()) {
        reply.type = MessageType::Error;
        reply.code = wireCodeFor(st);
        reply.message = st.str();
    }
    return reply;
}

// --- shared helpers --------------------------------------------------

void
ServeServer::sendReply(const std::shared_ptr<Conn> &conn,
                       uint64_t request_id, const ServeReply &reply)
{
    if (!conn->open.load())
        return;
    const std::vector<uint8_t> payload = encodeReplyPayload(reply);
    std::vector<uint8_t> frame;
    const Status st =
        encodeFrame(reply.type, request_id, payload, &frame);
    if (!st.ok()) {
        // A reply too large for one frame (pathological topK): degrade
        // to an error the client can act on.
        sendError(conn, request_id, WireCode::Internal, st.str());
        return;
    }
    std::lock_guard<std::mutex> lock(conn->writeMu);
    if (!sendAll(conn->fd, frame.data(), frame.size()))
        conn->open.store(false);
}

void
ServeServer::sendError(const std::shared_ptr<Conn> &conn,
                       uint64_t request_id, WireCode code,
                       const std::string &message, uint64_t trace_id,
                       uint32_t retry_after_ms)
{
    if (!conn->open.load())
        return;
    ServeReply reply;
    reply.type = MessageType::Error;
    reply.code = code;
    reply.message = message;
    reply.traceId = trace_id;
    reply.retryAfterMs = retry_after_ms;
    const std::vector<uint8_t> payload = encodeReplyPayload(reply);
    std::vector<uint8_t> frame;
    if (!encodeFrame(MessageType::Error, request_id, payload, &frame)
             .ok())
        return;
    std::lock_guard<std::mutex> lock(conn->writeMu);
    if (!sendAll(conn->fd, frame.data(), frame.size()))
        conn->open.store(false);
}

void
ServeServer::logSlowRequest(const Pending &pending, uint64_t wall_ns)
{
    static obs::Counter &slow = obs::counter("serve.slow_requests");
    slow.inc();

    // Structured single-line record: greppable key=value pairs, span
    // offsets relative to admission so the line reads as a timeline.
    std::ostringstream os;
    os << "serve.slow_request trace_id=" << pending.traceId
       << " type=" << messageTypeName(pending.request.type)
       << " workload=" << pending.request.workload
       << " wall_ms=" << wall_ns / 1000000 << "." << std::setw(3)
       << std::setfill('0') << (wall_ns / 1000) % 1000;
    if (obs::TraceRecorder::instance().enabled()) {
        const std::vector<obs::SpanEvent> spans =
            obs::TraceRecorder::instance().spansFor(pending.traceId);
        os << " spans=[";
        for (size_t i = 0; i < spans.size(); ++i) {
            const obs::SpanEvent &e = spans[i];
            const uint64_t off = e.startNs >= pending.enqueuedNs
                                     ? e.startNs - pending.enqueuedNs
                                     : 0;
            os << (i != 0 ? " " : "") << e.name << "@+" << off / 1000
               << "us/" << e.durNs / 1000 << "us";
        }
        os << "]";
    }
    warn(os.str());
}

void
ServeServer::closeConn(const std::shared_ptr<Conn> &conn)
{
    conn->open.store(false);
    if (conn->fd >= 0) {
        ::close(conn->fd);
        conn->fd = -1;
    }
    conns.erase(std::remove(conns.begin(), conns.end(), conn),
                conns.end());
}

const Workload *
ServeServer::findServableWorkload(const std::string &name)
{
    for (const Workload &w : workloadsCatalog) {
        if (w.name == name)
            return &w;
    }
    // synth:<profile>:<seed> names resolve on demand — gracefully,
    // since the name is client-controlled and resolution reads a
    // profile file. A bad name or missing profile is the caller's
    // InvalidArgument, never a daemon fatal(). Resolved workloads are
    // cached: repeat requests skip the profile re-parse, and the
    // returned pointer stays valid for the server's lifetime.
    if (synth::isSynthName(name)) {
        std::lock_guard<std::mutex> lock(synthMu);
        auto it = synthCatalog.find(name);
        if (it != synthCatalog.end())
            return &it->second;
        Workload w;
        if (!synth::makeSynthWorkload(name, &w).ok())
            return nullptr;
        return &synthCatalog.emplace(name, std::move(w)).first->second;
    }
    return nullptr;
}

Status
ServeServer::validateRequest(const ServeRequest &request,
                             const Workload **workload_out)
{
    // findWorkload()/makePredictor() fatal() on unknown names — fine
    // for CLI typos, lethal for a daemon fed client bytes. Everything
    // client-controlled is validated here first.
    const Workload *w = findServableWorkload(request.workload);
    if (w == nullptr)
        return Status::invalidArgument("unknown workload: \"" +
                                       request.workload + "\"");
    *workload_out = w;
    if (request.inputIdx >= w->inputs.size())
        return Status::invalidArgument(
            "input index " + std::to_string(request.inputIdx) +
            " out of range for " + w->name + " (" +
            std::to_string(w->inputs.size()) + " inputs)");
    if (request.instructions == 0 ||
        request.instructions > kMaxServeInstructions)
        return Status::invalidArgument(
            "instruction count " +
            std::to_string(request.instructions) +
            " outside [1, " + std::to_string(kMaxServeInstructions) +
            "]");

    if (request.type == MessageType::Simulate ||
        request.type == MessageType::BranchStats ||
        request.type == MessageType::H2p) {
        static const std::vector<std::string> known =
            knownPredictorNames();
        if (std::find(known.begin(), known.end(), request.predictor) ==
            known.end())
            return Status::invalidArgument("unknown predictor: \"" +
                                           request.predictor + "\"");
    }

    if (request.type == MessageType::Simulate) {
        if (request.first > request.instructions)
            return Status::invalidArgument(
                "slice start " + std::to_string(request.first) +
                " past the " + std::to_string(request.instructions) +
                "-record trace");
        if (request.count != 0 &&
            request.first + request.count > request.instructions)
            return Status::invalidArgument(
                "slice [" + std::to_string(request.first) + ", " +
                std::to_string(request.first + request.count) +
                ") past the " + std::to_string(request.instructions) +
                "-record trace");
    }
    return Status();
}

std::shared_ptr<TraceStoreReader>
ServeServer::ensureReader(const Workload &workload,
                          const ServeRequest &request, Status *status,
                          std::shared_ptr<FrontendMemo> *frontend)
{
    static obs::Counter &generated =
        obs::counter("serve.generated_traces");
    static obs::Gauge &openReaders = obs::gauge("serve.open_readers");

    const TraceCacheKey key = corpusKey(workload, request);
    const std::string digest = traceCacheDigest(key);

    {
        std::lock_guard<std::mutex> lock(readersMu);
        auto it = readers.find(digest);
        if (it != readers.end()) {
            it->second.lastUse = ++readerClock;
            if (frontend != nullptr)
                *frontend = it->second.frontend;
            *status = Status();
            return it->second.reader;
        }
    }

    // Serialize cold-open (and cold-generation) per digest so N
    // concurrent requests for the same trace cost one generation, not
    // N. A per-digest mutex, not the readers lock: generating takes
    // seconds and must not block unrelated digests.
    std::shared_ptr<std::mutex> gen;
    {
        std::lock_guard<std::mutex> lock(readersMu);
        auto &slot = genMutexes[digest];
        if (slot == nullptr)
            slot = std::make_shared<std::mutex>();
        gen = slot;
    }
    std::lock_guard<std::mutex> genLock(*gen);

    {
        std::lock_guard<std::mutex> lock(readersMu);
        auto it = readers.find(digest);
        if (it != readers.end()) {
            it->second.lastUse = ++readerClock;
            if (frontend != nullptr)
                *frontend = it->second.frontend;
            *status = Status();
            return it->second.reader;
        }
    }

    if (!cache->contains(key)) {
        // Cold trace: generate and publish it into the corpus. Busy (a
        // peer process holds the generation lock), a cancellation or
        // an I/O failure is this request's answer.
        const Status captured = captureTrace(
            *cache, workload, request.inputIdx, request.instructions);
        if (!captured.ok()) {
            *status = captured;
            return nullptr;
        }
        generated.inc();
    }

    Status openStatus;
    std::unique_ptr<TraceStoreReader> opened =
        TraceStoreReader::open(cache->entryPath(key), &openStatus);
    if (opened == nullptr) {
        if (openStatus.code() == StatusCode::CorruptData)
            cache->quarantine(key, openStatus.str());
        *status = openStatus;
        return nullptr;
    }
    if (opened->count() != request.instructions) {
        cache->quarantine(key,
                          "holds " + std::to_string(opened->count()) +
                              " records, want " +
                              std::to_string(request.instructions));
        *status = Status::corruptData("trace cache entry had " +
                                      std::to_string(opened->count()) +
                                      " records; quarantined, retry");
        return nullptr;
    }
    const Status verified = opened->verify();
    if (!verified.ok()) {
        // Quarantine is for damage only: a deadline or cancellation
        // during verify leaves a perfectly healthy entry behind.
        if (verified.code() == StatusCode::CorruptData)
            cache->quarantine(key, verified.str());
        *status = verified;
        return nullptr;
    }

    std::shared_ptr<TraceStoreReader> shared = std::move(opened);
    auto memo = std::make_shared<FrontendMemo>();
    if (frontend != nullptr)
        *frontend = memo;
    {
        std::lock_guard<std::mutex> lock(readersMu);
        readers[digest] = ReaderEntry{shared, memo, ++readerClock};
        // LRU-cap the open mmaps; in-flight replays keep their reader
        // alive through their shared_ptr.
        while (readers.size() > cfg.maxOpenReaders) {
            auto victim = readers.begin();
            for (auto it = readers.begin(); it != readers.end(); ++it) {
                if (it->second.lastUse < victim->second.lastUse)
                    victim = it;
            }
            readers.erase(victim);
        }
        openReaders.set(static_cast<double>(readers.size()));
    }
    *status = Status();
    return shared;
}

TraceCacheKey
ServeServer::corpusKey(const Workload &workload,
                       const ServeRequest &request)
{
    const WorkloadInput &input = workload.inputs.at(request.inputIdx);
    return TraceCacheKey{workload.name, input.label, input.seed,
                         request.instructions};
}

Status
ServeServer::settleReplay(const Workload &workload,
                          const ServeRequest &request, Status st)
{
    if (st.code() == StatusCode::CorruptData) {
        // The store changed under us (or a fault spec fired):
        // quarantine the entry so the next request regenerates it, and
        // drop the stale mmap with its frontend memo.
        const TraceCacheKey key = corpusKey(workload, request);
        cache->quarantine(key, st.str());
        dropReader(traceCacheDigest(key));
    }
    return st;
}

void
ServeServer::dropReader(const std::string &digest)
{
    static obs::Gauge &openReaders = obs::gauge("serve.open_readers");
    std::lock_guard<std::mutex> lock(readersMu);
    readers.erase(digest);
    openReaders.set(static_cast<double>(readers.size()));
}

} // namespace bpnsp::serve
