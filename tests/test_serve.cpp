/**
 * @file
 * Tests for the serving subsystem: bpnsp-serve-v1 protocol round
 * trips, frame-decoder hardening against malformed and truncated
 * input, server request semantics (validation, deadlines,
 * backpressure, drain), bit-identity of served results against direct
 * in-process runs under concurrent clients, and the serve.* fault
 * injection points.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/branch_stats.hpp"
#include "analysis/h2p.hpp"
#include "analysis/target_stats.hpp"
#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "frontend/frontend.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace/sink.hpp"
#include "tracestore/chunk_cache.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;
using namespace bpnsp::serve;

namespace {

/** Fresh scratch directory per test; removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const char *tag)
        : path(std::string(::testing::TempDir()) + "bpnsp_serve_" +
               tag)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::string
    file(const std::string &name) const
    {
        return path + "/" + name;
    }

    const std::string path;
};

constexpr uint64_t kTraceLen = 120000;

ServeRequest
simulateRequest(const std::string &predictor, uint64_t first = 0,
                uint64_t count = 0)
{
    ServeRequest request;
    request.type = MessageType::Simulate;
    request.workload = "mcf_like";
    request.inputIdx = 0;
    request.instructions = kTraceLen;
    request.predictor = predictor;
    request.first = first;
    request.count = count;
    return request;
}

/** Direct in-process result of one whole-trace run (canonical path). */
struct DirectResult
{
    uint64_t condExecs = 0;
    uint64_t condMispreds = 0;
    uint64_t accuracyBits = 0;
};

DirectResult
directRun(const std::string &predictor)
{
    const Workload workload = findWorkload("mcf_like");
    auto bp = makePredictor(predictor);
    PredictorSim sim(*bp, /*collect_per_branch=*/false);
    const uint64_t got =
        runWorkloadTrace(workload, 0, {&sim}, kTraceLen);
    EXPECT_EQ(got, kTraceLen);
    return {sim.condExecs(), sim.condMispreds(),
            doubleBits(sim.accuracy())};
}

/** A whole-trace BranchStats request for the top `top_k` rows. */
ServeRequest
branchStatsRequest(const std::string &workload,
                   const std::string &predictor, uint32_t top_k = 8)
{
    ServeRequest request;
    request.type = MessageType::BranchStats;
    request.workload = workload;
    request.inputIdx = 0;
    request.instructions = kTraceLen;
    request.predictor = predictor;
    request.topK = top_k;
    return request;
}

/**
 * The reply a BranchStats request should get, from one direct pass of
 * a PredictorSim and a FrontendModel over a trace the VM executes.
 */
ServeReply
directBranchStats(const ServeRequest &request)
{
    auto bp = makePredictor(request.predictor);
    PredictorSim sim(*bp, /*collect_per_branch=*/true);
    FrontendModel fe((FrontendConfig()));
    FanoutSink fanout({&sim, &fe});
    runTrace(findWorkload(request.workload).build(request.inputIdx),
             {&fanout}, request.instructions);
    ServeReply want;
    want.delivered = sim.instructions();
    want.condExecs = sim.condExecs();
    want.condMispreds = sim.condMispreds();
    for (const TargetClassRow &row : targetClassRows(fe))
        want.targetClasses.push_back({static_cast<uint8_t>(row.cls),
                                      row.execs, row.targetMispreds});
    for (const auto &[ip, c] : sim.perBranch())
        want.branches.push_back({ip, c.execs, c.mispreds, c.taken});
    std::sort(want.branches.begin(), want.branches.end(),
              [](const BranchRow &a, const BranchRow &b) {
                  if (a.mispreds != b.mispreds)
                      return a.mispreds > b.mispreds;
                  return a.ip < b.ip;
              });
    if (want.branches.size() > request.topK)
        want.branches.resize(request.topK);
    return want;
}

void
expectSameBranchStats(const ServeReply &got, const ServeReply &want)
{
    ASSERT_EQ(got.code, WireCode::Ok) << got.message;
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.condExecs, want.condExecs);
    EXPECT_EQ(got.condMispreds, want.condMispreds);
    ASSERT_EQ(got.branches.size(), want.branches.size());
    for (size_t i = 0; i < got.branches.size(); ++i) {
        EXPECT_EQ(got.branches[i].ip, want.branches[i].ip) << i;
        EXPECT_EQ(got.branches[i].execs, want.branches[i].execs) << i;
        EXPECT_EQ(got.branches[i].mispreds, want.branches[i].mispreds)
            << i;
        EXPECT_EQ(got.branches[i].taken, want.branches[i].taken) << i;
    }
    ASSERT_EQ(got.targetClasses.size(), want.targetClasses.size());
    for (size_t i = 0; i < got.targetClasses.size(); ++i) {
        EXPECT_EQ(got.targetClasses[i].cls, want.targetClasses[i].cls);
        EXPECT_EQ(got.targetClasses[i].execs,
                  want.targetClasses[i].execs);
        EXPECT_EQ(got.targetClasses[i].targetMispreds,
                  want.targetClasses[i].targetMispreds);
    }
}

/** The reply an H2p request should get, from a direct VM pass. */
ServeReply
directH2p(const ServeRequest &request)
{
    auto bp = makePredictor(request.predictor);
    SlicedBranchStats stats(*bp, request.sliceLength);
    runTrace(findWorkload(request.workload).build(request.inputIdx),
             {&stats}, request.instructions);
    const H2pSummary summary = summarizeH2ps(
        stats, H2pCriteria{}.scaledTo(request.sliceLength));
    ServeReply want;
    want.h2pIps.assign(summary.allH2ps.begin(), summary.allH2ps.end());
    std::sort(want.h2pIps.begin(), want.h2pIps.end());
    want.slices = stats.slices().size();
    want.avgPerSliceBits = doubleBits(summary.avgPerSlice);
    want.avgMispredFractionBits = doubleBits(summary.avgMispredFraction);
    return want;
}

/** Server + scratch corpus fixture. */
class ServeTest : public ::testing::Test
{
  protected:
    void
    startServer(unsigned workers = 2, size_t queue_depth = 32,
                uint32_t slow_ms = 0)
    {
        scratch = std::make_unique<ScratchDir>(
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
        ServeConfig config;
        config.socketPath = scratch->file("s.sock");
        config.workers = workers;
        config.queueDepth = queue_depth;
        config.traceCacheDir = scratch->file("cache");
        config.slowMs = slow_ms;
        server = std::make_unique<ServeServer>(std::move(config));
        ASSERT_TRUE(server->start().ok());
    }

    /** Server with the cost-aware admission budget engaged. */
    void
    startServerOverload(uint64_t max_inflight_cost_ms,
                        const std::string &shed_policy = "heaviest",
                        unsigned workers = 1,
                        size_t queue_depth = 32)
    {
        scratch = std::make_unique<ScratchDir>(
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
        ServeConfig config;
        config.socketPath = scratch->file("s.sock");
        config.workers = workers;
        config.queueDepth = queue_depth;
        config.traceCacheDir = scratch->file("cache");
        config.maxInflightCostMs = max_inflight_cost_ms;
        config.shedPolicy = shed_policy;
        server = std::make_unique<ServeServer>(std::move(config));
        ASSERT_TRUE(server->start().ok());
    }

    void
    TearDown() override
    {
        faultsim::reset();
        DecodedChunkCache::instance().setCapacityBytes(0);
        if (server != nullptr)
            server->stop();
    }

    const std::string &
    socketPath() const
    {
        return server->config().socketPath;
    }

    std::unique_ptr<ScratchDir> scratch;
    std::unique_ptr<ServeServer> server;
};

/** Raw connected UNIX socket for wire-level hardening tests. */
class RawConn
{
  public:
    explicit RawConn(const std::string &path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd,
                      reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }

    ~RawConn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool ok() const { return fd >= 0; }

    void
    send(const std::vector<uint8_t> &bytes)
    {
        ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
    }

    /** Read one reply frame; false on EOF/timeout. */
    bool
    recvFrame(FrameHeader *header, std::vector<uint8_t> *payload)
    {
        struct timeval tv = {5, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        uint8_t hdr[kFrameHeaderBytes];
        size_t off = 0;
        while (off < sizeof(hdr)) {
            const ssize_t n =
                ::recv(fd, hdr + off, sizeof(hdr) - off, 0);
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        if (!parseFrameHeader(hdr, sizeof(hdr), header).ok())
            return false;
        payload->resize(header->payloadLen);
        off = 0;
        while (off < payload->size()) {
            const ssize_t n = ::recv(fd, payload->data() + off,
                                     payload->size() - off, 0);
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** True when the server closed this connection. */
    bool
    closedByPeer()
    {
        struct timeval tv = {5, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        uint8_t byte;
        return ::recv(fd, &byte, 1, 0) == 0;
    }

    int fd = -1;
};

uint64_t
counterValue(const char *name)
{
    return obs::Registry::instance().counterValue(name);
}

// --- protocol round trips --------------------------------------------

TEST(ServeProtocol, FrameHeaderRoundTrip)
{
    std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Simulate, 42, payload, &frame)
                    .ok());
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

    FrameHeader header;
    ASSERT_TRUE(
        parseFrameHeader(frame.data(), frame.size(), &header).ok());
    EXPECT_EQ(header.magic, kFrameMagic);
    EXPECT_EQ(header.version, kProtocolVersion);
    EXPECT_EQ(static_cast<MessageType>(header.type),
              MessageType::Simulate);
    EXPECT_EQ(header.requestId, 42u);
    EXPECT_EQ(header.payloadLen, payload.size());
    EXPECT_TRUE(
        verifyFramePayload(header, frame.data() + kFrameHeaderBytes)
            .ok());
}

TEST(ServeProtocol, RequestPayloadRoundTrip)
{
    ServeRequest request = simulateRequest("gshare", 100, 5000);
    request.deadlineMs = 250;
    const std::vector<uint8_t> payload = encodeRequestPayload(request);
    ServeRequest out;
    ASSERT_TRUE(decodeRequestPayload(MessageType::Simulate,
                                     payload.data(), payload.size(),
                                     &out)
                    .ok());
    EXPECT_EQ(out.workload, request.workload);
    EXPECT_EQ(out.inputIdx, request.inputIdx);
    EXPECT_EQ(out.instructions, request.instructions);
    EXPECT_EQ(out.predictor, request.predictor);
    EXPECT_EQ(out.first, request.first);
    EXPECT_EQ(out.count, request.count);
    EXPECT_EQ(out.deadlineMs, request.deadlineMs);
}

TEST(ServeProtocol, ReplyPayloadRoundTrip)
{
    ServeReply reply;
    reply.type = MessageType::SimulateReply;
    reply.delivered = kTraceLen;
    reply.condExecs = 12345;
    reply.condMispreds = 678;
    reply.accuracyBits = doubleBits(0.9451234567890123);
    const std::vector<uint8_t> payload = encodeReplyPayload(reply);
    ServeReply out;
    ASSERT_TRUE(decodeReplyPayload(MessageType::SimulateReply,
                                   payload.data(), payload.size(),
                                   &out)
                    .ok());
    EXPECT_EQ(out.condExecs, reply.condExecs);
    EXPECT_EQ(out.condMispreds, reply.condMispreds);
    EXPECT_EQ(out.accuracyBits, reply.accuracyBits);
    EXPECT_DOUBLE_EQ(bitsDouble(out.accuracyBits),
                     0.9451234567890123);
}

TEST(ServeProtocol, TrailingBytesAreIgnoredWithinV1)
{
    // The v1 compat rule: payloads grow at the end, decoders ignore
    // what they do not know.
    ServeRequest request = simulateRequest("gshare");
    std::vector<uint8_t> payload = encodeRequestPayload(request);
    payload.push_back(0xAB);
    payload.push_back(0xCD);
    ServeRequest out;
    EXPECT_TRUE(decodeRequestPayload(MessageType::Simulate,
                                     payload.data(), payload.size(),
                                     &out)
                    .ok());
    EXPECT_EQ(out.predictor, "gshare");
}

// --- frame-decoder hardening (no sockets) ----------------------------

TEST(ServeProtocol, TruncatedHeaderIsRefused)
{
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Ping, 1, {}, &frame).ok());
    FrameHeader header;
    for (size_t len = 0; len < kFrameHeaderBytes; ++len)
        EXPECT_FALSE(
            parseFrameHeader(frame.data(), len, &header).ok());
}

TEST(ServeProtocol, BadMagicIsRefused)
{
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Ping, 1, {}, &frame).ok());
    frame[0] ^= 0xFF;
    FrameHeader header;
    const Status st =
        parseFrameHeader(frame.data(), frame.size(), &header);
    EXPECT_EQ(st.code(), StatusCode::CorruptData);
}

TEST(ServeProtocol, UnsupportedVersionIsRefused)
{
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Ping, 1, {}, &frame).ok());
    frame[4] = 99;   // version word
    FrameHeader header;
    EXPECT_FALSE(
        parseFrameHeader(frame.data(), frame.size(), &header).ok());
}

TEST(ServeProtocol, OversizedLengthPrefixIsRefusedBeforeBuffering)
{
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Ping, 1, {}, &frame).ok());
    const uint32_t huge = kMaxFramePayload + 1;
    std::memcpy(frame.data() + 16, &huge, sizeof(huge));
    FrameHeader header;
    EXPECT_FALSE(
        parseFrameHeader(frame.data(), frame.size(), &header).ok());
}

TEST(ServeProtocol, CorruptChecksumIsDetected)
{
    const std::vector<uint8_t> payload = {10, 20, 30};
    std::vector<uint8_t> frame;
    ASSERT_TRUE(
        encodeFrame(MessageType::Simulate, 7, payload, &frame).ok());
    frame[kFrameHeaderBytes + 1] ^= 0x01;   // flip one payload bit
    FrameHeader header;
    ASSERT_TRUE(
        parseFrameHeader(frame.data(), frame.size(), &header).ok());
    const Status st =
        verifyFramePayload(header, frame.data() + kFrameHeaderBytes);
    EXPECT_EQ(st.code(), StatusCode::CorruptData);
}

TEST(ServeProtocol, MalformedPayloadNeverCrashesDecoder)
{
    // Adversarial bytes into every request decoder: must produce a
    // Status, never a crash or an unbounded allocation.
    std::vector<uint8_t> junk(64);
    for (size_t i = 0; i < junk.size(); ++i)
        junk[i] = static_cast<uint8_t>(i * 37 + 11);
    for (const MessageType type :
         {MessageType::Simulate, MessageType::BranchStats,
          MessageType::H2p, MessageType::Materialize}) {
        ServeRequest out;
        for (size_t len = 0; len <= junk.size(); ++len)
            decodeRequestPayload(type, junk.data(), len, &out);
    }
    // A reply whose row count claims more than the payload holds is
    // refused without allocating for the claimed count. The row count
    // sits before the trailing trace id + retry-after hint + (empty)
    // target-class block (u32 count, then u64 + u32 + u32 from the
    // end).
    ServeReply reply;
    reply.type = MessageType::BranchStatsReply;
    std::vector<uint8_t> payload = encodeReplyPayload(reply);
    const uint32_t lying = 0x00FFFFFF;
    std::memcpy(payload.data() + payload.size() - 20, &lying, 4);
    ServeReply out;
    const Status st =
        decodeReplyPayload(MessageType::BranchStatsReply,
                           payload.data(), payload.size(), &out);
    EXPECT_EQ(st.code(), StatusCode::CorruptData);
    EXPECT_TRUE(out.branches.empty());
}

TEST(ServeProtocol, ReplyCarriesTraceIdAndToleratesItsAbsence)
{
    // Every reply type carries a trailing trace id...
    ServeReply reply;
    reply.type = MessageType::PingReply;
    reply.serverInfo = "info";
    reply.traceId = 0xDEADBEEFCAFEF00Dull;
    std::vector<uint8_t> payload = encodeReplyPayload(reply);
    ServeReply out;
    ASSERT_TRUE(decodeReplyPayload(MessageType::PingReply,
                                   payload.data(), payload.size(),
                                   &out)
                    .ok());
    EXPECT_EQ(out.traceId, reply.traceId);

    // ...and a pre-tracing peer that omits the whole trailer (v1
    // compat: payloads grow at the end) still decodes, with id 0 =
    // unassigned and no retry-after hint.
    payload.resize(payload.size() -
                   (sizeof(uint64_t) + sizeof(uint32_t)));
    ServeReply legacy;
    ASSERT_TRUE(decodeReplyPayload(MessageType::PingReply,
                                   payload.data(), payload.size(),
                                   &legacy)
                    .ok());
    EXPECT_EQ(legacy.serverInfo, "info");
    EXPECT_EQ(legacy.traceId, 0u);
    EXPECT_EQ(legacy.retryAfterMs, 0u);

    // A traceId-era peer (trailer ends at the trace id) also decodes:
    // the id is read, the missing hint defaults to 0.
    ServeReply midEra;
    midEra.type = MessageType::PingReply;
    midEra.serverInfo = "info";
    midEra.traceId = 42;
    std::vector<uint8_t> midPayload = encodeReplyPayload(midEra);
    midPayload.resize(midPayload.size() - sizeof(uint32_t));
    ServeReply decoded;
    ASSERT_TRUE(decodeReplyPayload(MessageType::PingReply,
                                   midPayload.data(),
                                   midPayload.size(), &decoded)
                    .ok());
    EXPECT_EQ(decoded.traceId, 42u);
    EXPECT_EQ(decoded.retryAfterMs, 0u);
}

// --- server behavior -------------------------------------------------

TEST_F(ServeTest, PingAndServerInfo)
{
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::string info;
    ASSERT_TRUE(client.ping(&info).ok());
    EXPECT_NE(info.find("bpnsp-serve-v1"), std::string::npos);
}

TEST_F(ServeTest, SimulateMatchesDirectRunBitForBit)
{
    startServer();
    // Expected values from the canonical in-process VM path.
    const DirectResult gshare = directRun("gshare");
    const DirectResult bimodal = directRun("bimodal");

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    for (const auto &[predictor, expect] :
         {std::pair<std::string, DirectResult>{"gshare", gshare},
          {"bimodal", bimodal}}) {
        ServeReply reply;
        ASSERT_TRUE(
            client.call(simulateRequest(predictor), &reply).ok());
        ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
        EXPECT_EQ(reply.delivered, kTraceLen);
        EXPECT_EQ(reply.condExecs, expect.condExecs);
        EXPECT_EQ(reply.condMispreds, expect.condMispreds);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(reply.accuracyBits, expect.accuracyBits);
    }
}

TEST_F(ServeTest, ConcurrentClientsAllMatchDirectRuns)
{
    startServer(/*workers=*/3, /*queue_depth=*/64);
    const DirectResult gshare = directRun("gshare");
    const DirectResult bimodal = directRun("bimodal");

    // N concurrent clients mixing two predictors over the same trace:
    // workers replay the shared store concurrently, and every reply
    // must still be bit-identical to the direct run.
    constexpr unsigned kClients = 6;
    constexpr unsigned kRequestsEach = 3;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ServeClient client;
            if (!client.connectUnix(socketPath()).ok()) {
                ++failures;
                return;
            }
            for (unsigned i = 0; i < kRequestsEach; ++i) {
                const bool useGshare = (c + i) % 2 == 0;
                const DirectResult &expect =
                    useGshare ? gshare : bimodal;
                ServeReply reply;
                if (!client
                         .call(simulateRequest(useGshare ? "gshare"
                                                         : "bimodal"),
                               &reply)
                         .ok() ||
                    reply.code != WireCode::Ok ||
                    reply.condExecs != expect.condExecs ||
                    reply.condMispreds != expect.condMispreds ||
                    reply.accuracyBits != expect.accuracyBits) {
                    ++failures;
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
    // Drain first: workers bump serve.completed after sending the
    // reply, so the counter settles only once in-flight work is done.
    server->drain();
    EXPECT_GE(counterValue("serve.completed"),
              kClients * kRequestsEach);
}

TEST_F(ServeTest, SlicedSimulateMatchesDirectSlice)
{
    startServer();
    // The request materializes the trace; the expected slice result
    // comes from a direct replay of the published entry.
    const Workload workload = findWorkload("mcf_like");
    const uint64_t first = 30000, count = 50000;

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    ServeReply reply;
    ASSERT_TRUE(
        client.call(simulateRequest("gshare", first, count), &reply)
            .ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    EXPECT_EQ(reply.delivered, count);

    const TraceCacheKey key{workload.name,
                            workload.inputs.at(0).label,
                            workload.inputs.at(0).seed, kTraceLen};
    const TraceCache cache(scratch->file("cache"));
    Status st;
    auto reader = TraceStoreReader::open(cache.entryPath(key), &st);
    ASSERT_NE(reader, nullptr) << st.str();
    auto bp = makePredictor("gshare");
    PredictorSim sim(*bp, false);
    ASSERT_TRUE(reader->replayRange(first, count, sim).ok());
    EXPECT_EQ(reply.condExecs, sim.condExecs());
    EXPECT_EQ(reply.condMispreds, sim.condMispreds());
    EXPECT_EQ(reply.accuracyBits, doubleBits(sim.accuracy()));
}

TEST_F(ServeTest, InvalidRequestsGetCleanErrorsAndConnectionSurvives)
{
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());

    ServeRequest request = simulateRequest("gshare");
    request.workload = "no_such_workload";
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::InvalidArgument);

    request = simulateRequest("no_such_predictor");
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::InvalidArgument);

    request = simulateRequest("gshare");
    request.inputIdx = 999;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::InvalidArgument);

    request = simulateRequest("gshare", kTraceLen + 1, 0);
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::InvalidArgument);

    request = simulateRequest("gshare");
    request.instructions = 0;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::InvalidArgument);

    // After all that abuse the connection still serves real work.
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
}

TEST_F(ServeTest, BranchStatsAndH2pReplies)
{
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());

    ServeRequest request;
    request.type = MessageType::BranchStats;
    request.workload = "mcf_like";
    request.instructions = kTraceLen;
    request.predictor = "gshare";
    request.topK = 5;
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    EXPECT_EQ(reply.delivered, kTraceLen);
    EXPECT_GT(reply.condExecs, 0u);
    ASSERT_LE(reply.branches.size(), 5u);
    ASSERT_FALSE(reply.branches.empty());
    // Rows arrive most-mispredicted first.
    for (size_t i = 1; i < reply.branches.size(); ++i)
        EXPECT_GE(reply.branches[i - 1].mispreds,
                  reply.branches[i].mispreds);
    // The per-class target block arrives in the analysis layer's
    // stable order: Call, Ret, JumpInd, CallInd. mcf_like is a
    // call-heavy workload, so the Call/Ret rows must have executions.
    ASSERT_EQ(reply.targetClasses.size(), 4u);
    EXPECT_EQ(static_cast<InstrClass>(reply.targetClasses[0].cls),
              InstrClass::Call);
    EXPECT_EQ(static_cast<InstrClass>(reply.targetClasses[1].cls),
              InstrClass::Ret);
    EXPECT_EQ(static_cast<InstrClass>(reply.targetClasses[2].cls),
              InstrClass::JumpInd);
    EXPECT_EQ(static_cast<InstrClass>(reply.targetClasses[3].cls),
              InstrClass::CallInd);
    EXPECT_GT(reply.targetClasses[0].execs, 0u);
    EXPECT_GT(reply.targetClasses[1].execs, 0u);
    for (const TargetClassStat &row : reply.targetClasses)
        EXPECT_LE(row.targetMispreds, row.execs);

    request.type = MessageType::H2p;
    request.predictor = "tage-sc-l-8KB";
    request.sliceLength = 30000;
    ASSERT_TRUE(client.call(request, &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    EXPECT_EQ(reply.slices, 4u);   // 120000 / 30000
    // IPs arrive sorted ascending.
    for (size_t i = 1; i < reply.h2pIps.size(); ++i)
        EXPECT_LT(reply.h2pIps[i - 1], reply.h2pIps[i]);
}

TEST_F(ServeTest, FrontendMemoSweepMatchesDirectPasses)
{
    // The target-class rows depend only on the trace: the first
    // BranchStats over it runs the frontend model, the other seven of
    // a two-pass sweep copy its rows, and every reply still equals a
    // direct sim + frontend pass of its own predictor.
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::vector<std::string> order = {"bimodal", "gshare", "local",
                                      "perceptron"};
    std::map<std::string, ServeReply> want;
    for (const std::string &p : order)
        want[p] = directBranchStats(branchStatsRequest("vcall", p));

    const uint64_t hitsBefore = counterValue("serve.frontend_memo.hits");
    const uint64_t missesBefore =
        counterValue("serve.frontend_memo.misses");
    for (int pass = 0; pass < 2; ++pass) {
        for (const std::string &p : order) {
            ServeReply reply;
            ASSERT_TRUE(
                client.call(branchStatsRequest("vcall", p), &reply).ok());
            SCOPED_TRACE("pass " + std::to_string(pass) + " " + p);
            expectSameBranchStats(reply, want[p]);
        }
        std::reverse(order.begin(), order.end());
    }
    EXPECT_EQ(counterValue("serve.frontend_memo.misses"),
              missesBefore + 1);
    EXPECT_EQ(counterValue("serve.frontend_memo.hits"), hitsBefore + 7);
}

TEST_F(ServeTest, FrontendMemoIgnoresADeadlineCutPass)
{
    // A pass cut by its deadline must not publish a partial table:
    // the next BranchStats on the still-cold memo recomputes it.
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    ServeReply reply;
    // Open the reader through a Simulate, which leaves the memo cold.
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;

    const uint64_t hitsBefore = counterValue("serve.frontend_memo.hits");
    const uint64_t missesBefore =
        counterValue("serve.frontend_memo.misses");
    ServeRequest cut = branchStatsRequest("mcf_like", "tage-sc-l-64KB");
    cut.deadlineMs = 1;
    ASSERT_TRUE(client.call(cut, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::DeadlineExceeded)
        << wireCodeName(reply.code) << ": " << reply.message;

    const ServeRequest request = branchStatsRequest("mcf_like", "gshare");
    ASSERT_TRUE(client.call(request, &reply).ok());
    expectSameBranchStats(reply, directBranchStats(request));
    EXPECT_EQ(counterValue("serve.frontend_memo.hits"), hitsBefore);
    EXPECT_GE(counterValue("serve.frontend_memo.misses"),
              missesBefore + 1);
}

TEST_F(ServeTest, FrontendMemoIsRecomputedAfterAQuarantine)
{
    // The memo lives on the open-reader entry: a CorruptData
    // quarantine drops the entry, so the next BranchStats over the
    // regenerated trace runs the frontend model again.
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    ServeReply reply;
    for (const char *p : {"gshare", "bimodal"}) {
        ASSERT_TRUE(
            client.call(branchStatsRequest("mcf_like", p), &reply).ok());
        ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    }

    ASSERT_TRUE(faultsim::configure("tracestore.read.bitflip").ok());
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &reply).ok());
    EXPECT_EQ(reply.code, WireCode::CorruptData)
        << wireCodeName(reply.code) << ": " << reply.message;
    faultsim::reset();

    const uint64_t missesBefore =
        counterValue("serve.frontend_memo.misses");
    const ServeRequest request = branchStatsRequest("mcf_like", "local");
    ASSERT_TRUE(client.call(request, &reply).ok());
    expectSameBranchStats(reply, directBranchStats(request));
    EXPECT_EQ(counterValue("serve.frontend_memo.misses"),
              missesBefore + 1);
}

TEST_F(ServeTest, MidReplayCorruptionQuarantinesForEveryOp)
{
    // One flipped byte in the middle of a served trace: the first
    // request of either op to replay it answers CORRUPT_DATA and
    // quarantines the entry, and the next regenerates the trace and
    // answers exactly what a direct VM pass gives.
    ServeRequest h2p = branchStatsRequest("mcf_like", "tage-sc-l-8KB");
    h2p.type = MessageType::H2p;
    h2p.sliceLength = 30000;
    for (const ServeRequest &request :
         {branchStatsRequest("mcf_like", "gshare"), h2p}) {
        SCOPED_TRACE(messageTypeName(request.type));
        startServer();   // a fresh server over a fresh corpus
        ServeClient client;
        ASSERT_TRUE(client.connectUnix(socketPath()).ok());
        ServeRequest materialize = request;
        materialize.type = MessageType::Materialize;
        ServeReply reply;
        ASSERT_TRUE(client.call(materialize, &reply).ok());
        ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
        const std::string entry = reply.path;
        const std::string evidence =
            scratch->file("cache/" + reply.digest + ".quarantine.0");
        {
            std::FILE *f = std::fopen(entry.c_str(), "rb+");
            ASSERT_NE(f, nullptr);
            const long offset = static_cast<long>(
                std::filesystem::file_size(entry) / 4);
            std::fseek(f, offset, SEEK_SET);
            const int byte = std::fgetc(f);
            std::fseek(f, offset, SEEK_SET);
            std::fputc(byte ^ 0x10, f);
            std::fclose(f);
        }

        const uint64_t quarantinedBefore =
            counterValue("tracestore.cache.quarantined");
        const uint64_t generatedBefore =
            counterValue("serve.generated_traces");
        ASSERT_TRUE(client.call(request, &reply).ok());
        EXPECT_EQ(reply.code, WireCode::CorruptData)
            << wireCodeName(reply.code) << ": " << reply.message;
        EXPECT_EQ(counterValue("tracestore.cache.quarantined"),
                  quarantinedBefore + 1);
        EXPECT_TRUE(std::filesystem::exists(evidence));

        ASSERT_TRUE(client.call(request, &reply).ok());
        EXPECT_EQ(counterValue("serve.generated_traces"),
                  generatedBefore + 1);
        if (request.type == MessageType::BranchStats) {
            expectSameBranchStats(reply, directBranchStats(request));
        } else {
            ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
            const ServeReply want = directH2p(request);
            EXPECT_EQ(reply.h2pIps, want.h2pIps);
            EXPECT_EQ(reply.slices, want.slices);
            EXPECT_EQ(reply.avgPerSliceBits, want.avgPerSliceBits);
            EXPECT_EQ(reply.avgMispredFractionBits,
                      want.avgMispredFractionBits);
        }
        server->stop();
        server.reset();
        scratch.reset();
    }
}

TEST_F(ServeTest, ConcurrentBranchStatsShareOneMemo)
{
    // Four workers race on one cold memo: whichever publishes first,
    // every reply is the same and equals the direct pass.
    startServer(/*workers=*/4);
    {
        ServeClient client;
        ASSERT_TRUE(client.connectUnix(socketPath()).ok());
        ServeReply reply;
        ASSERT_TRUE(client.call(simulateRequest("gshare"), &reply).ok());
        ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    }
    const ServeRequest request = branchStatsRequest("mcf_like", "gshare");
    const ServeReply want = directBranchStats(request);
    const uint64_t lookupsBefore =
        counterValue("serve.frontend_memo.hits") +
        counterValue("serve.frontend_memo.misses");

    constexpr unsigned kClients = 4;
    std::vector<ServeReply> replies(kClients);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ServeClient client;
            if (client.connectUnix(socketPath()).ok())
                client.call(request, &replies[c]);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (unsigned c = 0; c < kClients; ++c) {
        SCOPED_TRACE("client " + std::to_string(c));
        expectSameBranchStats(replies[c], want);
    }
    EXPECT_EQ(counterValue("serve.frontend_memo.hits") +
                  counterValue("serve.frontend_memo.misses"),
              lookupsBefore + kClients);
}

TEST_F(ServeTest, MaterializePublishesIntoTheCorpus)
{
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    ServeRequest request;
    request.type = MessageType::Materialize;
    request.workload = "xz_like";
    request.instructions = 60000;
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    EXPECT_EQ(reply.records, 60000u);
    EXPECT_FALSE(reply.digest.empty());
    EXPECT_TRUE(std::filesystem::exists(reply.path));
}

TEST_F(ServeTest, BackpressureRejectsWithResourceExhausted)
{
    // One stalled worker, a queue of one: a burst must overflow the
    // admission queue and be rejected, not buffered without bound.
    startServer(/*workers=*/1, /*queue_depth=*/1);
    ASSERT_TRUE(faultsim::configure("serve.worker.stall").ok());

    const uint64_t rejectedBefore = counterValue("serve.rejected");
    constexpr unsigned kBurst = 12;
    std::atomic<unsigned> rejected{0}, okOrOther{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kBurst; ++c) {
        threads.emplace_back([&] {
            ServeClient client;
            if (!client.connectUnix(socketPath()).ok())
                return;
            ServeReply reply;
            if (!client.call(simulateRequest("gshare"), &reply).ok())
                return;
            if (reply.code == WireCode::ResourceExhausted)
                ++rejected;
            else
                ++okOrOther;
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_GT(rejected.load(), 0u);
    EXPECT_GT(okOrOther.load(), 0u);   // the queue still served some
    EXPECT_GT(counterValue("serve.rejected"), rejectedBefore);
}

TEST_F(ServeTest, DeadlineExceededOnSlowRequest)
{
    startServer();
    // Materialize first so the deadline hits the replay.
    ASSERT_TRUE(captureTrace(TraceCache(scratch->file("cache")),
                             findWorkload("mcf_like"), 0, kTraceLen)
                    .ok());

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    ServeRequest request = simulateRequest("tage-sc-l-64KB");
    request.deadlineMs = 1;
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::DeadlineExceeded)
        << wireCodeName(reply.code) << ": " << reply.message;
}

TEST_F(ServeTest, MidFrameDisconnectIsHandledCleanly)
{
    startServer();
    const uint64_t resetsBefore = counterValue("serve.conn_resets");
    {
        RawConn raw(socketPath());
        ASSERT_TRUE(raw.ok());
        std::vector<uint8_t> frame;
        ASSERT_TRUE(encodeFrame(MessageType::Simulate, 9,
                                encodeRequestPayload(
                                    simulateRequest("gshare")),
                                &frame)
                        .ok());
        frame.resize(kFrameHeaderBytes + 3);   // truncate mid-frame
        raw.send(frame);
        // Destructor closes the socket: a disconnect mid-frame.
    }
    // The server must survive and keep serving.
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
    EXPECT_GT(counterValue("serve.conn_resets"), resetsBefore);
}

TEST_F(ServeTest, GarbageBytesGetErrorReplyAndClose)
{
    startServer();
    RawConn raw(socketPath());
    ASSERT_TRUE(raw.ok());
    std::vector<uint8_t> garbage(kFrameHeaderBytes, 0x5A);
    raw.send(garbage);
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    EXPECT_EQ(static_cast<MessageType>(header.type),
              MessageType::Error);
    EXPECT_TRUE(raw.closedByPeer());

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
}

TEST_F(ServeTest, CorruptChecksumOnWireGetsCorruptDataAndClose)
{
    startServer();
    const uint64_t corruptBefore = counterValue("serve.frames_corrupt");
    RawConn raw(socketPath());
    ASSERT_TRUE(raw.ok());
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Simulate, 11,
                            encodeRequestPayload(
                                simulateRequest("gshare")),
                            &frame)
                    .ok());
    frame[kFrameHeaderBytes] ^= 0x40;   // corrupt payload, stale crc
    raw.send(frame);
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    EXPECT_EQ(static_cast<MessageType>(header.type),
              MessageType::Error);
    ServeReply reply;
    ASSERT_TRUE(decodeReplyPayload(MessageType::Error, payload.data(),
                                   payload.size(), &reply)
                    .ok());
    EXPECT_EQ(reply.code, WireCode::CorruptData);
    EXPECT_TRUE(raw.closedByPeer());
    EXPECT_GT(counterValue("serve.frames_corrupt"), corruptBefore);
}

TEST_F(ServeTest, FrameCorruptFailpointFiresTheSamePath)
{
    startServer();
    ASSERT_TRUE(faultsim::configure("serve.frame.corrupt*1").ok());
    const uint64_t corruptBefore = counterValue("serve.frames_corrupt");

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    ServeReply reply;
    const Status st = client.call(simulateRequest("gshare"), &reply);
    // The injected flip surfaces as a CorruptData error reply (and the
    // server closes the connection afterwards).
    if (st.ok()) {
        EXPECT_EQ(reply.code, WireCode::CorruptData);
    }
    EXPECT_GT(counterValue("serve.frames_corrupt"), corruptBefore);

    // One fire only: a fresh connection works.
    ServeClient again;
    ASSERT_TRUE(again.connectUnix(socketPath()).ok());
    std::string info;
    EXPECT_TRUE(again.ping(&info).ok());
}

TEST_F(ServeTest, AcceptFailpointDropsOneConnection)
{
    startServer();
    ASSERT_TRUE(faultsim::configure("serve.accept.fail*1").ok());
    // The first connection is accepted then immediately closed.
    {
        RawConn raw(socketPath());
        ASSERT_TRUE(raw.ok());
        EXPECT_TRUE(raw.closedByPeer());
    }
    EXPECT_GE(counterValue("serve.accept_failures"), 1u);
    // The next one is served normally.
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
}

TEST_F(ServeTest, DrainFinishesInFlightThenRefusesNewConnections)
{
    startServer(/*workers=*/1);
    ASSERT_TRUE(faultsim::configure("serve.worker.stall*1").ok());

    // An in-flight (stalled) request issued before the drain...
    std::atomic<bool> gotReply{false};
    std::atomic<bool> replyOk{false};
    std::thread inflight([&] {
        ServeClient client;
        if (!client.connectUnix(socketPath()).ok())
            return;
        ServeReply reply;
        if (client.call(simulateRequest("gshare"), &reply).ok()) {
            gotReply.store(true);
            replyOk.store(reply.code == WireCode::Ok);
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    // ...must complete during the graceful drain.
    server->drain();
    inflight.join();
    EXPECT_TRUE(gotReply.load());
    EXPECT_TRUE(replyOk.load());

    // And the drained server refuses new connections.
    ServeClient late;
    EXPECT_FALSE(late.connectUnix(socketPath()).ok());
    server.reset();   // already drained; destructor is a no-op
}

TEST_F(ServeTest, LoadGenClosedLoopWithKillsAndVerify)
{
    startServer(/*workers=*/3);
    // --verify replays the server's corpus directly.
    setTraceCacheDir(scratch->file("cache"));
    LoadGenConfig cfg;
    cfg.socketPath = socketPath();
    cfg.clients = 4;
    cfg.requestsPerClient = 8;
    cfg.workload = "mcf_like";
    cfg.instructions = kTraceLen;
    cfg.predictors = {"gshare", "bimodal"};
    cfg.sliceRecords = 40000;
    cfg.killProb = 0.15;
    cfg.verify = true;
    const LoadGenResult result = runLoadGen(cfg);
    EXPECT_GT(result.ok, 0u);
    EXPECT_EQ(result.mismatches, 0u);
    EXPECT_GT(result.killed, 0u);
    // The server survived the kills and still serves.
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
}

TEST_F(ServeTest, DecodedChunkCacheServesRepeatedReplays)
{
    DecodedChunkCache::instance().setCapacityBytes(32 * 1024 * 1024);
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());

    ServeReply first;
    ASSERT_TRUE(
        client.call(simulateRequest("gshare"), &first).ok());
    ASSERT_EQ(first.code, WireCode::Ok) << first.message;
    const uint64_t hitsBefore =
        counterValue("tracestore.chunk_cache.hits");

    ServeReply second;
    ASSERT_TRUE(
        client.call(simulateRequest("bimodal"), &second).ok());
    ASSERT_EQ(second.code, WireCode::Ok) << second.message;
    // The second replay of the same store decodes nothing: every
    // chunk comes from the in-memory LRU.
    EXPECT_GT(counterValue("tracestore.chunk_cache.hits"),
              hitsBefore);
    // And the cached decode changes no results.
    EXPECT_EQ(first.delivered, second.delivered);
}

// --- tracing & live introspection ------------------------------------

TEST_F(ServeTest, EveryReplyCarriesADistinctMonotonicTraceId)
{
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());

    // Success, error, and io-thread replies all get server-assigned
    // ids, strictly increasing across sequential requests.
    std::vector<uint64_t> ids;

    ServeReply reply;
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    ids.push_back(reply.traceId);

    ServeRequest bad = simulateRequest("gshare");
    bad.workload = "no_such_workload";
    ASSERT_TRUE(client.call(bad, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::InvalidArgument);
    ids.push_back(reply.traceId);   // rejected, still traced

    std::string json;
    uint64_t statsId = 0;
    ASSERT_TRUE(client.stats(&json, &statsId).ok());
    ids.push_back(statsId);

    ASSERT_TRUE(client.call(simulateRequest("bimodal"), &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    ids.push_back(reply.traceId);

    for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_NE(ids[i], 0u) << "reply " << i << " untagged";
        if (i > 0) {
            EXPECT_GT(ids[i], ids[i - 1]);
        }
    }
}

TEST_F(ServeTest, StatsReturnsALiveSelfContainedSnapshot)
{
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());

    // Work first, so the snapshot has something to show.
    ServeReply reply;
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;

    const uint64_t statsBefore = counterValue("serve.stats_requests");
    std::string json;
    uint64_t traceId = 0;
    ASSERT_TRUE(client.stats(&json, &traceId).ok());
    EXPECT_NE(traceId, 0u);
    EXPECT_GT(counterValue("serve.stats_requests"), statsBefore);

    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(json, &doc).ok()) << json;
    EXPECT_EQ(doc.get("schema").asString(), "bpnsp-stats-v1");
    ASSERT_TRUE(doc.get("counters").isObject());
    // The Simulate above and this very Stats request are visible in
    // the live counters (serve.requests bumps before the render;
    // serve.completed would race — workers bump it after replying).
    EXPECT_GE(doc.get("counters").get("serve.requests").asUint(), 2u);
    EXPECT_GE(doc.get("counters").get("serve.stats_requests").asUint(),
              1u);
    ASSERT_TRUE(doc.get("histograms").isObject());
    EXPECT_TRUE(doc.get("histograms").has("serve.request_ns"));
}

TEST_F(ServeTest, StatsIsAnsweredUnderFullLoad)
{
    // Stats lives on the io thread: even with every worker busy and
    // the queue churning, introspection answers promptly.
    startServer(/*workers=*/2, /*queue_depth=*/16);
    std::atomic<bool> stopLoad{false};
    std::vector<std::thread> load;
    for (unsigned c = 0; c < 3; ++c) {
        load.emplace_back([&] {
            ServeClient client;
            if (!client.connectUnix(socketPath()).ok())
                return;
            while (!stopLoad.load()) {
                ServeReply reply;
                if (!client.call(simulateRequest("gshare"), &reply)
                         .ok())
                    return;
            }
        });
    }

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    for (int i = 0; i < 5; ++i) {
        std::string json;
        ASSERT_TRUE(client.stats(&json).ok()) << "stats call " << i;
        JsonValue doc;
        ASSERT_TRUE(JsonValue::parse(json, &doc).ok());
        EXPECT_EQ(doc.get("schema").asString(), "bpnsp-stats-v1");
    }

    stopLoad.store(true);
    for (std::thread &t : load)
        t.join();
}

TEST_F(ServeTest, StatsIsAnsweredWhileDrainWaitsForInFlightWork)
{
    startServer(/*workers=*/1);
    ASSERT_TRUE(faultsim::configure("serve.worker.stall*1").ok());

    // Connect the introspection client while the listener is open;
    // the drain closes the listener but keeps polling live conns.
    ServeClient statsClient;
    ASSERT_TRUE(statsClient.connectUnix(socketPath()).ok());

    std::atomic<bool> replyOk{false};
    std::thread inflight([&] {
        ServeClient client;
        if (!client.connectUnix(socketPath()).ok())
            return;
        ServeReply reply;
        if (client.call(simulateRequest("tage-sc-l-8KB"), &reply)
                .ok())
            replyOk.store(reply.code == WireCode::Ok);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    std::thread drainer([&] { server->drain(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

    // The in-flight request is stalled in the single worker, the
    // drain is waiting on it — and Stats still answers.
    std::string json;
    uint64_t traceId = 0;
    EXPECT_TRUE(statsClient.stats(&json, &traceId).ok());
    EXPECT_NE(traceId, 0u);
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(json, &doc).ok());
    EXPECT_EQ(doc.get("schema").asString(), "bpnsp-stats-v1");

    drainer.join();
    inflight.join();
    EXPECT_TRUE(replyOk.load());
    server.reset();   // already drained
}

TEST_F(ServeTest, DrainClosesManyIdleConnections)
{
    // The io thread's shutdown closes every open connection; closing
    // one removes it from the server's list, so the walk must not
    // iterate the list it is erasing from. A ping round trip per
    // client proves each connection was accepted before the drain.
    startServer(/*workers=*/1);
    std::vector<std::unique_ptr<ServeClient>> clients;
    for (int i = 0; i < 4; ++i) {
        clients.push_back(std::make_unique<ServeClient>());
        ASSERT_TRUE(clients.back()->connectUnix(socketPath()).ok());
        std::string info;
        ASSERT_TRUE(clients.back()->ping(&info).ok());
    }
    server->drain();
    server.reset();
    // Every client now sees its connection closed by the server.
    for (auto &client : clients) {
        std::string info;
        EXPECT_FALSE(client->ping(&info).ok());
    }
}

TEST_F(ServeTest, SlowRequestThresholdCountsCrossings)
{
    // 1 ms threshold: a 120k-record simulate always crosses it.
    startServer(/*workers=*/2, /*queue_depth=*/32, /*slow_ms=*/1);
    const uint64_t slowBefore = counterValue("serve.slow_requests");

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    ServeReply reply;
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;

    server->drain();   // settle the worker-side accounting
    EXPECT_GT(counterValue("serve.slow_requests"), slowBefore);
}

// --- overload: admission budget, cancel, deadline sweep --------------

TEST_F(ServeTest, CancelShedsQueuedRequestBeforeExecution)
{
    // One stalled worker: id 1 occupies it, id 2 waits in the queue.
    // Cancelling id 2 must answer CANCELLED from the io thread before
    // the request ever costs a worker anything.
    startServer(/*workers=*/1, /*queue_depth=*/8);
    ASSERT_TRUE(faultsim::configure("serve.worker.stall").ok());
    const uint64_t cancelsBefore = counterValue("serve.cancels");

    RawConn raw(socketPath());
    ASSERT_TRUE(raw.ok());
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Simulate, 1,
                            encodeRequestPayload(
                                simulateRequest("gshare")),
                            &frame)
                    .ok());
    raw.send(frame);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    // The same trace slice as id 1: the victim is cancelled on its
    // own.
    const ServeRequest queued = simulateRequest("bimodal");
    ASSERT_TRUE(encodeFrame(MessageType::Simulate, 2,
                            encodeRequestPayload(queued), &frame)
                    .ok());
    raw.send(frame);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

    ServeRequest cancel;
    cancel.type = MessageType::Cancel;
    cancel.cancelTargetId = 2;
    ASSERT_TRUE(encodeFrame(MessageType::Cancel, 3,
                            encodeRequestPayload(cancel), &frame)
                    .ok());
    raw.send(frame);

    // The victim's CANCELLED error, then the CancelReply — both while
    // the lone worker is still stalled on id 1.
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    EXPECT_EQ(header.requestId, 2u);
    ASSERT_EQ(static_cast<MessageType>(header.type),
              MessageType::Error);
    ServeReply victim;
    ASSERT_TRUE(decodeReplyPayload(MessageType::Error, payload.data(),
                                   payload.size(), &victim)
                    .ok());
    EXPECT_EQ(victim.code, WireCode::Cancelled);

    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    EXPECT_EQ(header.requestId, 3u);
    ASSERT_EQ(static_cast<MessageType>(header.type),
              MessageType::CancelReply);
    ServeReply ack;
    ASSERT_TRUE(decodeReplyPayload(MessageType::CancelReply,
                                   payload.data(), payload.size(),
                                   &ack)
                    .ok());
    EXPECT_EQ(ack.cancelFound, 1u);
    EXPECT_GT(counterValue("serve.cancels"), cancelsBefore);

    // An id that was never issued reports not-found.
    cancel.cancelTargetId = 999;
    ASSERT_TRUE(encodeFrame(MessageType::Cancel, 4,
                            encodeRequestPayload(cancel), &frame)
                    .ok());
    raw.send(frame);
    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    ASSERT_EQ(static_cast<MessageType>(header.type),
              MessageType::CancelReply);
    ServeReply notFound;
    ASSERT_TRUE(decodeReplyPayload(MessageType::CancelReply,
                                   payload.data(), payload.size(),
                                   &notFound)
                    .ok());
    EXPECT_EQ(notFound.cancelFound, 0u);
}

TEST_F(ServeTest, CostBudgetAdmissionShedsWithRetryAfterHint)
{
    // A 1 ms inflight-work budget cannot fit a cold 120k-record
    // simulate (prior estimate ~10 ms): cost-aware admission sheds it
    // up front with RESOURCE_EXHAUSTED and a non-zero retry hint,
    // before any queueing or worker time.
    startServerOverload(/*max_inflight_cost_ms=*/1);
    const uint64_t shedBefore = counterValue("serve.shed");

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    RetryPolicy policy;
    policy.maxAttempts = 1;
    client.setRetryPolicy(policy);
    ServeReply reply;
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &reply).ok());
    EXPECT_EQ(reply.code, WireCode::ResourceExhausted)
        << wireCodeName(reply.code) << ": " << reply.message;
    EXPECT_GT(reply.retryAfterMs, 0u);
    EXPECT_GT(counterValue("serve.shed"), shedBefore);
}

TEST_F(ServeTest, DeadlineSweepExpiresQueuedRequestBeforeWorkerTime)
{
    // One worker, stalled on its first pop: a queued request whose
    // budget lapses while waiting is answered DEADLINE_EXCEEDED by
    // the queue sweep at the next pop, never reaching a worker.
    startServer(/*workers=*/1);
    ASSERT_TRUE(faultsim::configure("serve.worker.stall*1").ok());
    const uint64_t expiredBefore = counterValue("serve.expired");

    RawConn raw(socketPath());
    ASSERT_TRUE(raw.ok());
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Simulate, 1,
                            encodeRequestPayload(
                                simulateRequest("gshare")),
                            &frame)
                    .ok());
    raw.send(frame);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    ServeRequest doomed = simulateRequest("bimodal");
    doomed.deadlineMs = 1;
    ASSERT_TRUE(encodeFrame(MessageType::Simulate, 2,
                            encodeRequestPayload(doomed), &frame)
                    .ok());
    raw.send(frame);

    // id 1's reply lands first (stall, then the replay); the next pop
    // sweeps id 2, by then far past its 1 ms budget.
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    EXPECT_EQ(header.requestId, 1u);
    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    EXPECT_EQ(header.requestId, 2u);
    ASSERT_EQ(static_cast<MessageType>(header.type),
              MessageType::Error);
    ServeReply reply;
    ASSERT_TRUE(decodeReplyPayload(MessageType::Error, payload.data(),
                                   payload.size(), &reply)
                    .ok());
    EXPECT_EQ(reply.code, WireCode::DeadlineExceeded)
        << reply.message;
    EXPECT_GT(counterValue("serve.expired"), expiredBefore);
}

// --- health probe, retry policy, EINTR hardening ---------------------

TEST(ServeProtocol, HealthReplyRoundTripsShardRows)
{
    ServeReply reply;
    reply.type = MessageType::HealthReply;
    ShardHealth a;
    a.shard = 0;
    a.state = ShardHealth::Ready;
    a.pid = 4242;
    a.restarts = 1;
    a.deaths = 2;
    ShardHealth b;
    b.shard = 1;
    b.state = ShardHealth::Degraded;
    b.pid = 0;
    b.restarts = 7;
    b.deaths = 12;
    reply.shards = {a, b};
    reply.retryAfterMs = 350;

    const std::vector<uint8_t> payload = encodeReplyPayload(reply);
    ServeReply out;
    ASSERT_TRUE(decodeReplyPayload(MessageType::HealthReply,
                                   payload.data(), payload.size(),
                                   &out)
                    .ok());
    ASSERT_EQ(out.shards.size(), 2u);
    EXPECT_EQ(out.shards[0].state, ShardHealth::Ready);
    EXPECT_EQ(out.shards[0].pid, 4242u);
    EXPECT_EQ(out.shards[1].state, ShardHealth::Degraded);
    EXPECT_EQ(out.shards[1].deaths, 12u);
    EXPECT_EQ(out.retryAfterMs, 350u);

    // A row count claiming more rows than the payload holds is
    // refused, not allocated for.
    std::vector<uint8_t> lying = payload;
    const uint32_t bogus = 0x00FFFFFF;
    std::memcpy(lying.data(), &bogus, 4);
    ServeReply refused;
    EXPECT_EQ(decodeReplyPayload(MessageType::HealthReply,
                                 lying.data(), lying.size(), &refused)
                  .code(),
              StatusCode::CorruptData);
}

TEST(ServeProtocol, CancelRequestAndReplyRoundTrip)
{
    ServeRequest request;
    request.type = MessageType::Cancel;
    request.cancelTargetId = 0xABCDEF0123456789ull;
    const std::vector<uint8_t> payload = encodeRequestPayload(request);
    ServeRequest out;
    ASSERT_TRUE(decodeRequestPayload(MessageType::Cancel,
                                     payload.data(), payload.size(),
                                     &out)
                    .ok());
    EXPECT_EQ(out.cancelTargetId, request.cancelTargetId);
    EXPECT_TRUE(isRequestType(MessageType::Cancel));
    // Best-effort and addressed by target id: a duplicated Cancel is
    // harmless, so hedging never needs to special-case it.
    EXPECT_TRUE(isIdempotentRequest(MessageType::Cancel));

    ServeReply reply;
    reply.type = MessageType::CancelReply;
    reply.cancelFound = 1;
    const std::vector<uint8_t> rp = encodeReplyPayload(reply);
    ServeReply rout;
    ASSERT_TRUE(decodeReplyPayload(MessageType::CancelReply,
                                   rp.data(), rp.size(), &rout)
                    .ok());
    EXPECT_EQ(rout.cancelFound, 1u);
}

TEST(ServeProtocol, HealthReplyOverloadBlockRoundTripsAndIsOptional)
{
    ServeReply reply;
    reply.type = MessageType::HealthReply;
    ShardHealth row;
    row.shard = 0;
    row.state = ShardHealth::Ready;
    row.pid = 99;
    row.queueDepth = 17;
    row.queuedCostMs = 4200;
    reply.shards = {row};

    std::vector<uint8_t> payload = encodeReplyPayload(reply);
    ServeReply out;
    ASSERT_TRUE(decodeReplyPayload(MessageType::HealthReply,
                                   payload.data(), payload.size(),
                                   &out)
                    .ok());
    ASSERT_EQ(out.shards.size(), 1u);
    EXPECT_EQ(out.shards[0].queueDepth, 17u);
    EXPECT_EQ(out.shards[0].queuedCostMs, 4200u);

    // The block rides behind the universal trailers (grow-at-end):
    // a pre-overload server's payload simply ends after the
    // retry-after hint, and the depths stay zero.
    payload.resize(payload.size() - (4 + 12 * reply.shards.size()));
    ServeReply legacy;
    ASSERT_TRUE(decodeReplyPayload(MessageType::HealthReply,
                                   payload.data(), payload.size(),
                                   &legacy)
                    .ok());
    ASSERT_EQ(legacy.shards.size(), 1u);
    EXPECT_EQ(legacy.shards[0].queueDepth, 0u);
    EXPECT_EQ(legacy.shards[0].queuedCostMs, 0u);

    // A block claiming more rows than the payload holds is refused,
    // not allocated for.
    std::vector<uint8_t> lying = encodeReplyPayload(reply);
    const uint32_t bogus = 0x00FFFFFF;
    std::memcpy(lying.data() + lying.size() - 16, &bogus, 4);
    ServeReply refused;
    EXPECT_EQ(decodeReplyPayload(MessageType::HealthReply,
                                 lying.data(), lying.size(), &refused)
                  .code(),
              StatusCode::CorruptData);
}

TEST(ServeProtocol, BranchStatsTargetBlockRoundTripsAndIsOptional)
{
    ServeReply reply;
    reply.type = MessageType::BranchStatsReply;
    reply.delivered = 1000;
    reply.condExecs = 200;
    reply.condMispreds = 20;
    reply.branches = {{0x40, 10, 2, 5}};
    reply.targetClasses = {
        {static_cast<uint8_t>(InstrClass::Call), 50, 0},
        {static_cast<uint8_t>(InstrClass::Ret), 50, 3},
        {static_cast<uint8_t>(InstrClass::JumpInd), 7, 4},
        {static_cast<uint8_t>(InstrClass::CallInd), 0, 0},
    };

    std::vector<uint8_t> payload = encodeReplyPayload(reply);
    ServeReply out;
    ASSERT_TRUE(decodeReplyPayload(MessageType::BranchStatsReply,
                                   payload.data(), payload.size(),
                                   &out)
                    .ok());
    ASSERT_EQ(out.targetClasses.size(), 4u);
    EXPECT_EQ(static_cast<InstrClass>(out.targetClasses[1].cls),
              InstrClass::Ret);
    EXPECT_EQ(out.targetClasses[1].execs, 50u);
    EXPECT_EQ(out.targetClasses[1].targetMispreds, 3u);
    EXPECT_EQ(out.targetClasses[2].targetMispreds, 4u);
    // The direction fields in front of the trailers are untouched.
    EXPECT_EQ(out.condMispreds, 20u);
    ASSERT_EQ(out.branches.size(), 1u);
    EXPECT_EQ(out.branches[0].execs, 10u);

    // A pre-frontend server's payload ends after the retry-after
    // trailer (grow-at-end): the vector stays empty, nothing fails.
    payload.resize(payload.size() -
                   (4 + 17 * reply.targetClasses.size()));
    ServeReply legacy;
    ASSERT_TRUE(decodeReplyPayload(MessageType::BranchStatsReply,
                                   payload.data(), payload.size(),
                                   &legacy)
                    .ok());
    EXPECT_TRUE(legacy.targetClasses.empty());
    EXPECT_EQ(legacy.condMispreds, 20u);

    // A count claiming more rows than the payload holds is refused.
    std::vector<uint8_t> lying = encodeReplyPayload(reply);
    const uint32_t bogus = 0x00FFFFFF;
    std::memcpy(lying.data() + lying.size() -
                    (4 + 17 * reply.targetClasses.size()),
                &bogus, 4);
    ServeReply refused;
    EXPECT_EQ(decodeReplyPayload(MessageType::BranchStatsReply,
                                 lying.data(), lying.size(), &refused)
                  .code(),
              StatusCode::CorruptData);
}

TEST(ServeProtocol, UnavailableMapsAcrossTheWireBothWays)
{
    EXPECT_EQ(wireCodeFor(Status::unavailable("down")),
              WireCode::Unavailable);
    const Status st =
        statusFromWire(WireCode::Unavailable, "shard 3 down");
    EXPECT_EQ(st.code(), StatusCode::Unavailable);
    EXPECT_NE(st.str().find("shard 3 down"), std::string::npos);
}

TEST(ServeClientPolicy, RetryGatesOnIdempotencyAndCode)
{
    // Every current request type is a pure read or content-addressed
    // write, so all retry; the gate exists so a future mutating type
    // is excluded by default.
    for (const MessageType type :
         {MessageType::Ping, MessageType::Simulate,
          MessageType::BranchStats, MessageType::H2p,
          MessageType::Materialize, MessageType::Stats,
          MessageType::Health})
        EXPECT_TRUE(isIdempotentRequest(type))
            << messageTypeName(type);

    EXPECT_TRUE(isRetryableCode(WireCode::Unavailable));
    EXPECT_TRUE(isRetryableCode(WireCode::Busy));
    EXPECT_TRUE(isRetryableCode(WireCode::ResourceExhausted));
    EXPECT_FALSE(isRetryableCode(WireCode::Ok));
    EXPECT_FALSE(isRetryableCode(WireCode::InvalidArgument));
    EXPECT_FALSE(isRetryableCode(WireCode::IoError));
    EXPECT_FALSE(isRetryableCode(WireCode::Internal));
    EXPECT_FALSE(isRetryableCode(WireCode::CorruptData));
}

TEST_F(ServeTest, HealthProbeAnswersOneReadyRowSingleProcess)
{
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::vector<ShardHealth> shards;
    ASSERT_TRUE(client.health(&shards).ok());
    ASSERT_EQ(shards.size(), 1u);
    EXPECT_EQ(shards[0].shard, 0u);
    EXPECT_EQ(shards[0].state, ShardHealth::Ready);
    EXPECT_EQ(shards[0].pid, static_cast<uint64_t>(::getpid()));
    EXPECT_EQ(shards[0].restarts, 0u);
}

namespace {

/**
 * A scripted one-connection server: answers each Ping with the next
 * scripted wire code (Ok = a real PingReply, anything else = an Error
 * frame carrying that code and a retry-after hint). After the script
 * runs dry, every request gets Ok.
 */
class ScriptedServer
{
  public:
    ScriptedServer(const std::string &path,
                   std::vector<WireCode> script)
        : socketPath(path), replies(std::move(script))
    {
        listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(path.c_str());
        EXPECT_EQ(::bind(listenFd,
                         reinterpret_cast<struct sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listenFd, 4), 0);
        serverThread = std::thread([this] { serve(); });
    }

    ~ScriptedServer()
    {
        ::shutdown(listenFd, SHUT_RDWR);
        ::close(listenFd);
        serverThread.join();
        ::unlink(socketPath.c_str());
    }

    int served() const { return servedCount.load(); }

  private:
    void
    serve()
    {
        size_t next = 0;
        for (;;) {
            const int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0)
                return;
            for (;;) {
                uint8_t head[kFrameHeaderBytes];
                if (!readExactFd(fd, head, sizeof(head), 2000).ok())
                    break;
                FrameHeader header;
                if (!parseFrameHeader(head, sizeof(head), &header)
                         .ok())
                    break;
                std::vector<uint8_t> payload(header.payloadLen);
                if (header.payloadLen > 0 &&
                    !readExactFd(fd, payload.data(), payload.size(),
                                 2000)
                         .ok())
                    break;
                servedCount.fetch_add(1);
                const WireCode code = next < replies.size()
                                          ? replies[next++]
                                          : WireCode::Ok;
                ServeReply reply;
                if (code == WireCode::Ok) {
                    reply.type = MessageType::PingReply;
                    reply.serverInfo = "scripted";
                } else {
                    reply.type = MessageType::Error;
                    reply.code = code;
                    reply.message = "scripted failure";
                    reply.retryAfterMs = 5;
                }
                std::vector<uint8_t> frame;
                ASSERT_TRUE(encodeFrame(reply.type, header.requestId,
                                        encodeReplyPayload(reply),
                                        &frame)
                                .ok());
                if (!writeAllFd(fd, frame.data(), frame.size(), 2000)
                         .ok())
                    break;
            }
            ::close(fd);
        }
    }

    std::string socketPath;
    std::vector<WireCode> replies;
    int listenFd = -1;
    std::thread serverThread;
    std::atomic<int> servedCount{0};
};

} // namespace

TEST(ServeClientRetry, RetriesRetryableFailuresThenSucceeds)
{
    ScratchDir dir("retry_ok");
    ScriptedServer server(dir.file("s.sock"),
                          {WireCode::Unavailable, WireCode::Busy});

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(dir.file("s.sock")).ok());
    RetryPolicy policy;
    policy.maxAttempts = 5;
    policy.baseBackoffMs = 1;
    policy.maxBackoffMs = 10;
    client.setRetryPolicy(policy);

    ServeRequest request;
    request.type = MessageType::Ping;
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::Ok);
    EXPECT_EQ(reply.serverInfo, "scripted");
    EXPECT_EQ(client.retriesObserved(), 2u);
    EXPECT_EQ(client.gaveUpObserved(), 0u);
    EXPECT_EQ(server.served(), 3);
}

TEST(ServeClientRetry, GivesUpAfterBudgetAndCountsIt)
{
    ScratchDir dir("retry_giveup");
    ScriptedServer server(
        dir.file("s.sock"),
        std::vector<WireCode>(8, WireCode::Unavailable));

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(dir.file("s.sock")).ok());
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.baseBackoffMs = 1;
    policy.maxBackoffMs = 10;
    client.setRetryPolicy(policy);

    ServeRequest request;
    request.type = MessageType::Ping;
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::Unavailable);
    EXPECT_EQ(client.retriesObserved(), 2u);   // 3 attempts total
    EXPECT_EQ(client.gaveUpObserved(), 1u);
    EXPECT_EQ(server.served(), 3);
}

TEST(ServeClientRetry, NonRetryableCodeIsNeverRetried)
{
    ScratchDir dir("retry_invalid");
    ScriptedServer server(dir.file("s.sock"),
                          {WireCode::InvalidArgument});

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(dir.file("s.sock")).ok());
    RetryPolicy policy;
    policy.maxAttempts = 5;
    policy.baseBackoffMs = 1;
    client.setRetryPolicy(policy);

    ServeRequest request;
    request.type = MessageType::Ping;
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::InvalidArgument);
    EXPECT_EQ(client.retriesObserved(), 0u);
    EXPECT_EQ(client.gaveUpObserved(), 0u);
    EXPECT_EQ(server.served(), 1);
}

namespace {

/**
 * Hedge probe: the FIRST accepted connection swallows requests and
 * never answers (a wedged worker); every later connection answers
 * each request with a PingReply immediately. Records whether the
 * silent leg eventually received a Cancel for its abandoned request.
 */
class HedgeProbeServer
{
  public:
    explicit HedgeProbeServer(const std::string &path)
        : socketPath(path)
    {
        listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(path.c_str());
        EXPECT_EQ(::bind(listenFd,
                         reinterpret_cast<struct sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listenFd, 4), 0);
        acceptThread = std::thread([this] { acceptLoop(); });
    }

    ~HedgeProbeServer()
    {
        ::shutdown(listenFd, SHUT_RDWR);
        ::close(listenFd);
        acceptThread.join();
        for (std::thread &t : handlers)
            t.join();
        ::unlink(socketPath.c_str());
    }

    bool cancelSeen() const { return sawCancel.load(); }

  private:
    void
    acceptLoop()
    {
        for (;;) {
            const int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0)
                return;
            const int index = connIndex.fetch_add(1);
            std::lock_guard<std::mutex> lock(handlersMu);
            handlers.emplace_back(
                [this, fd, index] { handle(fd, index); });
        }
    }

    void
    handle(int fd, int index)
    {
        for (;;) {
            uint8_t head[kFrameHeaderBytes];
            if (!readExactFd(fd, head, sizeof(head), 5000).ok())
                break;
            FrameHeader header;
            if (!parseFrameHeader(head, sizeof(head), &header).ok())
                break;
            std::vector<uint8_t> payload(header.payloadLen);
            if (header.payloadLen > 0 &&
                !readExactFd(fd, payload.data(), payload.size(), 5000)
                     .ok())
                break;
            if (static_cast<MessageType>(header.type) ==
                MessageType::Cancel) {
                sawCancel.store(true);
                continue;   // the canceller closes next; no reply
            }
            if (index == 0)
                continue;   // the wedged leg: swallow, never answer
            ServeReply reply;
            reply.type = MessageType::PingReply;
            reply.serverInfo = "hedge-leg";
            std::vector<uint8_t> frame;
            ASSERT_TRUE(encodeFrame(reply.type, header.requestId,
                                    encodeReplyPayload(reply),
                                    &frame)
                            .ok());
            if (!writeAllFd(fd, frame.data(), frame.size(), 2000)
                     .ok())
                break;
        }
        ::close(fd);
    }

    std::string socketPath;
    int listenFd = -1;
    std::thread acceptThread;
    std::mutex handlersMu;
    std::vector<std::thread> handlers;
    std::atomic<int> connIndex{0};
    std::atomic<bool> sawCancel{false};
};

} // namespace

TEST(ServeClientHedge, HedgesQuietPrimaryCancelsLoserAdoptsWinner)
{
    ScratchDir dir("hedge");
    HedgeProbeServer server(dir.file("s.sock"));

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(dir.file("s.sock")).ok());
    RetryPolicy policy;
    policy.maxAttempts = 1;
    client.setRetryPolicy(policy);
    client.setHedgeMs(40);

    // The primary leg never answers: after the 40 ms hedge window the
    // duplicate goes out on a second connection and wins the race.
    ServeRequest request;
    request.type = MessageType::Ping;
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::Ok);
    EXPECT_EQ(reply.serverInfo, "hedge-leg");
    EXPECT_EQ(client.hedgesObserved(), 1u);
    EXPECT_EQ(client.hedgeWinsObserved(), 1u);

    // The losing (silent) leg got a Cancel before its socket closed.
    for (int i = 0; i < 200 && !server.cancelSeen(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(server.cancelSeen());

    // The winning connection was adopted: the next call rides it and
    // is answered inside the hedge window, so no new hedge fires.
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::Ok);
    EXPECT_EQ(reply.serverInfo, "hedge-leg");
    EXPECT_EQ(client.hedgesObserved(), 1u);
}

namespace {

void
sigusr1Noop(int)
{
    // Present only so SIGUSR1 interrupts blocking syscalls (no
    // SA_RESTART) instead of killing the process.
}

} // namespace

TEST(ServeEintr, SignalStormMidTransferDropsNoBytes)
{
    // Regression for the framed-socket EINTR audit: writeAllFd /
    // readExactFd must neither drop nor double-count bytes when
    // signals interrupt send/recv/poll mid-transfer. Before the
    // audit, an EINTR from poll() was treated as a wedged peer.
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = sigusr1Noop;
    sa.sa_flags = 0;   // deliberately NOT SA_RESTART
    struct sigaction old;
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    constexpr size_t kBytes = 4 << 20;
    std::vector<uint8_t> sent(kBytes);
    for (size_t i = 0; i < kBytes; ++i)
        sent[i] = static_cast<uint8_t>(i * 131 + 17);

    std::atomic<bool> done{false};
    std::thread writer([&] {
        EXPECT_TRUE(
            writeAllFd(fds[1], sent.data(), sent.size(), 10000).ok());
    });
    const pthread_t writerHandle = writer.native_handle();
    const pthread_t readerHandle = pthread_self();
    std::thread pummel([&] {
        while (!done.load()) {
            ::pthread_kill(writerHandle, SIGUSR1);
            ::pthread_kill(readerHandle, SIGUSR1);
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
    });

    std::vector<uint8_t> got(kBytes);
    const Status st = readExactFd(fds[0], got.data(), got.size());
    done.store(true);
    pummel.join();
    writer.join();
    ::close(fds[0]);
    ::close(fds[1]);
    ::sigaction(SIGUSR1, &old, nullptr);

    ASSERT_TRUE(st.ok()) << st.str();
    EXPECT_EQ(got, sent);   // bit-for-bit: nothing dropped or doubled
}

// --- fleet: sharding, supervision, breaker, drain --------------------

TEST(FleetShard, MappingIsDeterministicAndInRange)
{
    const unsigned a = fleetShardFor("mcf_like", 0, kTraceLen, 4);
    EXPECT_EQ(a, fleetShardFor("mcf_like", 0, kTraceLen, 4));
    EXPECT_LT(a, 4u);
    EXPECT_EQ(fleetShardFor("mcf_like", 0, kTraceLen, 1), 0u);

    // The hash keys on the full trace-cache identity, and spreads
    // distinct traces across shards rather than piling on one.
    std::set<unsigned> hit;
    for (uint32_t input = 0; input < 32; ++input)
        hit.insert(fleetShardFor("mcf_like", input, kTraceLen, 4));
    EXPECT_GT(hit.size(), 1u);
}

namespace {

/** Supervisor + scratch corpus fixture for fleet tests. */
class FleetTest : public ::testing::Test
{
  protected:
    void
    startFleet(unsigned workers, const std::string &faults = "",
               unsigned breaker_deaths = 5,
               uint64_t breaker_cooldown_ms = 60000)
    {
        scratch = std::make_unique<ScratchDir>(
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
        FleetConfig config;
        config.socketPath = scratch->file("f.sock");
        config.workers = workers;
        config.workerCommand = {BPNSP_SERVED_BIN,
                                "--trace-cache=" +
                                    scratch->file("cache"),
                                "--threads=2", "--heartbeat-ms=50"};
        if (!faults.empty())
            config.workerCommand.push_back("--faults=" + faults);
        config.heartbeatMs = 50;
        config.backoffBaseMs = 50;
        config.backoffCapMs = 200;
        config.breakerDeaths = breaker_deaths;
        config.breakerCooldownMs = breaker_cooldown_ms;
        config.drainGraceMs = 2000;
        fleet = std::make_unique<FleetSupervisor>(std::move(config));
        ASSERT_TRUE(fleet->start().ok());
    }

    /** Wait until every shard reports the wanted state (or fail). */
    bool
    waitForShardState(uint32_t shard, uint8_t state,
                      int timeout_ms = 15000)
    {
        for (int waited = 0; waited < timeout_ms; waited += 50) {
            const auto statuses = fleet->shardStatuses();
            if (shard < statuses.size() &&
                statuses[shard].state == state)
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        return false;
    }

    void
    TearDown() override
    {
        if (fleet != nullptr)
            fleet->drain();
        faultsim::reset();
    }

    std::unique_ptr<ScratchDir> scratch;
    std::unique_ptr<FleetSupervisor> fleet;
};

} // namespace

TEST_F(FleetTest, RoutesVerifiedRequestsAcrossWorkers)
{
    startFleet(2);
    const DirectResult expect = directRun("gshare");
    // Fill the corpus first, so the routed request replays it.
    ASSERT_TRUE(captureTrace(TraceCache(scratch->file("cache")),
                             findWorkload("mcf_like"), 0, kTraceLen)
                    .ok());

    ServeClient client;
    ASSERT_TRUE(
        client.connectUnix(fleet->config().socketPath).ok());
    std::string info;
    ASSERT_TRUE(client.ping(&info).ok());
    EXPECT_NE(info.find("fleet workers=2"), std::string::npos);

    ServeReply reply;
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    EXPECT_EQ(reply.condExecs, expect.condExecs);
    EXPECT_EQ(reply.condMispreds, expect.condMispreds);
    EXPECT_EQ(reply.accuracyBits, expect.accuracyBits);

    std::vector<ShardHealth> shards;
    ASSERT_TRUE(client.health(&shards).ok());
    ASSERT_EQ(shards.size(), 2u);
    for (const ShardHealth &row : shards) {
        EXPECT_EQ(row.state, ShardHealth::Ready);
        EXPECT_NE(row.pid, 0u);
    }
}

TEST_F(FleetTest, KilledWorkerIsRespawnedAndRequestsRideItOut)
{
    startFleet(2);
    const uint64_t deathsBefore =
        counterValue("serve.fleet.worker_deaths");
    const uint64_t respawnsBefore =
        counterValue("serve.fleet.respawns");

    ServeClient client;
    ASSERT_TRUE(
        client.connectUnix(fleet->config().socketPath).ok());
    RetryPolicy policy;
    policy.maxAttempts = 10;
    policy.baseBackoffMs = 50;
    policy.maxBackoffMs = 500;
    client.setRetryPolicy(policy);

    // Warm the owning worker (cold trace generation happens once),
    // then SIGKILL it and immediately re-ask: the retry policy must
    // ride out the UNAVAILABLE window until the respawn lands.
    ServeReply first;
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &first).ok());
    ASSERT_EQ(first.code, WireCode::Ok) << first.message;

    const unsigned owner =
        fleetShardFor("mcf_like", 0, kTraceLen, 2);
    const auto before = fleet->shardStatuses();
    ASSERT_GT(before[owner].pid, 0);
    ASSERT_EQ(::kill(before[owner].pid, SIGKILL), 0);

    ServeReply second;
    ASSERT_TRUE(
        client.call(simulateRequest("gshare"), &second).ok());
    ASSERT_EQ(second.code, WireCode::Ok) << second.message;
    EXPECT_EQ(second.condMispreds, first.condMispreds);
    EXPECT_GT(client.retriesObserved(), 0u);
    EXPECT_EQ(client.gaveUpObserved(), 0u);

    ASSERT_TRUE(waitForShardState(owner, ShardHealth::Ready));
    const auto after = fleet->shardStatuses();
    EXPECT_GE(after[owner].deaths, 1u);
    EXPECT_GE(after[owner].restarts, 1u);
    EXPECT_NE(after[owner].pid, before[owner].pid);
    EXPECT_GT(counterValue("serve.fleet.worker_deaths"),
              deathsBefore);
    EXPECT_GT(counterValue("serve.fleet.respawns"), respawnsBefore);
}

TEST_F(FleetTest, CrashLoopTripsBreakerAndDegradesOnlyThatShard)
{
    // serve.worker.crash.w0@1 kills shard 0's worker on its first
    // heartbeat tick, every time: a crash loop. Two rapid deaths trip
    // the breaker; the cooldown is long so the shard stays degraded
    // for the rest of the test while shard 1 serves on.
    const uint64_t tripsBefore =
        counterValue("serve.fleet.breaker_trips");
    startFleet(2, "serve.worker.crash.w0@1", /*breaker_deaths=*/2);
    ASSERT_TRUE(waitForShardState(0, ShardHealth::Degraded));
    EXPECT_GT(counterValue("serve.fleet.breaker_trips"),
              tripsBefore);

    const auto statuses = fleet->shardStatuses();
    EXPECT_GE(statuses[0].deaths, 2u);
    EXPECT_EQ(statuses[1].state, ShardHealth::Ready);

    // A request owned by the degraded shard answers retryable
    // UNAVAILABLE with a retry-after hint — it must not hang — while
    // one owned by the healthy shard still succeeds.
    uint32_t degradedInput = UINT32_MAX;
    uint32_t healthyInput = UINT32_MAX;
    for (uint32_t input = 0; input < 64; ++input) {
        const unsigned shard =
            fleetShardFor("mcf_like", input, kTraceLen, 2);
        if (shard == 0 && degradedInput == UINT32_MAX)
            degradedInput = input;
        if (shard == 1 && healthyInput == UINT32_MAX)
            healthyInput = input;
    }
    ASSERT_NE(degradedInput, UINT32_MAX);
    ASSERT_NE(healthyInput, UINT32_MAX);

    ServeClient client;
    ASSERT_TRUE(
        client.connectUnix(fleet->config().socketPath).ok());

    ServeRequest degradedReq = simulateRequest("gshare");
    degradedReq.inputIdx = degradedInput;
    ServeReply degradedReply;
    ASSERT_TRUE(client.call(degradedReq, &degradedReply).ok());
    EXPECT_EQ(degradedReply.code, WireCode::Unavailable);
    EXPECT_GT(degradedReply.retryAfterMs, 0u);

    ServeRequest healthyReq = simulateRequest("gshare");
    healthyReq.inputIdx = healthyInput;
    ServeReply healthyReply;
    ASSERT_TRUE(client.call(healthyReq, &healthyReply).ok());
    EXPECT_EQ(healthyReply.code, WireCode::Ok)
        << healthyReply.message;

    std::vector<ShardHealth> shards;
    ASSERT_TRUE(client.health(&shards).ok());
    ASSERT_EQ(shards.size(), 2u);
    EXPECT_EQ(shards[0].state, ShardHealth::Degraded);
    EXPECT_EQ(shards[1].state, ShardHealth::Ready);
}

TEST_F(FleetTest, DrainWhileRespawnInFlightStopsEverything)
{
    startFleet(2);
    const auto statuses = fleet->shardStatuses();
    std::vector<int> pids;
    for (const ShardStatus &s : statuses) {
        ASSERT_GT(s.pid, 0);
        pids.push_back(s.pid);
    }

    // Kill a worker and drain before the respawn backoff elapses: the
    // pending respawn must be abandoned, not leaked.
    ASSERT_EQ(::kill(pids[0], SIGKILL), 0);
    fleet->drain();
    EXPECT_FALSE(fleet->running());

    // Every worker is gone (the killed one and its never-respawned
    // replacement included) and the public socket is unlinked.
    const auto drained = fleet->shardStatuses();
    for (const ShardStatus &s : drained)
        EXPECT_EQ(s.pid, 0);
    EXPECT_FALSE(
        std::filesystem::exists(fleet->config().socketPath));
    for (unsigned i = 0; i < 2; ++i)
        EXPECT_FALSE(std::filesystem::exists(
            fleet->workerSocketPath(i)));
    fleet.reset();   // already drained; TearDown's drain is a no-op
}

// --- router hardening: bad frames, worker loss, deadlines ------------

TEST_F(FleetTest, OversizedFrameToRouterIsRefusedAndConnClosed)
{
    startFleet(1);
    RawConn raw(fleet->config().socketPath);
    ASSERT_TRUE(raw.ok());
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Ping, 5, {}, &frame).ok());
    const uint32_t huge = kMaxFramePayload + 1;
    std::memcpy(frame.data() + 16, &huge, sizeof(huge));
    raw.send(frame);

    // The length prefix is refused before any buffering; the stream
    // can no longer be trusted, so the reply is an Error and a close.
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    ASSERT_EQ(static_cast<MessageType>(header.type),
              MessageType::Error);
    ServeReply reply;
    ASSERT_TRUE(decodeReplyPayload(MessageType::Error, payload.data(),
                                   payload.size(), &reply)
                    .ok());
    EXPECT_NE(reply.code, WireCode::Ok);
    EXPECT_TRUE(raw.closedByPeer());

    // The router survives and keeps serving new connections.
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(fleet->config().socketPath).ok());
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
}

TEST_F(FleetTest, CorruptFrameToRouterGetsCorruptDataAndClose)
{
    startFleet(1);
    RawConn raw(fleet->config().socketPath);
    ASSERT_TRUE(raw.ok());
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Simulate, 11,
                            encodeRequestPayload(
                                simulateRequest("gshare")),
                            &frame)
                    .ok());
    frame[kFrameHeaderBytes] ^= 0x40;   // corrupt payload, stale crc
    raw.send(frame);

    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    ASSERT_EQ(static_cast<MessageType>(header.type),
              MessageType::Error);
    ServeReply reply;
    ASSERT_TRUE(decodeReplyPayload(MessageType::Error, payload.data(),
                                   payload.size(), &reply)
                    .ok());
    EXPECT_EQ(reply.code, WireCode::CorruptData);
    EXPECT_TRUE(raw.closedByPeer());

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(fleet->config().socketPath).ok());
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
}

TEST_F(FleetTest, DeadlinePropagatesThroughRouterToWorker)
{
    // A 1 ms budget through the router onto a cold heavyweight
    // simulate: the decremented deadline survives the re-encoded
    // forward and the worker (sweep or mid-replay check) answers
    // DEADLINE_EXCEEDED — proof the field rode the wire both hops.
    startFleet(1);
    ServeClient client;
    ASSERT_TRUE(
        client.connectUnix(fleet->config().socketPath).ok());

    // Warm-up with retries: rides out the worker's startup window and
    // materializes the trace, so the deadline below meters only the
    // (still multi-ms) tage replay.
    RetryPolicy warmup;
    warmup.maxAttempts = 10;
    warmup.baseBackoffMs = 50;
    warmup.maxBackoffMs = 500;
    client.setRetryPolicy(warmup);
    ServeReply warm;
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &warm).ok());
    ASSERT_EQ(warm.code, WireCode::Ok) << warm.message;

    RetryPolicy policy;
    policy.maxAttempts = 1;
    client.setRetryPolicy(policy);
    ServeRequest request = simulateRequest("tage-sc-l-64KB");
    request.deadlineMs = 1;
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::DeadlineExceeded)
        << wireCodeName(reply.code) << ": " << reply.message;
}

namespace {

/**
 * A fake worker whose connections vanish mid-request: each accepted
 * connection reads one whole request frame, then closes without
 * replying — a worker dying between accept and reply.
 */
class VanishingWorker
{
  public:
    explicit VanishingWorker(const std::string &path)
        : socketPath(path)
    {
        listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(path.c_str());
        EXPECT_EQ(::bind(listenFd,
                         reinterpret_cast<struct sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listenFd, 4), 0);
        serverThread = std::thread([this] { serve(); });
    }

    ~VanishingWorker()
    {
        ::shutdown(listenFd, SHUT_RDWR);
        ::close(listenFd);
        serverThread.join();
        ::unlink(socketPath.c_str());
    }

  private:
    void
    serve()
    {
        for (;;) {
            const int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0)
                return;
            uint8_t head[kFrameHeaderBytes];
            FrameHeader header;
            if (readExactFd(fd, head, sizeof(head), 2000).ok() &&
                parseFrameHeader(head, sizeof(head), &header).ok() &&
                header.payloadLen > 0) {
                std::vector<uint8_t> payload(header.payloadLen);
                readExactFd(fd, payload.data(), payload.size(), 2000);
            }
            ::close(fd);   // vanish mid-request, no reply
        }
    }

    std::string socketPath;
    int listenFd = -1;
    std::thread serverThread;
};

} // namespace

TEST(FleetForwarding, WorkerDisconnectMidForwardYieldsUnavailable)
{
    ScratchDir dir("fleet_vanish");
    FleetConfig config;
    config.socketPath = dir.file("f.sock");
    config.workers = 1;
    // An inert stand-in process (exec: the supervised pid must BE the
    // sleep, so the drain's kill leaves no orphan holding our pipes);
    // the test serves the worker socket itself.
    config.workerCommand = {"/bin/sh", "-c", "exec sleep 3600"};
    config.heartbeatMs = 60000;   // keep the staleness watchdog quiet
    config.backoffBaseMs = 50;
    config.backoffCapMs = 200;
    config.breakerDeaths = 5;
    config.breakerCooldownMs = 60000;
    config.drainGraceMs = 2000;
    auto fleet = std::make_unique<FleetSupervisor>(std::move(config));
    ASSERT_TRUE(fleet->start().ok());
    // The spawn unlinked the worker socket; bind our own peer there.
    VanishingWorker worker(fleet->workerSocketPath(0));

    const uint64_t unavailBefore =
        counterValue("serve.fleet.unavailable");
    ServeClient client;
    ASSERT_TRUE(
        client.connectUnix(fleet->config().socketPath).ok());
    RetryPolicy policy;
    policy.maxAttempts = 1;
    client.setRetryPolicy(policy);
    ServeReply reply;
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &reply).ok());
    EXPECT_EQ(reply.code, WireCode::Unavailable)
        << wireCodeName(reply.code) << ": " << reply.message;
    EXPECT_GT(reply.retryAfterMs, 0u);
    EXPECT_GT(counterValue("serve.fleet.unavailable"), unavailBefore);

    // The client's router connection survives the worker loss.
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
    fleet->drain();
}

} // namespace
