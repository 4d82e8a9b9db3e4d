/**
 * @file
 * serve-mixed: an in-process single-process ServeServer over a warm
 * corpus of four traces, driven closed-loop by client threads (clients
 * plus workers stay within four cores; retries and hedging off). The
 * seed draws a mix of interactive BranchStats requests and batch
 * Simulate requests over slices of the corpus, each with a predictor
 * from the campaign sweep's set. Every reply is checked against a
 * direct in-process computation of the same request over a trace the
 * check executes on the VM itself, so a fault in capture, chunk
 * decoding or the chunk cache cannot reach both sides.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "answers.hpp"
#include "bench.hpp"
#include "bp/factory.hpp"
#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/chunk_cache.hpp"
#include "tracestore/store.hpp"
#include "workloads/suite.hpp"

namespace bpbench {

using namespace bpnsp;
using namespace bpnsp::serve;

namespace {

using obs::Histogram;

constexpr const char *kCorpus[] = {"mcf_like", "gcc_like", "vcall",
                                   "interp_like"};

// The repo's own serve load: traces of bpnsp_client's default length
// (--instructions), Simulate slices of scripts/overload_soak.sh
// (--count=20000, a tenth of the trace, as micro_serve_latency's
// 200K of 2M), half of the requests interactive BranchStats with the
// top 4 branches as runLoadGen draws them (--interactive-frac=0.5),
// under bpnsp_served's default decoded-chunk cache (--chunk-cache-mb).
constexpr uint64_t kTraceRecords = 200000;
constexpr uint64_t kTinyTraceRecords = 20000;
constexpr uint64_t kSliceRecords = 20000;
constexpr uint64_t kTinySliceRecords = 2000;
constexpr uint32_t kTopK = 4;
constexpr size_t kChunkCacheBytes = 64u << 20;
constexpr unsigned kClients = 3;
constexpr unsigned kWorkers = 1;
constexpr double kRequestsPerSecond = 250.0;
constexpr unsigned kBlocks = 16;
constexpr size_t kDeckSize = 32;   // 16 BranchStats + 16 Simulates

struct CorpusTrace
{
    std::string workload;
    uint32_t inputIdx = 0;
    TraceCacheKey key;
};

/** One planned request. */
struct Call
{
    ServeRequest request;
    bool interactive = false;   ///< BranchStats (else batch Simulate)
};

/** What one execution of a Call got back. */
struct Reply
{
    bool transportOk = false;
    WireCode code = WireCode::Ok;
    std::string answer;
    uint64_t delivered = 0;
    uint64_t traceId = 0;
    double ms = 0.0;
};

/** The corpus is fixed; the seed drives only the request mix. */
std::vector<CorpusTrace>
corpusTraces(uint64_t records)
{
    std::vector<CorpusTrace> corpus;
    for (const char *name : kCorpus) {
        const Workload w = findWorkload(name);
        CorpusTrace t;
        t.workload = name;
        const WorkloadInput &in = w.inputs[t.inputIdx];
        t.key = TraceCacheKey{w.name, in.label, in.seed, records};
        corpus.push_back(t);
    }
    return corpus;
}

template <typename T>
void
shuffle(std::vector<T> *items, BenchRng &rng)
{
    for (size_t i = items->size(); i > 1; --i)
        std::swap((*items)[i - 1], (*items)[rng.below(i)]);
}

/**
 * A seeded request list of one client for one block, in decks. A deck
 * asks every (trace, predictor) pair once as an interactive BranchStats
 * and once as a batch Simulate of one slice, so every list asks for the
 * same mix of work; the seed moves the slice positions and the order.
 */
std::vector<Call>
planCalls(BenchRng &rng, size_t decks,
          const std::vector<CorpusTrace> &corpus, uint64_t records,
          uint64_t slice)
{
    std::vector<Call> calls;
    for (size_t d = 0; d < decks; ++d) {
        std::vector<Call> deck;
        for (size_t t = 0; t < corpus.size(); ++t) {
            const auto call = [&](MessageType type, const char *predictor) {
                Call c;
                c.interactive = type == MessageType::BranchStats;
                c.request.type = type;
                c.request.workload = corpus[t].workload;
                c.request.inputIdx = corpus[t].inputIdx;
                c.request.instructions = records;
                c.request.predictor = predictor;
                return c;
            };
            for (const char *predictor : kSweepPredictors) {
                deck.push_back(call(MessageType::BranchStats, predictor));
                deck.back().request.topK = kTopK;
                deck.push_back(call(MessageType::Simulate, predictor));
                deck.back().request.first =
                    rng.below(records - slice + 1);
                deck.back().request.count = slice;
            }
        }
        shuffle(&deck, rng);
        calls.insert(calls.end(), deck.begin(), deck.end());
    }
    return calls;
}

struct ServerHandle
{
    std::unique_ptr<ServeServer> server;
    std::string socket;
};

/**
 * Self-test of the answer check: publish, under the first corpus
 * trace's key, a well-formed trace of another input of its workload,
 * as a faulty capture would. Only a reference that does not read the
 * corpus can tell.
 */
bool
plantWrongTrace(const std::string &corpus_dir, const CorpusTrace &trace,
                uint64_t records)
{
    const TraceCache cache(corpus_dir);
    const std::string staging = cache.stagingPath(trace.key);
    {
        TraceStoreWriter writer(staging);
        runTrace(findWorkload(trace.workload).build(trace.inputIdx + 1),
                 {&writer}, records);
        if (!writer.status().ok())
            return false;
    }
    return cache.publish(staging, trace.key).ok();
}

/** Start a server over a fresh corpus and warm every trace. */
bool
startServer(const Options &opts, const std::string &dir,
            const std::vector<CorpusTrace> &corpus, uint64_t records,
            ServerHandle *out)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir + "/corpus", ec);
    if (opts.corruptCorpus &&
        !plantWrongTrace(dir + "/corpus", corpus.front(), records))
        return false;
    DecodedChunkCache::instance().setCapacityBytes(0);
    DecodedChunkCache::instance().setCapacityBytes(kChunkCacheBytes);

    ServeConfig cfg;
    cfg.socketPath = dir + "/s.sock";
    cfg.workers = kWorkers;
    cfg.traceCacheDir = dir + "/corpus";
    out->socket = cfg.socketPath;
    out->server = std::make_unique<ServeServer>(cfg);
    if (Status st = out->server->start(); !st.ok()) {
        std::fprintf(stderr, "serve-mixed: %s\n", st.str().c_str());
        return false;
    }
    // Warm-up: the first request per trace generates it into the
    // corpus and opens its reader.
    ServeClient client;
    if (!client.connectUnix(out->socket).ok())
        return false;
    for (const CorpusTrace &t : corpus) {
        ServeRequest r;
        r.type = MessageType::Simulate;
        r.workload = t.workload;
        r.inputIdx = t.inputIdx;
        r.instructions = records;
        r.predictor = "gshare";
        ServeReply reply;
        if (!client.call(r, &reply).ok() || reply.code != WireCode::Ok ||
            reply.delivered != records) {
            std::fprintf(stderr, "serve-mixed: warm-up of %s failed: %s\n",
                         t.workload.c_str(), reply.message.c_str());
            return false;
        }
    }
    return true;
}

/** One closed-loop client: each call waits for the previous reply. */
void
runClient(const std::string &socket, const std::vector<Call> &calls,
          std::vector<Reply> *replies)
{
    ServeClient client;   // default policy: one attempt, no hedging
    replies->assign(calls.size(), Reply());
    if (!client.connectUnix(socket).ok())
        return;
    for (size_t i = 0; i < calls.size(); ++i) {
        Reply &out = (*replies)[i];
        ServeReply reply;
        const auto t0 = Clock::now();
        Status st;
        {
            obs::Span span("bench.serve_mixed.call");
            st = client.call(calls[i].request, &reply);
        }
        out.ms = secondsSince(t0) * 1e3;
        out.transportOk = st.ok();
        out.code = reply.code;
        out.traceId = reply.traceId;
        if (st.ok() && reply.code == WireCode::Ok) {
            out.answer = replyAnswer(reply);
            out.delivered = reply.delivered;
        }
    }
}

/** Registry state at one instant, or summed deltas over the blocks. */
struct RegistryMark
{
    Histogram::BucketCounts queueWait{}, exec{};
    uint64_t batchSum = 0, batchCount = 0;
    uint64_t hits = 0, misses = 0, retries = 0, rejected = 0, shed = 0;

    static RegistryMark
    take()
    {
        RegistryMark m;
        m.queueWait = obs::histogram("serve.queue_wait_ns").bucketCounts();
        m.exec = obs::histogram("serve.exec_ns").bucketCounts();
        const Histogram &b = obs::histogram("serve.batch_size");
        m.batchSum = b.sum();
        m.batchCount = b.count();
        m.hits = counterValue("tracestore.chunk_cache.hits");
        m.misses = counterValue("tracestore.chunk_cache.misses");
        m.retries = counterValue("tracestore.replay.chunk_retries");
        m.rejected = counterValue("serve.rejected");
        m.shed = counterValue("serve.shed");
        return m;
    }

    /** Add what the registry counted between `before` and `after`. */
    void
    addDelta(const RegistryMark &after, const RegistryMark &before)
    {
        for (size_t i = 0; i < queueWait.size(); ++i) {
            queueWait[i] += after.queueWait[i] - before.queueWait[i];
            exec[i] += after.exec[i] - before.exec[i];
        }
        batchSum += after.batchSum - before.batchSum;
        batchCount += after.batchCount - before.batchCount;
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        retries += after.retries - before.retries;
        rejected += after.rejected - before.rejected;
        shed += after.shed - before.shed;
    }
};

double
percentileMs(const Histogram::BucketCounts &buckets, double pct)
{
    return Histogram::percentileFromBuckets(buckets, pct) / 1e6;
}

/** Identity of a request's answer. */
std::string
callKey(const Call &call)
{
    const ServeRequest &r = call.request;
    return r.workload + "/" + r.predictor + "/" + std::to_string(r.first) +
           "+" + std::to_string(r.count) +
           (call.interactive ? "/stats" : "/sim");
}

/**
 * Direct answers for every distinct request. Each corpus trace is
 * executed on the VM into memory, not read from the corpus, and the
 * requests over it are computed from those records.
 */
std::map<std::string, std::string>
directAnswers(const std::vector<Call> &calls,
              const std::vector<CorpusTrace> &corpus, uint64_t records)
{
    std::map<std::string, std::string> answers;
    for (const CorpusTrace &t : corpus) {
        VectorSink trace;
        runTrace(findWorkload(t.workload).build(t.inputIdx), {&trace},
                 records);
        const std::vector<TraceRecord> &recs = trace.get();
        for (const Call &call : calls) {
            const ServeRequest &r = call.request;
            const std::string key = callKey(call);
            if (r.workload != t.workload || answers.count(key) != 0)
                continue;
            if (call.interactive) {
                BranchStatsCalc calc(r.predictor);
                for (const TraceRecord &rec : recs)
                    calc.sink().onRecord(rec);
                calc.sink().onEnd();
                answers[key] = calc.answer(r.topK);
            } else if (r.first + r.count <= recs.size()) {
                const auto bp = makePredictor(r.predictor);
                PredictorSim sim(*bp, false);
                for (uint64_t i = r.first; i < r.first + r.count; ++i)
                    sim.onRecord(recs[i]);
                answers[key] = simulateAnswer(r.count, sim);
            }
        }
    }
    return answers;
}

} // namespace

bool
runServeMixed(const Options &opts, RunResult *out)
{
    if (!opts.goldenOut.empty())
        return true;   // every reply is checked against a direct run
    const uint64_t records = opts.tiny ? kTinyTraceRecords : kTraceRecords;
    const uint64_t slice = opts.tiny ? kTinySliceRecords : kSliceRecords;
    const std::vector<CorpusTrace> corpus = corpusTraces(records);
    const std::string dir = opts.workDir + "/serve";

    // Every client's list in every block is whole decks, so blocks are
    // equal work; the seed draws each list.
    const unsigned numBlocks = opts.tiny ? 2 : kBlocks;
    const size_t decks =
        opts.tiny ? 1
                  : std::max<size_t>(
                        1, static_cast<size_t>(
                               opts.seconds * kRequestsPerSecond /
                                   (kClients * kBlocks * kDeckSize) +
                               0.5));
    BenchRng rng(opts.seed);
    // plans[block][client][call]
    std::vector<std::vector<std::vector<Call>>> plans(numBlocks);
    std::vector<Call> allCalls;
    for (auto &block : plans) {
        for (unsigned c = 0; c < kClients; ++c) {
            block.push_back(planCalls(rng, decks, corpus, records, slice));
            allCalls.insert(allCalls.end(), block.back().begin(),
                            block.back().end());
        }
    }
    const size_t perBlock = decks * kDeckSize;

    // Every block gets a server of its own. With one server per run,
    // some runs kept a slower interactive regime from start to end
    // (interactive_p90_ms 16 ms instead of 9 ms; the same seed was
    // normal on a rerun), so a set of runs split in two. Each set-up
    // (corpus, start, warm-up) is a set-up sample, outside the block's
    // wall, peak memory and registry deltas.
    ServerHandle handle;
    std::vector<double> setups;
    std::vector<double> blockWall(numBlocks);
    double peakRss = 0.0;
    RegistryMark timed;
    // replies[block][client][call]
    std::vector<std::vector<std::vector<Reply>>> replies(
        numBlocks, std::vector<std::vector<Reply>>(kClients));
    for (unsigned block = 0; block < numBlocks; ++block) {
        if (handle.server != nullptr) {
            handle.server->drain();
            handle.server.reset();
        }
        const auto t0 = Clock::now();
        if (!startServer(opts, dir, corpus, records, &handle))
            return false;
        setups.push_back(secondsSince(t0));

        resetPeakRss();
        // Traced runs alternate untraced and traced blocks.
        enableTracing(opts.trace && block % 2 == 1);
        const RegistryMark before = RegistryMark::take();
        const auto blockStart = Clock::now();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c)
            threads.emplace_back(runClient, std::cref(handle.socket),
                                 std::cref(plans[block][c]),
                                 &replies[block][c]);
        for (std::thread &t : threads)
            t.join();
        blockWall[block] = secondsSince(blockStart);
        enableTracing(false);
        timed.addDelta(RegistryMark::take(), before);
        peakRss = std::max(peakRss, peakRssMb());
    }
    std::vector<obs::SpanEvent> spans;
    if (opts.trace)
        spans = obs::TraceRecorder::instance().drain();
    handle.server->drain();
    handle.server.reset();

    const std::map<std::string, std::string> ref =
        directAnswers(allCalls, corpus, records);

    std::vector<Round> rounds(numBlocks);
    std::unordered_map<uint64_t, double> msByTraceId;
    bool corrupted = !opts.corruptReference;
    for (unsigned block = 0; block < numBlocks; ++block) {
        Round &round = rounds[block];
        round.wall = blockWall[block];
        for (unsigned c = 0; c < kClients; ++c) {
            for (size_t i = 0; i < perBlock; ++i) {
                const Call &call = plans[block][c][i];
                const Reply &reply = replies[block][c][i];
                ++out->attempted;
                if (!reply.transportOk || reply.code != WireCode::Ok) {
                    ++out->failed;
                    continue;
                }
                const auto it = ref.find(callKey(call));
                std::string want = it == ref.end() ? "none" : it->second;
                if (!corrupted) {
                    want += "-corrupted";
                    corrupted = true;
                }
                if (want != reply.answer) {
                    out->wrongAnswer(callKey(call), reply.answer, want);
                    continue;
                }
                round.opMs.push_back(reply.ms);
                if (call.interactive)
                    round.interactiveMs.push_back(reply.ms);
                round.instructions += static_cast<double>(reply.delivered);
                msByTraceId[reply.traceId] = reply.ms;
            }
        }
    }
    std::printf("serve-mixed: %u clients, %u worker, %u blocks x %zu "
                "requests over %zu traces x %llu records, %zu distinct "
                "answers, reference recomputed\n",
                kClients, kWorkers, numBlocks, perBlock * kClients,
                corpus.size(), static_cast<unsigned long long>(records),
                ref.size());
    addEndToEnd(rounds, setups, peakRss, out);

    if (opts.trace) {
        out->add("trace.overhead_pct", tracingOverheadPct(blockWall), "%");
        out->add("vm.instructions",
                 static_cast<double>(records * corpus.size()), "count");
        const double lookups = static_cast<double>(timed.hits + timed.misses);
        out->add("tracestore.chunk_cache_hit_ratio",
                 lookups == 0.0 ? 0.0
                                : static_cast<double>(timed.hits) / lookups,
                 "ratio");
        out->add("tracestore.chunk_retries",
                 static_cast<double>(timed.retries), "count");
        out->add("serve.queue_wait_ms.p50",
                 percentileMs(timed.queueWait, 50.0), "ms");
        out->add("serve.queue_wait_ms.p99",
                 percentileMs(timed.queueWait, 99.0), "ms");
        out->add("serve.exec_ms.p50", percentileMs(timed.exec, 50.0), "ms");
        out->add("serve.exec_ms.p99", percentileMs(timed.exec, 99.0), "ms");
        out->add("serve.batch_size.mean",
                 timed.batchCount == 0
                     ? 0.0
                     : static_cast<double>(timed.batchSum) /
                           static_cast<double>(timed.batchCount),
                 "count");
        out->add("serve.rejected", static_cast<double>(timed.rejected),
                 "count");
        out->add("serve.shed", static_cast<double>(timed.shed), "count");
        // Wire time: client round trip less the server's own
        // admission-to-reply span of the same request.
        std::vector<double> wireMs;
        for (const obs::SpanEvent &ev : spans) {
            if (std::string(ev.name) != "serve.request")
                continue;
            const auto it = msByTraceId.find(ev.traceId);
            if (it != msByTraceId.end())
                wireMs.push_back(it->second -
                                 static_cast<double>(ev.durNs) / 1e6);
        }
        out->add("serve.wire_ms.p50", median(wireMs), "ms");
        runLedger(findWorkload(corpus.front().workload)
                      .build(corpus.front().inputIdx),
                  opts.tiny ? 20000 : 200000, opts.workDir, out);
        if (!opts.traceOut.empty() &&
            !exportTrace(opts.traceOut, std::move(spans)))
            std::printf("warning: cannot write %s\n", opts.traceOut.c_str());
    }
    return true;
}

} // namespace bpbench
