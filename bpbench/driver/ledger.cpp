/**
 * @file
 * Per-layer ledger: each layer's public entry point timed alone over
 * one captured record batch. The batch is materialized first, so a
 * predictor, model or store codec is timed on records that are already
 * in memory and nothing upstream of it is charged to it.
 */

#include <filesystem>
#include <functional>
#include <memory>

#include "answers.hpp"
#include "bench.hpp"
#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "frontend/frontend.hpp"
#include "obs/trace.hpp"
#include "pipeline/core.hpp"
#include "tracestore/chunk_cache.hpp"
#include "tracestore/store.hpp"

namespace bpbench {

using namespace bpnsp;

namespace {

constexpr int kReps = 3;

/**
 * Median wall ns of `body` over kReps calls, each in a span named
 * `layer`; `prepare` is untimed.
 */
double
medianNs(const char *layer, const std::function<void()> &prepare,
         const std::function<void()> &body)
{
    std::vector<double> ns;
    for (int rep = 0; rep < kReps; ++rep) {
        prepare();
        const auto t0 = Clock::now();
        {
            obs::Span span(layer);
            body();
        }
        ns.push_back(secondsSince(t0) * 1e9);
    }
    return median(ns);
}

class NullSink : public TraceSink
{
  public:
    void onRecord(const TraceRecord &) override { ++seen; }
    uint64_t seen = 0;
};

const char *const kLedgerPredictors[] = {
    "bimodal", "gshare", "local", "perceptron", "tage-sc-l-8KB",
    "tage-sc-l-64KB",
};

} // namespace

void
runLedger(const Program &program, uint64_t records,
          const std::string &scratch_dir, RunResult *out)
{
    // Decode is timed from the store itself, not from decoded chunks a
    // long-lived server may have left in the process-wide cache.
    DecodedChunkCache &chunkCache = DecodedChunkCache::instance();
    const size_t chunkCacheBytes = chunkCache.capacityBytes();
    chunkCache.setCapacityBytes(0);
    enableTracing(true);
    const auto noPrep = [] {};
    const double n = static_cast<double>(records);

    NullSink vmSink;
    out->add("vm.ns_per_instr",
             medianNs("bench.ledger.vm", noPrep,
                      [&] { runTrace(program, {&vmSink}, records); }) / n,
             "ns");

    VectorSink batch;
    runTrace(program, {&batch}, records);
    const std::vector<TraceRecord> &recs = batch.get();
    uint64_t branches = 0;
    for (const TraceRecord &rec : recs)
        branches += rec.isCondBranch() ? 1 : 0;
    const double nb = static_cast<double>(branches == 0 ? 1 : branches);

    // Store write path, then the two read paths over what it wrote.
    const std::string path = scratch_dir + "/ledger.bpt";
    out->add("tracestore.capture_ns_per_record",
             medianNs("bench.ledger.tracestore.capture", noPrep,
                      [&] {
                          TraceStoreWriter writer(path);
                          for (const TraceRecord &rec : recs)
                              writer.onRecord(rec);
                          writer.onEnd();
                      }) / n,
             "ns");
    std::error_code ec;
    out->add("tracestore.bytes_per_record",
             static_cast<double>(std::filesystem::file_size(path, ec)) / n,
             "B");
    Status st;
    std::unique_ptr<TraceStoreReader> reader =
        TraceStoreReader::open(path, &st);
    if (reader != nullptr) {
        out->add("tracestore.verify_ns_per_record",
                 medianNs("bench.ledger.tracestore.verify", noPrep,
                          [&] { st = reader->verify(); }) / n, "ns");
        NullSink decoded;
        out->add("tracestore.decode_ns_per_record",
                 medianNs("bench.ledger.tracestore.decode", noPrep,
                          [&] { st = reader->replay(decoded, 0); }) / n,
                 "ns");
    }

    for (const char *name : kLedgerPredictors) {
        std::unique_ptr<BranchPredictor> bp;
        std::unique_ptr<PredictorSim> sim;
        const double ns = medianNs(
            "bench.ledger.bp",
            [&] {
                sim.reset();
                bp = makePredictor(name);
                sim = std::make_unique<PredictorSim>(*bp, false);
            },
            [&] {
                TraceSink &sink = *sim;
                for (const TraceRecord &rec : recs)
                    sink.onRecord(rec);
                sink.onEnd();
            });
        out->add(std::string("bp.") + name + ".ns_per_branch", ns / nb,
                 "ns");
    }

    std::unique_ptr<FrontendModel> fe;
    out->add("frontend.ns_per_record",
             medianNs(
                 "bench.ledger.frontend",
                 [&] { fe = std::make_unique<FrontendModel>(FrontendConfig()); },
                 [&] {
                     for (const TraceRecord &rec : recs)
                         fe->onRecord(rec);
                 }) / n,
             "ns");

    // The core model reads its predictor sim's per-record outcome, so
    // it is timed beside a gshare sim and the sim's own time removed.
    std::unique_ptr<BranchPredictor> bp;
    std::unique_ptr<PredictorSim> sim;
    std::unique_ptr<CoreModel> core;
    const auto freshSim = [&] {
        core.reset();
        sim.reset();
        bp = makePredictor("gshare");
        sim = std::make_unique<PredictorSim>(*bp, false);
    };
    const double simNs = medianNs("bench.ledger.bp", freshSim, [&] {
        for (const TraceRecord &rec : recs)
            sim->onRecord(rec);
    });
    const double bothNs = medianNs(
        "bench.ledger.pipeline",
        [&] {
            freshSim();
            core = std::make_unique<CoreModel>(CoreConfig::skylake(), *sim);
        },
        [&] {
            for (const TraceRecord &rec : recs) {
                sim->onRecord(rec);
                core->onRecord(rec);
            }
        });
    out->add("pipeline.ns_per_record", (bothNs - simNs) / n, "ns");

    std::unique_ptr<BranchStatsCalc> stats;
    out->add("analysis.branch_stats_ns_per_record",
             medianNs("bench.ledger.analysis",
                      [&] { stats = std::make_unique<BranchStatsCalc>("gshare"); },
                      [&] {
                          for (const TraceRecord &rec : recs)
                              stats->sink().onRecord(rec);
                          stats->sink().onEnd();
                          (void)stats->answer(8);
                      }) / n,
             "ns");
    std::filesystem::remove(path, ec);
    enableTracing(false);
    chunkCache.setCapacityBytes(chunkCacheBytes);
}

} // namespace bpbench
