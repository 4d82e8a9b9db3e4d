/**
 * @file
 * Tests for the fault-injection subsystem and the robustness behavior
 * it exists to prove: spec grammar, deterministic failure schedules,
 * writer degradation under injected I/O faults, retry-absorbed and
 * persistent read corruption, and the end-to-end acceptance campaign —
 * trace capture that survives an injected mid-capture crash, an
 * ENOSPC, and a bit-flipped stored chunk with bit-identical results.
 *
 * Every test resets faultsim state on entry and exit, so test order
 * cannot leak an active spec into unrelated tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/format.hpp"
#include "tracestore/store.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

namespace {

/** RAII: deactivate fault injection around every test. */
class FaultGuard : public ::testing::Test
{
  protected:
    void SetUp() override { faultsim::reset(); }
    void TearDown() override { faultsim::reset(); }
};

uint64_t
counterValue(const char *name)
{
    return obs::Registry::instance().counterValue(name);
}

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "bpnsp_fault_" + tag +
           ".bpt";
}

std::vector<TraceRecord>
sequentialRecords(size_t count)
{
    std::vector<TraceRecord> records;
    for (size_t i = 0; i < count; ++i) {
        TraceRecord r;
        r.ip = 0x400000 + i * 4;
        r.fallthrough = r.ip + 4;
        r.cls = (i % 5 == 0) ? InstrClass::CondBranch : InstrClass::Alu;
        r.taken = (i % 3) != 0;
        r.target = r.ip + 32;
        r.memAddr = 0x20000 + (i % 53) * 8;
        r.writtenValue = static_cast<uint32_t>(i);
        records.push_back(r);
    }
    return records;
}

/** Write a clean (fault-free) store and return its path. */
std::string
writeCleanStore(const char *tag, const std::vector<TraceRecord> &records,
                uint32_t records_per_chunk)
{
    faultsim::reset();
    const std::string path = tempPath(tag);
    TraceStoreWriter writer(path, records_per_chunk);
    for (const TraceRecord &rec : records)
        writer.onRecord(rec);
    writer.onEnd();
    EXPECT_TRUE(writer.status().ok()) << writer.status().str();
    return path;
}

using FaultSim = FaultGuard;
using FaultWriter = FaultGuard;
using FaultReader = FaultGuard;
using FaultCampaign = FaultGuard;
using FaultSoak = FaultGuard;

} // namespace

TEST_F(FaultSim, SpecGrammarAcceptsValidClauses)
{
    for (const char *spec :
         {"", "seed=7", "tracestore.write.enospc", "a.b@0.5", "a.b*3",
          "a.b+2", "a.b@0.25*2+1", "seed=1,x.y@0.5,z.w*1",
          "tracestore.read.bitflip@1"}) {
        const Status st = faultsim::configure(spec);
        EXPECT_TRUE(st.ok()) << spec << ": " << st.str();
    }
    // Injection is active exactly when a point clause is present: a
    // bare seed sets nothing on fire.
    ASSERT_TRUE(faultsim::configure("seed=7").ok());
    EXPECT_FALSE(faultsim::active());
    ASSERT_TRUE(faultsim::configure("seed=7,a.b@0.5").ok());
    EXPECT_TRUE(faultsim::active());
    EXPECT_EQ(faultsim::activeSpec(), "seed=7,a.b@0.5");
    ASSERT_TRUE(faultsim::configure("").ok());
    EXPECT_FALSE(faultsim::active());
    EXPECT_EQ(faultsim::activeSpec(), "");
}

TEST_F(FaultSim, SpecGrammarRejectsMalformedClauses)
{
    for (const char *spec :
         {"a.b@", "a.b@1.5", "a.b@0", "a.b@-0.5", "seed=", "seed=x",
          "a b", "a.b*", "a.b+x", "A.b", "a.b*three"}) {
        const Status st = faultsim::configure(spec);
        EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << spec;
        // A bad spec must deactivate injection, not half-apply.
        EXPECT_FALSE(faultsim::active()) << spec;
    }
}

TEST_F(FaultSim, SameSeedSameSchedule)
{
    const auto schedule = [](const std::string &spec) {
        const Status st = faultsim::configure(spec);
        EXPECT_TRUE(st.ok()) << st.str();
        std::vector<bool> fires;
        std::vector<uint64_t> payloads;
        for (int i = 0; i < 200; ++i) {
            const bool fired = faultsim::evaluate("test.point");
            fires.push_back(fired);
            if (fired)
                payloads.push_back(faultsim::payloadDraw("test.point"));
        }
        return std::make_pair(fires, payloads);
    };

    const auto a = schedule("seed=42,test.point@0.5");
    const auto b = schedule("seed=42,test.point@0.5");
    EXPECT_EQ(a, b) << "same (seed, spec) must reproduce the same "
                       "failure schedule and payloads";

    const auto c = schedule("seed=43,test.point@0.5");
    EXPECT_NE(a.first, c.first) << "a different seed should reshuffle "
                                   "the schedule";
}

TEST_F(FaultSim, SkipAndMaxFiresRules)
{
    ASSERT_TRUE(faultsim::configure("test.point+3*2").ok());
    std::vector<bool> fires;
    for (int i = 0; i < 8; ++i)
        fires.push_back(faultsim::evaluate("test.point"));
    // Never during the skip window, then exactly maxFires times.
    const std::vector<bool> expected{false, false, false, true,
                                     true,  false, false, false};
    EXPECT_EQ(fires, expected);
    EXPECT_EQ(faultsim::evaluatedCount("test.point"), 8u);
    EXPECT_EQ(faultsim::firedCount("test.point"), 2u);
    EXPECT_EQ(faultsim::firedTotal(), 2u);
}

TEST_F(FaultSim, UnlistedPointsNeverFire)
{
    ASSERT_TRUE(faultsim::configure("some.other.point").ok());
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(faultsim::evaluate("test.point"));
    EXPECT_EQ(faultsim::firedCount("test.point"), 0u);
}

TEST_F(FaultSim, FiresAreCountedInTheObsRegistry)
{
    const uint64_t before = counterValue("faultsim.injected");
    ASSERT_TRUE(faultsim::configure("test.point*3").ok());
    for (int i = 0; i < 10; ++i)
        faultsim::evaluate("test.point");
    EXPECT_EQ(counterValue("faultsim.injected"), before + 3);
}

TEST_F(FaultWriter, EnospcFailsTheWriterNotTheProcess)
{
    ASSERT_TRUE(faultsim::configure("tracestore.write.enospc").ok());
    const std::string path = tempPath("enospc");
    TraceStoreWriter writer(path);
    for (const TraceRecord &rec : sequentialRecords(100))
        writer.onRecord(rec);
    writer.onEnd();
    EXPECT_EQ(writer.status().code(), StatusCode::IoError);
    EXPECT_NE(writer.status().message().find("ENOSPC"),
              std::string::npos);
    EXPECT_FALSE(writer.crashed());

    // The torn file must never pass for a valid store.
    faultsim::reset();
    Status st;
    EXPECT_EQ(TraceStoreReader::open(path, &st), nullptr);
    std::remove(path.c_str());
}

TEST_F(FaultWriter, CrashTearsTheFileAndLatches)
{
    // Crash on the 3rd write (header, first chunk header, payload...).
    ASSERT_TRUE(
        faultsim::configure("seed=11,tracestore.write.crash+2*1").ok());
    const std::string path = tempPath("crash");
    {
        TraceStoreWriter writer(path, 32);
        for (const TraceRecord &rec : sequentialRecords(300))
            writer.onRecord(rec);
        writer.onEnd();
        EXPECT_TRUE(writer.crashed());
        EXPECT_EQ(writer.status().code(), StatusCode::Cancelled);
    }
    // The torn file stays on disk (simulating the dead process's
    // debris) and is rejected by the reader.
    ASSERT_TRUE(std::filesystem::exists(path));
    faultsim::reset();
    Status st;
    EXPECT_EQ(TraceStoreReader::open(path, &st), nullptr);
    EXPECT_FALSE(st.ok());
    std::remove(path.c_str());
}

TEST_F(FaultWriter, ShortWritesAndEintrAreResumed)
{
    const uint64_t retriesBefore =
        counterValue("tracestore.store.write_retries");
    ASSERT_TRUE(faultsim::configure("seed=3,tracestore.write.short*2,"
                                    "tracestore.write.eintr*2")
                    .ok());
    const auto records = sequentialRecords(500);
    const std::string path = tempPath("short");
    TraceStoreWriter writer(path, 64);
    for (const TraceRecord &rec : records)
        writer.onRecord(rec);
    writer.onEnd();
    EXPECT_TRUE(writer.status().ok()) << writer.status().str();
    EXPECT_GE(counterValue("tracestore.store.write_retries"),
              retriesBefore + 4);

    // Resumed writes must still produce a byte-perfect store.
    faultsim::reset();
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();
    VectorSink sink;
    ASSERT_TRUE(reader->replay(sink, 0).ok());
    ASSERT_EQ(sink.get().size(), records.size());
    EXPECT_EQ(sink.get()[499].ip, records[499].ip);
    std::remove(path.c_str());
}

TEST_F(FaultReader, TransientBitflipAbsorbedByRetry)
{
    const auto records = sequentialRecords(200);
    const std::string path = writeCleanStore("flip1", records, 64);

    const uint64_t retriesBefore =
        counterValue("tracestore.replay.chunk_retries");
    const uint64_t successesBefore =
        counterValue("tracestore.replay.chunk_retry_successes");

    // Exactly one flip: the first attempt on some chunk fails its
    // checksum, the retry reads clean data and succeeds.
    ASSERT_TRUE(
        faultsim::configure("seed=5,tracestore.read.bitflip*1").ok());
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();
    VectorSink sink;
    st = reader->replay(sink, 0);
    EXPECT_TRUE(st.ok()) << st.str();
    ASSERT_EQ(sink.get().size(), records.size());
    EXPECT_GE(counterValue("tracestore.replay.chunk_retries"),
              retriesBefore + 1);
    EXPECT_GE(counterValue("tracestore.replay.chunk_retry_successes"),
              successesBefore + 1);
    std::remove(path.c_str());
}

TEST_F(FaultReader, PersistentBitflipFailsAfterBoundedRetries)
{
    const std::string path =
        writeCleanStore("flipN", sequentialRecords(200), 64);
    const uint64_t failuresBefore =
        counterValue("tracestore.replay.chunk_failures");

    // Unlimited flips: every attempt sees corrupt data, so the retry
    // budget runs out and the error names the attempt count.
    ASSERT_TRUE(
        faultsim::configure("seed=5,tracestore.read.bitflip").ok());
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();
    st = reader->verify();
    EXPECT_EQ(st.code(), StatusCode::CorruptData);
    EXPECT_NE(st.message().find("after 3 attempts"), std::string::npos)
        << st.str();
    EXPECT_GE(counterValue("tracestore.replay.chunk_failures"),
              failuresBefore + 1);
    std::remove(path.c_str());
}

TEST_F(FaultCampaign, SurvivesCrashEnospcAndBitflipBitIdentically)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "bpnsp_fault_campaign";
    std::filesystem::remove_all(dir);
    const Workload w = findWorkload("mcf_like");
    constexpr uint64_t kInstructions = 20000;
    const TraceCacheKey key{w.name, w.inputs[0].label, w.inputs[0].seed,
                            kInstructions};
    TraceCache cache(dir);

    // Digest and mispredict count of whatever drives the sinks.
    const auto answerOf = [&](const auto &drive) {
        DigestSink digest;
        auto bp = makePredictor("tage-sc-l-8KB");
        PredictorSim sim(*bp, /*collect_per_branch=*/false);
        drive(std::vector<TraceSink *>{&digest, &sim});
        return std::make_pair(digest.digest(), sim.condMispreds());
    };
    // The fault-free reference: a VM pass.
    const auto reference = answerOf([&](const auto &sinks) {
        EXPECT_EQ(runWorkloadTrace(w, 0, sinks, kInstructions),
                  kInstructions);
    });
    // A capture: its live stream must match whether or not it
    // publishes.
    const auto capture = [&](Status *st) {
        return answerOf([&](const auto &sinks) {
            *st = captureTrace(cache, w, 0, kInstructions, sinks);
        });
    };
    // A replay of the published entry, verified first like serve's
    // cold open.
    const auto replay = [&](Status *st) {
        return answerOf([&](const auto &sinks) {
            auto reader = TraceStoreReader::open(cache.entryPath(key), st);
            if (reader == nullptr)
                return;
            *st = reader->verify();
            if (st->ok()) {
                FanoutSink fanout(sinks);
                *st = reader->replay(fanout, 0);
            }
        });
    };

    // Leg 1 — crash mid-capture (the capture makes ~5 writes: header,
    // chunk frame, payload, footer, trailer; skip 2 tears the
    // payload): the live stream is intact, but no entry is published
    // — only torn debris.
    Status st;
    ASSERT_TRUE(
        faultsim::configure("seed=17,tracestore.write.crash+2*1").ok());
    EXPECT_EQ(capture(&st), reference);
    EXPECT_FALSE(st.ok());
    EXPECT_FALSE(cache.contains(key));

    // Leg 2 — ENOSPC during capture: same deal.
    ASSERT_TRUE(
        faultsim::configure("seed=17,tracestore.write.enospc+3*1")
            .ok());
    EXPECT_EQ(capture(&st), reference);
    EXPECT_EQ(st.code(), StatusCode::IoError) << st.str();
    EXPECT_FALSE(cache.contains(key));

    // Leg 3 — a clean capture publishes the entry, and it replays
    // bit-identically.
    faultsim::reset();
    EXPECT_EQ(capture(&st), reference);
    ASSERT_TRUE(st.ok()) << st.str();
    ASSERT_TRUE(cache.contains(key));
    EXPECT_EQ(replay(&st), reference);
    EXPECT_TRUE(st.ok()) << st.str();

    // Leg 4 — a persistently bit-flipped chunk: verify rejects the
    // entry before any record reaches the sinks, the entry is
    // quarantined, and a fresh capture regenerates it.
    const uint64_t quarantinedBefore =
        counterValue("tracestore.cache.quarantined");
    ASSERT_TRUE(
        faultsim::configure("seed=23,tracestore.read.bitflip*3").ok());
    EXPECT_EQ(replay(&st).second, 0u);
    ASSERT_EQ(st.code(), StatusCode::CorruptData) << st.str();
    cache.quarantine(key, st.str());
    EXPECT_EQ(counterValue("tracestore.cache.quarantined"),
              quarantinedBefore + 1);
    EXPECT_EQ(capture(&st), reference);
    EXPECT_TRUE(cache.contains(key))
        << "a capture after the quarantine must regenerate the entry";

    // Leg 5 — faults off again: the regenerated entry replays clean.
    faultsim::reset();
    EXPECT_EQ(replay(&st), reference);
    EXPECT_TRUE(st.ok()) << st.str();

    // The whole ordeal is visible in the run-report counters.
    EXPECT_GE(counterValue("faultsim.injected"), 5u);
    EXPECT_GE(counterValue("tracestore.replay.chunk_retries"), 1u);

    std::filesystem::remove_all(dir);
}

TEST_F(FaultSoak, RandomizedCorruptionNeverCrashes)
{
    // Soak: random single-byte flips and truncations at any offset.
    // Iteration count is small by default; CI raises BPNSP_SOAK_ITERS.
    uint64_t iters = 8;
    if (const char *env = std::getenv("BPNSP_SOAK_ITERS");
        env != nullptr && env[0] != '\0') {
        iters = std::strtoull(env, nullptr, 10);
    }

    const auto records = sequentialRecords(600);
    Rng rng(0x50a6f00d);
    for (uint64_t i = 0; i < iters; ++i) {
        SCOPED_TRACE("iteration " + std::to_string(i));
        const std::string path = writeCleanStore("soak", records, 64);
        const uint64_t size = std::filesystem::file_size(path);

        if (rng.chance(0.5)) {
            std::filesystem::resize_file(path, rng.below(size));
        } else {
            const uint64_t offset = rng.below(size);
            std::FILE *f = std::fopen(path.c_str(), "rb+");
            ASSERT_NE(f, nullptr);
            std::fseek(f, static_cast<long>(offset), SEEK_SET);
            int byte = std::fgetc(f);
            std::fseek(f, static_cast<long>(offset), SEEK_SET);
            std::fputc(byte ^ (1 << rng.below(8)), f);
            std::fclose(f);
        }

        // Open/verify/replay must return, not crash; and if they all
        // claim success, the data must actually round-trip.
        Status st;
        auto reader = TraceStoreReader::open(path, &st);
        if (reader != nullptr) {
            VectorSink sink;
            const Status verified = reader->verify();
            const Status replayed = reader->replay(sink, 0);
            if (verified.ok() && replayed.ok()) {
                EXPECT_EQ(sink.get().size(), records.size());
            }
        } else {
            EXPECT_FALSE(st.ok());
        }
        std::remove(path.c_str());
    }
}
