/**
 * @file
 * Tests for the content-addressed trace cache and captureTrace(), the
 * serve corpus's generation path: digest stability, capture
 * publication, bit-identity of a captured entry's replay with a VM
 * pass, stale-key misses on scale changes, orphan GC, and the
 * generation lock.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "synth/fitter.hpp"
#include "synth/workload.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/format.hpp"
#include "tracestore/store.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

namespace {

constexpr uint64_t kInstructions = 20000;

/** Fresh cache directory per test; removed on destruction. */
class CacheDirGuard
{
  public:
    explicit CacheDirGuard(const char *tag)
        : path(std::string(::testing::TempDir()) + "bpnsp_cache_" + tag)
    {
        std::filesystem::remove_all(path);
    }

    ~CacheDirGuard()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    const std::string path;
};

/**
 * Feed `drive` a DigestSink + TAGE-SC-L 8KB sim; returns the record
 * digest, the record count and the mispredict count.
 */
template <typename Drive>
std::tuple<uint64_t, uint64_t, uint64_t>
answerOf(Drive &&drive)
{
    DigestSink digest;
    auto bp = makePredictor("tage-sc-l-8KB");
    PredictorSim sim(*bp, /*collect_per_branch=*/false);
    drive(std::vector<TraceSink *>{&digest, &sim});
    return {digest.digest(), digest.count(), sim.condMispreds()};
}

TraceCacheKey
keyFor(const Workload &w, uint64_t instructions)
{
    return TraceCacheKey{w.name, w.inputs[0].label, w.inputs[0].seed,
                         instructions};
}

} // namespace

TEST(TraceCacheDigest, StableAndKeySensitive)
{
    const TraceCacheKey key{"mcf_like", "input-0", 42, 1000000};
    const std::string digest = traceCacheDigest(key);
    EXPECT_EQ(digest.size(), 16u);
    EXPECT_EQ(digest.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    // Same key, same digest — the whole point of content addressing.
    EXPECT_EQ(traceCacheDigest(key), digest);

    // Every field must participate in the address.
    TraceCacheKey other = key;
    other.workload = "gcc_like";
    EXPECT_NE(traceCacheDigest(other), digest);
    other = key;
    other.input = "input-1";
    EXPECT_NE(traceCacheDigest(other), digest);
    other = key;
    other.seed = 43;
    EXPECT_NE(traceCacheDigest(other), digest);
    other = key;
    other.instructions = 2000000;
    EXPECT_NE(traceCacheDigest(other), digest);
}

TEST(TraceCache, ColdRunPopulates)
{
    CacheDirGuard guard("cold");
    const Workload w = findWorkload("mcf_like");
    const TraceCacheKey key = keyFor(w, kInstructions);
    TraceCache cache(guard.path);
    ASSERT_FALSE(cache.contains(key));

    CountingSink sink;
    const Status st = captureTrace(cache, w, 0, kInstructions, {&sink});
    EXPECT_TRUE(st.ok()) << st.str();
    EXPECT_EQ(sink.totalCount(), kInstructions);
    EXPECT_TRUE(cache.contains(key));

    // The published entry is a valid store holding the exact trace.
    Status openStatus;
    auto reader =
        TraceStoreReader::open(cache.entryPath(key), &openStatus);
    ASSERT_NE(reader, nullptr) << openStatus.str();
    EXPECT_EQ(reader->count(), kInstructions);

    // No staging debris left behind.
    size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(guard.path)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(TraceCache, WarmRunReplaysBitIdentical)
{
    // The bit-identity guard of the serve corpus: for a suite workload
    // and a synthesized one, replaying the captured entry must give
    // exactly the records (and so the mispredicts) of a VM pass.
    CacheDirGuard guard("warm");
    const std::string profiles = guard.path + "/profiles";
    std::filesystem::create_directories(profiles);
    ASSERT_TRUE(synth::fitWorkloadProfile(findWorkload("leela_like"), 0,
                                          kInstructions, "leela")
                    .save(profiles + "/leela.json")
                    .ok());
    Workload clone;
    ASSERT_TRUE(synth::makeSynthWorkload(
                    "synth:" + profiles + "/leela.json:3", &clone)
                    .ok());
    TraceCache cache(guard.path + "/corpus");

    for (const Workload &w : {findWorkload("mcf_like"), clone}) {
        SCOPED_TRACE(w.name);
        const auto vm = answerOf([&](const auto &sinks) {
            EXPECT_EQ(runWorkloadTrace(w, 0, sinks, kInstructions),
                      kInstructions);
        });
        const Status captured = captureTrace(cache, w, 0, kInstructions);
        ASSERT_TRUE(captured.ok()) << captured.str();

        Status st;
        auto reader = TraceStoreReader::open(
            cache.entryPath(keyFor(w, kInstructions)), &st);
        ASSERT_NE(reader, nullptr) << st.str();
        const auto replayed = answerOf([&](const auto &sinks) {
            FanoutSink fanout(sinks);
            EXPECT_TRUE(reader->replay(fanout, 0).ok());
        });
        EXPECT_EQ(std::get<1>(vm), kInstructions);
        EXPECT_EQ(replayed, vm) << "replay diverged from live execution";
    }
}

TEST(TraceCache, StaleKeyOnScaleChangeMisses)
{
    CacheDirGuard guard("stale");
    const Workload w = findWorkload("mcf_like");
    TraceCache cache(guard.path);

    ASSERT_TRUE(captureTrace(cache, w, 0, kInstructions).ok());
    EXPECT_TRUE(cache.contains(keyFor(w, kInstructions)));

    // A different instruction budget is a different trace: its key
    // must miss and the capture must publish a second, separate entry.
    const uint64_t other = kInstructions / 2;
    EXPECT_FALSE(cache.contains(keyFor(w, other)));
    ASSERT_TRUE(captureTrace(cache, w, 0, other).ok());
    EXPECT_TRUE(cache.contains(keyFor(w, other)));
    EXPECT_TRUE(cache.contains(keyFor(w, kInstructions)));
    EXPECT_NE(cache.entryPath(keyFor(w, other)),
              cache.entryPath(keyFor(w, kInstructions)));
}

TEST(TraceCache, OrphanGcCollectsDeadPidDebris)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "bpnsp_cache_gc";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    // A genuinely dead pid: fork a child that exits immediately.
    const pid_t dead = fork();
    ASSERT_GE(dead, 0);
    if (dead == 0)
        _exit(0);
    int wstatus = 0;
    ASSERT_EQ(waitpid(dead, &wstatus, 0), dead);

    const auto touch = [&](const std::string &name,
                           const std::string &content) {
        std::ofstream(dir + "/" + name) << content;
    };
    const std::string deadPid = std::to_string(static_cast<long>(dead));
    const std::string livePid =
        std::to_string(static_cast<long>(::getpid()));
    touch("aaaa.staging." + deadPid + ".0", "torn");
    touch("bbbb.lock", deadPid + "\n");
    touch("cccc.staging." + livePid + ".0", "in progress");
    touch("dddd.lock", livePid + "\n");
    touch("eeee.bpt", "published entry, never touched");

    const uint64_t orphansBefore =
        obs::Registry::instance().counterValue(
            "tracestore.cache.orphans_collected");

    TraceCache cache(dir);   // construction runs the GC

    EXPECT_FALSE(std::filesystem::exists(dir + "/aaaa.staging." +
                                         deadPid + ".0"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/bbbb.lock"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/cccc.staging." +
                                        livePid + ".0"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/dddd.lock"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/eeee.bpt"));
    EXPECT_EQ(obs::Registry::instance().counterValue(
                  "tracestore.cache.orphans_collected"),
              orphansBefore + 1);

    std::filesystem::remove_all(dir);
}

TEST(TraceCacheLock, BusyWhileHeldAndStaleLocksBroken)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "bpnsp_cache_lock";
    std::filesystem::remove_all(dir);
    TraceCache cache(dir);
    const TraceCacheKey key{"mcf_like", "input-0", 1, 1000};

    Status st;
    TraceCacheLock lock = TraceCacheLock::acquire(cache, key, &st);
    ASSERT_TRUE(lock.held()) << st.str();

    // Second acquisition while the (live) owner holds it: Busy.
    Status busy;
    TraceCacheLock second = TraceCacheLock::acquire(cache, key, &busy);
    EXPECT_FALSE(second.held());
    EXPECT_EQ(busy.code(), StatusCode::Busy);

    lock.release();

    // A lockfile owned by a dead process must be broken, not Busy.
    const pid_t deadOwner = fork();
    ASSERT_GE(deadOwner, 0);
    if (deadOwner == 0)
        _exit(0);
    int wstatus = 0;
    ASSERT_EQ(waitpid(deadOwner, &wstatus, 0), deadOwner);
    std::ofstream(dir + "/" + traceCacheDigest(key) + ".lock")
        << static_cast<long>(deadOwner) << "\n";

    Status broken;
    TraceCacheLock third = TraceCacheLock::acquire(cache, key, &broken);
    EXPECT_TRUE(third.held()) << broken.str();
    third.release();

    std::filesystem::remove_all(dir);
}

TEST(TraceCache, LockBusyDegradesToUncachedRun)
{
    CacheDirGuard guard("busy");
    const Workload w = findWorkload("mcf_like");
    const TraceCacheKey key = keyFor(w, kInstructions);
    TraceCache cache(guard.path);

    // Pose as a live competitor mid-generation: our own pid in the
    // lockfile. The capture must not wait or interleave — it answers
    // Busy at once, runs nothing, and publishes nothing.
    std::ofstream(guard.path + "/" + traceCacheDigest(key) + ".lock")
        << static_cast<long>(::getpid()) << "\n";
    const uint64_t busyBefore = obs::Registry::instance().counterValue(
        "tracestore.cache.lock_busy");

    CountingSink sink;
    EXPECT_EQ(captureTrace(cache, w, 0, kInstructions, {&sink}).code(),
              StatusCode::Busy);
    EXPECT_EQ(sink.totalCount(), 0u);
    EXPECT_FALSE(cache.contains(key));
    EXPECT_EQ(obs::Registry::instance().counterValue(
                  "tracestore.cache.lock_busy"),
              busyBefore + 1);
}
