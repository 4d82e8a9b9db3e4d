/**
 * @file
 * Tests for the campaign subsystem and the cancellation layer it is
 * built on: cancel-token semantics and scoping, cancel/deadline cuts
 * through the VM delivery loop and the replay path, journal
 * round-trips with torn tails, retry/poison handling,
 * kill-between-appends + --resume bit-identity, results that do not
 * move with the trace cache, and the heartbeat-TTL lock takeover.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/store.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

namespace {

/** Fresh scratch directory per test; removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const char *tag)
        : path(std::string(::testing::TempDir()) + "bpnsp_campaign_" +
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

/** A tiny two-cell campaign config rooted in `dir`. */
CampaignConfig
smallConfig(const ScratchDir &dir, const std::string &journalName)
{
    CampaignConfig config;
    config.cells = buildCells("mcf_like", 1, "gshare,bimodal", 30000);
    config.journalPath = dir.file(journalName);
    config.backoffMs = 1;
    return config;
}

/** Backdate a file's mtime by `seconds`. */
void
backdateMtime(const std::string &path, uint64_t seconds)
{
    struct timespec times[2];
    ASSERT_EQ(::clock_gettime(CLOCK_REALTIME, &times[0]), 0);
    times[0].tv_sec -= static_cast<time_t>(seconds);
    times[1] = times[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

} // namespace

// ---------------------------------------------------------------------
// Cancellation layer.

TEST(CancelToken, FirstCauseWinsAndDeadlineLatches)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_TRUE(token.check().ok());

    token.requestCancel(CancelCause::User);
    token.requestCancel(CancelCause::Signal);     // loses the race
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.cause(), CancelCause::User);
    EXPECT_EQ(token.check().code(), StatusCode::Cancelled);

    CancelToken deadline;
    deadline.setDeadlineAfterMs(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(deadline.cancelled());
    EXPECT_EQ(deadline.check().code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(deadline.cause(), CancelCause::Deadline);
}

TEST(CancelToken, ParentPropagatesAndScopeInstalls)
{
    CancelToken parent;
    CancelToken child(&parent);
    EXPECT_FALSE(child.cancelled());
    parent.requestCancel(CancelCause::Signal);
    EXPECT_TRUE(child.cancelled());
    EXPECT_EQ(child.check().code(), StatusCode::Cancelled);

    // The default current token is the global one; a scope overrides
    // it for the thread and restores on destruction.
    CancelToken *defaultToken = currentCancelToken();
    EXPECT_EQ(defaultToken, &globalCancelToken());
    {
        CancelToken local;
        CancelScope scope(local);
        EXPECT_EQ(currentCancelToken(), &local);
    }
    EXPECT_EQ(currentCancelToken(), defaultToken);
}

TEST(Cancel, CutsVmDeliveryLoopMidRun)
{
    const Workload workload = findWorkload("mcf_like");
    CancelToken token;
    CancelScope scope(token);

    std::thread firer([&token]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        token.requestCancel(CancelCause::User);
    });
    const uint64_t budget = 4000000000ull;   // minutes uncancelled
    const uint64_t executed = runTrace(workload.build(0), {}, budget);
    firer.join();

    EXPECT_LT(executed, budget);
    EXPECT_EQ(token.check().code(), StatusCode::Cancelled);
}

TEST(Cancel, CutsReplayMidStream)
{
    ScratchDir dir("replay_cancel");
    const Workload workload = findWorkload("mcf_like");
    const std::string path = dir.file("trace.bpt");
    {
        TraceStoreWriter writer(path);
        runTrace(workload.build(0), {&writer}, 200000);
    }
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();

    CancelToken token;
    token.requestCancel(CancelCause::User);
    CancelScope scope(token);
    CountingSink sink;
    st = reader->replay(sink, 0);
    EXPECT_EQ(st.code(), StatusCode::Cancelled);
}

TEST(Cancel, DeadlinePropagatesThroughReplay)
{
    ScratchDir dir("replay_deadline");
    const Workload workload = findWorkload("mcf_like");
    const std::string path = dir.file("trace.bpt");
    {
        TraceStoreWriter writer(path);
        runTrace(workload.build(0), {&writer}, 200000);
    }
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();

    CancelToken token;
    token.setDeadlineAfterMs(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    CancelScope scope(token);
    CountingSink sink;
    st = reader->replay(sink, 0);
    EXPECT_EQ(st.code(), StatusCode::DeadlineExceeded);
}

// ---------------------------------------------------------------------
// Journal.

TEST(CampaignJournal, RoundTripAndTornTail)
{
    ScratchDir dir("journal");
    const std::string path = dir.file("camp.journal");
    const std::string spec = "0123456789abcdef";

    CampaignJournal journal;
    ASSERT_TRUE(CampaignJournal::create(path, spec, 3, &journal).ok());
    ASSERT_TRUE(journal.appendStart(0, 0, "w/i/p").ok());
    ASSERT_TRUE(
        journal.appendDone(0, CellResult{1000, 150, 12, 7}).ok());
    ASSERT_TRUE(journal.appendStart(1, 0, "w/i/q").ok());
    ASSERT_TRUE(
        journal
            .appendFailure(1, 0, Status::ioError("disk on fire"))
            .ok());
    ASSERT_TRUE(journal.appendPoisoned(1).ok());
    ASSERT_TRUE(journal.appendStart(2, 0, "w/i/r").ok());
    journal.close();

    // A crash mid-append leaves a torn, newline-less tail.
    {
        std::ofstream torn(path, std::ios::app);
        torn << "D 2 99";
    }

    std::vector<CellLedger> ledger;
    ASSERT_TRUE(CampaignJournal::load(path, spec, 3, &ledger).ok());
    ASSERT_EQ(ledger.size(), 3u);
    EXPECT_EQ(ledger[0].state, CellLedger::State::Done);
    EXPECT_EQ(ledger[0].result.instructions, 1000u);
    EXPECT_EQ(ledger[0].result.predictions, 150u);
    EXPECT_EQ(ledger[0].result.mispredicts, 12u);
    EXPECT_EQ(ledger[1].state, CellLedger::State::Poisoned);
    // The torn "D 2 ..." line must not count as done.
    EXPECT_EQ(ledger[2].state, CellLedger::State::Pending);

    // A different spec digest must be refused outright.
    EXPECT_EQ(CampaignJournal::load(path, "ffffffffffffffff", 3,
                                    &ledger)
                  .code(),
              StatusCode::InvalidArgument);
}

// ---------------------------------------------------------------------
// Campaign supervisor.

TEST(Campaign, RunsAllCellsAndBalancesCounters)
{
    ScratchDir dir("basic");
    const CampaignConfig config = smallConfig(dir, "camp.journal");
    const CampaignResult result = runCampaign(config);

    ASSERT_TRUE(result.status.ok()) << result.status.str();
    EXPECT_FALSE(result.interrupted);
    EXPECT_EQ(result.done, config.cells.size());
    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(result.skipped, 0u);
    EXPECT_EQ(result.done + result.failed + result.skipped,
              config.cells.size());
    for (const CellOutcome &out : result.outcomes) {
        EXPECT_EQ(out.state, CellState::Done);
        EXPECT_EQ(out.result.instructions, out.cell.instructions);
        EXPECT_GT(out.result.predictions, 0u);
    }
}

TEST(Campaign, ResumeSkipsDoneCellsBitIdentically)
{
    ScratchDir dir("resume");
    CampaignConfig config = smallConfig(dir, "camp.journal");
    const CampaignResult first = runCampaign(config);
    ASSERT_TRUE(first.status.ok());
    ASSERT_EQ(first.done, config.cells.size());

    config.resume = true;
    const CampaignResult second = runCampaign(config);
    ASSERT_TRUE(second.status.ok());
    EXPECT_EQ(second.done, 0u);
    EXPECT_EQ(second.skipped, config.cells.size());
    for (const CellOutcome &out : second.outcomes)
        EXPECT_TRUE(out.fromJournal);

    EXPECT_EQ(renderCampaignResults(config, first),
              renderCampaignResults(config, second));
}

TEST(Campaign, RetriesTransientFailureThenSucceeds)
{
    ScratchDir dir("retry");
    CampaignConfig config = smallConfig(dir, "camp.journal");
    config.cells.resize(1);
    config.maxRetries = 2;

    ASSERT_TRUE(faultsim::configure("campaign.cell.fail*1").ok());
    const CampaignResult result = runCampaign(config);
    faultsim::reset();

    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.done, 1u);
    EXPECT_EQ(result.retried, 1u);
    EXPECT_EQ(result.outcomes[0].state, CellState::Done);
    EXPECT_EQ(result.outcomes[0].attempts, 2);
}

TEST(Campaign, ExhaustedRetriesPoisonAndResumeSkips)
{
    ScratchDir dir("poison");
    CampaignConfig config = smallConfig(dir, "camp.journal");
    config.cells.resize(1);
    config.maxRetries = 1;

    ASSERT_TRUE(faultsim::configure("campaign.cell.fail").ok());
    const CampaignResult broken = runCampaign(config);
    faultsim::reset();

    ASSERT_TRUE(broken.status.ok());
    EXPECT_EQ(broken.failed, 1u);
    EXPECT_EQ(broken.outcomes[0].state, CellState::Poisoned);

    // The poison is durable: a fault-free resume refuses the cell.
    config.resume = true;
    const CampaignResult resumed = runCampaign(config);
    ASSERT_TRUE(resumed.status.ok());
    EXPECT_EQ(resumed.done, 0u);
    EXPECT_EQ(resumed.skipped, 1u);
    EXPECT_EQ(resumed.outcomes[0].state, CellState::Poisoned);
    EXPECT_TRUE(resumed.outcomes[0].fromJournal);
}

TEST(Campaign, CellDeadlineFailsWithoutHanging)
{
    ScratchDir dir("deadline");
    CampaignConfig config;
    config.cells = buildCells("mcf_like", 1, "gshare", 4000000000ull);
    config.journalPath = dir.file("camp.journal");
    config.cellDeadlineMs = 30;

    const CampaignResult result = runCampaign(config);
    ASSERT_TRUE(result.status.ok());
    EXPECT_FALSE(result.interrupted);
    EXPECT_EQ(result.failed, 1u);
    EXPECT_EQ(result.outcomes[0].state, CellState::Failed);
    EXPECT_NE(result.outcomes[0].error.find("DeadlineExceeded"),
              std::string::npos)
        << result.outcomes[0].error;
    // Deadline failures are journaled F, not P: a resume with a
    // raised deadline gets to re-run the cell.
    std::vector<CellLedger> ledger;
    ASSERT_TRUE(CampaignJournal::load(config.journalPath,
                                      campaignSpecDigest(config), 1,
                                      &ledger)
                    .ok());
    EXPECT_EQ(ledger[0].state, CellLedger::State::Pending);
}

TEST(Campaign, WallBudgetInterruptsAndResumeCompletes)
{
    ScratchDir dir("wall");
    CampaignConfig config;
    config.cells = buildCells("mcf_like", 1, "gshare", 4000000000ull);
    config.journalPath = dir.file("camp.journal");
    config.wallBudgetMs = 30;

    const CampaignResult cut = runCampaign(config);
    ASSERT_TRUE(cut.status.ok());
    EXPECT_TRUE(cut.interrupted);
    EXPECT_EQ(cut.outcomes[0].state, CellState::Cancelled);

    // With a sane budget the resume re-runs the interrupted cell.
    config.resume = true;
    config.wallBudgetMs = 0;
    config.cells = buildCells("mcf_like", 1, "gshare", 30000);
    // Different spec (budget changed) — must be refused, not mixed.
    EXPECT_EQ(runCampaign(config).status.code(),
              StatusCode::InvalidArgument);
}

TEST(Campaign, KillBetweenAppendsThenResumeIsBitIdentical)
{
    ScratchDir dir("kill");
    CampaignConfig config = smallConfig(dir, "camp.journal");

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: die SIGKILL-style right after the first cell's
        // terminal journal append — nothing else gets flushed.
        if (!faultsim::configure("campaign.cell.kill*1").ok())
            ::_exit(90);
        runCampaign(config);
        ::_exit(91);   // unreachable: the failpoint fires first
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), 137);

    // Resume: the journaled cell is skipped, the in-flight one
    // re-runs, and the aggregate is bit-identical to an uninterrupted
    // campaign of the same spec.
    CampaignConfig resumeConfig = config;
    resumeConfig.resume = true;
    const CampaignResult resumed = runCampaign(resumeConfig);
    ASSERT_TRUE(resumed.status.ok()) << resumed.status.str();
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.skipped, 1u);
    EXPECT_EQ(resumed.done, config.cells.size() - 1);

    CampaignConfig freshConfig = smallConfig(dir, "fresh.journal");
    const CampaignResult fresh = runCampaign(freshConfig);
    ASSERT_TRUE(fresh.status.ok());
    EXPECT_EQ(renderCampaignResults(resumeConfig, resumed),
              renderCampaignResults(freshConfig, fresh));
}

TEST(Campaign, SpecDigestIsStableAcrossVersions)
{
    // Journals carry this digest and --resume refuses a mismatch, so
    // a change to the canonical spec string strands every journal
    // written before it. The value is the one computed before the
    // shard knob was removed.
    CampaignConfig config;
    config.cells = buildCells("mcf_like", 1, "gshare,bimodal", 30000);
    ASSERT_EQ(config.cells.size(), 2u);
    EXPECT_EQ(campaignSpecDigest(config), "7d18623b5b12bb28");
}

// ---------------------------------------------------------------------
// Frontend axis.

TEST(CampaignJournal, DoneLineCarriesAndDefaultsTargetMispredicts)
{
    ScratchDir dir("journal_fe");
    const std::string path = dir.file("camp.journal");
    const std::string spec = "0123456789abcdef";

    CampaignJournal journal;
    ASSERT_TRUE(CampaignJournal::create(path, spec, 2, &journal).ok());
    CellResult done;
    done.instructions = 1000;
    done.predictions = 150;
    done.mispredicts = 12;
    done.wallMs = 7;
    done.targetMispredicts = 5;
    ASSERT_TRUE(journal.appendDone(0, done).ok());
    journal.close();

    // A pre-frontend journal ends its D records at wall_ms; the
    // missing trailing field must default to zero, not drop the line.
    {
        std::ofstream old(path, std::ios::app);
        old << "D 1 2000 300 24 9\n";
    }

    std::vector<CellLedger> ledger;
    ASSERT_TRUE(CampaignJournal::load(path, spec, 2, &ledger).ok());
    ASSERT_EQ(ledger.size(), 2u);
    EXPECT_EQ(ledger[0].state, CellLedger::State::Done);
    EXPECT_EQ(ledger[0].result.targetMispredicts, 5u);
    EXPECT_EQ(ledger[1].state, CellLedger::State::Done);
    EXPECT_EQ(ledger[1].result.instructions, 2000u);
    EXPECT_EQ(ledger[1].result.mispredicts, 24u);
    EXPECT_EQ(ledger[1].result.targetMispredicts, 0u);
}

TEST(Campaign, FrontendAxisIsOptInForIdsAndDigests)
{
    // Direction-only sweeps must keep their pre-frontend ids and spec
    // digest, or every existing journal stops resuming.
    CampaignConfig plain;
    plain.cells = buildCells("mcf_like", 1, "gshare", 30000);
    ASSERT_EQ(plain.cells.size(), 1u);
    EXPECT_TRUE(plain.cells[0].frontend.empty());
    EXPECT_EQ(plain.cells[0].id(), "mcf_like/" +
                                       plain.cells[0].input +
                                       "/gshare");

    CampaignConfig swept;
    swept.cells =
        buildCells("mcf_like", 1, "gshare", 30000, "off,default");
    ASSERT_EQ(swept.cells.size(), 2u);
    EXPECT_EQ(swept.cells[0].frontend, "off");
    EXPECT_EQ(swept.cells[1].frontend, "default");
    EXPECT_EQ(swept.cells[0].id(), plain.cells[0].id() + "/off");
    EXPECT_NE(campaignSpecDigest(plain), campaignSpecDigest(swept));
}

TEST(Campaign, FrontendCellsCountTargetsAndResumeBitIdentically)
{
    ScratchDir dir("frontend");
    CampaignConfig config;
    config.cells =
        buildCells("vcall", 1, "gshare", 30000, "off,default");
    config.journalPath = dir.file("camp.journal");
    config.backoffMs = 1;

    const CampaignResult first = runCampaign(config);
    ASSERT_TRUE(first.status.ok()) << first.status.str();
    ASSERT_EQ(first.done, 2u);
    // vcall's 896-way virtual dispatch plus its over-depth recursion
    // must produce target mispredicts under the default frontend; the
    // "off" cell runs no frontend model at all.
    EXPECT_EQ(first.outcomes[0].result.targetMispredicts, 0u);
    EXPECT_GT(first.outcomes[1].result.targetMispredicts, 0u);
    // Direction counters must not depend on the frontend axis.
    EXPECT_EQ(first.outcomes[0].result.mispredicts,
              first.outcomes[1].result.mispredicts);

    config.resume = true;
    const CampaignResult second = runCampaign(config);
    ASSERT_TRUE(second.status.ok());
    EXPECT_EQ(second.skipped, 2u);
    EXPECT_EQ(second.outcomes[1].result.targetMispredicts,
              first.outcomes[1].result.targetMispredicts);

    const std::string doc = renderCampaignResults(config, first);
    EXPECT_EQ(doc, renderCampaignResults(config, second));
    EXPECT_NE(doc.find("\"frontend\": \"default\""), std::string::npos);
    EXPECT_NE(doc.find("\"target_mispredicts\": "), std::string::npos);
}

// ---------------------------------------------------------------------
// Lock heartbeat TTL takeover.

TEST(TraceCacheLock, TakesOverWedgedHolderPastTtl)
{
    ScratchDir dir("lockttl");
    TraceCache cache(dir.file("cache"));
    const TraceCacheKey key{"mcf_like", "input-0", 42, 1000};

    Status st;
    TraceCacheLock first = TraceCacheLock::acquire(cache, key, &st);
    ASSERT_TRUE(first.held()) << st.str();

    // A live holder with a fresh heartbeat is honored.
    TraceCacheLock second = TraceCacheLock::acquire(cache, key, &st);
    EXPECT_FALSE(second.held());
    EXPECT_EQ(st.code(), StatusCode::Busy);

    // Backdate the heartbeat past the TTL: the holder is alive but
    // wedged, so the lock must be taken over.
    const std::string lockPath =
        cache.dir() + "/" + traceCacheDigest(key) + ".lock";
    backdateMtime(lockPath, 3600);
    const uint64_t takeoversBefore =
        obs::counter("tracestore.cache.lock_takeovers").value();
    TraceCacheLock::setTtlMs(1000);
    TraceCacheLock third = TraceCacheLock::acquire(cache, key, &st);
    TraceCacheLock::setTtlMs(TraceCacheLock::kDefaultTtlMs);
    EXPECT_TRUE(third.held()) << st.str();
    EXPECT_EQ(
        obs::counter("tracestore.cache.lock_takeovers").value(),
        takeoversBefore + 1);

    // touch() refreshes the heartbeat, re-arming the TTL.
    backdateMtime(lockPath, 3600);
    third.touch();
    TraceCacheLock::setTtlMs(1000);
    TraceCacheLock fourth = TraceCacheLock::acquire(cache, key, &st);
    TraceCacheLock::setTtlMs(TraceCacheLock::kDefaultTtlMs);
    EXPECT_FALSE(fourth.held());
    EXPECT_EQ(st.code(), StatusCode::Busy);

    first.release();   // owns a now-stolen path; release is harmless
}
