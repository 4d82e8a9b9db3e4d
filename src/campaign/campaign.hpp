/**
 * @file
 * Resumable experiment campaigns: run a declarative sweep of
 * (workload, input, predictor, budget[, frontend]) cells under
 * supervision —
 * journaled checkpoints, per-cell deadlines, a campaign wall budget,
 * cooperative cancellation, bounded retries with exponential backoff,
 * and poisoned-cell quarantine.
 *
 * The execution contract (see DESIGN.md "Campaigns"):
 *  - Every cell transition is appended to the journal
 *    (campaign/journal.hpp) and fsync'd before the supervisor moves
 *    on, so a SIGKILL at any instant loses at most the in-flight cell.
 *  - --resume replays the journal: Done cells contribute their
 *    journaled counters to the aggregate bit-identically without
 *    re-execution; Poisoned cells are skipped; everything else
 *    re-runs. The results file of an interrupted-then-resumed campaign
 *    is byte-identical to an uninterrupted one.
 *  - Each cell runs under its own CancelToken (parented to the
 *    campaign token, which is parented to the process-global signal
 *    token), carrying the per-cell deadline; the campaign token
 *    carries the wall budget. SIGINT/SIGTERM fire the global token and
 *    the supervisor drains gracefully: it journals the interruption,
 *    flushes the run report, and exits 130.
 *  - IoError/CorruptData cell failures retry with exponential backoff;
 *    Cancelled and DeadlineExceeded never retry. A cell that exhausts
 *    its retries is journaled Poisoned and skipped by every future
 *    resume.
 *
 * Determinism: cells execute in declaration order, the VM and
 * predictors are seeded deterministically, and the results document
 * excludes wall-clock fields, so a campaign's results file is a pure
 * function of its spec. Each cell's predictor stays warm over the
 * whole budget.
 */

#ifndef BPNSP_CAMPAIGN_CAMPAIGN_HPP
#define BPNSP_CAMPAIGN_CAMPAIGN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "util/status.hpp"

namespace bpnsp {

/** One experiment cell of the sweep. */
struct CampaignCell
{
    std::string workload;     ///< workload name (workloads/suite.hpp)
    std::string input;        ///< input label, e.g. "input-0"
    size_t inputIdx = 0;      ///< index of that input in the workload
    std::string predictor;    ///< predictor name (bp/factory.hpp)
    uint64_t instructions = 0; ///< instruction budget
    std::string frontend;     ///< frontend spec (frontend/frontend.hpp
                              ///< grammar); "" = direction-only cell,
                              ///< no frontend model is run

    /**
     * Stable human-readable id: workload/input/predictor, with
     * "/<frontend>" appended only when the cell sweeps the frontend
     * axis — so pre-frontend journals and results keep their ids.
     */
    std::string id() const;
};

/** Everything a campaign run needs. */
struct CampaignConfig
{
    std::vector<CampaignCell> cells;

    std::string journalPath;   ///< required
    bool resume = false;       ///< replay the journal instead of
                               ///< truncating it

    uint64_t cellDeadlineMs = 0;  ///< per-cell deadline (0 = none)
    uint64_t wallBudgetMs = 0;    ///< campaign wall budget (0 = none)
    int maxRetries = 2;           ///< retries per cell after the first
                                  ///< attempt (retryable codes only)
    uint64_t backoffMs = 100;     ///< base backoff, doubled per retry
};

/** Final disposition of one cell. */
enum class CellState : uint8_t
{
    Done,       ///< executed this run (or journaled Done on resume)
    Failed,     ///< terminal failure this run (incl. deadline)
    Poisoned,   ///< retries exhausted (this run or a previous one)
    Cancelled,  ///< attempt cut by campaign cancellation
    Pending,    ///< never started (campaign interrupted first)
};

/** Name of a CellState ("done", "failed", ...). */
const char *cellStateName(CellState state);

/** One cell's outcome in the campaign summary. */
struct CellOutcome
{
    CampaignCell cell;
    CellState state = CellState::Pending;
    CellResult result;        ///< valid when state == Done
    bool fromJournal = false; ///< satisfied by --resume, not executed
    int attempts = 0;         ///< attempts made this run
    std::string error;        ///< diagnostic for Failed/Poisoned
};

/** The campaign's aggregate summary. */
struct CampaignResult
{
    std::vector<CellOutcome> outcomes;   ///< one per cell, in order
    uint64_t done = 0;      ///< newly executed to completion
    uint64_t failed = 0;    ///< newly failed/poisoned this run
    uint64_t skipped = 0;   ///< satisfied or refused via the journal
    uint64_t retried = 0;   ///< retry attempts made this run
    bool interrupted = false;  ///< cancellation cut the campaign short
    Status status;          ///< first fatal supervisor-level error
};

/**
 * Digest over everything that determines the campaign's results: the
 * cell list. Operational knobs (deadlines, retries, backoff) are
 * excluded so they can change between a run and its resume. 16 hex
 * digits.
 */
std::string campaignSpecDigest(const CampaignConfig &config);

/**
 * Run (or resume) a campaign. Installs the campaign CancelToken for
 * the calling thread while running; honors a previously installed
 * currentCancelToken() as parent. Never fatal()s on per-cell trouble —
 * failures land in the journal and the summary. Counters:
 * campaign.cells_{total,done,failed,retried,skipped},
 * campaign.resumed, campaign.interrupted, and the campaign.cell_wall_ns
 * histogram.
 */
CampaignResult runCampaign(const CampaignConfig &config);

/**
 * Render the deterministic results document (JSON,
 * "bpnsp-campaign-results-v1"): one entry per cell in declaration
 * order with its journaled counters. Excludes wall-clock fields, so an
 * interrupted+resumed campaign renders byte-identically to an
 * uninterrupted one.
 */
std::string renderCampaignResults(const CampaignConfig &config,
                                  const CampaignResult &result);

/** Durably publish renderCampaignResults() at `path` (atomic). */
Status writeCampaignResults(const CampaignConfig &config,
                            const CampaignResult &result,
                            const std::string &path);

/**
 * Expand a declarative sweep into cells: every workload named in
 * `workloads` ("all" or comma-separated) x its first `inputs` inputs x
 * every predictor in `predictors` (comma-separated) x every frontend
 * spec in `frontends` (comma-separated; "" disables the axis and
 * leaves every cell direction-only), each with the same instruction
 * budget. fatal() on an unknown workload or predictor name or a
 * malformed frontend spec (driver-facing).
 */
std::vector<CampaignCell> buildCells(const std::string &workloads,
                                     unsigned inputs,
                                     const std::string &predictors,
                                     uint64_t instructions,
                                     const std::string &frontends = "");

} // namespace bpnsp

#endif // BPNSP_CAMPAIGN_CAMPAIGN_HPP
