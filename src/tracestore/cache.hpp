/**
 * @file
 * Content-addressed trace cache: maps (workload, input, scale, format
 * version) to a trace store file on disk. It holds the serve corpus,
 * whose entries captureTrace() (core/runner.hpp) generates; batch runs
 * execute the VM instead, which is cheaper than a replay.
 *
 * Crash-safety and concurrency contract:
 *  - Entries are published with write-to-temp + fsync + atomic rename
 *    + directory fsync: a run records into a private staging file and
 *    renames it into place only after the trace is complete and
 *    durable, so concurrent runs and crashes can never expose a
 *    partial entry under a valid key.
 *  - Construction garbage-collects debris of crashed runs: staging
 *    files and generation lockfiles whose owning process is dead.
 *  - A per-entry generation lockfile (TraceCacheLock) serializes cold
 *    generation of the same key across processes; losers get Busy
 *    instead of interleaving writes.
 *  - Unusable entries are *quarantined* (renamed aside, bounded count)
 *    rather than silently deleted, preserving the evidence while the
 *    key regenerates.
 *
 * The format version participates in the digest, so a format bump
 * silently invalidates stale entries instead of misreading them.
 */

#ifndef BPNSP_TRACESTORE_CACHE_HPP
#define BPNSP_TRACESTORE_CACHE_HPP

#include <cstdint>
#include <string>

#include "util/status.hpp"

namespace bpnsp {

/** Everything that determines a trace's identity. */
struct TraceCacheKey
{
    std::string workload;     ///< workload name, e.g. "mcf_like"
    std::string input;        ///< input label, e.g. "input-0"
    uint64_t seed = 0;        ///< input seed (drives program data)
    uint64_t instructions = 0; ///< trace length (the scale knob)
};

/**
 * Stable content address of a key: 16 hex digits over the canonical
 * key string, which includes kStoreVersion.
 */
std::string traceCacheDigest(const TraceCacheKey &key);

/** A directory of trace store files addressed by key digest. */
class TraceCache
{
  public:
    /**
     * Create the directory if needed (fatal() if that fails) and
     * garbage-collect staging files and lockfiles left by dead
     * processes (counted as tracestore.cache.orphans_collected).
     */
    explicit TraceCache(std::string directory);

    const std::string &dir() const { return root; }

    /** Path the entry for `key` lives at (whether or not it exists). */
    std::string entryPath(const TraceCacheKey &key) const;

    /** True when a published entry exists for `key`. */
    bool contains(const TraceCacheKey &key) const;

    /**
     * A fresh private staging path for recording `key`'s trace.
     * Unique per process AND per call, so concurrent cold runs (or
     * threads) never clobber each other's half-written files. The
     * embedded pid lets a later construction GC the file if this
     * process dies.
     */
    std::string stagingPath(const TraceCacheKey &key) const;

    /**
     * Durably and atomically publish a finished staging file under
     * `key`: fsync the bytes, rename onto the entry path, fsync the
     * directory. IoError leaves the staging file for the caller to
     * discard; no reader can ever observe a partial entry.
     */
    Status publish(const std::string &staging,
                   const TraceCacheKey &key) const;

    /**
     * Move an unusable entry (truncated, corrupt, wrong length) aside
     * to a numbered .quarantine file instead of deleting it, so the
     * evidence survives for postmortems while the key regenerates.
     * Keeps at most kQuarantineSlots quarantined copies per key
     * (oldest evicted beyond that). Loud: warn()s with the reason and
     * bumps tracestore.cache.quarantined (plus the legacy
     * tracestore.cache.corrupt_evictions), so silent trace-store
     * corruption shows up in run reports instead of hiding behind
     * transparent regeneration.
     */
    void quarantine(const TraceCacheKey &key,
                    const std::string &reason) const;

    /** Quarantined copies kept per key before the oldest is dropped. */
    static constexpr int kQuarantineSlots = 4;

  private:
    std::string root;

    void collectOrphans() const;

    /** Delete the entry for `key` if present. */
    void evict(const TraceCacheKey &key) const;
};

/**
 * RAII per-entry generation lock. Backed by an O_CREAT|O_EXCL
 * lockfile holding the owner pid; stale locks of dead processes are
 * broken automatically (tracestore.cache.stale_locks_broken). On
 * Busy — a live process is already generating this entry — the caller
 * reports Busy rather than wait or interleave.
 *
 * Live-but-wedged holders are handled by an mtime heartbeat: the
 * holder touch()es its lockfile while making progress (captureTrace
 * pulses it from the record stream), and acquire() treats a lock
 * whose mtime is older than the TTL as abandoned even when its owner
 * pid is still alive — a hung generator must not make every future
 * capture of that key answer Busy forever
 * (tracestore.cache.lock_takeovers counts these).
 */
class TraceCacheLock
{
  public:
    /**
     * Try to take the generation lock for `key`. Returns a held lock,
     * or an unheld one with *status = Busy (live owner with a fresh
     * heartbeat) / IoError.
     */
    static TraceCacheLock acquire(const TraceCache &cache,
                                  const TraceCacheKey &key,
                                  Status *status);

    TraceCacheLock() = default;
    ~TraceCacheLock() { release(); }

    TraceCacheLock(TraceCacheLock &&other) noexcept;
    TraceCacheLock &operator=(TraceCacheLock &&other) noexcept;
    TraceCacheLock(const TraceCacheLock &) = delete;
    TraceCacheLock &operator=(const TraceCacheLock &) = delete;

    bool held() const { return !lockPath.empty(); }

    /**
     * Heartbeat: refresh the lockfile mtime so concurrent acquirers
     * see a live, progressing holder. No-op when not held; cheap
     * enough to call from a record-stream pulse.
     */
    void touch() const;

    /** Unlink the lockfile early (idempotent). */
    void release();

    /**
     * Heartbeat TTL in milliseconds: a held lock whose mtime is older
     * than this is eligible for takeover. Configurable through
     * BPNSP_TRACE_LOCK_TTL_MS (read once) or setTtlMs() (tests);
     * 0 disables takeover entirely.
     */
    static uint64_t ttlMs();
    static void setTtlMs(uint64_t ms);

    /** Default heartbeat TTL: generous next to the pulse period. */
    static constexpr uint64_t kDefaultTtlMs = 10 * 60 * 1000;

  private:
    std::string lockPath;
};

} // namespace bpnsp

#endif // BPNSP_TRACESTORE_CACHE_HPP
