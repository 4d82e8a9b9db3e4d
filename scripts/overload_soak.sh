#!/usr/bin/env bash
# Overload-survival soak: a deliberately oversubscribed open-loop mix
# against bpnsp_served with cost-aware admission engaged, plus one
# abusive client hammering whole-trace work with no deadline. The
# server must keep the well-behaved client's interactive tail bounded
# (p99 within 3x its uncontended baseline, with a small absolute floor
# for sanitizer noise), shed overwhelmingly from the abusive client
# (fair-share, heaviest first), expire unmeetable deadlines before
# they cost worker time, and answer every surviving request with the
# bit-exact result (--verify). Client-side hedging must fire under the
# induced slowness and every hedged duplicate must verify identically.
# The drained report must validate as schema_rev 9 (shed / expired /
# hedge accounting invariants). A final pass drives the same corpus
# through a 2-worker fleet with router-side hedging enabled and
# validates the fleet report under the same rev-8 invariants.
#
# Usage: scripts/overload_soak.sh [BUILD_DIR]
#
# Intended to run against a sanitizer build (CI's overload-soak job);
# any build directory with bpnsp_served + bpnsp_client works.

set -euo pipefail

BUILD_DIR="${1:-build}"
SERVED="$BUILD_DIR/src/serve/bpnsp_served"
CLIENT="$BUILD_DIR/src/serve/bpnsp_client"
CHECKER="$(dirname "$0")/check_run_report.py"

WORK="$(mktemp -d /tmp/bpnsp-overload-soak.XXXXXX)"
SOCKET="$WORK/served.sock"
CACHE="$WORK/trace-cache"
REPORT="$WORK/report.json"
SERVED_PID=""
FLEET_PID=""
ABUSE_PID=""
trap 'for p in "$SERVED_PID" "$FLEET_PID" "$ABUSE_PID"; do
          [ -n "$p" ] && kill "$p" 2>/dev/null || true
      done
      rm -rf "$WORK"' EXIT

for bin in "$SERVED" "$CLIENT"; do
    [ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 2; }
done

echo "== overload soak: workdir $WORK"

# Cost-aware admission: a 50 ms estimated-work budget with a deep
# count queue, so the cost model (not the request count) is what
# decides admission, and heaviest-first shedding picks the victims.
"$SERVED" \
    --socket="$SOCKET" \
    --trace-cache="$CACHE" \
    --threads=2 \
    --queue-depth=128 \
    --max-inflight-cost=50 \
    --shed-policy=heaviest \
    --metrics-out="$REPORT" \
    &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SOCKET" ] && break
    sleep 0.1
done
[ -S "$SOCKET" ] || { echo "daemon never bound $SOCKET" >&2; exit 1; }

# Warm the corpus so the phases measure serving, not generation.
"$CLIENT" --socket="$SOCKET" --op=materialize \
    --workload=mcf_like --instructions=200000

# Extract one key from a "loadgen-overload: k=v k=v ..." line.
ov_field() { # file key
    grep '^loadgen-overload:' "$1" | sed -n "s/.*$2=\([0-9.]*\).*/\1/p"
}

# Phase 1: uncontended 1x baseline for the well-behaved client's mix
# (half interactive BranchStats, half sliced Simulates, open loop so
# the arrival rate is fixed).
echo "== phase 1: 1x baseline (open loop, mixed interactive/batch)"
BASE_LOG="$WORK/baseline.log"
"$CLIENT" --socket="$SOCKET" --op=loadgen \
    --clients=4 --requests=40 --open-loop-hz=5 \
    --interactive-frac=0.5 \
    --workload=mcf_like --instructions=200000 --count=20000 \
    --predictor=gshare --seed=21 \
    --verify --trace-cache="$CACHE" | tee "$BASE_LOG"
BASE_P99="$(ov_field "$BASE_LOG" interactive_p99_ms)"
[ -n "$BASE_P99" ] || { echo "no baseline p99 captured" >&2; exit 1; }

# Phase 2: 10x overload. The abusive client: 8 closed-loop clients of
# whole-trace Simulates, no deadline, no retries — the heaviest peer
# by estimated queued work, so fair-share shedding should land on it.
# The well-behaved client keeps the same mix at 10x the arrival rate,
# with a 2 s deadline and a 5 ms hedge trigger (under the contended
# tail, so the p95-adaptive hedge actually fires).
echo "== phase 2: 10x overload + abusive client"
ABUSE_LOG="$WORK/abusive.log"
GOOD_LOG="$WORK/good.log"
"$CLIENT" --socket="$SOCKET" --op=loadgen \
    --clients=12 --requests=300 \
    --workload=mcf_like --instructions=200000 --count=0 \
    --predictor=tage-sc-l-8KB --seed=22 \
    >"$ABUSE_LOG" 2>&1 &
ABUSE_PID=$!
sleep 0.3
"$CLIENT" --socket="$SOCKET" --op=loadgen \
    --clients=4 --requests=100 --open-loop-hz=50 \
    --interactive-frac=0.5 --deadline-ms=2000 --hedge-ms=5 \
    --workload=mcf_like --instructions=200000 --count=20000 \
    --predictor=gshare --seed=23 \
    --verify --trace-cache="$CACHE" | tee "$GOOD_LOG"
# The abusive client is expected to be shed hard; its exit code is
# not part of the contract (ok may legitimately reach 0).
wait "$ABUSE_PID" || true
ABUSE_PID=""
cat "$ABUSE_LOG"

GOOD_P99="$(ov_field "$GOOD_LOG" interactive_p99_ms)"
GOOD_REJ="$(ov_field "$GOOD_LOG" rejected)"
GOOD_HEDGES="$(ov_field "$GOOD_LOG" hedges)"
GOOD_MISMATCH="$(ov_field "$GOOD_LOG" mismatches)"
ABUSE_REJ="$(ov_field "$ABUSE_LOG" rejected)"

python3 - "$BASE_P99" "$GOOD_P99" "$GOOD_REJ" "$ABUSE_REJ" \
    "$GOOD_HEDGES" "$GOOD_MISMATCH" <<'PY'
import sys

base_p99, good_p99 = float(sys.argv[1]), float(sys.argv[2])
good_rej, abuse_rej = int(sys.argv[3]), int(sys.argv[4])
hedges, mismatches = int(sys.argv[5]), int(sys.argv[6])

# Interactive tail: bounded at 3x the uncontended baseline, with a
# 100 ms absolute floor so a sub-ms sanitizer-noise baseline does not
# turn the ratio into a coin flip.
limit = max(3.0 * base_p99, 100.0)
assert good_p99 <= limit, (
    "interactive p99 %.2f ms exceeds %.2f ms under overload "
    "(baseline %.2f ms)" % (good_p99, limit, base_p99)
)

# Fairness: the overload must be absorbed by the abusive client.
total_rej = good_rej + abuse_rej
assert abuse_rej > 0, "overload never shed anything"
assert abuse_rej >= 0.9 * total_rej, (
    "abusive client absorbed only %d/%d sheds" % (abuse_rej, total_rej)
)

# Hedging fired under the induced slowness, and every answered
# request (hedged duplicates included) verified bit-identical.
assert hedges > 0, "no hedges fired at 10x load with a 5 ms trigger"
assert mismatches == 0, "%d verify mismatches" % mismatches

print(
    "overload ok: interactive p99 %.2fms (baseline %.2fms, limit "
    "%.2fms), sheds good=%d abusive=%d, %d hedge(s), 0 mismatches"
    % (good_p99, base_p99, limit, good_rej, abuse_rej, hedges)
)
PY

# Phase 3: drain and audit the rev-9 report: the overload counters
# must be present, additive, and non-trivial.
echo "== phase 3: main report validation (schema_rev 9)"
kill -TERM "$SERVED_PID"
SERVED_STATUS=0
wait "$SERVED_PID" || SERVED_STATUS=$?
SERVED_PID=""
[ "$SERVED_STATUS" -eq 0 ] || {
    echo "daemon exited $SERVED_STATUS after SIGTERM" >&2; exit 1; }
python3 "$CHECKER" "$REPORT"
python3 - "$REPORT" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["schema_rev"] == 9, report["schema_rev"]
c = report["counters"]
assert c["serve.shed"] > 0, "cost-aware admission never shed: %r" % c
assert c["serve.shed"] + c["serve.accepted"] <= c["serve.requests"], c
print(
    "report ok: %d requests, %d accepted, %d shed, %d expired, "
    "%d cancel(s)"
    % (
        c["serve.requests"],
        c["serve.accepted"],
        c["serve.shed"],
        c["serve.expired"],
        c.get("serve.cancels", 0),
    )
)
PY

# Phase 4: deadline propagation. A single-worker daemon with a
# permanent execute stall keeps the worker pinned while three
# no-deadline blockers serialize behind it, so a 1 ms-deadline request
# is guaranteed to outlive its deadline in the admission queue and be
# swept — DEADLINE_EXCEEDED without ever costing worker time.
echo "== phase 4: unmeetable deadline expires in the queue"
STALL_SOCKET="$WORK/stall.sock"
STALL_REPORT="$WORK/stall-report.json"
"$SERVED" \
    --socket="$STALL_SOCKET" \
    --trace-cache="$CACHE" \
    --threads=1 \
    --faults="seed=4,serve.worker.stall@1" \
    --metrics-out="$STALL_REPORT" \
    &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -S "$STALL_SOCKET" ] && break
    sleep 0.1
done
[ -S "$STALL_SOCKET" ] || { echo "stall daemon never bound" >&2; exit 1; }

# Every execution stalls, and each blocker is its own execution, so
# the three of them keep the lone worker busy while the deadline
# request waits in the queue.
BLOCKER_PIDS=()
for i in 1 2 3; do
    "$CLIENT" --socket="$STALL_SOCKET" --op=simulate \
        --workload=mcf_like --instructions=200000 \
        --first=$((i * 1000)) --count=150000 \
        --predictor=gshare >"$WORK/blocker$i.log" 2>&1 &
    BLOCKER_PIDS+=($!)
done
sleep 0.15
"$CLIENT" --socket="$STALL_SOCKET" --op=simulate --deadline-ms=1 \
    --workload=mcf_like --instructions=200000 \
    --predictor=tage-sc-l-64KB >"$WORK/deadline.log" 2>&1 || true
grep -q "DEADLINE_EXCEEDED" "$WORK/deadline.log" || {
    cat "$WORK/deadline.log" >&2
    echo "1 ms deadline behind a stalled worker did not expire" >&2
    exit 1
}
for p in "${BLOCKER_PIDS[@]}"; do wait "$p" || true; done

kill -TERM "$SERVED_PID"
SERVED_STATUS=0
wait "$SERVED_PID" || SERVED_STATUS=$?
SERVED_PID=""
[ "$SERVED_STATUS" -eq 0 ] || {
    echo "stall daemon exited $SERVED_STATUS after SIGTERM" >&2
    exit 1
}
python3 "$CHECKER" "$STALL_REPORT"
python3 - "$STALL_REPORT" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    c = json.load(f)["counters"]
assert c["serve.expired"] > 0, "no deadline ever expired: %r" % c
print("deadline ok: %d expired in the queue" % c["serve.expired"])
PY

# Phase 5: the same corpus through a 2-worker fleet with router-side
# hedging on. Health must report per-worker queue depth columns, the
# verified load must pass, and the fleet report must satisfy the same
# rev-8 invariants (hedge_wins <= hedges checked by the validator).
echo "== phase 5: fleet mode with router hedging"
FLEET_SOCKET="$WORK/fleet.sock"
FLEET_REPORT="$WORK/fleet-report.json"
"$SERVED" \
    --socket="$FLEET_SOCKET" \
    --trace-cache="$CACHE" \
    --workers=2 \
    --threads=2 \
    --heartbeat-ms=100 \
    --hedge-ms=25 \
    --max-inflight-cost=50 \
    --metrics-out="$FLEET_REPORT" \
    &
FLEET_PID=$!
for _ in $(seq 1 100); do
    [ -S "$FLEET_SOCKET" ] && break
    sleep 0.1
done
[ -S "$FLEET_SOCKET" ] || {
    echo "fleet never bound $FLEET_SOCKET" >&2; exit 1; }

HEALTH_LOG="$WORK/health.log"
"$CLIENT" --socket="$FLEET_SOCKET" --op=health | tee "$HEALTH_LOG"
grep -q "queued_cost_ms=" "$HEALTH_LOG" || {
    echo "health rows carry no queue columns" >&2; exit 1; }

"$CLIENT" --socket="$FLEET_SOCKET" --op=loadgen \
    --clients=8 --requests=16 \
    --workload=mcf_like --instructions=200000 --count=50000 \
    --predictor=gshare --seed=24 \
    --retries=6 --verify --trace-cache="$CACHE" \
    | tee "$WORK/fleet-load.log"
grep -q " 0 mismatch(es)" "$WORK/fleet-load.log" || {
    echo "fleet loadgen returned wrong answers" >&2; exit 1; }

kill -TERM "$FLEET_PID"
FLEET_STATUS=0
wait "$FLEET_PID" || FLEET_STATUS=$?
FLEET_PID=""
[ "$FLEET_STATUS" -eq 0 ] || {
    echo "fleet exited $FLEET_STATUS after SIGTERM" >&2; exit 1; }
python3 "$CHECKER" "$FLEET_REPORT"
python3 - "$FLEET_REPORT" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
c = report["counters"]
assert c["serve.fleet.routed"] > 0, c
assert c["serve.hedge_wins"] <= c["serve.hedges"], c
print(
    "fleet ok: %d routed, %d hedge(s), %d hedge win(s)"
    % (c["serve.fleet.routed"], c["serve.hedges"], c["serve.hedge_wins"])
)
PY

echo "== overload soak passed"
