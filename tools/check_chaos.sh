#!/usr/bin/env bash
# Chaos harness for the prediction daemon: drive failpoint storms through
# the /v1/failpoints admin endpoint and assert the robustness contract of
# PR 7 end to end —
#
#   * with nothing armed, /metricsz shows zero degraded / quarantine /
#     spill-failure events and no 5xx responses in the RED histograms
#     (the deadline storm's 504 is the positive control for that sum);
#   * a disk-full spill storm (errno(28) at cache.spill) is invisible to
#     clients: every response stays 200 and no torn spill file appears;
#   * slow per-response writes (delay at http.write) never wedge workers;
#   * a slow-loris peer occupies its connection slot only until the request
#     timeout, the shed 503 carries Retry-After, `picpredict query` exits 3
#     when the retry budget dies on 503s and 0 once the slot frees;
#   * an expired X-Picp-Deadline-Ms budget is a 504 with stage telemetry;
#   * a trace.read error storm over concurrent cold generations fails only
#     the generations it hits: every other config answers 200, /healthz
#     stays 200, and the failed configs answer 200 once disarmed;
#   * a crash injected mid-spill (atomicfile.commit=crash) leaves only an
#     uncommitted temp file, which the restarted daemon quarantines — and
#     the recomputed response replays byte-identical to the pre-crash one.
#
# Usage: check_chaos.sh <picpredict-binary> [workdir]
# Wired into ctest (fast tier) from tools/CMakeLists.txt and run as the
# chaos smoke inside tools/check_sanitize.sh.
set -euo pipefail

PICPREDICT=${1:?usage: check_chaos.sh <picpredict-binary> [workdir]}
WORK=${2:-$(mktemp -d)}
PYTHON=${PYTHON:-python3}

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

SERVE_PID=""
cleanup() {
    # Kill the daemon we know about AND every background job this shell
    # still owns — an early `set -e` exit between fork and PID capture must
    # not leave an orphaned daemon running.
    [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null || true
    local job_pids
    job_pids=$(jobs -p)
    [[ -n "$job_pids" ]] && kill -9 $job_pids 2>/dev/null || true
    return 0
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

fail() { echo "FAIL: $*" >&2; exit 1; }

# Metric lookup from a /metricsz JSON body (last line of query output).
# Searches counters first, then gauges; absent metrics read as 0.
metric() { # metric <file> <name>
    "$PYTHON" - "$1" "$2" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read().splitlines()[-1])
m = doc.get("metrics", doc)
name = sys.argv[2]
value = m.get("counters", {}).get(name, m.get("gauges", {}).get(name, 0))
print(int(value))
EOF
}

# 5xx responses the daemon sent, from the RED histograms: the sum of every
# serve.red.total_us.<route>.5xx count. Each finished request lands in
# exactly one of them, so a 5xx cannot hide in a route this script does
# not name.
red_5xx() { # red_5xx <file>
    "$PYTHON" - "$1" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read().splitlines()[-1])
histograms = doc.get("metrics", doc).get("histograms", {})
print(sum(int(h["count"]) for name, h in histograms.items()
          if name.startswith("serve.red.total_us.") and name.endswith(".5xx")))
EOF
}

boot() { # boot <config> <ready-file> <log> -> sets SERVE_PID and PORT
    "$PICPREDICT" serve --config "$1" --ready-file "$2" \
        --enable-failpoints > "$3" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 1 150); do
        [[ -s "$2" ]] && break
        kill -0 "$SERVE_PID" 2>/dev/null \
            || { cat "$3" >&2; fail "daemon died during startup"; }
        sleep 0.1
    done
    [[ -s "$2" ]] || fail "daemon never wrote the ready file $2"
    PORT=$(cat "$2")
}

arm() { # arm <port> <spec...>
    "$PICPREDICT" query /v1/failpoints --port "$1" \
        --body "{\"seed\": 42, \"arm\": \"$2\"}" --quiet \
        || fail "arming '$2' failed"
}

disarm_all() { # disarm_all <port>
    "$PICPREDICT" query /v1/failpoints --port "$1" \
        --body '{"disarm_all": true}' --quiet || fail "disarm_all failed"
}

# --- fixture: miniature trace (workload-only daemon, no models needed) ------
cat > mini.ini <<'EOF'
[mesh]
nelx = 8
nely = 8
nelz = 16

[bed]
num_particles = 2000

[run]
num_iterations = 200
sample_every = 50
threads = 2

[mapping]
num_ranks = 8
EOF

echo "== build fixture trace =="
"$PICPREDICT" simulate mini.ini --trace mini.trace

cat > serve.ini <<'EOF'
[serve]
trace = mini.trace
threads = 4
max_connections = 32
request_timeout_ms = 30000
workload_cache = 2
response_cache = 2
cache_dir = spill
allow_stale = true

[mesh]
nelx = 8
nely = 8
nelz = 16
EOF

echo "== boot chaos daemon =="
boot serve.ini ready.port serve.log

echo "== disarmed baseline: healthy, zero robustness events =="
"$PICPREDICT" query /healthz --port "$PORT" > healthz.txt
grep -q '^200 OK' healthz.txt || fail "/healthz not 200"
"$PICPREDICT" query /v1/workload --port "$PORT" \
    --body '{"ranks": [4]}' > r4_pre.txt
grep -q '^200 OK cache=miss' r4_pre.txt || fail "first ranks=4 not a miss"
"$PICPREDICT" query /v1/workload --port "$PORT" \
    --body '{"ranks": [4]}' > r4_hit.txt
grep -q '^200 OK cache=hit' r4_hit.txt || fail "ranks=4 replay not a hit"
tail -n +2 r4_pre.txt > body_r4.json
tail -n +2 r4_hit.txt > body_r4_hit.json
cmp body_r4.json body_r4_hit.json || fail "cached replay not byte-identical"

"$PICPREDICT" query /metricsz --port "$PORT" > metrics_base.txt
for m in serve.deadline_exceeded \
         serve.cache.response.quarantined serve.cache.response.stale_served \
         serve.cache.response.spill_failures failpoint.armed; do
    v=$(metric metrics_base.txt "$m")
    [[ "$v" -eq 0 ]] || fail "disarmed daemon reports $m=$v (want 0)"
done
v=$(red_5xx metrics_base.txt)
[[ "$v" -eq 0 ]] || fail "disarmed daemon sent $v 5xx response(s) (want 0)"

echo "== storm 1: disk-full spills are invisible to clients =="
arm "$PORT" "cache.spill=errno(28):1in2"
# Distinct rank counts churn both capacity-2 tiers: every new key evicts,
# every eviction tries to spill, roughly half the spills hit ENOSPC.
for r in 2 3 5 6 7 9 10 12; do
    "$PICPREDICT" query /v1/workload --port "$PORT" \
        --body "{\"ranks\": [$r]}" --quiet \
        || fail "client saw a failure during the spill storm (ranks=$r)"
done
disarm_all "$PORT"
"$PICPREDICT" query /metricsz --port "$PORT" > metrics_spill.txt
SPILL_FAILURES=$(metric metrics_spill.txt "serve.cache.response.spill_failures")
[[ "$SPILL_FAILURES" -ge 1 ]] \
    || fail "spill storm never tripped serve.cache.response.spill_failures"
[[ $(red_5xx metrics_spill.txt) -eq 0 ]] \
    || fail "spill storm leaked a 5xx to a client"
leftover=$(find spill -name '*.tmp*' | wc -l)
[[ "$leftover" -eq 0 ]] || fail "spill storm left temp files in the spill dir"

echo "== storm 2: slow response writes never wedge workers =="
arm "$PORT" "http.write=delay(2):1in3"
"$PICPREDICT" query /v1/workload --port "$PORT" \
    --body '{"ranks": [4]}' --repeat 32 --parallel 8 --quiet \
    || fail "slow-write storm produced client-visible failures"
disarm_all "$PORT"

echo "== deadline: exhausted budget is a 504 with stage telemetry =="
arm "$PORT" "serve.generate=delay(80)"
set +e
"$PICPREDICT" query /v1/workload --port "$PORT" \
    --body '{"ranks": [14]}' --deadline-ms 20 --retries 0 > deadline.txt
DEADLINE_EXIT=$?
set -e
[[ $DEADLINE_EXIT -eq 1 ]] || fail "504 response should exit 1, got $DEADLINE_EXIT"
grep -q '^504 Gateway Timeout' deadline.txt \
    || fail "expired deadline was not a 504: $(head -1 deadline.txt)"
disarm_all "$PORT"
"$PICPREDICT" query /metricsz --port "$PORT" > metrics_deadline.txt
[[ $(metric metrics_deadline.txt "serve.deadline_exceeded") -ge 1 ]] \
    || fail "serve.deadline_exceeded counter never moved"
[[ $(metric metrics_deadline.txt "serve.deadline.stage.generate.partition") -ge 1 ]] \
    || fail "no per-stage deadline counter for generate.partition"
# Positive control for the zero-5xx checks above: the 504 must show up in
# the same sum they read, or they could pass on a renamed metric.
[[ $(red_5xx metrics_deadline.txt) -ge 1 ]] \
    || fail "the deadline storm's 504 is missing from the RED 5xx counts"

echo "== storm: trace.read errors fail only their own cold generations =="
"$PICPREDICT" query /metricsz --port "$PORT" > metrics_pre_read.txt
RED_5XX_BEFORE=$(red_5xx metrics_pre_read.txt)
arm "$PORT" "trace.read=error:after3:times2"
# Eight configs no earlier step asked for: eight cold generations, each
# streaming the trace through its own cursor. The two injected errors land
# in two different generations, because a failed generation reads no more.
READ_RANKS="16 17 18 19 20 21 22 23"
READ_PIDS=()
for r in $READ_RANKS; do
    "$PICPREDICT" query /v1/workload --port "$PORT" \
        --body "{\"ranks\": [$r]}" --retries 0 > "read_$r.txt" 2>&1 &
    READ_PIDS+=($!)
done
for pid in "${READ_PIDS[@]}"; do wait "$pid" || true; done
READ_OK=0
READ_5XX=0
for r in $READ_RANKS; do
    case "$(head -1 "read_$r.txt" | cut -d' ' -f1)" in
        200) READ_OK=$((READ_OK + 1)) ;;
        500) READ_5XX=$((READ_5XX + 1)) ;;
        *) fail "trace.read storm: ranks=$r answered: $(head -1 "read_$r.txt")" ;;
    esac
done
[[ $READ_OK -eq 6 && $READ_5XX -eq 2 ]] \
    || fail "trace.read storm: want 6x200 + 2x500, got ${READ_OK}x200 + ${READ_5XX}x500"
"$PICPREDICT" query /metricsz --port "$PORT" > metrics_read.txt
[[ $(red_5xx metrics_read.txt) -eq $((RED_5XX_BEFORE + 2)) ]] \
    || fail "trace.read storm: RED 5xx sum $(red_5xx metrics_read.txt), want $((RED_5XX_BEFORE + 2))"
"$PICPREDICT" query /healthz --port "$PORT" > healthz_read.txt
grep -q '^200 OK' healthz_read.txt || fail "/healthz not 200 after the trace.read storm"
disarm_all "$PORT"
for r in $READ_RANKS; do
    "$PICPREDICT" query /v1/workload --port "$PORT" \
        --body "{\"ranks\": [$r]}" --retries 0 --quiet \
        || fail "ranks=$r still failing after the trace.read storm"
done

echo "== recovery: storms over, service replays byte-identically =="
"$PICPREDICT" query /metricsz --port "$PORT" > metrics_armedcheck.txt
[[ $(metric metrics_armedcheck.txt "failpoint.armed") -eq 0 ]] \
    || fail "failpoints still armed after disarm_all"
"$PICPREDICT" query /v1/workload --port "$PORT" \
    --body '{"ranks": [4]}' > r4_post.txt
grep -q '^200 OK' r4_post.txt || fail "ranks=4 unhealthy after the storms"
tail -n +2 r4_post.txt > body_r4_post.json
cmp body_r4.json body_r4_post.json \
    || fail "post-storm ranks=4 body differs from the pre-storm body"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || fail "chaos daemon did not exit 0 on SIGTERM"
SERVE_PID=""

echo "== storm 3: slow-loris peer + 503 retry contract (1-slot daemon) =="
cat > busy.ini <<'EOF'
[serve]
trace = mini.trace
threads = 1
max_connections = 1
request_timeout_ms = 1500
workload_cache = 2
response_cache = 2

[mesh]
nelx = 8
nely = 8
nelz = 16
EOF
boot busy.ini busy.port busy.log
"$PICPREDICT" query /v1/workload --port "$PORT" \
    --body '{"ranks": [4]}' --quiet || fail "busy daemon warmup failed"
# Hold the single connection slot with half a request and never finish it.
exec 3<>"/dev/tcp/127.0.0.1/$PORT" \
    || fail "could not open the slow-loris connection"
printf 'POST /v1/workload HTTP/1.1\r\nHost: loris\r\n' >&3
sleep 0.2
# Retry budget exhausted on 503s -> the documented exit 3, not a generic 1.
# --retries 0 keeps this deterministic: the single attempt lands while the
# loris provably still owns the slot.
set +e
"$PICPREDICT" query /healthz --port "$PORT" \
    --retries 0 > shed.txt 2>&1
SHED_EXIT=$?
set -e
[[ $SHED_EXIT -eq 3 ]] \
    || fail "expected exit 3 when every failure is a 503, got $SHED_EXIT"
grep -q '^503 Service Unavailable' shed.txt || fail "shed reply was not a 503"
# The loris must not outlive request_timeout_ms: with retries and backoff
# past the timeout, the very same query eventually lands — no stuck worker.
"$PICPREDICT" query /healthz --port "$PORT" \
    --retries 4 --max-backoff-ms 1000 --quiet \
    || fail "worker still wedged after the loris timeout — stuck worker"
exec 3>&- 3<&- || true
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || fail "busy daemon did not exit 0 on SIGTERM"
SERVE_PID=""

echo "== storm 4: crash mid-spill, quarantine on reboot, identical replay =="
cat > crash.ini <<'EOF'
[serve]
trace = mini.trace
threads = 2
workload_cache = 2
response_cache = 2
cache_dir = crash_spill

[mesh]
nelx = 8
nely = 8
nelz = 16
EOF
boot crash.ini crash.port crash.log
"$PICPREDICT" query /v1/workload --port "$PORT" \
    --body '{"ranks": [4]}' > crash_r4.txt
grep -q '^200 OK' crash_r4.txt || fail "crash-daemon warmup failed"
tail -n +2 crash_r4.txt > body_crash_r4.json
"$PICPREDICT" query /v1/workload --port "$PORT" \
    --body '{"ranks": [6]}' --quiet || fail "crash-daemon warmup (2) failed"
# The next distinct key evicts ranks=4, whose spill commit crashes the
# process — after the temp file was written but before the rename.
arm "$PORT" "atomicfile.commit=crash"
set +e
"$PICPREDICT" query /v1/workload --port "$PORT" \
    --body '{"ranks": [9]}' --retries 0 --quiet > crash_trigger.txt 2>&1
wait "$SERVE_PID" 2>/dev/null
CRASH_STATUS=$?
set -e
SERVE_PID=""
[[ $CRASH_STATUS -eq 134 ]] \
    || fail "crash failpoint should kill the daemon with exit 134, got $CRASH_STATUS"
[[ $(find crash_spill -name '*.tmp*' | wc -l) -eq 1 ]] \
    || fail "crash mid-commit should leave exactly one temp file"
[[ $(find crash_spill -maxdepth 1 -name '*.art' | wc -l) -eq 0 ]] \
    || fail "nothing should have been committed before the crash"

boot crash.ini crash2.port crash2.log
"$PICPREDICT" query /metricsz --port "$PORT" > metrics_reboot.txt
[[ $(metric metrics_reboot.txt "serve.cache.response.quarantined") -eq 1 ]] \
    || fail "reboot scan did not quarantine the orphaned temp file"
[[ $(find crash_spill/quarantine -type f | wc -l) -eq 1 ]] \
    || fail "quarantine dir should hold the orphan (moved, not deleted)"
"$PICPREDICT" query /v1/workload --port "$PORT" \
    --body '{"ranks": [4]}' > reborn_r4.txt
grep -q '^200 OK' reborn_r4.txt || fail "post-crash ranks=4 failed"
tail -n +2 reborn_r4.txt > body_reborn_r4.json
cmp body_crash_r4.json body_reborn_r4.json \
    || fail "post-crash replay is not byte-identical to the pre-crash body"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || fail "reborn daemon did not exit 0 on SIGTERM"
SERVE_PID=""

echo "check_chaos: OK"
