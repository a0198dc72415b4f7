#!/usr/bin/env bash
# Serving-latency regression guard: run the micro_serve closed loop fresh
# (open-loop phase skipped — this is a p99 guard, not a concurrency test)
# and compare the baseline p99 against the newest committed snapshot in
# BENCH_serve.json taken under the same configuration: equal connections,
# requests, distinct configs and observability mode. No such snapshot is a
# failure, not a fallback — comparing an armed run against a bare one (or
# the reverse) would make the guard meaningless. Fails only when the fresh
# p99 exceeds the snapshot by BOTH >20% and >300 us — the absolute floor
# keeps microsecond jitter on loaded single-core CI machines from tripping
# the relative bound. One retry (best of two): p99 on a shared box has
# heavy right-tail noise.
#
# Usage: check_bench_serve.sh <micro_serve-binary> <committed-json> [workdir]
# Wired into ctest (fast tier, skipped under sanitizers) from
# tools/CMakeLists.txt.
set -euo pipefail

MICRO_SERVE=${1:?usage: check_bench_serve.sh <micro_serve-binary> <committed-json> [workdir]}
SNAPSHOT=${2:?usage: check_bench_serve.sh <micro_serve-binary> <committed-json> [workdir]}
WORK=${3:-$(mktemp -d)}
PYTHON=${PYTHON:-python3}

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

trap 'exit 130' INT
trap 'exit 143' TERM

fail() { echo "FAIL: $*" >&2; exit 1; }

baseline_p99() { # baseline_p99 <fresh-json> [committed-json]
    # With one argument: the fresh run's baseline p99. With two: the
    # baseline p99 of the newest committed snapshot whose configuration
    # matches the fresh run's.
    "$PYTHON" - "$@" <<'EOF'
import json, sys
fresh = json.load(open(sys.argv[1]))
snap = fresh
if len(sys.argv) > 2:
    fields = ("connections", "requests", "distinct", "mode")
    want = {f: fresh.get(f) for f in fields}
    history = json.load(open(sys.argv[2]))["snapshots"]
    matches = [s for s in history if {f: s.get(f) for f in fields} == want]
    if not matches:
        sys.exit("no committed snapshot in %s matches the fresh run's %s; "
                 "append a snapshot taken under that configuration"
                 % (sys.argv[2], want))
    snap = matches[-1]
for phase in snap["phases"]:
    if phase["phase"] == "baseline":
        print(phase["p99_us"])
        sys.exit(0)
sys.exit("no baseline phase in the selected snapshot")
EOF
}

best=""
for attempt in 1 2; do
    echo "== micro_serve run $attempt =="
    "$MICRO_SERVE" --open-connections 0 --json "run_$attempt.json" \
        > "run_$attempt.csv" || fail "micro_serve exited nonzero (run $attempt)"
    fresh=$(baseline_p99 "run_$attempt.json")
    COMMITTED=$(baseline_p99 "run_$attempt.json" "$SNAPSHOT") \
        || fail "no comparable committed snapshot"
    echo "baseline p99: fresh=${fresh}us committed=${COMMITTED}us"
    if [[ -z "$best" ]] || "$PYTHON" -c "import sys; sys.exit(0 if float('$fresh') < float('$best') else 1)"; then
        best=$fresh
    fi
    # Within bounds already? No need for the retry.
    if "$PYTHON" -c "
import sys
fresh, committed = float('$best'), float('$COMMITTED')
sys.exit(0 if fresh <= committed * 1.2 or fresh <= committed + 300.0 else 1)
"; then
        echo "check_bench_serve: OK (p99 ${best}us vs committed ${COMMITTED}us)"
        exit 0
    fi
done

fail "baseline p99 regressed: best-of-2 ${best}us vs committed ${COMMITTED}us (+20% and +300us both exceeded)"
