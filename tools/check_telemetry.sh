#!/usr/bin/env bash
# End-to-end telemetry check: run a miniature simulate + train + predict with
# --telemetry-dir and validate the emitted manifest.json / trace.json against
# the required-key schemas with `picpredict report --check`.
#
# Usage: check_telemetry.sh <picpredict-binary> [workdir]
# Wired into ctest (fast tier) from tools/CMakeLists.txt.
set -euo pipefail

PICPREDICT=${1:?usage: check_telemetry.sh <picpredict-binary> [workdir]}
WORK=${2:-$(mktemp -d)}

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

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

[measure]
enabled = true
min_seconds = 2e-6
max_reps = 4
EOF

echo "== simulate with telemetry =="
"$PICPREDICT" simulate mini.ini --trace mini.trace --timings mini.csv \
    --telemetry-dir tele_sim

for f in tele_sim/manifest.json tele_sim/trace.json; do
    [[ -s "$f" ]] || { echo "FAIL: $f missing or empty" >&2; exit 1; }
done
# finalize() must not leave atomic-write temp files behind.
leftover=$(find tele_sim -name '*.tmp*' | wc -l)
[[ "$leftover" -eq 0 ]] || { echo "FAIL: temp files left in tele_sim" >&2; exit 1; }

echo "== report --check (simulate) =="
"$PICPREDICT" report tele_sim --check

grep -q '"schema": "picpredict.telemetry.manifest/v1"' tele_sim/manifest.json \
    || { echo "FAIL: manifest schema tag missing" >&2; exit 1; }
grep -q '"command": "simulate"' tele_sim/manifest.json \
    || { echo "FAIL: manifest command != simulate" >&2; exit 1; }
grep -q 'traceEvents' tele_sim/trace.json \
    || { echo "FAIL: trace.json has no traceEvents" >&2; exit 1; }
grep -q 'picsim.interpolate' tele_sim/trace.json \
    || { echo "FAIL: no picsim.interpolate spans in trace.json" >&2; exit 1; }

echo "== train + predict with telemetry =="
"$PICPREDICT" train mini.csv --out mini.models --method linear
"$PICPREDICT" predict mini.trace --models mini.models --ranks 4,8 \
    --nelx 8 --nely 8 --nelz 16 --telemetry-dir tele_pred

echo "== report --check (predict) =="
"$PICPREDICT" report tele_pred --check
grep -q '"command": "predict"' tele_pred/manifest.json \
    || { echo "FAIL: manifest command != predict" >&2; exit 1; }
# The manifest records the pipeline's workers (hardware concurrency), and a
# pooled run publishes its pool's stats.
threads=$(sed -n 's/^  "threads": \([0-9]*\),$/\1/p' tele_pred/manifest.json)
[[ "$threads" == "$(getconf _NPROCESSORS_ONLN)" ]] \
    || { echo "FAIL: predict manifest threads '$threads'" >&2; exit 1; }
if [[ "$threads" -gt 1 ]]; then
    grep -q "\"threadpool.workers\": $threads\$" tele_pred/manifest.json \
        || { echo "FAIL: predict published no threadpool.workers" >&2; exit 1; }
    grep -q '"threadpool.tasks": [1-9]' tele_pred/manifest.json \
        || { echo "FAIL: predict's pool ran no task" >&2; exit 1; }
elif grep -q '"threadpool\.' tele_pred/manifest.json; then
    echo "FAIL: one-worker predict published pool stats" >&2; exit 1
fi
# Every pipeline layer, in BENCHMARK.json's per_layer names, as spans and
# as manifest phases.
for name in trace.read mesh.partition mapping.map workload.account \
        workload.ghost model.eval des.run; do
    grep -q "\"name\":\"$name\"" tele_pred/trace.json \
        || { echo "FAIL: no $name spans in trace.json" >&2; exit 1; }
    grep -q "\"name\": \"$name\"" tele_pred/manifest.json \
        || { echo "FAIL: no $name phase in manifest.json" >&2; exit 1; }
done

echo "check_telemetry: OK"
