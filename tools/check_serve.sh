#!/usr/bin/env bash
# End-to-end smoke test of the prediction daemon: boot `picpredict serve`
# on an ephemeral port, then drive the whole serving contract through the
# `picpredict query` client — health, prediction, byte-identical cache
# replay, one generation for 100 concurrent identical queries (the
# reactor coalesces in-flight twins; later ones hit the response cache),
# malformed-input 400s, method routing, backpressure shedding, per-layer
# stage splits in the access log and the sampled trace, and the SIGTERM
# drain (exit 0 + a valid telemetry manifest whose counts include the
# requests after the last scrape).
#
# Usage: check_serve.sh <picpredict-binary> [workdir]
# Wired into ctest (fast tier) from tools/CMakeLists.txt.
set -euo pipefail

PICPREDICT=${1:?usage: check_serve.sh <picpredict-binary> [workdir]}
WORK=${2:-$(mktemp -d)}
PYTHON=${PYTHON:-python3}

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

SERVE_PID=""
BUSY_PID=""
cleanup() {
    # Kill the daemons we know about AND every background job this shell
    # still owns — an early `set -e` exit between fork and PID capture must
    # not leave an orphaned daemon holding the workdir.
    [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null || true
    [[ -n "$BUSY_PID" ]] && kill -9 "$BUSY_PID" 2>/dev/null || true
    local job_pids
    job_pids=$(jobs -p)
    [[ -n "$job_pids" ]] && kill -9 $job_pids 2>/dev/null || true
    return 0
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

fail() { echo "FAIL: $*" >&2; exit 1; }

# Counter lookup from a /metricsz JSON body (last line of query output).
metric() { # metric <file> <counter-name>
    "$PYTHON" - "$1" "$2" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read().splitlines()[-1])
counters = doc.get("metrics", doc).get("counters", {})
print(int(counters.get(sys.argv[2], 0)))
EOF
}

# --- fixture: miniature trace + models --------------------------------------
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

echo "== build fixture (simulate + train) =="
"$PICPREDICT" simulate mini.ini --trace mini.trace --timings mini.csv
"$PICPREDICT" train mini.csv --out mini.models --method linear

echo "== CLI determinism: two predict runs agree on every modeled column =="
# Column 4 is wall-clock workload-generation seconds — the only
# non-deterministic field on the line; everything modeled must replay
# bit-identically (same contract the daemon's cache depends on).
"$PICPREDICT" predict mini.trace --models mini.models --ranks 4,8 \
    --nelx 8 --nely 8 --nelz 16 | awk '{print $1, $2, $3, $5}' > predict_a.txt
"$PICPREDICT" predict mini.trace --models mini.models --ranks 4,8 \
    --nelx 8 --nely 8 --nelz 16 | awk '{print $1, $2, $3, $5}' > predict_b.txt
diff predict_a.txt predict_b.txt || fail "CLI predict runs diverged"

# --- boot the daemon ---------------------------------------------------------
# Observability is fully armed: every request is span-sampled and access
# logged, so the drain-time manifest/trace checks below also prove the
# instrumented hot path survives a whole smoke run.
cat > serve.ini <<'EOF'
[serve]
trace = mini.trace
models = mini.models
threads = 4
max_connections = 32
request_timeout_ms = 30000
drain_timeout_ms = 10000
trace_sample_n = 1
access_log = access.ndjson

[mesh]
nelx = 8
nely = 8
nelz = 16
EOF

echo "== boot daemon on an ephemeral port =="
"$PICPREDICT" serve --config serve.ini --ready-file ready.port \
    --telemetry-dir tele_serve > serve.log 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
    [[ -s ready.port ]] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat serve.log >&2; fail "daemon died during startup"; }
    sleep 0.1
done
[[ -s ready.port ]] || fail "daemon never wrote the ready file"
PORT=$(cat ready.port)

echo "== health + models =="
"$PICPREDICT" query /healthz --port "$PORT" > healthz.txt
grep -q '^200 OK' healthz.txt || fail "/healthz not 200: $(cat healthz.txt)"
grep -q '"status"' healthz.txt || fail "/healthz body has no status field"
"$PICPREDICT" query /v1/models --port "$PORT" > models.txt
grep -q '^200 OK' models.txt || fail "/v1/models not 200"

echo "== predict: miss, then byte-identical cached replay =="
"$PICPREDICT" query /v1/predict --port "$PORT" \
    --body '{"ranks": [8], "mapper": "bin"}' > predict_miss.txt
grep -q '^200 OK cache=miss' predict_miss.txt \
    || fail "first predict was not a cache miss: $(head -1 predict_miss.txt)"
"$PICPREDICT" query /v1/predict --port "$PORT" \
    --body '{"ranks": [8], "mapper": "bin"}' > predict_hit.txt
grep -q '^200 OK cache=hit' predict_hit.txt \
    || fail "second identical predict was not a cache hit"
tail -n +2 predict_miss.txt > body_miss.json
tail -n +2 predict_hit.txt > body_hit.json
cmp body_miss.json body_hit.json \
    || fail "cached replay is not byte-identical to the original response"

echo "== workload endpoint shares the artifact cache =="
"$PICPREDICT" query /v1/workload --port "$PORT" \
    --body '{"ranks": [8]}' > workload.txt
grep -q '^200 OK' workload.txt || fail "/v1/workload not 200"

echo "== coalescing: 100 concurrent identical queries, 1 generation =="
"$PICPREDICT" query /metricsz --port "$PORT" > metrics_before.txt
GEN_BEFORE=$(metric metrics_before.txt "serve.workload.generations")
# ranks=20 has never been requested: every one of the 100 concurrent
# queries below needs the same brand-new workload artifact.
"$PICPREDICT" query /v1/predict --port "$PORT" \
    --body '{"ranks": [20]}' --repeat 100 --parallel 16 --quiet \
    || fail "concurrent identical queries failed"
"$PICPREDICT" query /metricsz --port "$PORT" > metrics_after.txt
GEN_AFTER=$(metric metrics_after.txt "serve.workload.generations")
HITS=$(metric metrics_after.txt "serve.cache.response.hits")
BATCHED=$(metric metrics_after.txt "serve.batch.members")
[[ $((GEN_AFTER - GEN_BEFORE)) -eq 1 ]] \
    || fail "expected exactly 1 workload generation for 100 concurrent identical queries, got $((GEN_AFTER - GEN_BEFORE))"
# Every query but the first leader must be served without recomputing:
# either a response-cache hit or a coalesced batch member (a request that
# joins an equivalent in-flight execution never reaches the cache
# counters).
[[ $((HITS + BATCHED)) -ge 99 ]] \
    || fail "expected >= 99 deduplicated responses (cache hits + batch members) after the concurrent burst, got hits=$HITS batched=$BATCHED"

echo "== observability: trace ids on every response =="
"$PYTHON" - "$PORT" <<'EOF'
import socket, sys
port = int(sys.argv[1])

def exchange(request_bytes):
    s = socket.create_connection(("127.0.0.1", port), timeout=10)
    s.sendall(request_bytes.encode())
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
    s.close()
    head = data.split(b"\r\n\r\n", 1)[0].decode()
    lines = head.split("\r\n")
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return lines[0], headers

# Generated id on a plain request.
status, headers = exchange(
    "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
assert "200" in status, status
assert headers.get("x-picp-trace-id", "").startswith("p-"), \
    "no generated trace id: %r" % headers.get("x-picp-trace-id")

# A well-formed inbound id comes back verbatim.
status, headers = exchange(
    "GET /healthz HTTP/1.1\r\nHost: x\r\n"
    "X-Picp-Trace-Id: smoke-test-42\r\nConnection: close\r\n\r\n")
assert headers.get("x-picp-trace-id") == "smoke-test-42", headers

# Even a 404 is traceable.
status, headers = exchange(
    "GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
assert "404" in status, status
assert "x-picp-trace-id" in headers, headers
print("trace ids OK")
EOF

echo "== observability: readiness probe on a healthy daemon =="
"$PICPREDICT" query '/healthz?ready=1' --port "$PORT" > ready_ok.txt
grep -q '^200 OK' ready_ok.txt \
    || fail "/healthz?ready=1 not 200 on a healthy daemon: $(head -1 ready_ok.txt)"

echo "== observability: prometheus exposition passes the format checker =="
"$PICPREDICT" query '/metricsz?format=prometheus' --port "$PORT" > prom_a.txt
grep -q '^200 OK' prom_a.txt || fail "prometheus scrape not 200"
tail -n +2 prom_a.txt > prom_a.prom
# Traffic between the two scrapes: counters must move monotonically.
"$PICPREDICT" query /v1/predict --port "$PORT" \
    --body '{"ranks": [8], "mapper": "bin"}' --quiet \
    || fail "inter-scrape traffic failed"
"$PICPREDICT" query '/metricsz?format=prometheus' --port "$PORT" > prom_b.txt
tail -n +2 prom_b.txt > prom_b.prom
"$PYTHON" - prom_a.prom prom_b.prom <<'EOF'
import sys

def parse(path):
    helps, types, series, samples = set(), {}, set(), {}
    for raw in open(path):
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("# HELP "):
            family = line.split()[2]
            assert family not in helps, "duplicate HELP for " + family
            helps.add(family)
            continue
        if line.startswith("# TYPE "):
            family = line.split()[2]
            assert family not in types, "duplicate TYPE for " + family
            types[family] = line.split()[3]
            continue
        assert not line.startswith("#"), "unknown comment: " + line
        name_and_labels, _, value = line.rpartition(" ")
        assert name_and_labels not in series, "duplicate series: " + line
        series.add(name_and_labels)
        samples[name_and_labels] = float(value)
        family = name_and_labels.split("{")[0]
        for suffix in ("_bucket", "_sum", "_count"):
            if family.endswith(suffix) and family[: -len(suffix)] in types:
                family = family[: -len(suffix)]
                break
        assert family in helps, "sample without HELP: " + line
        assert family in types, "sample without TYPE: " + line
        assert family.startswith("picp_"), "unprefixed family: " + line
    # Histogram integrity: buckets cumulative, +Inf equals _count.
    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = [(k, v) for k, v in samples.items()
                   if k.startswith(family + "_bucket{")]
        assert buckets, "histogram %s has no buckets" % family
        values = [v for _, v in sorted(
            buckets, key=lambda kv: float("inf")
            if "+Inf" in kv[0] else float(kv[0].split('"')[1]))]
        assert values == sorted(values), "non-cumulative buckets: " + family
        inf = [v for k, v in buckets if "+Inf" in k]
        assert len(inf) == 1, family + " needs exactly one +Inf bucket"
        assert inf[0] == samples[family + "_count"], \
            family + " +Inf bucket != _count"
    return types, samples

types_a, samples_a = parse(sys.argv[1])
types_b, samples_b = parse(sys.argv[2])
moved = 0
for name, value in samples_a.items():
    kind = types_a.get(name.split("{")[0])
    if kind == "counter" and name in samples_b:
        assert samples_b[name] >= value, "counter went backward: " + name
        moved += samples_b[name] > value
assert moved > 0, "no counter moved across two scrapes with traffic between"
print("prometheus format OK (%d series, %d counters moved)"
      % (len(samples_b), moved))
EOF

echo "== observability: NDJSON access log =="
[[ -s access.ndjson ]] || fail "access log missing or empty"
"$PYTHON" - access.ndjson <<'EOF'
import json, sys
required = {"ts", "trace_id", "peer", "method", "path", "status",
            "batch_role", "batch_size", "cache", "deadline_stage",
            "batch_wait_us", "queue_us", "handler_us", "total_us", "stages"}
count = 0
roles = set()
for line in open(sys.argv[1]):
    doc = json.loads(line)
    missing = required - set(doc)
    assert not missing, "access log line missing %s: %s" % (missing, line)
    assert doc["trace_id"], "empty trace id: " + line
    roles.add(doc["batch_role"])
    count += 1
assert count > 0, "no access log lines"
assert roles <= {"solo", "leader", "member", "none"}, roles
# A cold miss splits its seconds across the pipeline's layers.
layers = {"trace.read", "mesh.partition", "mapping.map", "workload.account",
          "workload.ghost", "model.eval", "des.run"}
misses = [doc for doc in map(json.loads, open(sys.argv[1]))
          if doc["cache"] == "miss"]
assert misses, "no access log line with cache: miss"
assert any(layers <= set(doc["stages"]) for doc in misses), \
    "no cache-miss line carries all seven layer stages: %r" % misses[0]
print("access log OK (%d lines, roles %s)" % (count, sorted(roles)))
EOF

echo "== observability: picpredict top renders live stats =="
"$PICPREDICT" top --port "$PORT" --iterations 2 --interval-ms 100 > top.txt
grep -q 'p99_us' top.txt || fail "top header missing: $(cat top.txt)"
# 1 banner + 1 header + 2 data rows.
[[ $(wc -l < top.txt) -eq 4 ]] \
    || fail "top --iterations 2 produced $(wc -l < top.txt) lines, wanted 4"
"$PYTHON" - top.txt <<'EOF'
import math, sys
rows = [line.split() for line in open(sys.argv[1]).read().splitlines()[2:]]
rps = [float(row[0]) for row in rows]
requests = [int(row[-1]) for row in rows]
for value in rps:
    assert math.isfinite(value) and value >= 0, "top printed rps %r" % value
assert requests[0] > 0, "top read no requests from the RED histograms"
assert requests[1] >= requests[0], "top's requests went down: %r" % requests
print("top OK (rps %s, requests %s)" % (rps, requests))
EOF

echo "== malformed and misrouted requests get structured errors =="
set +e
"$PICPREDICT" query /v1/predict --port "$PORT" --body '{"ranks": ' > bad_json.txt
BAD_JSON_EXIT=$?
"$PICPREDICT" query /v1/predict --port "$PORT" --body '{"ranks": [0]}' > bad_ranks.txt
BAD_RANKS_EXIT=$?
"$PICPREDICT" query /v1/predict --port "$PORT" > wrong_method.txt
WRONG_METHOD_EXIT=$?
"$PICPREDICT" query /v1/nonexistent --port "$PORT" > not_found.txt
NOT_FOUND_EXIT=$?
set -e
[[ $BAD_JSON_EXIT -ne 0 ]] || fail "query exited 0 on a 400 response"
grep -q '^400 Bad Request' bad_json.txt || fail "truncated JSON was not a 400"
grep -q '"error"' bad_json.txt || fail "400 body is not a structured error"
grep -q '^400 Bad Request' bad_ranks.txt || fail "ranks=0 was not a 400"
[[ $BAD_RANKS_EXIT -ne 0 ]] || fail "query exited 0 on invalid ranks"
grep -q '^405 Method Not Allowed' wrong_method.txt \
    || fail "GET /v1/predict was not a 405"
[[ $WRONG_METHOD_EXIT -ne 0 ]] || fail "query exited 0 on a 405"
grep -q '^404 Not Found' not_found.txt || fail "unknown endpoint was not a 404"
[[ $NOT_FOUND_EXIT -ne 0 ]] || fail "query exited 0 on a 404"

echo "== backpressure: a 1-connection daemon sheds concurrent clients =="
cat > busy.ini <<'EOF'
[serve]
trace = mini.trace
models = mini.models
threads = 1
max_connections = 1
trace_sample_n = 1

[mesh]
nelx = 8
nely = 8
nelz = 16
EOF
"$PICPREDICT" serve --config busy.ini --ready-file busy.port > busy.log 2>&1 &
BUSY_PID=$!
for _ in $(seq 1 100); do
    [[ -s busy.port ]] && break
    sleep 0.1
done
[[ -s busy.port ]] || fail "busy daemon never wrote the ready file"
BUSY_PORT=$(cat busy.port)
# Without --telemetry-dir a sampled span has nowhere to go: say so at boot.
grep -q 'serve.trace_sample_n is set but no --telemetry-dir' busy.log \
    || fail "no boot warning for trace_sample_n without --telemetry-dir"
# Warm the cache so rejected connections are the only failure mode.
"$PICPREDICT" query /v1/predict --port "$BUSY_PORT" \
    --body '{"ranks": [8]}' --quiet || fail "busy daemon warmup failed"
# --retries 0: this assertion is about the *server* shedding load, so the
# client's 503 retry loop (which would eventually squeeze everything
# through one connection) must stay out of the way.
set +e
"$PICPREDICT" query /v1/predict --port "$BUSY_PORT" \
    --body '{"ranks": [8]}' --repeat 64 --parallel 8 --retries 0 \
    --quiet > shed.txt 2>&1
SHED_EXIT=$?
set -e
[[ $SHED_EXIT -ne 0 ]] \
    || fail "8 persistent connections against max_connections=1 all succeeded"
"$PICPREDICT" query /metricsz --port "$BUSY_PORT" > busy_metrics.txt
REJECTED=$(metric busy_metrics.txt "serve.rejected_busy")
[[ "$REJECTED" -ge 1 ]] || fail "rejected_busy counter never moved"
kill -TERM "$BUSY_PID"
wait "$BUSY_PID" || fail "busy daemon did not exit 0 on SIGTERM"
BUSY_PID=""

echo "== drain manifest: a request after the last scrape still counts =="
"$PICPREDICT" query /metricsz --port "$PORT" > metrics_last.txt
"$PICPREDICT" query /v1/predict --port "$PORT" \
    --body '{"ranks": [12]}' > predict_last.txt
grep -q '^200 OK cache=miss' predict_last.txt \
    || fail "post-scrape predict was not a cache miss: $(head -1 predict_last.txt)"

echo "== drain shutdown: SIGTERM -> exit 0 + valid telemetry manifest =="
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || fail "daemon did not exit 0 on SIGTERM"
SERVE_PID=""
grep -q 'drained after' serve.log || fail "no drain summary in serve.log"
for f in tele_serve/manifest.json tele_serve/trace.json; do
    [[ -s "$f" ]] || fail "$f missing or empty after drain"
done
leftover=$(find tele_serve -name '*.tmp*' | wc -l)
[[ "$leftover" -eq 0 ]] || fail "atomic-write temp files left in tele_serve"
"$PICPREDICT" report tele_serve --check
grep -q '"command": "serve"' tele_serve/manifest.json \
    || fail "manifest command != serve"
if grep -q 'no --telemetry-dir' serve.log; then
    fail "a daemon with --telemetry-dir warned that it has none"
fi
# Counts live in the registry the manifest is built from, not in copies a
# scrape refreshes: the predict sent after the last scrape is in it.
"$PYTHON" - metrics_last.txt tele_serve/manifest.json <<'EOF'
import json, sys
scraped = json.loads(open(sys.argv[1]).read().splitlines()[-1])["metrics"]
drained = json.load(open(sys.argv[2]))["metrics"]
for kind, name in (("counters", "serve.cache.response.misses"),
                   ("gauges", "serve.cache.response.resident")):
    before = scraped[kind].get(name, 0)
    after = drained[kind].get(name, 0)
    assert after == before + 1, \
        "%s %s: %s at the last scrape, %s at drain (want one more)" \
        % (kind, name, before, after)
print("drain manifest OK (misses and resident one above the last scrape)")
EOF
# The sampled requests' spans: the generation and every pipeline layer.
for name in generate trace.read mesh.partition mapping.map \
        workload.account workload.ghost model.eval des.run; do
    grep -q "\"name\":\"$name\"" tele_serve/trace.json \
        || fail "no $name spans in trace.json"
done

echo "check_serve: OK"
