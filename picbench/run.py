#!/usr/bin/env python3
"""End-to-end benchmark of picpredict: run one workload, print one result line.

    python3 picbench/run.py --workload offline_sweep|serve_cold \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The script builds the program from the
checkout's sources into .bench_build/ (CMake, picbench/CMakeLists.txt),
generates the seed's inputs once (cached under .bench_build/inputs by content
key), runs the workload through the `picbench` driver binary, and prints the
driver's JSON result as the last line of stdout. --trace 1 runs the separate
traced run: per-layer metrics instead of end-to-end ones, and a span file
under .bench_build/traces/. See picbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DEFAULT_SEED = 1
# Which generated inputs each workload runs on.
INPUT_KIND = {"offline_sweep": "offline", "serve_cold": "serve"}
# A run must end within 180 s; leave room for set-up and teardown.
RUN_TIMEOUT_S = 170


def log(message):
    print("picbench: " + message, file=sys.stderr, flush=True)


def die(message, code=1):
    log("error: " + message)
    sys.exit(code)


def build():
    """Configure once, then build incrementally (a no-op when up to date)."""
    cmake_dir = os.path.join(BUILD, "cmake")
    start = time.monotonic()
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure, "configure")
    run_quiet(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1)],
              "build")
    log("build ready in %.1f s" % (time.monotonic() - start))
    return (os.path.join(cmake_dir, "picbench"),
            os.path.join(cmake_dir, "picpredict"))


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        die("%s failed: %s" % (what, " ".join(cmd)))


def ensure_inputs(picbench, seed, kind):
    """The seed's inputs, generated on first use and cached by content key.

    The key covers the seed, the input kind and the driver binary. The binary
    links every piece of code that makes the inputs (the picsim run, the
    trace writer, the model fit, the case-study config), so a change to any
    of it makes new inputs instead of reusing ones made by other code.
    """
    digest = hashlib.sha256()
    with open(picbench, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    recipe = digest.hexdigest()
    key = hashlib.sha256(
        json.dumps([seed, kind, recipe]).encode()).hexdigest()[:16]
    final = os.path.join(BUILD, "inputs", "%s-%d-%s" % (kind, seed, key))
    if os.path.isdir(final):
        return final
    os.makedirs(os.path.dirname(final), exist_ok=True)
    staging = tempfile.mkdtemp(prefix="staging-", dir=os.path.dirname(final))
    start = time.monotonic()
    proc = subprocess.run([picbench, "inputs", "--seed", str(seed), "--dir",
                           staging, "--kind", kind],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        sys.stderr.write(proc.stderr[-20000:])
        die("input generation failed")
    try:
        os.rename(staging, final)
    except OSError:  # another run published the same inputs first
        shutil.rmtree(staging, ignore_errors=True)
    log("generated %s inputs for seed %d in %.1f s (not a metric)"
        % (kind, seed, time.monotonic() - start))
    return final


def stop_group(pgid):
    """Kill whatever the driver left in its process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUT_KIND))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-digest", action="store_true",
                        help="print the output digest (to record digests.json)")
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0", 2)

    for needed in ("src/CMakeLists.txt", "tools/picpredict.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("the program's sources (%s) are not next to picbench/; run "
                "from the root of a picpredict checkout" % needed, 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    picbench, picpredict = build()
    inputs = ensure_inputs(picbench, args.seed, INPUT_KIND[args.workload])
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                            dir=os.path.join(BUILD, "runs"))
    cmd = [picbench, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--inputs", inputs, "--work", work,
           "--picpredict", picpredict]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json")) as f:
            cmd += ["--expect-digest", json.load(f)[args.workload]]
    if args.print_digest:
        cmd.append("--print-digest")

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        die("the %s run did not finish within %d s"
            % (args.workload, RUN_TIMEOUT_S))
    finally:
        stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)

    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("the driver exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        die("metrics %s do not match BENCHMARK.json %s"
            % (sorted(got.items()), sorted(expected.items())))
    print(json.dumps(result), flush=True)
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
