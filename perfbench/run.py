#!/usr/bin/env python3
"""celog benchmark: build, run one workload in its own process, report.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one by one

Run from the repository root. The first run configures and builds
perfbench/ (which compiles src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only rebuild what changed.

Every metric of the workload is printed by name with its unit and sample
count. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; metrics holds BENCHMARK.json's end_to_end
metrics (--trace 0) or its per_layer metrics (--trace 1). Exit codes: 0 =
result printed, 1 = build or run failure (no result), 2 = bad arguments.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

WORKLOADS = ["paper-grid", "exascale-gen", "fleet-campaign", "serve-mix"]

# The named end-to-end metrics of each workload (setup_s,
# peak_rss_mib and fail_ratio are reported on every workload).
NAMED = {
    "paper-grid": ["grid.wall_s", "grid.cpu_s"],
    "exascale-gen": ["exa.wall_s", "exa.events_per_s"],
    "fleet-campaign": ["campaign.fleet_years_per_cpu_hour", "campaign.wall_s"],
    "serve-mix": [
        "serve.lo.latency_ms.p50",
        "serve.lo.latency_ms.p99",
        "serve.hi.latency_ms.p50",
        "serve.hi.latency_ms.p99",
        "serve.hi.completed_rps",
    ],
}
LAYERS = ["workloads", "goal", "sim", "noise", "core", "telemetry", "fleetdb",
          "server"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "celog_perfbench"


def run_timeout(seconds):
    """How long one workload process may take: the measured time, its
    set-ups and output checks, with room to spare on a loaded host."""
    return 2 * seconds + 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, path))


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE) not in f.read():
                os.remove(cache)  # configured from another checkout
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", BINARY, "-j", jobs])
    for cmd in steps:
        started = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
        if time.monotonic() - started > 5:
            log("perfbench: %s took %.0f s" % (cmd[1], time.monotonic() - started))
    return os.path.join(out, BINARY)


def revision():
    """Git revision, or a digest of the sources outside a git checkout."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace, rev):
    """Runs one workload in its own process; returns its report dict."""
    rundir = os.path.join(build_dir(), "run")
    os.makedirs(rundir, exist_ok=True)
    trace_out = os.path.join(rundir, "spans-%s-%d.jsonl" % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--revision", rev, "--socket", "perfbench-%d.sock" % os.getpid()]
    if trace:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(cmd, cwd=rundir, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=run_timeout(seconds))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: %s did not finish within %.0f s" % (
            workload, run_timeout(seconds)))
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: %s exited with code %d" % (workload, proc.returncode))
        return None
    report = json.loads(lines[-1])
    report["trace_out"] = trace_out if trace else None
    return report


def fmt(value):
    return "%.6g" % value if isinstance(value, (int, float)) else str(value)


def print_report(workload, report, trace):
    metrics = report["metrics"]
    meta = report["meta"]
    attempted, failed = report["attempted"], report["failed"]
    print("== %s (seed %s, trace %s) ==" % (workload, meta["seed"], meta["trace"]))
    print("   nproc %s, %s, %s build, revision %s" % (
        meta["nproc"], meta["compiler"], meta["build_type"], meta["revision"]))
    print("-- end-to-end%s --" % (" (traced half; compare untraced runs)"
                                  if trace else ""))
    for name in ["setup_s", "peak_rss_mib"] + NAMED[workload]:
        m = metrics.get(name)
        if m is not None:
            print("   %-40s %14s %-15s n=%d" % (name, fmt(m["value"]), m["unit"],
                                               m["samples"]))
    print("   %-40s %14s %-15s n=%d" % ("fail_ratio", fmt(failed / attempted),
                                       "ratio", attempted))
    shown = set(["setup_s", "peak_rss_mib"] + NAMED[workload])
    print("-- per layer --" if trace else "-- other --")
    for name in sorted(metrics):
        if name in shown or name.endswith(".self_s"):
            continue
        m = metrics[name]
        print("   %-40s %14s %-15s n=%d" % (name, fmt(m["value"]), m["unit"],
                                           m["samples"]))
    if trace:
        print("-- self time by layer (span minus child spans) --")
        for layer in LAYERS + ["bench"]:
            m = metrics.get(layer + ".self_s")
            value = m["value"] if m else 0.0
            print("   %-40s %14s s" % (layer, fmt(value)))
        if report.get("trace_out"):
            print("   spans written to %s" % report["trace_out"])
    for why in report.get("failures", []):
        print("   FAILED: " + why)


def final_result(report, bench, trace):
    """The last output line: BENCHMARK.json's metrics for this run."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = report["metrics"]
    failed = report["failed"]
    out = {}
    for spec in wanted:
        m = metrics.get(spec["name"])
        if m is None:
            if not trace:
                log("perfbench: end-to-end metric %s missing" % spec["name"])
                return None
            # A layer this workload never calls did no work.
            m = {"value": 0.0, "unit": spec["unit"]}
        if m["unit"] != spec["unit"]:
            log("perfbench: %s has unit %s, BENCHMARK.json says %s" % (
                spec["name"], m["unit"], spec["unit"]))
            return None
        value = m["value"]
        if value is None or not math.isfinite(value) or (
                not trace and value <= 0):
            log("perfbench: %s is not a positive finite number" % spec["name"])
            failed += 1
            value = 0.0 if value is None or not math.isfinite(value) else value
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {"correct": failed == 0, "attempted": int(report["attempted"]),
            "failed": int(failed), "metrics": out}


def main():
    parser = argparse.ArgumentParser(
        description="celog benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(bench_path, encoding="utf-8") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        log("perfbench: cannot read %s: %s" % (bench_path, e))
        return 1
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if not 0 < seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    binary = build()
    if binary is None:
        return 1
    rev = revision()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        report = run_workload(binary, workload, args.seed, seconds, args.trace,
                              rev)
        if report is None:
            return 1
        print_report(workload, report, args.trace)
        results[workload] = final_result(report, bench, args.trace)
        if results[workload] is None:
            return 1
    sys.stdout.flush()
    last = results[workloads[0]] if len(workloads) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
