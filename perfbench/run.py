#!/usr/bin/env python3
"""The repository's benchmark: simulator host cost on three traffic shapes.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  It builds perfbench/rcbench.exe (release
profile, into .bench_build/), then runs repetitions of workload W at seed N,
each in a fresh process, until S seconds of repetitions have passed (at
least MIN_REPS).  Every repetition's simulated statistics must equal the
other repetitions' and, where perfbench/golden.json records them for this
seed, the recorded ones; a repetition that differs, raises or exits non-zero
counts as failed.  Every host time is referred to a quiet host by the
calibration kernel each repetition times after every slice (see Calibration
in rcbench.ml).  The window's host-time metrics come from the per-slice
median over repetitions (see window_metrics); the others are medians over
repetitions.

With --trace 1 it alternates untraced and traced repetitions and reports the
per-layer breakdown of the traced ones (SIGPROF samples bucketed by lib/
layer, GC spans from Runtime_events, Sim.step event counts, model counters)
plus trace.overhead_frac, the traced run's extra host time per request.

The last line of stdout is one JSON object:
    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
The exit code is 0 only when every repetition passed the output check.

    python3 perfbench/run.py --record SEEDS

rewrites perfbench/golden.json with the statistics of every workload at
each seed (e.g. 1-32) and of the tiny windows the tests use.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "rcbench.exe")
GOLDEN = os.path.join(HERE, "golden.json")
EVENTS_DIR = os.path.join(ROOT, BUILD_DIR, "runtime_events")

WORKLOADS = ("conn-containers", "zipf-flash", "cluster-hold")
# Tiny windows (simulated ms) at seed 1 that the tests replay.
TINY_WINDOWS = {"conn-containers": 600, "zipf-flash": 200, "cluster-hold": 100}

MIN_REPS = 3
REP_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 850

END_TO_END = [
    ("req_per_host_s", "req/s"),
    ("host_ms_per_simsec.p50", "ms/sim-s"),
    ("host_ms_per_simsec.p95", "ms/sim-s"),
    ("minor_words_per_req", "words/req"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
]

LAYERS = ("engine", "sched", "rescont", "procsim", "netsim", "httpsim",
          "disksim", "workload", "clustersim", "stdlib")
PER_LAYER = [(l + ".self_ns_per_req", "ns/req") for l in LAYERS] + [
    ("gc.minor_ns_per_req", "ns/req"),
    ("gc.major_ns_per_req", "ns/req"),
    ("engine.events_per_req", "count/req"),
    ("engine.ns_per_event", "ns"),
    ("trace.samples", "count"),
    ("trace.unclaimed_frac", "frac"),
    ("trace.gc_lost_events", "count"),
    ("sched.dispatches_per_req", "count/req"),
    ("sched.preemptions_per_req", "count/req"),
    ("procsim.irq_steals_per_req", "count/req"),
    ("procsim.cpu_busy_frac", "frac"),
    ("netsim.packets_per_req", "count/req"),
    ("netsim.drops_per_req", "count/req"),
    ("netsim.queue_tables", "count"),
    ("httpsim.cache_hit_ratio", "frac"),
    ("httpsim.poll_rounds_per_req", "count/req"),
    ("workload.timeouts_per_req", "count/req"),
    ("clustersim.peak_concurrent", "count"),
    ("clustersim.refused_frac", "frac"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    dune = shutil.which("dune")
    if dune is None:
        log("perfbench: dune not found on PATH")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ROOT, "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/rcbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: build timed out")
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def rep(workload, seed, trace=False, window_ms=None, golden=True):
    """One repetition in a fresh process: (result dict or None, error)."""
    args = [EXE, workload, "--seed", str(seed)]
    if window_ms is not None:
        args += ["--window-ms", str(window_ms)]
    if trace:
        args.append("--trace")
    if golden and os.path.exists(GOLDEN):
        args += ["--golden", GOLDEN]
    env = dict(os.environ)
    if trace:
        os.makedirs(EVENTS_DIR, exist_ok=True)
        env["OCAML_RUNTIME_EVENTS_DIR"] = EVENTS_DIR
    args += ["--spawned-at", repr(time.time())]
    try:
        p = subprocess.run(args, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "exit %d, no result: %s" % (p.returncode, p.stderr.strip()[-500:])
    if p.returncode != 0 or "error" in result:
        return None, "exit %d, golden %s %s" % (
            p.returncode, result.get("golden"), result.get("error", ""))
    if result["requests"] <= 0:
        return None, "no request completed"
    return result, None


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def window_metrics(results):
    """Host-time metrics of the measured window, from its cost profile.

    Repetitions at one seed replay the same simulation, so slice i is the
    same simulated work in each.  The profile takes each slice's median
    across repetitions.  rcbench has already referred every slice to a
    quiet host through its calibration kernel, so what is left is that
    correction's error, which goes either way; the median keeps the
    simulator's own cost of each slice, growth over the window included.
    (Over five runs at five seeds on the shared 2-vCPU VM the run-to-run
    spread of req_per_host_s was 0.015-0.04 with the median and 0.04-0.08
    with the minimum, which picks the slices the correction undershot.)
    p50 and p95 are over the profile's slices; req_per_host_s divides the
    window's requests by the profile's total."""
    profile = [statistics.median(col) for col in
               zip(*(r["slice_host_ms_per_simsec"] for r in results))]
    q = statistics.quantiles(profile, n=20, method="inclusive")
    slice_s = results[0]["window_ms"] / 1e3 / len(profile)
    host_s = sum(profile) * slice_s / 1e3
    return {
        "req_per_host_s": results[0]["requests"] / host_s,
        "host_ms_per_simsec.p50": statistics.median(profile),
        "host_ms_per_simsec.p95": q[18],
    }


def measure(workload, seed, seconds, trace):
    plain, traced, failures = [], [], []
    reference = None
    start = time.monotonic()
    want = MIN_REPS if not trace else 2
    while time.monotonic() - start < seconds or len(plain) < want or (trace and len(traced) < want):
        as_traced = trace and len(traced) < len(plain)
        result, err = rep(workload, seed, trace=as_traced)
        if result is not None and reference is not None and result["stats"] != reference:
            result, err = None, "simulated statistics differ between repetitions"
        if result is None:
            failures.append(err)
            log("perfbench: repetition failed: %s" % err)
            if len(failures) >= 3:
                break
            continue
        if reference is None:
            reference = result["stats"]
        (traced if as_traced else plain).append(result)
    return plain, traced, failures


def fmt(v):
    return "%.6g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="SEEDS",
                    help="rewrite golden.json for seeds LO-HI")
    a = ap.parse_args()
    if a.record is None and a.workload is None:
        ap.error("--workload is required")
    if not build():
        log("perfbench: build failed")
        return 2
    if a.record is not None:
        return record(a.record)

    plain, traced, failures = measure(a.workload, a.seed, a.seconds, a.trace == 1)
    attempted = len(plain) + len(traced) + len(failures)
    metrics = {}
    if a.trace == 0 and plain:
        window = window_metrics(plain)
        for name, unit in END_TO_END:
            value = window[name] if name in window else median_of(plain, name)
            metrics[name] = {"value": value, "unit": unit}
    if a.trace == 1 and traced:
        for name, unit in PER_LAYER:
            v = statistics.median(r["per_layer"][name] for r in traced)
            metrics[name] = {"value": v, "unit": unit}
        if plain:
            metrics["trace.overhead_frac"] = {
                "value": window_metrics(plain)["req_per_host_s"]
                / window_metrics(traced)["req_per_host_s"] - 1.0,
                "unit": "frac",
            }

    print("workload %s  seed %d  repetitions %d untraced + %d traced, %d failed  "
          "(%d slices of %d simulated ms each; calibration kernel %.3f ms, median)"
          % (a.workload, a.seed, len(plain), len(traced), len(failures),
             plain[0]["slices"] if plain else 0,
             plain[0]["window_ms"] // max(1, plain[0]["slices"]) if plain else 0,
             median_of(plain + traced, "calibration_ms") if plain or traced else 0))
    for name, m in metrics.items():
        print("  %-32s %14s %s" % (name, fmt(m["value"]), m["unit"]))
    print("  %-32s %14s %s" % ("failed_frac", fmt(len(failures) / attempted), "frac"))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def record(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    golden = {}
    runs = [(w, s, None) for w in WORKLOADS for s in seeds]
    runs += [(w, 1, ms) for w, ms in TINY_WINDOWS.items()]
    for w, s, ms in runs:
        result, err = rep(w, s, window_ms=ms, golden=False)
        if result is None:
            log("perfbench: %s seed %d failed: %s" % (w, s, err))
            return 1
        golden["%s/%d/%d" % (w, s, result["window_ms"])] = result["stats"]
        log("recorded %s seed %d window %d ms" % (w, s, result["window_ms"]))
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
