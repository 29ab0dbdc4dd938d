#!/usr/bin/env python3
"""Repository benchmark runner (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fischer5-int --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --all             # every workload, one table

It builds perfbench/perfbench.exe and perfbench/calib.exe from source in
release mode, starts a fresh process for every measurement, runs a host
speed calibration around every timed pass, checks every answer against
perfbench/pins.json, and prints one JSON object as the last line of
stdout: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

# A claim measured at the default seed must also hold at the holdout seed.
DEFAULT_SEED, HOLDOUT_SEED = 1, 7

# Files the benchmark reads as committed.
COMMITTED = ["BENCHMARK.json", "perfbench/pins.json", "perfbench/dune",
             "perfbench/perfbench.ml", "perfbench/shim.ml", "perfbench/work.ml",
             "perfbench/calib.ml"]

MIN_PASSES = 3      # untraced passes per run, whatever --seconds says
# Set-up is sampled by set-up-only starts between the passes, so that,
# like verdict_ref_s, it averages over the whole run rather than one moment.
SETUP_PER_PASS = 4
SETUP_SAMPLES = 40  # at least this many set-up measurements per run
CHILD_TIMEOUT_S = 170
# About the median calib.exe time on the baseline host (1.5 to 1.9 s;
# README.md, "Baseline").
# verdict_ref_s is a pass's wall time scaled by REF_CALIB_S / the
# calibration around it: the seconds the pass would take on that host at
# that speed.  The constant only sets the scale; a comparison of two
# commits divides it out.
REF_CALIB_S = 1.8


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    """Workload names and {metric: unit} for both tiers, from BENCHMARK.json."""
    try:
        with open("BENCHMARK.json") as f:
            b = json.load(f)
    except OSError as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}")
    units = lambda tier: {m["name"]: m["unit"] for m in b[tier]}
    return [w["name"] for w in b["workloads"]], units("end_to_end"), units("per_layer")


# --------------------------------------------------------------------------
# processes

# Start each child as the leader of a new process group, so that killing
# the group stops anything it started too.
OWN_GROUP = ({"process_group": 0} if sys.version_info >= (3, 11)
             else {"preexec_fn": os.setpgrp})


class Child:
    """A child process whose stdout is read line by line with a deadline."""

    def __init__(self, argv):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, **OWN_GROUP)
        self.name = " ".join([os.path.basename(argv[0]), *argv[1:3]])
        self.deadline = time.monotonic() + CHILD_TIMEOUT_S
        self.buf = b""

    def line(self):
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = self.deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"timeout waiting for {self.name}")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise BenchError(f"{self.name} exited early")
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def finish(self):
        try:
            code = self.proc.wait(timeout=max(1, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        self.proc.stdout.close()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if code != 0:
            raise BenchError(f"{self.name} exited with {code}")


def run_child(argv):
    c = Child(argv)
    try:
        out = json.loads(c.line())
    finally:
        c.finish()
    return out


# --------------------------------------------------------------------------
# build

def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    raise BenchError("dune not found")


def build(build_dir):
    if not os.path.isfile("dune-project"):
        raise BenchError("run from the repository root (no dune-project here)")
    exes = ["perfbench/perfbench.exe", "perfbench/calib.exe"]
    cmd = find_dune() + ["build", "--root", ".", "--build-dir", build_dir,
                         "--profile", "release", "--cache", "disabled", *exes]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("build failed")
    return [os.path.join(build_dir, "default", e) for e in exes]


def check_tracked():
    """In a git checkout, every file read as committed is tracked."""
    if not os.path.isdir(".git"):
        return
    r = subprocess.run(["git", "ls-files", "--error-unmatch", *COMMITTED],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise BenchError("untracked benchmark files: " + r.stderr.strip())


# --------------------------------------------------------------------------
# untraced runs

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def pass_loop(seconds, start_one):
    """Start fresh measured passes until --seconds is spent (at least MIN_PASSES)."""
    results, durations = [], []
    t_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(start_one())
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - t_start
        if len(results) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            return results


def untraced(workload, exe, calib_exe, seconds, units):
    argv = [exe, "pass", workload]
    setups = []
    # The host's speed drifts for minutes at a time; a calibration run
    # before and after every pass measures it where the pass ran.
    calibs = [run_child([calib_exe])["calib_s"]]

    def setup_only():
        c = Child(argv + ["--setup-only"])
        try:
            c.line()
            setups.append(time.perf_counter() - c.t0)
        finally:
            c.finish()

    def one():
        c = Child(argv)
        try:
            c.line()  # READY
            setups.append(time.perf_counter() - c.t0)
            out = json.loads(c.line())
        finally:
            c.finish()
        calibs.append(run_child([calib_exe])["calib_s"])
        out["verdict_ref_s"] = out["verdict_s"] * REF_CALIB_S / statistics.mean(calibs[-2:])
        for _ in range(SETUP_PER_PASS):
            setup_only()
        return out

    results = pass_loop(seconds, one)
    while len(setups) < SETUP_SAMPLES:
        setup_only()
    series = {"setup_s": setups,
              **{k: [r[k] for r in results] for k in ("verdict_ref_s", "peak_rss_mb")}}
    if set(series) != set(units):
        raise BenchError(f"BENCHMARK.json end-to-end metrics {sorted(units)} "
                         f"differ from the measured {sorted(series)}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    shown = {k: [r[k] for r in results] for k in ("verdict_s", "cpu_s")}
    for name, xs in {**series, **shown, "calib_s": calibs}.items():
        q1, q3 = quartiles(xs)
        log(f"{workload} {name}: median {statistics.median(xs):.6g} "
            f"[q1 {q1:.6g}, q3 {q3:.6g}] n={len(xs)}")
    extra = {k: results[0][k] for k in ("edges", "zones", "probes") if k in results[0]}
    log(f"{workload} counts (reported, not pinned): {extra}")
    metrics = {name: {"value": statistics.median(xs), "unit": units[name]}
               for name, xs in series.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(workload, exe, seed, trace_dir, units):
    os.makedirs(trace_dir, exist_ok=True)
    spans = os.path.join(trace_dir, f"{workload}-seed{seed}.json")
    out = run_child([exe, "trace", workload, "--spans", spans])
    got = set(out["metrics"])
    if got != set(units):
        raise BenchError(f"per-layer metric set differs from BENCHMARK.json: "
                         f"missing {set(units) - got}, extra {got - set(units)}")
    log(f"{workload} spans written to {spans}")
    metrics = {name: {"value": v, "unit": units[name]}
               for name, v in out["metrics"].items()}
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


# --------------------------------------------------------------------------

def table(rows, units):
    head = ["workload"] + [f"{n} ({u})" for n, u in units.items()] + ["failed_share (ratio)"]
    lines = [head] + [
        [w] + [f"{res['metrics'][n]['value']:.6g}" for n in units]
        + [f"{res['failed'] / max(1, res['attempted']):.6g}"]
        for w, res in rows]
    widths = [max(len(r[i]) for r in lines) for i in range(len(head))]
    for r in lines:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="every workload, one table")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("--workload or --all is required")

    # a terminated runner still stops and reaps what it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    trace_dir = os.path.join(build_dir, "perfbench-traces")
    try:
        workloads, end_to_end, per_layer = load_benchmark()
        if not args.all and args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload}; choose from {workloads}")
        check_tracked()
        exe, calib_exe = build(build_dir)
        rows = []
        for w in workloads if args.all else [args.workload]:
            if args.trace:
                res = traced(w, exe, args.seed, trace_dir, per_layer)
            else:
                res = untraced(w, exe, calib_exe, args.seconds, end_to_end)
            rows.append((w, res))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    if args.all:
        table(rows, per_layer if args.trace else end_to_end)
        return 0 if all(r["correct"] for _, r in rows) else 1
    print(json.dumps(rows[0][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
