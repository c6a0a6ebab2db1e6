#!/usr/bin/env python3
"""oneshotid benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload merged-anodes --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

A run times 3 fresh interpreters importing the package and sets the
workload up 3 times (``setup_s`` is the sum of the two medians, scaled by
the calibration), then runs
rounds until ``--seconds`` are used.  Each round trains from the
set-up parameters and scores pairs; throughputs are medians over rounds,
scaled by a calibration kernel timed between rounds (see Calibration).
With ``--trace 1`` the first half of the time runs untraced and the second
half traced, and the run reports the per-layer metrics instead of the
end-to-end ones.  The last line of standard output is the JSON result;
the full record (provenance, every metric with its unit, tables) goes to
``.perfbench/`` in the repository root.  ``--workload all`` runs every
workload in its own fresh process, one after the other.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("merged-anodes", "capsnet-faces", "eval-gallery")
SETUP_REPS = 3
BLAS_THREADS = 1
# What a process needs imported before its first timed operation.
IMPORTS = "import numpy, scipy.ndimage, oneshotid.cli, oneshotid.recipes"

# Units of every end-to-end metric the record carries.  error_rate is 0 on
# any passing run, so BENCHMARK.json leaves it to the result line's
# "attempted" and "failed" fields; the *_wall_s figures are set-up time and
# throughputs before calibration.
E2E_UNITS = {
    "setup_s": "s", "train_pairs_per_s": "pairs/s", "eval_pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB", "loss_end": "loss", "error_rate": "fraction",
    "setup_wall_s": "s", "train_pairs_per_wall_s": "pairs/s",
    "eval_pairs_per_wall_s": "pairs/s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smallest shapes, one step, one set-up (smoke test)")
    return ap.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_state():
    """(commit, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True,
                                timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return head, bool(status.strip())


def provenance(args, params):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit, dirty = _git_state()
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas_name": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
        "git_commit": commit, "git_dirty": dirty,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "params": params,
    }


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

class Calibration:
    """A fixed numpy and interpreter kernel, timed between rounds.

    On a shared or virtual machine, speed can drift by tens of percent from
    one minute to the next.  The kernel runs no oneshotid code, so its time
    tracks only the machine.  Throughputs are scaled to what they would be
    when the kernel takes ``REF_S``, and set-up time is scaled the other
    way.  The kernel's arrays are allocated once, before the set-up, and
    every operation writes into them, so it leaves the allocator state of
    the rounds untouched; ``mb`` is their size, which stays resident.
    """

    REF_S = 0.2

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a, self.b = rng.random((1024, 512)), rng.random((512, 256))
        self.c = np.empty((1024, 256))
        self.x = rng.random(2_000_000)
        self.y = np.empty_like(self.x)
        self.mb = sum(v.nbytes for v in (self.a, self.b, self.c, self.x, self.y)) / 2**20

    def seconds(self):
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(20):
            np.matmul(self.a, self.b, out=self.c)
        for _ in range(10):
            np.maximum(self.x, 0.5, out=self.y)
            np.multiply(self.y, self.x, out=self.y)
            np.add(self.y, 1.0, out=self.y)
        total = 0
        for i in range(300_000):
            total += i
        return time.perf_counter() - t0


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rate(rounds, kind):
    """Median over rounds of pairs per second for "train" or "eval", at the
    calibration's reference speed."""
    return statistics.median(r[kind + "_pairs"] / r[kind + "_s"] * r["cal_s"] / Calibration.REF_S
                             for r in rounds)


def _wall_rate(rounds, kind):
    return statistics.median(r[kind + "_pairs"] / r[kind + "_s"] for r in rounds)


def import_seconds(reps):
    """Median wall time of a fresh interpreter importing the package.

    A fresh process per sample, so the figure includes interpreter start
    and cold module imports the way a user's first command pays them.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_workload(args):
    import workloads as W
    from tracing import Tracer, summarize

    tiny = args.size == "tiny"
    reps = 1 if tiny else SETUP_REPS
    calibration = Calibration()
    cal_start = calibration.seconds()
    import_s = import_seconds(reps)
    params = W.params_for(args.workload, tiny)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    checks = W.Checks()
    gate = W.GradientGate(checks)
    gate.install()
    tracer = Tracer(W.UNIT_KIND[args.workload]) if args.trace else None

    def span(name):
        return tracer.span(name) if tracer and tracer.installed else nullcontext()

    try:
        if tracer:
            tracer.install()
        setup_times = []
        for _ in range(reps):
            state = None
            t0 = time.perf_counter()
            state = W.setup(args.workload, params, args.seed, work, span)
            setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
        # Each span of work is scaled by the mean of the calibrations
        # timed just before and just after it.
        cal_prev = calibration.seconds()
        setup_cal_s = (cal_start + cal_prev) / 2

        # Untraced rounds fill the time (or its first half when tracing);
        # a new round starts only if one more fits the budget.
        plain, traced = [], []
        t_start = time.perf_counter()
        phases = [(plain, args.seconds / 2 if tracer else args.seconds)]
        if tracer:
            phases.append((traced, args.seconds))
        for rounds, budget in phases:
            if rounds is traced:
                tracer.install()
            while True:
                t0 = time.perf_counter()
                rounds.append(W.run_round(args.workload, state, span, checks,
                                          tracer if rounds is traced else None))
                cal_next = calibration.seconds()
                rounds[-1].update(cal_s=(cal_prev + cal_next) / 2, maxrss_mb=_maxrss_mb())
                cal_prev = cal_next
                took = time.perf_counter() - t0
                if tiny or time.perf_counter() - t_start + took > budget:
                    break
            if rounds is traced:
                tracer.uninstall()
    except Exception as exc:  # any failure is reported, then the run exits 1
        traceback.print_exc()
        checks.expect(False, f"{type(exc).__name__}: {exc}")
        plain = traced = None
    finally:
        gate.uninstall()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    record = {"provenance": provenance(args, params), "failures": checks.failures}
    if plain is None:
        return record, checks, None, None

    layer = None
    if tracer:
        layer, lines, coverage = summarize(tracer, len(traced), reps)
        kind = "eval" if args.workload == "eval-gallery" else "train"
        layer["trace.overhead_pct"] = 100.0 * (_rate(plain, kind) / _rate(traced, kind) - 1.0)
        checks.expect(coverage >= 0.9 or tiny,
                      f"spans cover {coverage:.3f} of unit wall time, below 0.9")
        record.update(traced_rounds=traced, span_coverage=coverage, tables=lines)
        print("\n".join(lines))
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))

    setup_wall_s = import_s + statistics.median(setup_times)
    e2e = {
        "setup_s": setup_wall_s * Calibration.REF_S / setup_cal_s,
        "train_pairs_per_s": _rate(plain, "train"),
        "eval_pairs_per_s": _rate(plain, "eval"),
        "peak_rss_mb": _maxrss_mb() - calibration.mb,
        "loss_end": plain[-1]["loss_end"],
        "error_rate": checks.failed / checks.attempted,
        "setup_wall_s": setup_wall_s,
        "train_pairs_per_wall_s": _wall_rate(plain, "train"),
        "eval_pairs_per_wall_s": _wall_rate(plain, "eval"),
    }
    record.update(import_s=import_s, setup_times_s=setup_times, rounds=plain,
                  end_to_end={k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()})
    return record, checks, e2e, layer


def result_line(spec, args, checks, e2e, layer):
    metrics = {}
    if e2e is not None:
        chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
        values = layer if args.trace else e2e
        for m in chosen:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": checks.failed == 0, "attempted": max(checks.attempted, 1),
            "failed": checks.failed, "metrics": metrics}


def main_one(args):
    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    record, checks, e2e, layer = run_workload(args)
    result = result_line(spec, args, checks, e2e, layer)
    if layer is not None:
        # A layer metric reads 0 exactly when that layer never ran.
        record["not_applicable"] = sorted(m["name"] for m in spec["per_layer"]
                                          if layer[m["name"]] == 0)
    if e2e is not None:
        print(f"{'metric':<24} {'value':>14} unit")
        for name, v in record["end_to_end"].items():
            print(f"{name:<24} {v['value']:>14.6g} {v['unit']}")
    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({**record, "result": result}, f, indent=1)
    if checks.failed:
        return 1
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in its own process
# ---------------------------------------------------------------------------

def main_all(args):
    """Run every workload in its own process and print each one's table."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        print(f"== {name}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"FAILED with exit code {proc.returncode}")
            code = 1
    return code


def main(argv=None):
    args = parse_args(argv)
    # numpy is first imported after this, here and in every child process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "oneshotid", "__init__.py")):
        print(f"error: no oneshotid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
