"""Closed-loop benchmark of curveatlas, one client in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src, and the command fails (exit 2, no result) when ./src/curveatlas is
not there.  Workloads (see workloads.py):

  report           cli.main(["report", ...]) with height ~200, box ~50
  search-sweep     search_ks(H in [300, 500], partitions=4, jobs=2) and
                   search_integral on K1 and K3 with B in [100, 200]
  tower-precision  the modular tower for one d at P in {default, 2048,
                   4096, 8192}
  maps-batch       seeded rational and QuadRat pairs through the maps API

BENCHMARK.json lists report and search-sweep only.  report runs every
layer, and search-sweep runs the search process pool that report leaves
at one job.  Four workloads of 20-second runs spread past their bounds on
a shared two-core host, and the time allowed for all runs fits two
workloads of 55-second runs.  tower-precision and maps-batch stay here
for measuring a change to fixedreal, modular or maps by hand.

The seed makes the inputs; each operation starts when the previous one has
returned and its output has passed the workload's oracle.  Inputs come in
stratified rounds (see workloads.py).  A run times operations until
--seconds have passed since the first timed one started, so its length
does not grow when the machine is slow.

--trace 0 prints the end-to-end metrics, all from wall time: setup_s
(median of five fresh interpreters importing curveatlas and verifying the
point tables, three started before the loop and two after it, so that
they sample the machine at two moments), op_p50_s, op_tail_s (the
highest percentile with ten samples beyond it), ops_per_s (operations
over the time spent inside them), peak_rss_mb (this process plus its
largest child) and margin_bits_min (the smallest gap in bits between a
precision threshold and the tracked error it is tested against: every
tower operation's residuals and pair defect, plus the default-precision
towers of all six d, checked once after the loop).

--trace 1 runs one untimed warm-up, untraced operations for a quarter of
--seconds, then traced operations for the rest, and prints the per-layer
metrics of tracing.py and the tracing overhead.
Spans are written to .bench_out/spans-<workload>.npz.

The line before the result is a JSON record of the environment, the input
sizes, the tail percentile and sample count, and the failure ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_PROBES = (3, 2)  # before and after the loop
TAIL_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("margin_bits_min", "bits"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("report", "search-sweep", "tower-precision", "maps-batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import sympy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def setup_samples(n: int) -> list:
    """Wall times from spawning a fresh interpreter to its "ready"."""
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(PROBE)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


class Loop:
    """Closed-loop runner: one operation at a time, each checked before the
    next starts.  Collects per-operation wall times, failures and margins."""

    def __init__(self, workload):
        self.wl = workload
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.margins = []
        self.inputs = []

    def run_for(self, rng, seconds, tracer=None):
        """Time operations, round after round, until `seconds` have passed."""
        deadline = time.perf_counter() + seconds
        while True:
            for inp in self.wl.round(rng):
                self.run_one(inp, tracer)
                if time.perf_counter() >= deadline:
                    return

    def run_one(self, inp, tracer=None, timed=True):
        self.attempted += 1
        if tracer is not None:
            tracer.op = len(self.times) + 1
        t0 = time.perf_counter()
        try:
            out = self.wl.op(inp, traced=tracer is not None)
        except Exception:
            out = None
            self._fail(inp, traceback.format_exc(limit=3))
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
        if timed:
            self.times.append(elapsed)
            self.inputs.append(self.wl.describe(inp))
        if out is None:
            return
        try:
            self.margins += self.wl.check(inp, out) or []
        except Exception:
            self._fail(inp, traceback.format_exc(limit=3))

    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times)

    def _fail(self, inp, msg):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{self.wl.describe(inp)}: {msg}")
        print(f"operation failed: {self.wl.describe(inp)}\n{msg}", file=sys.stderr)


def tail(times):
    """(value, percentile): the highest order statistic with TAIL_BEYOND
    samples beyond it, never below the median."""
    s = sorted(times)
    n = len(s)
    idx = max(n - 1 - TAIL_BEYOND, n // 2)
    return s[idx], 100.0 * (idx + 1) / n


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------------------
# the two modes


def run_untraced(wl, rng, seconds):
    from perfbench import workloads

    setup = setup_samples(SETUP_PROBES[0])
    loop = Loop(wl)
    loop.run_one(wl.round(rng)[0], timed=False)  # warm-up: lazy imports and caches
    loop.run_for(rng, seconds)
    sentinel = workloads.default_precision_margin()
    setup += setup_samples(SETUP_PROBES[1])
    tail_s, tail_pct = tail(loop.times)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(loop.times),
        "op_tail_s": tail_s,
        "ops_per_s": loop.ops_per_s(),
        "peak_rss_mb": peak_rss_mb(),
        "margin_bits_min": min(loop.margins + [sentinel]),
    }
    detail = {
        "op_tail_percentile": tail_pct,
        "op_samples": len(loop.times),
        "failed_ratio": loop.failed / loop.attempted,
        "setup_samples_s": setup,
        "op_wall_s": loop.times,
    }
    return loop, dict(END_TO_END), metrics, detail


def run_traced(wl, rng, seconds):
    from curveatlas import curves
    from perfbench import tracing

    tracer = tracing.Tracer()
    curves.paper_points.cache_clear()
    tracer.install()
    try:
        tracer.op = 0
        for curve in (curves.CurveId.K1, curves.CurveId.K3, curves.CurveId.KS):
            curves.paper_points(curve)
        tracer.op = None

        untraced = Loop(wl)
        untraced.run_one(wl.round(rng)[0], timed=False)
        cpu0 = child_cpu_s()
        untraced.run_for(rng, seconds / 4)
        child_cpu = child_cpu_s() - cpu0

        traced = Loop(wl)
        traced.run_for(rng, seconds * 3 / 4, tracer=tracer)
    finally:
        tracer.uninstall()
    n_ops = len(traced.times)
    values = tracing.layer_values(tracer, n_ops)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    untraced_rate, traced_rate = untraced.ops_per_s(), traced.ops_per_s()
    values.update({
        "search.child_cpu_s": child_cpu / len(untraced.times),
        "bench.failed_ratio": failed / attempted,
        "trace.ops_per_s_untraced": untraced_rate,
        "trace.ops_per_s_traced": traced_rate,
        "trace.overhead_ops_per_s": untraced_rate - traced_rate,
    })
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: values[name] for name in units}
    tracer.dump(WORK / f"spans-{wl.name}.npz")
    detail = {
        "traced_ops": n_ops,
        "untraced_ops": len(untraced.times),
        "spans": tracer.span_count(),
        "failed_ratio": failed / attempted,
        "search_jobs_traced": 1,
    }
    # report one loop's worth of failures and inputs
    traced.attempted, traced.failed = attempted, failed
    traced.errors = untraced.errors + traced.errors
    traced.inputs = untraced.inputs + traced.inputs
    return traced, units, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "curveatlas" / "__init__.py").is_file():
        print(f"error: no curveatlas sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    import curveatlas
    if Path(curveatlas.__file__).resolve().parent != SRC / "curveatlas":
        print(f"error: curveatlas imported from {curveatlas.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    WORK.mkdir(exist_ok=True)
    jobs = min(2, len(os.sched_getaffinity(0)))
    wl = workloads.make(args.workload, WORK, SRC, jobs)
    rng = random.Random(f"{args.workload}:{args.seed}")
    mode = run_traced if args.trace else run_untraced
    loop, units, metrics, detail = mode(wl, rng, args.seconds)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        "search_jobs": jobs,
        "inputs": loop.inputs,
        **detail,
        "errors": loop.errors,
    }
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
