"""Benchmark for ppdiv: four closed-loop workloads, independent output
checks, end-to-end metrics by default and per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import os

# One thread for every BLAS and OpenMP pool, in this process and in every
# child, set before numpy is imported; PPDIV_THREADS would split ppdiv's
# Monte Carlo seeds, so it is removed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PPDIV_THREADS", None)

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

SETUP_REPEATS = 3
COUNT_JOBS = 8          # count metrics are medians over the first 8 traced jobs
PROBE_REPEATS = 5       # interpreter and import probes in a traced run

QUAD_SPANS = ("divergence.tsallis", "divergence.hellinger", "divergence.classify",
              "disintegration.product")

# name -> unit of the per-layer metrics every traced run reports; their
# directions are in BENCHMARK.json
LAYER_METRICS = {
    "measure.common_reference_ms": "ms",
    "measure.refined_cells": "count",
    "divergence.tsallis_ms": "ms",
    "kernel.cells_per_s": "1/s",
    "divergence.hellinger_ms": "ms",
    "divergence.classify_ms": "ms",
    "chernoff.info_ms": "ms",
    "chernoff.objective_evals": "count",
    "chernoff.bayes_risk_ms": "ms",
    "disintegration.product_ms": "ms",
    "quadrature.density_evals": "count",
    "quadrature.evals_per_s": "1/s",
    "model_io.load_ms": "ms",
    "sampler.sample_ms": "ms",
    "sampler.points": "count",
    "sampler.density_evals": "count",
    "sampler.acceptance": "ratio",
    "sampler.points_per_s": "1/s",
    "likelihood.log_lr_ms": "ms",
    "likelihood.sigma_finite_ms": "ms",
    "likelihood.mc_ms": "ms",
    "likelihood.truncation_levels": "count",
    "likelihood.mc_density_evals": "count",
    "cli.divergence_ms": "ms",
    "cli.loglr_ms": "ms",
    "cli.sample_ms": "ms",
    "cli.chernoff_ms": "ms",
    "cli.import_ms": "ms",
    "cli.interpreter_ms": "ms",
    "trace.overhead_pct": "%",
}


def _require_checkout():
    missing = [p for p in (SRC / "ppdiv" / "__init__.py", ROOT / "docs" / "schema.json")
               if not p.is_file()]
    if missing:
        sys.stderr.write("perfbench: not a ppdiv checkout, missing "
                         + ", ".join(str(p.relative_to(ROOT)) for p in missing) + "\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _workdir(name):
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def setup_only(workload, seed):
    from workloads import WORKLOADS
    wd = _workdir(workload)
    try:
        WORKLOADS[workload].setup(seed, wd)
    finally:
        shutil.rmtree(wd, ignore_errors=True)


def measure_setup(workload, seed):
    """Median wall time of fresh processes that start, import ppdiv, make
    the inputs and files (and, for cli, make the warm-up call), then exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, wl, ctx):
        self.wl, self.ctx = wl, ctx
        self.attempted = 0
        self.failed = 0
        # outputs of the first passing run of each pool job; the run checks
        # need each pool job once, and memory must not grow with the run
        self.outs = {}

    def one(self, job, tr):
        """Run and check one job; returns (wall time, or None when it
        failed, outputs)."""
        self.attempted += 1
        gc.collect()
        try:
            t0 = time.perf_counter()
            with tr.span("job"):
                out = self.wl.run(self.ctx, job, tr)
            dt = time.perf_counter() - t0
            bad = [c.name for c in self.wl.check(self.ctx, job, out) if not c.passed()]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None, None
        if bad:
            sys.stderr.write(f"{self.wl.name}: failed checks {bad}\n")
            self.failed += 1
            return None, out
        self.outs.setdefault(id(job), (job, out))
        return dt, out

    def finish(self):
        bad = [c.name for c in self.wl.run_checks(self.ctx, list(self.outs.values()))
               if not c.passed()]
        if bad:
            sys.stderr.write(f"{self.wl.name}: failed run checks {bad}\n")
            self.failed += 1
        return not bad


def untraced_loop(runner, seconds):
    from spans import NULL
    wl, pool = runner.wl, runner.ctx.pool
    times, rss = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or i % wl.round_len or time.perf_counter() - start < seconds:
        dt, out = runner.one(pool[i % len(pool)], NULL)
        if dt is not None:
            times.append(dt)
            rss.append(getattr(out, "rss", 0.0))
        i += 1
    return times, rss


def traced_loop(runner, seconds):
    """Each job runs twice, untraced and traced in alternating order; the
    paired times give the tracing overhead."""
    from spans import NULL, Tracer
    wl, pool = runner.wl, runner.ctx.pool
    tr = Tracer()
    pairs, traced_jobs, counts = [], [], {}
    start = time.perf_counter()
    i = 0
    while (i < COUNT_JOBS or i % wl.round_len
           or time.perf_counter() - start < seconds):
        job = pool[i % len(pool)]
        got = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tr.job = i
            got[traced] = runner.one(job, tr if traced else NULL)
        (u, _), (t, out) = got[False], got[True]
        if t is not None:
            traced_jobs.append(i)
            counts[i] = out.counts
        if u is not None and t is not None:
            pairs.append(t / u - 1.0)
        i += 1
    return tr, traced_jobs, counts, pairs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def layer_metrics(tr, traced_jobs, counts, pairs, probes):
    per_job = tr.per_job()
    jobs = traced_jobs
    first = traced_jobs[:COUNT_JOBS]

    def ms(name):
        return _median([per_job[j][name][0] * 1e3 if name in per_job[j] else None
                        for j in jobs])

    def secs(j, names):
        return sum(per_job[j][n][0] for n in names if n in per_job[j])

    def evals(j, names):
        return sum(per_job[j][n][1] for n in names if n in per_job[j])

    def count(key):
        return _median([counts[j].get(key) for j in first])

    def rate(num, den):
        return num / den if num and den > 0 else None

    m = {
        "measure.common_reference_ms": ms("measure.common_reference"),
        "measure.refined_cells": count("refined_cells"),
        "divergence.tsallis_ms": ms("divergence.tsallis"),
        "kernel.cells_per_s": _median([rate(counts[j].get("kernel_cells"),
                                            secs(j, ["divergence.tsallis"])) for j in jobs]),
        "divergence.hellinger_ms": ms("divergence.hellinger"),
        "divergence.classify_ms": ms("divergence.classify"),
        "chernoff.info_ms": ms("chernoff.info"),
        "chernoff.objective_evals": count("objective_evals"),
        "chernoff.bayes_risk_ms": ms("chernoff.bayes_risk"),
        "disintegration.product_ms": ms("disintegration.product"),
        "quadrature.density_evals": _median([evals(j, QUAD_SPANS) for j in first]),
        "quadrature.evals_per_s": _median([rate(evals(j, QUAD_SPANS), secs(j, QUAD_SPANS))
                                           for j in jobs]),
        "model_io.load_ms": ms("model_io.load"),
        "sampler.sample_ms": ms("sampler.sample"),
        "sampler.points": count("sampler_points"),
        "sampler.density_evals": _median([evals(j, ["sampler.sample"]) for j in first]),
        "sampler.acceptance": _median([rate(counts[j].get("sampler_points"),
                                            evals(j, ["sampler.sample"])) for j in first]),
        "sampler.points_per_s": _median([rate(counts[j].get("sampler_points"),
                                              secs(j, ["sampler.sample"])) for j in jobs]),
        "likelihood.log_lr_ms": ms("likelihood.log_lr"),
        "likelihood.sigma_finite_ms": ms("likelihood.sigma_finite"),
        "likelihood.mc_ms": ms("likelihood.mc"),
        "likelihood.truncation_levels": count("truncation_levels"),
        "likelihood.mc_density_evals": _median([evals(j, ["likelihood.mc"]) for j in first]),
        "cli.divergence_ms": ms("cli.divergence"),
        "cli.loglr_ms": ms("cli.loglr"),
        "cli.sample_ms": ms("cli.sample"),
        "cli.chernoff_ms": ms("cli.chernoff"),
        "cli.import_ms": probes["import"],
        "cli.interpreter_ms": probes["interpreter"],
        "trace.overhead_pct": 100.0 * _median(pairs),
    }
    return {k: {"value": float(v), "unit": LAYER_METRICS[k]} for k, v in m.items()}


def probe_children(workdir):
    """Median wall time of ``python -c pass`` and ``python -c "import ppdiv"``."""
    from workloads import child_env, run_child
    env = child_env(SRC)
    out = {}
    for key, code in (("interpreter", "pass"), ("import", "import ppdiv")):
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            rc, _, err, _ = run_child([sys.executable, "-c", code], workdir, env, "probe")
            times.append(time.perf_counter() - t0)
            if rc != 0:
                raise RuntimeError(f"probe {code!r} failed: {err}")
        out[key] = statistics.median(times) * 1e3
    return out


def bench(workload, seed, seconds, trace):
    from spans import NULL
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    setup_s = None if trace else measure_setup(workload, seed)
    wd = _workdir(workload)
    try:
        ctx = wl.setup(seed, wd)
        wl.run(ctx, ctx.pool[0], NULL)   # warm-up, untimed
        gc.freeze()
        runner = Runner(wl, ctx)
        if not trace:
            times, child_rss = untraced_loop(runner, seconds)
            runner.finish()
            if not times:
                raise RuntimeError("every job failed")
            rss = max(child_rss) if workload == "cli" else \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
                "job_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
        else:
            tr, traced_jobs, counts, pairs = traced_loop(runner, seconds)
            runner.finish()
            if not traced_jobs:
                raise RuntimeError("every job failed")
            probes = probe_children(wd)
            metrics = layer_metrics(tr, traced_jobs, counts, pairs, probes)
            RESULTS.mkdir(exist_ok=True)
            tr.dump(RESULTS / f"trace-{workload}-seed{seed}.json",
                    {"workload": workload, "seed": seed, "metrics": metrics})
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# Self-check
# ---------------------------------------------------------------------------

def self_check():
    """One round of every workload at a tiny size: every check must accept
    the program's value and reject its perturbed value."""
    from spans import NULL
    from workloads import WORKLOADS
    ok = True
    for name, wl in WORKLOADS.items():
        wd = _workdir(name)
        try:
            ctx = wl.setup(20240401, wd, tiny=True)
            outs = [(job, wl.run(ctx, job, NULL)) for job in ctx.pool[:wl.round_len]]
            checks = [c for job, out in outs for c in wl.check(ctx, job, out)]
            checks += wl.run_checks(ctx, outs)
        finally:
            shutil.rmtree(wd, ignore_errors=True)
        fail = [c for c in checks if not c.passed()]
        blind = [c for c in checks if c.ok(c.bad)]
        print(f"{name}: {len(checks)} checks, {len(checks) - len(fail)} accept the output, "
              f"{len(checks) - len(blind)} reject a perturbed output")
        for c in fail:
            print(f"  FAILS on the output: {c.name} = {c.value!r}")
        for c in blind:
            print(f"  ACCEPTS a perturbed output: {c.name} = {c.bad!r}")
        ok = ok and bool(checks) and not fail and not blind
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("exact", "smooth-quad", "smooth-sample", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--self-check", action="store_true",
                    help="run every check on tiny inputs, against true and perturbed values")
    args = ap.parse_args(argv)
    _require_checkout()
    if args.self_check:
        return self_check()
    if not args.workload:
        ap.error("--workload is required")
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
