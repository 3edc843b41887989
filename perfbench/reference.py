"""Reference figures for the Baseline rows of ROADMAP.md, measured apart
from the workloads.

    python3 perfbench/reference.py

Each case is timed 3 times in this process (the CLI cases in child
processes) and the median is printed and written to
``perfbench/results/reference.json`` together with the machine.  The
997/1009-cell refinement takes about half a minute and is run once.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PPDIV_THREADS", None)

import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


REPEATS = 3


def main():
    if not (ROOT / "src" / "ppdiv" / "__init__.py").is_file():
        sys.stderr.write("reference: not a ppdiv checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import child_env, run_child

    env = child_env(ROOT / "src")
    rows = []

    def case(name, fn, repeats=REPEATS):
        seconds = _time(fn, repeats)
        rows.append({"name": name, "median_s": seconds, "repeats": repeats})
        print(f"{name:58s} {seconds * 1e3:10.1f} ms", flush=True)

    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as wd:
        def child(*argv):
            def go():
                rc, _, err, _ = run_child([sys.executable, *argv], wd, env, "ref")
                if rc != 0:
                    raise RuntimeError(err)
            return go

        Path(wd, "a.json").write_text(json.dumps(
            {"type": "grid", "bounds": [[0, 1]], "shape": [4], "values": [2, 0.5, 1.5, 3]}))
        Path(wd, "b.json").write_text(json.dumps(
            {"type": "grid", "bounds": [[0, 1]], "shape": [4], "values": [1, 1, 1, 1]}))
        case("python -c pass", child("-c", "pass"))
        case('python -c "import ppdiv"', child("-c", "import ppdiv"))
        case("ppdiv divergence, 4-cell grids, 4 orders",
             child("-m", "ppdiv.cli", "divergence", "a.json", "b.json",
                   "--alphas", "0,0.5,1,2"))

    import numpy as np
    import scipy
    import ppdiv as P

    rng = np.random.default_rng(1)
    v = rng.uniform(0.5, 3, 100_000)
    g1 = P.GridIntensity([(0.0, 1.0)], [100_000], v)
    g2 = P.GridIntensity([(0.0, 1.0)], [100_000], v[::-1].copy())
    g1_copy = P.GridIntensity([(0.0, 1.0)], [100_000], v)
    case("common_reference, identical 1e5-cell grids",
         lambda: P.common_reference(g1, g1_copy))
    pair5 = P.common_reference(g1, g2)
    case("tsallis exact, 1e5 cells", lambda: P.tsallis(pair5, 0.5))
    case("hellinger_measures, 1e5 cells", lambda: P.hellinger_measures(pair5))
    small = P.common_reference(P.GridIntensity([(0.0, 1.0)], [1000], v[:1000]),
                               P.GridIntensity([(0.0, 1.0)], [1000], v[1000:2000]))
    case("chernoff_info, 1e3-cell grid", lambda: P.chernoff_info(small))
    smooth = P.SmoothIntensity([(0.0, 1.0)], lambda x: 3000.0 * (1.0 + 0.5 * np.sin(6 * x)),
                               density_bound=4500.0)
    case("sample_pp, smooth model of mass about 3000", lambda: P.sample_pp(smooth, seed=3))
    atoms = P.common_reference(P.DiscreteIntensity({i: 1.0 + 0.1 * i for i in range(10)}),
                               P.DiscreteIntensity({i: 1.5 for i in range(10)}))
    case("bayes_risk_sim, n=10, 1e6 trials",
         lambda: P.bayes_risk_sim(atoms, 0.5, 10, 1_000_000, 7))
    sq = P.common_reference(
        P.SmoothIntensity([(0.0, 1.0), (0.0, 1.0)], lambda x0, x1: 2.0 + np.exp(-x0 * x1)),
        P.SmoothIntensity([(0.0, 1.0), (0.0, 1.0)], lambda x0, x1: 1.5 + 0.5 * np.cos(x0 + x1)))
    case("tsallis smooth 2-d (nested quadrature)", lambda: P.tsallis(sq, 0.5))
    half = P.common_reference(
        P.SmoothIntensity([(0.0, np.inf)], lambda x: 1.0 + np.exp(-x)),
        P.SmoothIntensity([(0.0, np.inf)], lambda x: 1.0))
    eta = P.PointPattern([(float(x), 1) for x in np.sort(rng.uniform(0, 15, 15))])
    case("TruncatedLogLikelihood.evaluate, n_max=30 (with set-up)",
         lambda: P.TruncatedLogLikelihood(half, n_max=30).evaluate(eta))
    a = P.GridIntensity([(0.0, 1.0)], [997], rng.uniform(0.5, 3, 997))
    b = P.GridIntensity([(0.0, 1.0)], [1009], rng.uniform(0.5, 3, 1009))
    case("common_reference, 997 vs 1009 cells (1.0M refined)",
         lambda: P.common_reference(a, b), repeats=1)

    doc = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": np.__version__, "scipy": scipy.__version__},
           "cases": rows}
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "reference.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["machine"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
