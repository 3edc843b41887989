"""The four workloads: input generators, jobs and their checks.

A job is one whole analysis of one pair of intensities (of eight pairs
in ``smooth-quad``, see :class:`SmoothQuad`).  Inputs for a
pool of jobs are generated from the benchmark seed before timing; the
timed loop cycles through the pool.  Jobs rebuild their ppdiv models from
plain numbers (or files) every time, so no cached property of an earlier
job is reused.  Each workload has

* ``setup(seed, workdir, tiny)`` -> context with ``pool`` (imports ppdiv),
* ``run(ctx, job, tr)`` -> outputs, every ppdiv call wrapped in a span,
* ``check(ctx, job, out)`` -> list of :class:`oracle.Check`,
* ``run_checks(ctx, outs)`` -> checks over the whole run, given the
  outputs of each pool job once.

``round_len`` is the number of jobs in one cycle of job kinds; runs stop
only at whole rounds.
"""

from __future__ import annotations

import csv
import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracle as O

ORDERS = (0.0, 0.5, 1.0, 2.0)
MARKS = {"type": "discrete", "atoms": [[1, 1.0], [2, 1.0], [3, 1.0]]}


def num(v) -> str:
    """Round-trippable literal of a float for a density expression."""
    return repr(float(v))


def _rng(seed, k):
    return np.random.default_rng([int(seed), int(k)])


def _coprime_near(n, target):
    for d in range(0, target):
        for m in (target + d, target - d):
            if m > 1 and math.gcd(m, n) == 1:
                return m
    raise ValueError("no co-prime cell count")


def _grid_pair_sizes(k, cells):
    """Co-prime cell counts whose product (the refinement) is near ``cells``;
    they depend on the pool slot ``k`` only, so every seed gets the same mix
    of refinement sizes."""
    root = int(round(math.sqrt(cells)))
    n1 = root - 3 + k % 8
    return n1, _coprime_near(n1, int(round(cells / n1)))


def _refined(v1, v2):
    """Densities of two co-prime grids on the product refinement."""
    return np.repeat(v1, len(v2)), np.repeat(v2, len(v1))


def _cell_values(values, length, x):
    idx = np.minimum((np.asarray(x, dtype=float) / (length / len(values))).astype(int),
                     len(values) - 1)
    return values[idx]


def _grid_loglr(v1, v2, length, locs, mults):
    """mu(S) - lambda(S) + sum mult * log(f / g) on [0, length]."""
    lam = math.fsum((v1 * (length / len(v1))).tolist())
    mu = math.fsum((v2 * (length / len(v2))).tolist())
    f = _cell_values(v1, length, locs)
    g = _cell_values(v2, length, locs)
    if np.any(f == 0.0):
        return -O.INF
    return mu - lam + math.fsum((np.asarray(mults) * np.log(f / g)).tolist())


def _pattern_arrays(eta):
    locs = np.array([float(loc) for loc, _ in eta.points])
    mults = np.array([m for _, m in eta.points], dtype=float)
    return locs, mults


# ---------------------------------------------------------------------------
# Smooth density families: one JSON expression and one numpy function from
# the same parameters.
# ---------------------------------------------------------------------------

@dataclass
class Density:
    expr: str
    fn: object  # numpy callable of one array per axis

    def spec(self, bounds, **extra):
        return {"type": "smooth",
                "bounds": [[lo, "inf" if math.isinf(hi) else hi] for lo, hi in bounds],
                "density": self.expr, **extra}


def bump(rng):
    a, b, c, d = rng.uniform(1, 2), rng.uniform(0.5, 1.5), rng.uniform(2, 5), rng.uniform(0.2, 0.8)
    return Density(f"{num(a)} + {num(b)}*exp(-{num(c)}*(x - {num(d)})**2)",
                   lambda x: a + b * np.exp(-c * (x - d) ** 2))


def wave(rng, scale=1.0):
    a, b, c, d = rng.uniform(1.5, 2.5), rng.uniform(0.3, 1.0), rng.uniform(1, 3), rng.uniform(0, 1)
    a, b = a * scale, b * scale
    return Density(f"{num(a)} + {num(b)}*sin({num(c)}*x + {num(d)})",
                   lambda x: a + b * np.sin(c * x + d))


def ramp(rng):
    a, b, c = rng.uniform(0.5, 1.5), rng.uniform(0.2, 1.0), rng.uniform(0.1, 0.5)
    return Density(f"{num(a)} + {num(b)}*x + {num(c)}*x**2",
                   lambda x: a + b * x + c * x ** 2)


def logish(rng):
    a, b, c = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), rng.uniform(1, 4)
    return Density(f"{num(a)} + {num(b)}*log1p({num(c)}*x)",
                   lambda x: a + b * np.log1p(c * x))


def saddle2(rng):
    a, b, c = rng.uniform(1.5, 2.5), rng.uniform(0.5, 1.0), rng.uniform(0.5, 2)
    return Density(f"{num(a)} + {num(b)}*exp(-{num(c)}*x0*x1)",
                   lambda x0, x1: a + b * np.exp(-c * x0 * x1))


def ripple2(rng):
    a, b, c, d = rng.uniform(1.5, 2.5), rng.uniform(0.3, 1.0), rng.uniform(1, 2), rng.uniform(1, 2)
    return Density(f"{num(a)} + {num(b)}*cos({num(c)}*x0 + {num(d)}*x1)",
                   lambda x0, x1: a + b * np.cos(c * x0 + d * x1))


@dataclass
class Kernel:
    """Mark kernel on marks {1, 2, 3}: (1 + e * s(t) * (x - 2)) / 3."""

    expr: str
    fn: object  # (t array, mark) -> array

    @staticmethod
    def make(rng, shape):
        e, c = rng.uniform(0.2, 0.6), rng.uniform(1, 3)
        if shape == "sin":
            return Kernel(f"(1 + {num(e)}*sin({num(c)}*t)*(x - 2))/3",
                          lambda t, x: (1 + e * np.sin(c * t) * (x - 2)) / 3)
        if shape == "decay":
            return Kernel(f"(1 + {num(e)}*exp(-t)*(x - 2))/3",
                          lambda t, x: (1 + e * np.exp(-t) * (x - 2)) / 3)
        return Kernel(f"(1 + {num(e)}*(x - 2))/3",
                      lambda t, x: (1 + e * (x - 2)) / 3 + 0.0 * t)


def _marked_spec(base_spec, kernel):
    return {"type": "marked", "base": base_spec, "mark_reference": MARKS,
            "mark_density": kernel.expr}


def _counted_smooth(P, m, tr):
    return P.SmoothIntensity(m.bounds, tr.counted(m.density), m.quadrature,
                             m.density_bound, m.expression)


def _load(P, tr, loader, arg):
    with tr.span("model_io.load"):
        m = loader(arg)
    if not tr.enabled:
        return m
    if isinstance(m, P.MarkedModel):
        return P.MarkedModel(_counted_smooth(P, m.base, tr), m.mark_reference,
                             tr.counted(m.mark_density))
    return _counted_smooth(P, m, tr)


def _import_ppdiv():
    import ppdiv
    from ppdiv import model_io
    return ppdiv, model_io


class Workload:
    round_len = 1

    def run_checks(self, ctx, outs):
        return []


# ---------------------------------------------------------------------------
# exact: grids, discrete marked pairs, Chernoff, Bayes risk
# ---------------------------------------------------------------------------

class Exact(Workload):
    """Exact sums only: grid refinement, the per-cell kernel loop and the
    Chernoff search; no quadrature and no thinning."""

    name = "exact"
    pool_size = 8

    def setup(self, seed, workdir, tiny=False):
        P, _ = _import_ppdiv()
        cells, ccells = (100, 36) if tiny else (10_000, 1_000)
        pool = [self._job(_rng(seed, k), k, cells, ccells) for k in range(self.pool_size)]
        return SimpleNamespace(P=P, pool=pool)

    @staticmethod
    def _job(rng, k, cells, ccells):
        j = SimpleNamespace()
        j.L = 1.0 + k % 2
        j.n1, j.n2 = _grid_pair_sizes(k, cells)
        j.v1 = rng.uniform(5, 30, j.n1)
        j.v1[rng.choice(j.n1, max(1, j.n1 // 10), replace=False)] = 0.0
        j.v2 = rng.uniform(5, 30, j.n2)
        j.m1, j.m2 = _grid_pair_sizes(k + 3, ccells)
        j.c1, j.c2 = rng.uniform(0.5, 3, j.m1), rng.uniform(0.5, 3, j.m2)
        atoms = 12
        j.ids = [f"a{i}" for i in range(atoms)]
        j.wf, j.wg = rng.uniform(0.5, 2.5, atoms), rng.uniform(0.5, 2.5, atoms)
        kf = rng.dirichlet([5, 5, 5], atoms)
        kg = rng.dirichlet([5, 5, 5], atoms)
        j.kf = {pid: {x + 1: float(kf[i, x]) for x in range(3)} for i, pid in enumerate(j.ids)}
        j.kg = {pid: {x + 1: float(kg[i, x]) for x in range(3)} for i, pid in enumerate(j.ids)}
        j.c_discrete = O.chernoff_grid(np.ones(atoms), j.wf, j.wg)
        j.n_obs = max(1, math.ceil(2.0 / j.c_discrete))
        j.trials = 20_000
        j.seeds = [int(s) for s in rng.integers(0, 2**32, 5)]
        j.mc_samples = 2000
        return j

    def run(self, ctx, j, tr):
        P = ctx.P
        out = SimpleNamespace(counts={})
        a = P.GridIntensity([(0.0, j.L)], [j.n1], j.v1)
        b = P.GridIntensity([(0.0, j.L)], [j.n2], j.v2)
        with tr.span("measure.common_reference"):
            pair = P.common_reference(a, b)
        out.tsallis = []
        for alpha in ORDERS:
            with tr.span("divergence.tsallis"):
                out.tsallis.append(P.tsallis(pair, alpha).value)
        with tr.span("divergence.hellinger"):
            out.hellinger = P.hellinger_measures(pair)
        with tr.span("divergence.classify"):
            out.verdict = P.classify_pp_relation(pair)

        ca = P.GridIntensity([(0.0, j.L)], [j.m1], j.c1)
        cb = P.GridIntensity([(0.0, j.L)], [j.m2], j.c2)
        with tr.span("measure.common_reference"):
            cpair = P.common_reference(ca, cb)
        with tr.span("chernoff.info"):
            out.chernoff = P.chernoff_info(cpair)

        out.patterns = []
        for model, seed in ((a, j.seeds[0]), (a, j.seeds[1]), (b, j.seeds[2])):
            with tr.span("sampler.sample"):
                eta = P.sample_pp(model, seed=seed)
            with tr.span("likelihood.log_lr"):
                res = P.log_lr_finite(pair, eta)
            out.patterns.append((eta, res))

        da = P.DiscreteIntensity(list(zip(j.ids, j.wf.tolist())))
        db = P.DiscreteIntensity(list(zip(j.ids, j.wg.tolist())))
        marks = P.DiscreteIntensity({1: 1.0, 2: 1.0, 3: 1.0})
        K = P.MarkedModel(da, marks, lambda t, x, tab=j.kf: tab[t][x])
        L = P.MarkedModel(db, marks, lambda t, x, tab=j.kg: tab[t][x])
        with tr.span("measure.common_reference"):
            dpair = P.common_reference(da, db)
        out.product = []
        for alpha in ORDERS:
            with tr.span("disintegration.product"):
                out.product.append(P.tsallis_product(dpair, K, L, alpha).value)
        with tr.span("likelihood.mc"):
            out.mc = P.mc_divergence_estimate(dpair, 1.0, j.mc_samples, j.seeds[3])
        with tr.span("chernoff.bayes_risk"):
            out.risk = P.bayes_risk_sim(dpair, 0.5, j.n_obs, j.trials, j.seeds[4])

        out.counts = {
            "refined_cells": len(pair.f) + len(cpair.f) + len(dpair.f),
            "kernel_cells": len(pair.f) * len(ORDERS),
            "objective_evals": out.chernoff.iterations,
            "sampler_points": sum(len(eta) for eta, _ in out.patterns),
        }
        return out

    def check(self, ctx, j, out):
        checks = []
        fa, fb = _refined(j.v1, j.v2)
        w = np.full(len(fa), j.L / len(fa))
        for alpha, got in zip(ORDERS, out.tsallis):
            checks.append(O.close(f"tsallis[{alpha}]", got, O.tsallis_sum(w, fa, fb, alpha),
                                  1e-10, 1e-12))
        checks.append(O.close("2H^2 = T_1/2", 2 * out.hellinger ** 2, out.tsallis[1],
                              1e-10, 1e-12))
        h = O.hellinger_sum(w, fa, fb)
        checks.append(O.close("hellinger", out.hellinger, h, 1e-10, 1e-12))
        v = out.verdict
        checks.append(O.equal("classify.relation", v.relation.value,
                              "AbsolutelyContinuous", "MutuallyAC"))
        checks.append(O.close("classify.t0_forward", v.t0_forward,
                              O.weighted_sum(w, np.where(fa == 0, fb, 0.0)), 1e-10, 1e-12))
        checks.append(O.close("classify.t0_backward", v.t0_backward, 0.0, 0.0, 1e-12))
        checks.append(O.close("classify.hellinger_sq", v.hellinger_sq, h * h, 1e-10, 1e-12))

        ca, cb = _refined(j.c1, j.c2)
        grid_max = O.chernoff_grid(np.full(len(ca), j.L / len(ca)), ca, cb)
        c = out.chernoff.value
        checks.append(O.at_least("chernoff >= grid max", c, grid_max - 1e-10 * (1 + grid_max)))
        checks.append(O.at_most("chernoff <= grid max + 1e-6", c, grid_max + 1e-6))

        for i, (eta, res) in enumerate(out.patterns):
            locs, mults = _pattern_arrays(eta)
            checks.append(O.inside(f"pattern[{i}] in domain", locs, [(0.0, j.L)]))
            want = _grid_loglr(j.v1, j.v2, j.L, locs, mults)
            checks.append(O.close(f"log_lr[{i}]", res.log_lr, want, 1e-10, 1e-10))
            checks.append(O.equal(f"in_support[{i}]", res.in_support, want > -O.INF,
                                  not want > -O.INF))

        ones = np.ones(len(j.ids) * 3)
        flat_f = np.array([j.wf[i] * j.kf[t][x] for i, t in enumerate(j.ids) for x in (1, 2, 3)])
        flat_g = np.array([j.wg[i] * j.kg[t][x] for i, t in enumerate(j.ids) for x in (1, 2, 3)])
        for alpha, got in zip(ORDERS, out.product):
            checks.append(O.close(f"tsallis_product[{alpha}]", got,
                                  O.tsallis_sum(ones, flat_f, flat_g, alpha), 1e-10, 1e-12))

        kl = O.tsallis_sum(np.ones(len(j.ids)), j.wf, j.wg, 1.0)
        se_true = math.sqrt(float(np.sum(j.wf * np.log(j.wf / j.wg) ** 2)) / j.mc_samples)
        est, se = out.mc
        checks.append(O.close("mc estimate within 5 se", est, kl, 0.0, 5 * se_true))
        checks.append(O.close("mc standard error", se, se_true, 0.25))
        risk, rse = out.risk
        checks.append(O.at_most("bayes risk - 3 se <= exp(-nC)/2", risk - 3 * rse,
                                0.5 * math.exp(-j.n_obs * j.c_discrete)))
        return checks


# ---------------------------------------------------------------------------
# smooth-quad: QUADPACK over compiled densities
# ---------------------------------------------------------------------------

_PAIRS_1D = [(bump, wave), (wave, ramp), (ramp, logish), (logish, bump),
             (bump, ramp), (wave, logish)]


class SmoothQuad(Workload):
    """Smooth pairs loaded from JSON.  One job analyses a set of eight
    pairs: six 1-d boxes, one 2-d box and one half-line pair.  With one
    pair per job the median fell between the clusters of 1-d job costs
    (about 6.5 ms and 11 ms) and moved by a third from seed to seed; a set
    of eight makes every job the same mix."""

    name = "smooth-quad"
    pool_size = 8
    pairs_per_job = 8
    alpha_compound = 0.5

    def setup(self, seed, workdir, tiny=False):
        P, model_io = _import_ppdiv()
        pool = [[self._pair(_rng(seed, k * self.pairs_per_job + slot), slot,
                            Path(workdir) / f"quad{k}_{slot}")
                 for slot in range(self.pairs_per_job)]
                for k in range(self.pool_size)]
        return SimpleNamespace(P=P, io=model_io, pool=pool)

    @staticmethod
    def _pair(rng, slot, stem):
        j = SimpleNamespace()
        if slot < 6:
            fam_a, fam_b = _PAIRS_1D[slot]
            j.bounds = ((0.0, 1.0 + slot % 2),)
            j.fa, j.fb = fam_a(rng), fam_b(rng)
            shape = "sin"
        elif slot == 6:
            j.bounds = ((0.0, 1.0), (0.0, 1.0))
            j.fa, j.fb = saddle2(rng), ripple2(rng)
            shape = "flat"
        else:
            j.bounds = ((0.0, math.inf),)
            a, b, c = rng.uniform(0.8, 1.2), rng.uniform(0.5, 1.5), rng.uniform(0.8, 1.5)
            j.fa = Density(f"{num(a)} + {num(b)}*exp(-{num(c)}*x)",
                           lambda x, a=a, b=b, c=c: a + b * np.exp(-c * x))
            j.fb = Density(num(a), lambda x, a=a: np.full_like(x, a))
            shape = "decay"
        j.ka, j.kb = Kernel.make(rng, shape), Kernel.make(rng, shape)
        j.paths = []
        for tag, dens, kern in (("a", j.fa, j.ka), ("b", j.fb, j.kb)):
            path = Path(f"{stem}_{tag}.json")
            path.write_text(json.dumps(_marked_spec(dens.spec(j.bounds), kern)))
            j.paths.append(str(path))
        return j

    def run(self, ctx, job, tr):
        P = ctx.P
        outs = []
        for j in job:
            out = SimpleNamespace()
            K = _load(P, tr, ctx.io.load_model, j.paths[0])
            L = _load(P, tr, ctx.io.load_model, j.paths[1])
            with tr.span("measure.common_reference"):
                pair = P.common_reference(K.base, L.base)
            out.tsallis = []
            for alpha in ORDERS:
                with tr.span("divergence.tsallis"):
                    out.tsallis.append(P.tsallis(pair, alpha).value)
            with tr.span("divergence.hellinger"):
                out.hellinger = P.hellinger_measures(pair)
            with tr.span("divergence.classify"):
                out.verdict = P.classify_pp_relation(pair)
            with tr.span("disintegration.product"):
                out.compound = P.compound_renyi(pair, K, L, self.alpha_compound).value
            outs.append(out)
        return SimpleNamespace(pairs=outs, counts={})

    def check(self, ctx, job, out):
        checks = []
        for i, (j, o) in enumerate(zip(job, out.pairs)):
            xs, w = O.box_rule(j.bounds)
            f, g = j.fa.fn(*xs), j.fb.fn(*xs)
            for alpha, got in zip(ORDERS, o.tsallis):
                checks.append(O.close(f"[{i}] tsallis[{alpha}]", got,
                                      O.tsallis_sum(w, f, g, alpha), 1e-8, 1e-10))
            h = O.hellinger_sum(w, f, g)
            checks.append(O.close(f"[{i}] hellinger", o.hellinger, h, 1e-8, 1e-10))
            v = o.verdict
            checks.append(O.equal(f"[{i}] classify.relation", v.relation.value, "MutuallyAC",
                                  "Neither"))
            checks.append(O.close(f"[{i}] classify.hellinger_sq", v.hellinger_sq, h * h,
                                  1e-8, 1e-10))
            t = xs[0]  # the 2-d kernels do not depend on the location
            flat = sum(O.renyi_kernel(f * j.ka.fn(t, x), g * j.kb.fn(t, x),
                                      self.alpha_compound) for x in (1.0, 2.0, 3.0))
            checks.append(O.close(f"[{i}] compound_renyi", o.compound,
                                  O.weighted_sum(w, flat), 1e-8, 1e-10))
        return checks


# ---------------------------------------------------------------------------
# smooth-sample: thinning, pointwise ratios, sigma-finite and Monte Carlo
# ---------------------------------------------------------------------------

HALF_LAMBDA = {"type": "smooth", "bounds": [[0, "inf"]], "density": "1 + exp(-x)"}
HALF_MU = {"type": "smooth", "bounds": [[0, "inf"]], "density": "1"}


class SmoothSample(Workload):
    """Thinning samples from smooth models of mass 1e2 to 1e3, with and
    without a supplied density bound."""

    name = "smooth-sample"
    pool_size = 16
    n_max = 60

    def setup(self, seed, workdir, tiny=False):
        P, model_io = _import_ppdiv()
        scale = 0.1 if tiny else 1.0
        pool = []
        for k in range(self.pool_size):
            rng = _rng(seed, k)
            j = SimpleNamespace()
            j.bounds = ((0.0, 2.0),)
            A, b, c, d = rng.uniform(440, 460) * scale, rng.uniform(0.3, 0.6), \
                rng.uniform(2, 5), rng.uniform(0, 1)
            j.lam = Density(f"{num(A)}*(1 + {num(b)}*sin({num(c)}*x + {num(d)}))",
                            lambda x, A=A, b=b, c=c, d=d: A * (1 + b * np.sin(c * x + d)))
            j.lam_spec = j.lam.spec(j.bounds, density_bound=A * (1 + b))
            B, b2, c2, d2 = rng.uniform(55, 65) * scale, rng.uniform(0.5, 1.0), \
                rng.uniform(1, 3), rng.uniform(0.5, 1.5)
            j.mu = Density(f"{num(B)}*(1 + {num(b2)}*exp(-{num(c2)}*(x - {num(d2)})**2))",
                           lambda x, B=B, b2=b2, c2=c2, d2=d2:
                           B * (1 + b2 * np.exp(-c2 * (x - d2) ** 2)))
            j.mu_spec = j.mu.spec(j.bounds)
            C, b3, c3 = rng.uniform(55, 65) * scale, rng.uniform(0.3, 0.6), rng.uniform(1, 3)
            j.nu = Density(f"{num(C)}*(1 + {num(b3)}*sin({num(c3)}*x))",
                           lambda x, C=C, b3=b3, c3=c3: C * (1 + b3 * np.sin(c3 * x)))
            j.nu_spec = j.nu.spec(j.bounds)
            j.seeds = [int(s) for s in rng.integers(0, 2**32, 5)]
            j.mc_samples = 20
            # Points stay below 5: further out, a point's log(1 + e^-x) can cancel
            # the compensator increment of its level, and the evaluator then stops
            # early and reports convergence with an error above 1e-6 (about 3 in
            # 1000 patterns on [0, 15]; see CHANGES.md).
            j.half_points = [np.sort(rng.uniform(0.0, 5.0, int(rng.integers(10, 20))))
                             for _ in range(3)]
            pool.append(j)
        return SimpleNamespace(P=P, io=model_io, pool=pool)

    def run(self, ctx, j, tr):
        P = ctx.P
        out = SimpleNamespace(counts={})
        lam = _load(P, tr, ctx.io.model_from_dict, j.lam_spec)
        mu = _load(P, tr, ctx.io.model_from_dict, j.mu_spec)
        nu = _load(P, tr, ctx.io.model_from_dict, j.nu_spec)
        with tr.span("measure.common_reference"):
            pair = P.common_reference(lam, mu)
        out.patterns = []
        for model, seed, role in ((lam, j.seeds[0], "lam"), (lam, j.seeds[1], "lam"),
                                  (mu, j.seeds[2], "mu"), (mu, j.seeds[3], "mu")):
            with tr.span("sampler.sample"):
                eta = P.sample_pp(model, seed=seed)
            with tr.span("likelihood.log_lr"):
                res = P.log_lr_finite(pair, eta)
            out.patterns.append((eta, res, role))

        hl = _load(P, tr, ctx.io.model_from_dict, HALF_LAMBDA)
        hm = _load(P, tr, ctx.io.model_from_dict, HALF_MU)
        with tr.span("measure.common_reference"):
            hpair = P.common_reference(hl, hm)
        with tr.span("likelihood.sigma_finite"):
            evaluator = P.TruncatedLogLikelihood(hpair, n_max=self.n_max)
        out.half = []
        for pts in j.half_points:
            eta = P.PointPattern([(float(x), 1) for x in pts])
            with tr.span("likelihood.sigma_finite"):
                out.half.append(evaluator.evaluate(eta))

        with tr.span("measure.common_reference"):
            mc_pair = P.common_reference(mu, nu)
        with tr.span("likelihood.mc"):
            out.mc = P.mc_divergence_estimate(mc_pair, 1.0, j.mc_samples, j.seeds[4])
        out.counts = {
            "sampler_points": sum(len(eta) for eta, _, _ in out.patterns),
            "truncation_levels": max(len(r.truncation_trace) for r in out.half),
        }
        return out

    @staticmethod
    def _mass(dens, bounds):
        xs, w = O.box_rule(bounds)
        return O.weighted_sum(w, dens.fn(*xs))

    def check(self, ctx, j, out):
        checks = []
        lam_mass, mu_mass = self._mass(j.lam, j.bounds), self._mass(j.mu, j.bounds)
        for i, (eta, res, _) in enumerate(out.patterns):
            locs, mults = _pattern_arrays(eta)
            checks.append(O.inside(f"pattern[{i}] in window", locs, j.bounds))
            want = mu_mass - lam_mass + math.fsum(
                (mults * np.log(j.lam.fn(locs) / j.mu.fn(locs))).tolist())
            checks.append(O.close(f"log_lr[{i}]", res.log_lr, want, 1e-9, 1e-9))
        for i, (pts, res) in enumerate(zip(j.half_points, out.half)):
            want = math.fsum(np.log1p(np.exp(-pts)).tolist()) - 1.0
            checks.append(O.close(f"sigma-finite log_lr[{i}]", res.log_lr, want, 0.0, 1e-6))
            checks.append(O.equal(f"sigma-finite converged[{i}]", res.converged, True, False))
        xs, w = O.box_rule(j.bounds)
        m, n = j.mu.fn(*xs), j.nu.fn(*xs)
        kl = O.tsallis_sum(w, m, n, 1.0)
        se_true = math.sqrt(O.weighted_sum(w, m * np.log(m / n) ** 2) / j.mc_samples)
        est, se = out.mc
        checks.append(O.close("mc estimate within 5 se", est, kl, 0.0, 5 * se_true))
        # with 20 samples, a reported se outside [se/3, 3 se] has odds far below 1e-6
        checks.append(O.at_least("mc standard error >= se/3", se, se_true / 3))
        checks.append(O.at_most("mc standard error <= 3 se", se, 3 * se_true))
        return checks

    def run_checks(self, ctx, outs):
        """Sampled counts over the run against the model masses; ``outs``
        holds each pool job once, since repeats reuse the sampler seeds."""
        checks = []
        for role in ("lam", "mu"):
            drawn, mass = 0, 0.0
            for j, out in outs:
                for eta, _, r in out.patterns:
                    if r == role:
                        drawn += len(eta)
                        mass += self._mass(getattr(j, role), j.bounds)
            if mass > 0:
                checks.append(O.close(f"sampled count of {role} over the run", drawn, mass,
                                      0.0, 5 * math.sqrt(mass)))
        return checks


# ---------------------------------------------------------------------------
# cli: one child process per job
# ---------------------------------------------------------------------------

CLI_KINDS = ("divergence-grid", "divergence-smooth", "loglr", "sample", "chernoff")


def child_env(src):
    env = {k: v for k, v in os.environ.items() if k != "PPDIV_THREADS"}
    env["PYTHONPATH"] = str(src)
    return env


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def run_child(argv, cwd, env, stem, timeout=120):
    """Run one child to its end.  Returns (exit code, stdout, stderr,
    peak RSS in MB of that child alone)."""
    out_path, err_path = Path(cwd) / f"{stem}.out", Path(cwd) / f"{stem}.err"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fo, stderr=fe,
                                stdin=subprocess.DEVNULL)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except _Timeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(),
            usage.ru_maxrss / 1024.0)


class Cli(Workload):
    """One ``python -m ppdiv.cli`` child per job, one at a time, cycling
    through the subcommands."""

    name = "cli"
    round_len = len(CLI_KINDS)
    pool_size = 2 * len(CLI_KINDS)

    def setup(self, seed, workdir, tiny=False):
        P, model_io = _import_ppdiv()
        import jsonschema
        root = Path(__file__).resolve().parent.parent
        schema = json.loads((root / "docs" / "schema.json").read_text())
        validators = {name: jsonschema.Draft202012Validator({**schema, "$ref": f"#/$defs/{name}"})
                      for name in ("divergence", "loglr", "chernoff")}
        ctx = SimpleNamespace(P=P, workdir=str(workdir), env=child_env(root / "src"),
                              validators=validators, pool=[])
        wd = Path(workdir)

        def write(name, spec):
            (wd / name).write_text(json.dumps(spec))
            return name

        for k in range(self.pool_size):
            rng = _rng(seed, k)
            kind = CLI_KINDS[k % self.round_len]
            j = SimpleNamespace(kind=kind)
            if kind in ("divergence-grid", "loglr"):
                j.n1, j.n2 = _grid_pair_sizes(k, 64)
                j.v1, j.v2 = rng.uniform(0.5, 3, j.n1), rng.uniform(0.5, 3, j.n2)
                if kind == "divergence-grid":
                    j.v1[int(rng.integers(j.n1))] = 0.0
                files = [write(f"cli{k}_{t}.json", {"type": "grid", "bounds": [[0, 1]],
                                                    "shape": [n], "values": v.tolist()})
                         for t, n, v in (("a", j.n1, j.v1), ("b", j.n2, j.v2))]
                if kind == "divergence-grid":
                    j.args = ["divergence", *files, "--alphas", "0,0.5,1,2"]
                else:
                    j.locs = rng.uniform(0, 1, int(rng.integers(5, 15)))
                    j.mults = rng.integers(1, 3, len(j.locs))
                    with open(wd / f"cli{k}_pattern.csv", "w", newline="") as fh:
                        w = csv.writer(fh)
                        w.writerow(["loc_1", "multiplicity"])
                        w.writerows([[repr(float(x)), int(m)] for x, m in zip(j.locs, j.mults)])
                    j.args = ["loglr", *files, f"cli{k}_pattern.csv"]
            elif kind == "divergence-smooth":
                j.bounds = ((0.0, 1.0),)
                j.fa, j.fb = bump(rng), wave(rng)
                files = [write(f"cli{k}_{t}.json", d.spec(j.bounds))
                         for t, d in (("a", j.fa), ("b", j.fb))]
                j.args = ["divergence", *files, "--alphas", "0.5,1,2"]
            elif kind == "sample":
                j.bounds = ((0.0, 1.0),)
                dens = wave(rng, scale=20.0)
                spec = dens.spec(j.bounds, density_bound=float(dens.fn(np.linspace(0, 1, 4001)).max()) * 1.5)
                j.args = ["sample", write(f"cli{k}_m.json", spec), "--seed",
                          str(int(rng.integers(0, 2**31))), "--count", "3"]
            else:
                atoms = 8
                j.wf, j.wg = rng.uniform(0.5, 2.5, atoms), rng.uniform(0.5, 2.5, atoms)
                files = [write(f"cli{k}_{t}.json", {"type": "discrete",
                                                    "atoms": [[f"s{i}", float(v)]
                                                              for i, v in enumerate(wv)]})
                         for t, wv in (("a", j.wf), ("b", j.wg))]
                j.c = O.chernoff_grid(np.ones(atoms), j.wf, j.wg)
                j.n_obs = max(1, math.ceil(2.0 / j.c))
                j.args = ["chernoff", *files, "--simulate", str(j.n_obs), "20000",
                          str(int(rng.integers(0, 2**31)))]
            ctx.pool.append(j)
        # one untimed call, so that the first timed job finds warm caches
        code, _, err, _ = self._call(ctx, ctx.pool[0].args, "warmup")
        if code != 0:
            raise RuntimeError(f"warm-up call failed: {err}")
        return ctx

    @staticmethod
    def _call(ctx, args, stem):
        return run_child([sys.executable, "-m", "ppdiv.cli", *args], ctx.workdir,
                         ctx.env, stem)

    def run(self, ctx, j, tr):
        with tr.span("cli." + j.kind.split("-")[0]):
            code, stdout, stderr, rss = self._call(ctx, j.args, "job")
        return SimpleNamespace(code=code, stdout=stdout, stderr=stderr, rss=rss, counts={})

    def check(self, ctx, j, out):
        checks = [O.equal("exit code", out.code, 0, 1)]
        if out.code != 0:
            sys.stderr.write(out.stderr)
            return checks
        if j.kind == "sample":
            rows = list(csv.reader(out.stdout.splitlines()))
            checks.append(O.equal("csv header", rows[0],
                                  ["replicate", "loc_1", "multiplicity"], []))
            body = rows[1:]
            checks.append(O.inside("csv locations in domain",
                                   [float(r[1]) for r in body], j.bounds))
            checks.append(O.inside("csv replicate ids", [int(r[0]) for r in body], [(0, 2)]))
            checks.append(O.at_least("csv multiplicities", min((int(r[2]) for r in body),
                                                               default=1), 1))
            return checks
        doc = json.loads(out.stdout)
        schema = "chernoff" if j.kind == "chernoff" else \
            "loglr" if j.kind == "loglr" else "divergence"
        validator = ctx.validators[schema]
        checks.append(O.Check(f"{schema} schema", validator.is_valid, doc, {}))
        if j.kind == "divergence-grid":
            fa, fb = _refined(j.v1, j.v2)
            w = np.full(len(fa), 1.0 / len(fa))
            for row in doc["rows"]:
                checks.append(O.close(f"tsallis[{row['alpha']}]", _ext(row["value"]),
                                      O.tsallis_sum(w, fa, fb, row["alpha"]), 1e-10, 1e-12))
        elif j.kind == "divergence-smooth":
            xs, w = O.box_rule(j.bounds)
            f, g = j.fa.fn(*xs), j.fb.fn(*xs)
            for row in doc["rows"]:
                checks.append(O.close(f"tsallis[{row['alpha']}]", _ext(row["value"]),
                                      O.tsallis_sum(w, f, g, row["alpha"]), 1e-8, 1e-10))
        elif j.kind == "loglr":
            want = _grid_loglr(j.v1, j.v2, 1.0, j.locs, j.mults)
            checks.append(O.close("log_lr", _ext(doc["log_lr"]), want, 1e-10, 1e-10))
        else:
            c = _ext(doc["C"])
            checks.append(O.at_least("chernoff >= grid max", c, j.c - 1e-10 * (1 + j.c)))
            checks.append(O.at_most("chernoff <= grid max + 1e-6", c, j.c + 1e-6))
            checks.append(O.at_most("bayes risk - 3 se <= exp(-nC)/2",
                                    doc["risk"] - 3 * doc["se"], 0.5 * math.exp(-j.n_obs * j.c)))
        return checks


def _ext(v):
    return {"inf": math.inf, "-inf": -math.inf}.get(v, v) if isinstance(v, str) else float(v)


WORKLOADS = {w.name: w for w in (Exact(), SmoothQuad(), SmoothSample(), Cli())}
