"""Truncated evaluation of the log-likelihood ratio for infinite-mass
intensities: ratio 1 + exp(-x) against Lebesgue on the half-line.

Shows one value beside its truncation trace, then checks that the
exponentiated ratio averages to one under the dominating law.

Usage: python scripts/truncation_demo.py [n_samples] [seed]
"""

import math
import sys

import numpy as np

from ppdiv import (SmoothIntensity, TruncatedLogLikelihood, common_reference,
                   sample_pp)

INF = math.inf


def main():
    n_samples = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    lam = SmoothIntensity([(0.0, INF)], lambda x: 1.0 + math.exp(-x),
                          density_bound=2.0)
    mu = SmoothIntensity([(0.0, INF)], lambda x: 1.0, density_bound=1.0)
    pair = common_reference(lam, mu)
    evaluator = TruncatedLogLikelihood(pair, n_max=30)

    window = SmoothIntensity([(0.0, 30.0)], lambda x: 1.0, density_bound=1.0)
    rng = np.random.default_rng(seed)

    eta = sample_pp(window, seed=rng)
    result = evaluator.evaluate(eta, tol=1e-10)
    print(f"one pattern with {len(eta)} points; value {result.log_lr:+.10f}; trace:")
    for n, value in result.truncation_trace:
        print(f"  n = {n:2d}   l = {value:+.10f}   l - value = {value - result.log_lr:+.1e}")
    print(f"converged: {result.converged}\n")

    ratios = np.empty(n_samples)
    for i in range(n_samples):
        eta = sample_pp(window, seed=rng)
        ratios[i] = math.exp(evaluator.evaluate(eta).log_lr)
    mean = ratios.mean()
    se = ratios.std(ddof=1) / math.sqrt(n_samples)
    print(f"mean of exp(l) over {n_samples} draws from the dominating law: "
          f"{mean:.4f} +- {se:.4f}   (target 1)")


if __name__ == "__main__":
    main()
