"""Command-line front end.

Subcommands: ``divergence`` (tables over orders), ``loglr`` (likelihood
ratio at a pattern), ``sample`` (pattern CSV batches), ``chernoff``
(information and optional risk simulation).  JSON output serialises
infinities as the strings ``"inf"`` / ``"-inf"``.  Exit codes: 0 success,
1 input error, 2 numeric failure (failed quadrature, or a density
that overflows).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import chernoff as _chernoff
from . import divergence as _divergence
from . import likelihood as _likelihood
from . import model_io as _io
from . import sampler as _sampler
from .errors import PPDivError, ParseError, QuadratureFailure
from .extended import fmt_extended
from .measure import MarkedModel, common_reference

_KINDS = ("tsallis", "renyi", "kl", "hellinger", "hellinger_pp")


def _load_pair(path_a, path_b):
    a = _io.load_model(path_a)
    b = _io.load_model(path_b)
    if isinstance(a, MarkedModel) or isinstance(b, MarkedModel):
        raise ParseError("divergence tables take plain intensity models")
    return common_reference(a, b), a, b


def _emit(args, payload: str):
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_divergence(args) -> int:
    pair, _, _ = _load_pair(args.model_a, args.model_b)
    alphas = ([_parse_number(float, a, "order") for a in args.alphas.split(",")]
              if args.alphas else [1.0])
    rows = []
    for alpha in alphas:
        if alpha < 0:
            raise ParseError(f"orders must be nonnegative, got {alpha}")
        if args.kind == "tsallis":
            rep = _divergence.tsallis(pair, alpha)
        elif args.kind == "renyi":
            rep = _divergence.renyi_pp(pair, alpha)
        elif args.kind == "kl":
            rep = _divergence.kl_pp(pair)
        elif args.kind == "hellinger":
            rep = _divergence.DivergenceReport(0.5, _divergence.hellinger_measures(pair), 0.0,
                                               ["hellinger distance of the intensities"])
        else:
            rep = _divergence.DivergenceReport(0.5, _divergence.hellinger_pp(pair), 0.0,
                                               ["hellinger distance of the pattern laws"])
        rows.append({"alpha": rep.alpha, "value": fmt_extended(rep.value),
                     "error_estimate": rep.quadrature_error_estimate,
                     "notes": rep.notes})
        if args.kind in ("kl", "hellinger", "hellinger_pp"):
            break
    if args.format == "json":
        _emit(args, json.dumps({"kind": args.kind, "rows": rows},
                               allow_nan=False, indent=2) + "\n")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["alpha", "value", "error_estimate", "notes"])
        for row in rows:
            writer.writerow([row["alpha"], row["value"],
                             row["error_estimate"], ";".join(row["notes"])])
        _emit(args, buf.getvalue())
    return 0


def cmd_loglr(args) -> int:
    if args.n_max < 1:
        raise ParseError(f"--n-max must be >= 1, got {args.n_max}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ParseError(f"--tol must be finite and >= 0, got {args.tol}")
    pair, _, _ = _load_pair(args.model_a, args.model_b)
    eta = _io.load_pattern(args.pattern, model=pair.reference)
    if args.sigma_finite:
        result = _likelihood.log_lr_sigma_finite(pair, eta, n_max=args.n_max,
                                                 tol=args.tol)
    else:
        result = _likelihood.log_lr_finite(pair, eta)
    out = {"in_support": result.in_support,
           "log_lr": fmt_extended(result.log_lr),
           "converged": result.converged}
    if result.truncation_trace is not None:
        out["trace"] = [[n, fmt_extended(v)] for n, v in result.truncation_trace]
    _emit(args, json.dumps(out, allow_nan=False, indent=2) + "\n")
    return 0


def cmd_sample(args) -> int:
    model = _io.load_model(args.model)
    window = _parse_window(args.window, model) if args.window else None
    if isinstance(model, MarkedModel) != args.marked:
        raise ParseError("--marked must match the model file kind")
    if args.seed < 0 or args.count < 0:
        raise ParseError(f"--seed and --count must be >= 0, got {args.seed} {args.count}")
    sample = _sampler.sample_marked if args.marked else _sampler.sample_pp
    patterns = [sample(model, window=window,
                       seed=np.random.SeedSequence(entropy=args.seed, spawn_key=(rep,)))
                for rep in range(args.count)]
    buf = io.StringIO()
    _io.patterns_to_csv(patterns, buf)
    _emit(args, buf.getvalue())
    return 0


def _parse_number(kind, text: str, what: str):
    try:
        return kind(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}") from None


def _parse_window(text: str, model):
    try:
        parts = text.split(",")
        if all(":" in p for p in parts):
            return tuple(tuple(float(v) for v in p.split(":")) for p in parts)
        return frozenset(_io.model_ids(parts, model))
    except ValueError as exc:
        raise ParseError(f"bad window {text!r}: {exc}") from exc


def cmd_chernoff(args) -> int:
    pair, _, _ = _load_pair(args.model_a, args.model_b)
    if args.simulate:
        n, trials, seed = (_parse_number(int, v, "--simulate value")
                           for v in args.simulate)
        if n < 1 or trials < 1 or seed < 0:
            raise ParseError(f"--simulate needs N, TRIALS >= 1 and SEED >= 0, "
                             f"got {n} {trials} {seed}")
        if not 0.0 <= args.prior0 <= 1.0:
            raise ParseError(f"--prior0 must lie in [0, 1], got {args.prior0}")
    result = _chernoff.chernoff_info(pair)
    out = {"C": fmt_extended(result.value),
           "alpha_star": result.argmax_alpha}
    if args.simulate:
        out["risk"], out["se"] = _chernoff.bayes_risk_sim(pair, args.prior0, n, trials, seed)
    _emit(args, json.dumps(out, allow_nan=False, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppdiv",
        description="Divergences, likelihood ratios, and samplers for "
                    "Poisson point-process intensity models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", help="divergence table over orders")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--alphas", default=None,
                   help="comma-separated nonnegative orders")
    p.add_argument("--kind", choices=_KINDS, default="tsallis")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("loglr", help="log-likelihood ratio at a pattern")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("pattern")
    p.add_argument("--sigma-finite", action="store_true")
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_loglr)

    p = sub.add_parser("sample", help="draw pattern replicates as CSV")
    p.add_argument("model")
    p.add_argument("--window", default=None,
                   help="box 'lo:hi[,lo:hi...]' or id list 'a,b,c'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--marked", action="store_true")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("chernoff", help="Chernoff information")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--simulate", nargs=3, metavar=("N", "TRIALS", "SEED"),
                   default=None)
    p.add_argument("--prior0", type=float, default=0.5)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_chernoff)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuadratureFailure, ArithmeticError) as exc:
        # an ArithmeticError comes from evaluating a density, e.g. exp(1000)
        # or sqrt(x - 2)
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (PPDivError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
