"""Command-line interface.

Four subcommands:

* ``integrate``: evaluate one integral (expression-defined or from the
  benchmark catalog) and print a JSON object.
* ``sweep``: evaluate a catalog integral over a log-spaced parameter sweep
  and write one CSV row per sample.
* ``compare``: time the adaptive collocation method against the adaptive
  Gauss-Legendre reference over random parameter ranges and write the
  per-range summary as CSV.
* ``selftest``: run the built-in invariant suite.

Exit codes: 0 success, 1 a computation did not converge (or a self-test
failed), 2 bad flags/expressions.  All floating-point output is rendered
with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

import numpy as np

from . import expr as exprmod
from . import reference, selftest
from .adaptive import AdaptiveConfig, adaptive_integrate
from .levin import Integrand
from .linalg import EPS0


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if not _ or not name:
            raise SystemExit2(f"bad --param {pair!r}, expected name=value")
        try:
            params[name] = float(value)
        except ValueError:
            raise SystemExit2(f"bad --param value in {pair!r}")
    return params


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _config_from_args(args, params) -> AdaptiveConfig:
    eps = args.eps
    if getattr(args, "eps_scale", None) == "sqrt-kappa":
        kappa = params.get("kappa")
        if kappa is None:
            raise SystemExit2("--eps-scale sqrt-kappa needs --param kappa=...")
        eps = EPS0 * float(np.sqrt(kappa))
    return AdaptiveConfig(eps=eps, k=args.k, solver=args.solver)


def _build_expr_integrand(args, params):
    try:
        f_re = exprmod.compile_fn(exprmod.parse(args.f), params)
        g_fn = exprmod.compile_fn(exprmod.parse(args.g), params)
        f_im = (exprmod.compile_fn(exprmod.parse(args.f_imag), params)
                if args.f_imag else None)
    except (exprmod.ParseError, exprmod.EvalError) as exc:
        raise SystemExit2(str(exc))
    if f_im is None:
        f_fn = f_re
    else:
        def f_fn(x):
            return f_re(x) + 1j * f_im(x)
    return Integrand(f=f_fn, g=g_fn, kernel=args.kernel)


def cmd_integrate(args) -> int:
    params = _parse_params(args.param)
    config = _config_from_args(args, params)
    t0 = time.perf_counter()
    if args.paper_integral:
        try:
            result = reference.evaluate_levin(args.paper_integral, params, config)
        except (KeyError, ValueError) as exc:
            raise SystemExit2(str(exc))
    else:
        if not args.f or not args.g:
            raise SystemExit2("either --paper-integral or both --f and --g are required")
        if args.a is None or args.b is None:
            raise SystemExit2("--a and --b are required with --f/--g")
        integrand = _build_expr_integrand(args, params)
        try:
            result = adaptive_integrate(integrand, args.a, args.b, config)
        except ValueError as exc:
            raise SystemExit2(str(exc))
    seconds = time.perf_counter() - t0
    print("{"
          f"\"value_re\": {_fmt(result.value.real)}, "
          f"\"value_im\": {_fmt(result.value.imag)}, "
          f"\"intervals\": {result.intervals_used}, "
          f"\"fevals\": {result.fevals}, "
          f"\"status\": \"{result.status}\", "
          f"\"seconds\": {_fmt(0.0 if args.no_timing else seconds)}"
          "}")
    return 0 if result.status == "converged" else 1


def _sweep_values(args):
    lo, _, hi = args.decades.partition(":")
    try:
        lo = float(lo)
        hi = float(hi)
    except ValueError:
        raise SystemExit2(f"bad --decades {args.decades!r}, expected LO:HI")
    if args.count < 1 or hi <= lo:
        raise SystemExit2("empty sweep range")
    exponents = np.linspace(lo, hi, args.count)
    return 10.0 ** exponents


def cmd_sweep(args) -> int:
    params = _parse_params(args.param)
    sweep_param = args.sweep
    values = _sweep_values(args)
    grid_vals = [None]
    grid_name = None
    if args.grid_param:
        grid_name, _, items = args.grid_param.partition("=")
        if not items:
            raise SystemExit2(f"bad --grid-param {args.grid_param!r}")
        grid_vals = [float(v) for v in items.split(",")]
    entry = reference.CATALOG.get(args.paper_integral)
    if entry is None:
        raise SystemExit2(f"unknown integral {args.paper_integral!r}")
    rows = []
    worst_status = 0
    for gv in grid_vals:
        for value in values:
            run_params = dict(params)
            run_params[sweep_param] = float(value)
            if grid_name is not None:
                run_params[grid_name] = gv
            config = _config_from_args(args, run_params)
            try:
                times = []
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    result = reference.evaluate_levin(args.paper_integral,
                                                      run_params, config)
                    times.append(time.perf_counter() - t0)
                seconds = float(np.median(times))
            except (KeyError, ValueError) as exc:
                raise SystemExit2(str(exc))
            abs_err = ""
            if entry.has_closed_form:
                target = reference.closed_form_value(args.paper_integral, run_params)
                abs_err = _fmt(abs(result.value - target))
            if result.status != "converged":
                worst_status = 1
            row = {name: _fmt(run_params[name]) for name in entry.params}
            row.update({
                "value_re": _fmt(result.value.real),
                "value_im": _fmt(result.value.imag),
                "abs_error_vs_closed_form": abs_err,
                "intervals": result.intervals_used,
                "fevals": result.fevals,
                "seconds": _fmt(0.0 if args.no_timing else seconds),
                "status": result.status,
            })
            rows.append(row)
    fieldnames = list(entry.params) + [
        "value_re", "value_im", "abs_error_vs_closed_form",
        "intervals", "fevals", "seconds", "status"]
    _write_csv(args.out, fieldnames, rows)
    return worst_status


def cmd_compare(args) -> int:
    params = _parse_params(args.param)
    entry = reference.CATALOG.get(args.paper_integral)
    if entry is None:
        raise SystemExit2(f"unknown integral {args.paper_integral!r}")
    ranges = []
    for chunk in args.ranges.split(","):
        lo, _, hi = chunk.partition(":")
        try:
            ranges.append((float(lo), float(hi)))
        except ValueError:
            raise SystemExit2(f"bad --ranges chunk {chunk!r}")
    rng = np.random.default_rng(args.seed)
    rows = []
    for lo, hi in ranges:
        lams = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), args.samples)
        t_levin = []
        t_gauss = []
        max_diff = 0.0
        for lam in lams:
            run_params = dict(params)
            run_params["lambda"] = float(lam)
            config = _config_from_args(args, run_params)
            t0 = time.perf_counter()
            res_l = reference.evaluate_levin(args.paper_integral, run_params, config)
            t_levin.append(time.perf_counter() - t0)
            if lam <= args.max_oracle_lambda:
                t0 = time.perf_counter()
                res_g = reference.evaluate_oracle(args.paper_integral, run_params,
                                                  tol=args.oracle_tol)
                t_gauss.append(time.perf_counter() - t0)
                max_diff = max(max_diff, abs(res_l.value - res_g.value))
        timing = not args.no_timing
        avg_l = float(np.mean(t_levin)) if timing else 0.0
        avg_g = float(np.mean(t_gauss)) if (t_gauss and timing) else 0.0
        rows.append({
            "integral": args.paper_integral,
            "range_lo": _fmt(lo),
            "range_hi": _fmt(hi),
            "samples": args.samples,
            "avg_time_levin": _fmt(avg_l),
            "avg_time_gauss": _fmt(avg_g),
            "ratio": _fmt(avg_g / avg_l) if avg_l > 0 else "",
            "max_abs_difference": _fmt(max_diff),
        })
    fieldnames = ["integral", "range_lo", "range_hi", "samples",
                  "avg_time_levin", "avg_time_gauss", "ratio",
                  "max_abs_difference"]
    _write_csv(args.out, fieldnames, rows)
    return 0


def _write_csv(path, fieldnames, rows):
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_selftest(args) -> int:
    failures = selftest.run(filter=args.filter, fault=args.inject_fault)
    print("selftest:", "all checks passed" if failures == 0
          else f"{failures} check(s) FAILED")
    return 0 if failures == 0 else 1


EXPR_HELP = (
    "Expressions support numbers, 'x', named parameters (bound with --param), "
    "pi, e, the operators + - * / ^ (right-associative ^, no implicit "
    "multiplication), unary minus, and the functions sin cos tan atan atan2 "
    "exp log sqrt abs tanh cosh sinh sech erf pow min max."
)


def _add_common(p):
    p.add_argument("--eps", type=float, default=1e-12,
                   help="absolute acceptance tolerance (default 1e-12)")
    p.add_argument("--k", type=int, default=12,
                   help="collocation order per panel (default 12)")
    p.add_argument("--solver", choices=("qr", "svd"), default="qr",
                   help="panel solver (default qr)")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="bind a parameter (repeatable)")
    p.add_argument("--eps-scale", choices=("sqrt-kappa",),
                   help="scale the tolerance as machine-eps * sqrt(kappa)")
    p.add_argument("--no-timing", action="store_true",
                   help="report 0 for all timing fields (reproducible output)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oscquad",
        description="Adaptive evaluation of oscillatory integrals "
                    "int_a^b f(x)*exp(i g(x)) dx (or cos/sin kernels).",
        epilog=EXPR_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="evaluate a single integral",
                       epilog=EXPR_HELP)
    p.add_argument("--f", help="real part of f(x) as an expression")
    p.add_argument("--f-imag", dest="f_imag",
                   help="imaginary part of f(x) as an expression")
    p.add_argument("--g", help="phase g(x) as an expression")
    p.add_argument("--a", type=float, help="lower endpoint")
    p.add_argument("--b", type=float, help="upper endpoint")
    p.add_argument("--kernel", choices=("exp", "cos", "sin"), default="exp")
    p.add_argument("--paper-integral", metavar="ID",
                   help="catalog integral id (I1..I9, I21, I22)")
    _add_common(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("sweep", help="parameter sweep of a catalog integral to CSV")
    p.add_argument("--paper-integral", metavar="ID", required=True)
    p.add_argument("--sweep", default="lambda", metavar="NAME",
                   help="parameter swept over log-spaced values (default lambda)")
    p.add_argument("--decades", default="1:7", metavar="LO:HI",
                   help="base-10 exponent range (default 1:7)")
    p.add_argument("--count", type=int, default=200,
                   help="number of sweep points (default 200)")
    p.add_argument("--grid-param", metavar="NAME=V1,V2,...",
                   help="secondary parameter grid, one sweep per value")
    p.add_argument("--repeats", type=int, default=1,
                   help="timing repeats per point, median reported (default 1)")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare",
                       help="compare against adaptive Gauss-Legendre, CSV summary")
    p.add_argument("--paper-integral", metavar="ID", required=True)
    p.add_argument("--ranges", required=True, metavar="LO:HI,LO:HI,...",
                   help="lambda ranges, sampled log-uniformly")
    p.add_argument("--samples", type=int, default=20,
                   help="random samples per range (default 20)")
    p.add_argument("--oracle-tol", type=float, default=1e-15,
                   help="reference integrator tolerance (default 1e-15)")
    p.add_argument("--max-oracle-lambda", type=float, default=1e4,
                   help="skip the reference above this lambda (default 1e4)")
    p.add_argument("--seed", type=int, default=1,
                   help="random seed for the lambda samples (default 1)")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.add_argument("--filter", help="run only checks whose name contains this")
    p.add_argument("--inject-fault", choices=sorted(selftest.FAULTS),
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
