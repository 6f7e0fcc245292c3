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
failed), 2 bad input.  Bad input is a flag argparse rejects (it also
checks the catalog id and the ranges of --decades, --ranges, --count,
--samples, --oracle-tol and --max-oracle-lambda) or a ValueError raised
while the command runs: an expression that does not parse, a catalog
parameter that is missing, not finite, out of its domain or not taken by
the integral, a catalog id with any expression flag, a domain of infinite
width, a tolerance ``AdaptiveConfig`` rejects.  ``main`` prints the message
to stderr and returns the code instead of raising.  All floating-point
output is rendered with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time

import numpy as np

from . import expr as exprmod
from . import reference, selftest
from .adaptive import AdaptiveConfig, adaptive_integrate
from .levin import KERNELS, Integrand
from .linalg import EPS0, SOLVERS


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _flag_type(usage):
    """Make a flag parser's ValueError (or OverflowError) an argparse usage error."""
    def wrap(parse):
        def convert(text):
            try:
                return parse(text)
            except (ValueError, OverflowError):
                raise argparse.ArgumentTypeError(
                    f"expected {usage}, got {text!r}") from None
        return convert
    return wrap


def _named_floats(text):
    name, values = text.split("=")
    if not name:
        raise ValueError(text)
    return name, [float(v) for v in values.split(",")]


def _interval(text):
    lo, hi = (float(v) for v in text.split(":"))
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(text)
    return lo, hi


@_flag_type("NAME=VALUE")
def _param(text):
    name, (value,) = _named_floats(text)
    return name, value


_grid = _flag_type("NAME=V1,V2,...")(_named_floats)


@_flag_type("LO:HI with LO < HI, 10^LO > 0 and 10^HI finite")
def _decades(text):
    lo, hi = _interval(text)
    if not (10.0 ** lo > 0.0 and math.isfinite(10.0 ** hi)):
        raise ValueError(text)
    return lo, hi


@_flag_type("LO:HI,... with 0 < LO < HI")
def _ranges(text):
    ranges = [_interval(chunk) for chunk in text.split(",")]
    if min(lo for lo, _ in ranges) <= 0.0:
        raise ValueError(text)
    return ranges


def _float_flag(usage, ok):
    """A flag converter: the float value, if ``ok(value)`` holds."""
    def parse(text):
        value = float(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return _flag_type(usage)(parse)


_tolerance = _float_flag("a finite number > 0", lambda v: 0.0 < v < math.inf)
_max_lambda = _float_flag("a number that is not nan", lambda v: not math.isnan(v))


@_flag_type("an integer >= 1")
def _count(text):
    count = int(text)
    if count < 1:
        raise ValueError(text)
    return count


def _config(args, params) -> AdaptiveConfig:
    eps = args.eps
    if args.eps_scale == "sqrt-kappa":
        if not 0.0 < params.get("kappa", 0.0) < math.inf:
            raise ValueError("--eps-scale sqrt-kappa needs a finite --param kappa=... > 0")
        eps = EPS0 * float(np.sqrt(params["kappa"]))
    return AdaptiveConfig(eps=eps, k=args.k, solver=args.solver)


def _expr_integrand(args, params) -> Integrand:
    f_fn = exprmod.compile_fn(args.f, params)
    g_fn = exprmod.compile_fn(args.g, params)
    if args.f_imag:
        f_re, f_im = f_fn, exprmod.compile_fn(args.f_imag, params)

        def f_fn(x):
            return f_re(x) + 1j * f_im(x)
    return Integrand(f=f_fn, g=g_fn, kernel=args.kernel or "exp")


def cmd_integrate(args) -> int:
    given = [flag for flag in ("--f", "--f-imag", "--g", "--a", "--b", "--kernel")
             if getattr(args, flag[2:].replace("-", "_")) is not None]
    if args.paper_integral and given:
        raise ValueError(f"--paper-integral takes none of {', '.join(given)}")
    params = dict(args.param or ())
    config = _config(args, params)
    t0 = time.perf_counter()
    if args.paper_integral:
        result = reference.evaluate_levin(args.paper_integral, params, config)
    elif args.f and args.g and args.a is not None and args.b is not None:
        result = adaptive_integrate(_expr_integrand(args, params),
                                    args.a, args.b, config)
    else:
        raise ValueError("either --paper-integral or all of --f, --g, --a "
                         "and --b are required")
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


def _runs(args, name, values, grid=None):
    """Evaluate the catalog integral once per (grid value, swept value).

    Parameter ``name`` takes each of ``values`` in turn, inside an outer
    loop over the optional ``grid`` pair (NAME, [values]); the rest come
    from --param, which may set neither.  Yields (params, result, seconds),
    timing the evaluation alone.
    """
    grid_name, grid_values = grid or (None, [None])
    for taken, what in ((name, "the swept parameter"), (grid_name, "the --grid-param one")):
        if taken in dict(args.param or ()):
            raise ValueError(f"--param {taken}: {taken} is {what}")
    if grid_name == name:
        raise ValueError(f"--grid-param {name}: {name} is the swept parameter")
    for grid_value in grid_values:
        for value in values:
            params = dict(args.param or ())
            params[name] = float(value)
            if grid_name is not None:
                params[grid_name] = grid_value
            config = _config(args, params)
            t0 = time.perf_counter()
            result = reference.evaluate_levin(args.paper_integral, params, config)
            yield params, result, time.perf_counter() - t0


def cmd_sweep(args) -> int:
    entry = reference.CATALOG[args.paper_integral]
    values = 10.0 ** np.linspace(*args.decades, args.count)
    rows = []
    worst_status = 0
    for params, result, seconds in _runs(args, args.sweep, values, args.grid_param):
        abs_err = ""
        if entry.closed_form is not None:
            target = reference.closed_form_value(entry.id, params)
            abs_err = _fmt(abs(result.value - target))
        if result.status != "converged":
            worst_status = 1
        row = {name: _fmt(params[name]) for name in entry.params}
        row.update(value_re=_fmt(result.value.real),
                   value_im=_fmt(result.value.imag),
                   abs_error_vs_closed_form=abs_err,
                   intervals=result.intervals_used,
                   fevals=result.fevals,
                   seconds=_fmt(0.0 if args.no_timing else seconds),
                   status=result.status)
        rows.append(row)
    _write_csv(args.out, rows)
    return worst_status


def cmd_compare(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = []
    for lo, hi in args.ranges:
        lams = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), args.samples)
        t_levin = []
        t_gauss = []
        max_diff = 0.0
        for params, res_l, seconds in _runs(args, "lambda", lams):
            t_levin.append(seconds)
            if params["lambda"] <= args.max_oracle_lambda:
                t0 = time.perf_counter()
                res_g = reference.evaluate_oracle(args.paper_integral, params,
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
            # empty when every lambda of the range is above --max-oracle-lambda
            "avg_time_gauss": _fmt(avg_g) if t_gauss else "",
            "ratio": _fmt(avg_g / avg_l) if t_gauss and avg_l > 0 else "",
            "max_abs_difference": _fmt(max_diff) if t_gauss else "",
        })
    _write_csv(args.out, rows)
    return 0


def _write_csv(path, rows):
    out = sys.stdout if path == "-" else open(path, "w", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_selftest(args) -> int:
    failures = selftest.run(filter=args.filter)
    print("selftest:", "all checks passed" if failures == 0
          else f"{failures} check(s) FAILED")
    return 0 if failures == 0 else 1


EXPR_HELP = (
    "Expressions support numbers, 'x', named parameters (bound with --param), "
    "pi, e, the operators + - * / ^ (right-associative ^, no implicit "
    "multiplication), unary minus, and the functions "
    f"{' '.join(exprmod.FUNCTIONS)}."
)


def _add_common(p):
    tolerance = p.add_mutually_exclusive_group()
    tolerance.add_argument("--eps", type=float, default=AdaptiveConfig.eps,
                           help="absolute acceptance tolerance (default %(default)s)")
    p.add_argument("--k", type=int, default=AdaptiveConfig.k,
                   help="collocation order per panel (default %(default)s)")
    p.add_argument("--solver", choices=SOLVERS, default=AdaptiveConfig.solver,
                   help="panel solver (default %(default)s)")
    p.add_argument("--param", action="append", type=_param, metavar="NAME=VALUE",
                   help="bind a parameter (repeatable)")
    tolerance.add_argument("--eps-scale", choices=("sqrt-kappa",),
                           help="scale the tolerance as machine-eps * sqrt(kappa)")
    p.add_argument("--no-timing", action="store_true",
                   help="report 0 for all timing fields (reproducible output)")


def _add_catalog_id(p, **kwargs):
    p.add_argument("--paper-integral", metavar="ID", choices=reference.CATALOG,
                   help=f"catalog integral id ({', '.join(reference.CATALOG)})",
                   **kwargs)


def main(argv=None) -> int:
    """Run the CLI on ``argv`` and return the exit code."""
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
    p.add_argument("--kernel", choices=KERNELS, help="oscillator kernel (default exp)")
    _add_catalog_id(p)
    _add_common(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("sweep", help="parameter sweep of a catalog integral to CSV")
    _add_catalog_id(p, required=True)
    p.add_argument("--sweep", default="lambda", metavar="NAME",
                   help="parameter swept over log-spaced values (default lambda)")
    p.add_argument("--decades", type=_decades, default="1:7", metavar="LO:HI",
                   help="base-10 exponent range (default 1:7)")
    p.add_argument("--count", type=_count, default=200,
                   help="number of sweep points (default 200)")
    p.add_argument("--grid-param", type=_grid, metavar="NAME=V1,V2,...",
                   help="secondary parameter grid, one sweep per value")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare",
                       help="compare against adaptive Gauss-Legendre, CSV summary")
    _add_catalog_id(p, required=True)
    p.add_argument("--ranges", type=_ranges, required=True, metavar="LO:HI,LO:HI,...",
                   help="lambda ranges, sampled log-uniformly")
    p.add_argument("--samples", type=_count, default=20,
                   help="random samples per range (default 20)")
    p.add_argument("--oracle-tol", type=_tolerance, default=1e-15,
                   help="reference integrator tolerance (default 1e-15)")
    p.add_argument("--max-oracle-lambda", type=_max_lambda, default=1e4,
                   help="skip the reference above this lambda (default 1e4)")
    p.add_argument("--seed", type=int, default=1,
                   help="random seed for the lambda samples (default 1)")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.add_argument("--filter", help="run only checks whose name contains this")
    p.set_defaults(func=cmd_selftest)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: a usage error (2) or --help (0)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
