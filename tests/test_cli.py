import cmath
import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import warnings

import pytest

from oscquad import adaptive, chebyshev, reference, selftest
from oscquad.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_integrate_catalog(capsys):
    code, out, _ = run_cli(["integrate", "--paper-integral", "I1",
                            "--param", "lambda=2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "converged"
    assert abs(doc["value_re"] - 1.0) <= 1e-12
    assert abs(doc["value_im"]) <= 1e-15
    assert doc["intervals"] >= 3
    assert doc["fevals"] > 0


def test_integrate_zero_expression(capsys):
    code, out, _ = run_cli(["integrate", "--f", "0", "--g", "x",
                            "--a", "-1", "--b", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value_re"] == 0.0
    assert doc["value_im"] == 0.0
    assert doc["status"] == "converged"


def test_integrate_high_frequency_linear_phase(capsys):
    code, out, _ = run_cli(["integrate", "--f", "1", "--g", "1e6*x",
                            "--a", "-1", "--b", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    want = 2.0 * math.sin(1e6) / 1e6
    assert abs(doc["value_re"] - want) <= 1e-12
    assert abs(doc["value_im"]) <= 1e-15


def test_integrate_17_digit_serialization(capsys):
    code, out, _ = run_cli(["integrate", "--paper-integral", "I1",
                            "--param", "lambda=3"], capsys)
    assert code == 0
    match = re.search(r'"value_re": ([-0-9.e+]+)', out)
    assert match
    value = float(match.group(1))
    assert float(format(value, ".17g")) == value  # round-trips exactly


def test_integrate_bad_expression_exit2(capsys):
    code, _, err = run_cli(["integrate", "--f", "sin(", "--g", "x",
                            "--a", "0", "--b", "1"], capsys)
    assert code == 2
    assert "offset 4" in err


def test_integrate_missing_flags_exit2(capsys):
    code, _, err = run_cli(["integrate", "--f", "1"], capsys)
    assert code == 2


def test_integrate_kernel_flag(capsys):
    code, out, _ = run_cli(["integrate", "--f", "1", "--g", "50*x",
                            "--a", "-1", "--b", "1", "--kernel", "cos"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value_re"] - 2.0 * math.sin(50.0) / 50.0) <= 1e-13


def test_sweep_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--paper-integral", "I1", "--decades", "1:3",
                          "--count", "5", "--out", str(out_path)], capsys)
    assert code == 0
    rows = read_csv(out_path)
    assert len(rows) == 5
    assert set(rows[0]) == {"lambda", "value_re", "value_im",
                            "abs_error_vs_closed_form", "intervals", "fevals",
                            "seconds", "status"}
    for row in rows:
        assert row["status"] == "converged"
        assert float(row["abs_error_vs_closed_form"]) <= 1e-10


def test_sweep_grid_param(tmp_path, capsys):
    out_path = tmp_path / "sweep9.csv"
    code, _, _ = run_cli(["sweep", "--paper-integral", "I9", "--decades", "1:2",
                          "--count", "3", "--grid-param", "m=2,3",
                          "--eps", "1e-7", "--out", str(out_path)], capsys)
    assert code == 0
    rows = read_csv(out_path)
    assert len(rows) == 6
    assert {row["m"] for row in rows} == {"2", "3"}


def test_sweep_empty_range_exit2(capsys):
    code, _, _ = run_cli(["sweep", "--paper-integral", "I1", "--decades", "3:1",
                          "--count", "5"], capsys)
    assert code == 2
    code, _, _ = run_cli(["sweep", "--paper-integral", "I1", "--decades", "1:3",
                          "--count", "0"], capsys)
    assert code == 2


def test_sweep_deterministic_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(["sweep", "--paper-integral", "I1",
                              "--decades", "1:4", "--count", "7",
                              "--no-timing", "--out", str(path)], capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_compare_csv(tmp_path, capsys):
    out_path = tmp_path / "cmp.csv"
    code, _, _ = run_cli(["compare", "--paper-integral", "I6",
                          "--ranges", "1e1:1e2", "--samples", "3",
                          "--out", str(out_path)], capsys)
    assert code == 0
    rows = read_csv(out_path)
    assert len(rows) == 1
    row = rows[0]
    assert row["integral"] == "I6"
    assert float(row["max_abs_difference"]) <= 5e-11
    assert int(row["samples"]) == 3


def test_compare_low_frequency_extension(tmp_path, capsys):
    # frequencies far below one: the reference integrator fully resolves
    # the integrand, demonstrating there is no low-frequency breakdown
    out_path = tmp_path / "cmp_low.csv"
    code, _, _ = run_cli(["compare", "--paper-integral", "I6",
                          "--ranges", "1e-8:1e0", "--samples", "8",
                          "--out", str(out_path)], capsys)
    assert code == 0
    (row,) = read_csv(out_path)
    assert float(row["max_abs_difference"]) <= 1e-11


def test_compare_without_reference_leaves_gauss_columns_empty(capsys):
    # the second range lies wholly above --max-oracle-lambda, so no Gauss
    # run backs its row
    code, out, _ = run_cli(["compare", "--paper-integral", "I1",
                            "--ranges", "1e0:1e2,1e5:1e6", "--samples", "3",
                            "--max-oracle-lambda", "30", "--no-timing"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert float(rows[0]["max_abs_difference"]) <= 1e-10
    assert rows[0]["avg_time_gauss"] == "0"
    assert (rows[1]["avg_time_gauss"], rows[1]["ratio"],
            rows[1]["max_abs_difference"]) == ("", "", "")


def test_selftest_pass(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_selftest_filter(capsys):
    code, out, _ = run_cli(["selftest", "--filter", "chebyshev"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert lines
    assert all("chebyshev" in l for l in lines)


def test_selftest_injected_fault_fails(capsys, monkeypatch):
    true_diff_matrix = chebyshev.diff_matrix

    def wrong_diff_matrix(k):
        d = true_diff_matrix(k).copy()
        d[3, 4] += 1e-3
        return d

    # only the chebyshev checks run while the matrix is wrong, so no cached
    # panel grid is built from it
    monkeypatch.setattr(chebyshev, "diff_matrix", wrong_diff_matrix)
    code, out, _ = run_cli(["selftest", "--filter", "chebyshev."], capsys)
    assert code == 1
    assert "FAIL chebyshev.diff_exactness" in out
    monkeypatch.undo()
    with contextlib.redirect_stdout(io.StringIO()):
        assert selftest.run() == 0


# A --param that names the swept or gridded parameter, or a grid over the
# swept one, with the parameter the message must name.
PARAM_CLASHES = [
    (["sweep", "--paper-integral", "I1", "--param", "lambda=5", "--decades", "1:2",
      "--count", "2"], "--param lambda"),
    (["sweep", "--paper-integral", "I9", "--grid-param", "m=2", "--param", "m=7",
      "--count", "2"], "--param m"),
    (["compare", "--paper-integral", "I1", "--param", "lambda=5", "--ranges", "1:10"],
     "--param lambda"),
    (["sweep", "--paper-integral", "I9", "--param", "lambda=10", "--sweep", "m",
      "--grid-param", "m=2,4", "--decades", "0:0.5", "--count", "2"], "--grid-param m"),
]

BAD_INPUTS = [
    ["sweep", "--paper-integral", "I9", "--grid-param", "m=abc"],
    ["sweep", "--paper-integral", "I1", "--repeats", "0"],
    ["compare", "--paper-integral", "I6", "--ranges", "0:10"],
    ["compare", "--paper-integral", "I6", "--ranges", "10:1"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=2", "--k", "3"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=2", "--k", "4"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=2", "--eps", "0"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=1000", "--eps", "inf"],
    ["integrate", "--paper-integral", "I21", "--param", "kappa=inf", "--param", "m=2",
     "--param", "alpha=0.5", "--eps-scale", "sqrt-kappa"],
    ["compare", "--paper-integral", "I6", "--ranges", "1:10", "--oracle-tol", "inf"],
    ["compare", "--paper-integral", "I1", "--ranges", "1e5:1e6", "--oracle-tol", "inf"],
    ["integrate", "--paper-integral", "I21", "--param", "kappa=-4", "--param", "m=2",
     "--param", "alpha=0.5", "--eps-scale", "sqrt-kappa"],
    ["compare", "--paper-integral", "I6", "--ranges", "1:10", "--samples", "0"],
    ["sweep", "--paper-integral", "I1", "--sweep", "mu", "--param", "lambda=5"],
    ["sweep", "--paper-integral", "I1", "--grid-param", "mu=1,2"],
    ["compare", "--paper-integral", "I21", "--ranges", "1:10",
     "--param", "kappa=10", "--param", "m=2", "--param", "alpha=0.5"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=5", "--param", "mu=3"],
    ["sweep", "--paper-integral", "I1", "--param", "mu=3"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=5", "--kernel", "sin",
     "--f", "x"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=5", "--kernel", "exp"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=nan"],
    ["sweep", "--paper-integral", "I9", "--param", "m=inf", "--count", "2"],
    ["sweep", "--paper-integral", "I9", "--grid-param", "m=inf", "--count", "2"],
    ["integrate", "--f", "exp(-x^2)", "--g", "0", "--a=-1e308", "--b=1e308"],
    ["integrate", "--f", "1/x", "--g", "x", "--a=-inf", "--b", "inf"],
    ["integrate", "--f", "1/x", "--g", "x", "--a", "1", "--b=-inf"],
    ["integrate", "--f", "1/x", "--g", "x", "--a", "1e308", "--b", "inf"],
    ["compare", "--paper-integral", "I3", "--ranges", "1:10", "--samples", "1"],
    ["sweep", "--paper-integral", "I1", "--decades", "2:1"],
    ["sweep", "--paper-integral", "I1", "--decades=-400:-399", "--count", "2"],
    ["sweep", "--paper-integral", "I1", "--decades", "300:400", "--count", "2"],
    ["compare", "--paper-integral", "I1", "--ranges", "1:10", "--max-oracle-lambda", "nan"],
    ["integrate", "--paper-integral", "I2", "--param", "lambda=-1"],
    ["sweep", "--paper-integral", "I1", "--decades=-323.5:-323", "--count", "2"],
    ["integrate", "--paper-integral", "I21", "--param", "kappa=100", "--param", "m=2",
     "--param", "alpha=0.5", "--eps", "1e-3", "--eps-scale", "sqrt-kappa"],
    *(["integrate", "--paper-integral", "I21", "--param", "kappa=100", "--param", "m=5",
       "--param", f"alpha={alpha}"] for alpha in ("1", "-1", "2", "-1.5")),
    ["selftest", "--filter", "nomatch"],
    ["sweep", "--paper-integral", "I4", "--decades", "305:305.1", "--count", "1"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=2", "--k", "201"],
    ["sweep", "--paper-integral", "I1", "--count", "1000000000"],
    ["compare", "--paper-integral", "I1", "--ranges", "1:10", "--samples", "1000001"],
] + [argv for argv, _ in PARAM_CLASHES] + [
    # nested past the recursion limit: the sum fails while it is evaluated
    # (a chain of 1000 closures), the others while they are parsed
    pytest.param(["integrate", f"--f={source}", "--g", "x", "--a", "0", "--b", "1"], id=name)
    for name, source in (("1000-term sum", "+".join(["x"] * 1000)),
                         ("400 parentheses", "(" * 400 + "x" + ")" * 400),
                         ("2000 powers", "x^" * 2000 + "x"),
                         ("1000 unary minus", "-" * 1000 + "x"))]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_input_exit2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", PARAM_CLASHES,
                         ids=[" ".join(argv) for argv, _ in PARAM_CLASHES])
def test_param_clash_names_the_parameter(argv, flag, capsys):
    _, _, err = run_cli(argv, capsys)
    assert err.startswith(f"error: {flag}: ")


# Each flag converter's usage error, as argparse prints it last on stderr,
# and --help of the program and of each subcommand, which exits 0.
USAGE = [
    (["sweep", "--paper-integral", "I1", "--count", "0"],
     "argument --count: expected an integer in [1, 1000000], got '0'"),
    (["compare", "--paper-integral", "I1", "--ranges", "1:10", "--samples", "1000001"],
     "argument --samples: expected an integer in [1, 1000000], got '1000001'"),
    *((["sweep", "--paper-integral", "I1", decades],
      "argument --decades: expected LO:HI with LO < HI, 10^LO > 0 and 10^HI finite, "
      f"got '{decades.split('=')[-1]}'")
      for decades in ("--decades=300:400", "--decades=-400:-399", "--decades=2:1")),
    *((["compare", "--paper-integral", "I1", f"--ranges={ranges}"],
      f"argument --ranges: expected LO:HI,... with 0 < LO < HI, got '{ranges}'")
      for ranges in ("0:10", "1:10,")),
    (["compare", "--paper-integral", "I1", "--ranges", "1:10", "--oracle-tol", "inf"],
     "argument --oracle-tol: expected a finite number > 0, got 'inf'"),
    (["compare", "--paper-integral", "I1", "--ranges", "1:10", "--max-oracle-lambda", "nan"],
     "argument --max-oracle-lambda: expected a number that is not nan, got 'nan'"),
    (["sweep", "--paper-integral", "I9", "--grid-param", "m=abc"],
     "argument --grid-param: expected NAME=V1,V2,..., got 'm=abc'"),
    *((["integrate", "--paper-integral", "I1", f"--param={param}"],
      f"argument --param: expected NAME=VALUE, got '{param}'")
      for param in ("lambda", "=3")),
    *((argv + ["--help"], None)
      for argv in ([], ["integrate"], ["sweep"], ["compare"], ["selftest"])),
]


@pytest.mark.parametrize("argv, message", USAGE,
                         ids=[" ".join(argv) for argv, _ in USAGE])
def test_usage_messages(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    if message is None:
        assert (code, err) == (0, "")
        assert out.startswith("usage: oscquad")
    else:
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"oscquad {argv[0]}: error: {message}"


@pytest.mark.parametrize("argv", [
    ["sweep", "--paper-integral", "I1", "--count", "2"],
    ["compare", "--paper-integral", "I1", "--ranges", "1:10", "--samples", "2"],
], ids=" ".join)
def test_unwritable_out_exit2(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli([*argv, "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: --out: ")
    assert "Traceback" not in err
    assert not path.parent.exists()


def test_out_is_replaced_only_by_a_run_that_finishes(tmp_path, capsys):
    # --out is opened before any work: a run that then fails on bad input
    # leaves an existing file as it was and creates no new one
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("kept\n" * 1000)
    for path in (old, new):
        code, _, _ = run_cli(["sweep", "--paper-integral", "I1", "--param", "mu=3",
                              "--out", str(path)], capsys)
        assert code == 2
    assert old.read_text() == "kept\n" * 1000
    assert not new.exists()
    argv = ["sweep", "--paper-integral", "I1", "--count", "2", "--no-timing"]
    _, want, _ = run_cli(argv, capsys)
    code, _, _ = run_cli([*argv, "--out", str(old)], capsys)
    assert code == 0
    assert old.read_bytes() == want.encode()


def test_integrate_to_infinity(capsys):
    from scipy.special import exp1
    for solver in ("qr", "svd"):
        code, out, _ = run_cli(["integrate", "--f", "2/x", "--g", "lambda*x", "--a", "1",
                                "--b", "inf", "--param", "lambda=10", "--solver", solver],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "converged"
        assert abs(complex(doc["value_re"], doc["value_im"]) - 2 * exp1(-10j)) <= 1e-11


def test_divergent_tail_exits_1(capsys):
    code, out, _ = run_cli(["integrate", "--f", "1", "--g", "x", "--a", "1", "--b", "inf",
                            "--no-timing"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert (doc["status"], doc["value_re"], doc["value_im"]) == ("divergent", 0.0, 0.0)


def test_infinite_end_on_the_gauss_route_is_named(capsys):
    code, _, err = run_cli(["compare", "--paper-integral", "I2", "--ranges", "1:10",
                            "--samples", "1"], capsys)
    assert code == 2
    assert err == ("error: infinite end b = inf: only adaptive_integrate takes one, "
                   "b = inf with a finite a, got [0.0, inf]\n")


def test_out_of_domain_lambda_names_the_rule(capsys):
    code, _, err = run_cli(["integrate", "--paper-integral", "I2",
                            "--param", "lambda=-1"], capsys)
    assert code == 2
    assert err == "error: I2 needs lambda > 0\n"


def test_infinite_max_oracle_lambda_always_runs_the_reference(capsys):
    code, out, _ = run_cli(["compare", "--paper-integral", "I1", "--ranges", "1:10",
                            "--samples", "2", "--max-oracle-lambda", "inf",
                            "--no-timing"], capsys)
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert float(row["max_abs_difference"]) <= 1e-10


def test_nonconverged_sweep_row_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(adaptive, "MAX_INTERVALS", 1)
    code, out, _ = run_cli(["sweep", "--paper-integral", "I1", "--decades", "1:2",
                            "--count", "2", "--no-timing"], capsys)
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["status"] for row in rows] == ["budget_exhausted"] * 2


def test_nonconverged_compare_run_exits_1(monkeypatch, capsys):
    # the CSV has no status column; the exit code is where a run that did
    # not converge shows
    argv = ["compare", "--paper-integral", "I6", "--ranges", "1:10", "--samples", "2",
            "--no-timing"]
    code, want, _ = run_cli(argv, capsys)
    assert code == 0
    monkeypatch.setattr(adaptive, "MAX_INTERVALS", 1)
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    (row,) = csv.DictReader(io.StringIO(out))
    assert list(row) == next(csv.reader(io.StringIO(want)))


def test_compare_exits_1_when_only_the_gauss_route_does_not_converge(monkeypatch, capsys):
    # every Levin run converges, so the reference's status alone sets the code
    argv = ["compare", "--paper-integral", "I6", "--ranges", "1:10", "--samples", "2",
            "--no-timing"]
    code, want, _ = run_cli(argv, capsys)
    assert code == 0
    original = reference.evaluate_oracle

    def evaluate_oracle(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), status="budget_exhausted")

    monkeypatch.setattr(reference, "evaluate_oracle", evaluate_oracle)
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (1, want)


@pytest.mark.parametrize("argv", [
    ["--f", "1e308", "--solver", "qr"],
    ["--f", "1e308", "--solver", "svd"],
    ["--f", "x + 1/0"],
], ids=" ".join)
def test_overflowing_integrand_is_panel_failure(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["integrate", "--g", "x", "--a", "0", "--b", "1",
                                  "--no-timing", *argv], capsys)
    assert code == 1
    assert json.loads(out)["status"] == "panel_failure"
    assert err == ""


@pytest.mark.parametrize("solver", ["qr", "svd"])
def test_failed_trios_are_counted(solver, capsys):
    # every trio of f = 1e308 fails, 49 of them down to the width floor;
    # each counts its three panels and its 36 samples
    code, out, _ = run_cli(["integrate", "--f", "1e308", "--g", "x", "--a", "0",
                            "--b", "1", "--solver", solver, "--no-timing"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert (doc["intervals"], doc["fevals"]) == (147, 1764)


def test_overflowing_sum_is_overflow(capsys):
    # every panel of f = 1e306 on [0, 300] is finite, their sum is not: the
    # line keeps the finite partial sum, so it parses as JSON, and exits 1
    code, out, _ = run_cli(["integrate", "--f", "1e306", "--g", "0*x", "--a", "0",
                            "--b", "300", "--no-timing"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert (doc["status"], doc["value_re"], doc["value_im"]) == ("overflow", 1.5e308, 0)


def test_unknown_integral_one_message(capsys):
    messages = set()
    for argv in (["integrate"], ["sweep"], ["compare", "--ranges", "1:10"]):
        code, _, err = run_cli(argv + ["--paper-integral", "I99"], capsys)
        assert code == 2
        messages.add(err.splitlines()[-1].split(": error: ", 1)[1])
    (message,) = messages
    assert message.startswith("argument --paper-integral: invalid choice: 'I99'")


def test_negative_values_need_the_equals_form(capsys):
    # argparse reads a bare -1:0 or -1e3 as a flag, so these use NAME=VALUE
    code, out, _ = run_cli(["sweep", "--paper-integral", "I1", "--decades=-1:0",
                            "--count", "2", "--no-timing"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(row["lambda"]) for row in rows] == pytest.approx([0.1, 1.0])
    code, out, _ = run_cli(["integrate", "--f", "1", "--g", "x", "--a=-1e3", "--b", "1"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    want = (cmath.exp(1j) - cmath.exp(-1e3j)) / 1j
    assert abs(complex(doc["value_re"], doc["value_im"]) - want) <= 1e-12


def test_integrate_complex_f(capsys):
    # f = cos(x) + i sin(x) = e^{ix}, flat phase: int_0^1 e^{ix} dx
    code, out, _ = run_cli(["integrate", "--f", "cos(x)", "--f-imag", "sin(x)",
                            "--g", "0", "--a", "0", "--b", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value_re"] - math.sin(1.0)) <= 1e-12
    assert abs(doc["value_im"] - (1.0 - math.cos(1.0))) <= 1e-12


def test_integrate_complex_f_cos_kernel(capsys):
    # complex f with a cos kernel goes through the conjugate-solve path;
    # int_0^1 e^{ix} cos(50x) dx by product-to-sum
    code, out, _ = run_cli(["integrate", "--f", "cos(x)", "--f-imag", "sin(x)",
                            "--g", "50*x", "--a", "0", "--b", "1",
                            "--kernel", "cos"], capsys)
    assert code == 0
    doc = json.loads(out)
    want = ((cmath.exp(51j) - 1) / (2 * 51j) + (cmath.exp(-49j) - 1) / (2 * -49j))
    assert abs(complex(doc["value_re"], doc["value_im"]) - want) <= 1e-12


def test_integrate_eps_scale_sqrt_kappa(capsys):
    code, out, _ = run_cli(["integrate", "--paper-integral", "I21",
                            "--param", "kappa=100", "--param", "m=50",
                            "--param", "alpha=0.5",
                            "--eps-scale", "sqrt-kappa"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "converged"
    code, _, err = run_cli(["integrate", "--paper-integral", "I21",
                            "--param", "m=50", "--param", "alpha=0.5",
                            "--eps-scale", "sqrt-kappa"], capsys)
    assert code == 2  # kappa missing
    code, _, err = run_cli(["integrate", "--paper-integral", "I21",
                            "--param", "kappa=inf", "--param", "m=50",
                            "--param", "alpha=0.5",
                            "--eps-scale", "sqrt-kappa"], capsys)
    assert code == 2
    assert "needs a finite --param kappa" in err


def test_integrate_nonconverged_exit1(capsys):
    # divergent integrand: subdivision near 0 never satisfies the test and
    # the run stops at the width floor with exit code 1
    code, out, _ = run_cli(["integrate", "--f", "1/x", "--g", "1",
                            "--a", "0", "--b", "1"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "width_floor"
