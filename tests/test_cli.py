import csv
import io
import json
import math
import re

import pytest

from oscquad import chebyshev, selftest
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
    assert selftest.run(out=io.StringIO()) == 0


BAD_INPUTS = [
    ["sweep", "--paper-integral", "I9", "--grid-param", "m=abc"],
    ["sweep", "--paper-integral", "I1", "--repeats", "0"],
    ["compare", "--paper-integral", "I6", "--ranges", "0:10"],
    ["compare", "--paper-integral", "I6", "--ranges", "10:1"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=2", "--k", "3"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=2", "--eps", "0"],
    ["integrate", "--paper-integral", "I21", "--param", "kappa=-4", "--param", "m=2",
     "--param", "alpha=0.5", "--eps-scale", "sqrt-kappa"],
    ["compare", "--paper-integral", "I6", "--ranges", "1:10", "--samples", "0"],
    ["sweep", "--paper-integral", "I1", "--sweep", "mu", "--param", "lambda=5"],
    ["sweep", "--paper-integral", "I1", "--grid-param", "mu=1,2"],
    ["compare", "--paper-integral", "I21", "--ranges", "1:10",
     "--param", "kappa=10", "--param", "m=2", "--param", "alpha=0.5"],
    ["integrate", "--paper-integral", "I1", "--param", "lambda=5", "--param", "mu=3"],
    ["sweep", "--paper-integral", "I1", "--param", "mu=3"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_input_exit2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "error: " in err
    assert "Traceback" not in err


def test_unknown_integral_one_message(capsys):
    messages = set()
    for argv in (["integrate"], ["sweep"], ["compare", "--ranges", "1:10"]):
        code, _, err = run_cli(argv + ["--paper-integral", "I99"], capsys)
        assert code == 2
        messages.add(err.splitlines()[-1].split(": error: ", 1)[1])
    (message,) = messages
    assert message.startswith("argument --paper-integral: invalid choice: 'I99'")


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
    import cmath
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


def test_integrate_nonconverged_exit1(capsys):
    # divergent integrand: subdivision near 0 never satisfies the test and
    # the run stops at the width floor with exit code 1
    code, out, _ = run_cli(["integrate", "--f", "1/x", "--g", "1",
                            "--a", "0", "--b", "1"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "width_floor"
