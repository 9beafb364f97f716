"""Command-line interface: schemas, determinism, exit codes."""

import json
from fractions import Fraction

import pytest

from qcharlier import QContext, build
from qcharlier.cli import _exact_shadow, main
from qcharlier.scalars import format_scalar


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_unit_index(capsys):
    code, out, _ = run_cli(capsys, "gen", "--t", "9/10", "--alpha", "1/2", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == ["-81/200", "1"]
    assert doc["t"] == "9/10"
    assert doc["q"] == "81/100"
    assert doc["multi_index"] == [1]


def test_gen_zero_index(capsys):
    code, out, _ = run_cli(capsys, "gen", "--t", "9/10", "--alpha", "1/2", "--n", "0")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1"]


def test_gen_deterministic_bytes(capsys):
    args = ("gen", "--t", "9/10", "--alpha", "1/2", "--alpha", "3/5", "--n", "2,1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_gen_methods_agree_byte_for_byte(capsys):
    outputs = []
    for method in ("system", "rodrigues", "explicit", "recurrence"):
        code, out, _ = run_cli(
            capsys,
            "gen", "--t", "9/10", "--alpha", "1/2", "--alpha", "3/5",
            "--n", "2,1", "--method", method,
        )
        assert code == 0
        outputs.append(json.loads(out)["coefficients"])
    assert all(coeffs == outputs[0] for coeffs in outputs)


def test_gen_falling_basis(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--t", "9/10", "--alpha", "1/2", "--n", "2", "--basis", "falling"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == "falling"
    # leading falling coefficient of a monic degree-2 polynomial is q
    assert doc["coefficients"][-1] == "81/100"


def test_gen_validation_error_names_guard(capsys):
    code, _, err = run_cli(
        capsys, "gen", "--t", "9/10", "--alpha", "1/2", "--alpha", "1/2", "--n", "1,1"
    )
    assert code == 2
    assert "distinctness" in err


@pytest.mark.parametrize("method", ["system", "rodrigues", "explicit", "recurrence"])
def test_gen_refuses_degenerate_weight_on_every_route(capsys, method):
    # at q = 1/4, (1-q)*(16/3)*q = 1: every system with n_2 > 1 is singular
    argv = ("gen", "--t", "1/2", "--alpha", "1", "--alpha", "16/3", "--method", method)
    code, out, err = run_cli(capsys, *argv, "--n", "0,2")
    assert code == 2
    assert out == ""
    assert "degenerate" in err
    code, out, _ = run_cli(capsys, *argv, "--n", "0,1")
    assert code == 0
    assert len(json.loads(out)["coefficients"]) == 2


def test_verify_degenerate_shift_exits_with_guard(capsys):
    # raising shifts alpha_2 = 4/3 to 16/3, which is degenerate at q = 1/4
    code, out, err = run_cli(
        capsys, "verify", "--t", "1/2", "--alpha", "1", "--alpha", "4/3", "--nmax", "2"
    )
    assert code == 2
    assert out == ""
    assert "degenerate" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gen", "--q", "inf"), "finiteness: q must be finite, got inf"),
        (("gen", "--q", "nan"), "finiteness: q must be finite, got nan"),
        (("gen", "--q", "1e308"), "float overflow"),
        (("gen", "--q", "1e-320"), "float overflow"),
        (("gen", "--q", "1e40"), "float overflow: a coefficient of C_(2, 1) is not finite"),
        (("zeros", "--q", "inf"), "finiteness: q must be finite, got inf"),
    ],
    ids=["gen-inf", "gen-nan", "gen-1e308", "gen-1e-320", "gen-1e40", "zeros-inf"],
)
def test_float_q_out_of_range_exits_with_one_error_line(capsys, argv, message):
    # no NaN coefficients, no traceback, and not the exit code of a failed check
    code, out, err = run_cli(capsys, *argv, "--n", "2,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_gen_float_backend(capsys):
    code, out, _ = run_cli(capsys, "gen", "--q", "0.81", "--alpha", "0.5", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"].startswith("0.81")
    assert abs(float(doc["coefficients"][0]) + 0.405) < 1e-12


def test_verify_small_grid_passes(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--rmax", "2", "--nmax", "2", "--suite", "all"
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert all(entry["status"] == "pass" for entry in report["checks"])
    assert "overall: pass" in err


def test_verify_quiet_silences_stderr(capsys):
    _, _, err = run_cli(
        capsys, "verify", "--rmax", "1", "--nmax", "1", "--suite", "nn", "--quiet"
    )
    assert err == ""


def test_verify_single_suite_selection(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--rmax", "1", "--nmax", "2", "--suite", "raising", "--quiet"
    )
    assert code == 0
    report = json.loads(out)
    assert {entry["identity"] for entry in report["checks"]} == {"raising"}


def test_verify_injected_defect_fails_with_named_identity(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--rmax", "2", "--nmax", "2", "--suite", "all", "--quiet",
        "--inject-defect", "2,1:0",
    )
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    failing = {entry["identity"] for entry in report["checks"] if entry["status"] == "fail"}
    assert "orthogonality" in failing
    assert "nn" in failing
    assert "diffeq" in failing
    # every failing check names the offending multi-index
    assert all("n" in entry for entry in report["checks"])


@pytest.mark.parametrize("spec, reason", [
    ("1,1:0:0", "an amount of 0 corrupts nothing"),
    ("9,9:0", "no check built its target"),
    ("1,1,1:0", "no check built its target"),
])
def test_verify_refuses_a_defect_that_corrupts_nothing(capsys, spec, reason):
    code, out, err = run_cli(capsys, "verify", "--nmax", "1", "--inject-defect", spec)
    assert code == 2
    assert out == ""
    assert err == f"error: --inject-defect {spec}: {reason}\n"


def test_verify_rejects_bad_rmax(capsys):
    code, _, err = run_cli(capsys, "verify", "--rmax", "5")
    assert code == 2
    assert "rmax" in err


def test_verify_rejects_negative_nmax(capsys):
    code, out, err = run_cli(capsys, "verify", "--nmax", "-1")
    assert code == 2
    assert out == ""
    assert "nmax" in err


def test_zeros_unit_index(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--q", "0.81", "--alpha", "0.5", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == 1
    assert abs(float(doc["roots"][0]) - 0.405) < 1e-10


def test_zeros_keeps_t_exact(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--t", "9/10", "--alpha", "1/2", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == "81/100"
    assert doc["alphas"] == ["1/2"]
    assert doc["roots"] == [format_scalar(float(Fraction(81, 200)))]


def test_zeros_empty_for_origin(capsys):
    code, out, _ = run_cli(
        capsys, "zeros", "--q", "0.81", "--alpha", "0.5", "--alpha", "0.6", "--n", "0,0"
    )
    assert code == 0
    assert json.loads(out)["roots"] == []


def test_zeros_two_weights(capsys):
    code, out, _ = run_cli(
        capsys, "zeros", "--q", "0.81", "--alpha", "0.5", "--alpha", "0.6", "--n", "1,1"
    )
    assert code == 0
    roots = [float(r) for r in json.loads(out)["roots"]]
    assert len(roots) == 2
    assert 0 < roots[0] < roots[1]


def test_zeros_after_float_gen_at_same_q(capsys, clear_caches):
    # Fraction(0.74) == 0.74 with the same hash, so the exact twin that zeros
    # builds must not be handed what the float gen left in the memos
    flags = ("--q", "0.74", "--alpha", "0.35", "--alpha", "0.55", "--n", "6,6")
    clear_caches()
    code, out, _ = run_cli(capsys, "zeros", *flags)
    assert code == 0
    fresh = json.loads(out)["roots"]
    clear_caches()
    assert run_cli(capsys, "gen", *flags)[0] == 0
    exact = _exact_shadow(QContext.from_q_float(0.74, [0.35, 0.55]))
    for method in ("linear_system", "rodrigues"):
        coeffs = build((6, 6), exact, method=method).poly.coeffs
        assert all(isinstance(c, Fraction) for c in coeffs)
    code, out, _ = run_cli(capsys, "zeros", *flags)
    assert code == 0
    assert json.loads(out)["roots"] == fresh


def test_limit_command(capsys):
    code, out, _ = run_cli(
        capsys, "limit", "--n", "2,1", "--m-list", "2,3,4", "--quiet"
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    errors = [float(entry["coeff_error"]) for entry in report["entries"]]
    assert errors[0] > errors[1] > errors[2]
    for order in report["empirical_orders"]:
        assert abs(float(order["coeff"]) - 1.0) < 0.2


def test_limit_at_the_zero_index_passes(capsys):
    # C_0 = 1 and every d vanish on both sides, so those errors are exactly
    # zero at every m; only b converges
    code, out, _ = run_cli(capsys, "limit", "--n", "0,0", "--quiet")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    for entry in report["entries"]:
        assert entry["coeff_error"] == entry["d_error_max"] == "0"
    errors = [float(entry["b_error_max"]) for entry in report["entries"]]
    assert errors[0] > errors[1] > errors[2] > 0


def test_usage_without_command(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2
