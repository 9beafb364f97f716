"""The package's public names, and the test references that stay out of it.

The references in tests/oracles.py are second paths that no command runs;
defining them in the package again would ship a duplicate path."""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import qcharlier
from qcharlier import QContext, build, constructors
from qcharlier.constructors import QCharlierPoly
from qcharlier.latticefn import WeightedLatticeFn
from qcharlier.qkernels import MemoScope

PUBLIC = [
    "FALLING",
    "MONOMIAL",
    "LatticePoly",
    "MultiIndex",
    "QContext",
    "ValidationError",
    "QCharlierPoly",
    "build",
    "build_explicit_r2",
    "build_linear_system",
    "build_recurrence",
    "build_rodrigues",
    "rodrigues_constant",
    "NNRecurrenceCoeffs",
    "SteplineCoeffs",
    "diff_eq_residual",
    "lowering_coeffs",
    "nn_recurrence_coeffs",
    "orthogonality_residuals",
    "stepline_coeffs",
    "verify_lowering",
    "verify_nn_recurrence",
    "verify_raising",
    "verify_stepline",
    "classical_build",
]

#: defined in tests/oracles.py only, or folded into their one caller
TEST_SIDE = [
    "q_factorial",
    "q_falling_number",
    "q_binomial",
    "q_number",
    "weight_masses",
    "weight_partial_sums",
    "normalized_moment",
    "shift_fn",
    "nabla_power_expansion",
    "rodrigues_elementary_expanded",
    "nn_b_projection",
    "nn_recurrence_coeffs_product_form",
    "lowering_coeffs_product_form",
    "lowering_coeffs_by_moments",
    "nn_d_closed_form",
    "stepline_coeffs_by_peel",
    "diff_eq_residual_single_family",
    "classical_diffeq_residual",
]


def test_public_names_are_pinned():
    assert qcharlier.__all__ == PUBLIC


def test_test_references_are_not_in_the_package():
    modules = [qcharlier] + [
        importlib.import_module(f"qcharlier.{info.name}")
        for info in pkgutil.iter_modules(qcharlier.__path__)
    ]
    assert {m.__name__ for m in modules} >= {"qcharlier.qkernels", "qcharlier.relations"}
    found = [(m.__name__, name) for m in modules for name in TEST_SIDE if hasattr(m, name)]
    assert found == []
    assert not hasattr(WeightedLatticeFn, "eval_at")
    assert not hasattr(WeightedLatticeFn, "times_x")
    # accessors that only tests read: `poly.coeffs`, `poly.degree` and
    # `poly.scale` say the same
    assert not hasattr(WeightedLatticeFn, "scale")
    assert not hasattr(QCharlierPoly, "coefficients")
    assert not hasattr(QCharlierPoly, "degree")


def test_memo_tables_have_one_owner():
    # the Gram table and the degenerate orders are read through `MemoScope`
    # methods, and the oracle's factors through `scoped_memo`; no route
    # keeps a memo of its own, and float contexts keep no second copy of a
    # table or of the solve
    for name in ("_unit_pairing", "_contract", "_rodrigues_poly", "_solve"):
        assert not hasattr(constructors, name)
    for name in ("falling_product", "contract"):
        assert not hasattr(MemoScope, name)
    assert not hasattr(MemoScope(Fraction(1, 2), True), "_products")
    assert not hasattr(QContext, "_degenerate_order")
    assert "path" not in inspect.signature(build).parameters
