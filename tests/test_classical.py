"""Classical multiple Charlier reference family (unit lattice)."""

from fractions import Fraction

import pytest

from oracles import classical_diffeq_residual
from qcharlier import classical_build


A2 = (Fraction(1, 2), Fraction(3, 5))


def test_zero_index():
    assert classical_build((0, 0), A2).coeffs == (1,)


def test_unit_index():
    assert classical_build((1, 0), A2).coeffs == (-A2[0], 1)
    assert classical_build((0, 1), A2).coeffs == (-A2[1], 1)


def test_second_degree_single_weight():
    # one recurrence step from x - alpha: (x - alpha - 1)(x - alpha) - alpha
    alpha = Fraction(1, 2)
    got = classical_build((2,), (alpha,)).coeffs
    assert got == (alpha * alpha + alpha - alpha, -(2 * alpha + 1), 1)


def test_path_independence():
    one_way = classical_build((1, 1), A2, path=[0, 1]).coeffs
    other = classical_build((1, 1), A2, path=[1, 0]).coeffs
    assert one_way == other
    deeper = classical_build((2, 2), A2, path=[0, 1, 1, 0])
    assert deeper.coeffs == classical_build((2, 2), A2, path=[1, 0, 0, 1]).coeffs


def test_monic_degree():
    poly = classical_build((3, 2), A2)
    assert poly.degree == 5
    assert poly.coeffs[-1] == 1


def test_invalid_paths_and_parameters():
    with pytest.raises(ValueError):
        classical_build((1, 1), A2, path=[0, 0])
    with pytest.raises(ValueError):
        classical_build((1, 1), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        classical_build((1,), (Fraction(-1),))


def test_path_components_out_of_range():
    # a component outside 0..r-1 must not be read modulo r or index past it
    for path in ([-1, 0], [0, 2]):
        with pytest.raises(ValueError, match="out of range"):
            classical_build((1, 1), A2, path=path)


def test_path_components_must_be_integers():
    # 0.7 and 1.2 would truncate to the valid path [0, 1]
    with pytest.raises(ValueError, match="path component 0.7 is not an integer"):
        classical_build((1, 1), A2, path=[0.7, 1.2])


@pytest.mark.parametrize(
    "parts",
    [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1)],
)
def test_difference_identity(parts):
    alphas = (Fraction(1, 2), Fraction(3, 5), Fraction(7, 10))[: len(parts)]
    assert classical_diffeq_residual(parts, alphas) == []


def test_difference_identity_degenerate_origin():
    assert classical_diffeq_residual((0, 0), A2) == []
