"""Defect-kill matrix: every check must bite.

For each multi-index n of the grid (r = 1, 2 with n_i <= 3 and r = 3 with
n_i <= 2, at the default t and weights) and each non-leading monomial
coefficient c of C_n, the builder of `verify --inject-defect n:c` perturbs
that one coefficient, and every suite runs at n.  The entries that still
pass are the structural blind spots of the suites; they must equal the
allow-list below, each with its reason, so a check that stops biting fails
here."""

import itertools

from qcharlier.cli import CHECKS, DEFAULT_ALPHAS, DEFAULT_T, _checks_at, _defect_builder
from qcharlier.qkernels import MultiIndex, QContext

GRID = ((1, 3), (2, 3), (3, 2))  # (r, nmax)

DELTA_KILLS_CONSTANTS = "lowering applies Delta, which kills the constant term"

#: (suite, n, coefficient, reported component or None) -> why the defect survives
ALLOWED = {
    ("lowering", parts, 0, None): DELTA_KILLS_CONSTANTS
    for r, nmax in GRID
    for parts in itertools.product(range(nmax + 1), repeat=r)
    if sum(parts)
}


def test_injected_defects_pass_only_on_the_allow_list():
    survivors = set()
    total = 0
    for r, nmax in GRID:
        ctx = QContext.from_t(DEFAULT_T, DEFAULT_ALPHAS[:r])
        for parts in itertools.product(range(nmax + 1), repeat=r):
            for c in range(sum(parts)):
                spec = ",".join(map(str, parts)) + f":{c}"
                builder = _defect_builder(spec)
                for check in CHECKS:
                    for entry in _checks_at(check, ctx, MultiIndex(parts), builder):
                        total += 1
                        if entry["status"] == "pass":
                            survivors.add((check[0], parts, c, entry.get("component")))
    assert total == 1137
    assert len(ALLOWED) == 44
    assert survivors == set(ALLOWED)
