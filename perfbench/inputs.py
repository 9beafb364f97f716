"""Seeded input generator with fixed digit counts.

Exact parameters are written p/d with numerator and denominator both
two-digit primes from 53..97, all 2(r + 1) of them distinct within a
context, so no factor cancels by luck and the coefficient bit growth -- the
cost driver of exact arithmetic -- does not swing with the seed.  Distinct
primes also keep every alpha_i/alpha_j off the powers of q.

Float parameters are two-decimal strings whose binary expansion is never
exact (no multiples of 0.25), so the exact shadow of every float context
carries a 53-bit denominator.

A draw that a parameter guard rejects, or that repeats a context an earlier
op of the run used, is redrawn and counted in `redrawn`; it never becomes an
op.  Every accepted draw is appended to `log`, so a run can record exactly
which inputs it measured.
"""

from __future__ import annotations

import random

PRIMES = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
Q_HUNDREDTHS = [k for k in range(70, 96) if k % 25]
ALPHA_HUNDREDTHS = [k for k in range(10, 100) if k % 25]
ALPHA_MIN_GAP = 15  # hundredths; keeps float weights well separated


class Draws:
    """Input stream of one run phase; the same seed gives the same inputs."""

    def __init__(self, seed: int, workload: str):
        self.seed = seed
        self.workload = workload
        self.redrawn = 0
        self.used = set()
        self.log = []

    def rng(self, stream: int | str) -> random.Random:
        """Generator of one stream: a pass number, or the name of a phase."""
        return random.Random(f"{self.seed}/{self.workload}/{stream}")

    def exact(self, rng, r: int, q_above_one: bool = False, accept=None):
        """(t, alphas) as p/d strings for a context no earlier draw used.

        `accept(t, alphas)` may raise ValueError (the library's
        ValidationError is one) to reject a draw."""
        while True:
            primes = rng.sample(PRIMES, 2 * r + 2)
            low, high = sorted(primes[:2])
            t = f"{high}/{low}" if q_above_one else f"{low}/{high}"
            alphas = tuple(f"{a}/{d}" for a, d in zip(primes[2::2], primes[3::2]))
            if self._take(("exact", t, alphas), accept, t, alphas):
                return t, alphas

    def floats(self, rng, r: int, q=None, accept=None):
        """(q, alphas) as two-decimal strings; q is drawn unless given."""
        while True:
            q_text = q if q is not None else f"0.{rng.choice(Q_HUNDREDTHS)}"
            picks = []
            while len(picks) < r:
                k = rng.choice(ALPHA_HUNDREDTHS)
                if all(abs(k - j) >= ALPHA_MIN_GAP for j in picks):
                    picks.append(k)
            alphas = tuple(f"0.{k}" for k in picks)
            if self._take(("float", q_text, alphas), accept, q_text, alphas):
                return q_text, alphas

    def _take(self, key, accept, *params) -> bool:
        if key in self.used:
            self.redrawn += 1
            return False
        if accept is not None:
            try:
                accept(*params)
            except ValueError:
                self.redrawn += 1
                return False
        self.used.add(key)
        self.log.append(list(key))
        return True
