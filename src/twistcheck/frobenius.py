"""Frobenius traces, Dirichlet coefficients and the ordinary/supersingular split.

Good-prime traces come from one O(p) pass over x in F_p using a quadratic
residue table (vectorized with numpy); the largest prime this package ever
needs is a few times 10^4, so nothing fancier is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .arith import kronecker, sieve_primes, smallest_prime_factors, valuation
from .curves import CurveModel, is_minimal_at, minimal_model
from .local_invariants import (
    ADDITIVE,
    GOOD,
    NONSPLIT,
    SPLIT,
    NotMinimalAtP,
    conductor,
    tate_local,
)


class BadReduction(ValueError):
    """Asked a good-reduction question at a bad prime."""


class SmallPrime(ValueError):
    """The ordinary/supersingular test is only made for p >= 5."""


@dataclass(frozen=True)
class ApRecord:
    p: int
    a_p: int
    kind: str


def count_points(E: CurveModel, p: int) -> int:
    """#E~(F_p) for a prime of good reduction (E minimal at p).

    For odd p this is p + 1 + sum of chi(4x^3 + b2 x^2 + 2 b4 x + b6).
    """
    if p == 2:
        a1, a2, a3, a4, a6 = E.integer_ainvs()
        pairs = ((x, y) for x in (0, 1) for y in (0, 1))
        return 1 + sum((y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0 for x, y in pairs)
    x = np.arange(p, dtype=np.int64)
    g = (4 * x + int(E.b2) % p) % p
    g = (g * x + 2 * int(E.b4) % p) % p
    g = (g * x + int(E.b6) % p) % p
    table = np.zeros(p, dtype=np.int8)
    table[(x * x) % p] = 1
    chi = np.where(g == 0, 0, np.where(table[g] == 1, 1, -1))
    return p + 1 + int(chi.sum())


@cache
def ap(E: CurveModel, p: int) -> ApRecord:
    """Trace of Frobenius at p (E must be integral and minimal at p)."""
    if not E.is_integral:
        raise NotMinimalAtP(f"model {E} is not minimal at {p}")
    if int(E.discriminant) % p:  # an integral model is minimal at p when p does not divide disc
        return ApRecord(p, p + 1 - count_points(E, p), GOOD)
    if not is_minimal_at(E, p):
        raise NotMinimalAtP(f"model {E} is not minimal at {p}")
    additive = E.c4 == 0 or valuation(E.c4, p) > 0
    if additive:
        return ApRecord(p, 0, ADDITIVE)
    if p == 2:
        kind = tate_local(E, 2).kind
    else:
        kind = SPLIT if kronecker(int(-E.c6), p) == 1 else NONSPLIT
    return ApRecord(p, 1 if kind == SPLIT else -1, kind)


def an_coefficients(E: CurveModel, n_max: int) -> list[int]:
    """Dirichlet coefficients a_0..a_{n_max} (a_0 = 0 placeholder, a_1 = 1).

    Good primes follow a_{p^k} = a_p a_{p^{k-1}} - p a_{p^{k-2}}; bad primes
    contribute a_{p^k} = a_p^k; values extend multiplicatively.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    M = minimal_model(E)
    bad = {ld.p for ld in conductor(M).local_data}
    a = [0] * (n_max + 1)
    a[1] = 1
    spf = smallest_prime_factors(n_max)
    for p in sieve_primes(n_max):
        rec = ap(M, p)
        q = p
        prev2, prev1 = 1, rec.a_p  # a_{p^0}, a_{p^1}
        good = p not in bad
        while q <= n_max:
            a[q] = prev1
            qn = q * p
            if qn > n_max:
                break
            nxt = rec.a_p * prev1 - (p * prev2 if good else 0)
            prev2, prev1 = prev1, nxt
            q = qn
    for n in range(2, n_max + 1):
        if a[n]:
            continue
        p = spf[n]
        q = p
        m = n // p
        while m % p == 0:
            q *= p
            m //= p
        a[n] = a[q] * a[m]
    return a


def is_ordinary(E: CurveModel, p: int) -> str:
    """'ordinary' or 'supersingular' at a good prime p >= 5."""
    if p < 5:
        raise SmallPrime("classification requires p >= 5")
    M = minimal_model(E)
    if int(M.discriminant) % p == 0:
        raise BadReduction(f"{p} divides the conductor")
    return "ordinary" if ap(M, p).a_p % p else "supersingular"
