"""Real periods by AGM, L(E, 1) by the exponentially convergent series, and
exact recognition of the algebraic ratio L(E, 1) / Omega.

Conventions: Omega is the total measure of E(R) against the Neron
differential of the minimal model, i.e. twice the fundamental real period
when the discriminant is positive.  All analytic work is double precision
with compensated summation; the quantities recognized are small rationals,
orders of magnitude away from the achievable accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .arith import valuation
from .curves import CurveModel, SingularCurve, minimal_model
from .frobenius import an_coefficients
from .local_invariants import conductor

ZERO_RATIO = Fraction(0)


class RootNumberAmbiguous(ArithmeticError):
    """Neither sign choice makes the two series evaluations consistent."""


class PrecisionExhausted(ArithmeticError):
    """The required series length exceeds the configured cap."""


class RecognitionFailed(ArithmeticError):
    """No small rational sits within tolerance of L1/Omega."""


@dataclass(frozen=True)
class LRatioResult:
    l1: float
    omega: float
    root_number: int
    ratio: Fraction  # Fraction(0) encodes the vanishing (non-unit) case
    n_max: int


# ---------------------------------------------------------------------------
# real period


def _agm(a: float, b: float) -> float:
    while abs(a - b) > 1e-15 * abs(a):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def _polished_roots(b2: float, b4: float, b6: float):
    """Roots of 4x^3 + b2 x^2 + 2 b4 x + b6, Newton-polished in float64."""
    roots = np.roots([4.0, b2, 2.0 * b4, b6])

    def g(x):
        return ((4.0 * x + b2) * x + 2.0 * b4) * x + b6

    def dg(x):
        return (12.0 * x + 2.0 * b2) * x + 2.0 * b4

    polished = []
    for z in roots:
        if abs(z.imag) > 1e-7 * (1.0 + abs(z)):
            polished.append(complex(z))
            continue
        x = float(z.real)
        for _ in range(60):
            d = dg(x)
            if d == 0.0:
                break
            step = g(x) / d
            x -= step
            if abs(step) <= 1e-17 * (1.0 + abs(x)):
                break
        polished.append(complex(x, 0.0))
    return polished


def period_of_model(E: CurveModel) -> float:
    """Real-locus measure of this exact model (no minimalization)."""
    b2, b4, b6 = float(E.b2), float(E.b4), float(E.b6)
    disc = E.discriminant
    if disc == 0:
        raise SingularCurve(f"singular model {E}")
    roots = _polished_roots(b2, b4, b6)
    if disc > 0:
        es = sorted((z.real for z in roots), reverse=True)
        e1, e2, e3 = es
        omega1 = math.pi / _agm(math.sqrt(e1 - e3), math.sqrt(e1 - e2))
        return 2.0 * omega1
    e1 = max((z.real for z in roots if abs(z.imag) < 1e-6 * (1.0 + abs(z))), default=None)
    if e1 is None:
        raise ArithmeticError("no real root found for negative discriminant")
    # divide out the real root: x^2 + px + q holds the complex pair
    pq_p = e1 + b2 / 4.0
    pq_q = b4 / 2.0 + e1 * pq_p
    A = -pq_p / 2.0
    B2 = pq_q - pq_p * pq_p / 4.0
    m = e1 - A
    R = math.sqrt(m * m + B2)
    return math.pi / _agm(math.sqrt((R + m) / 2.0), math.sqrt(R))


def real_period(E: CurveModel) -> float:
    """Total real period of the minimal model of E (accuracy ~1e-12 relative)."""
    return period_of_model(minimal_model(E))


# ---------------------------------------------------------------------------
# L(E, 1)


def _kahan_series(a: list[int], coef: float, n_max: int) -> float:
    """Compensated sum of a_n/n * exp(-coef * n) for n = 1..n_max."""
    total = 0.0
    comp = 0.0
    for n in range(1, n_max + 1):
        an = a[n]
        if an == 0:
            continue
        term = (an / n) * math.exp(-coef * n)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _series_length(N: int, eps: float = 1e-12, t_min: float = 1.0 / 1.2) -> int:
    """Smallest n_max with the geometric tail majorant 2 q^(M+1)/(1-q) < eps."""
    c = 2.0 * math.pi * t_min / math.sqrt(N)
    q = math.exp(-c)
    n = math.ceil((math.log(2.0) - math.log(eps * (1.0 - q))) / c)
    return max(n, 20)


def l_value_at_1(E: CurveModel, nmax_cap: int = 10**6) -> tuple[float, int]:
    """(L(E,1), root number), resolving the sign by two-point consistency."""
    l1, w, _ = _l_series(E, nmax_cap)
    return l1, w


def _l_series(E: CurveModel, nmax_cap: int, stretch: int = 1) -> tuple[float, int, int]:
    M = minimal_model(E)
    N = conductor(M).N
    n_max = _series_length(N) * stretch
    if n_max > nmax_cap:
        raise PrecisionExhausted(f"series needs {n_max} terms, cap is {nmax_cap}")
    a = an_coefficients(M, n_max)
    sqN = math.sqrt(N)

    def F(t: float) -> float:
        return _kahan_series(a, 2.0 * math.pi * t / sqN, n_max)

    f1 = F(1.0)
    f_hi = F(1.2)
    f_lo = F(1.0 / 1.2)
    disc_plus = abs(2.0 * f1 - (f_hi + f_lo))
    disc_minus = abs(f_hi - f_lo)
    if disc_plus <= disc_minus:
        w, best = 1, disc_plus
    else:
        w, best = -1, disc_minus
    if best >= 1e-8:
        raise RootNumberAmbiguous(
            f"discrepancies {disc_plus:.3e} / {disc_minus:.3e} both exceed 1e-8"
        )
    return (2.0 * f1 if w == 1 else 0.0), w, n_max


# ---------------------------------------------------------------------------
# algebraic ratio


@cache
def algebraic_l_ratio(
    E: CurveModel,
    nmax_cap: int = 10**6,
    tolerance: float = 1e-6,
    max_denominator: int = 128,
    _stretch: int = 1,
) -> LRatioResult:
    """Exactly recognized L(E,1)/Omega (Fraction(0) when the value vanishes)."""
    M = minimal_model(E)
    omega = period_of_model(M)
    l1, w, n_max = _l_series(M, nmax_cap, stretch=_stretch)
    if w == -1 or abs(l1) < 1e-8 * omega:
        return LRatioResult(l1, omega, w, ZERO_RATIO, n_max)
    x = l1 / omega
    guess = Fraction(x).limit_denominator(max_denominator)
    if abs(x - float(guess)) >= tolerance:
        raise RecognitionFailed(
            f"L1/Omega = {x!r} is not within {tolerance} of a rational "
            f"with denominator <= {max_denominator}"
        )
    return LRatioResult(l1, omega, w, guess, n_max)


def is_p_adic_unit(q, p: int) -> bool:
    """False at zero; otherwise true iff v_p(q) = 0."""
    q = Fraction(q)
    if q == 0:
        return False
    return valuation(q, p) == 0
