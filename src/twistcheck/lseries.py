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
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .arith import real_cubic_roots
from .curves import CurveModel, SingularCurve, minimal_model
from .frobenius import an_coefficients
from .local_invariants import conductor

ZERO_RATIO = Fraction(0)

# The series stops at NMAX_CAP terms, so an arbitrary curve cannot ask for an
# unbounded one; L1/Omega is recognized as the rational with denominator at
# most MAX_DENOMINATOR nearest to it, which must lie within TOLERANCE.
NMAX_CAP = 10**6
TOLERANCE = 1e-6
MAX_DENOMINATOR = 128
# F(t) is summed at t = 1, _SAMPLE_T and 1 / _SAMPLE_T, to a tail below _TAIL_EPS
_SAMPLE_T = 1.2
_TAIL_EPS = 1e-12


class RootNumberAmbiguous(ArithmeticError):
    """Neither sign choice makes the two series evaluations consistent."""


class PrecisionExhausted(ArithmeticError):
    """The required series length exceeds NMAX_CAP."""


class RecognitionFailed(ArithmeticError):
    """No small rational sits within TOLERANCE of L1/Omega."""


class LRatioResult(NamedTuple):
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


def period_of_model(E: CurveModel) -> float:
    """Real-locus measure of this exact model (no minimalization)."""
    disc = E.discriminant
    if disc == 0:
        raise SingularCurve(f"singular model {E}")
    roots = real_cubic_roots(4, E.b2, 2 * E.b4, E.b6)
    if disc > 0:
        e1, e2, e3 = roots
        omega1 = math.pi / _agm(math.sqrt(e1 - e3), math.sqrt(e1 - e2))
        return 2.0 * omega1
    (e1,) = roots
    b2, b4 = float(E.b2), float(E.b4)
    # divide out the real root: x^2 + px + q holds the complex pair
    pq_p = e1 + b2 / 4.0
    pq_q = b4 / 2.0 + e1 * pq_p
    A = -pq_p / 2.0
    B2 = pq_q - pq_p * pq_p / 4.0
    m = e1 - A
    R = math.sqrt(m * m + B2)
    return math.pi / _agm(math.sqrt((R + m) / 2.0), math.sqrt(R))


# ---------------------------------------------------------------------------
# L(E, 1)


def _kahan_series(a: list[int], coefs: tuple[float, float, float], n_max: int) -> tuple[float, float, float]:
    """Compensated sums of a_n/n * exp(-c n) for n = 1..n_max, one for each c
    of coefs, in one pass: each sum sees its terms in the order and with the
    floats of a pass of its own."""
    c1, c2, c3 = coefs
    s1 = s2 = s3 = 0.0
    e1 = e2 = e3 = 0.0
    exp = math.exp
    for n in range(1, n_max + 1):
        an = a[n]
        if an == 0:
            continue
        w = an / n
        y = w * exp(-c1 * n) - e1
        t = s1 + y
        e1 = (t - s1) - y
        s1 = t
        y = w * exp(-c2 * n) - e2
        t = s2 + y
        e2 = (t - s2) - y
        s2 = t
        y = w * exp(-c3 * n) - e3
        t = s3 + y
        e3 = (t - s3) - y
        s3 = t
    return s1, s2, s3


def _series_length(N: int) -> int:
    """Smallest n_max whose tail majorant 2 q^(M+1)/(1-q) at t = 1 / _SAMPLE_T is < _TAIL_EPS."""
    c = 2.0 * math.pi * (1.0 / _SAMPLE_T) / math.sqrt(N)
    q = math.exp(-c)
    # 1 - q fixes n below the cap (expm1 alone moves it by one at 179 N there,
    # the first 2028697329); past N ~ 9e33 q rounds to 1 and expm1 keeps 1 - q
    n = math.ceil((math.log(2.0) - math.log(_TAIL_EPS * (1.0 - q or -math.expm1(-c)))) / c)
    return max(n, 20)


def _l_series(M: CurveModel) -> tuple[float, int, int]:
    """(L(E,1), root number, n_max) of a minimal model, resolving the sign by
    two-point consistency."""
    N = conductor(M).N
    n_max = _series_length(N)
    if n_max > NMAX_CAP:
        raise PrecisionExhausted(f"series needs {n_max} terms, cap is {NMAX_CAP}")
    a = an_coefficients(M, n_max)
    sqN = math.sqrt(N)
    # F(t) at t = 1, _SAMPLE_T and 1 / _SAMPLE_T
    coefs = tuple(2.0 * math.pi * t / sqN for t in (1.0, _SAMPLE_T, 1.0 / _SAMPLE_T))
    f1, f_hi, f_lo = _kahan_series(a, coefs, n_max)
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


def algebraic_l_ratio(E: CurveModel) -> LRatioResult:
    """Exactly recognized L(E,1)/Omega (Fraction(0) when the value vanishes)."""
    # one cache entry per minimal model, however the curve is spelled
    return _algebraic_l_ratio(minimal_model(E))


@cache
def _algebraic_l_ratio(M: CurveModel) -> LRatioResult:
    omega = period_of_model(M)
    l1, w, n_max = _l_series(M)
    if w == -1 or abs(l1) < 1e-8 * omega:
        return LRatioResult(l1, omega, w, ZERO_RATIO, n_max)
    x = l1 / omega
    guess = Fraction(x).limit_denominator(MAX_DENOMINATOR)
    if abs(x - float(guess)) >= TOLERANCE:
        raise RecognitionFailed(
            f"L1/Omega = {x!r} is not within {TOLERANCE} of a rational "
            f"with denominator <= {MAX_DENOMINATOR}"
        )
    return LRatioResult(l1, omega, w, guess, n_max)

