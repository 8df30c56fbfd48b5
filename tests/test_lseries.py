import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_curves, scale_up
from twistcheck import lseries
from twistcheck.arith import is_p_adic_unit
from twistcheck.curves import CurveModel, base_curve, minimal_model, quadratic_twist
from twistcheck.frobenius import an_coefficients, ap
from twistcheck.local_invariants import conductor
from twistcheck.lseries import (
    PrecisionExhausted,
    RecognitionFailed,
    _algebraic_l_ratio,
    _kahan_series,
    _series_length,
    algebraic_l_ratio,
    period_of_model,
)
from twistcheck.tabledata import TABLE1, TABLE2


def quadrature_period(E: CurveModel) -> float:
    """Normative oracle: adaptive quadrature of 2 * int_{e1}^inf dx/sqrt(g),
    doubled again on the two-component (positive discriminant) locus."""
    b2, b4, b6 = float(E.b2), float(E.b4), float(E.b6)
    disc = E.discriminant
    roots = np.roots([4.0, b2, 2.0 * b4, b6])
    e1 = max(z.real for z in roots if abs(z.imag) < 1e-7 * (1.0 + abs(z)))

    def g(x):
        return ((4.0 * x + b2) * x + 2.0 * b4) * x + b6

    def dg(x):
        return (12.0 * x + 2.0 * b2) * x + 2.0 * b4

    def integrand(t):
        if t == 0.0:
            return 4.0 / math.sqrt(dg(e1))
        return 4.0 * t / math.sqrt(g(e1 + t * t))

    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    return (2.0 if disc > 0 else 1.0) * val


def doubled_series(M: CurveModel, n_max: int) -> tuple[float, int]:
    """(L(E,1), root number) from 2 * n_max terms, summed here with math.fsum:
    the same two-point sign test as the program, on a series twice as long."""
    sqN = math.sqrt(conductor(M).N)
    a = an_coefficients(M, 2 * n_max)

    def F(t: float) -> float:
        c = 2.0 * math.pi * t / sqN
        return math.fsum(a[n] / n * math.exp(-c * n) for n in range(1, 2 * n_max + 1) if a[n])

    f1, f_hi, f_lo = F(1.0), F(1.2), F(1.0 / 1.2)
    if abs(2.0 * f1 - (f_hi + f_lo)) <= abs(f_hi - f_lo):
        return 2.0 * f1, 1
    return 0.0, -1


def period_corpus(x15, x21):
    corpus = [minimal_model(E) for E in random_curves(16, seed=99)]
    corpus += [x15, x21, quadratic_twist(x15, 7), quadratic_twist(x21, 11)]
    return corpus


class TestRealPeriod:
    def test_agm_matches_quadrature(self, x15, x21):
        corpus = period_corpus(x15, x21)
        signs = {1 if M.discriminant > 0 else -1 for M in corpus}
        assert signs == {1, -1}
        for M in corpus:
            agm = period_of_model(M)
            orc = quadrature_period(M)
            assert abs(agm - orc) <= 1e-9 * orc, M

    def test_scaling_law(self, x15):
        # (x, y) -> (u^2 x, u^3 y) divides the period by u
        for u in (2, 3):
            scaled = scale_up(x15, u)  # a_i -> u^i a_i
            assert abs(period_of_model(scaled) - period_of_model(x15) / u) < 1e-12

    def test_minimalizes_internally(self, x15):
        blown_up = scale_up(x15, 6)
        assert abs(period_of_model(minimal_model(blown_up)) - period_of_model(x15)) < 1e-13
        assert abs(algebraic_l_ratio(blown_up).omega - period_of_model(x15)) < 1e-13


class TestLValue:
    def test_anchor_ratios(self, x15, x21):
        assert algebraic_l_ratio(x15).ratio == Fraction(1, 8)
        assert algebraic_l_ratio(x21).ratio == Fraction(1, 8)

    def test_vanishing_twist(self, x15):
        res = algebraic_l_ratio(quadratic_twist(x15, 3))
        assert res.ratio == 0
        assert res.root_number == -1 or abs(res.l1) < 1e-8 * res.omega

    def test_root_number_minus_one_gives_positive_zero(self, x15):
        res = algebraic_l_ratio(quadratic_twist(x15, 58))
        assert res.root_number == -1
        assert math.copysign(1.0, res.l1) == 1.0 and res.l1 == 0.0

    @pytest.mark.parametrize(
        "fam,d,expect",
        [("21", 37, 8), ("15", 35, 16), ("21", 5, 1), ("15", 2, 2)],
    )
    def test_nonzero_rows(self, fam, d, expect):
        res = algebraic_l_ratio(quadratic_twist(base_curve(fam), d))
        assert res.ratio == Fraction(expect)
        assert res.root_number == 1

    def test_root_number_consistency_and_stability_all_rows(self, x15, x21):
        for E, rows in ((x15, TABLE1), (x21, TABLE2)):
            for row in rows:
                Ed = quadratic_twist(E, row.d)
                res = algebraic_l_ratio(Ed)
                if row.lratio == 0:
                    assert res.root_number == -1 or abs(res.l1) < 1e-8 * res.omega
                else:
                    assert res.root_number == 1
                # doubled series length, tightened tolerance: same rational
                M = minimal_model(Ed)
                l1, w = doubled_series(M, res.n_max)
                assert w == res.root_number
                assert abs(l1 - res.l1) < 1e-9
                x = l1 / res.omega
                ratio = Fraction(x).limit_denominator(128) if w == 1 else Fraction(0)
                assert w == -1 or abs(x - float(ratio)) < 1e-8
                assert ratio == res.ratio

    def test_l_value_fields(self, x15):
        res = algebraic_l_ratio(x15)
        assert res.root_number == 1
        assert res.omega == period_of_model(x15)
        assert abs(res.l1 / period_of_model(x15) - 0.125) < 1e-9

    def test_one_cache_entry_per_request(self, x15):
        Ed = quadratic_twist(x15, 2)
        _algebraic_l_ratio.cache_clear()
        first = algebraic_l_ratio(Ed)
        assert algebraic_l_ratio(Ed) is first
        assert algebraic_l_ratio(scale_up(Ed, 2)) is first  # a non-minimal model of the same curve
        info = _algebraic_l_ratio.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_recognition_failure_surfaces(self, x15, monkeypatch):
        monkeypatch.setattr(lseries, "MAX_DENOMINATOR", 3)
        monkeypatch.setattr(lseries, "TOLERANCE", 1e-300)
        _algebraic_l_ratio.cache_clear()
        try:
            with pytest.raises(RecognitionFailed):
                algebraic_l_ratio(quadratic_twist(x15, 19))
        finally:
            _algebraic_l_ratio.cache_clear()


def kahan_one(a: list[int], coef: float, n_max: int) -> float:
    """The reference: one compensated pass of a_n/n * exp(-coef * n)."""
    total = comp = 0.0
    for n in range(1, n_max + 1):
        if a[n]:
            y = (a[n] / n) * math.exp(-coef * n) - comp
            t = total + y
            comp = (t - total) - y
            total = t
    return total


class TestSeriesSums:
    def test_one_pass_equals_three(self, x15, x21):
        curves = [quadratic_twist(E, d) for E in (x15, x21) for d in (-7, 2, 13, 629)]
        curves += [minimal_model(E) for E in random_curves(4, seed=51, coeff_bound=6)]
        for E in curves:
            N = conductor(E).N
            n_max = min(_series_length(N), 20000)
            a = an_coefficients(E, n_max)
            ts = (1.0, lseries._SAMPLE_T, 1.0 / lseries._SAMPLE_T)
            coefs = tuple(2.0 * math.pi * t / math.sqrt(N) for t in ts)
            assert _kahan_series(a, coefs, n_max) == tuple(kahan_one(a, c, n_max) for c in coefs), E

    def test_series_leaves_ap_memo_alone(self, x15, x21):
        before = ap.cache_info().currsize
        misses = _algebraic_l_ratio.cache_info().misses
        for Ed in (quadratic_twist(x15, 173), quadratic_twist(x15, -131), quadratic_twist(x21, 197)):
            algebraic_l_ratio(Ed)
        assert _algebraic_l_ratio.cache_info().misses == misses + 3
        assert ap.cache_info().currsize == before


class TestSeriesCap:
    """15A1 twisted by 9998 needs 1,142,411 terms, past NMAX_CAP = 10^6."""

    def test_cap_raises_before_any_point_count(self, x15, monkeypatch):
        def no_count(*args):
            raise AssertionError("the cap must be checked before the a_n are computed")

        monkeypatch.setattr(lseries, "an_coefficients", no_count)
        with pytest.raises(PrecisionExhausted, match="series needs 1142411 terms, cap is 1000000"):
            algebraic_l_ratio(quadratic_twist(x15, 9998))

    @pytest.mark.parametrize("N,n", [(2028697329, 321586), (2779596633, 378010)])
    def test_length_below_the_cap_uses_one_minus_q(self, N, n):
        # -expm1(-c) in place of 1 - exp(-c) would give n - 1 and n + 1 here
        assert _series_length(N) == n

    def test_length_past_float_one(self):
        # exp(-c) rounds to 1.0 here; the length stays finite and past the cap
        assert _series_length(10**38) > lseries.NMAX_CAP


class TestPAdicUnit:
    @pytest.mark.parametrize(
        "q,p,expect",
        [
            (Fraction(1, 8), 7, True),
            (Fraction(16), 2, False),
            (Fraction(0), 11, False),
            (Fraction(1, 8), 2, False),
            (Fraction(3, 5), 3, False),
        ],
    )
    def test_examples(self, q, p, expect):
        assert is_p_adic_unit(q, p) is expect
