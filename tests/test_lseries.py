import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_curves
from twistcheck.curves import CurveModel, base_curve, minimal_model, quadratic_twist, u_scale
from twistcheck.lseries import (
    RecognitionFailed,
    algebraic_l_ratio,
    is_p_adic_unit,
    l_value_at_1,
    period_of_model,
    real_period,
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
            scaled = u_scale(x15, Fraction(1, u))  # a_i -> u^i a_i
            assert abs(period_of_model(scaled) - period_of_model(x15) / u) < 1e-12

    def test_minimalizes_internally(self, x15):
        blown_up = u_scale(x15, Fraction(1, 6))
        assert abs(real_period(blown_up) - real_period(x15)) < 1e-13


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
                res2 = algebraic_l_ratio(Ed, tolerance=1e-8, _stretch=2)
                assert res2.ratio == res.ratio
                assert abs(res2.l1 - res.l1) < 1e-9

    def test_l_value_tuple_api(self, x15):
        l1, w = l_value_at_1(x15)
        assert w == 1
        assert abs(l1 / real_period(x15) - 0.125) < 1e-9

    def test_recognition_failure_surfaces(self, x15):
        with pytest.raises(RecognitionFailed):
            algebraic_l_ratio(quadratic_twist(x15, 19), tolerance=1e-300, max_denominator=3)


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
