import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import on_curve, point_add, point_mul, point_neg, point_order, random_curves, rst_transform
from twistcheck.arith import NotSquarefree, iroot, valuation
from twistcheck.curves import (
    CurveModel,
    _validated_base_curve,
    Family,
    SingularCurve,
    base_curve,
    minimal_model,
    parse_ainvs,
    quadratic_twist,
    weierstrass_invariants,
)

J15 = Fraction(13**3 * 37**3, 3**4 * 5**4)
J21 = Fraction(193**3, 3**4 * 7**2)


class TestInvariants:
    def test_classical_curve(self):
        E = CurveModel.from_ainvs((0, 0, 0, -1, 0))  # y^2 = x^3 - x
        assert E.discriminant == 64
        assert E.j == 1728

    def test_identities_on_corpus(self, x15, x21):
        for E in random_curves(25) + [x15, x21]:
            b2, b4, b6, b8, c4, c6, disc = E.b2, E.b4, E.b6, E.b8, E.c4, E.c6, E.discriminant
            assert 4 * b8 == b2 * b6 - b4 * b4
            assert 1728 * disc == c4**3 - c6**2
            assert E.j == Fraction(c4**3, disc)

    def test_singular_rejected(self):
        E = CurveModel.from_ainvs((0, 0, 0, 0, 0))
        with pytest.raises(SingularCurve):
            E.j
        with pytest.raises(SingularCurve):
            minimal_model(E)

    def test_rst_leaves_c_invariants_fixed(self, x15):
        rng = random.Random(7)
        for E in random_curves(10) + [x15]:
            r, s, t = (rng.randint(-5, 5) for _ in range(3))
            F = rst_transform(E, r, s, t)
            assert F.c4 == E.c4 and F.c6 == E.c6
            assert F.discriminant == E.discriminant
            assert F.b2 == E.b2 + 12 * r


class TestBaseCurves:
    def test_x15(self, x15):
        assert x15.ainvs == (1, 1, 1, -10, -10)
        assert x15.j == J15
        assert x15.discriminant == 3**4 * 5**4

    def test_x21(self, x21):
        assert x21.ainvs == (1, 0, 0, -4, -1)
        assert x21.j == J21
        assert x21.discriminant == 3**4 * 7**2

    def test_x21_multiplicative_valuations(self, x21):
        # v_q(j) = -v_q(disc) at multiplicative primes, per the j factorization
        assert valuation(x21.discriminant, 3) == 4
        assert valuation(x21.discriminant, 7) == 2

    def test_family_parsing(self):
        assert Family.parse("15") is Family.X15
        assert Family.parse("x21") is Family.X21
        with pytest.raises(ValueError):
            Family.parse("37")


class TestMinimalModel:
    def test_base_curves_are_fixed_points(self, x15, x21):
        assert minimal_model(x15) == x15
        assert minimal_model(x21) == x21

    def test_u2_scaling_drops(self):
        E = CurveModel.from_ainvs((0, 0, 0, 0, 16))  # y^2 = x^3 + 16
        M = minimal_model(E)
        assert valuation(E.discriminant, 2) - valuation(M.discriminant, 2) == 12
        assert M.j == E.j

    def test_idempotent(self):
        for E in random_curves(20, seed=5):
            M = minimal_model(E)
            assert minimal_model(M) == M

    def test_rational_input(self):
        a = (0, 0, 0, Fraction(-1, 16), Fraction(1, 64))
        E = CurveModel.from_ainvs(a)  # scaled by u = 64
        assert E.ainvs == (0, 0, 0, -(2**20), 2**30)
        *_, c4, c6, disc = weierstrass_invariants(a)
        assert E.j == c4**3 / disc
        M = minimal_model(E)
        assert M.ainvs == (0, 0, 0, -1, 1)  # a_i -> 2^i a_i
        assert M.j == E.j

    def test_twist_13_bad_primes(self, x15):
        M = quadratic_twist(x15, 13)
        disc = M.discriminant
        for p in (2, 7, 11):
            assert disc % p != 0
        for p in (3, 5, 13):
            assert disc % p == 0


class TestQuadraticTwist:
    def test_identity_twist(self, x15):
        assert quadratic_twist(x15, 1) == minimal_model(x15)

    def test_not_squarefree_rejected(self, x15):
        for d in (0, 12, -18):
            with pytest.raises(NotSquarefree):
                quadratic_twist(x15, d)

    def test_j_invariance(self):
        sf = [d for d in range(-50, 51) if d and all(d % (q * q) for q in range(2, 8))]
        for E in random_curves(6, seed=11):
            for d in sf[::7]:
                assert quadratic_twist(E, d).j == E.j

    def test_involution(self, x15, x21):
        for E in random_curves(5, seed=13) + [x15, x21]:
            for d in (2, 5, -3):
                twice = quadratic_twist(quadratic_twist(E, d), d)
                assert twice == minimal_model(E)

    @pytest.mark.parametrize(
        "fam,d,N",
        [("15", 2, 960), ("21", 5, 525)],
    )
    def test_table_conductors(self, fam, d, N):
        from twistcheck.local_invariants import conductor

        assert conductor(quadratic_twist(base_curve(fam), d)).N == N


class TestGroupLaw:
    def test_two_torsion_sums(self):
        E = CurveModel.from_ainvs((0, 0, 0, -1, 0))  # y^2 = x^3 - x
        P, Q, R = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))
        for T in (P, Q, R):
            assert on_curve(E, T)
            assert point_order(E, T) == 2
        assert point_add(E, P, Q) == R
        assert point_add(E, P, P) is None

    def test_neg_and_mul(self, x15):
        P = (Fraction(-2), Fraction(-2))  # order-4 point on 15A1
        assert on_curve(x15, P)
        assert point_order(x15, P) == 4
        assert point_add(x15, P, point_neg(x15, P)) is None
        assert point_mul(x15, 4, P) is None
        assert point_mul(x15, 2, P) == point_add(x15, P, P)

    def test_associativity_spot(self, x15):
        P = (Fraction(-2), Fraction(-2))
        Q = (Fraction(-1), Fraction(0))
        R = point_add(x15, P, P)
        lhs = point_add(x15, point_add(x15, P, Q), R)
        rhs = point_add(x15, P, point_add(x15, Q, R))
        assert lhs == rhs


def test_from_ainvs_scales_rational_input_once():
    rng = random.Random(20261019)
    dens = (1, 2, 3, 4, 6, 9, 12)
    seen = 0
    while seen < 300:
        a = tuple(Fraction(rng.randint(-300, 300), rng.choice(dens)) for _ in range(5))
        *_, c4, c6, disc = weierstrass_invariants(a)
        if disc == 0:
            continue
        seen += 1
        E = CurveModel.from_ainvs(a)
        fields = (*E.ainvs, E.b2, E.b4, E.b6, E.b8, E.c4, E.c6, E.discriminant)
        assert all(type(v) is int for v in fields), a
        scale = E.discriminant / disc
        u = iroot(scale.numerator, 12)
        assert scale == u**12, a
        assert (E.c4, E.c6) == (c4 * u**4, c6 * u**6), a
        assert E.j == c4**3 / disc
        assert CurveModel.from_ainvs(E.ainvs).ainvs == E.ainvs  # integral input is kept


def test_parse_ainvs():
    E = parse_ainvs("1,1,1,-10,-10")
    assert E.ainvs == (1, 1, 1, -10, -10)
    assert parse_ainvs(" [0, 0, 0, -1, 0] ").ainvs == CurveModel.from_ainvs((0, 0, 0, -1, 0)).ainvs
    # scaled by u = lcm(2, 3, 4) = 12: a_i -> 12^i a_i
    assert parse_ainvs("1/2,1/3,0,-1,1/4").ainvs == (6, 48, 0, -(12**4), 12**6 // 4)
    with pytest.raises(ValueError):
        parse_ainvs("1,2,3")
    for text, field in (("0,0,0,0,1/0", "a6"), ("0,x,0,0,1", "a2"), ("0,0,0,1e999999999,0", "a4")):
        with pytest.raises(ValueError, match=field):
            parse_ainvs(text)


@given(st.text(alphabet="0123456789-+/ ,[]x.e", max_size=40))
@settings(max_examples=100, deadline=None)
def test_parse_ainvs_raises_only_value_error(text):
    try:
        E = parse_ainvs(text)
    except ValueError:
        return
    assert len(E.ainvs) == 5


def test_base_curve_one_cache_entry_per_family():
    _validated_base_curve.cache_clear()
    E = base_curve(15)
    assert base_curve("15") is E and base_curve(Family.X15) is E and base_curve(" x15") is E
    base_curve(21)
    info = _validated_base_curve.cache_info()
    assert (info.misses, info.hits) == (2, 3)
