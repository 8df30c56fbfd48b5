import pytest

from conftest import random_curves
from twistcheck.arith import NotSquarefree, factorize, is_squarefree
from twistcheck.curves import CurveModel, base_curve, minimal_model, quadratic_twist
from twistcheck.local_invariants import (
    ADDITIVE,
    GOOD,
    NONSPLIT,
    SPLIT,
    NotMinimalAtP,
    conductor,
    tamagawa_product,
    tate_local,
    twisted_conductor_closed_form,
)

SQUAREFREE_200 = [d for d in range(2, 201) if is_squarefree(d)]


class TestTateLocal:
    def test_good_prime(self, x15):
        ld = tate_local(x15, 7)
        assert (ld.kodaira, ld.f, ld.c, ld.kind) == ("I0", 0, 1, GOOD)

    def test_x15_multiplicative_fibers(self, x15):
        ld3, ld5 = tate_local(x15, 3), tate_local(x15, 5)
        assert ld3.kodaira == "I4" and ld5.kodaira == "I4"
        assert ld3.c * ld5.c == 8  # product pinned by the published Tamagawa data
        assert (ld3.kind, ld5.kind) == (NONSPLIT, SPLIT)

    def test_x21_fibers(self, x21):
        ld3, ld7 = tate_local(x21, 3), tate_local(x21, 7)
        assert (ld3.kodaira, ld7.kodaira) == ("I4", "I2")
        assert ld3.c * ld7.c == 8

    def test_twist_additive_at_3(self, x15):
        M = quadratic_twist(x15, 3)
        ld = tate_local(M, 3)
        assert ld.kind == ADDITIVE
        assert ld.f == 2  # conductor 2^4 * 3^2 * 5

    def test_rejects_nonminimal(self):
        E = CurveModel.from_ainvs((0, 0, 0, 0, 16))  # u = 2 scaling applies
        with pytest.raises(NotMinimalAtP):
            tate_local(E, 2)

    def test_rejects_nonintegral(self):
        from fractions import Fraction

        E = CurveModel.from_ainvs((0, 0, 0, Fraction(1, 4), 0))
        with pytest.raises(NotMinimalAtP):
            tate_local(E, 2)

    def test_local_invariant_consistency(self, x15, x21):
        for E in random_curves(20, seed=3) + [x15, x21]:
            M = minimal_model(E)
            for p, _ in factorize(int(M.discriminant)):
                ld = tate_local(M, p)
                if ld.kind == GOOD:
                    assert ld.kodaira == "I0" and ld.f == 0
                elif ld.kind in (SPLIT, NONSPLIT):
                    n = int(ld.kodaira[1:])
                    assert ld.f == 1 and n == ld.vp_disc
                    if ld.kind == SPLIT:
                        assert ld.c == n
                    else:
                        assert ld.c == (2 if n % 2 == 0 else 1)
                    assert n % ld.c == 0
                else:
                    assert ld.kind == ADDITIVE and ld.f >= 2 and ld.c <= 4
                    if p >= 5:
                        assert ld.f == 2
                    elif p == 3:
                        assert ld.f <= 5
                    else:
                        assert ld.f <= 8


def fiber_components(ld):
    k = ld.kodaira
    if k in ("I0", "II"):
        return 1
    if k in ("III",):
        return 2
    if k in ("IV",):
        return 3
    if k == "IV*":
        return 7
    if k == "III*":
        return 8
    if k == "II*":
        return 9
    if k.endswith("*"):
        return int(k[1:-1]) + 5
    return int(k[1:])


class TestClassicalAnchors:
    """Known reduction data of standard small-conductor curves."""

    @pytest.mark.parametrize(
        "ainvs,N",
        [
            ((0, -1, 1, -10, -20), 11),
            ((1, 0, 1, 4, -6), 14),
            ((0, 0, 1, 0, -7), 27),
            ((0, 0, 1, 0, 0), 27),
            ((0, 0, 0, -1, 0), 32),
            ((0, 0, 0, 4, 0), 32),
            ((0, 0, 0, 0, 1), 36),
            ((0, 0, 1, -1, 0), 37),
            ((1, -1, 0, -2, -1), 49),
            ((0, 0, 0, 0, -432), 27),
            # discriminants with a composite cofactor beyond trial division
            ((0, 0, 0, -2955086, -798438074), 2**6 * 4616039 * 4658158030387),
            ((240, -73, 148, 207, 266), 2**2 * 3 * 31 * 248783 * 2048003),
        ],
    )
    def test_conductors(self, ainvs, N):
        assert conductor(CurveModel.from_ainvs(ainvs)).N == N

    def test_named_fibers(self):
        ld = tate_local(CurveModel.from_ainvs((0, -1, 1, -10, -20)), 11)
        assert (ld.kodaira, ld.c, ld.kind) == ("I5", 5, SPLIT)
        ld = tate_local(CurveModel.from_ainvs((0, 0, 1, 0, -7)), 3)
        assert (ld.kodaira, ld.f, ld.c) == ("IV*", 3, 3)
        ld = tate_local(CurveModel.from_ainvs((0, 0, 0, -1, 0)), 2)
        assert (ld.kodaira, ld.f, ld.c) == ("III", 5, 2)

    def test_every_additive_type_reachable_and_ogg_consistent(self):
        # small short-form family walks through II..II* and starred chains
        seen = set()
        for k in range(-40, 41):
            for A in range(-3, 4):
                E = CurveModel.from_ainvs((0, 0, 0, A, k))
                if E.discriminant == 0:
                    continue
                M = minimal_model(E)
                for ld in conductor(M).local_data:
                    assert ld.f == ld.vp_disc - fiber_components(ld) + 1
                    seen.add(ld.kodaira)
        assert {"II", "III", "IV", "I0*", "I1*", "IV*", "III*", "II*"} <= seen


class TestConductor:
    def test_base_levels(self, x15, x21):
        assert conductor(x15).N == 15
        assert conductor(x21).N == 21

    @pytest.mark.parametrize(
        "fam,d,N",
        [("21", 2, 1344), ("15", 17, 4335), ("15", 2, 960), ("21", 41, 35301)],
    )
    def test_twist_rows(self, fam, d, N):
        assert conductor(quadratic_twist(base_curve(fam), d)).N == N

    def test_listed_primes_are_bad_primes(self, x15):
        M = quadratic_twist(x15, 6)
        rep = conductor(M)
        assert {ld.p for ld in rep.local_data} == {p for p, _ in factorize(int(M.discriminant))}
        N = 1
        for p, e in rep.factorization:
            N *= p**e
        assert N == rep.N


class TestTamagawa:
    def test_base_products(self, x15, x21):
        assert tamagawa_product(x15) == 8
        assert tamagawa_product(x21) == 8

    def test_twist_products_are_23_smooth(self, x15, x21):
        for E in (x15, x21):
            for d in SQUAREFREE_200[:40]:
                prod = tamagawa_product(quadratic_twist(E, d))
                assert all(p in (2, 3) for p, _ in factorize(prod)), (E, d, prod)


class TestClosedFormConductor:
    @pytest.mark.parametrize(
        "N,d,expect",
        [
            (15, 3, ((2, 4), (3, 2), (5, 1))),
            (21, 5, ((3, 1), (5, 2), (7, 1))),
            (15, 41, ((3, 1), (5, 1), (41, 2))),  # 41 = 1 mod 4: no factor of 2
        ],
    )
    def test_examples(self, N, d, expect):
        assert twisted_conductor_closed_form(N, d) == expect

    def test_rejects_nonsquarefree(self):
        with pytest.raises(NotSquarefree):
            twisted_conductor_closed_form(12, 5)
        with pytest.raises(NotSquarefree):
            twisted_conductor_closed_form(15, 8)

    def test_matches_tate_on_sample(self, x15, x21):
        # the full d <= 200 sweep lives in the acceptance suite
        for fam, E in (("15", x15), ("21", x21)):
            for d in SQUAREFREE_200[:25]:
                closed = twisted_conductor_closed_form(int(fam), d)
                via_tate = conductor(quadratic_twist(E, d)).factorization
                assert closed == via_tate, (fam, d)
