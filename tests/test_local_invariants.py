import random
import time

import pytest

from conftest import random_curves, rst_transform, scale_up
from twistcheck import arith
from twistcheck.arith import NotSquarefree, factorize, is_prime, is_squarefree, kronecker
from twistcheck.curves import CurveModel, SingularCurve, base_curve, minimal_model, quadratic_twist
from twistcheck.frobenius import ap
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

        E = CurveModel.from_ainvs((0, 0, 0, Fraction(1, 4), 0))  # scaled to (0, 0, 0, 64, 0)
        with pytest.raises(NotMinimalAtP):
            tate_local(E, 2)

    def test_rejects_singular(self):
        for ainvs in ((0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, -1, 0, 0, 0)):
            E = CurveModel(*ainvs)
            assert E.discriminant == 0
            for p in (2, 3, 5):
                with pytest.raises(SingularCurve):
                    tate_local(E, p)
                with pytest.raises(SingularCurve):
                    ap(E, p)

    def test_the_algorithm_alone_decides_minimality(self):
        # a translate of a minimal model is minimal, with the same local data;
        # scaled by u = p or p^2 it is not minimal at p, and the algorithm
        # reaches its last step (Silverman, GTM 151, IV.9)
        rng = random.Random(23)
        kinds = set()
        for E in random_curves(300, seed=23, coeff_bound=200):
            M = minimal_model(E)
            p = rng.choice((2, 3, 5, 7, 11))
            T = rst_transform(M, *(rng.randint(-p * p, p * p) for _ in range(3)))
            assert tate_local(T, p) == tate_local(M, p), (M, T, p)
            S = scale_up(T, p ** rng.randint(1, 2))
            for f in (tate_local, ap):
                with pytest.raises(NotMinimalAtP):
                    f(S, p)
            kinds.add(tate_local(M, p).kind)
        assert kinds == {GOOD, SPLIT, NONSPLIT, ADDITIVE}

    def test_local_invariant_consistency(self, x15, x21):
        for E in random_curves(20, seed=3) + [x15, x21]:
            M = minimal_model(E)
            for p, _ in factorize(M.discriminant):
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


class TestSplitMultiplicative:
    """Split or nonsplit from the quadratic character of -c6 mod p (p >= 5),
    not from a root count: a twist by a non-residue mod p swaps them."""

    @staticmethod
    def multiplicative_cases():
        rng = random.Random(18)
        cases = []
        # random models with a multiplicative prime p > 10^6 (all I1 here)
        while len(cases) < 6:
            E = CurveModel(*(rng.randint(-300, 300) for _ in range(5)))
            if E.discriminant == 0:
                continue
            try:
                rep = conductor(E)
            except ValueError:  # a composite cofactor beyond trial division
                continue
            M = minimal_model(E)
            cases += [(M, ld.p) for ld in rep.local_data if ld.p > 10**6 and ld.f == 1]
        # y^2 + xy = x^3 + a2 x^2 + u p^n: I_n at p, disc = -u p^n ((1 + 4 a2)^3 + 432 u p^n)
        while len(cases) < 18:
            p = rng.randrange(10**6, 10**12) | 1
            while not is_prime(p):
                p += 2
            n, a2, u = rng.randint(2, 7), rng.randint(-50, 50), rng.choice([1, -1, 2, -3, 5])
            cases.append((CurveModel(1, a2, 0, 0, u * p**n), p))
        return cases

    def test_twist_by_a_non_residue_swaps_split_and_nonsplit(self):
        for E, p in self.multiplicative_cases():
            d = next(q for q in range(2, 200) if is_prime(q) and kronecker(q, p) == -1)
            if kronecker(-1, p) == 1:  # -d is a non-residue too
                d = -d
            ld, lt = tate_local(E, p), tate_local(quadratic_twist(E, d), p)
            n = ld.vp_disc
            assert ld.kind == (SPLIT if kronecker(-E.c6, p) == 1 else NONSPLIT), (E, p)
            assert ld.kodaira == lt.kodaira == f"I{n}" and lt.vp_disc == n
            assert {ld.kind, lt.kind} == {SPLIT, NONSPLIT}
            for x in (ld, lt):
                assert x.f == 1 and x.c == (n if x.kind == SPLIT else 2 - n % 2)


class TestRootCountMechanism:
    """Quadratic root counts in Tate's algorithm need no T^p mod f: conductor
    calls arith.pol_powmod once per I0* fibre (its cubic) and nowhere else."""

    @staticmethod
    def powmod_calls(E, monkeypatch):
        calls = 0
        powmod = arith.pol_powmod

        def counted(*args):
            nonlocal calls
            calls += 1
            return powmod(*args)

        monkeypatch.setattr(arith, "pol_powmod", counted)
        rep = conductor.__wrapped__(E)  # uncached
        monkeypatch.undo()
        return calls, sum(ld.kodaira == "I0*" for ld in rep.local_data)

    def test_family_twists(self, x15, x21, monkeypatch):
        assert self.powmod_calls(x15, monkeypatch) == self.powmod_calls(x21, monkeypatch) == (0, 0)
        # every odd prime of d divides the level and d = 1 mod 4: I_n* fibres only
        for E, d in ((x15, 5), (x15, -3), (x15, -15), (x21, -3), (x21, -7), (x21, 21)):
            assert self.powmod_calls(quadratic_twist(E, d), monkeypatch) == (0, 0), d
        for E in (x15, x21):
            for d in SQUAREFREE_200[:30] + [-d for d in SQUAREFREE_200[:30]]:
                calls, i0star = self.powmod_calls(quadratic_twist(E, d), monkeypatch)
                assert calls == i0star, d

    def test_seeded_models(self, monkeypatch):
        without_i0star = 0
        for E in random_curves(60, seed=18, coeff_bound=40):
            calls, i0star = self.powmod_calls(E, monkeypatch)
            assert calls == i0star, E
            without_i0star += i0star == 0
        assert without_i0star >= 50


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

    def test_twist_by_large_prime(self, x15):
        # the I0* cubic at p = 10^9 + 7 is counted by a gcd, not by a scan of F_p
        d = 10**9 + 7
        start = time.perf_counter()
        rep = conductor(quadratic_twist(x15, d))
        assert time.perf_counter() - start < 1
        assert rep.N == 2**4 * 3 * 5 * d**2

    def test_listed_primes_are_bad_primes(self, x15):
        M = quadratic_twist(x15, 6)
        rep = conductor(M)
        assert {ld.p for ld in rep.local_data} == {p for p, _ in factorize(M.discriminant)}
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
