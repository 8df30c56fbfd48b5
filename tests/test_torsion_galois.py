import math
import sys
import time
from fractions import Fraction

import pytest

from conftest import random_curves, scan_torsion, torsion_points
from twistcheck import local_invariants
from twistcheck.arith import integer_roots, is_squarefree, sieve_primes
from twistcheck.curves import (
    CurveModel,
    base_curve,
    minimal_model,
    quadratic_twist,
)
from twistcheck.frobenius import ap, count_points
from twistcheck.local_invariants import conductor
from twistcheck.torsion_galois import (
    SAMPLE_BOUND,
    SURJECTIVE,
    UNDETERMINED,
    InvalidL,
    mod_l_image,
    torsion_subgroup,
)


def two_torsion_rational(E: CurveModel) -> bool:
    """True iff all 2-torsion is rational: the 2-division cubic of the short
    model splits over Q."""
    return len(integer_roots([-54 * E.c6, -27 * E.c4, 0, 1])) == 3

# ---------------------------------------------------------------------------
# independent mod-p group law (oracle for the reduction-injectivity property)


def modp_add(a, P, Q, p):
    a1, a2, a3, a4, a6 = a
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2 + a1 * x2 + a3) % p == 0:
        return None
    if x1 == x2:
        num = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) % p
        den = (2 * y1 + a1 * x1 + a3) % p
    else:
        num = (y2 - y1) % p
        den = (x2 - x1) % p
    lam = num * pow(den, p - 2, p) % p
    nu = (y1 - lam * x1) % p
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % p
    y3 = (-(lam + a1) * x3 - nu - a3) % p
    return (x3, y3)


def modp_order(a, P, p, cap=30):
    Q = P
    k = 1
    while Q is not None:
        Q = modp_add(a, Q, P, p)
        k += 1
        if k > cap:
            raise AssertionError("order exceeded cap")
    return k


def reduce_point(P, p):
    x, y = P
    xi = x.numerator * pow(x.denominator, p - 2, p) % p
    yi = y.numerator * pow(y.denominator, p - 2, p) % p
    return (xi, yi)


# ---------------------------------------------------------------------------

# one curve for each of the fifteen torsion structures Mazur allows
MAZUR_ANCHORS = {
    (): (0, 0, 1, -1, 0),
    (2,): (0, 0, 0, 1, 0),
    (3,): (0, 0, 1, 0, 0),
    (4,): (0, 0, 0, 4, 0),
    (5,): (1, 1, 1, 0, 1),
    (6,): (0, 0, 0, 0, 1),
    (7,): (1, -1, 1, -3, 3),
    (8,): (1, 1, 1, 35, -28),
    (9,): (1, -1, 1, -14, 29),
    (10,): (1, 0, 0, -45, 81),
    (12,): (1, -1, 1, -122, 1721),
    (2, 2): (0, 0, 0, -1, 0),
    (2, 4): (1, 1, 1, -10, -10),
    (2, 6): (1, 0, 1, -19, 26),
    (2, 8): (1, 0, 0, -1070, 7812),
}


def tate_normal(b, c):
    """a-invariants of E(b, c): y^2 + (1 - c) xy - b y = x^3 - b x^2."""
    return (1 - c, -b, -b, 0, 0)


# Kubert's families (Kubert, Proc. LMS 33, 1976): a point of the family's
# order at (0, 0); (3) on y^2 + t xy + y = x^3, the rest in Tate normal form
KUBERT = {
    (3,): lambda t: (t, 0, 1, 0, 0),
    (4,): lambda t: tate_normal(t, 0),
    (5,): lambda t: tate_normal(t, t),
    (6,): lambda t: tate_normal(t + t * t, t),
    (7,): lambda t: tate_normal(t**3 - t * t, t * t - t),
    (8,): lambda t: tate_normal((2 * t - 1) * (t - 1), (2 * t - 1) * (t - 1) / t),
    (9,): lambda t: tate_normal(t * t * (t - 1) * (t * t - t + 1), t * t * (t - 1)),
    (10,): lambda t: tate_normal(
        t**3 * (t - 1) * (2 * t - 1) / (t * t - 3 * t + 1) ** 2,
        -t * (t - 1) * (2 * t - 1) / (t * t - 3 * t + 1),
    ),
    (12,): lambda t: tate_normal(
        t * (2 * t - 1) * (2 * t * t - 2 * t + 1) * (3 * t * t - 3 * t + 1) / (t - 1) ** 4,
        -t * (2 * t - 1) * (3 * t * t - 3 * t + 1) / (t - 1) ** 3,
    ),
    (2, 4): lambda t: tate_normal(t * t - Fraction(1, 16), 0),
    (2, 6): lambda t: tate_normal((c := (10 - 2 * t) / (t * t - 9)) + c * c, c),
}


def kubert_curves() -> list[tuple[tuple[int, ...], CurveModel]]:
    """(family, curve) for every nonsingular member of Kubert's families at
    t = 2, ..., 7, 2/3, 4/3 and 5/3."""
    out = []
    for factors, family in KUBERT.items():
        for t in [Fraction(t) for t in range(2, 8)] + [Fraction(n, 3) for n in (2, 4, 5)]:
            try:
                E = CurveModel.from_ainvs(family(t))
            except ZeroDivisionError:
                continue
            if E.discriminant:
                out.append((factors, E))
    return out


class TestTorsion:
    @pytest.mark.parametrize("factors", MAZUR_ANCHORS)
    def test_every_mazur_shape(self, factors):
        E = CurveModel.from_ainvs(MAZUR_ANCHORS[factors])
        tor = torsion_subgroup(E)
        assert tor.invariant_factors == factors
        assert tor.order == math.prod(factors)

    def test_matches_divisor_scan(self, x15, x21):
        curves = [CurveModel.from_ainvs(a) for a in MAZUR_ANCHORS.values()]
        curves += random_curves(60, seed=8)
        for E in (x15, x21):
            curves += [quadratic_twist(E, d) for d in range(2, 101) if is_squarefree(d)]
        for E in curves:
            assert torsion_subgroup(E).invariant_factors == scan_torsion(E), E
        # some members are larger than their family: Z/4 at t = 3 is (2, 4)
        kubert = kubert_curves()
        assert len(kubert) == 96
        for factors, E in kubert:
            tor = torsion_subgroup(E)
            assert tor.invariant_factors == scan_torsion(E), (factors, E)
            assert tor.order % math.prod(factors) == 0, (factors, E)

    def test_base_curves(self, x15, x21):
        for E in (x15, x21):
            tor = torsion_subgroup(E)
            assert tor.invariant_factors == (2, 4)
            assert tor.order == 8

    def test_twist_17_contains_full_two_torsion(self, x15):
        tor = torsion_subgroup(quadratic_twist(x15, 17))
        assert tor.invariant_factors == (2, 2)

    def test_twists_are_two_groups(self, x15, x21):
        for E in (x15, x21):
            for d in (2, 3, 5, 6, 7, 10):
                tor = torsion_subgroup(quadratic_twist(E, d))
                assert tor.order & (tor.order - 1) == 0  # 2-group
                assert tor.invariant_factors[0] == 2 and len(tor.invariant_factors) == 2

    def test_order_divides_reduction_gcd(self, x15):
        for E in random_curves(8, seed=21) + [x15]:
            M = minimal_model(E)
            tor = torsion_subgroup(M)
            disc = M.discriminant
            g = 0
            seen = 0
            for p in sieve_primes(500):
                if p == 2 or disc % p == 0:
                    continue
                g = math.gcd(g, count_points(M, p))
                seen += 1
                if seen == 10:
                    break
            assert g % tor.order == 0

    def test_good_primes_need_no_conductor(self, x15, monkeypatch):
        """The good primes of the reduction bound are read off the minimal
        discriminant, not found by Tate's algorithm."""
        calls = 0
        original = local_invariants.conductor

        def counted(E):
            nonlocal calls
            calls += 1
            return original(E)

        for name, module in list(sys.modules.items()):
            if name.startswith("twistcheck") and getattr(module, "conductor", None) is original:
                monkeypatch.setattr(module, "conductor", counted)
        torsion_subgroup.cache_clear()
        curves = [CurveModel.from_ainvs(a) for a in MAZUR_ANCHORS.values()]
        curves += [quadratic_twist(x15, d) for d in (2, 3, 17)]
        for E in curves:
            torsion_subgroup(E)
        assert calls == 0

    def test_torsion_injects_into_reductions(self, x15):
        M = minimal_model(x15)
        a = M.ainvs
        points = torsion_points(M)  # the nonzero points, with their orders
        assert len(points) + 1 == torsion_subgroup(x15).order
        disc = M.discriminant
        for p in (7, 11, 13, 17, 19, 23):
            if disc % p == 0:
                continue
            for P, order in points.items():
                assert modp_order(a, reduce_point(P, p), p) == order

    def test_no_numpy_root_finding(self, x15, x21, monkeypatch):
        import numpy

        from twistcheck.lseries import period_of_model

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.roots called")

        monkeypatch.setattr(numpy, "roots", refuse)
        torsion_subgroup.cache_clear()
        for E in (x15, x21, quadratic_twist(x21, 17)):
            M = minimal_model(E)
            assert torsion_subgroup(E).order in (4, 8)
            assert two_torsion_rational(E)  # a twist keeps the 2-division field
            assert period_of_model(M) > 0

    def test_large_congruent_number_curve(self):
        # y^2 = x^3 - m^2 x, m prime: full 2-torsion (0, 0), (+-m, 0), which on the
        # scaled short model sits at X = 0, +-36m, beyond float precision
        m = 10**16 + 61
        E = CurveModel.from_ainvs((0, 0, 0, -m * m, 0))
        start = time.perf_counter()
        assert conductor(E).N == 2**5 * m * m
        tor = torsion_subgroup(E)
        assert time.perf_counter() - start < 5
        assert tor.invariant_factors == (2, 2)
        assert tor.order == 4

    def test_trivial_torsion(self):
        E = CurveModel.from_ainvs((0, 0, 1, -1, 0))  # rank-1 curve 37a1, trivial torsion
        tor = torsion_subgroup(E)
        assert tor.order == 1 and tor.invariant_factors == ()


class TestTwoTorsion:
    def test_examples(self, x15, x21):
        for E, full in ((x15, True), (quadratic_twist(x21, 5), True), (CurveModel.from_ainvs((0, 0, 0, 1, 1)), False)):
            assert two_torsion_rational(E) is full
            assert (len(torsion_subgroup(E).invariant_factors) == 2) is full  # Z/2 x Z/2m


def projective_order(t: int, det: int, l: int) -> int:
    """Least k with C^k scalar mod l, C the companion matrix of x^2 - t x + det:
    C^k = s_k C - det s_(k-1) for the Lucas sequence s_0 = 0, s_1 = 1,
    s_(k+1) = t s_k - det s_(k-1), and C itself is never scalar."""
    k, s, s_next = 1, 1, t % l
    while s:
        k, s, s_next = k + 1, s_next, (t * s_next - det * s) % l
    return k


def witness_kinds(t: int, det: int, l: int) -> set[str]:
    """The witness kinds of a Frobenius with trace t and determinant det mod l,
    from the roots of its characteristic polynomial found by trial.  A double
    root leaves the class (scalar or not) unknown, so it is no witness."""
    roots = sum((x * x - t * x + det) % l == 0 for x in range(l))
    kinds = set()
    if t % l and roots == 0:
        kinds.add("irreducible")
    if t % l and roots == 2:
        kinds.add("split_semisimple")
    if roots != 1 and projective_order(t, det, l) > 5:
        kinds.add("large_projective_order")
    return kinds


class TestModLImage:
    def test_base_curves_all_l(self, x15, x21):
        for E in (x15, x21):
            for l in (3, 5, 7, 11, 13):
                verdict = mod_l_image(E, l)
                assert verdict.verdict == SURJECTIVE, (E, l)
                assert verdict.witnesses  # never Surjective without witnesses

    def test_twist_mod_3(self, x15):
        assert mod_l_image(quadratic_twist(x15, 2), 3).verdict == SURJECTIVE

    @pytest.mark.parametrize("l", [5, 7, 11, 13])
    def test_witnesses_are_the_least_primes_of_their_kind(self, x15, x21, l):
        curves = [quadratic_twist(E, d) for E in (x15, x21) for d in (1, 2, -3, 17)]
        curves.append(CurveModel.from_ainvs((0, -1, 1, -10, -20)))  # 11a1: a 5-isogeny, Undetermined mod 5
        for E in curves:
            M = minimal_model(E)
            N = conductor(M).N
            least: dict[str, int] = {}
            for p in sieve_primes(SAMPLE_BOUND):
                if len(least) == 3:
                    break
                if p != l and N % p:
                    for kind in witness_kinds(ap(M, p), p, l):
                        least.setdefault(kind, p)
            verdict = mod_l_image(E, l)
            assert dict(verdict.witnesses) == least, (E, l)
            assert verdict.verdict == (SURJECTIVE if len(least) == 3 else UNDETERMINED), (E, l)

    def test_invalid_l(self, x15):
        for l in (2, 4, 1, 9):
            with pytest.raises(InvalidL):
                mod_l_image(x15, l)
