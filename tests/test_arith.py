import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcheck.arith import (
    NotSquarefree,
    ZeroInput,
    factorize,
    integer_roots,
    iroot,
    is_p_adic_unit,
    is_prime,
    is_squarefree,
    kronecker,
    pol_fixed_degree,
    pol_mul,
    pol_powmod,
    pol_root_count,
    quad_field_data,
    real_cubic_roots,
    sieve_primes,
    valuation,
)


def brute_legendre(a: int, p: int) -> int:
    """Independent oracle: square search mod an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


class TestFactorize:
    def test_table_row_conductor(self):
        assert factorize(960) == [(2, 6), (3, 1), (5, 1)]

    def test_one_is_empty_product(self):
        assert factorize(1) == []

    def test_erratum_conductor(self):
        # 35301 = 3 * 7 * 41^2, checked by trial division by hand
        assert factorize(35301) == [(3, 1), (7, 1), (41, 2)]

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            factorize(0)

    def test_negative_uses_absolute_value(self):
        assert factorize(-12) == [(2, 2), (3, 1)]

    @pytest.mark.parametrize(
        "n,expect",
        [
            # cofactors left by trial division, split by Pollard-Brent
            (21502239136429577093, [(4616039, 1), (4658158030387, 1)]),
            (5879287403719, [(1464277, 1), (4015147, 1)]),
            (2**5 * 1000003**3 * 1000033, [(2, 5), (1000003, 3), (1000033, 1)]),
            ((2**31 - 1) ** 2 * (2**61 - 1), [(2**31 - 1, 2), (2**61 - 1, 1)]),
            # exact powers, found by integer k-th roots before rho
            ((10**11 + 3) ** 6, [(10**11 + 3, 6)]),
            (2**3 * (10**16 + 61) ** 6, [(2, 3), (10**16 + 61, 6)]),
            (((10**9 + 7) * (10**9 + 9)) ** 2, [(10**9 + 7, 2), (10**9 + 9, 2)]),
        ],
    )
    def test_large_cofactors(self, n, expect):
        assert factorize(n) == expect

    @given(st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_and_primality(self, n):
        fac = factorize(n)
        prod = 1
        last = 0
        for p, e in fac:
            assert p > last and e >= 1
            assert is_prime(p)
            prod *= p**e
            last = p
        assert prod == n


class TestSquarefree:
    @pytest.mark.parametrize("n,expect", [(15, True), (12, False), (39, True), (1, True)])
    def test_examples(self, n, expect):
        assert is_squarefree(n) is expect


class TestValuation:
    @pytest.mark.parametrize(
        "q,p,expect",
        [(Fraction(1, 8), 2, -3), (Fraction(1, 8), 7, 0), (16, 2, 4), (Fraction(45, 7), 3, 2)],
    )
    def test_examples(self, q, p, expect):
        assert valuation(q, p) == expect

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            valuation(0, 5)

    @pytest.mark.parametrize("q,p", [(6, 1), (6, 0), (6, -1), (Fraction(1, 8), 1), (0, 1)])
    def test_p_below_2_rejected(self, q, p):
        with pytest.raises(ValueError, match="p >= 2"):
            valuation(q, p)

    def test_is_p_adic_unit_rejects_p_below_2(self):
        with pytest.raises(ValueError, match="p >= 2"):
            is_p_adic_unit(2, -1)

    @given(
        st.fractions(min_value=Fraction(1, 1000), max_value=1000),
        st.fractions(min_value=Fraction(1, 1000), max_value=1000),
        st.sampled_from([2, 3, 5, 7, 11]),
    )
    @settings(max_examples=150, deadline=None)
    def test_additivity(self, q1, q2, p):
        assert valuation(q1 * q2, p) == valuation(q1, p) + valuation(q2, p)


class TestKronecker:
    def test_trivial_top(self):
        assert all(kronecker(1, n) == 1 for n in range(-20, 21))

    def test_examples(self):
        assert kronecker(8, 7) == 1  # 3^2 = 2 mod 7, and (8/7) = (2/7)
        assert kronecker(5, 3) == -1  # squares mod 5 are {0,1,4}; reciprocity

    def test_zero_bottom(self):
        assert kronecker(1, 0) == 1
        assert kronecker(-1, 0) == 1
        assert kronecker(12, 0) == 0

    # (D/0) is not multiplicative ((-1/0) = 1 but (-1/-1) = -1); see test_zero_bottom
    nonzero = st.integers(-100, 100).filter(bool)

    @given(st.integers(-50, 50), nonzero, nonzero)
    @settings(max_examples=300, deadline=None)
    def test_multiplicative_in_bottom(self, D, m, n):
        assert kronecker(D, m * n) == kronecker(D, m) * kronecker(D, n)

    def test_agrees_with_brute_legendre(self):
        for D in range(-200, 201):
            for p in sieve_primes(200):
                if p == 2 or D % p == 0:
                    continue
                assert kronecker(D, p) == brute_legendre(D, p), (D, p)


class TestRoots:
    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_iroot_is_exact_floor(self, k):
        for r in (1, 2, 10**5 + 3, 10**16 + 61, 3**200):
            for n in (r**k - 1, r**k, r**k + 1):
                x = iroot(n, k)
                assert x**k <= n < (x + 1) ** k

    def test_integer_cubic_roots_match_brute_force(self):
        # every nonsingular X^3 + A X + C; |roots| <= 2 max(sqrt 60, 30^(1/3)) < 16 (Fujiwara)
        cubics = 0
        for A in range(-60, 61):
            for C in range(-60, 61):
                if 4 * A**3 + 27 * C * C == 0:
                    continue
                brute = [x for x in range(-16, 17) if x**3 + A * x + C == 0]
                assert integer_roots([C, A, 0, 1]) == brute, (A, C)
                cubics += 1
        assert cubics == 14_634

    @pytest.mark.parametrize(
        "r,s",
        [(10**20 + 3, 10**20 + 7), (10**20 + 1, 10**20 + 2), (10**20, -(10**20) + 1), (3, 10**20)],
    )
    def test_three_integer_roots_near_1e20(self, r, s):
        # (X - r)(X - s)(X + r + s), two of the roots only a few units apart
        A, C = r * s - (r + s) ** 2, r * s * (r + s)
        assert integer_roots([C, A, 0, 1]) == sorted({r, s, -r - s})

    def test_one_integer_root_beside_irrational_pair(self):
        # (X - r)(X^2 + r X + B) with B chosen so that the pair is irrational
        for r in (7, -10**18 - 9, 10**25 + 1):
            B = -(r * r) - 1
            assert integer_roots([-r * B, B - r * r, 0, 1]) == [r]

    def test_non_monic_linear_and_constant(self):
        # (X - 5)(X + 7)(2X - 1)(3X - 2): the rational roots 1/2 and 2/3 are not integers
        f = pol_mul(pol_mul([-5, 1], [7, 1]), pol_mul([-1, 2], [-2, 3]))
        assert integer_roots(f) == [-7, 5]
        assert integer_roots([9, 3]) == [-3]
        assert integer_roots([5]) == []

    @pytest.mark.parametrize("k", [10**20 + 7, -(10**20) - 3, 1, 0])
    def test_double_root_near_1e20(self, k):
        # (X - k)^2 (X + 2k) is not squarefree
        with pytest.raises(ArithmeticError):
            integer_roots([2 * k**3, -3 * k * k, 0, 1])

    def test_non_squarefree_without_integer_roots_raises(self):
        # (X^2 + 1)^2 (X - 3): the square factor has no root mod primes p = 3 mod 4
        with pytest.raises(ArithmeticError):
            integer_roots(pol_mul(pol_mul([1, 0, 1], [1, 0, 1]), [-3, 1]))
        with pytest.raises(ArithmeticError):
            integer_roots([0, 0])

    def test_real_cubic_roots(self):
        assert real_cubic_roots(1, 0, -7, 6) == [2.0, 1.0, -3.0]
        assert real_cubic_roots(1, 0, 0, -8) == [2.0]
        (x,) = real_cubic_roots(4, 1, 2, -3)
        assert abs(((4 * x + 1) * x + 2) * x - 3) < 1e-14

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 101])
    def test_root_count_mod_p_matches_search(self, p):
        for f in ([1, 0, 0, 1], [6, -5, 0, 1], [3, 1, 4, 1], [0, 0, 1], [2, 7, 1, 8, 2, 1]):
            search = sum(1 for t in range(p) if sum(c * t**i for i, c in enumerate(f)) % p == 0)
            assert pol_root_count(f, p) == search, (f, p)


def search_count(f, p):
    return sum(1 for t in range(p) if sum(c * t**i for i, c in enumerate(f)) % p == 0)


class TestQuadraticRootCount:
    """Quadratics are counted from the discriminant; checked against an
    exhaustive search, against the T^p gcd and on built root patterns."""

    def test_matches_search_for_small_primes(self):
        # at p = 2 the seeded draws reach all four quadratics T^2 + b T + c
        rng = random.Random(18)
        for p in sieve_primes(200):
            for _ in range(40):
                f = [rng.randint(-3 * p, 3 * p) for _ in range(2)] + [rng.choice([1, -1]) * rng.randint(1, 3 * p)]
                assert pol_root_count(f, p) == search_count(f, p), (f, p)

    @pytest.mark.parametrize("p", [10**12 + 39, 2**61 - 1])
    def test_built_root_patterns_at_large_primes(self, p):
        # both primes are 3 mod 4, so -1 is a known non-residue
        assert is_prime(p) and p % 4 == 3
        rng = random.Random(p)
        for _ in range(20):
            a, r, s = (rng.randrange(1, p) for _ in range(3))
            if r == s:
                continue
            two = [a * r * s, -a * (r + s), a]  # a (T - r)(T - s)
            double = [a * r * r, -2 * a * r, a]  # a (T - r)^2
            none = [a * (r * r + s * s), -2 * a * r, a]  # a ((T - r)^2 + s^2)
            assert [pol_root_count(f, p) for f in (two, double, none)] == [2, 1, 0]
            for f in (two, double, none):
                assert pol_root_count(f, p) == pol_fixed_degree(f, pol_powmod([0, 1], p, f, p), p)
        assert pol_root_count([1, 0, 1], p) == 0

    def test_degenerate_reductions(self):
        for p in (2, 3, 7, 10**12 + 39):
            assert pol_root_count([p, 5 * p, -p], p) == p  # f = 0 mod p
            assert pol_root_count([p + 1, 0, p], p) == 0  # the constant 1
            assert pol_root_count([1, 1, 2 * p], p) == 1  # linear: T + 1
            assert pol_root_count([-6, 5, 7 * p], p) == 1  # linear: 5 T - 6


class TestQuadFieldData:
    def test_d_5(self):
        qf = quad_field_data(5)
        assert (qf.D, qf.c2, qf.c(5)) == (5, 0, 1)

    def test_d_2(self):
        qf = quad_field_data(2)
        assert (qf.D, qf.c2) == (8, 3)
        assert qf.c(3) == 0

    def test_d_3(self):
        qf = quad_field_data(3)
        assert (qf.D, qf.c2, qf.c(3)) == (12, 2, 1)

    @pytest.mark.parametrize("d", [1, 0, -6, 12, 45])
    def test_rejects_bad_d(self, d):
        with pytest.raises(NotSquarefree):
            quad_field_data(d)

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 199])
    def test_case_split(self, d):
        qf = quad_field_data(d)
        assert qf.D == (d if d % 4 == 1 else 4 * d)
        assert qf.c2 == {1: 0, 2: 3, 3: 2}[d % 4]
        for p in (3, 5, 7, 199):
            if p != 2:
                assert qf.c(p) == (1 if d % p == 0 else 0)
