from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcheck.arith import (
    NotSquarefree,
    ZeroInput,
    factorize,
    is_prime,
    is_squarefree,
    kronecker,
    quad_field_data,
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
            # cofactors left by trial division to 10^6, split by Pollard-Brent
            (21502239136429577093, [(4616039, 1), (4658158030387, 1)]),
            (5879287403719, [(1464277, 1), (4015147, 1)]),
            (2**5 * 1000003**3 * 1000033, [(2, 5), (1000003, 3), (1000033, 1)]),
            ((2**31 - 1) ** 2 * (2**61 - 1), [(2**31 - 1, 2), (2**61 - 1, 1)]),
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
