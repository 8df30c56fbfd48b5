import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from twistcheck import modsym
from twistcheck.arith import NotSquarefree, is_squarefree
from twistcheck.curves import Family, base_curve, quadratic_twist
from twistcheck.frobenius import ap
from twistcheck.lseries import algebraic_l_ratio
from twistcheck.modsym import family_l_ratio, plus_symbol
from twistcheck.tabledata import TABLE1, TABLE2

EXACT_RATIOS = Path(__file__).with_name("exact_ratios.txt")

S, ETA, T, T2 = (0, -1, 1, 0), (-1, 0, 0, 1), (0, -1, 1, -1), (-1, 1, -1, 0)  # T2 = T^2
HEILBRONN_2 = ((1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2))


class TestPlusQuotient:
    """The Manin symbols of level N modulo x = -xS, x = x eta and
    x + xT + xT^2 = 0, seen through the functional plus_symbol returns."""

    @pytest.mark.parametrize("N, symbols", [(15, 24), (21, 32)])
    def test_dimension_is_genus_plus_cusps_minus_one(self, N, symbols):
        # every relation on every symbol, with no folding into orbits
        reps, index = modsym._p1(N)
        assert len(reps) == symbols

        def act(x, M):
            (x0, x1), (a, b, c, d) = reps[x], M
            return index[(x0 * a + x1 * c) % N, (x0 * b + x1 * d) % N]

        rows = []
        for x in range(symbols):
            relations = (
                ((x, 1), (act(x, S), 1)),
                ((x, 1), (act(x, ETA), -1)),
                ((x, 1), (act(x, T), 1), (act(x, T2), 1)),
            )
            for relation in relations:
                row = [0] * symbols
                for y, coeff in relation:
                    row[y] += coeff
                rows.append(row)
        assert len(modsym._nullspace(rows, symbols)) == 4  # g + #cusps - 1 = 1 + 3

    @pytest.mark.parametrize("N", [15, 21])
    def test_t2_splits_cusp_form_from_eisenstein(self, N, monkeypatch):
        # on the 4 dimensions, T_2 is a_2 = -1 on the line of 15A1 or 21A1 and
        # 3 = 1 + 2 on the Eisenstein part (a failed build is not cached)
        modsym.plus_symbol.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(modsym, "ap", lambda E, p: 3)
            with pytest.raises(ArithmeticError, match="dimension 3"):
                plus_symbol(Family.parse(N))
        assert ap(base_curve(N), 2) == -1
        assert plus_symbol(Family.parse(N))[1] in (8, -8)

    def test_a_wrong_eigenvalue_leaves_no_line(self, monkeypatch):
        # a_2 = 0 is no eigenvalue of T_2 at level 15, so the kernel is 0
        modsym.plus_symbol.cache_clear()
        monkeypatch.setattr(modsym, "ap", lambda E, p: 0)
        with pytest.raises(ArithmeticError, match="dimension 0"):
            plus_symbol(Family.X15)

    @pytest.mark.parametrize("fam", list(Family))
    def test_symbol_kills_the_relations_and_t2_minus_a2(self, fam):
        table, den = plus_symbol(fam)
        N = fam.level
        a2 = ap(base_curve(fam), 2)

        def phi(c, d, M=(1, 0, 0, 1)):
            """den phi((c:d) M)."""
            a, b, cc, dd = M
            return table[(c * a + d * cc) % N * N + (c * b + d * dd) % N]

        for x in ((c, d) for c in range(N) for d in range(N) if math.gcd(c, d, N) == 1):
            assert phi(*x) + phi(*x, S) == 0, x
            assert phi(*x) - phi(*x, ETA) == 0, x
            assert phi(*x) + phi(*x, T) + phi(*x, T2) == 0, x
            assert sum(phi(*x, M) for M in HEILBRONN_2) - a2 * phi(*x) == 0, x
        assert den in (8, -8)

    @pytest.mark.parametrize("fam", list(Family))
    def test_symbol_at_zero_is_the_base_ratio(self, fam):
        table, den = plus_symbol(fam)
        assert Fraction(table[1], den) == algebraic_l_ratio(base_curve(fam)).ratio == Fraction(1, 8)


class TestFamilyLRatio:
    @pytest.mark.parametrize("fam, rows", [(Family.X15, TABLE1), (Family.X21, TABLE2)])
    def test_golden_rows(self, fam, rows):
        assert [family_l_ratio(fam, r.d) for r in rows] == [r.lratio for r in rows]

    def test_equals_the_float_ratio_for_d_up_to_100(self):
        compared = 0
        for fam in Family:
            for d in range(2, 101):
                if is_squarefree(d):
                    want = algebraic_l_ratio(quadratic_twist(base_curve(fam), d)).ratio
                    assert family_l_ratio(fam, d) == want, (fam, d)
                    compared += 1
        assert compared == 120

    def test_past_the_series_cap(self):
        # D = 39992: the float series would need more than 10^6 terms
        assert family_l_ratio(15, 9998) == 8
        assert family_l_ratio(21, 9998) == 0

    @pytest.mark.parametrize("d", [1, 0, -7, 12])
    def test_refuses_d_not_squarefree_above_1(self, d):
        with pytest.raises(NotSquarefree):
            family_l_ratio(15, d)

    def test_frozen_ratios(self):
        # every squarefree 2 <= d <= 1000 in both families, as computed when the
        # ratio still rescaled an explicit minimal model of E_d
        rows = [line.split() for line in EXACT_RATIOS.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
        want = [(fam.level, d) for fam in Family for d in range(2, 1001) if is_squarefree(d)]
        assert [(int(level), int(d)) for level, d, _ in rows] == want
        for level, d, ratio in rows:
            assert str(family_l_ratio(int(level), int(d))) == ratio, (level, d)


class TestTwistPeriod:
    """family_l_ratio takes Omega(E_d) = Omega(E)/sqrt(D) from the scaling u
    of E_d's short model y^2 = x^3 - 27 c4 d^2 x - 54 c6 d^3 down to its
    minimal model: u = 6 if D = d (d = 1 mod 4) and u = 3 if D = 4 d."""

    @staticmethod
    def check(fam, d):
        E = base_curve(fam)
        u = 6 if d % 4 == 1 else 3
        assert 6**12 * E.discriminant * d**6 == u**12 * quadratic_twist(E, d).discriminant, (fam, d)

    @pytest.mark.parametrize("fam", list(Family))
    def test_every_d_to_3000(self, fam):
        for d in range(2, 3001):
            if is_squarefree(d):
                self.check(fam, d)

    @pytest.mark.parametrize("fam", list(Family))
    def test_seeded_d_to_10_12(self, fam):
        rng = random.Random(f"twist period {fam.level}")
        ds = [d for d in (rng.randrange(2, 10**12) for _ in range(200)) if is_squarefree(d)]
        assert len(ds) > 100 and {d % 4 for d in ds} == {1, 2, 3}
        for d in ds:
            self.check(fam, d)
