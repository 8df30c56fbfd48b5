from fractions import Fraction

import pytest

from twistcheck.arith import NotSquarefree, is_squarefree
from twistcheck.curves import Family, base_curve, quadratic_twist
from twistcheck.lseries import algebraic_l_ratio
from twistcheck.modsym import PlusQuotient, family_l_ratio, plus_symbol
from twistcheck.tabledata import TABLE1, TABLE2


class TestPlusQuotient:
    @pytest.mark.parametrize("N, symbols", [(15, 24), (21, 32)])
    def test_dimension_is_genus_plus_cusps_minus_one(self, N, symbols):
        q = PlusQuotient(N)
        assert len(q.reps) == symbols
        assert len(q.basis) == 4  # g + #cusps - 1 = 1 + 3

    @pytest.mark.parametrize("N", [15, 21])
    def test_t2_splits_cusp_form_from_eisenstein(self, N):
        q = PlusQuotient(N)
        assert len(q.t2_kernel(-1)) == 1  # a_2 of 15A1 and of 21A1
        assert len(q.t2_kernel(3)) == 3  # 1 + 2 on the Eisenstein part

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
