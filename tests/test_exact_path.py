"""The exact ratio stands on its own: the modular-symbol path reaches no
series and no period, and its scale agrees with the Birch-Swinnerton-Dyer
square law."""

import ast
import math
from fractions import Fraction

import pytest

from twistcheck import certify, lseries, modsym
from twistcheck.arith import is_squarefree
from twistcheck.curves import Family, base_curve, quadratic_twist
from twistcheck.local_invariants import tamagawa_product
from twistcheck.modsym import family_l_ratio
from twistcheck.tabledata import TABLE1, TABLE2
from twistcheck.torsion_galois import torsion_subgroup


class TestNoSeriesBehindTheSymbol:
    def test_golden_rows_without_series_or_period(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the exact path must not reach the float series")

        monkeypatch.setattr(lseries, "_l_series", refuse)
        monkeypatch.setattr(lseries, "period_of_model", refuse)
        for cached in (modsym.plus_symbol, modsym._family_l_ratio):
            cached.cache_clear()
        for fam, rows in ((Family.X15, TABLE1), (Family.X21, TABLE2)):
            assert [family_l_ratio(fam, r.d) for r in rows] == [r.lratio for r in rows]

    @pytest.mark.parametrize("module", [modsym, certify])
    def test_imports_nothing_from_lseries(self, module):
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[-1] != "lseries", ast.unparse(node)
                assert "lseries" not in (a.name for a in node.names), ast.unparse(node)
            elif isinstance(node, ast.Import):
                assert not any(a.name.endswith("lseries") for a in node.names), ast.unparse(node)


def test_ratio_times_torsion_squared_over_tamagawa_is_a_square():
    # rank 0 BSD: L/Omega = #Sha prod c_p / #T^2, and #Sha is a square.  This
    # pins the symbol's scale up to a square factor, independently of it.
    seen = set()
    for fam in Family:
        E = base_curve(fam)
        for d in range(2, 1001):
            if not is_squarefree(d) or not (ratio := family_l_ratio(fam, d)):
                continue
            Ed = quadratic_twist(E, d)
            sha = ratio * torsion_subgroup(Ed).order ** 2 / tamagawa_product(Ed)
            root = math.isqrt(sha.numerator)
            assert sha == Fraction(root * root), (fam, d, sha)
            seen.add(sha)
    assert {1, 4, 9} <= seen
