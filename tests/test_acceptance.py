"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time budget is pinned here.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_curves
from twistcheck.arith import factorize, is_squarefree, sieve_primes
from twistcheck.certify import (
    APPLIES,
    DOES_NOT_APPLY,
    admissible_primes,
    check_theorem,
    reproduce_table,
)
from twistcheck.curves import base_curve, minimal_model, quadratic_twist
from twistcheck.frobenius import ap, count_points
from twistcheck.local_invariants import conductor, tamagawa_product, twisted_conductor_closed_form
from twistcheck.lseries import algebraic_l_ratio, period_of_model
from twistcheck.tabledata import TABLE1, TABLE2
from twistcheck.torsion_galois import SURJECTIVE, mod_l_image, torsion_subgroup

SQUAREFREE = [d for d in range(2, 201) if is_squarefree(d)]


def report(criterion: int, text: str) -> None:
    print(f"[acceptance] criterion {criterion:>2}: {text}: PASS")


def test_criterion_1_base_anchors():
    for tag in ("15", "21"):
        start = time.perf_counter()
        res = algebraic_l_ratio(base_curve(tag))
        elapsed = time.perf_counter() - start
        assert res.ratio == Fraction(1, 8), tag
        assert elapsed < 2.0, f"{tag} took {elapsed:.2f}s"
    report(1, "L/Omega = 1/8 for both base curves, < 2 s each")


def test_criterion_2_table_1():
    start = time.perf_counter()
    rep = reproduce_table(1)
    elapsed = time.perf_counter() - start
    assert len(rep.rows) == 23
    assert rep.all_match
    assert elapsed < 60.0, f"table 1 took {elapsed:.1f}s"
    report(2, f"all 23 rows of table 1 match ({elapsed:.1f} s)")


def test_criterion_3_table_2():
    start = time.perf_counter()
    rep = reproduce_table(2)
    elapsed = time.perf_counter() - start
    assert len(rep.rows) == 22
    assert rep.all_match
    row41 = next(r for r in rep.rows if r.row.d == 41)
    assert row41.row.erratum is not None
    assert row41.computed_factors == ((3, 1), (7, 1), (41, 2))
    assert elapsed < 60.0, f"table 2 took {elapsed:.1f}s"
    report(3, f"all 22 rows of table 2 match, d=41 erratum annotated ({elapsed:.1f} s)")


def test_criterion_4_torsion():
    for tag in ("15", "21"):
        assert torsion_subgroup(base_curve(tag)).invariant_factors == (2, 4)
    for tag in ("15", "21"):
        E = base_curve(tag)
        for d in (d for d in SQUAREFREE if d <= 100):
            tor = torsion_subgroup(quadratic_twist(E, d))
            assert tor.order & (tor.order - 1) == 0, (tag, d)  # 2-group
            assert len(tor.invariant_factors) == 2 and tor.invariant_factors[0] == 2, (tag, d)
    report(4, "base torsion Z/2 x Z/4; twist torsion 2-groups containing Z/2 x Z/2 (d <= 100)")


def test_criterion_5_tamagawa():
    assert tamagawa_product(base_curve("15")) == 8
    assert tamagawa_product(base_curve("21")) == 8
    for tag in ("15", "21"):
        E = base_curve(tag)
        for d in SQUAREFREE:
            prod = tamagawa_product(quadratic_twist(E, d))
            assert all(p in (2, 3) for p, _ in factorize(prod)), (tag, d, prod)
    report(5, "base products 8; twist products 2,3-smooth for all squarefree d <= 200")


def test_criterion_6_conductor_equivalence():
    start = time.perf_counter()
    for tag, level in (("15", 15), ("21", 21)):
        E = base_curve(tag)
        for d in SQUAREFREE:
            closed = twisted_conductor_closed_form(level, d)
            via_tate = conductor(quadratic_twist(E, d)).factorization
            assert closed == via_tate, (tag, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"equivalence sweep took {elapsed:.1f}s"
    report(6, f"closed form = Tate for both families, squarefree d <= 200 ({elapsed:.1f} s)")


def test_criterion_7_galois_images():
    for tag in ("15", "21"):
        E = base_curve(tag)
        for l in (3, 5, 7, 11, 13):
            verdict = mod_l_image(E, l)
            assert verdict.verdict == SURJECTIVE, (tag, l)
    report(7, "mod-l image Surjective for both base curves, l in {3,5,7,11,13}")


def test_criterion_8_oracle_equivalence():
    # optimized a_p vs the naive double loop
    for E in random_curves(10, seed=42):
        disc = E.discriminant
        a1, a2, a3, a4, a6 = E.ainvs
        for p in sieve_primes(100):
            if disc % p == 0:
                continue
            naive = 1 + sum(
                1
                for x in range(p)
                for y in range(p)
                if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p == 0
            )
            assert ap(E, p) == p + 1 - naive, (E, p)

    # AGM period vs adaptive quadrature on 20 curves spanning both signs
    corpus = [minimal_model(E) for E in random_curves(16, seed=99)]
    corpus += [base_curve("15"), base_curve("21"),
               quadratic_twist(base_curve("15"), 7), quadratic_twist(base_curve("21"), 11)]
    signs = {1 if M.discriminant > 0 else -1 for M in corpus}
    assert signs == {1, -1}
    for M in corpus:
        b2, b4, b6 = float(M.b2), float(M.b4), float(M.b6)
        roots = np.roots([4.0, b2, 2.0 * b4, b6])
        e1 = max(z.real for z in roots if abs(z.imag) < 1e-7 * (1.0 + abs(z)))

        def g(x):
            return ((4.0 * x + b2) * x + 2.0 * b4) * x + b6

        def dg(x):
            return (12.0 * x + 2.0 * b2) * x + 2.0 * b4

        def integrand(t):
            return 4.0 / math.sqrt(dg(e1)) if t == 0.0 else 4.0 * t / math.sqrt(g(e1 + t * t))

        oracle, _ = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
        oracle *= 2.0 if M.discriminant > 0 else 1.0
        agm = period_of_model(M)
        assert abs(agm - oracle) <= 1e-9 * oracle, M
    report(8, "a_p = naive count (p <= 100, 10 curves); AGM = quadrature to 1e-9 (20 curves)")


def test_criterion_9_hasse():
    for tag in ("15", "21"):
        E = base_curve(tag)
        disc = E.discriminant
        for p in sieve_primes(10_000):
            if disc % p == 0:
                continue
            a = ap(E, p)
            assert a * a <= 4 * p, (tag, p)
    report(9, "Hasse bound holds for all good p <= 10^4 on both base curves")


def test_criterion_10_certificates():
    assert check_theorem("15", 2, 7).verdict == APPLIES
    assert check_theorem("15", 5, 11).verdict == DOES_NOT_APPLY
    assert check_theorem("21", 5, 11).verdict == APPLIES
    for tag, rows in (("15", TABLE1), ("21", TABLE2)):
        for row in rows:
            if row.lratio == 0:
                assert row.excluded is None
                continue
            excluded, _ = admissible_primes(tag, row.d)
            assert tuple(sorted(excluded)) == row.excluded, (tag, row.d)
    report(10, "certificate trio and admissible-prime columns of both tables")
