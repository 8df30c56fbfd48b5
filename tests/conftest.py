import math
import os
import random
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from twistcheck.arith import _depressed_cubic_roots, factorize
from twistcheck.curves import CurveModel, base_curve, minimal_model, rst


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    """Fails the run if it leaves a child of the test process unreaped, as a
    forked share of an_coefficients would be."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test run left a child process")


@pytest.fixture(scope="session")
def x15() -> CurveModel:
    return base_curve("15")


@pytest.fixture(scope="session")
def x21() -> CurveModel:
    return base_curve("21")


def random_curves(count: int, seed: int = 42, coeff_bound: int = 9) -> list[CurveModel]:
    """Deterministic corpus of nonsingular small-coefficient curves."""
    rng = random.Random(seed)
    out: list[CurveModel] = []
    while len(out) < count:
        a = tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(5))
        E = CurveModel.from_ainvs(a)
        if E.discriminant != 0:
            out.append(E)
    return out


def rst_transform(E: CurveModel, r: int, s: int, t: int) -> CurveModel:
    """E after x = x' + r, y = y' + s x' + t."""
    return CurveModel(*rst(E.ainvs, r, s, t))


def scale_up(E: CurveModel, u: int) -> CurveModel:
    """E in the coordinates (u^2 x, u^3 y): a_i -> u^i a_i, a model of the same
    curve that is not minimal at the primes dividing u."""
    return CurveModel(*(a * u**i for a, i in zip(E.ainvs, (1, 2, 3, 4, 6))))


# ---------------------------------------------------------------------------
# exact affine group law (points are (x, y) Fractions; None is the origin): the
# reference the program's torsion counts are tested against

Point = tuple[Fraction, Fraction] | None


def point_add(E: CurveModel, P: Point, Q: Point) -> Point:
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, a6 = E.ainvs
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y1 + y2 + a1 * x2 + a3 == 0:
            return None  # Q = -P
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return (x3, y3)


def point_mul(E: CurveModel, k: int, P: Point) -> Point:
    """k P, for k >= 0."""
    R: Point = None
    Q = P
    while k:
        if k & 1:
            R = point_add(E, R, Q)
        k >>= 1
        if k:
            Q = point_add(E, Q, Q)
    return R


def point_order(E: CurveModel, P: Point, max_order: int = 12) -> int | None:
    """Order of P if <= max_order, else None (rational torsion has order <= 12)."""
    if P is None:
        return 1
    Q = P
    k = 1
    while True:
        Q = point_add(E, Q, P)
        k += 1
        if Q is None:
            return k
        if k >= max_order:
            return None


def on_curve(E: CurveModel, P: Point) -> bool:
    if P is None:
        return True
    x, y = P
    a1, a2, a3, a4, a6 = E.ainvs
    return y * y + a1 * x * y + a3 * y == x**3 + a2 * x * x + a4 * x + a6


def point_neg(E: CurveModel, P: Point) -> Point:
    if P is None:
        return None
    x, y = P
    return (x, -y - E.a1 * x - E.a3)


@cache
def exact_count(E: CurveModel, p: int) -> int:
    """#E~(F_p) at an odd good prime by one vectorized O(p) pass: p + 1 plus
    the sum of chi(4x^3 + b2 x^2 + 2 b4 x + b6) over x in F_p.  The reference
    the program's point counts are tested against."""
    b2, b4, b6 = E.b2, E.b4, E.b6
    x = np.arange(p, dtype=np.int64)
    g = (4 * x + b2 % p) % p
    g = (g * x + 2 * b4 % p) % p
    g = (g * x + b6 % p) % p
    table = np.zeros(p, dtype=np.int8)
    table[(x * x) % p] = 1
    chi = np.where(g == 0, 0, np.where(table[g] == 1, 1, -1))
    return p + 1 + int(chi.sum())


def torsion_points(E: CurveModel) -> dict[Point, int]:
    """Every nonzero rational torsion point of the minimal model of E, with its
    order, by the Lutz-Nagell divisor scan: every point of order <= 12 on
    Y^2 = X^3 + A X + B, A = -27 c4, B = -54 c6, with Y = 0 or
    Y^2 | 4 A^3 + 27 B^2 = -2^8 3^12 disc."""
    M = minimal_model(E)
    A, B = -27 * M.c4, -54 * M.c6
    exps = {2: 8, 3: 12}
    for p, e in factorize(M.discriminant):
        exps[p] = exps.get(p, 0) + e
    ys = [1]
    for p, e in exps.items():
        ys = [y * p**k for y in ys for k in range(e // 2 + 1)]
    # an exact filter: X^3 + A X + B = y^2 must be solvable mod q
    values = {q: {(x**3 + A * x + B) % q for x in range(q)} for q in (7, 11, 13, 17)}
    points: dict[Point, int] = {}
    for y in [0] + ys:
        if any(y * y % q not in v for q, v in values.items()):
            continue
        for X in _integer_cubic_roots(A, B - y * y):
            x = Fraction(X - 3 * M.b2, 36)
            for Y in {y, -y}:
                P = (x, (Y - 108 * (M.a1 * x + M.a3)) / 216)
                order = point_order(M, P, 12)
                if order:
                    points[P] = order
    return points


def scan_torsion(E: CurveModel) -> tuple[int, ...]:
    """Invariant factors of E(Q)_tors from torsion_points.  The reference
    torsion_subgroup is tested against."""
    orders = [1, *torsion_points(E).values()]
    h = max(orders)
    return tuple(f for f in (len(orders) // h, h) if f > 1)


def _integer_cubic_roots(A: int, C: int) -> list[int]:
    """Integer roots of X^3 + A X + C, each within 1 of a float real root: the
    float error stays far below 1 for the moderate coefficients tested here."""
    seeds = _depressed_cubic_roots(A, C, -4 * A**3 - 27 * C * C)
    near = {X for t in seeds for X in range(round(t) - 1, round(t) + 2)}
    return [X for X in near if (X * X + A) * X + C == 0]
