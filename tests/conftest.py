import random
from functools import cache

import numpy as np
import pytest

from twistcheck.curves import CurveModel, base_curve


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


@cache
def exact_count(E: CurveModel, p: int) -> int:
    """#E~(F_p) at an odd good prime by one vectorized O(p) pass: p + 1 plus
    the sum of chi(4x^3 + b2 x^2 + 2 b4 x + b6) over x in F_p.  The reference
    the program's point counts are tested against."""
    b2, b4, b6 = E.integer_invariants()[:3]
    x = np.arange(p, dtype=np.int64)
    g = (4 * x + b2 % p) % p
    g = (g * x + 2 * b4 % p) % p
    g = (g * x + b6 % p) % p
    table = np.zeros(p, dtype=np.int8)
    table[(x * x) % p] = 1
    chi = np.where(g == 0, 0, np.where(table[g] == 1, 1, -1))
    return p + 1 + int(chi.sum())
