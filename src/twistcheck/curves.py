"""Weierstrass models over Q.

Curves are immutable five-tuples of rationals that carry their b- and
c-invariants and discriminant, computed once.  Minimal models are produced
by the Laska-Kraus-Connell strategy: scale (c4, c6) down by the largest
admissible u and rebuild the reduced model from the scaled invariants, so the
output is the same canonical model the standard curve tables print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import product

from .arith import NotSquarefree, is_squarefree, prime_divisors, valuation


class SingularCurve(ValueError):
    """The discriminant vanishes: not an elliptic curve."""


def weierstrass_invariants(a):
    """(b2, b4, b6, b8, c4, c6, discriminant) of a-invariants (ints or Fractions)."""
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


def rst(a, r, s, t):
    """a-invariants after x = x' + r, y = y' + s x' + t (ints or Fractions)."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


@dataclass(frozen=True)
class CurveModel:
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    The b- and c-invariants and the discriminant are computed once, when the
    model is built; equality and hashing look at the a-invariants only.
    """

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction
    b2: Fraction = field(init=False, repr=False, compare=False)
    b4: Fraction = field(init=False, repr=False, compare=False)
    b6: Fraction = field(init=False, repr=False, compare=False)
    b8: Fraction = field(init=False, repr=False, compare=False)
    c4: Fraction = field(init=False, repr=False, compare=False)
    c6: Fraction = field(init=False, repr=False, compare=False)
    _discriminant: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # int arithmetic is an order of magnitude faster than Fraction arithmetic
        a = self.integer_ainvs() if self.is_integral else self.ainvs
        names = ("b2", "b4", "b6", "b8", "c4", "c6", "_discriminant")
        for name, value in zip(names, weierstrass_invariants(a)):
            object.__setattr__(self, name, Fraction(value))

    @classmethod
    def from_ainvs(cls, ainvs) -> "CurveModel":
        a1, a2, a3, a4, a6 = (Fraction(a) for a in ainvs)
        return cls(a1, a2, a3, a4, a6)

    @property
    def ainvs(self) -> tuple[Fraction, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def discriminant(self) -> Fraction:
        # a property, not a field, so that bench/tracing.py can count reads
        return self._discriminant

    @property
    def j(self) -> Fraction:
        disc = self.discriminant
        if disc == 0:
            raise SingularCurve("j-invariant undefined: discriminant is 0")
        return self.c4**3 / disc

    @property
    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.ainvs)

    def integer_ainvs(self) -> tuple[int, ...]:
        if not self.is_integral:
            raise ValueError(f"model is not integral: {self.ainvs}")
        return tuple(int(a) for a in self.ainvs)

    def __str__(self) -> str:
        return "[" + ", ".join(str(a) for a in self.ainvs) + "]"


def invariants(E: CurveModel):
    """(b2, b4, b6, b8, c4, c6, disc, j); raises SingularCurve if disc = 0."""
    disc = E.discriminant
    if disc == 0:
        raise SingularCurve(f"singular model {E}")
    return (E.b2, E.b4, E.b6, E.b8, E.c4, E.c6, disc, E.j)


def rst_transform(E: CurveModel, r, s, t) -> CurveModel:
    """Apply x = x' + r, y = y' + s x' + t (u = 1)."""
    return CurveModel(*rst(E.ainvs, Fraction(r), Fraction(s), Fraction(t)))


def u_scale(E: CurveModel, u) -> CurveModel:
    """Apply (x, y) -> (u^2 x, u^3 y): a_i -> a_i / u^i."""
    u = Fraction(u)
    a1, a2, a3, a4, a6 = E.ainvs
    return CurveModel(a1 / u, a2 / u**2, a3 / u**3, a4 / u**4, a6 / u**6)


def parse_ainvs(text: str) -> CurveModel:
    """Parse the CLI curve notation "a1,a2,a3,a4,a6" (integers or fractions)."""
    parts = [s.strip() for s in text.strip().strip("[]").split(",")]
    if len(parts) != 5:
        raise ValueError(f"expected 5 a-invariants, got {len(parts)}")
    return CurveModel.from_ainvs([Fraction(s) for s in parts])


# ---------------------------------------------------------------------------
# minimal models (Laska-Kraus-Connell)


def _model_from_c4c6(c4: Fraction, c6: Fraction) -> CurveModel | None:
    """Reduced integral model with the given invariants, or None.

    Scans the twelve admissible b2 residues; a reduced model (a1, a3 in {0,1},
    a2 in {-1,0,1}) exists whenever any integral model does.
    """
    if c4.denominator != 1 or c6.denominator != 1:
        return None
    c4i, c6i = int(c4), int(c6)
    for b2 in range(-5, 7):
        if (b2 * b2 - c4i) % 24:
            continue
        b4 = (b2 * b2 - c4i) // 24
        num = -(b2**3) + 36 * b2 * b4 - c6i
        if num % 216:
            continue
        b6 = num // 216
        a1 = b2 % 2
        if (b2 - a1) % 4:
            continue
        a2 = (b2 - a1) // 4
        a3 = b6 % 2
        if (b6 - a3) % 4:
            continue
        a6 = (b6 - a3) // 4
        if (b4 - a1 * a3) % 2:
            continue
        a4 = (b4 - a1 * a3) // 2
        M = CurveModel.from_ainvs((a1, a2, a3, a4, a6))
        if M.c4 == c4 and M.c6 == c6:
            return M
    return None


@cache
def minimal_model(E: CurveModel) -> CurveModel:
    """Global minimal model of E in reduced (canonical) form."""
    c4, c6, disc = E.c4, E.c6, E.discriminant
    if disc == 0:
        raise SingularCurve(f"singular model {E}")

    # u can move only at primes dividing every nonzero numerator (p | u) or
    # some denominator (p | 1/u); at any other prime the floor below is 0.
    support = [math.gcd(c4.numerator, c6.numerator, disc.numerator)]
    support += (c4.denominator, c6.denominator, disc.denominator)
    exps: dict[int, int] = {}
    for p in {p for n in support for p in prime_divisors(n)}:
        vals = [Fraction(valuation(disc, p), 12)]
        if c4 != 0:
            vals.append(Fraction(valuation(c4, p), 4))
        if c6 != 0:
            vals.append(Fraction(valuation(c6, p), 6))
        exps[p] = math.floor(min(vals))
    u0 = Fraction(1)
    for p, e in exps.items():
        u0 *= Fraction(p) ** e

    # The floor exponents can overshoot admissibility at 2 and 3 only; try the
    # largest few candidates in decreasing order and keep the first that
    # rebuilds into an integral model.
    candidates = sorted(
        {u0 / (2**f2 * 3**f3) for f2, f3 in product(range(3), range(3))},
        reverse=True,
    )
    for u in candidates:
        M = _model_from_c4c6(c4 / u**4, c6 / u**6)
        if M is not None:
            if M.discriminant != disc / u**12:
                raise RuntimeError(f"minimal model bookkeeping failed for {E}")
            return M
    raise RuntimeError(f"no admissible rescaling found for {E}")


def is_minimal_at(E: CurveModel, p: int) -> bool:
    """True iff the integral model E is already minimal at p."""
    if not E.is_integral:
        return False
    M = minimal_model(E)  # raises SingularCurve on degenerate input
    return valuation(E.discriminant, p) == valuation(M.discriminant, p)


# ---------------------------------------------------------------------------
# base curves and twists


class Family(str, Enum):
    """The two base modular curves, named by their level."""

    X15 = "X15"
    X21 = "X21"

    @classmethod
    def parse(cls, value) -> "Family":
        if isinstance(value, Family):
            return value
        text = str(value).strip().upper()
        if text in ("15", "X15", "X0(15)"):
            return cls.X15
        if text in ("21", "X21", "X0(21)"):
            return cls.X21
        raise ValueError(f"unknown curve family {value!r} (want 15 or 21)")

    @property
    def level(self) -> int:
        return 15 if self is Family.X15 else 21

    @property
    def base_primes(self) -> frozenset[int]:
        return frozenset({2, 3, 5}) if self is Family.X15 else frozenset({2, 3, 7})

    @property
    def odd_level_primes(self) -> tuple[int, int]:
        return (3, 5) if self is Family.X15 else (3, 7)


# Embedded coefficients from the standard curve tables; treated as untrusted
# input and validated against the known j-invariants and conductors below.
_BASE_AINVS = {
    Family.X15: (1, 1, 1, -10, -10),
    Family.X21: (1, 0, 0, -4, -1),
}

_BASE_J = {
    Family.X15: Fraction(13**3 * 37**3, 3**4 * 5**4),
    Family.X21: Fraction(193**3, 3**4 * 7**2),
}


@cache
def base_curve(tag) -> CurveModel:
    """Global minimal model of 15A1 or 21A1, validated on first use."""
    fam = Family.parse(tag)
    E = CurveModel.from_ainvs(_BASE_AINVS[fam])
    if E.j != _BASE_J[fam]:
        raise RuntimeError(f"embedded {fam.value} coefficients have wrong j-invariant")
    from . import local_invariants  # deferred: local_invariants imports this module

    N = local_invariants.conductor(E).N
    if N != fam.level:
        raise RuntimeError(f"embedded {fam.value} coefficients have conductor {N}")
    if minimal_model(E) != E:
        raise RuntimeError(f"embedded {fam.value} model is not reduced-minimal")
    return E


def quadratic_twist(E: CurveModel, d: int) -> CurveModel:
    """Minimal model of the twist of E by squarefree d (via the short form)."""
    if d == 0:
        raise NotSquarefree("twist parameter must be nonzero")
    if not is_squarefree(abs(d)):
        raise NotSquarefree(f"{d} is not squarefree")
    c4, c6 = E.c4, E.c6
    short = CurveModel.from_ainvs((0, 0, 0, -27 * c4 * d * d, -54 * c6 * d**3))
    return minimal_model(short)


# ---------------------------------------------------------------------------
# exact affine group law (points are (x, y) Fractions; None is the origin)

Point = tuple[Fraction, Fraction] | None


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
    if k < 0:
        return point_mul(E, -k, point_neg(E, P))
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
