"""Weierstrass models over Q.

Curves are immutable integral five-tuples that carry their b- and
c-invariants and discriminant, computed once; a rational model is scaled to
an isomorphic integral one where it enters, in CurveModel.from_ainvs.
Minimal models are produced by the Laska-Kraus-Connell strategy: scale
(c4, c6) down by the largest admissible u and rebuild the reduced model from
the scaled invariants, so the output is the same canonical model the
standard curve tables print.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cache

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
    """a-invariants after x = x' + r, y = y' + s x' + t."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


class CurveModel:
    """Integral long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Every field is an int.  The b- and c-invariants, the discriminant and the
    hash are computed once, when the model is built; equality and hashing
    look at the a-invariants only.  Models are immutable, because caches are
    keyed on them.  Build a model from rational a-invariants with from_ainvs.
    """

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "b2", "b4", "b6", "b8", "c4", "c6", "_discriminant", "_hash")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int) -> None:
        # one set per slot, unrolled: models are built on hot paths (Tate's
        # algorithm, every twist)
        ainvs = (a1, a2, a3, a4, a6)
        b2, b4, b6, b8, c4, c6, disc = weierstrass_invariants(ainvs)
        setattr_ = object.__setattr__
        setattr_(self, "a1", a1)
        setattr_(self, "a2", a2)
        setattr_(self, "a3", a3)
        setattr_(self, "a4", a4)
        setattr_(self, "a6", a6)
        setattr_(self, "b2", b2)
        setattr_(self, "b4", b4)
        setattr_(self, "b6", b6)
        setattr_(self, "b8", b8)
        setattr_(self, "c4", c4)
        setattr_(self, "c6", c6)
        setattr_(self, "_discriminant", disc)
        # hashed once: a cache keyed on the model looks it up on every call
        setattr_(self, "_hash", hash(ainvs))

    def __setattr__(self, name, value):
        raise AttributeError(f"CurveModel is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CurveModel is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ainvs == other.ainvs

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild the model instead of setting its slots
        return (CurveModel, self.ainvs)

    def __repr__(self) -> str:
        return f"CurveModel(a1={self.a1!r}, a2={self.a2!r}, a3={self.a3!r}, a4={self.a4!r}, a6={self.a6!r})"

    @classmethod
    def from_ainvs(cls, ainvs) -> "CurveModel":
        """The model with these a-invariants (ints or Fractions).  A rational
        model is scaled by u = the lcm of the denominators, a_i -> u^i a_i,
        to an isomorphic integral one; integral input is kept as it is."""
        ainvs = tuple(ainvs)
        u = math.lcm(*(a.denominator for a in ainvs))
        a1, a2, a3, a4, a6 = (a.numerator * u**i // a.denominator for a, i in zip(ainvs, (1, 2, 3, 4, 6)))
        return cls(a1, a2, a3, a4, a6)

    @property
    def ainvs(self) -> tuple[int, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def discriminant(self) -> int:
        # a property, not a field, so that bench/tracing.py can count reads
        return self._discriminant

    @property
    def j(self) -> Fraction:
        disc = self.discriminant
        if disc == 0:
            raise SingularCurve("j-invariant undefined: discriminant is 0")
        return Fraction(self.c4**3, disc)

    def __str__(self) -> str:
        return "[" + ", ".join(str(a) for a in self.ainvs) + "]"


def parse_ainvs(text: str) -> CurveModel:
    """Parse the CLI curve notation "a1,a2,a3,a4,a6" (integers or fractions);
    a rational model is scaled to an integral one by from_ainvs."""
    parts = [s.strip() for s in text.strip().strip("[]").split(",")]
    if len(parts) != 5:
        raise ValueError(f"expected 5 a-invariants, got {len(parts)}")
    ainvs = []
    for name, s in zip(("a1", "a2", "a3", "a4", "a6"), parts):
        # int() and not Fraction(): Fraction("1e999999999") would build 10**999999999
        num, slash, den = s.partition("/")
        try:
            ainvs.append(Fraction(int(num), int(den) if slash else 1))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{name} = {s!r} is not an integer or a fraction p/q") from None
    return CurveModel.from_ainvs(ainvs)


# ---------------------------------------------------------------------------
# minimal models (Laska-Kraus-Connell)


def _model_from_c4c6(c4: int, c6: int) -> CurveModel | None:
    """Reduced integral model with the given invariants, or None.

    Scans the twelve admissible b2 residues; a reduced model (a1, a3 in {0,1},
    a2 in {-1,0,1}) exists whenever any integral model does.
    """
    for b2 in range(-5, 7):
        if (b2 * b2 - c4) % 24:
            continue
        b4 = (b2 * b2 - c4) // 24
        num = -(b2**3) + 36 * b2 * b4 - c6
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
        M = CurveModel(a1, a2, a3, a4, a6)
        if M.c4 == c4 and M.c6 == c6:
            return M
    return None


@cache
def minimal_model(E: CurveModel) -> CurveModel:
    """Global minimal model of E in reduced (canonical) form."""
    c4, c6, disc = E.c4, E.c6, E.discriminant
    if disc == 0:
        raise SingularCurve(f"singular model {E}")

    # u can move only at primes dividing c4, c6 and disc; at any other prime
    # the floor below is 0.
    u0 = 1
    for p in prime_divisors(math.gcd(c4, c6, disc)):
        e = valuation(disc, p) // 12
        if c4:
            e = min(e, valuation(c4, p) // 4)
        if c6:
            e = min(e, valuation(c6, p) // 6)
        u0 *= p**e

    # The floor exponents can overshoot admissibility at 2 and 3 only; try the
    # largest few divisors of u0 in decreasing order and keep the first that
    # rebuilds into an integral model.
    candidates = sorted({u0 // q for q in (1, 2, 3, 4, 6, 9, 12, 18, 36) if u0 % q == 0}, reverse=True)
    for u in candidates:
        M = _model_from_c4c6(c4 // u**4, c6 // u**6)
        if M is not None:
            if M.discriminant * u**12 != disc:
                raise RuntimeError(f"minimal model bookkeeping failed for {E}")
            return M
    raise RuntimeError(f"no admissible rescaling found for {E}")


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


def base_curve(tag) -> CurveModel:
    """Global minimal model of 15A1 or 21A1, validated on first use."""
    return _validated_base_curve(Family.parse(tag))  # 15, "15" and Family.X15 share one entry


@cache
def _validated_base_curve(fam: Family) -> CurveModel:
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
    short = CurveModel(0, 0, 0, -27 * c4 * d * d, -54 * c6 * d**3)
    return minimal_model(short)

