"""Rational torsion subgroups and one-sided mod-l surjectivity certificates.

Torsion follows the classical two-step contract: bound the order by the gcd
of reduction counts at several good odd primes, then realize the group by an
integral point search (y = 0 or y^2 dividing the discriminant) on the scaled
short model Y^2 = X^3 - 27 c4 X - 54 c6, verifying orders with the exact
group law.

Surjectivity mod l >= 5 is certified from Frobenius trace/determinant pairs:
one witness whose characteristic polynomial is irreducible (nonsquare
discriminant, nonzero trace), one split semisimple non-scalar witness
(nonzero square discriminant, nonzero trace), and one witness whose
projective order exceeds 5.  Together with the surjective determinant these
rule out Borel, both Cartan normalizers and the exceptional projective
images, hence force the full group.

Mod 3 the trace data cannot separate the nonsplit Cartan normalizer (a
2-Sylow realizing every trace/determinant pair), so the certificate works
on the 3-division polynomial instead: Frobenius factorization patterns (4)
and (1,3) generate S4 on the four 3-torsion x-coordinates, and a subgroup
of GL2(F_3) with full projective image and full determinant is everything
(the extension by the scalars does not split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .arith import divisors_from_factorization, factorize, is_prime, kronecker, sieve_primes
from .curves import (
    CurveModel,
    Point,
    minimal_model,
    on_curve,
    point_add,
    point_mul,
    point_order,
)
from .frobenius import ap, count_points
from .local_invariants import conductor

SURJECTIVE = "Surjective"
UNDETERMINED = "Undetermined"

# Mazur: the fifteen possible rational torsion structures.
_MAZUR = {(): 1} | {(n,): n for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)} | {
    (2, 2 * m): 4 * m for m in (1, 2, 3, 4)
}


class InvalidL(ValueError):
    """mod-l certification needs an odd prime l >= 3."""


@dataclass(frozen=True)
class TorsionStructure:
    invariant_factors: tuple[int, ...]
    order: int
    generators: tuple[Point, ...]  # points on the global minimal model


@dataclass(frozen=True)
class GaloisImageVerdict:
    l: int
    verdict: str
    witnesses: tuple[tuple[str, int], ...]
    sample_bound: int


# ---------------------------------------------------------------------------
# torsion


def _integer_roots_depressed_cubic(A: int, C: int) -> list[int]:
    """Integer roots of X^3 + A X + C, exactly (float seeds, exact checks)."""
    roots: set[int] = set()
    seeds = np.roots([1.0, 0.0, float(A), float(C)])
    for z in seeds:
        if abs(z.imag) > 1e-6 * (1.0 + abs(z.real)):
            continue
        n0 = round(z.real)
        for n in range(n0 - 2, n0 + 3):
            if n**3 + A * n + C == 0:
                roots.add(n)
    return sorted(roots)


@cache
def torsion_subgroup(E: CurveModel) -> TorsionStructure:
    """Exact rational torsion subgroup (generators live on the minimal model)."""
    M = minimal_model(E)

    # (i) order bound from reductions at eight good odd primes
    disc = int(M.discriminant)
    bound = 0
    seen = 0
    for p in sieve_primes(10_000):
        if p == 2 or disc % p == 0:
            continue
        bound = math.gcd(bound, count_points(M, p))
        seen += 1
        if seen >= 8:
            break

    # (ii) Lutz-Nagell realization on the scaled short model
    c4, c6 = int(M.c4), int(M.c6)
    A, B = -27 * c4, -54 * c6
    disc_s = -16 * (4 * A**3 + 27 * B * B)
    square_part = 1
    for p, e in factorize(disc_s):
        square_part *= p ** (e // 2)
    ys = [0] + divisors_from_factorization(factorize(square_part))
    b2 = int(M.b2)
    a1, a3 = int(M.a1), int(M.a3)

    points: set[tuple[Fraction, Fraction]] = set()
    for y in ys:
        for X in _integer_roots_depressed_cubic(A, B - y * y):
            for Y in ({0} if y == 0 else {y, -y}):
                x = Fraction(X - 3 * b2, 36)
                yy = Fraction(Y - 108 * (a1 * x + a3), 216)
                P = (x, yy)
                if on_curve(M, P) and point_order(M, P, 12) is not None:
                    points.add(P)

    # close under the group law (defensive; the search is already complete)
    group: set = set(points)
    frontier = list(points)
    while frontier:
        P = frontier.pop()
        for Q in list(group):
            R = point_add(M, P, Q)
            if R is not None and R not in group:
                group.add(R)
                frontier.append(R)
        if len(group) > 16:
            raise RuntimeError("torsion closure exceeded the rational bound")

    order = len(group) + 1  # + identity
    if bound % order:
        raise RuntimeError("realized torsion does not divide the reduction bound")

    orders = {P: point_order(M, P, 12) for P in group}
    h = max(orders.values(), default=1)
    if order == 1:
        factors: tuple[int, ...] = ()
        gens: tuple[Point, ...] = ()
    elif h == order:
        factors = (order,)
        gens = (next(P for P, o in orders.items() if o == h),)
    else:
        a = order // h
        if a * h != order or h % a:
            raise RuntimeError(f"unexpected torsion shape: order {order}, exponent {h}")
        factors = (a, h)
        g1 = next(P for P, o in orders.items() if o == h)
        cyc = {None} | {point_mul(M, k, g1) for k in range(1, h)}
        g2 = next(P for P, o in orders.items() if o == a and P not in cyc)
        gens = (g2, g1)
    if factors not in _MAZUR:
        raise RuntimeError(f"torsion structure {factors} is not an allowed group")

    return TorsionStructure(factors, order, gens)


def two_torsion_rational(E: CurveModel) -> bool:
    """True iff all 2-torsion is rational (the 2-division cubic splits over Q)."""
    M = minimal_model(E)
    A, B = -27 * int(M.c4), -54 * int(M.c6)
    return len(_integer_roots_depressed_cubic(A, B)) == 3


# ---------------------------------------------------------------------------
# mod-l image


def mod_l_image(E: CurveModel, l: int, sample_bound: int = 10_000) -> GaloisImageVerdict:
    """One-sided surjectivity certificate for the mod-l representation.

    Returns Surjective only with explicit witnesses; Undetermined otherwise
    (never asserts non-surjectivity).  Rerunning with a larger bound can only
    keep or upgrade the verdict.
    """
    if l < 3 or not is_prime(l):
        raise InvalidL(f"need an odd prime l >= 3, got {l}")
    if sample_bound < 100:
        raise ValueError("sample_bound must be at least 100")
    M = minimal_model(E)
    N = conductor(M).N
    if l == 3:
        return _mod3_image(M, N, sample_bound)

    need = {"irreducible": None, "split_semisimple": None, "large_projective_order": None}
    small = {0, 1, 2, 4}
    for p in sieve_primes(sample_bound):
        if p == l or N % p == 0:
            continue
        t = ap(M, p).a_p % l
        det = p % l
        disc = (t * t - 4 * det) % l
        if t and disc:
            sym = kronecker(disc, l)
            if sym == -1 and need["irreducible"] is None:
                need["irreducible"] = p
            if sym == 1 and need["split_semisimple"] is None:
                need["split_semisimple"] = p
        if need["large_projective_order"] is None:
            u = t * t * pow(det, l - 2, l) % l
            if u not in small and (u * u - 3 * u + 1) % l:
                need["large_projective_order"] = p
        if all(v is not None for v in need.values()):
            break
    witnesses = tuple((k, v) for k, v in need.items() if v is not None)
    verdict = SURJECTIVE if len(witnesses) == 3 else UNDETERMINED
    return GaloisImageVerdict(l, verdict, witnesses, sample_bound)


def _mod3_image(M: CurveModel, N: int, sample_bound: int) -> GaloisImageVerdict:
    b2, b4, b6, b8 = int(M.b2), int(M.b4), int(M.b6), int(M.b8)
    psi3 = (b8, 3 * b6, 3 * b4, b2, 3)  # ascending coefficients
    need = {"four_cycle": None, "three_cycle": None}
    for p in sieve_primes(sample_bound):
        if p < 5 or (3 * N) % p == 0:
            continue
        pat = _quartic_frobenius_pattern(psi3, p)
        if pat == (4,) and need["four_cycle"] is None:
            need["four_cycle"] = p
        elif pat == (1, 3) and need["three_cycle"] is None:
            need["three_cycle"] = p
        if all(v is not None for v in need.values()):
            break
    witnesses = tuple((k, v) for k, v in need.items() if v is not None)
    verdict = SURJECTIVE if len(witnesses) == 2 else UNDETERMINED
    return GaloisImageVerdict(3, verdict, witnesses, sample_bound)


# dense univariate polynomial arithmetic over F_p (ascending coefficients)


def _pol_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pol_mulmod(f: list[int], g: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                prod[i + j] = (prod[i + j] + fi * gj) % p
    return _pol_rem(prod, mod, p)


def _pol_rem(f: list[int], mod: list[int], p: int) -> list[int]:
    f = [c % p for c in f]
    _pol_trim(f)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(f) - 1 >= dm:
        coef = f[-1] * inv_lead % p
        shift = len(f) - 1 - dm
        for i, mi in enumerate(mod):
            f[shift + i] = (f[shift + i] - coef * mi) % p
        _pol_trim(f)
    return f


def _pol_powmod_x(exp: int, mod: list[int], p: int) -> list[int]:
    """x^exp mod (mod, p)."""
    return _pol_powmod([0, 1], exp, mod, p)


def _pol_powmod(base: list[int], exp: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _pol_rem(base[:], mod, p)
    while exp:
        if exp & 1:
            result = _pol_mulmod(result, base, mod, p)
        base = _pol_mulmod(base, base, mod, p)
        exp >>= 1
    return result


def _pol_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    f, g = _pol_trim(f[:]), _pol_trim(g[:])
    while g:
        f = _pol_rem(f, g, p)
        f, g = g, _pol_trim(f)
    return f


def _pol_sub(f: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * max(len(f), len(g))
    for i, fi in enumerate(f):
        out[i] = fi % p
    for i, gi in enumerate(g):
        out[i] = (out[i] - gi) % p
    return _pol_trim(out)


def _quartic_frobenius_pattern(coeffs: tuple[int, ...], p: int):
    """Factorization degree pattern of a quartic mod p, or None if inseparable.

    Only the two patterns used as witnesses are distinguished exactly:
    (4,) means irreducible; (1, 3) means linear times irreducible cubic.
    """
    f = [c % p for c in coeffs]
    if f[-1] == 0:
        return None
    fp = _pol_trim([(i * c) % p for i, c in enumerate(f)][1:])
    if len(_pol_gcd(f, fp, p)) - 1 != 0:
        return None  # repeated roots: skip this prime
    xp = _pol_powmod_x(p, f, p)
    r1 = len(_pol_gcd(f, _pol_sub(xp, [0, 1], p), p)) - 1
    xp2 = _pol_powmod(xp, p, f, p)
    r2 = len(_pol_gcd(f, _pol_sub(xp2, [0, 1], p), p)) - 1
    if r1 == 0 and r2 == 0:
        return (4,)
    if r1 == 1 and r2 == 1:
        return (1, 3)
    return (r1, r2, "other")
