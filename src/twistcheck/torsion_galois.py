"""Rational torsion subgroups and one-sided mod-l surjectivity certificates.

Torsion follows the classical two-step contract: bound the order by the gcd
of reduction counts at several good odd primes, then realize the group by an
integral point search (Lutz-Nagell: Y = 0 or Y^2 dividing 4 A^3 + 27 B^2)
on the scaled short model Y^2 = X^3 + A X + B, A = -27 c4, B = -54 c6,
verifying orders with the exact group law.

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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .arith import (
    divisors_from_factorization,
    integer_cubic_roots,
    is_prime,
    kronecker,
    pol_fixed_degree,
    pol_gcd,
    pol_powmod,
    pol_trim,
    sieve_primes,
)
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


@cache
def torsion_subgroup(E: CurveModel) -> TorsionStructure:
    """Exact rational torsion subgroup (generators live on the minimal model)."""
    M = minimal_model(E)

    local = conductor(E).local_data  # one entry for each prime dividing disc
    bad = {ld.p for ld in local}

    # (i) order bound from reductions at eight good odd primes
    good = (p for p in sieve_primes(10_000) if p != 2 and p not in bad)
    bound = math.gcd(*(count_points(M, p) for p in itertools.islice(good, 8)))

    # (ii) Lutz-Nagell realization on the scaled short model Y^2 = X^3 + A X + B:
    # Y = 0 or Y^2 | 4 A^3 + 27 B^2 = -2^8 3^12 disc
    A, B = -27 * int(M.c4), -54 * int(M.c6)
    exps = {2: 8, 3: 12}
    for ld in local:
        exps[ld.p] = exps.get(ld.p, 0) + ld.vp_disc
    ys = [0] + divisors_from_factorization([(p, e // 2) for p, e in exps.items()])

    points: set[tuple[Fraction, Fraction]] = set()
    for y in ys:
        for X in integer_cubic_roots(A, B - y * y):
            for Y in ({0} if y == 0 else {y, -y}):
                x = (X - 3 * M.b2) / 36
                P = (x, (Y - 108 * (M.a1 * x + M.a3)) / 216)
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
    return len(integer_cubic_roots(A, B)) == 3


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


def _quartic_frobenius_pattern(coeffs: tuple[int, ...], p: int):
    """Factorization degree pattern of a quartic mod p, or None if inseparable.

    Only the two patterns used as witnesses are distinguished exactly:
    (4,) means irreducible; (1, 3) means linear times irreducible cubic.
    """
    f = [c % p for c in coeffs]
    if f[-1] == 0:
        return None
    fp = pol_trim([(i * c) % p for i, c in enumerate(f)][1:])
    if len(pol_gcd(f, fp, p)) - 1 != 0:
        return None  # repeated roots: skip this prime
    xp = pol_powmod([0, 1], p, f, p)
    r1 = pol_fixed_degree(f, xp, p)
    r2 = pol_fixed_degree(f, pol_powmod(xp, p, f, p), p)
    if r1 == 0 and r2 == 0:
        return (4,)
    if r1 == 1 and r2 == 1:
        return (1, 3)
    return (r1, r2, "other")
