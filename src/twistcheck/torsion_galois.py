"""Rational torsion subgroups and one-sided mod-l surjectivity certificates.

Torsion bounds the order by the gcd of reduction counts at eight odd primes
prime to the minimal discriminant, then searches E[n] only, for each
n = gcd(bound, 8 | 9 | 5 | 7) > 1 that Mazur allows.  Those points are
integral on the scaled short model Y^2 = X^3 + A X + B, A = -27 c4,
B = -54 c6 (Lutz-Nagell), so X is an integer root of a division polynomial.
The points are counted, not built: the order is the product of the counts of
the parts, and since the order and #E(Q)[2] tell Mazur's fifteen groups
apart, they give the structure.

Surjectivity mod l >= 5 is certified from Frobenius trace/determinant pairs:
one witness whose characteristic polynomial is irreducible (nonsquare
discriminant, nonzero trace), one split semisimple non-scalar witness
(nonzero square discriminant, nonzero trace), and one witness whose
projective order exceeds 5.  Together with the surjective determinant these
rule out Borel, both Cartan normalizers and the exceptional projective
images, hence force the full group.

Every witness is the least prime of its kind below SAMPLE_BOUND = 10^4, the
one prime table that the witness loops and the torsion bound's eight good
primes draw from.  The bound is fixed because no larger one was seen to
pay: over the 7,221 certificates that apply for both families, squarefree
d < 1500 and p <= 43, the largest witness is 61, and where the image is not
surjective (11a1 mod 5, 26b1 mod 7) a bound of 10^5 still left the verdict
Undetermined, in 0.8-1.2 s instead of 0.07-0.1 s on a 2-CPU Xeon.

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
from functools import cache
from typing import NamedTuple

from .arith import (
    integer_roots,
    is_prime,
    kronecker,
    pol_fixed_degree,
    pol_gcd,
    pol_mul,
    pol_powmod,
    pol_trim,
    sieve_primes,
)
from .curves import CurveModel, minimal_model
from .frobenius import ap, count_points
from .local_invariants import conductor

SURJECTIVE = "Surjective"
UNDETERMINED = "Undetermined"
SAMPLE_BOUND = 10_000

# Mazur: the fifteen possible rational torsion structures.
_MAZUR = {(): 1} | {(n,): n for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)} | {
    (2, 2 * m): 4 * m for m in (1, 2, 3, 4)
}


class InvalidL(ValueError):
    """mod-l certification needs an odd prime l >= 3."""


class TorsionStructure(NamedTuple):
    invariant_factors: tuple[int, ...]
    order: int


class GaloisImageVerdict(NamedTuple):
    l: int
    verdict: str
    witnesses: tuple[tuple[str, int], ...]


# ---------------------------------------------------------------------------
# torsion


@cache
def torsion_subgroup(E: CurveModel) -> TorsionStructure:
    """Order and invariant factors of E(Q)_tors.  The good primes of the bound
    are those prime to the minimal discriminant; the order is the product of
    the parts' point counts, and the structure follows from it and #E(Q)[2]."""
    M = minimal_model(E)

    # (i) order bound from reductions at eight good odd primes
    good = (p for p in sieve_primes(SAMPLE_BOUND) if p != 2 and M.discriminant % p)
    bound = math.gcd(*(count_points(M, p) for p in itertools.islice(good, 8)))

    # (ii) the l-part lies in E[n], n = gcd(bound, 8 | 9 | 5 | 7) by Mazur; its
    # points are integral on Y^2 = F(X) = X^3 + A X + B (Lutz-Nagell): two per
    # X with F(X) a nonzero square, one (of order 2) per root of F
    A, B = -27 * M.c4, -54 * M.c6
    order = two_torsion = 1
    for n in (math.gcd(bound, q) for q in (8, 9, 5, 7)):
        part = 1
        for X in integer_roots(_division_polynomial(A, B, n)):
            Y2 = (X * X + A) * X + B
            if Y2 == 0:
                part += 1
                two_torsion += 1
            elif Y2 > 0 and math.isqrt(Y2) ** 2 == Y2:
                part += 2
        order *= part

    if bound % order:
        raise RuntimeError("realized torsion does not divide the reduction bound")
    # E(Q)_tors = Z/m x Z/mk with m = 1 or 2, and m = 2 exactly when E[2] is rational
    factors = (2, order // 2) if two_torsion == 4 else (order,) if order > 1 else ()
    if _MAZUR.get(factors) != order:
        raise RuntimeError(f"torsion of order {order} with #E(Q)[2] = {two_torsion} is not an allowed group")
    return TorsionStructure(factors, order)


def _division_polynomial(A: int, B: int, n: int) -> list[int]:
    """Squarefree polynomial in X, ascending coefficients, whose roots are the
    X-coordinates of E[n] minus O on Y^2 = F(X) = X^3 + A X + B: psi_n for odd
    n, psi_n Y / 2 for even n.  The recursion runs on g_k = psi_k for odd k and
    psi_k / 2Y for even k (Washington, Elliptic Curves, section 3.2;
    Silverman, AEC, exercise 3.7)."""
    F = [B, A, 0, 1]
    g = [[], [1], [1], [-A * A, 12 * B, 6 * A, 0, 3]]
    g.append([-2 * A**3 - 16 * B * B, -8 * A * B, -10 * A * A, 40 * B, 10 * A, 0, 2])
    f2 = [16 * c for c in pol_mul(F, F)]  # (2Y)^4 = 16 F^2
    for k in range(5, n + 1):
        m = k // 2
        if k % 2:  # psi_{2m+1} = psi_{m+2} psi_m^3 - psi_{m-1} psi_{m+1}^3
            u = pol_mul(g[m + 2], pol_mul(g[m], pol_mul(g[m], g[m])))
            v = pol_mul(g[m - 1], pol_mul(g[m + 1], pol_mul(g[m + 1], g[m + 1])))
            u, v = (u, pol_mul(f2, v)) if m % 2 else (pol_mul(f2, u), v)  # even indices: (2Y)^4
        else:  # psi_{2m} = psi_m (psi_{m+2} psi_{m-1}^2 - psi_{m-2} psi_{m+1}^2) / 2Y
            u = pol_mul(g[m], pol_mul(g[m + 2], pol_mul(g[m - 1], g[m - 1])))
            v = pol_mul(g[m], pol_mul(g[m - 2], pol_mul(g[m + 1], g[m + 1])))
        g.append(pol_trim([a - b for a, b in itertools.zip_longest(u, v, fillvalue=0)]))
    return g[n] if n % 2 else pol_mul(g[n], F)


# ---------------------------------------------------------------------------
# mod-l image


def mod_l_image(E: CurveModel, l: int) -> GaloisImageVerdict:
    """One-sided surjectivity certificate for the mod-l representation.

    Returns Surjective only with explicit witnesses, each the least prime of
    its kind below SAMPLE_BOUND; Undetermined otherwise (never asserts
    non-surjectivity).
    """
    if l < 3 or not is_prime(l):
        raise InvalidL(f"need an odd prime l >= 3, got {l}")
    M = minimal_model(E)
    N = conductor(M).N
    if l == 3:
        return _mod3_image(M, N)

    need = {"irreducible": None, "split_semisimple": None, "large_projective_order": None}
    small = {0, 1, 2, 4}
    for p in sieve_primes(SAMPLE_BOUND):
        if p == l or N % p == 0:
            continue
        t = ap(M, p) % l
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
    return GaloisImageVerdict(l, verdict, witnesses)


def _mod3_image(M: CurveModel, N: int) -> GaloisImageVerdict:
    # psi_3 of the short model: X = 36 x + 3 b2 keeps factorization patterns at p >= 5
    psi3 = _division_polynomial(-27 * M.c4, -54 * M.c6, 3)
    need = {"four_cycle": None, "three_cycle": None}
    for p in sieve_primes(SAMPLE_BOUND):
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
    return GaloisImageVerdict(3, verdict, witnesses)


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
