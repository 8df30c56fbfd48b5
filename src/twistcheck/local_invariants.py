"""Tate's algorithm at every prime (2 and 3 included), global conductors,
Tamagawa products, and the closed-form conductor of a quadratic twist of a
semistable curve.

The per-prime routine works on exact integers and performs the classical
step-by-step translations.  Closed-form translations are used at p >= 5;
at p = 2 and p = 3 the (tiny) residue searches are done exhaustively, which
sidesteps every characteristic-2/3 special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .arith import (
    NotSquarefree,
    factorize,
    is_squarefree,
    kronecker,
    quad_field_data,
    valuation,
)
from .curves import (
    CurveModel,
    SingularCurve,
    is_minimal_at,
    minimal_model,
    rst,
    weierstrass_invariants,
)

GOOD = "good"
SPLIT = "split-multiplicative"
NONSPLIT = "nonsplit-multiplicative"
ADDITIVE = "additive"


class NotMinimalAtP(ValueError):
    """The supplied model is not integral and minimal at the given prime."""


@dataclass(frozen=True)
class LocalData:
    """Reduction data of a minimal model at one prime."""

    p: int
    kodaira: str  # "I0", "I4", "II", ..., "I2*", "IV*", ...
    f: int  # conductor exponent
    c: int  # Tamagawa number
    kind: str  # good / split-multiplicative / nonsplit-multiplicative / additive
    vp_disc: int


@dataclass(frozen=True)
class ConductorReport:
    N: int
    factorization: tuple[tuple[int, int], ...]
    local_data: tuple[LocalData, ...]


# ---------------------------------------------------------------------------
# small mod-p helpers


def _quadroots(a: int, b: int, c: int, p: int) -> bool:
    """Does a y^2 + b y + c have a root mod p?"""
    if p == 2:
        return (c % 2 == 0) or ((a + b + c) % 2 == 0)
    if a % p == 0:
        return (b % p != 0) or (c % p == 0)
    return kronecker(b * b - 4 * a * c, p) >= 0


def _double_root_of_quadratic(a: int, b: int, c: int, p: int) -> int:
    """The (assumed) double root of a y^2 + b y + c mod p."""
    if p == 2:
        for y in (0, 1):
            if (a * y * y + b * y + c) % 2 == 0:
                return y
        raise ArithmeticError("quadratic has no root mod 2")
    return (-b * pow(2 * a, p - 2, p)) % p


def _cubic_root_count(b: int, c: int, d: int, p: int) -> int:
    """Number of distinct roots of T^3 + b T^2 + c T + d in F_p (p small here)."""
    return sum(1 for t in range(p) if (((t + b) * t + c) * t + d) % p == 0)


def _cubic_repeated_root(b: int, c: int, d: int, p: int) -> int:
    """A root of T^3 + b T^2 + c T + d with multiplicity >= 2 mod p."""
    for t in range(p):
        if (((t + b) * t + c) * t + d) % p == 0 and (3 * t * t + 2 * b * t + c) % p == 0:
            return t
    raise ArithmeticError("cubic has no repeated root mod p")


def _move_singular_point(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Translate so the singular point of the reduction sits at (0, 0) mod p."""
    a1, a2, a3, a4, a6 = a
    if p in (2, 3):
        for x0 in range(p):
            for y0 in range(p):
                eq = y0 * y0 + a1 * x0 * y0 + a3 * y0 - (x0**3 + a2 * x0 * x0 + a4 * x0 + a6)
                dx = a1 * y0 - (3 * x0 * x0 + 2 * a2 * x0 + a4)
                dy = 2 * y0 + a1 * x0 + a3
                if eq % p == 0 and dx % p == 0 and dy % p == 0:
                    return rst(a, x0, 0, y0)
        raise ArithmeticError(f"no singular point mod {p}")
    b2, _, _, _, c4, c6, _ = weierstrass_invariants(a)
    if c4 % p == 0:  # cusp: triple root of the 2-division cubic
        r = (-b2 * pow(12, p - 2, p)) % p
    else:  # node: double root
        r = (-(c6 + b2 * c4) * pow(12 * c4, p - 2, p)) % p
    t = (-(a1 * r + a3) * pow(2, p - 2, p)) % p
    return rst(a, r, 0, t)


def _prepare_step7(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Transform so that p | a1, a2; p^2 | a3, a4; p^3 | a6."""
    if p == 2:
        for s in range(2):
            for t in range(4):
                b = rst(rst(a, 0, s, 0), 0, 0, t)
                if (
                    b[0] % 2 == 0
                    and b[1] % 2 == 0
                    and b[2] % 4 == 0
                    and b[3] % 4 == 0
                    and b[4] % 8 == 0
                ):
                    return b
        raise ArithmeticError("step-7 normalization failed at p = 2")
    s = (-a[0] * pow(2, p - 2, p)) % p
    b = rst(a, 0, s, 0)
    p2 = p * p
    inv2 = pow(2, -1, p2)
    t = (-b[2] * inv2) % p2
    b = rst(b, 0, 0, t)
    if not (b[0] % p == 0 and b[1] % p == 0 and b[2] % p2 == 0 and b[3] % p2 == 0 and b[4] % p**3 == 0):
        raise ArithmeticError(f"step-7 normalization failed at p = {p}")
    return b


# ---------------------------------------------------------------------------
# Tate's algorithm proper


def _tate_minimal(a: tuple[int, ...], p: int) -> LocalData:
    disc = weierstrass_invariants(a)[6]
    if disc == 0:
        raise SingularCurve("discriminant is zero")
    if disc % p:
        return LocalData(p, "I0", 0, 1, GOOD, 0)
    n = valuation(disc, p)

    a = _move_singular_point(a, p)
    a1, a2, a3, a4, a6 = a
    b2, _, b6, b8, _, _, _ = weierstrass_invariants(a)
    if not (a3 % p == 0 and a4 % p == 0 and a6 % p == 0):
        raise ArithmeticError("singular point translation failed")

    if b2 % p:
        # multiplicative: tangent directions split iff T^2 + a1 T - a2 splits
        split = _quadroots(1, a1, -a2, p)
        if split:
            c = n
        else:
            c = 2 if n % 2 == 0 else 1
        return LocalData(p, f"I{n}", 1, c, SPLIT if split else NONSPLIT, n)

    p2, p3, p4 = p * p, p**3, p**4
    if a6 % p2:
        return LocalData(p, "II", n, 1, ADDITIVE, n)
    if b8 % p3:
        return LocalData(p, "III", n - 1, 2, ADDITIVE, n)
    if b6 % p3:
        c = 3 if _quadroots(1, a3 // p, -(a6 // p2), p) else 1
        return LocalData(p, "IV", n - 2, c, ADDITIVE, n)

    a = _prepare_step7(a, p)
    a1, a2, a3, a4, a6 = a
    b = a2 // p
    cc = a4 // p2
    d = a6 // p3
    w = 18 * b * cc * d - 4 * b**3 * d + b * b * cc * cc - 4 * cc**3 - 27 * d * d
    x = 3 * cc - b * b

    if w % p:
        # P(T) has three distinct roots
        c = 1 + _cubic_root_count(b % p, cc % p, d % p, p)
        return LocalData(p, "I0*", n - 4, c, ADDITIVE, n)

    if x % p:
        # double root: shift it to T = 0, then walk the I_m* chain
        r0 = _cubic_repeated_root(b % p, cc % p, d % p, p)
        a = rst(a, r0 * p, 0, 0)
        a1, a2, a3, a4, a6 = a
        if not (a2 % p == 0 and a2 % p2 != 0 and a4 % p3 == 0 and a6 % p4 == 0):
            raise ArithmeticError("I_m* entry state invalid")
        m = 1
        while True:
            if m % 2 == 1:
                k = (m + 1) // 2
                a3k = a3 // p ** (k + 1)
                a6k = a6 // p ** (2 * k + 2)
                if (a3k * a3k + 4 * a6k) % p:
                    ck = 4 if _quadroots(1, a3k, -a6k, p) else 2
                    return LocalData(p, f"I{m}*", n - 4 - m, ck, ADDITIVE, n)
                gam = _double_root_of_quadratic(1, a3k, -a6k, p)
                a = rst(a, 0, 0, gam * p ** (k + 1))
            else:
                k = m // 2
                a21 = a2 // p
                a4k = a4 // p ** (k + 2)
                a6k = a6 // p ** (2 * k + 3)
                if (a4k * a4k - 4 * a21 * a6k) % p:
                    ck = 4 if _quadroots(a21, a4k, a6k, p) else 2
                    return LocalData(p, f"I{m}*", n - 4 - m, ck, ADDITIVE, n)
                delt = _double_root_of_quadratic(a21, a4k, a6k, p)
                a = rst(a, delt * p ** (k + 1), 0, 0)
            a1, a2, a3, a4, a6 = a
            m += 1
            if m > n:
                raise ArithmeticError("I_m* chain failed to terminate")

    # triple root: shift it to T = 0
    if p in (2, 3):
        r0 = _cubic_repeated_root(b % p, cc % p, d % p, p)
    else:
        r0 = (-b * pow(3, p - 2, p)) % p
    a = rst(a, r0 * p, 0, 0)
    a1, a2, a3, a4, a6 = a
    if not (a2 % p2 == 0 and a4 % p3 == 0 and a6 % p4 == 0):
        raise ArithmeticError("triple-root shift state invalid")

    a32 = a3 // p2
    a64 = a6 // p4
    if (a32 * a32 + 4 * a64) % p:
        c = 3 if _quadroots(1, a32, -a64, p) else 1
        return LocalData(p, "IV*", n - 6, c, ADDITIVE, n)
    gam = _double_root_of_quadratic(1, a32, -a64, p)
    a = rst(a, 0, 0, gam * p2)
    a1, a2, a3, a4, a6 = a

    if a4 % p4:
        return LocalData(p, "III*", n - 7, 2, ADDITIVE, n)
    if a6 % p**6:
        return LocalData(p, "II*", n - 8, 1, ADDITIVE, n)
    raise NotMinimalAtP(f"model is not minimal at {p}")


def tate_local(E: CurveModel, p: int) -> LocalData:
    """Kodaira type, conductor exponent and Tamagawa number of E at p.

    E must be integral and minimal at p; non-minimal input is rejected, not
    fixed up.
    """
    if not E.is_integral:
        raise NotMinimalAtP(f"model {E} is not integral")
    if not is_minimal_at(E, p):
        raise NotMinimalAtP(f"model {E} is not minimal at {p}")
    ld = _tate_minimal(E.integer_ainvs(), p)
    if ld.kind == ADDITIVE:
        if ld.f < 2 or (p >= 5 and ld.f > 2) or (p == 3 and ld.f > 5) or (p == 2 and ld.f > 8):
            raise ArithmeticError(f"impossible conductor exponent {ld.f} at {p}")
    return ld


@cache
def conductor(E: CurveModel) -> ConductorReport:
    """Global conductor with the per-prime breakdown (minimalizes internally)."""
    M = minimal_model(E)
    disc = int(M.discriminant)
    locals_: list[LocalData] = []
    N = 1
    for p, _ in factorize(disc):
        ld = tate_local(M, p)
        locals_.append(ld)
        N *= p**ld.f
    fac = tuple((ld.p, ld.f) for ld in locals_ if ld.f > 0)
    return ConductorReport(N, fac, tuple(locals_))


def tamagawa_product(E: CurveModel) -> int:
    out = 1
    for ld in conductor(E).local_data:
        out *= ld.c
    return out


def twisted_conductor_closed_form(N_E: int, d: int) -> tuple[tuple[int, int], ...]:
    """Conductor factorization of the twist by d of a curve of squarefree
    conductor N_E: e_p = 2 c_p off N_E; on N_E, e_p = 2 if p | D else 1."""
    if N_E < 1 or not is_squarefree(N_E):
        raise NotSquarefree(f"conductor {N_E} must be squarefree")
    qf = quad_field_data(d)
    exps: dict[int, int] = {}
    level_primes = [p for p, _ in factorize(N_E)] if N_E > 1 else []
    for p in level_primes:
        exps[p] = 2 if qf.D % p == 0 else 1
    for p in qf.ramified_primes():
        if p not in exps:
            exps[p] = 2 * qf.c(p)
    fac = tuple(sorted((p, e) for p, e in exps.items() if e > 0))
    return fac
