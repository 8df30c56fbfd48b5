"""Exact L(E_d, 1)/Omega for the twists of 15A1 and 21A1 by plus modular symbols.

Both base curves have squarefree level N, so for squarefree d > 1 and D the
discriminant of Q(sqrt(d)), L(E_d, s) is the L-series of the base newform
twisted by chi_D, and Birch's formula gives it exactly (Cremona, Algorithms
for Modular Elliptic Curves, ch. 2; Mazur-Tate-Teitelbaum, Invent. Math. 84):

    L(E_d, 1) sqrt(D) / Omega(E) = -sum_{a mod D} chi_D(a) phi({0, a/D}),

where phi is the plus modular symbol of E, scaled so that phi({0, oo}) =
L(E, 1)/Omega(E).  For both families Omega(E_d) = Omega(E)/sqrt(D) (see
_family_l_ratio), so the sum is L(E_d, 1)/Omega(E_d) itself.

phi lives on the Manin symbols (c:d) of P^1(Z/N).  The two-term relations
x = -xS and x = x eta fold them into orbits of four in closed form, on which
phi kills x + xT + xT^2 = 0 and is the line where T_2 acts by a_2(E).
{0, a/b} is a sum of Manin symbols read off the continued fraction of a/b.
The symbol is built once per level, on first use.  Its scale needs no
series: both base curves are X_0(N) (Manin constant 1) with discriminant
> 0, so phi takes the values omega_1 Z on the integral cycles of X_0(N), and
Omega = 2 omega_1 (Manin, Izv. 1972; see plus_symbol).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .arith import fundamental_discriminant, kronecker
from .curves import Family, base_curve
from .frobenius import ap

# T_2 on Manin symbols of a level prime to 2: the Heilbronn matrices
# (a, b, c, d) of determinant 2 (Merel; Cremona, section 2.4)
_HEILBRONN_2 = ((1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2))


def _p1(N: int) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    """The points (c:d) of P^1(Z/N), each by its least pair under (Z/N)*, and
    the index of every pair (c, d) mod N with gcd(c, d, N) = 1."""
    units = [u for u in range(1, N) if math.gcd(u, N) == 1]
    reps: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    for c in range(N):
        for d in range(N):
            if (c, d) not in index and math.gcd(c, d, N) == 1:
                for u in units:
                    index[u * c % N, u * d % N] = len(reps)
                reps.append((c, d))
    return reps, index


def _nullspace(rows: list[list[int]], n: int) -> list[list[int]]:
    """A basis of {v in Z^n : row . v = 0 for every row}, by row reduction
    over Q; each vector is scaled to integers."""
    pivots: dict[int, list[Fraction]] = {}  # column -> row with 1 there, 0 in the other pivot columns
    for row in set(map(tuple, rows)):
        for col, prow in pivots.items():
            f = row[col]
            if f:
                row = [x - f * y for x, y in zip(row, prow)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            continue
        f = Fraction(row[col])
        row = [x / f for x in row]
        for c, prow in pivots.items():
            g = prow[col]
            pivots[c] = [x - g * y for x, y in zip(prow, row)]
        pivots[col] = row
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        v = [-pivots[j][free] if j in pivots else Fraction(j == free) for j in range(n)]
        m = math.lcm(*(x.denominator for x in v))
        basis.append([int(x * m) for x in v])
    return basis


@cache
def plus_symbol(fam: Family) -> tuple[list[int], int]:
    """(table, den): phi((c:d)) = table[c N + d] / den for the base curve of
    fam, on every pair (c, d) mod N = fam.level with gcd(c, d, N) = 1.

    phi kills x + xS, x - x eta and x + xT + xT^2, with S = [0 -1; 1 0],
    eta = [-1 0; 0 1] and T = [0 -1; 1 -1].  As S^2 = -1 fixes every point of
    P^1(Z/N), eta and S fold each symbol x into the orbit {x, x eta, x S,
    x eta S}, on which phi has the signs +, +, -, -; phi is 0 on an orbit that
    meets its own negative.  On the orbits, phi spans the kernel of the
    three-term relations, and within it the line on which T_2 = a_2(E).

    phi is scaled so that phi((0:1)) = phi({0, oo}) = L(E, 1)/Omega(E).  At
    squarefree N, (c:d) is the path from cusp class gcd(d, N) to class
    gcd(c, N), and (k:1) is {0, 1/k}, from class 1 to class k; so the cycles
    x - (gcd(c, N):1) + (gcd(d, N):1) span H_1(X_0(N), Z).  As E = X_0(N) has
    discriminant > 0, the gcd of phi on them is omega_1 = Omega/2, so
    den = 2 gcd, with the sign that makes L(E, 1)/Omega(E) positive by
    convention."""
    N = fam.level
    reps, index = _p1(N)

    def act(x: int, a: int, b: int, c: int, d: int) -> int:
        """The symbol (x0:x1) [a b; c d], for a matrix of determinant prime to N."""
        x0, x1 = reps[x]
        return index[(x0 * a + x1 * c) % N, (x0 * b + x1 * d) % N]

    coord: dict[int, tuple[int, int] | None] = {}  # symbol -> (orbit, sign), None where phi is 0
    orbits = 0
    for x in range(len(reps)):
        if x not in coord:
            plus = {x, act(x, -1, 0, 0, 1)}
            minus = {act(y, 0, -1, 1, 0) for y in plus}
            zero = not plus.isdisjoint(minus)
            for ys, sign in ((plus, 1), (minus, -1)):
                coord |= dict.fromkeys(ys, None if zero else (orbits, sign))
            orbits += not zero

    def vector(symbols) -> list[int]:
        """The sum of these symbols, on the orbits."""
        v = [0] * orbits
        for x in symbols:
            if coord[x]:
                k, sign = coord[x]
                v[k] += sign
        return v

    basis = _nullspace([vector((x, act(x, 0, -1, 1, -1), act(x, -1, 1, -1, 0))) for x in range(len(reps))], orbits)
    # phi T_2 = a_2 phi for N odd: sum_M phi(x M) over the Heilbronn matrices
    # M of determinant 2 is a_2 phi(x) on every symbol x
    a2 = ap(base_curve(fam), 2)
    t2 = []
    for x in range(len(reps)):
        row = [r - a2 * v for r, v in zip(vector(act(x, *M) for M in _HEILBRONN_2), vector((x,)))]
        t2.append([sum(r * b for r, b in zip(row, vec)) for vec in basis])
    line = _nullspace(t2, len(basis))
    if len(line) != 1:
        raise ArithmeticError(f"ker(T_2 - {a2}) at level {N} has dimension {len(line)}")
    phi = [sum(c * vec[k] for c, vec in zip(line[0], basis)) for k in range(orbits)]
    table = [0] * (N * N)
    for (c, d), x in index.items():
        if coord[x]:
            k, sign = coord[x]
            table[c * N + d] = sign * phi[k]
    at_zero = table[1]
    if at_zero == 0:
        raise ArithmeticError(f"the plus symbol at level {N} vanishes on {{0, oo}}")
    cusp = {k: table[k % N * N + 1] for k in range(1, N + 1) if N % k == 0}  # phi((k:1)); (N:1) = (0:1)
    lattice = math.gcd(*(table[c * N + d] - cusp[math.gcd(c, N)] + cusp[math.gcd(d, N)] for c, d in reps))
    return table, 2 * lattice * (1 if at_zero > 0 else -1)


def _symbol_to(a: int, b: int, table: list[int], N: int) -> int:
    """den * phi({0, a/b}) for 0 < a < b coprime: phi((0:1)) plus
    phi(((-1)^(j-1) q_j : q_(j-1))) over the convergent denominators q_j."""
    total = table[1]
    q_prev, q = 1, 0
    s = -1
    while b:
        t = a // b
        a, b = b, a - t * b
        q_prev, q = q, t * q + q_prev
        total += table[(s * q) % N * N + q_prev % N]
        s = -s
    return total


def family_l_ratio(fam, d: int) -> Fraction:
    """Exact L(E_d, 1)/Omega(E_d) for the twist of 15A1 or 21A1 by a
    squarefree d > 1 (Fraction(0) when it vanishes)."""
    return _family_l_ratio(Family.parse(fam), d)


@cache
def _family_l_ratio(fam: Family, d: int) -> Fraction:
    D = fundamental_discriminant(d)  # raises unless d > 1 is squarefree
    table, den = plus_symbol(fam)
    N = fam.level
    # a/D and -a/D give the same value, since phi and chi_D are even
    half = sum(chi * _symbol_to(a, D, table, N) for a in range(1, D // 2 + 1) if (chi := kronecker(D, a)))
    # Omega(E_d) = Omega(E)/sqrt(D).  E_d's minimal model is the short model
    # y^2 = x^3 - 27 c4 d^2 x - 54 c6 d^3, of period Omega(E)/(6 sqrt(d)),
    # scaled by u = 6 if D = d and 3 if D = 4d; so (u/6) sqrt(D/d) = 1.  At 3,
    # E is multiplicative (3 || N), and E_d has the same v_3(Delta) if 3 does
    # not divide d, 6 more (type I_n*) if it does, so u_3 = 3.  At 2, E is good
    # (N odd) with c4 odd: if d = 1 mod 4, E_d is good too, so u_2 = 2;
    # otherwise E_d is bad, and by Kraus's criterion the short model scaled by
    # 2 is not integral, so u_2 = 1.  At p > 3, v_p(Delta) < 12 already.
    return Fraction(-2 * half, den)
