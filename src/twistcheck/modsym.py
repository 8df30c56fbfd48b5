"""Exact L(E_d, 1)/Omega for the twists of 15A1 and 21A1 by plus modular symbols.

Both base curves have squarefree level N, so for squarefree d > 1 and D the
discriminant of Q(sqrt(d)), L(E_d, s) is the L-series of the base newform
twisted by chi_D, and Birch's formula gives it exactly (Cremona, Algorithms
for Modular Elliptic Curves, ch. 2; Mazur-Tate-Teitelbaum, Invent. Math. 84):

    L(E_d, 1) sqrt(D) / Omega(E) = -sum_{a mod D} chi_D(a) phi({0, a/D}),

where phi is the plus modular symbol of E, scaled so that phi({0, oo}) =
L(E, 1)/Omega(E).  phi lives on the Manin symbols (c:d) of P^1(Z/N): modulo
x = -xS, x = x eta and x + xT + xT^2 = 0 they span the plus quotient, and
phi is the line of it on which T_2 acts by a_2(E).  {0, a/b} is a sum of
Manin symbols read off the continued fraction of a/b.  The symbol is built
once per level, on first use.  Its scale needs no series: both base curves
are X_0(N) (Manin constant 1) with discriminant > 0, so phi takes the values
omega_1 Z on the integral cycles of X_0(N), and Omega = 2 omega_1 (Manin,
Izv. 1972; see plus_symbol).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .arith import iroot, kronecker, quad_field_data
from .curves import Family, base_curve, quadratic_twist
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


class PlusQuotient:
    """Manin symbols of level N modulo x = -xS, x = x eta and
    x + xT + xT^2 = 0, with S = [0 -1; 1 0], eta = [-1 0; 0 1], T = [0 -1; 1 -1].

    The two-term relations fold the symbols into signed classes: coord[x] is
    (class, sign), or None when x meets its own negative and so is 0.  basis
    spans the functionals on the classes that kill every three-term relation,
    the dual of the plus quotient."""

    def __init__(self, N: int) -> None:
        self.N = N
        self.reps, self.index = _p1(N)
        n = len(self.reps)
        self.coord: list[tuple[int, int] | None] = [None] * n
        self.n_classes = 0
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            sign = {start: 1}
            stack = [start]
            zero = False
            while stack:
                x = stack.pop()
                for y, s in ((self.act(x, 0, -1, 1, 0), -1), (self.act(x, -1, 0, 0, 1), 1)):
                    if y not in sign:
                        sign[y] = sign[x] * s
                        stack.append(y)
                    elif sign[y] != sign[x] * s:
                        zero = True
            for x, s in sign.items():
                seen[x] = True
                self.coord[x] = None if zero else (self.n_classes, s)
            self.n_classes += not zero
        three_term = [self.vector((x, self.act(x, 0, -1, 1, -1), self.act(x, -1, 1, -1, 0))) for x in range(n)]
        self.basis = _nullspace(three_term, self.n_classes)

    def act(self, x: int, a: int, b: int, c: int, d: int) -> int:
        """The symbol (x0:x1) [a b; c d], for a matrix of determinant prime to N."""
        x0, x1 = self.reps[x]
        return self.index[(x0 * a + x1 * c) % self.N, (x0 * b + x1 * d) % self.N]

    def vector(self, symbols) -> list[int]:
        """The sum of these symbols, on the classes."""
        v = [0] * self.n_classes
        for x in symbols:
            if self.coord[x] is not None:
                k, s = self.coord[x]
                v[k] += s
        return v

    def value(self, phi: list[int], x: int) -> int:
        """phi, a functional on the classes, at the symbol x."""
        if self.coord[x] is None:
            return 0
        k, s = self.coord[x]
        return s * phi[k]

    def t2_kernel(self, eigenvalue: int) -> list[list[int]]:
        """A basis of the functionals phi in the span of basis with
        phi T_2 = eigenvalue phi, for N odd: sum_M phi(x M) over the Heilbronn
        matrices M of determinant 2 is eigenvalue phi(x) on every symbol x."""
        rows = []
        for x in range(len(self.reps)):
            row = self.vector(self.act(x, *M) for M in _HEILBRONN_2)
            row = [r - eigenvalue * v for r, v in zip(row, self.vector((x,)))]
            rows.append([sum(r * b for r, b in zip(row, vec)) for vec in self.basis])
        return [
            [sum(c * vec[k] for c, vec in zip(combo, self.basis)) for k in range(self.n_classes)]
            for combo in _nullspace(rows, len(self.basis))
        ]


@cache
def plus_symbol(fam: Family) -> tuple[list[int], int]:
    """(table, den): phi((c:d)) = table[c N + d] / den for the base curve of
    fam, on every pair (c, d) mod N = fam.level with gcd(c, d, N) = 1.  phi
    is the line of the plus quotient on which T_2 = a_2(E), scaled so that
    phi((0:1)) = phi({0, oo}) = L(E, 1)/Omega(E).  At squarefree N, (c:d) is
    the path from cusp class gcd(d, N) to class gcd(c, N), and (k:1) is
    {0, 1/k}, from class 1 to class k; so the cycles x - (gcd(c, N):1) +
    (gcd(d, N):1) span H_1(X_0(N), Z).  As E = X_0(N) has discriminant > 0,
    the gcd of phi on them is omega_1 = Omega/2, so den = 2 gcd, with the sign
    that makes L(E, 1)/Omega(E) positive by convention."""
    E = base_curve(fam)
    q = PlusQuotient(fam.level)
    a2 = ap(E, 2)
    line = q.t2_kernel(a2)
    if len(line) != 1:
        raise ArithmeticError(f"ker(T_2 - {a2}) at level {q.N} has dimension {len(line)}")
    (phi,) = line
    N = q.N
    table = [0] * (N * N)
    for (c, d), x in q.index.items():
        table[c * N + d] = q.value(phi, x)
    at_zero = table[1]
    if at_zero == 0:
        raise ArithmeticError(f"the plus symbol at level {N} vanishes on {{0, oo}}")
    cusp = {k: table[k % N * N + 1] for k in range(1, N + 1) if N % k == 0}  # phi((k:1)); (N:1) = (0:1)
    lattice = math.gcd(*(table[c * N + d] - cusp[math.gcd(c, N)] + cusp[math.gcd(d, N)] for c, d in q.reps))
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
    D = quad_field_data(d).D  # raises unless d > 1 is squarefree
    table, den = plus_symbol(fam)
    N = fam.level
    # a/D and -a/D give the same value, since phi and chi_D are even
    half = sum(chi * _symbol_to(a, D, table, N) for a in range(1, D // 2 + 1) if (chi := kronecker(D, a)))
    # Omega(E_d) = (u/6) Omega(E)/sqrt(d), with u the scaling from the short
    # model quadratic_twist starts from to the minimal one
    E = base_curve(fam)
    u12, rem = divmod(6**12 * E.discriminant * d**6, quadratic_twist(E, d).discriminant)
    u = iroot(u12, 12)
    if rem or u**12 != u12:
        raise ArithmeticError(f"the twist by {d} is not a rescaling of its short model")
    # 6 sqrt(d) / (u sqrt(D)), with sqrt(D / d) = 1 or 2
    return Fraction(-2 * half * (6 if D == d else 3), den * u)
