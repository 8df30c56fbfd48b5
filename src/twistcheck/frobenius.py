"""Frobenius traces and Dirichlet coefficients.

#E(F_p) is counted per curve and prime, in one of two ways.  Below BSGS_MIN_P
it is an exact O(p) character sum over x in F_p with a table of quadratic
residues.  From BSGS_MIN_P up it is Shanks-Mestre baby-step giant-step,
O(p^(1/4)) group operations (Cohen, GTM 138, section 7.4; PARI's ellap does
the same): every point tried rules out the traces in the Hasse interval
whose group order does not kill it, and the count is returned only when one
trace is left, so it is exact, not probable.  The candidates start as the
traces t = p + 1 (mod m), where m = 1, 2 or 4 is the order of the rational
2-torsion E(Q)[2]: its points stay distinct mod a good p >= 5, so E(F_p)
has a subgroup of order m and m divides #E(F_p) = p + 1 - t.  The traces
dropped are never the true one.  Every twist of 15A1 and 21A1 has m = 4,
so BSGS searches a quarter of the Hasse interval.  L-series of twists with
conductors near 6 * 10^9 need primes up to about 5.6 * 10^5, where an O(p)
pass would cost tens of milliseconds a prime.

ap returns the trace as an int, at a bad prime by the reduction type that
Tate's algorithm finds, and memoizes it for its direct callers.
an_coefficients gets a_n by one Hecke recursion from the traces at the bad
primes, read from the conductor, and at the good primes, counted without
that memo in interleaved shares, one process per available CPU: share 0 in
the calling process, the others in forked children that send their traces
back over a pipe.  A share whose child failed is counted again in the
calling process, so an error surfaces as in one process.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from functools import cache

from .arith import integer_roots, smallest_prime_factors
from .curves import CurveModel, minimal_model
from .local_invariants import ADDITIVE, NONSPLIT, SPLIT, conductor, tate_local

# BSGS needs p > 229: only there does Mestre's theorem promise that one trace
# is left.
BSGS_MIN_P = 230

# a_p at a bad prime, by the reduction type that Tate's algorithm finds
_BAD_TRACE = {SPLIT: 1, NONSPLIT: -1, ADDITIVE: 0}

# an_coefficients splits its primes into at most one share per MIN_SHARE
# primes and MAX_SHARES shares.  On 2 CPUs a fork and its reap cost about
# 2 ms, and two shares (n_max 4409, 600 primes) took 17 ms against 26 ms in
# one process; at 430 primes (n_max 3000) the split gained under a tenth.
MIN_SHARE = 300
MAX_SHARES = 8


def count_points(E: CurveModel, p: int) -> int:
    """#E~(F_p) for a prime of good reduction (E minimal at p).

    Below BSGS_MIN_P it is a character sum on the b-invariants.  From there
    up E is isomorphic over F_p to y^2 = x^3 + A x + B with A = -27 c4 and
    B = -54 c6, and BSGS starts from what E(Q)[2] proves: its order m
    divides #E~(F_p), so the trace is p + 1 mod m.
    """
    if p == 2:
        a1, a2, a3, a4, a6 = E.ainvs
        pairs = ((x, y) for x in (0, 1) for y in (0, 1))
        return 1 + sum((y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0 for x, y in pairs)
    if p < BSGS_MIN_P:
        return p + 1 + _char_sum(E.b2 % p, E.b4 % p, E.b6 % p, p)
    return p + 1 - _trace_bsgs(-27 * E.c4 % p, -54 * E.c6 % p, p, _two_torsion_order(E.c4, E.c6), p + 1)


@cache
def _two_torsion_order(c4: int, c6: int) -> int:
    """Order 1, 2 or 4 of E(Q)[2]: one plus the number of integer roots X of
    X^3 - 27 c4 X - 54 c6, the points (X, 0) of order 2 on
    Y^2 = X^3 - 27 c4 X - 54 c6.  The cubic's discriminant is 2^8 3^12 disc,
    so at a good p >= 5 the roots stay distinct mod p."""
    return 1 + len(integer_roots([-54 * c6, -27 * c4, 0, 1]))


def _char_sum(b2: int, b4: int, b6: int, p: int) -> int:
    """Sum of chi(4x^3 + b2 x^2 + 2 b4 x + b6) over x in F_p, p odd: #E~(F_p)
    - p - 1 for the curve with these b-invariants."""
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, (p + 1) // 2):
        chi[x * x % p] = 1
    b4 *= 2
    return sum(chi[(((4 * x + b2) * x + b4) * x + b6) % p] for x in range(p))


# ---------------------------------------------------------------------------
# Shanks-Mestre baby-step giant-step.  Points are affine pairs mod p on
# y^2 = x^3 + a x + b, None is the origin; the group law never reads b.


def _add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _neg(P, p: int):
    return None if P is None else (P[0], -P[1] % p)


def _mul(k: int, P, a: int, p: int):
    """k P, left to right in Jacobian coordinates (X, Y, Z) = (x Z^2, y Z^3),
    Z = 0 the origin: doublings and mixed additions of P, one inversion."""
    if k < 0:
        k, P = -k, _neg(P, p)
    if not k or P is None:
        return None
    x, y = P
    X, Y, Z = x, y, 1
    for bit in bin(k)[3:]:
        YY = Y * Y % p  # doubling; Y = 0 (order 2) gives Z = 0
        S = 4 * X * YY % p
        ZZ = Z * Z % p
        M = (3 * X * X + a * ZZ * ZZ) % p
        Z = 2 * Y * Z % p
        X = (M * M - 2 * S) % p
        Y = (M * (S - X) - 8 * YY * YY) % p
        if bit == "0":
            continue
        if not Z:
            X, Y, Z = x, y, 1
            continue
        ZZ = Z * Z % p  # mixed addition of P
        H = (x * ZZ - X) % p
        r = (y * ZZ * Z - Y) % p
        if not H:  # the sum so far is P (r = 0) or -P
            D = None if r else _add(P, P, a, p)
            X, Y, Z = (*D, 1) if D else (1, 1, 0)
            continue
        HH = H * H % p
        HHH = H * HH
        V = X * HH
        X = (r * r - HHH - 2 * V) % p
        Y = (r * (V - X) - Y * HHH) % p
        Z = Z * H % p
    if not Z:
        return None
    w = pow(Z, -1, p)
    ww = w * w % p
    return X * ww % p, Y * ww * w % p


def _solutions(Q, R, count: int, a: int, p: int):
    """Every k in [0, count) with k R = Q, ascending.

    Baby steps j R, 1 <= j <= m, are stored by x; a giant step Q - c R that
    meets j R or -j R gives k = c + j or c - j, told apart by y.  When a baby
    step meets an x already stored or a point of order 2, R has order
    o <= 2m, the stored steps hold all of <R> up to sign, and the solutions
    are k0, k0 + o, ...  Otherwise o > 2m, so each giant window of 2m + 1
    values of k holds at most one solution.
    """
    if R is None:
        return range(count) if Q is None else range(0)
    m = math.isqrt(count // 2) + 1
    table: dict[int, tuple[int, int]] = {}
    x, y = rx, ry = R
    for j in range(1, m + 1):
        if j > 1:  # j R = (j - 1) R + R: a tangent at j = 2, then chords, since
            # an x equal to rx past j = 1 would have stopped the loop
            lam = ((y - ry) * pow(x - rx, -1, p) if j > 2 else (3 * x * x + a) * pow(2 * y, -1, p)) % p
            nx = (lam * lam - x - rx) % p
            x, y = nx, (lam * (x - nx) - y) % p
        hit = table.get(x)
        if hit is not None:  # j R = -(hit) R
            order = j + hit[0]
            break
        table[x] = (j, y)
        if y == 0:
            order = 2 * j
            break
    else:
        found = []
        S = (x, y)
        G = _add(Q, _neg(S, p), a, p)  # Q - m R
        step = _neg(_add(_add(S, S, a, p), R, a, p), p)  # -(2m + 1) R
        for c in range(m, count + m, 2 * m + 1):
            if c > m:  # G = Q - c R
                if G is None or step is None or G[0] == step[0]:
                    G = _add(G, step, a, p)
                else:
                    (gx, gy), (sx, sy) = G, step
                    lam = (sy - gy) * pow(sx - gx, -1, p) % p
                    nx = (lam * lam - gx - sx) % p
                    G = nx, (lam * (gx - nx) - gy) % p
            if G is None:
                found.append(c)
            elif (hit := table.get(G[0])) is not None:
                found.append(c + hit[0] if hit[1] == G[1] else c - hit[0])
        return [k for k in found if 0 <= k < count]
    if Q is None:
        k0 = 0
    elif (hit := table.get(Q[0])) is not None:
        k0 = hit[0] if hit[1] == Q[1] else -hit[0] % order
    else:
        return range(0)
    return range(k0, count, order)


def _trace_bsgs(A: int, B: int, p: int, m: int, r: int) -> int:
    """Trace t of y^2 = x^3 + A x + B over F_p, nonsingular, p > 229, given
    t = r (mod m).

    The traces still possible are t = first + step k for 0 <= k < count, at
    first those of the Hasse interval |t| <= 2 sqrt(p) with t = r (mod m).
    Points come from x = 0, 1, 2, ...: when f = x^3 + A x + B is nonzero,
    (x f, f^2) lies on y^2 = x^3 + A f^2 x + B f^3, which is the curve itself
    (order p + 1 - t) when f is a square and its quadratic twist (order
    p + 1 + t) when not.  Each point keeps the candidates whose group order
    kills it.  By Mestre's theorem one point of the curve or of its twist
    leaves a single candidate, so the loop ends, and the candidate left is
    the trace: the congruence only drops candidates that cannot be it.
    """
    bound = math.isqrt(4 * p)
    first, step = -bound + (r + bound) % m, m
    count = (bound - first) // m + 1
    for x in range(p):
        f = (x * (x * x + A) + B) % p
        if f == 0:
            continue
        s = 1 if pow(f, (p - 1) // 2, p) == 1 else -1
        a = A * f * f % p
        P = (x * f % p, f * f % p)
        # order(t) = p + 1 - s (first + step k) kills P iff k (s step) P = (p + 1 - s first) P
        ks = _solutions(_mul(p + 1 - s * first, P, a, p), _mul(s * step, P, a, p), count, a, p)
        if not ks:
            raise ArithmeticError(f"no trace in the Hasse interval fits at p = {p}: bad reduction?")
        first += step * ks[0]
        if len(ks) > 1:
            step *= ks[1] - ks[0]
        count = len(ks)
        if count == 1:
            return first
    raise ArithmeticError(f"the trace at p = {p} is not determined (is p > 229?)")


@cache
def ap(E: CurveModel, p: int) -> int:
    """Trace of Frobenius at p (E must be minimal at p); at a bad prime 1, -1
    or 0 by the reduction type (split, nonsplit, additive) tate_local finds."""
    if E.discriminant % p:  # a model is minimal at p when p does not divide disc
        return p + 1 - count_points(E, p)
    return _BAD_TRACE[tate_local(E, p).kind]


def _share_count(primes: int) -> int:
    """k for an_coefficients."""
    threading = sys.modules.get("threading")  # a fork copies only the calling thread
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, primes // MIN_SHARE, MAX_SHARES))


def _send_traces(M: CurveModel, share: list[int], w: int) -> None:
    """In a forked child: write the traces at share to the pipe end w and
    exit, with status 0 only if they were all written.  Never returns, so the
    child runs none of the caller's code and flushes none of its buffers."""
    code = 1
    try:
        with open(w, "wb") as pipe:
            pipe.write(marshal.dumps([p + 1 - count_points(M, p) for p in share]))
        code = 0
    finally:
        os._exit(code)


def _traces(M: CurveModel, primes: list[int]) -> list[int]:
    """[p + 1 - count_points(M, p) for p in primes], share primes[i::k]
    counted by child i for 0 < i < k."""
    k = _share_count(len(primes))
    children = []  # (share, pid, read end of its pipe)
    sent = {}
    try:
        for i in range(1, k):
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _send_traces(M, primes[i::k], w)
            except OSError:  # no process to spare: the shares left are counted here
                os.close(r)
                break
            finally:
                os.close(w)
            children.append((i, pid, r))
        traces = [0] * len(primes)
        traces[::k] = [p + 1 - count_points(M, p) for p in primes[::k]]
    finally:
        for i, pid, r in children:
            try:
                with open(r, "rb") as pipe:
                    data = pipe.read()
            finally:
                status = os.waitpid(pid, 0)[1]
            if status == 0:
                sent[i] = marshal.loads(data)
    for i in range(1, k):
        share = primes[i::k]
        got = sent.get(i, ())
        traces[i::k] = got if len(got) == len(share) else [p + 1 - count_points(M, p) for p in share]
    return traces


def an_coefficients(E: CurveModel, n_max: int) -> list[int]:
    """Dirichlet coefficients a_0..a_{n_max} (a_0 = 0 placeholder, a_1 = 1).

    One Hecke recursion (Cremona, Algorithms for Modular Elliptic Curves): a
    prime n reads its trace, else n = p m with p its least prime factor and
    a_n = a_p a_m - p a_{m/p}, the second term only when p | m and p is good.
    For n = p^k r, p not dividing r, that is a_{p^k} a_r; a_{p^k} = a_p^k at bad p.

    The traces come first: at a bad prime 1, -1 or 0 by the reduction type in
    conductor(M), at the good primes counted without ap's memo in k
    interleaved shares.  k is the number of available CPUs, capped by one
    share per MIN_SHARE primes and by MAX_SHARES, and 1 without os.fork or
    beside a second thread.  Share 0 is counted here and each other share by
    a forked child; a share whose child failed or sent a short result is
    counted again here, so an error is raised as at k = 1.  No child
    outlives the call.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    M = minimal_model(E)
    bad = {ld.p: _BAD_TRACE[ld.kind] for ld in conductor(M).local_data if ld.p <= n_max}
    a = [0] * (n_max + 1)
    a[1] = 1
    spf = smallest_prime_factors(n_max)
    good = [n for n in range(2, n_max + 1) if spf[n] == n and n not in bad]
    for p, t in zip(good, _traces(M, good)):
        a[p] = t
    for p, t in bad.items():
        a[p] = t
    for n in range(2, n_max + 1):
        p = spf[n]
        m = n // p
        if m == 1:
            continue
        if m % p or p in bad:
            a[n] = a[p] * a[m]
        else:
            a[n] = a[p] * a[m] - p * a[m // p]
    return a
