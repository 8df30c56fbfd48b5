"""Exact integer and rational arithmetic, and every polynomial root finder.

Primality is Miller-Rabin on the fewest bases proven for n's size (OEIS
A014233), deterministic below 3.317 * 10**24, and Baillie-PSW above it, to
which no counterexample is known.  Factorization is trial division below 2**10,
then that test on the cofactor; a composite cofactor r**k becomes k copies of
r, any other is split by Pollard-Brent rho (Brent, BIT 20, 1980).

Roots: real roots of a cubic in closed form, Newton-polished in float64;
integer roots of a squarefree polynomial by p-adic Newton lifting from one
good prime, as far as Fujiwara's bound on the roots' moduli (M. Fujiwara,
Tohoku Math. J. 10, 1916); the number of roots over F_p as
deg gcd(f, T^p - T) (Cohen, GTM 138, section 3.4).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache


class ZeroInput(ValueError):
    """An operation was applied at zero where it is undefined."""


class NotSquarefree(ValueError):
    """An argument that must be squarefree is not."""


# ---------------------------------------------------------------------------
# primes

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_ROWS = (  # (bound, k): the first k bases prove primality below bound
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),  # Sorenson-Webster, Math. Comp. 86, 2017
    (3_317_044_064_679_887_385_961_981, 13),
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:  # settles every n < 43**2
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    # above the last row: Baillie-PSW, base 2 and then a Lucas test
    for a in _MR_BASES[: next((k for bound, k in _MR_ROWS if n < bound), 1)]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_ROWS[-1][0] or _strong_lucas_probable_prime(n)


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd n > 41 (Baillie-Wagstaff, Math. Comp. 35, 1980):
    P = 1, Q = (1 - D)/4, D the first of 5, -7, 9, ... with (D/n) = -1."""
    if math.isqrt(n) ** 2 == n:  # no such D exists
        return False
    D = next(D for D in (k if k % 4 == 1 else -k for k in itertools.count(5, 2)) if kronecker(D, n) != 1)
    Q = (1 - D) // 4
    if math.gcd(n, D * Q) != 1:
        return False
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2**s with d odd
    U, V, Qk = 1, 1, Q  # U_k, V_k, Q**k mod n for k the leading bits of d
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":  # k + 1; halving mod odd n adds n to an odd value
            U, V = (U + V) % n, (D * U + V) % n
            U, V, Qk = (U + n * (U & 1)) // 2, (V + n * (V & 1)) // 2, Qk * Q % n
    for _ in range(s):  # U_d = 0, or V_(d 2**r) = 0 for some r < s
        if U == 0 or V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


@lru_cache(maxsize=8)
def sieve_primes(limit: int) -> tuple[int, ...]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return ()
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
    return tuple(i for i in range(limit + 1) if flags[i])


def smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] = least prime factor of n for 2 <= n <= limit (spf[0:2] = [0, 1])."""
    spf = list(range(limit + 1))
    for p in reversed(sieve_primes(math.isqrt(limit))):  # smaller primes overwrite
        spf[p * p :: p] = [p] * len(range(p * p, limit + 1, p))
    return spf


# ---------------------------------------------------------------------------
# factorization

_TRIAL_BITS = 10  # trial division below 2**10; the limit was set by measurement
_TRIAL_PRIMES = sieve_primes(1 << _TRIAL_BITS)


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor |n| into sorted (prime, exponent) pairs.

    Raises ZeroInput for n == 0.  The sign is the caller's business.
    """
    if n == 0:
        raise ZeroInput("cannot factor 0")
    n = abs(n)
    out: list[tuple[int, int]] = []
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    cofactors = [n] if n > 1 else []
    large: dict[int, int] = {}
    while cofactors:
        m = cofactors.pop()
        if is_prime(m):
            large[m] = large.get(m, 0) + 1
            continue
        # every prime factor of m exceeds 2**_TRIAL_BITS, so m = r**k bounds k
        for k in sieve_primes(m.bit_length() // _TRIAL_BITS):
            r = iroot(m, k)
            if r**k == m:
                cofactors += [r] * k
                break
        else:
            f = _pollard_brent(m)
            cofactors += [f, m // f]
    return sorted(out + list(large.items()))


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, in exact integer arithmetic."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # at least the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _pollard_brent(n: int) -> int:
    """A proper factor of a composite n that has no small prime factor."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batched product overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"Pollard-Brent found no factor of {n}")


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (requires n >= 1)."""
    if n < 1:
        raise ValueError("is_squarefree expects n >= 1")
    if n == 1:
        return True
    return all(e == 1 for _, e in factorize(n))


def prime_divisors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)] if abs(n) != 1 else []


# ---------------------------------------------------------------------------
# valuations and symbols


def valuation(q, p: int) -> int:
    """p-adic valuation of a nonzero rational (ZeroInput at 0); p must be >= 2."""
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got p = {p}")
    if isinstance(q, int):  # every caller in the curve layers passes ints
        num, den = q, 1
    else:
        q = Fraction(q)
        num, den = q.numerator, q.denominator
    if num == 0:
        raise ZeroInput("valuation of 0 is +infinity; callers must branch")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), completely multiplicative in n."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    # factor out 2 from n; (a/2) = 0, +1, -1 per a mod 8
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if a % 2 == 0:
            return 0
        if v % 2 and a % 8 in (3, 5):
            k = -k
    a %= n
    while a:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 and n % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


# ---------------------------------------------------------------------------
# quadratic fields


def fundamental_discriminant(d: int) -> int:
    """The discriminant D of Q(sqrt(d)) for squarefree d > 1: d if d = 1 mod 4,
    else 4 d.  The character chi_D has conductor exponent v_p(D) at p."""
    if d <= 1:
        raise NotSquarefree(f"need a squarefree integer > 1, got {d}")
    if not is_squarefree(d):
        raise NotSquarefree(f"{d} is not squarefree")
    return d if d % 4 == 1 else 4 * d


# ---------------------------------------------------------------------------
# roots of polynomials over R and over Z


def _depressed_cubic_roots(p, q, disc) -> list[float]:
    """Closed-form real roots of t^3 + p t + q, ascending, from exact p, q and
    disc = -4 p^3 - 27 q^2: three with multiplicity (Viete) when disc >= 0,
    else one (Cardano, in the form without cancellation)."""
    if disc < 0:
        w = -q / 2 - math.copysign(math.sqrt(-disc / 108), q)
        u = math.copysign(abs(w) ** (1 / 3), w)
        return [u - p / (3 * u)]
    if p == 0:
        return [0.0, 0.0, 0.0]
    m = 2 * math.sqrt(-p / 3)
    phi = math.acos(max(-1.0, min(1.0, 3 * q / (p * m)))) / 3
    return sorted(m * math.cos(phi - 2 * math.pi * k / 3) for k in range(3))


def real_cubic_roots(a, b, c, d) -> list[float]:
    """Real roots of a x^3 + b x^2 + c x + d (exact rationals, a != 0), descending:
    three with multiplicity when the exact discriminant is >= 0, else one.
    Closed-form seeds are Newton-polished in float64."""
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    p = (3 * a * c - b * b) / (3 * a * a)
    q = (2 * b**3 - 9 * a * b * c + 27 * a * a * d) / (27 * a**3)
    fa, fb, fc, fd = float(a), float(b), float(c), float(d)
    roots = []
    for t in _depressed_cubic_roots(p, q, -4 * p**3 - 27 * q * q):
        x = t - float(b / (3 * a))
        for _ in range(60):
            slope = (3.0 * fa * x + 2.0 * fb) * x + fc
            step = (((fa * x + fb) * x + fc) * x + fd) / slope if slope else 0.0
            x -= step
            if abs(step) <= 1e-17 * (1.0 + abs(x)):
                break
        roots.append(x)
    return sorted(roots, reverse=True)


def integer_roots(f: list[int]) -> list[int]:
    """Integer roots, ascending, of a squarefree integer polynomial (ascending
    coefficients), each checked by substitution.

    Roots mod the first prime p that keeps f squarefree are lifted p-adically
    by Newton's method past twice _root_bound(f).  Raises ArithmeticError on
    non-squarefree f, once the failed primes multiply past lead(f) times
    Mahler's discriminant bound d^d |f|_2^(2d-2).
    """
    f = pol_trim(list(f))
    if not f:
        raise ArithmeticError("the zero polynomial is not squarefree")
    d = len(f) - 1
    if d == 0:
        return []
    df = [i * c for i, c in enumerate(f)][1:]
    limit = abs(f[-1]) * d**d * sum(c * c for c in f) ** (d - 1)
    failed = 1
    for p in filter(is_prime, itertools.count(2)):
        fp = pol_trim([c % p for c in f])
        if len(fp) == len(f) and len(pol_gcd(fp, pol_trim([c % p for c in df]), p)) == 1:
            break
        failed *= p
        if failed > limit:
            raise ArithmeticError(f"polynomial {f} is not squarefree")
    roots = [x for x in range(p) if _value(fp, x) % p == 0]
    bound = _root_bound(f)
    m = p
    while m <= 2 * bound:
        m *= m
        roots = [(r - _value(f, r) * pow(_value(df, r), -1, m)) % m for r in roots]
    return sorted(r for r in (r - m if 2 * r > m else r for r in roots) if _value(f, r) == 0)


def _root_bound(f: list[int]) -> int:
    """An integer above |z| for every complex root z of f (ascending
    coefficients, degree >= 1).  By Fujiwara, |z| <= 2 max_k |a_(d-k) / a_d|^(1/k);
    iroot(ceil(|a_(d-k) / a_d|), k) + 1 exceeds each term's k-th root."""
    lead = abs(f[-1])
    return 2 * max(iroot(-(-abs(c) // lead), k) + 1 for k, c in enumerate(reversed(f[:-1]), 1))


def _value(f: list[int], x: int) -> int:
    """f(x) by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


# ---------------------------------------------------------------------------
# polynomials over Z and F_p: dense, ascending coefficients


def pol_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def pol_rem(f: list[int], mod: list[int], p: int) -> list[int]:
    f = pol_trim([c % p for c in f])
    inv_lead = pow(mod[-1], p - 2, p)
    while len(f) >= len(mod):
        coef = f[-1] * inv_lead % p
        shift = len(f) - len(mod)
        for i, mi in enumerate(mod):
            f[shift + i] = (f[shift + i] - coef * mi) % p
        pol_trim(f)
    return f


def pol_mul(f: list[int], g: list[int]) -> list[int]:
    """Product in Z[T]."""
    prod = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            prod[i + j] += fi * gj
    return prod


def pol_powmod(base: list[int], exp: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = pol_rem(base, mod, p)
    while exp:
        if exp & 1:
            result = pol_rem(pol_mul(result, base), mod, p)
        base = pol_rem(pol_mul(base, base), mod, p)
        exp >>= 1
    return result


def pol_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    f, g = pol_trim(f[:]), pol_trim(g[:])
    while g:
        f, g = g, pol_rem(f, g, p)
    return f


def pol_fixed_degree(f: list[int], xq: list[int], p: int) -> int:
    """deg gcd(f, T^q - T) mod p, given xq = T^q mod f: for q = p, the number
    of distinct roots of f in F_p."""
    g = xq + [0] * (2 - len(xq))
    g[1] -= 1
    return len(pol_gcd(f, g, p)) - 1


def pol_root_count(f: list[int], p: int) -> int:
    """Number of distinct roots in F_p of f; all of F_p for f = 0 mod p.

    A quadratic a T^2 + b T + c is answered by the quadratic character of
    b^2 - 4ac (Euler's criterion), or at p = 2 by its values at 0 and 1;
    other degrees by deg gcd(f, T^p - T), from T^p mod f."""
    f = pol_trim([c % p for c in f])
    if len(f) <= 1:
        return 0 if f else p
    if len(f) == 3:
        c, b, a = f
        if p == 2:
            return (c == 0) + ((a + b + c) % 2 == 0)
        disc = (b * b - 4 * a * c) % p
        return 1 if disc == 0 else 2 if pow(disc, p >> 1, p) == 1 else 0
    return pol_fixed_degree(f, pol_powmod([0, 1], p, f, p), p)
