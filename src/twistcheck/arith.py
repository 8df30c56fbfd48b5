"""Exact integer and rational arithmetic helpers.

Factorization is trial division to 10**6 behind a 2/3/5 wheel, then a
Miller-Rabin test (deterministic below 3.3 * 10**24) on the cofactor left
over, then Pollard-Brent rho (Brent, BIT 20, 1980) to split a composite
cofactor, whose pieces go through the same test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class ZeroInput(ValueError):
    """An operation was applied at zero where it is undefined."""


class NotSquarefree(ValueError):
    """An argument that must be squarefree is not."""


# ---------------------------------------------------------------------------
# primes

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic < 3.3e24


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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

_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor |n| into sorted (prime, exponent) pairs.

    Raises ZeroInput for n == 0.  The sign is the caller's business.
    """
    if n == 0:
        raise ZeroInput("cannot factor 0")
    n = abs(n)
    out: list[tuple[int, int]] = []
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    p, i = 7, 0
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += _WHEEL[i]
        i = (i + 1) % 8
        if p > 1_000_000 and n > 1:
            break  # hand the (rare, large) cofactor to the code below
    cofactors = [n] if n > 1 else []
    large: dict[int, int] = {}
    while cofactors:
        m = cofactors.pop()
        if is_prime(m):
            large[m] = large.get(m, 0) + 1
        else:
            f = _pollard_brent(m)
            cofactors += [f, m // f]
    out += large.items()
    out.sort()
    return out


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


def divisors_from_factorization(fac: list[tuple[int, int]]) -> list[int]:
    divs = [1]
    for p, e in fac:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# valuations and symbols


def valuation(q, p: int) -> int:
    """p-adic valuation of a nonzero rational (ZeroInput at 0)."""
    q = Fraction(q)
    if q == 0:
        raise ZeroInput("valuation of 0 is +infinity; callers must branch")
    v = 0
    num, den = q.numerator, q.denominator
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
# quadratic field data


@dataclass(frozen=True)
class QuadFieldData:
    """Discriminant and character-conductor exponents of Q(sqrt(d)), d > 1 squarefree."""

    d: int
    D: int
    c2: int  # exponent of 2 in the conductor of the quadratic character

    def c(self, p: int) -> int:
        """Conductor exponent of the quadratic character at the prime p."""
        if p == 2:
            return self.c2
        return 1 if self.d % p == 0 else 0

    def ramified_primes(self) -> list[int]:
        ps = prime_divisors(self.D)
        return ps


def quad_field_data(d: int) -> QuadFieldData:
    if d <= 1:
        raise NotSquarefree(f"need a squarefree integer > 1, got {d}")
    if not is_squarefree(d):
        raise NotSquarefree(f"{d} is not squarefree")
    if d % 4 == 1:
        return QuadFieldData(d, d, 0)
    if d % 4 == 2:
        return QuadFieldData(d, 4 * d, 3)
    return QuadFieldData(d, 4 * d, 2)
