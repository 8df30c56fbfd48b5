"""Checks on twistcheck's outputs, computed apart from the program.

Nothing here imports twistcheck or numpy.  Each ``check_*`` function takes
plain values (ints, strings, tuples) that the worker extracted from the
program's results and returns a list of problems; an empty list means the
result passed.  ``test_oracle.py`` feeds each checker a corrupted result.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

BASE_AINVS = {15: (1, 1, 1, -10, -10), 21: (1, 0, 0, -4, -1)}
BASE_PRIMES = {15: (2, 3, 5), 21: (2, 3, 7)}

# Published twist tables: d -> (Cremona label, L/Omega, excluded primes).
# The conductor of each row is the number that starts its label.  An
# excluded set of None stands for "none" (the L-value vanishes).
TABLES = {
    1: {
        2: ("960g3", 2, (2, 3, 5)),
        3: ("720h3", 0, None),
        6: ("2880bd3", 4, (2, 3, 5)),
        7: ("11760bq3", 0, None),
        10: ("4800b3", 0, None),
        11: ("29040dg3", 0, None),
        13: ("2535a3", 0, None),
        14: ("47040hg3", 0, None),
        17: ("4335d3", 2, (2, 3, 5, 17)),
        19: ("86640cm3", 8, (2, 3, 5, 19)),
        21: ("2205j3", 4, (2, 3, 5, 7)),
        22: ("116160ez3", 0, None),
        23: ("126960cj3", 8, (2, 3, 5, 23)),
        26: ("162240ez4", 0, None),
        29: ("12615f3", 0, None),
        31: ("230640bg4", 8, (2, 3, 5, 31)),
        33: ("5445g3", 0, None),
        34: ("277440do4", 0, None),
        35: ("58800it3", 16, (2, 3, 5, 7)),
        37: ("20535a3", 0, None),
        38: ("346560gv4", 0, None),
        39: ("121680en3", 16, (2, 3, 5, 13)),
        41: ("25215h3", 0, None),
    },
    2: {
        2: ("1344a2", 0, None),
        3: ("1008k2", 2, (2, 3, 7)),
        5: ("525b2", 1, (2, 3, 5, 7)),
        6: ("4032bm2", 2, (2, 3, 7)),
        10: ("33600dd2", 0, None),
        11: ("40656bk2", 0, None),
        13: ("3549c2", 0, None),
        15: ("25200dx2", 0, None),
        17: ("6069b2", 1, (2, 3, 7, 17)),
        19: ("121296dk2", 0, None),
        22: ("162624bj2", 8, (2, 3, 7, 11)),
        23: ("177744ca2", 0, None),
        26: ("227136ho2", 4, (2, 3, 7, 13)),
        29: ("17661a2", 0, None),
        30: ("100800me2", 0, None),
        31: ("322896cn2", 0, None),
        33: ("7623p2", 2, (2, 3, 7, 11)),
        34: ("388416fo2", 0, None),
        37: ("28749e2", 8, (2, 3, 7, 37)),
        38: ("485184dx2", 4, (2, 3, 7, 19)),
        39: ("170352t2", 0, None),
        # Erratum: the source prints the conductor as 2^4*3*7*43^2; the label
        # 35301e2 gives 3*7*41^2, which is also the twist's conductor.
        41: ("35301e2", 1, (2, 3, 7, 41)),
    },
}
TABLE_FAMILY = {1: 15, 2: 21}

# m_p (number of components of the special fibre) for each Kodaira symbol
# without a subscript; I_n has n and I_n* has n + 5.
_COMPONENTS = {"I0": 1, "II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}
# Tamagawa numbers each Kodaira symbol allows.
_TAMAGAWA = {"I0": {1}, "I0*": {1, 2, 4}, "II": {1}, "III": {2}, "IV": {1, 3}, "IV*": {1, 3}, "III*": {2}, "II*": {1}}
MAZUR_ORDERS = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16}

TRIAL_LIMIT = 1_000_000  # twistcheck's arith.factorize trial-divides up to here


# ---------------------------------------------------------------------------
# integer arithmetic


def invariants(a):
    """(b2, b4, b6, b8, c4, c6, disc) of an integral model."""
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


def vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 16 prime bases (exact far beyond 10^30)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
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


def _brent(n: int, rng: random.Random) -> int:
    """A nontrivial factor of the odd composite n (Pollard-Brent rho)."""
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 64
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| (n != 0) by trial division to 1000, then rho."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in range(2, 1000):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    rng = random.Random(n)
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            g = _brent(m, rng)
            stack += [g, m // g]
    return out


def trial_division_cofactor(n: int) -> int:
    """What is left of |n| once every prime factor below TRIAL_LIMIT is removed."""
    out = 1
    for q, e in factor(n).items():
        if q > TRIAL_LIMIT:
            out *= q**e
    return out


def trial_division_fails(cofactor: int) -> bool:
    """True when a trial-division cofactor is neither 1, a prime nor a prime
    square, which twistcheck cannot factor."""
    root = math.isqrt(cofactor)
    return cofactor > 1 and not is_prime(cofactor) and not (root * root == cofactor and is_prime(root))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for e in factor(n).values())


def fundamental_disc(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def twist_conductor(level: int, d: int) -> dict[int, int]:
    """Conductor of the twist by squarefree d > 1 of a curve of squarefree odd
    level: exponent 2 at odd p | d, 2 * v_2(D) at 2 | D, and at p | level
    exponent 1, raised to 2 when p | d."""
    D = fundamental_disc(d)
    exps = {p: 1 for p in factor(level)}
    for p in factor(D):
        exps[p] = 2 * vp(D, p) if p == 2 else 2
    return dict(sorted(exps.items()))


def twist_root_number(level: int, d: int) -> int | None:
    """w(E_d) = w(E) * chi_D(-N) when gcd(D, N) = 1; both base curves have
    w = +1, and chi_D(-1) = +1 for D > 0.  None when D and N share a prime."""
    D = fundamental_disc(d)
    if math.gcd(D, level) != 1:
        return None
    return kronecker(D, level)


def twist_short_model(fam: int, d: int) -> tuple[int, ...]:
    """y^2 = x^3 - 27 c4 d^2 x - 54 c6 d^3: the twist by d, good at p >= 5, p
    outside d and the level."""
    c4, c6 = invariants(BASE_AINVS[fam])[4:6]
    return (0, 0, 0, -27 * c4 * d * d, -54 * c6 * d**3)


@lru_cache(maxsize=4096)
def naive_count(a, p: int) -> int:
    """#E(F_p) at an odd prime p of good reduction of the model a, counted
    with Euler's criterion on 4x^3 + b2 x^2 + 2 b4 x + b6."""
    b2, b4, b6 = invariants(a)[:3]
    total = p + 1
    half = (p - 1) // 2
    for x in range(p):
        g = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
        if g:
            total += 1 if pow(g, half, p) == 1 else -1
    return total


def small_good_primes(a, count: int = 6) -> list[int]:
    """The first `count` primes 3 <= p < 200 not dividing the discriminant."""
    disc = invariants(a)[6]
    out = [p for p in range(3, 200) if is_prime(p) and disc % p][:count]
    return out


def components(kodaira: str) -> int:
    if kodaira in _COMPONENTS:
        return _COMPONENTS[kodaira]
    if kodaira.startswith("I") and kodaira.endswith("*"):
        return int(kodaira[1:-1]) + 5
    return int(kodaira[1:])




def label_conductor(label: str) -> int:
    """The conductor a Cremona label starts with ("960g3" -> 960)."""
    return int(label[: len(label) - len(label.lstrip("0123456789"))])


# ---------------------------------------------------------------------------
# checkers


def check_table(which: int, rows) -> list[str]:
    """rows: (d, conductor factorization, L/Omega, excluded primes or None),
    as the program reproduced them, against the transcription."""
    table = TABLES[which]
    problems = []
    if sorted(r[0] for r in rows) != sorted(table):
        problems.append(f"table {which}: rows for d = {[r[0] for r in rows]}")
    for d, factors, ratio, excluded in rows:
        if d not in table:
            continue
        label, want_ratio, want_excluded = table[d]
        want = tuple(sorted(factor(label_conductor(label)).items()))
        if tuple(map(tuple, factors)) != want:
            problems.append(f"table {which} d={d}: conductor {factors}, label {label} gives {want}")
        if Fraction(ratio) != want_ratio:
            problems.append(f"table {which} d={d}: L/Omega {ratio}, published {want_ratio}")
        got = None if excluded is None else tuple(sorted(excluded))
        if got != want_excluded:
            problems.append(f"table {which} d={d}: excluded {got}, published {want_excluded}")
    return problems


def check_twist_conductor(fam: int, d: int, factors) -> list[str]:
    want = tuple(twist_conductor(fam, d).items())
    if tuple(map(tuple, factors)) != want:
        return [f"X{fam} d={d}: conductor {factors}, closed form {want}"]
    return []


def check_root_number(fam: int, d: int, root_number: int, ratio) -> list[str]:
    """Root number against chi_D(-N); a vanishing sign forces L/Omega = 0, and
    central twisted L-values are never negative."""
    problems = []
    want = twist_root_number(fam, d)
    if want is not None and root_number != want:
        problems.append(f"X{fam} d={d}: root number {root_number}, chi_D(-N) = {want}")
    if root_number == -1 and Fraction(ratio) != 0:
        problems.append(f"X{fam} d={d}: root number -1 but L/Omega = {ratio}")
    if Fraction(ratio) < 0:
        problems.append(f"X{fam} d={d}: negative L/Omega {ratio}")
    return problems


def check_ogg_saito(local_data) -> list[str]:
    """local_data: (p, kodaira, f, c, v_p(disc_min)); Ogg-Saito says
    v_p(disc_min) = f_p + m_p - 1."""
    problems = []
    for p, kodaira, f, _c, v in local_data:
        m = components(kodaira)
        if v != f + m - 1:
            problems.append(f"p={p}: {kodaira} with f={f} needs v_p(disc)={f + m - 1}, got {v}")
    return problems


def check_local_data(ainvs, min_ainvs, local_data, N: int, tamagawa: int | None = None) -> list[str]:
    """The minimal model is the input curve, its local data cover exactly the
    primes of its discriminant with the right valuations, N is the product of
    p^f_p, and each Tamagawa number is one its Kodaira symbol allows."""
    problems = []
    _, _, _, _, c4, c6, disc = invariants(ainvs)
    _, _, _, _, mc4, mc6, mdisc = invariants(min_ainvs)
    ratio = Fraction(disc, mdisc)
    u = round(ratio ** (1 / 12)) if ratio > 0 else 0
    if u < 1 or u**12 != ratio or mc4 * u**4 != c4 or mc6 * u**6 != c6:
        problems.append(f"minimal model {min_ainvs} is not a rescaling of {ainvs}")
    primes = tuple(sorted(factor(mdisc)))
    if tuple(ld[0] for ld in local_data) != primes:
        problems.append(f"local data at {[ld[0] for ld in local_data]}, disc primes {primes}")
    product_N, product_c = 1, 1
    for p, kodaira, f, c, v in local_data:
        product_N *= p**f
        product_c *= c
        if v != vp(mdisc, p):
            problems.append(f"p={p}: v_p(disc) {v}, expected {vp(mdisc, p)}")
        allowed = _TAMAGAWA.get(kodaira)
        if allowed is None:
            n = components(kodaira) - (5 if kodaira.endswith("*") else 0)
            allowed = {2, 4} if kodaira.endswith("*") else ({1, 2, n} if n else {1})
        if c not in allowed:
            problems.append(f"p={p}: Tamagawa number {c} impossible for {kodaira}")
    if product_N != N:
        problems.append(f"conductor {N}, local exponents give {product_N}")
    if tamagawa is not None and tamagawa != product_c:
        problems.append(f"Tamagawa product {tamagawa}, local numbers give {product_c}")
    return problems


def check_torsion(ainvs, order: int) -> list[str]:
    """The torsion order is one Mazur allows and divides #E(F_p) at small good
    odd primes (reduction is injective on torsion there)."""
    if order not in MAZUR_ORDERS:
        return [f"torsion order {order} is not a rational torsion order"]
    for p in small_good_primes(ainvs):
        count = naive_count(tuple(ainvs), p)
        if count % order:
            return [f"torsion order {order} does not divide #E(F_{p}) = {count}"]
    return []


def check_deep_certificate(fam: int, d: int, p: int, verdict: str, path: str, conditions) -> list[str]:
    """conditions: (name, evidence, passed).  The shallow verdict applies
    exactly off the published excluded set; on the deep path a_p comes from a
    naive count on the short model of the twist."""
    which = 1 if fam == 15 else 2
    _, ratio, excluded = TABLES[which][d]
    problems = []
    if (path != "n/a") != (excluded is not None and p not in excluded):
        problems.append(f"X{fam} d={d} p={p}: shallow verdict wrong (path {path})")
    if path == "n/a":
        if verdict == "Applies":
            problems.append(f"X{fam} d={d} p={p}: Applies without a deep path")
        return problems
    model = twist_short_model(fam, d)
    count = naive_count(model, p)
    a_p = p + 1 - count
    want_path = "ordinary" if a_p % p else "supersingular"
    if path != want_path:
        problems.append(f"X{fam} d={d} p={p}: path {path}, a_p = {a_p} gives {want_path}")
    for name, evidence, passed in conditions:
        if name in ("ordinary_at_p", "supersingular_trace_zero") and evidence["a_p"] != a_p:
            problems.append(f"X{fam} d={d} p={p}: a_p {evidence['a_p']}, naive count gives {a_p}")
        elif name == "reduction_count_prime_to_p" and (
            evidence["count"] != count or passed != (count % p != 0)
        ):
            problems.append(f"X{fam} d={d} p={p}: #E(F_p) {evidence['count']}, naive {count}")
        elif name == "l_ratio_p_unit" and Fraction(evidence["ratio"]) != ratio:
            problems.append(f"X{fam} d={d} p={p}: L/Omega {evidence['ratio']}, published {ratio}")
        elif name == "torsion_prime_to_p":
            problems += check_torsion(model, evidence["order"])
    return problems


def check_factorize_fault(ainvs, error: str) -> list[str]:
    """A failed row must be the known trial-division fault: the reported
    cofactor is what trial division leaves of c4, c6 or the discriminant,
    and it is neither a prime nor a prime square."""
    prefix, suffix = "ValueError: cofactor ", " out of reach for trial division"
    if not (error.startswith(prefix) and error.endswith(suffix)):
        return [f"{list(ainvs)}: unexpected failure {error}"]
    cofactor = int(error[len(prefix) : -len(suffix)])
    values = [v for v in invariants(ainvs)[4:] if v not in (0, 1, -1)]
    if not trial_division_fails(cofactor) or cofactor not in map(trial_division_cofactor, values):
        return [f"{list(ainvs)}: cofactor {cofactor} is not an unfactorable trial-division cofactor"]
    return []
