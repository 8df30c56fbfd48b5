"""Seeded inputs for the three workloads.

Everything here is pure Python and independent of twistcheck: the program
only ever sees the generated inputs.  The same seed gives the same inputs.
Inputs are drawn so that their cost is about the same for every seed: a
workload's figures should move when the program changes, not when the seed
does.
"""

from __future__ import annotations

import math
import random

import oracle

WORKLOADS = ("golden_tables", "lratio_ladder", "crosscheck")

PRIMES_TO_100 = [p for p in range(2, 101) if oracle.is_prime(p)]

# lratio_ladder: closed-form conductor bands [T, 1.1 T].  The series length
# grows with sqrt(N), so the cost of a twist is set by its band.  Each round
# takes one twist from each rung: the two lower rungs get one family each (the
# seed picks which), the top rung either family.
LADDER_RUNGS = (2.4e6, 8.0e6, 2.4e7)
LADDER_D_RANGE = (250, 1100)

# crosscheck: random models with coefficients in [-300, 300], drawn in quotas
# per class of predicted cost, so every seed's table costs the same to
# recompute.  Most rows are typical cheap ones, so the median operation sits
# inside one class; the dearest class is rows whose trial division runs to
# the 10^6 limit, which set the tail.
RANDOM_COEFF = 300
RANDOM_QUOTAS = ((0.004, 0.010, 60), (0.010, 0.050, 10), (0.050, 0.150, 6), (0.150, math.inf, 12))
# Predicted seconds = per trial-division step, per scanned torsion divisor,
# and a fixed part; fitted on 150 random models on the reference machine.
_COST_PER_STEP, _COST_PER_DIVISOR, _COST_FIXED = 5.0e-8, 7.7e-5, 1.9e-3
# Twists per family: for each d mod 4 in {1, 3} and each number of prime
# factors in {1, 2}, two values of d coprime to 6 * level.
TWIST_ROWS_PER_CLASS = 2
# Rows that hit the named arith.factorize fault: trial division to 10^6 leaves
# a composite cofactor of the discriminant.  They do not depend on the seed.
FAULT_ROWS = ((0, 0, 0, -2955086, -798438074), (240, -73, 148, 207, 266))


def make(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "golden_tables":
        return golden_tables(rng)
    if workload == "lratio_ladder":
        return lratio_ladder(rng)
    if workload == "crosscheck":
        return crosscheck(rng)
    raise ValueError(f"unknown workload {workload!r}")


def golden_tables(rng: random.Random) -> dict:
    """Both tables, then a deep certificate for every row and p <= 100 in a
    seeded order."""
    stream = [
        (oracle.TABLE_FAMILY[which], d, p)
        for which, table in oracle.TABLES.items()
        for d in table
        for p in PRIMES_TO_100
    ]
    rng.shuffle(stream)
    return {"tables": [1, 2], "certificates": stream}


def ladder_candidates(rung: float) -> list[tuple[int, int]]:
    """(family, d) with gcd(D, level) = 1 (so chi_D(-N) gives the root
    number) and the twist's conductor in [rung, 1.1 rung]."""
    lo, hi = LADDER_D_RANGE
    out = []
    for fam in (15, 21):
        for d in range(lo, hi + 1):
            D = oracle.fundamental_disc(d)
            if math.gcd(D, fam) != 1 or not oracle.squarefree(d):
                continue
            if rung <= fam * D * D <= 1.1 * rung:
                out.append((fam, d))
    return out


def lratio_ladder(rng: random.Random) -> dict:
    low, mid, top = (ladder_candidates(r) for r in LADDER_RUNGS)
    fams = rng.sample((15, 21), 2)
    twists = [rng.choice([c for c in rung if c[0] == fam]) for rung, fam in zip((low, mid), fams)]
    twists.append(rng.choice(top))
    rng.shuffle(twists)
    return {"twists": twists}


def _loop_extent(n: int) -> int:
    """How far twistcheck's trial division runs on n: past the second-largest
    prime factor and the square root of the largest, capped at 10^6."""
    fac = {q: e for q, e in oracle.factor(n).items() if q > 5}
    if not fac:
        return 0
    qs = sorted(fac)
    if fac[qs[-1]] >= 2:
        ext = qs[-1]
    else:
        ext = max(qs[-2] if len(qs) > 1 else 0, math.isqrt(qs[-1]))
    return min(ext, oracle.TRIAL_LIMIT)


def predicted_cost(a) -> float | None:
    """Predicted seconds for conductor + Tamagawa + torsion on the model a, or
    None when trial division cannot factor one of c4, c6 or the discriminant.

    The discriminant is factored three times (minimal model, conductor,
    torsion); the torsion search tries every divisor of its square part."""
    c4, c6, disc = oracle.invariants(a)[4:]
    values = [v for v in (c4, c6) if v not in (0, 1, -1)]
    if any(oracle.trial_division_fails(oracle.trial_division_cofactor(v)) for v in values + [disc]):
        return None
    steps = sum(_loop_extent(v) for v in values) + 3 * _loop_extent(disc)
    divisors = 1
    for _, e in oracle.factor(6**12 * disc).items():
        divisors *= e // 2 + 1
    return _COST_PER_STEP * steps + _COST_PER_DIVISOR * divisors + _COST_FIXED


def _random_rows(rng: random.Random) -> list[tuple[int, ...]]:
    need = [quota for _, _, quota in RANDOM_QUOTAS]
    rows = []
    while any(need):
        a = tuple(rng.randint(-RANDOM_COEFF, RANDOM_COEFF) for _ in range(5))
        if oracle.invariants(a)[6] == 0:
            continue
        cost = predicted_cost(a)
        if cost is None:
            continue  # would hit the factorize fault on some seeds only
        for k, (lo, hi, _) in enumerate(RANDOM_QUOTAS):
            if lo <= cost < hi and need[k]:
                need[k] -= 1
                rows.append(a)
    return rows


def _twist_rows(rng: random.Random) -> list[tuple[int, int]]:
    lo, hi = LADDER_D_RANGE
    out = []
    for fam in (15, 21):
        for residue in (1, 3):
            for omega in (1, 2):
                pool = [
                    d
                    for d in range(lo, hi + 1)
                    if d % 4 == residue
                    and math.gcd(d, 6 * fam) == 1
                    and oracle.squarefree(d)
                    and len(oracle.factor(d)) == omega
                ]
                out += [(fam, d) for d in rng.sample(pool, TWIST_ROWS_PER_CLASS)]
    return out


def crosscheck(rng: random.Random) -> dict:
    """A curve-table text: random models, twists of both families given by
    their short models, the fixed fault rows, plus a comment, a blank line
    and one malformed record that the parser must report by line."""
    records = [{"kind": "random", "ainvs": a, "conductor": 0} for a in _random_rows(rng)]
    for fam, d in _twist_rows(rng):
        N = math.prod(p**e for p, e in oracle.twist_conductor(fam, d).items())
        a = oracle.twist_short_model(fam, d)
        records.append({"kind": "twist", "family": fam, "d": d, "ainvs": a, "conductor": N})
    records += [{"kind": "fault", "ainvs": a, "conductor": 0} for a in FAULT_ROWS]
    rng.shuffle(records)
    malformed_at = rng.randrange(len(records))
    lines = ["# seeded cross-check table: conductor class index [a1,a2,a3,a4,a6]", ""]
    for i, rec in enumerate(records):
        if i == malformed_at:
            lines.append("11 a 1 [0,-1,1,-10]")
            malformed_line = len(lines)
        ainvs = ",".join(map(str, rec["ainvs"]))
        lines.append(f"{rec['conductor']} {rec['kind'][0]} {i} [{ainvs}]")
        rec["line"] = len(lines)
    return {"text": "\n".join(lines) + "\n", "rows": records, "malformed_lines": [malformed_line]}
