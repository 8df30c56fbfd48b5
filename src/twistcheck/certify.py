"""Hypothesis certificates for the two twist families.

check_theorem evaluates the headline condition list for a (family, d, p)
triple; deep_certificate additionally verifies the per-prime conditions that
the headline statement rests on, branching on ordinary vs supersingular
reduction.  Failures are recorded as data, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .arith import is_prime, is_squarefree, prime_divisors, sieve_primes, valuation
from .curves import CurveModel, Family, base_curve, quadratic_twist
from .frobenius import ap, is_ordinary
from .local_invariants import conductor, tamagawa_product
from .lseries import is_p_adic_unit
from .modsym import family_l_ratio
from .tabledata import TABLE1, TABLE2, TableRow, factors_to_str
from .torsion_galois import SURJECTIVE, UNDETERMINED, mod_l_image, torsion_subgroup

APPLIES = "Applies"
DOES_NOT_APPLY = "DoesNotApply"
UNDETERMINED_VERDICT = "Undetermined"


@dataclass(frozen=True)
class Condition:
    name: str
    tag: str  # coarse category: structural / analytic / local / galois / torsion
    evidence: Any
    passed: bool
    undetermined: bool = False


@dataclass(frozen=True)
class Certificate:
    family: Family
    d: int
    p: int
    conditions: tuple[Condition, ...]
    verdict: str
    path: str  # ordinary / supersingular / n/a
    extras: dict = field(default_factory=dict)


def _verdict(conditions) -> str:
    failing = [c for c in conditions if not c.passed]
    if not failing:
        return APPLIES
    if all(c.undetermined for c in failing):
        return UNDETERMINED_VERDICT
    return DOES_NOT_APPLY


def _twist(fam: Family, d: int) -> CurveModel:
    return quadratic_twist(base_curve(fam), d)


def check_theorem(fam, d: int, p: int) -> Certificate:
    """Evaluate the headline hypothesis list; failures are data, not errors."""
    fam = Family.parse(fam)
    conds: list[Condition] = []
    extras: dict = {}

    ok = d > 1 and is_squarefree(d)
    conds.append(Condition("d_squarefree_gt_1", "structural", d, ok))
    if ok:
        if fam is Family.X15:
            ok = d != 5
            conds.append(Condition("d_not_5", "structural", d, ok))
        else:
            ok = d % 7 != 0
            conds.append(Condition("d_prime_to_7", "structural", d, ok))
    if ok:
        q = fam.odd_level_primes[1]
        g3, gq = math.gcd(d, 3 * p), math.gcd(d, q * p)
        ok = g3 == 1 or gq == 1
        conds.append(
            Condition("coprimality_branch", "structural", {"gcd_3p": g3, f"gcd_{q}p": gq}, ok)
        )
    if ok:
        ok = is_prime(p) and p not in fam.base_primes
        conds.append(
            Condition("p_prime_outside_base", "structural", {"p": p, "base": sorted(fam.base_primes)}, ok)
        )
    if ok:
        ratio = family_l_ratio(fam, d)
        unit = is_p_adic_unit(ratio, p)
        conds.append(
            Condition(
                "l_ratio_p_unit",
                "analytic",
                {"ratio": str(ratio), "valuation": None if ratio == 0 else valuation(ratio, p)},
                unit,
            )
        )
        ok = unit

        # cross-check against the equivalent reformulation of the hypothesis
        # list (and, for the level-21 family, the variant as printed, which
        # carries a suspected 5-for-7 typo and is reported but not enforced)
        def variant(base_product: int) -> bool:
            structural = (d != 5) if fam is Family.X15 else (d % 7 != 0)
            q = fam.odd_level_primes[1]
            branch = math.gcd(d, 3) == 1 or math.gcd(d, q) == 1
            p_cond = (base_product * d) % p != 0
            return structural and branch and p_cond and unit

        main_verdict = all(c.passed for c in conds)
        equiv = variant(2 * 3 * fam.odd_level_primes[1])
        extras["equiv_formulation"] = {"verdict": equiv, "agrees": equiv == main_verdict}
        if fam is Family.X21:
            printed = variant(2 * 3 * 5)
            extras["printed_variant"] = {"verdict": printed, "agrees": printed == main_verdict}

    return Certificate(fam, d, p, tuple(conds), _verdict(conds), "n/a", extras)


def deep_certificate(fam, d: int, p: int, sample_bound: int = 10_000) -> Certificate:
    """Per-prime certificate behind the headline conditions.

    Requires the shallow certificate to pass; otherwise that certificate is
    returned unchanged (DoesNotApply with the shallow failure recorded).
    """
    fam = Family.parse(fam)
    shallow = check_theorem(fam, d, p)
    if shallow.verdict != APPLIES:
        return shallow

    Y = _twist(fam, d)
    rep = conductor(Y)
    if rep.N % p == 0:
        raise RuntimeError(
            f"internal error: shallow conditions passed but {p} divides N = {rep.N}"
        )
    conds: list[Condition] = [
        Condition("good_reduction_at_p", "local", {"N": rep.N}, True)
    ]
    a_p = ap(Y, p)
    path = is_ordinary(Y, p)

    def surjectivity_cond() -> Condition:
        image = mod_l_image(Y, p, sample_bound=sample_bound)
        return Condition(
            "mod_p_image_surjective",
            "galois",
            {"verdict": image.verdict, "witnesses": dict(image.witnesses)},
            image.verdict == SURJECTIVE,
            undetermined=image.verdict == UNDETERMINED,
        )

    ratio = family_l_ratio(fam, d)
    if path == "ordinary":
        steps = [
            lambda: Condition("ordinary_at_p", "local", {"a_p": a_p}, a_p % p != 0),
            surjectivity_cond,
            lambda: _ramified_multiplicative_condition(rep, p),
            lambda: Condition(
                "l_ratio_p_unit", "analytic", {"ratio": str(ratio)}, is_p_adic_unit(ratio, p)
            ),
            lambda: Condition(
                "reduction_count_prime_to_p",
                "local",
                {"count": p + 1 - a_p},
                (p + 1 - a_p) % p != 0,
            ),
            lambda: _torsion_condition(Y, p),
        ]
    else:
        steps = [
            lambda: Condition("supersingular_trace_zero", "local", {"a_p": a_p}, a_p == 0),
            surjectivity_cond,
            lambda: Condition(
                "l_ratio_p_unit", "analytic", {"ratio": str(ratio)}, is_p_adic_unit(ratio, p)
            ),
            lambda: _tamagawa_condition(Y, p),
        ]
    for step in steps:
        cond = step()
        conds.append(cond)
        if not cond.passed and not cond.undetermined:
            break  # fail fast, keeping the evidence gathered so far

    return Certificate(fam, d, p, tuple(conds), _verdict(conds), path, dict(shallow.extras))


def _ramified_multiplicative_condition(rep, p: int) -> Condition:
    disc_vals = {}
    witness = None
    for ld in rep.local_data:
        if ld.p != p and ld.f == 1:
            disc_vals[ld.p] = ld.vp_disc
            if ld.vp_disc % p != 0 and witness is None:
                witness = ld.p
    return Condition(
        "ramified_multiplicative_prime",
        "local",
        {"candidates_vp_disc": disc_vals, "witness_q": witness},
        witness is not None,
    )


def _torsion_condition(Y: CurveModel, p: int) -> Condition:
    tor = torsion_subgroup(Y)
    return Condition(
        "torsion_prime_to_p",
        "torsion",
        {"order": tor.order, "structure": list(tor.invariant_factors)},
        tor.order % p != 0,
    )


def _tamagawa_condition(Y: CurveModel, p: int) -> Condition:
    prod = tamagawa_product(Y)
    return Condition("tamagawa_prime_to_p", "local", {"product": prod}, prod % p != 0)


# ---------------------------------------------------------------------------
# admissible primes and table reproduction


def admissible_primes(fam, d: int, p_max: int = 100):
    """(excluded set, description): primes for which the headline statement
    applies are exactly those outside the excluded set (checked up to p_max)."""
    fam = Family.parse(fam)
    if d <= 1 or not is_squarefree(d):
        raise ValueError(f"d = {d} is not a squarefree integer > 1")
    if fam is Family.X15 and d == 5:
        raise ValueError("d = 5 is outside the level-15 family")
    if fam is Family.X21 and d % 7 == 0:
        raise ValueError("7 | d is outside the level-21 family")
    q = fam.odd_level_primes[1]
    if math.gcd(d, 3) != 1 and math.gcd(d, q) != 1:
        raise ValueError(f"d = {d} fails both coprimality branches")

    ratio = family_l_ratio(fam, d)
    if ratio == 0:
        return frozenset(), "none"
    excluded = set(fam.base_primes) | set(prime_divisors(d))
    excluded |= set(prime_divisors(ratio.numerator)) | set(prime_divisors(ratio.denominator))
    excluded = frozenset(excluded)
    for p in sieve_primes(p_max):
        if p in excluded:
            continue
        cert = check_theorem(fam, d, p)
        if cert.verdict != APPLIES:
            raise RuntimeError(f"admissible-set characterization failed at p = {p}")
    return excluded, _excluded_str(excluded)


@dataclass(frozen=True)
class TableRowResult:
    row: TableRow
    computed_factors: tuple[tuple[int, int], ...]
    computed_lratio: Fraction
    computed_excluded: tuple[int, ...] | None
    conductor_match: bool
    lratio_match: bool
    admissible_match: bool

    @property
    def match(self) -> bool:
        return self.conductor_match and self.lratio_match and self.admissible_match


@dataclass(frozen=True)
class TableReport:
    which: int
    rows: tuple[TableRowResult, ...]

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.rows)


def reproduce_table(which: int) -> TableReport:
    """Recompute every cell of table 1 or 2 and compare with the golden rows.

    Documented errata are compared against the corrected value and keep their
    annotation; nothing is silently fixed.
    """
    if which == 1:
        fam, rows = Family.X15, TABLE1
    elif which == 2:
        fam, rows = Family.X21, TABLE2
    else:
        raise ValueError("table index must be 1 or 2")
    results = []
    for row in rows:
        fac = conductor(_twist(fam, row.d)).factorization
        ratio = family_l_ratio(fam, row.d)
        if ratio == 0:
            exc: tuple[int, ...] | None = None
        else:
            exc = tuple(sorted(admissible_primes(fam, row.d)[0]))
        results.append(
            TableRowResult(
                row,
                fac,
                ratio,
                exc,
                fac == row.conductor_factors,
                ratio == row.lratio,
                exc == (tuple(row.excluded) if row.excluded is not None else None),
            )
        )
    return TableReport(which, tuple(results))


def table_row_json_dict(which: int, r: TableRowResult) -> dict:
    """Stable-key-order dict for one table comparison row."""
    return {
        "table": which,
        "d": r.row.d,
        "label": r.row.label,
        "expected_conductor": factors_to_str(r.row.conductor_factors),
        "computed_conductor": factors_to_str(r.computed_factors),
        "conductor_match": r.conductor_match,
        "expected_lratio": str(r.row.lratio),
        "computed_lratio": str(r.computed_lratio),
        "lratio_match": r.lratio_match,
        "expected_admissible": _excluded_str(r.row.excluded),
        "computed_admissible": _excluded_str(r.computed_excluded),
        "admissible_match": r.admissible_match,
        "erratum": r.row.erratum,
        "match": r.match,
    }


def _excluded_str(excluded) -> str:
    if excluded is None:
        return "none"
    return "p not in {" + ", ".join(str(p) for p in sorted(excluded)) + "}"


def certificate_json_dict(cert: Certificate) -> dict:
    return {
        "family": cert.family.value,
        "d": cert.d,
        "p": cert.p,
        "verdict": cert.verdict,
        "path": cert.path,
        "conditions": [
            {
                "name": c.name,
                "tag": c.tag,
                "evidence": c.evidence,
                "passed": c.passed,
                "undetermined": c.undetermined,
            }
            for c in cert.conditions
        ],
        "extras": cert.extras,
    }
