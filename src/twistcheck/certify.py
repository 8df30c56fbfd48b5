"""Hypothesis certificates for the two twist families.

A certificate is one list of conditions, evaluated lazily and cut after the
first failure that is not undetermined, so no evidence is gathered past it.
check_theorem evaluates the headline hypothesis: the structural conditions on
d and p (stated once, in _structural) and the p-adic unit condition on
L(E_d,1)/Omega.  deep_certificate additionally verifies the per-prime
conditions that the headline statement rests on, branching on ordinary vs
supersingular reduction.  Failures are recorded as data, never raised.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, NamedTuple

from .arith import is_p_adic_unit, is_prime, is_squarefree, prime_divisors, valuation
from .curves import CurveModel, Family, base_curve, quadratic_twist
from .frobenius import ap, is_ordinary
from .local_invariants import conductor, tamagawa_product
from .modsym import family_l_ratio
from .tabledata import TABLE1, TABLE2, TableRow, factors_to_str
from .torsion_galois import SURJECTIVE, UNDETERMINED, mod_l_image, torsion_subgroup

APPLIES = "Applies"
DOES_NOT_APPLY = "DoesNotApply"
UNDETERMINED_VERDICT = "Undetermined"


class Condition(NamedTuple):
    name: str
    tag: str  # coarse category: structural / analytic / local / galois / torsion
    evidence: Any
    passed: bool
    undetermined: bool = False


class Certificate(NamedTuple):
    family: Family
    d: int
    p: int
    conditions: tuple[Condition, ...]
    verdict: str
    path: str  # ordinary / supersingular / n/a
    extras: dict


def _evaluate(conditions) -> tuple[Condition, ...]:
    """Draw conditions in order, stopping after the first failure that is not
    undetermined; the ones after it are never evaluated."""
    out = []
    for cond in conditions:
        out.append(cond)
        if not cond.passed and not cond.undetermined:
            break
    return tuple(out)


def _verdict(conditions) -> str:
    failing = [c for c in conditions if not c.passed]
    if not failing:
        return APPLIES
    if all(c.undetermined for c in failing):
        return UNDETERMINED_VERDICT
    return DOES_NOT_APPLY


def _twist(fam: Family, d: int) -> CurveModel:
    return quadratic_twist(base_curve(fam), d)


def _structural(fam: Family, d: int, p: int | None = None):
    """The structural conditions in order: on d, then on p unless p is None
    (the coprimality branch then reads gcd(d, 3) and gcd(d, q))."""
    yield Condition("d_squarefree_gt_1", "structural", d, d > 1 and is_squarefree(d))
    if fam is Family.X15:
        yield Condition("d_not_5", "structural", d, d != 5)
    else:
        yield Condition("d_prime_to_7", "structural", d, d % 7 != 0)
    q = fam.odd_level_primes[1]
    m = 1 if p is None else p
    g3, gq = math.gcd(d, 3 * m), math.gcd(d, q * m)
    yield Condition(
        "coprimality_branch", "structural", {"gcd_3p": g3, f"gcd_{q}p": gq}, g3 == 1 or gq == 1
    )
    if p is not None:
        yield Condition(
            "p_prime_outside_base",
            "structural",
            {"p": p, "base": sorted(fam.base_primes)},
            is_prime(p) and p not in fam.base_primes,
        )


def check_theorem(fam, d: int, p: int) -> Certificate:
    """Evaluate the headline hypothesis list; failures are data, not errors."""
    fam = Family.parse(fam)
    extras: dict = {}

    def conditions():
        yield from _structural(fam, d, p)
        ratio = family_l_ratio(fam, d)
        unit = is_p_adic_unit(ratio, p)

        # cross-check against the equivalent reformulation of the hypothesis
        # list (and, for the level-21 family, the variant as printed, which
        # carries a suspected 5-for-7 typo and is reported but not enforced);
        # past the structural conditions only the clause p | base * d differs
        def variant(base_product: int) -> bool:
            return (base_product * d) % p != 0 and unit

        equiv = variant(2 * 3 * fam.odd_level_primes[1])
        extras["equiv_formulation"] = {"verdict": equiv, "agrees": equiv == unit}
        if fam is Family.X21:
            printed = variant(2 * 3 * 5)
            extras["printed_variant"] = {"verdict": printed, "agrees": printed == unit}
        yield Condition(
            "l_ratio_p_unit",
            "analytic",
            {"ratio": str(ratio), "valuation": None if ratio == 0 else valuation(ratio, p)},
            unit,
        )

    conds = _evaluate(conditions())
    return Certificate(fam, d, p, conds, _verdict(conds), "n/a", extras)


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
    a_p = ap(Y, p)
    path = is_ordinary(Y, p)
    ratio = family_l_ratio(fam, d)

    def conditions():
        yield Condition("good_reduction_at_p", "local", {"N": rep.N}, True)
        if path == "ordinary":
            yield Condition("ordinary_at_p", "local", {"a_p": a_p}, a_p % p != 0)
        else:
            yield Condition("supersingular_trace_zero", "local", {"a_p": a_p}, a_p == 0)
        image = mod_l_image(Y, p, sample_bound=sample_bound)
        yield Condition(
            "mod_p_image_surjective",
            "galois",
            {"verdict": image.verdict, "witnesses": dict(image.witnesses)},
            image.verdict == SURJECTIVE,
            undetermined=image.verdict == UNDETERMINED,
        )
        if path == "ordinary":
            yield _ramified_multiplicative_condition(rep, p)
        unit = is_p_adic_unit(ratio, p)
        yield Condition("l_ratio_p_unit", "analytic", {"ratio": str(ratio)}, unit)
        if path == "ordinary":
            count = p + 1 - a_p
            yield Condition("reduction_count_prime_to_p", "local", {"count": count}, count % p != 0)
            tor = torsion_subgroup(Y)
            yield Condition(
                "torsion_prime_to_p",
                "torsion",
                {"order": tor.order, "structure": list(tor.invariant_factors)},
                tor.order % p != 0,
            )
        else:
            prod = tamagawa_product(Y)
            yield Condition("tamagawa_prime_to_p", "local", {"product": prod}, prod % p != 0)

    conds = _evaluate(conditions())
    return Certificate(fam, d, p, conds, _verdict(conds), path, dict(shallow.extras))


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


# ---------------------------------------------------------------------------
# admissible primes and table reproduction


def admissible_primes(fam, d: int):
    """(excluded set, description) for the twist E_d; ValueError when d fails
    a structural condition on d alone.

    The headline statement applies exactly at the primes outside the primes
    of 2*3*q*d and of L(E_d,1)/Omega: such a p is outside the base, p does not
    divide d, so the coprimality branch at p is the one at d, and the ratio is
    a p-adic unit.  A vanishing ratio admits no prime ("none").
    tests/test_certify.py checks both directions against check_theorem.
    """
    fam = Family.parse(fam)
    for cond in _structural(fam, d):
        if not cond.passed:
            raise ValueError(f"d = {d} is outside the {fam.value} family: {cond.name} fails")

    ratio = family_l_ratio(fam, d)
    if ratio == 0:
        return frozenset(), "none"
    excluded = set(fam.base_primes) | set(prime_divisors(d))
    excluded |= set(prime_divisors(ratio.numerator)) | set(prime_divisors(ratio.denominator))
    excluded = frozenset(excluded)
    return excluded, _excluded_str(excluded)


class TableRowResult(NamedTuple):
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


class TableReport(NamedTuple):
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
