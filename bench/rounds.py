"""What one round of each workload runs, and how its results are checked.

A runner calls twistcheck only through its public functions, times each
operation, and keeps the results.  A checker runs after the timed part and
turns the results into plain values for the checks in ``oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import oracle


@dataclass
class Timed:
    wall_s: float = 0.0
    op_s: list = field(default_factory=list)
    results: list = field(default_factory=list)  # None where the operation failed
    failed: dict = field(default_factory=dict)  # operation index -> "Type: message"
    extra: object = None


def _run(ops, call, timed: Timed) -> None:
    for i, op in enumerate(ops):
        t = perf_counter()
        try:
            result = call(*op)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = None
            timed.failed[i] = f"{type(exc).__name__}: {exc}"
        timed.op_s.append(perf_counter() - t)
        timed.results.append(result)


# ---------------------------------------------------------------------------
# golden_tables: one operation is one reproduce_table call or one
# deep_certificate(family, d, p) call.


def run_golden_tables(tc, inputs) -> Timed:
    timed = Timed()
    start = perf_counter()
    _run([(w,) for w in inputs["tables"]], tc.reproduce_table, timed)
    _run(inputs["certificates"], tc.deep_certificate, timed)
    timed.wall_s = perf_counter() - start
    return timed


def _twist_local_problems(tc, fam: int, d: int) -> list[str]:
    E = tc.quadratic_twist(tc.base_curve(fam), d)
    rep = tc.conductor(E)
    local = [(ld.p, ld.kodaira, ld.f, ld.c, ld.vp_disc) for ld in rep.local_data]
    return (
        oracle.check_twist_conductor(fam, d, rep.factorization)
        + oracle.check_ogg_saito(local)
        + oracle.check_local_data(
            oracle.twist_short_model(fam, d),
            tuple(int(a) for a in tc.minimal_model(E).ainvs),
            local,
            rep.N,
            tc.tamagawa_product(E),
        )
    )


def check_golden_tables(tc, inputs, timed: Timed) -> list[str]:
    problems = [f"operation {i} failed: {err}" for i, err in timed.failed.items()]
    n_tables = len(inputs["tables"])
    for which, report in zip(inputs["tables"], timed.results[:n_tables]):
        if report is None:
            continue
        rows = [(r.row.d, r.computed_factors, r.computed_lratio, r.computed_excluded) for r in report.rows]
        problems += oracle.check_table(which, rows)
        fam = oracle.TABLE_FAMILY[which]
        for d, factors, _, _ in rows:
            problems += oracle.check_twist_conductor(fam, d, factors)
            problems += _twist_local_problems(tc, fam, d)
    for (fam, d, p), cert in zip(inputs["certificates"], timed.results[n_tables:]):
        if cert is None:
            continue
        if (cert.family.level, cert.d, cert.p) != (fam, d, p):
            problems.append(f"certificate for {(fam, d, p)} answers {(cert.family.level, cert.d, cert.p)}")
        conditions = [(c.name, c.evidence, c.passed) for c in cert.conditions]
        problems += oracle.check_deep_certificate(fam, d, p, cert.verdict, cert.path, conditions)
    return problems


# ---------------------------------------------------------------------------
# lratio_ladder: one operation is building one twist and computing its
# algebraic L-ratio.


def _lratio(tc, fam: int, d: int):
    return tc.algebraic_l_ratio(tc.quadratic_twist(tc.base_curve(fam), d))


def run_lratio_ladder(tc, inputs) -> Timed:
    timed = Timed()
    start = perf_counter()
    _run(inputs["twists"], lambda fam, d: _lratio(tc, fam, d), timed)
    timed.wall_s = perf_counter() - start
    return timed


def check_lratio_ladder(tc, inputs, timed: Timed) -> list[str]:
    problems = [f"operation {i} failed: {err}" for i, err in timed.failed.items()]
    for (fam, d), res in zip(inputs["twists"], timed.results):
        if res is None:
            continue
        problems += oracle.check_root_number(fam, d, res.root_number, res.ratio)
        problems += _twist_local_problems(tc, fam, d)
    return problems


# ---------------------------------------------------------------------------
# crosscheck: parsing the table is timed but is not an operation; one
# operation is recomputing conductor, Tamagawa product and torsion of a row.


def _recompute(tc, ainvs):
    E = tc.CurveModel.from_ainvs(ainvs)
    return tc.conductor(E), tc.tamagawa_product(E), tc.torsion_subgroup(E)


def run_crosscheck(tc, inputs) -> Timed:
    from twistcheck.cli_io import parse_curve_table

    timed = Timed()
    start = perf_counter()
    rows, diagnostics = parse_curve_table(inputs["text"].splitlines(keepends=True))
    _run([(row.ainvs,) for row in rows], lambda a: _recompute(tc, a), timed)
    timed.wall_s = perf_counter() - start
    timed.extra = (rows, diagnostics)
    return timed


def check_crosscheck(tc, inputs, timed: Timed) -> list[str]:
    rows, diagnostics = timed.extra
    want = inputs["rows"]
    problems = []
    parsed = [(r.line_no, r.conductor, list(r.ainvs)) for r in rows]
    if parsed != [(w["line"], w["conductor"], list(w["ainvs"])) for w in want]:
        problems.append("parse_curve_table did not return the records written")
        return problems
    if [line for line, _ in diagnostics] != inputs["malformed_lines"]:
        problems.append(f"diagnostics at lines {[line for line, _ in diagnostics]}")
    for i, (w, result) in enumerate(zip(want, timed.results)):
        ainvs = tuple(w["ainvs"])
        if result is None:
            if w["kind"] == "fault":
                problems += oracle.check_factorize_fault(ainvs, timed.failed[i])
            else:
                problems.append(f"row {ainvs} failed: {timed.failed[i]}")
            continue
        rep, tamagawa, torsion = result
        local = [(ld.p, ld.kodaira, ld.f, ld.c, ld.vp_disc) for ld in rep.local_data]
        minimal = tuple(int(a) for a in tc.minimal_model(tc.CurveModel.from_ainvs(ainvs)).ainvs)
        problems += oracle.check_ogg_saito(local)
        problems += oracle.check_local_data(ainvs, minimal, local, rep.N, tamagawa)
        problems += oracle.check_torsion(ainvs, torsion.order)
        if w["kind"] == "twist":
            problems += oracle.check_twist_conductor(w["family"], w["d"], rep.factorization)
    return problems


RUNNERS = {
    "golden_tables": run_golden_tables,
    "lratio_ladder": run_lratio_ladder,
    "crosscheck": run_crosscheck,
}
CHECKS = {
    "golden_tables": check_golden_tables,
    "lratio_ladder": check_lratio_ladder,
    "crosscheck": check_crosscheck,
}
