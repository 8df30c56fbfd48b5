"""Command-line interface and the external curve-table cross-check parser.

Exit codes: 0 on success / all-match, 1 on a table or cross-check mismatch
(or a non-applying certificate under --strict), 2 on usage errors.  --json
switches every subcommand to line-delimited JSON with a fixed key order.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .certify import (
    APPLIES,
    admissible_primes,
    certificate_json_dict,
    check_theorem,
    deep_certificate,
    reproduce_table,
    table_row_json_dict,
)
from .curves import CurveModel, Family, base_curve, minimal_model, parse_ainvs, quadratic_twist
from .local_invariants import conductor, tamagawa_product
from .lseries import algebraic_l_ratio
from .tabledata import factors_to_str
from .torsion_galois import torsion_subgroup


@dataclass(frozen=True)
class ExternalCurveRow:
    conductor: int
    iso_class: str
    index: int
    ainvs: tuple[int, int, int, int, int]
    rank: int | None = None
    torsion_order: int | None = None
    line_no: int = 0


def parse_curve_table(lines):
    """Tolerant parser for whitespace-separated curve-table dumps.

    Record shape: conductor, isogeny-class letters, curve index,
    "[a1,a2,a3,a4,a6]", then optional rank and torsion order.  Malformed
    lines yield positioned diagnostics and are skipped, never fatal.
    """
    rows: list[ExternalCurveRow] = []
    diagnostics: list[tuple[int, str]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # re-join a bracketed list that was split on internal spaces
        tokens = line.split()
        merged: list[str] = []
        buffer = None
        for tok in tokens:
            if buffer is not None:
                buffer += tok
                if "]" in tok:
                    merged.append(buffer)
                    buffer = None
            elif tok.startswith("[") and "]" not in tok:
                buffer = tok
            else:
                merged.append(tok)
        if buffer is not None:
            diagnostics.append((line_no, "unterminated '[' in a-invariant list"))
            continue
        if len(merged) < 4:
            diagnostics.append((line_no, f"expected at least 4 fields, got {len(merged)}"))
            continue
        cond_s, iso, idx_s, ainvs_s, *rest = merged
        try:
            N = int(cond_s)
            idx = int(idx_s)
        except ValueError:
            diagnostics.append((line_no, "conductor and index must be integers"))
            continue
        if not (ainvs_s.startswith("[") and ainvs_s.endswith("]")):
            diagnostics.append((line_no, "a-invariants must be a bracketed list"))
            continue
        parts = [s for s in ainvs_s[1:-1].split(",") if s.strip()]
        if len(parts) != 5:
            diagnostics.append((line_no, f"expected 5 a-invariants, got {len(parts)}"))
            continue
        try:
            ainvs = tuple(int(s) for s in parts)
        except ValueError:
            diagnostics.append((line_no, "a-invariants must be integers"))
            continue
        opt: list[int | None] = [None, None]
        bad = False
        for i, tok in enumerate(rest[:2]):
            try:
                opt[i] = int(tok)
            except ValueError:
                diagnostics.append((line_no, f"optional field {tok!r} is not an integer"))
                bad = True
                break
        if bad:
            continue
        rows.append(ExternalCurveRow(N, iso, idx, ainvs, opt[0], opt[1], line_no))
    return rows, diagnostics


# ---------------------------------------------------------------------------
# subcommand helpers


def _resolve_curve(args) -> CurveModel:
    if getattr(args, "curve", None):
        return parse_ainvs(args.curve)
    fam = Family.parse(args.family)
    d = getattr(args, "twist", None) or getattr(args, "d", None)
    if d is None or d == 1:
        return base_curve(fam)
    return quadratic_twist(base_curve(fam), d)


def _knobs(args) -> dict:
    return {"nmax_cap": args.nmax_cap, "tolerance": args.tolerance}


def _emit(args, json_obj: dict, text: str) -> None:
    if args.json:
        print(json.dumps(json_obj))
    else:
        print(text)


def _cmd_invariants(args) -> int:
    E = _resolve_curve(args)
    rep = conductor(E)
    tor = torsion_subgroup(E)
    M = minimal_model(E)
    obj = {
        "ainvs": [str(a) for a in M.ainvs],
        "b_invariants": [str(M.b2), str(M.b4), str(M.b6), str(M.b8)],
        "c4": str(M.c4),
        "c6": str(M.c6),
        "discriminant": str(M.discriminant),
        "j": str(M.j),
        "conductor": rep.N,
        "conductor_factorization": factors_to_str(rep.factorization),
        "kodaira": {str(ld.p): ld.kodaira for ld in rep.local_data},
        "tamagawa": {str(ld.p): ld.c for ld in rep.local_data},
        "tamagawa_product": tamagawa_product(E),
        "torsion_structure": list(tor.invariant_factors),
        "torsion_order": tor.order,
    }
    lines = [
        f"minimal model      {M}",
        f"c4, c6             {M.c4}, {M.c6}",
        f"discriminant       {M.discriminant}",
        f"j-invariant        {M.j}",
        f"conductor          {rep.N} = {factors_to_str(rep.factorization)}",
        "local data         "
        + "; ".join(f"p={ld.p}: {ld.kodaira}, f={ld.f}, c={ld.c} ({ld.kind})" for ld in rep.local_data),
        f"tamagawa product   {tamagawa_product(E)}",
        f"torsion            {tor.invariant_factors or '(trivial)'} (order {tor.order})",
    ]
    _emit(args, obj, "\n".join(lines))
    return 0


def _cmd_lratio(args) -> int:
    E = _resolve_curve(args)
    res = algebraic_l_ratio(E, **_knobs(args))
    obj = {
        "l1": res.l1,
        "omega": res.omega,
        "root_number": res.root_number,
        "ratio": str(res.ratio),
        "n_max": res.n_max,
    }
    text = (
        f"L(E,1)      {res.l1:.12g}\n"
        f"omega       {res.omega:.12g}\n"
        f"root number {res.root_number:+d}\n"
        f"L/omega     {res.ratio}\n"
        f"n_max       {res.n_max}"
    )
    _emit(args, obj, text)
    return 0


def _cmd_certify(args, deep: bool) -> int:
    if deep:
        cert = deep_certificate(args.family, args.d, args.p, sample_bound=args.sample_bound, **_knobs(args))
    else:
        cert = check_theorem(args.family, args.d, args.p, **_knobs(args))
    obj = certificate_json_dict(cert)
    lines = [f"{cert.family.value}  d={cert.d}  p={cert.p}  verdict: {cert.verdict}  path: {cert.path}"]
    for c in cert.conditions:
        status = "pass" if c.passed else ("undetermined" if c.undetermined else "FAIL")
        lines.append(f"  [{status:>12}] {c.name}: {c.evidence}")
    for k, v in cert.extras.items():
        lines.append(f"  note {k}: {v}")
    _emit(args, obj, "\n".join(lines))
    if args.strict and cert.verdict != APPLIES:
        return 1
    return 0


def _cmd_admissible(args) -> int:
    excluded, desc = admissible_primes(args.family, args.d, p_max=args.pmax, **_knobs(args))
    obj = {
        "family": Family.parse(args.family).value,
        "d": args.d,
        "excluded": sorted(excluded),
        "description": desc,
    }
    _emit(args, obj, desc)
    return 0


def _cmd_table(args) -> int:
    report = reproduce_table(args.which, **_knobs(args))
    if args.json:
        for r in report.rows:
            print(json.dumps(table_row_json_dict(args.which, r)))
        print(json.dumps({"table": args.which, "all_match": report.all_match}))
    else:
        header = f"{'d':>4} {'conductor':>24} {'L/omega':>8} {'admissible':>28} {'status':>8}"
        print(header)
        for r in report.rows:
            status = "ok" if r.match else "MISMATCH"
            note = "  (erratum annotated)" if r.row.erratum else ""
            print(
                f"{r.row.d:>4} {factors_to_str(r.computed_factors):>24} "
                f"{str(r.computed_lratio):>8} "
                f"{(('none' if r.computed_excluded is None else 'p not in ' + str(sorted(r.computed_excluded)))):>28} "
                f"{status:>8}{note}"
            )
        print(f"table {args.which}: {'all rows match' if report.all_match else 'MISMATCHES PRESENT'}")
    return 0 if report.all_match else 1


def _cmd_crosscheck(args) -> int:
    if args.file == "-":
        lines = sys.stdin.readlines()
    else:
        with open(args.file, encoding="utf-8") as fh:
            lines = fh.readlines()
    rows, diagnostics = parse_curve_table(lines)
    flagged = 0
    for line_no, message in diagnostics:
        print(f"line {line_no}: {message}", file=sys.stderr)
    for row in rows:
        E = CurveModel.from_ainvs(row.ainvs)
        problems = []
        try:
            N = conductor(E).N
            if N != row.conductor:
                problems.append(f"conductor {row.conductor} recomputes to {N}")
            if row.torsion_order is not None:
                t = torsion_subgroup(E).order
                if t != row.torsion_order:
                    problems.append(f"torsion order {row.torsion_order} recomputes to {t}")
        except Exception as exc:  # keep scanning; one row must not kill the run
            problems.append(f"recomputation failed: {exc}")
        obj = {
            "line": row.line_no,
            "conductor": row.conductor,
            "class": row.iso_class,
            "index": row.index,
            "ainvs": list(row.ainvs),
            "ok": not problems,
            "problems": problems,
        }
        if args.json:
            print(json.dumps(obj))
        else:
            tag = "ok" if not problems else "FLAGGED: " + "; ".join(problems)
            print(f"{row.conductor}{row.iso_class}{row.index} {list(row.ainvs)}: {tag}")
        flagged += bool(problems)
    return 1 if flagged or diagnostics else 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistcheck",
        description="Verify conductors, L-ratios and hypothesis certificates "
        "for quadratic twists of the curves 15A1 and 21A1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, curve=False, family_required=True):
        p.add_argument("--json", action="store_true", help="line-delimited JSON output")
        p.add_argument("--strict", action="store_true", help="exit 1 on non-applying certificates")
        p.add_argument("--nmax-cap", dest="nmax_cap", type=int, default=10**6)
        p.add_argument("--tolerance", type=float, default=1e-6)
        p.add_argument("--sample-bound", dest="sample_bound", type=int, default=10_000)
        p.add_argument("--pmax", type=int, default=100)
        if curve:
            p.add_argument("--family", help="15 or 21")
            p.add_argument("--twist", "--d", dest="twist", type=int, help="twist parameter d")
            p.add_argument("--curve", help='explicit model "a1,a2,a3,a4,a6"')

    p_inv = sub.add_parser("invariants", help="model invariants, conductor, torsion")
    common(p_inv, curve=True)
    p_inv.set_defaults(func=_cmd_invariants)

    p_lr = sub.add_parser("lratio", help="L(E,1), period and recognized ratio")
    common(p_lr, curve=True)
    p_lr.set_defaults(func=_cmd_lratio)

    p_c = sub.add_parser("certify", help="headline hypothesis certificate")
    common(p_c)
    p_c.add_argument("--family", required=True)
    p_c.add_argument("--d", type=int, required=True)
    p_c.add_argument("--p", type=int, required=True)
    p_c.set_defaults(func=lambda a: _cmd_certify(a, deep=False))

    p_dc = sub.add_parser("deep-certify", help="per-prime certificate (ordinary/supersingular)")
    common(p_dc)
    p_dc.add_argument("--family", required=True)
    p_dc.add_argument("--d", type=int, required=True)
    p_dc.add_argument("--p", type=int, required=True)
    p_dc.set_defaults(func=lambda a: _cmd_certify(a, deep=True))

    p_a = sub.add_parser("admissible", help="excluded prime set for a twist")
    common(p_a)
    p_a.add_argument("--family", required=True)
    p_a.add_argument("--d", type=int, required=True)
    p_a.set_defaults(func=_cmd_admissible)

    p_t = sub.add_parser("table", help="reproduce golden table 1 or 2")
    common(p_t)
    p_t.add_argument("--which", type=int, required=True, choices=(1, 2))
    p_t.set_defaults(func=_cmd_table)

    p_x = sub.add_parser("crosscheck", help="recompute rows of an external curve table")
    common(p_x)
    p_x.add_argument("--file", required=True, help="path, or - for stdin")
    p_x.set_defaults(func=_cmd_crosscheck)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
