"""Per-layer tracing of twistcheck from outside the program.

``Tracer.install`` replaces each named public function by a wrapper that
records a span (name, start, end, parent span, one number of detail).  The
wrapper is set on every module attribute bound to the function, because
modules import each other's functions by name (``an_coefficients`` into
``lseries``, ``count_points`` into ``torsion_galois``, ...).  Spans stay in
memory until ``write`` saves them.  A span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

# (module, function, detail taken from the arguments or the result)
TARGETS = (
    ("arith", "factorize", None),
    ("curves", "minimal_model", None),
    ("local_invariants", "conductor", None),
    ("local_invariants", "tate_local", None),
    ("frobenius", "ap", None),
    ("frobenius", "count_points", lambda args, result: args[1]),
    ("frobenius", "an_coefficients", lambda args, result: args[1]),
    ("lseries", "algebraic_l_ratio", None),
    ("lseries", "period_of_model", None),
    ("torsion_galois", "torsion_subgroup", None),
    ("torsion_galois", "mod_l_image", None),
    ("certify", "reproduce_table", None),
    ("certify", "admissible_primes", None),
    ("certify", "check_theorem", None),
    ("certify", "deep_certificate", None),
    ("cli_io", "parse_curve_table", lambda args, result: len(result[0])),
)

# Per-layer metrics and their units, as BENCHMARK.json lists them.
LAYER_METRICS = {
    "arith.factorize.calls": "count",
    "arith.factorize.s": "s",
    "arith.factorize.failed": "count",
    "curves.minimal_model.calls": "count",
    "curves.minimal_model.s": "s",
    "curves.discriminant.evals": "count",
    "local_invariants.conductor.calls": "count",
    "local_invariants.conductor.s": "s",
    "local_invariants.tate_local.calls": "count",
    "local_invariants.tate_local.s": "s",
    "frobenius.ap.calls": "count",
    "frobenius.ap.self_s": "s",
    "frobenius.count_points.calls": "count",
    "frobenius.count_points.s": "s",
    "frobenius.count_points.p_sum": "count",
    "frobenius.an_coefficients.self_s": "s",
    "frobenius.an_coefficients.n_max_sum": "count",
    "lseries.algebraic_l_ratio.calls": "count",
    "lseries.algebraic_l_ratio.self_s": "s",
    "lseries.algebraic_l_ratio.hit_ratio": "ratio",
    "lseries.period_of_model.s": "s",
    "torsion_galois.torsion_subgroup.calls": "count",
    "torsion_galois.torsion_subgroup.s": "s",
    "torsion_galois.mod_l_image.calls": "count",
    "torsion_galois.mod_l_image.s": "s",
    "numpy.roots.calls": "count",
    "certify.reproduce_table.s": "s",
    "certify.admissible_primes.s": "s",
    "certify.check_theorem.calls": "count",
    "certify.deep_certificate.calls": "count",
    "certify.deep_certificate.self_s": "s",
    "cli_io.parse_curve_table.s": "s",
    "cli_io.parse_curve_table.rows": "count",
    "setup.numpy_import_s": "s",
    "setup.twistcheck_import_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, detail, failed]
        self.counts = {"curves.discriminant.evals": 0, "numpy.roots.calls": 0}
        self._stack: list[int] = []
        self._undo: list = []

    def _span_wrapper(self, name, fn, detail):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, False]
            spans.append(span)
            stack.append(index)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if detail is not None and not span[5]:
                    span[4] = detail(args, result)

        return traced

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy

        from twistcheck import curves

        modules = [m for n, m in sys.modules.items() if n == "twistcheck" or n.startswith("twistcheck.")]
        for mod_name, fn_name, detail in TARGETS:
            fn = getattr(sys.modules[f"twistcheck.{mod_name}"], fn_name)
            wrapper = self._span_wrapper(f"{mod_name}.{fn_name}", fn, detail)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        self._patch(numpy, "roots", self._count_wrapper("numpy.roots.calls", numpy.roots))
        prop = curves.CurveModel.discriminant
        self._patch(
            curves.CurveModel,
            "discriminant",
            property(self._count_wrapper("curves.discriminant.evals", prop.fget)),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of one round, except the setup.* imports."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        detail: dict[str, int] = {}
        failed: dict[str, int] = {}
        for i, (name, start, end, parent, extra, fail) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            detail[name] = detail.get(name, 0) + extra
            failed[name] = failed.get(name, 0) + fail
            total[name] = total.get(name, 0.0) + (end - start)
        lr_calls = calls.get("lseries.algebraic_l_ratio", 0)
        periods = calls.get("lseries.period_of_model", 0)
        out = {}
        for metric in LAYER_METRICS:
            if metric.startswith("setup.") or metric in self.counts:
                continue
            layer, fn, kind = metric.split(".")
            name = f"{layer}.{fn}"
            if kind == "calls":
                out[metric] = calls.get(name, 0)
            elif kind == "s":
                out[metric] = total.get(name, 0.0)
            elif kind == "self_s":
                out[metric] = self_s.get(name, 0.0)
            elif kind == "failed":
                out[metric] = failed.get(name, 0)
            elif kind == "hit_ratio":
                out[metric] = 1.0 - periods / lr_calls if lr_calls else 0.0
            else:  # p_sum, n_max_sum, rows: the recorded detail, summed
                out[metric] = detail.get(name, 0)
        out.update(self.counts)
        return out


def median_metrics(rounds: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
