"""The benchmark's tracer patches twistcheck by name; these names must resolve."""

import importlib
import importlib.util
from pathlib import Path

from twistcheck.curves import CurveModel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    targets = load_tracing().TARGETS
    assert targets
    for mod_name, fn_name, _ in targets:
        module = importlib.import_module(f"twistcheck.{mod_name}")
        assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)


def test_discriminant_is_a_property():
    # the curves.discriminant.evals counter wraps the property's getter
    assert isinstance(CurveModel.__dict__["discriminant"], property)
