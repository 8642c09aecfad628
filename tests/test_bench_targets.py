"""The traced benchmark wraps deepa2 functions by name; a rename or removal
in the package must show here, not only when the benchmark is run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, qualname, _span, _key in spans.TARGETS:
        value = importlib.import_module(module_name)
        for part in qualname.split("."):
            value = getattr(value, part, None)
        if not callable(value):
            missing.append(f"{module_name}.{qualname}")
    assert not missing
