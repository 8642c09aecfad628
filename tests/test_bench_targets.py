"""The traced benchmark wraps deepa2 functions by name; a rename or removal
in the package must show here, not only when the benchmark is run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    """(name, resolved value or None, key function or None) per target."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, qualname, _span, key in spans.TARGETS:
        value = importlib.import_module(module_name)
        for part in qualname.split("."):
            value = getattr(value, part, None)
        yield f"{module_name}.{qualname}", value, key


def test_every_traced_target_resolves():
    missing = [name for name, value, _key in _targets() if not callable(value)]
    assert not missing


def test_key_functions_match_their_targets():
    """A key function sees a call's arguments as the target does: each named
    parameter of the key is the target's parameter at the same position."""
    catch_alls = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    mismatched = []
    for name, target, key in _targets():
        if key is None:
            continue
        target_params = list(inspect.signature(target).parameters)
        for position, param in enumerate(inspect.signature(key).parameters.values()):
            if param.kind in catch_alls:
                continue
            if target_params[position:position + 1] != [param.name]:
                mismatched.append(f"{name}: key parameter {position} {param.name!r}")
    assert not mismatched
