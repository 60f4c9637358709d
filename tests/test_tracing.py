"""The benchmark tracer binds functions of simpart by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_target_resolves():
    # the tracer leaves out the metrics of a target it cannot resolve, so a
    # renamed function would drop them from every traced benchmark result
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for module, path, _, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            unresolved.append(f"{module}:{path}")
    assert unresolved == []
