"""The benchmark's tracer names tokmoe functions; they must keep resolving.

``bench/tracer.py`` wraps each ``<module>.<name>`` in its ``TRACED`` table at
run time, so a rename in ``src/`` would otherwise surface only as an
AttributeError inside a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_resolves_in_tokmoe():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, name) for module, names in tracer.TRACED.items() for name in names]
    assert names
    missing = []
    for module, name in names:
        owner = importlib.import_module(f"tokmoe.{module}")
        for part in name.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{name}")
    assert missing == []
