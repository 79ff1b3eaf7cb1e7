"""Every function the benchmark's span tracer wraps still exists in codecert,
so that deleting or renaming one cannot silently break `bench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name, module, path in tracing.TARGETS:
        # the lookup Tracer.install makes
        owner = importlib.import_module(f"codecert.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), name
