"""The benchmark's tracer wraps library functions by name; each must exist.

`benchmarks/tracer.py` is read and executed as a fresh module (nothing is
imported from or written to `benchmarks/`), and every (module, attribute)
in its `TARGETS` must resolve on the `nakayama` package, so renaming a
traced function fails the test suite and not only a benchmark run.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def test_every_traced_target_resolves():
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer.__dict__)
    missing = []
    for layer, attr, _metric, _mode in tracer.TARGETS:
        owner = importlib.import_module(f"nakayama.{layer}")
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
            found = owner is not None and name in vars(owner)
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append(f"nakayama.{layer}.{attr}")
    assert not missing, f"benchmarks/tracer.py traces missing names: {missing}"
