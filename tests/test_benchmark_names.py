"""The names the benchmark's traced run wraps exist in the package.

perfbench/child.py raises at run time if a traced function or a verify suite
is gone; this catches the same break without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

from anomaly_flow import verify

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _child():
    """perfbench/child.py as a module: its definitions only, no tracer installed."""
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve_and_suites_match():
    child = _child()
    for name in child.TRACED_NAMES:
        mod, _, attr = name.partition(".")
        obj = importlib.import_module(f"anomaly_flow.{mod}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{name} is not a function of anomaly_flow"
    assert [f.__name__ for f in verify.ALL_SUITES] == list(child.SUITES)
