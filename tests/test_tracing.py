"""The benchmark's layer tracer must find every function it wraps.

``perfbench/tracing.py`` patches each ``(module, attribute)`` of its
``TRACE_POINTS`` when a traced run starts; a name that moved or was removed
from the package makes ``Tracer.__enter__`` raise ``AttributeError``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_trace_point_resolves():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in tracing.TRACE_POINTS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
