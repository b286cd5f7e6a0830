"""Layer tracing from outside the program.

Wrappers are set on the module attribute each caller resolves through, so a
call that goes ``cli -> sysid.identify_family -> fit_output_error`` is seen at
every boundary without editing ``src/``.  Two attributes need care:

* names bound with ``from x import y`` live in the importing module as well:
  ``twindisc.matching.simulate_closed_loop`` and ``twindisc.cli.select_nominal``;
* ``twindisc.nugap`` on the package is the function, not the module, so
  modules are taken from ``importlib.import_module``.

Each wrapped call is a span (name, start, end, parent) kept in memory.
``numpy.roots`` is too hot for spans: it is counted and timed, and charged to
the module of the innermost open span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); the span name is the layer and function the
# call lands in, whichever module it was resolved through.
TRACE_POINTS = (
    ("twindisc.cli", "main", "cli.main"),
    ("twindisc.cli", "discriminate_datasets", "cli.discriminate_datasets"),
    ("twindisc.cli", "write_report", "cli.write_report"),
    ("twindisc.cli", "select_nominal", "nugap.select_nominal"),
    ("twindisc.configio", "load_sim_config", "configio.load"),
    ("twindisc.configio", "load_params_file", "configio.load"),
    ("twindisc.twin", "simulate_closed_loop", "twin.simulate_closed_loop"),
    ("twindisc.twin", "write_csv", "twin.write_csv"),
    ("twindisc.twin", "read_csv", "twin.read_csv"),
    ("twindisc.matching", "simulate_closed_loop", "twin.simulate_closed_loop"),
    ("twindisc.matching", "match_parameters", "matching.match_parameters"),
    ("twindisc.sysid", "identify_family", "sysid.identify_family"),
    ("twindisc.sysid", "fit_output_error", "sysid.fit_output_error"),
    ("twindisc.sysid", "fit_noise_model", "sysid.fit_noise_model"),
    ("twindisc.sysid", "one_step_residuals", "sysid.one_step_residuals"),
    ("twindisc.coding", "simo_information_gain", "coding.simo_information_gain"),
    ("twindisc.criteria", "simo_criteria", "criteria.simo_criteria"),
    ("twindisc.lti", "simulate", "lti.simulate"),
    ("twindisc.nugap", "nugap", "nugap.nugap"),
    ("twindisc.nugap", "select_nominal", "nugap.select_nominal"),
)


def _order_label(order) -> str:
    return order if isinstance(order, str) else order.label


class Span:
    __slots__ = ("name", "start", "end", "parent", "result")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.result = None


class Tracer:
    """Collects spans and the ``numpy.roots`` counter while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.roots = defaultdict(lambda: [0, 0.0])  # layer -> [calls, seconds]
        self._saved: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.roots.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, self._open[-1] if self._open else None)
            if name == "sysid.fit_output_error":
                order = args[2] if len(args) > 2 else kwargs["order"]
                span.name = f"{name}.{_order_label(order)}"
            self.spans.append(span)
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return traced

    def _wrap_roots(self, fn):
        @functools.wraps(fn)
        def traced(p):
            t0 = time.perf_counter()
            try:
                return fn(p)
            finally:
                layer = self._open[-1].name.split(".", 1)[0] if self._open else ""
                slot = self.roots[layer]
                slot[0] += 1
                slot[1] += time.perf_counter() - t0

        return traced

    def __enter__(self):
        for module_name, attr, span_name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))
        self._saved.append((np, "roots", np.roots))
        np.roots = self._wrap_roots(np.roots)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


class LayerTotals:
    """Per-name call counts and inclusive seconds of one batch of spans."""

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.results = defaultdict(list)
        for span in spans:
            for name in _names(span.name):
                self.calls[name] += 1
                self.seconds[name] += span.end - span.start
                self.results[name].append(span.result)


def count_under(spans, ancestor: str, name: str) -> int:
    """Spans named ``name`` that ran inside a span named ``ancestor``."""
    count = 0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name != ancestor:
            parent = parent.parent
        count += parent is not None
    return count


def _names(span_name: str):
    """A per-order fit span also counts toward the family-wide name."""
    yield span_name
    if span_name.startswith("sysid.fit_output_error."):
        yield "sysid.fit_output_error"
