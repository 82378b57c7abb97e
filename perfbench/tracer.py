"""Traced runs: span timing around the layer boundaries of fell_lab.

The program is not instrumented.  ``Tracer.install`` replaces each function
named in ``SPANS`` by a timing wrapper in every fell_lab module namespace
that binds it, so calls made through ``from .spaces import resolve_orbit``
are timed as well as calls through ``spaces.resolve_orbit``; methods are
wrapped on their class.  ``Tracer.remove`` restores every binding.

Spans nest through a stack: a span's self time is its duration minus the
durations of the spans it called.  Only per-span totals are kept.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("spaces", "conv", "ktheory", "scenarios", "cli")

# The layer boundaries, as "<module>.<function>" or "<module>.<Class>.<method>".
SPANS = (
    "spaces.resolve_orbit",
    "spaces.sample_base_points",
    "spaces.model_from_dict",
    "conv.evaluate",
    "conv.verify_projection",
    "conv.verify_fullness_witness",
    "conv.check_branch_continuity",
    "conv.grid_element",
    "conv.GridRule.lookup",
    "ktheory.smith_normal_form",
    "ktheory.solve_six_term",
    "ktheory.ses_from_dict",
    "scenarios.run_scenario",
    "cli.main",
)


class Tracer:
    """Per-span call counts and self times, accumulated over installs."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        self.samples_verified = 0  # samples passed through conv.verify_projection
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"fell_lab.{m}") for m in MODULES]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for span in SPANS:
            module, _, attr = span.partition(".")
            owner = by_name[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._rebind(owner, attr, self._wrap(span, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for ns in modules:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._rebind(ns, name, wrapper)

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()

    def _rebind(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, span: str, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        count_samples = span == "conv.verify_projection"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time spent in child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[span] += 1
                self_s[span] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if count_samples:
                self.samples_verified += result.samples_used
            return result

        return traced
