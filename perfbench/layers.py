"""Per-layer spans recorded from outside the program.

:class:`SpanRecorder` wraps the public entry points of each layer in
timing wrappers.  No code under ``src/`` changes: every function is
patched where its callers look it up, so a function imported by name
into several modules is rebound in each of them, and a method is
replaced on the class that defines it.

Spans are kept in memory as ``[name, start, end, parent]`` (times from
``time.monotonic``, which is system-wide on Linux, so spans written by
a server process line up with the client's clock) and written out once,
when the traced process ends.  A layer's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Modules imported before patching, so that every module that binds a
#: patched function by name is already loaded and gets rebound.
PRELOAD = (
    "repro.analysis.availability",
    "repro.analysis.sweep",
    "repro.core.performability",
    "repro.core.selection",
    "repro.core.whatif",
    "repro.fleet.frontier",
    "repro.fleet.routing",
    "repro.fleet.sim",
    "repro.outages.generator",
    "repro.runner.executor",
    "repro.runner.jobs",
    "repro.serve.analyses",
    "repro.sim.yearly",
    "repro.techniques.base",
    "repro.vsim.kernel",
    "repro.vsim.yearly",
)

#: Span names whose call counts and inclusive times are reported.
TIMED = (
    "vsim.kernel",
    "outages.sample_year",
    "core.make_datacenter",
    "techniques.compile_plan",
    "fleet.route",
    "fleet.reduce",
    "sim.run_schedule",
    "runner.fingerprint",
    "analysis.prepare",
    "analysis.reduce",
)

#: Span names whose self time is reported.
SELF_TIMED = ("vsim.year_block", "fleet.year", "runner.executor")


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        #: Extra per-span-name tallies (``vsim.kernel`` counts cells).
        self.tallies: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.monotonic(), None, parent])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._stack().pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        tally: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """``fn`` inside a span called ``name``.

        ``tally(*args, **kwargs)`` adds a work count for the call to
        ``tallies[name]``.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tally is not None:
                with self._lock:
                    self.tallies[name] += tally(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans and tallies as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "tallies": dict(self.tallies)}, handle)


def _rebind_everywhere(original: Any, replacement: Any) -> List[tuple]:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``; returns ``(module, attr, original)`` undo records."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Patch every layer entry point; returns a function that undoes it."""
    for name in PRELOAD:
        importlib.import_module(name)
    from repro.analysis.availability import AvailabilityAnalyzer
    from repro.core import performability
    from repro.fleet import frontier, routing, sim
    from repro.outages.generator import OutageGenerator
    from repro.runner import executor
    from repro.runner.jobs import Job
    from repro.sim.yearly import YearlyRunner
    from repro.techniques.base import OutageTechnique
    from repro.vsim import yearly as vyearly
    from repro.vsim.kernel import PlanKernel

    undo: List[tuple] = []
    wrap = recorder.wrap

    def function(name: str, original: Callable) -> None:
        undo.extend(_rebind_everywhere(original, wrap(name, original)))

    def method(name: str, cls: type, attr: str, **kwargs: Any) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrap(name, original, **kwargs))
        undo.append((cls, attr, original))

    function("vsim.year_block", vyearly.simulate_year_block)
    function("core.make_datacenter", performability.make_datacenter)
    function("fleet.year", sim.simulate_fleet_year)
    function("fleet.route", routing.route_fleet_year)
    function("fleet.reduce", sim.reduce_fleet_years)
    function("fleet.reduce", frontier.reduce_fleet_frontier)
    function("runner.job", executor._execute_job)
    method(
        "vsim.kernel", PlanKernel, "run",
        tally=lambda self, outage_seconds, *a, **k: len(outage_seconds),
    )
    method("outages.sample_year", OutageGenerator, "sample_year")
    method("sim.run_schedule", YearlyRunner, "run_schedule")
    method("techniques.compile_plan", OutageTechnique, "compile_plan")
    method("runner.executor", executor.BaseExecutor, "run")

    # Job.fingerprint is a memoised property: only the first read of
    # each job encodes anything, so only that read opens a span.
    fingerprint = Job.__dict__["fingerprint"]
    timed_fingerprint = wrap("runner.fingerprint", fingerprint.fget)

    def read_fingerprint(job: Job) -> str:
        cached = job.__dict__.get("_fingerprint")
        return cached if cached is not None else timed_fingerprint(job)

    Job.fingerprint = property(read_fingerprint)
    undo.append((Job, "fingerprint", fingerprint))

    # prepare() returns (jobs, reduce); the reduce closure is the
    # analysis layer's second public step.
    prepare = AvailabilityAnalyzer.__dict__["prepare"]
    timed_prepare = wrap("analysis.prepare", prepare)

    @functools.wraps(prepare)
    def prepare_with_reduce(*args: Any, **kwargs: Any):
        jobs, reduce = timed_prepare(*args, **kwargs)
        return jobs, wrap("analysis.reduce", reduce)

    AvailabilityAnalyzer.prepare = prepare_with_reduce
    undo.append((AvailabilityAnalyzer, "prepare", prepare))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _covered(intervals: Iterable[Sequence[float]]) -> float:
    """Total length of the union of ``[start, end]`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def summarize(
    spans: Sequence[Sequence[Any]],
    tallies: Optional[Dict[str, int]] = None,
    since: float = float("-inf"),
) -> Dict[str, Tuple[float, str]]:
    """Per-layer calls, inclusive seconds and self seconds, as
    ``{metric: (value, unit)}``.

    Only spans that start at or after ``since`` count; self time still
    subtracts every child span.  Spans still open (a server stopped
    mid-call) are skipped.
    """
    children: Dict[int, List[Sequence[float]]] = defaultdict(list)
    for span in spans:
        name, start, end, parent = span
        if parent is not None and end is not None:
            children[parent].append((start, end))
    calls: Dict[str, int] = defaultdict(int)
    inclusive: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        if end is None or start < since:
            continue
        calls[name] += 1
        inclusive[name] += end - start
        own[name] += (end - start) - _covered(children.get(index, ()))
    out: Dict[str, Tuple[float, str]] = {}
    for name in sorted(set(TIMED) | set(SELF_TIMED)):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        if name in TIMED:
            out[f"{name}.s"] = (inclusive.get(name, 0.0), "s")
        if name in SELF_TIMED:
            out[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    out["vsim.kernel.cells"] = ((tallies or {}).get("vsim.kernel", 0), "count")
    return out
