"""Span tracing from outside the simulator, for the benchmark's traced runs.

The traced run wraps the public boundary of each layer (named after the
``repro`` module it lives in) with a timing wrapper installed on the
class or module attribute *before* the processor is built, and restores
every original afterwards.  Nothing inside ``src/`` is edited.

Spans go onto a per-thread in-memory stack.  A span's self time is its
duration minus the time its child spans cover; the aggregate per
``(parent span, span)`` edge is what gets written out when the run ends
(one record per simulated cycle would not fit in memory).  Counts are
recorded at the same boundaries, through ``observe`` callbacks.

A hook point that no longer exists (a refactor renamed or inlined the
method) is reported, never raised: its layer shows up as unmeasured.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

TOP_LEVEL = "<top>"
_ABSENT = object()


@dataclass(frozen=True)
class HookPoint:
    """One wrapped boundary: ``module.owner.attr`` (``owner`` None for a
    module-level function) timed as a span of ``layer``."""

    module: str
    owner: Optional[str]
    attr: str
    layer: str

    @property
    def name(self) -> str:
        return f"{self.owner or self.module}.{self.attr}"


class _ThreadState:
    __slots__ = ("stack", "edges")

    def __init__(self) -> None:
        # Each frame is [span name, start, time covered by children].
        self.stack: List[list] = []
        # (parent name, name) -> [calls, total seconds, self seconds]
        self.edges: Dict[Tuple[str, str], list] = {}


class Tracer:
    """In-memory span stacks, one per thread, merged when read."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layer_of: Dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def enter(self, name: str) -> None:
        self._state().stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        now = self.clock()
        state = self._state()
        stack = state.stack
        name, start, covered = stack.pop()
        duration = now - start
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_name = parent[0]
        else:
            parent_name = TOP_LEVEL
        edge = state.edges.get((parent_name, name))
        if edge is None:
            edge = state.edges[(parent_name, name)] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - covered

    def span(self, name: str, layer: str) -> "_Span":
        """Context manager timing the block as a span of ``layer``."""
        self.layer_of[name] = layer
        return _Span(self, name)

    def wrap(self, func: Callable, name: str, layer: str,
             observe: Optional[Callable] = None) -> Callable:
        """``func`` timed as span ``name``; ``observe(args, result)``
        records counts at the same boundary."""
        self.layer_of[name] = layer
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                exit_()
            if observe is not None:
                observe(args, result)
            return result

        return _adopt(wrapper, func)

    # -- reading --------------------------------------------------------

    def edges(self) -> Dict[Tuple[str, str], list]:
        merged: Dict[Tuple[str, str], list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, total, own) in state.edges.items():
                edge = merged.setdefault(key, [0, 0.0, 0.0])
                edge[0] += calls
                edge[1] += total
                edge[2] += own
        return merged

    def spans(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        table: Dict[str, dict] = {}
        for (_parent, name), (calls, total, own) in self.edges().items():
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += own
        return table

    def layer_self(self) -> Dict[str, float]:
        """Self seconds summed per layer."""
        totals: Dict[str, float] = collections.defaultdict(float)
        for name, row in self.spans().items():
            totals[self.layer_of.get(name, name)] += row["self_s"]
        return dict(totals)

    def root_seconds(self) -> float:
        """Inclusive seconds of the outermost spans."""
        return sum(total for (parent, _), (_c, total, _s)
                   in self.edges().items() if parent == TOP_LEVEL)

    def dump(self) -> dict:
        """The aggregated span tree, JSON-ready."""
        return {
            "edges": [
                {"parent": parent, "span": name,
                 "layer": self.layer_of.get(name, name),
                 "calls": calls, "total_s": total, "self_s": own}
                for (parent, name), (calls, total, own)
                in sorted(self.edges().items())],
        }


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.exit()


# -- installing hook points ----------------------------------------------

class Installation:
    """Wrappers installed for one traced run; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: Dict[str, List[str]] = collections.defaultdict(list)
        self.installed: Dict[str, List[str]] = collections.defaultdict(list)

    def set(self, target, attr: str, value) -> None:
        """Replace ``target.attr``; :meth:`restore` puts back exactly what
        the target's own namespace held (nothing, for an inherited one)."""
        self._undo.append((target, attr, vars(target).get(attr, _ABSENT)))
        setattr(target, attr, value)

    def restore(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            if original is _ABSENT:
                delattr(target, attr)
            else:
                setattr(target, attr, original)

    def unmeasured(self) -> Dict[str, str]:
        """Layers none of whose hook points could be installed."""
        return {layer: "hook point(s) not found: " + ", ".join(names)
                for layer, names in self.missing.items()
                if not self.installed.get(layer)}

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def _resolve(point: HookPoint):
    """``(owner object, original)`` or None when the point is gone."""
    try:
        module = importlib.import_module(point.module)
    except ImportError:
        return None
    owner = module if point.owner is None else getattr(module, point.owner,
                                                       None)
    if owner is None:
        return None
    if point.owner is not None:
        original = vars(owner).get(point.attr)
    else:
        original = getattr(owner, point.attr, None)
    if not callable(original):
        return None
    return owner, original


def _adopt(wrapper: Callable, func: Callable) -> Callable:
    """Give ``wrapper`` the identity of the function it wraps."""
    wrapper.__wrapped__ = func
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(func, attr, None))
    return wrapper


def install(points, installation: Installation,
            make_wrapper: Callable) -> Installation:
    """Replace every resolvable point with ``make_wrapper(original,
    point)``; record the missing ones by layer.

    Module-level functions are replaced in every loaded ``repro`` module
    that imported them by name, so ``from x import f`` call sites are
    wrapped too.
    """
    for point in points:
        resolved = _resolve(point)
        if resolved is None:
            installation.missing[point.layer].append(point.name)
            continue
        owner, original = resolved
        wrapper = make_wrapper(original, point)
        if point.owner is not None:
            installation.set(owner, point.attr, wrapper)
        else:
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and \
                        getattr(module, point.attr, None) is original:
                    installation.set(module, point.attr, wrapper)
        installation.installed[point.layer].append(point.name)
    return installation


def trace(tracer: Tracer, points, installation: Installation,
          observers: Optional[Dict[str, Callable]] = None) -> Installation:
    """Install ``tracer`` spans on ``points``; ``observers`` maps a span
    name to its ``observe(args, result)`` count recorder."""
    observers = observers or {}
    return install(points, installation, lambda original, point: tracer.wrap(
        original, point.name, point.layer, observers.get(point.name)))


# -- hook point catalogue --------------------------------------------------

_PROC = "repro.pipeline.processor"

#: Stepper layers: the processor stages step()/run_fast dispatch to, and
#: the public boundaries of the trace, memory and branch layers.
STEPPER_POINTS = (
    HookPoint(_PROC, "SMTProcessor", "step", "pipeline"),
    HookPoint(_PROC, "SMTProcessor", "_process_l2_detections",
              "pipeline.writeback"),
    HookPoint(_PROC, "SMTProcessor", "_writeback", "pipeline.writeback"),
    HookPoint(_PROC, "SMTProcessor", "_commit", "pipeline.commit"),
    HookPoint(_PROC, "SMTProcessor", "_issue", "pipeline.issue"),
    HookPoint(_PROC, "SMTProcessor", "_rename", "pipeline.rename"),
    HookPoint(_PROC, "SMTProcessor", "_fetch", "pipeline.fetch"),
    HookPoint("repro.pipeline.fastpath", None, "run_fast", "pipeline"),
    HookPoint("repro.pipeline.fastpath", None, "quiescence_horizon",
              "fastpath"),
    HookPoint("repro.trace.generator", "TraceBuffer", "get", "trace"),
    HookPoint("repro.trace.generator", "TraceBuffer", "wrong_path_op",
              "trace"),
    HookPoint("repro.mem.hierarchy", "MemoryHierarchy", "access_load", "mem"),
    HookPoint("repro.mem.hierarchy", "MemoryHierarchy", "access_store",
              "mem"),
    HookPoint("repro.mem.hierarchy", "MemoryHierarchy", "access_ifetch",
              "mem"),
    HookPoint("repro.mem.hierarchy", "MemoryHierarchy", "tick", "mem"),
    HookPoint("repro.branch.unit", "BranchUnit", "predict_and_train",
              "branch"),
)

#: Every hook a policy may override; wrapped on each class defining it.
POLICY_HOOKS = ("begin_cycle", "end_cycle", "fetch_order", "quiesce_horizon",
                "may_rename", "on_rename", "on_commit", "on_load_issued",
                "on_l1d_miss", "on_l2_miss_detected", "on_l2_fill")


def policy_points() -> List[HookPoint]:
    """Hook points of the policy base class and every loaded subclass."""
    try:
        from repro.policies import registry  # noqa: F401 - loads them all
        from repro.policies.base import Policy
    except ImportError:
        return [HookPoint("repro.policies.base", "Policy", hook, "policies")
                for hook in POLICY_HOOKS]
    classes, pending = [], [Policy]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    return [HookPoint(cls.__module__, cls.__name__, hook, "policies")
            for cls in classes for hook in POLICY_HOOKS
            if hook in vars(cls) or cls is Policy]


#: Harness layers driven by the campaign and the broker (parent process).
HARNESS_POINTS = (
    HookPoint("repro.harness.results", "ResultStore", "get", "results"),
    HookPoint("repro.harness.results", "ResultStore", "put", "results"),
    HookPoint("repro.harness.checkpoints", "CheckpointStore", "get",
              "checkpoints"),
    HookPoint("repro.harness.checkpoints", "CheckpointStore", "put",
              "checkpoints"),
    HookPoint("repro.harness.runner", "BaselineCache", "put", "baselines"),
    HookPoint("repro.harness.scenario", "Scenario", "compile", "scenario"),
)

#: Simulation entry points timed in whichever process runs them.
SIM_POINTS = (
    HookPoint("repro.harness.runner", None, "run_benchmarks", "runner"),
    HookPoint("repro.harness.runner", None, "run_benchmarks_intervals",
              "runner"),
)


class ProcessSpanLog:
    """Outermost simulation spans of every process, appended to files.

    Pool workers forked after :meth:`install` inherit the wrappers; each
    process appends one JSON line per outermost span to its own file
    under ``directory``, which the parent reads back.  A pool started
    another way records nothing, and the layer reads as unmeasured.
    """

    def __init__(self, directory: str,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.directory = directory
        self.clock = clock
        self._depth: Dict[int, int] = collections.defaultdict(int)

    def wrap(self, func: Callable, name: str) -> Callable:
        log = self

        def wrapper(*args, **kwargs):
            pid = os.getpid()
            log._depth[pid] += 1
            start = log.clock()
            value = None
            try:
                value = func(*args, **kwargs)
                return value
            finally:
                end = log.clock()
                log._depth[pid] -= 1
                if log._depth[pid] == 0:
                    log._write(pid, name, start, end, value)

        return _adopt(wrapper, func)

    def _write(self, pid: int, name: str, start: float, end: float,
               value) -> None:
        # Interval runs return the aggregate as ``.result``.
        result = getattr(value, "result", value)
        cycles = getattr(result, "cycles", None)
        if isinstance(cycles, int):
            cycles += getattr(result, "warmup_cycles", None) or 0
        path = os.path.join(self.directory, f"spans-{pid}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps({"pid": pid, "span": name, "start": start,
                                     "end": end, "cycles": cycles}) + "\n")

    def install(self, points, installation: Installation) -> Installation:
        """Wrap ``points`` with this log's outermost-span records."""
        return install(points, installation, lambda original, point:
                       self.wrap(original, point.name))

    def read(self) -> List[dict]:
        records = []
        for entry in sorted(os.listdir(self.directory)):
            if entry.startswith("spans-"):
                with open(os.path.join(self.directory, entry)) as handle:
                    records.extend(json.loads(line) for line in handle)
        return records
