"""Spans around calls into grover_forge's modules, recorded from outside.

`instrument` swaps every public function of each package module, wherever
the package binds it, for a wrapper that records a span; it also wraps the
gate kernel (one span per applied gate, named by gate kind) and the gate and
circuit validators. The program's code is not edited: calls that go through
module globals reach the wrappers. `undo` puts the originals back.

Spans live in flat arrays so that a few hundred thousand of them stay small,
and are written out once, at the end of the run, as one JSON document.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import defaultdict

MODULES = ("targets", "dichotomy", "ir", "synth", "reduced", "lowering",
           "qasm", "engine", "complexity")
VALIDATED = ("Single", "Controlled", "PatternPhase", "Circuit")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[str] = []
        self.op = -1
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, dict] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_op(self, label: str) -> None:
        self.ops.append(label)
        self.op = len(self.ops) - 1

    def begin(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def __len__(self):
        return len(self.start)

    def self_times(self, ops: set[int]) -> dict[str, list]:
        """{layer: [self seconds, spans]} over the spans of `ops`. A span's
        self time is its duration minus that of its direct children."""
        child = defaultdict(float)
        for sid in range(len(self)):
            if self.op_of[sid] in ops and self.parent[sid] >= 0:
                child[self.parent[sid]] += self.end[sid] - self.start[sid]
        layers: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for sid in range(len(self)):
            if self.op_of[sid] in ops:
                entry = layers[layer_of(self.names[self.name_of[sid]])]
                entry[0] += self.end[sid] - self.start[sid] - child[sid]
                entry[1] += 1
        return dict(layers)

    def count_totals(self, ops: set[int]) -> dict[str, int]:
        """Counts recorded at span boundaries, summed per `<span>.<count>`."""
        totals: dict[str, int] = defaultdict(int)
        for sid, counts in self.counts.items():
            if self.op_of[sid] in ops:
                name = self.names[self.name_of[sid]]
                for key, value in counts.items():
                    totals[f"{name}.{key}"] += value
        return dict(totals)

    def dump(self, path) -> None:
        """Write the spans as columns: span i has name names[name[i]],
        runs from start[i] to end[i] (microseconds from the first span),
        has parent span parent[i] (-1 for none) and belongs to operation
        ops[op[i]]; counts maps span ids to what was counted there."""
        t0 = self.start[0] if len(self) else 0.0
        doc = {"names": self.names, "ops": self.ops,
               "name": list(self.name_of), "parent": list(self.parent),
               "op": list(self.op_of),
               "start": [round((t - t0) * 1e6, 3) for t in self.start],
               "end": [round((t - t0) * 1e6, 3) for t in self.end],
               "counts": {str(k): v for k, v in self.counts.items()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name_id", "sid")

    def __init__(self, tracer, name_id):
        self.tracer, self.name_id = tracer, name_id

    def __enter__(self):
        self.sid = self.tracer.begin(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer.finish(self.sid)
        return False


def layer_of(name: str) -> str:
    """Layers are modules; the kernel's gate kinds and the validators are
    layers of their own, because they are what the workloads separate."""
    if name.startswith("ir.apply[") or name == "ir.validate":
        return name
    return name.split(".", 1)[0]


def _result_counts(name: str, result) -> dict:
    """Gates in a returned circuit; bytes of emitted QASM text."""
    circuit = result[0] if isinstance(result, tuple) and result else result
    gates = getattr(circuit, "gates", None)
    if isinstance(gates, tuple):
        return {"gates": len(gates)}
    if name.startswith("qasm.") and isinstance(result, str):
        return {"bytes": len(result)}
    return {}


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid = tracer.begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.finish(sid)
                yield item
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.counts.setdefault(sid, {})["raised"] = 1
            raise
        finally:
            tracer.finish(sid)
        counts = _result_counts(name, result)
        if counts:
            tracer.counts.setdefault(sid, {}).update(counts)
        return result
    return traced


def _wrap_kernel(tracer: Tracer, fn):
    ids = {kind: tracer.name_id(f"ir.apply[{kind}]")
           for kind in ("Single", "Controlled", "PatternPhase")}

    @functools.wraps(fn)
    def traced(amps, n, gate):
        sid = tracer.begin(ids[type(gate).__name__])
        try:
            return fn(amps, n, gate)
        finally:
            tracer.finish(sid)
    return traced


def instrument(tracer: Tracer):
    """Wrap the package's module boundaries; returns the function that
    removes the wrappers again."""
    import importlib
    package = importlib.import_module("grover_forge")
    modules = [importlib.import_module(f"grover_forge.{m}") for m in MODULES]
    namespaces = [package, importlib.import_module("grover_forge.cli"),
                  *modules]
    replaced = {}
    for short, module in zip(MODULES, modules):
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == module.__name__):
                replaced[id(fn)] = (fn, _wrap(tracer, f"{short}.{name}", fn))
    ir = modules[MODULES.index("ir")]
    kernel = getattr(ir, "_apply_inplace", None)
    if kernel is not None:
        replaced[id(kernel)] = (kernel, _wrap_kernel(tracer, kernel))

    undo = []
    for ns in namespaces:
        for name, value in list(vars(ns).items()):
            if id(value) in replaced and replaced[id(value)][0] is value:
                setattr(ns, name, replaced[id(value)][1])
                undo.append((ns, name, value))
    for cls_name in VALIDATED:
        cls = getattr(ir, cls_name, None)
        post_init = getattr(cls, "__post_init__", None)
        if post_init is not None:
            setattr(cls, "__post_init__",
                    _wrap(tracer, "ir.validate", post_init))
            undo.append((cls, "__post_init__", post_init))

    def remove():
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)
    return remove
