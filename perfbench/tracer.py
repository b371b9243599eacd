"""Span tracer that wraps cliffcert's public functions from outside the package.

Each public function of a layer module is replaced, in every namespace that
holds it (its home module, the modules that imported it by name, the
package namespace, and module-level dicts such as the CLI's command
table), by a wrapper that records one span per call.  Three class members
are wrapped as well: the ``DensityMatrix.from_matrix`` classmethod, the
``GradedExpansion.reconstruct`` method and the ``GeneratorSet.dense_extended``
cached property.  Spans stay in memory; :meth:`Tracer.restore` puts every
original back.

A span's self time is its duration minus the durations of its direct child
spans.  The tracer keeps one span stack, so it assumes the traced code runs
on one thread (the benchmark pins ``CLIFFCERT_THREADS=1``).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
import types
from collections import defaultdict
from functools import cached_property

import numpy as np

LAYERS = ("pauli", "clifford", "states", "rotors", "uncertainty", "cli")
# (module, class, attribute, span name) of the wrapped class members.
MEMBERS = (
    ("states", "DensityMatrix", "from_matrix", "states.from_matrix"),
    ("states", "GradedExpansion", "reconstruct", "states.reconstruct"),
    ("clifford", "GeneratorSet", "dense_extended", "clifford.dense_extended"),
)

COUNT = "count"
# Per-layer metrics reported by a traced run: (name, unit, better).  A name
# "<span>.calls"/".builds" counts spans, "<span>.self_s" sums self time, and
# any other suffix sums the counter of that name recorded by the span.
METRICS = (
    ("pauli.to_dense.calls", COUNT, "lower"),
    ("pauli.to_dense.self_s", "s", "lower"),
    ("pauli.to_dense.bytes_out", COUNT, "lower"),
    ("pauli.to_dense.distinct_ratio", COUNT, "higher"),
    ("pauli.mul.calls", COUNT, "lower"),
    ("pauli.mul.self_s", "s", "lower"),
    ("clifford.jordan_wigner.calls", COUNT, "lower"),
    ("clifford.jordan_wigner.self_s", "s", "lower"),
    ("clifford.dense_extended.builds", COUNT, "lower"),
    ("clifford.dense_extended.self_s", "s", "lower"),
    ("clifford.graded_basis.calls", COUNT, "lower"),
    ("clifford.graded_basis.self_s", "s", "lower"),
    ("states.random_state_batch.calls", COUNT, "lower"),
    ("states.random_state_batch.self_s", "s", "lower"),
    ("states.random_state_batch.states", COUNT, "lower"),
    ("states.extended_expectations.calls", COUNT, "lower"),
    ("states.extended_expectations.self_s", "s", "lower"),
    ("states.extended_expectations.rows", COUNT, "lower"),
    ("states.extended_expectations.bytes_in", COUNT, "lower"),
    ("states.matrix_from_expectations.calls", COUNT, "lower"),
    ("states.matrix_from_expectations.self_s", "s", "lower"),
    ("states.matrix_from_expectations.rows", COUNT, "lower"),
    ("states.from_matrix.calls", COUNT, "lower"),
    ("states.from_matrix.self_s", "s", "lower"),
    ("states.expand.calls", COUNT, "lower"),
    ("states.expand.self_s", "s", "lower"),
    ("states.reconstruct.calls", COUNT, "lower"),
    ("states.reconstruct.self_s", "s", "lower"),
    ("rotors.lift.calls", COUNT, "lower"),
    ("rotors.lift.self_s", "s", "lower"),
    ("rotors.lift.angles", COUNT, "lower"),
    ("rotors.plane_rotor.calls", COUNT, "lower"),
    ("rotors.plane_rotor.self_s", "s", "lower"),
    ("rotors.plane_rotor.pseudo_share", COUNT, "lower"),
    ("rotors.flip_unitary.calls", COUNT, "lower"),
    ("rotors.flip_unitary.self_s", "s", "lower"),
    ("rotors.reduce_to_axis.calls", COUNT, "lower"),
    ("rotors.reduce_to_axis.self_s", "s", "lower"),
    ("rotors.conjugation_residual.calls", COUNT, "lower"),
    ("rotors.conjugation_residual.self_s", "s", "lower"),
    ("rotors.euler_decompose.calls", COUNT, "lower"),
    ("rotors.euler_decompose.self_s", "s", "lower"),
    ("uncertainty.find_minimizer.calls", COUNT, "lower"),
    ("uncertainty.find_minimizer.self_s", "s", "lower"),
    ("uncertainty.entropy_of_expectations.calls", COUNT, "lower"),
    ("uncertainty.entropy_of_expectations.self_s", "s", "lower"),
    ("uncertainty.entropy_of_expectations.rows", COUNT, "lower"),
    ("uncertainty.entropy_average.calls", COUNT, "lower"),
    ("uncertainty.entropy_average.self_s", "s", "lower"),
    ("cli.main.calls", COUNT, "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.cmd_verify.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _leading_rows(arr, trailing: int) -> int:
    """Number of stacked items in front of the last ``trailing`` axes (at least 1)."""
    return int(np.prod(np.shape(arr)[:-trailing], dtype=np.int64)) if np.ndim(arr) > trailing else 1


def _to_dense_counters(args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    return {"bytes_out": result.nbytes, "key": (p.n, p.phase, p.x.tobytes(), p.z.tobytes())}


def _expectations_counters(args, kwargs, result):
    mats = _arg(args, kwargs, 0, "mats")
    rows = _leading_rows(mats, 2)
    return {"rows": rows, "bytes_in": rows * np.shape(mats)[-1] ** 2 * 16}


# Counters recorded per call, from the arguments and the result.
COUNTERS = {
    "pauli.to_dense": _to_dense_counters,
    "states.random_state_batch": lambda a, kw, r: {"states": int(_arg(a, kw, 1, "count"))},
    "states.extended_expectations": _expectations_counters,
    "states.matrix_from_expectations":
        lambda a, kw, r: {"rows": _leading_rows(_arg(a, kw, 0, "g"), 1)},
    "rotors.plane_rotor":
        lambda a, kw, r: {"pseudo": int(0 in (_arg(a, kw, 1, "j"), _arg(a, kw, 2, "k")))},
    "uncertainty.entropy_of_expectations":
        lambda a, kw, r: {"rows": _leading_rows(_arg(a, kw, 0, "g"), 1)},
}


class Tracer:
    """Records spans ``(id, parent, task, name, start, end, self, counters)``."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.task: int | None = None
        self._stack: list[list] = []  # [span id, summed child duration]
        self._next_id = 0
        self._undo: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                extra = counters(args, kwargs, result) if counters and result is not None else None
                spans.append((sid, parent[0] if parent else None, self.task, name,
                              start, end, duration - frame[1], extra))

        return traced

    def install(self) -> None:
        """Replace every public function and the listed members by a traced one."""
        pkg = self.package.__name__
        modules = [importlib.import_module(f"{pkg}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for ns in [self.package, *modules]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])
                    self._undo.append((setattr, ns, attr, obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            obj[key] = wrappers[id(value)]
                            self._undo.append((dict.__setitem__, obj, key, value))
        for mod_name, cls_name, attr, name in MEMBERS:
            cls = getattr(importlib.import_module(f"{pkg}.{mod_name}"), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, cached_property):
                new = cached_property(self._wrap(name, raw.func))
                new.__set_name__(cls, attr)
            else:
                new = self._wrap(name, raw)
            setattr(cls, attr, new)
            self._undo.append((setattr, cls, attr, raw))

    def restore(self) -> None:
        """Put every original back, in reverse order of replacement."""
        while self._undo:
            put, target, key, value = self._undo.pop()
            put(target, key, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines (times in seconds, counters without keys)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, task, name, start, end, self_s, extra in self.spans:
                rec = {"id": sid, "parent": parent, "task": task, "name": name,
                       "start": start, "end": end, "self_s": self_s}
                if extra:
                    rec.update({k: v for k, v in extra.items() if k != "key"})
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one set of spans; layers not called read 0.

    ``trace.overhead_s`` is not derivable from spans and is left out.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sums: dict[str, int] = defaultdict(int)
    keys: set = set()
    lift_ids = {s[0] for s in spans if s[3] == "rotors.lift"}
    angles = 0
    for sid, parent, task, name, start, end, own, extra in spans:
        calls[name] += 1
        self_s[name] += own
        if name == "rotors.plane_rotor" and parent in lift_ids:
            angles += 1
        for key, value in (extra or {}).items():
            if key == "key":
                keys.add(value)
            else:
                sums[f"{name}.{key}"] += value
    renders = calls["pauli.to_dense"]
    rotors = calls["rotors.plane_rotor"]
    derived = {
        "pauli.to_dense.distinct_ratio": len(keys) / renders if renders else 0.0,
        "rotors.plane_rotor.pseudo_share": sums["rotors.plane_rotor.pseudo"] / rotors if rotors else 0.0,
        "rotors.lift.angles": angles,
    }
    out = {}
    for metric, _unit, _better in METRICS:
        span, _, stat = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif stat in ("calls", "builds"):
            out[metric] = calls[span]
        elif stat == "self_s":
            out[metric] = self_s[span]
        elif span != "trace":
            out[metric] = sums[metric]
    return out
