"""Span tracer for the benchmark's traced run.

`Tracer` wraps the public wplarcs functions listed in `TRACED` at every
module binding of each one (for example `intersect.positive_int` and also
the copies imported into `homext`, `exceptional`, `braid`, `tilting` and the
package namespace), because the library calls its own functions through
those module globals.  Each call becomes a span (name, start, end, parent,
op id) appended to flat integer arrays kept in memory; `uninstall` puts
every original binding back.  Self time is computed afterwards from the
arrays by `self_times`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from typing import Dict, Iterable, List, Sequence

PACKAGE = "wplarcs"

# Layer (module) -> public functions whose calls become spans.  A layer's
# self time is the self time of the spans of these functions.
TRACED: Dict[str, Sequence[str]] = {
    "core": ("move", "phi", "phi_inv", "twist", "tau"),
    "intersect": ("positive_int", "exceptional_intersection", "endpoint_relation"),
    "homext": ("hom_dim", "ext1_dim", "classify_nonzero", "is_exceptional"),
    "exceptional": (
        "is_exceptional_pair",
        "complete_to_maximal",
        "order_collection",
        "is_ordered_exceptional_collection",
    ),
    "braid": ("mutate_pair", "apply_braid", "normalize_to_theta", "se_shift_collection"),
    "tilting": (
        "census",
        "se_canonical",
        "se_shift",
        "is_triangulation",
        "enumerate_anchored_triangulations",
        "enumerate_lattice_paths",
        "path_to_tilting",
        "bizley_count",
    ),
    "cli": ("main",),
}

# Functions whose integer results are summed (`<name>.answer_sum`).
SUMMED = ("intersect.positive_int",)


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self) -> None:
        self.names: List[str] = [
            f"{layer}.{func}" for layer, funcs in TRACED.items() for func in funcs
        ]
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.answer_sum: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._patched: List[tuple] = []
        self._wrappers = {}
        for nid, qualified in enumerate(self.names):
            layer, func = qualified.split(".")
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            original = getattr(module, func)
            self._wrappers[qualified] = (original, self._wrap(nid, original))

    def _wrap(self, nid: int, fn):
        name_id, start, end = self.name_id, self.start, self.end
        parent, op, stack = self.parent, self.op, self._stack
        clock = time.perf_counter_ns
        sums = self.answer_sum if self.names[nid] in SUMMED else None
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if sums is not None:
                sums[nid, tracer.op_id] += result
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in loaded wplarcs modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for qualified, (original, wrapper) in self._wrappers.items():
            attr = qualified.split(".")[1]
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Put back every binding `install` replaced."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def __len__(self) -> int:
        return len(self.start)

    def summary(self, ops: Iterable[int]) -> Dict[str, float]:
        """Exact call counts, self seconds per function and per layer, over spans of `ops`."""
        keep = set(ops)
        selected = [i for i in range(len(self.start)) if self.op[i] in keep]
        self_ns = self_times(self.start, self.end, self.parent)
        out: Dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for layer in TRACED:
            out[f"{layer}.self_s"] = 0.0
        for i in selected:
            name = self.names[self.name_id[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_ns[i] / 1e9
            out[f"{name.split('.')[0]}.self_s"] += self_ns[i] / 1e9
        for name in SUMMED:
            out[f"{name}.answer_sum"] = 0
        for (nid, op_id), total in self.answer_sum.items():
            if op_id in keep:
                out[f"{self.names[nid]}.answer_sum"] += total
        return out

    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then five int64 columns.

        The columns follow the header in the order it lists them, each
        holding one native-endian 64-bit integer per span.
        """
        columns = ("name_id", "start", "end", "parent", "op")
        header = {"names": self.names, "spans": len(self), "columns": columns}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in columns:
                getattr(self, column).tofile(fh)


def self_times(start: Sequence[int], end: Sequence[int], parent: Sequence[int]) -> List[int]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans must be listed in order of their start time (the order in which
    the tracer opens them); a parent index of -1 marks a root span.
    Overlapping children are counted once, and a child is clipped to its
    parent's interval.
    """
    n = len(start)
    covered = [0] * n
    reach = list(start)  # end of the union of children seen so far, per parent
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]
