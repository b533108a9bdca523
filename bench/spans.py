"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each maxcone module from outside:
every module attribute that holds one of those function objects is replaced,
because several modules bind names by import (``report`` binds
``build_mesh``, ``mesh`` binds ``apex``, ``integrate`` binds ``w_values``,
``minimal`` binds ``adaptive_leg``, ...) and a wrapper on the defining
module alone would miss those calls. Each call records one span (name,
start, end, parent span, op id) and a work count taken at the same
boundary. Spans stay in memory and are written out when the run ends. The
library code is not modified.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Public functions wrapped per module; the span name is "<module>.<function>",
# except that both exporters share the span name "mesh.export".
TRACED = {
    "core": ("w_values", "gauss"),
    "integrate": ("adaptive_leg", "immersion", "apex", "loop_period"),
    "singular": ("singular_set", "classify_cone", "nondegeneracy", "embedded_neighborhood_proxy"),
    "mesh": ("build_mesh", "sample_fundamental", "assemble", "graph_check", "export_obj", "export_ply"),
    "minimal": ("standard_loops", "measure_period"),
    "catalog": ("enumerate_types", "classes_for_type", "canonicalize", "instantiate"),
    "report": ("run_checks",),
    "cli": ("main",),
}
_SPAN_NAME = {"mesh.export_obj": "mesh.export", "mesh.export_ply": "mesh.export"}


def _package_modules():
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "maxcone" or name.startswith("maxcone."))
    }


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.count: list[int] = []
        self.count2: list[int] = []
        self.raised: list[bool] = []
        self.stack: list[int] = []
        self.op_id = -1  # -1: set-up
        self._restore: list[tuple[object, str, object]] = []
        self._error_type = None

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        mods = _package_modules()
        self._error_type = mods["maxcone.errors"].MaxconeError
        originals = {}
        for short, funcs in TRACED.items():
            mod = mods[f"maxcone.{short}"]
            for fname in funcs:
                fn = getattr(mod, fname)
                span = _SPAN_NAME.get(f"{short}.{fname}", f"{short}.{fname}")
                originals[id(fn)] = (fn, self._wrap(span, fn))
        # every binding site: any package module attribute holding an original
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, span: str, fn):
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        counter = _COUNTERS.get(span)
        clock = time.perf_counter
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.op.append(tr.op_id)
            tr.count.append(0)
            tr.count2.append(0)
            tr.raised.append(False)
            tr.end.append(0.0)
            tr.stack.append(idx)
            state = None
            if counter is not None and counter[0] is not None:
                args, state = counter[0](args)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except tr._error_type:
                tr.raised[idx] = True
                raise
            finally:
                tr.end[idx] = clock()
                tr.stack.pop()
            if counter is not None:
                tr.count[idx], tr.count2[idx] = counter[1](args, result, state)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        n = len(self.end)
        start = np.array(self.start[:n])
        end = np.array(self.end[:n])
        dur = end - start
        parent = np.array(self.parent[:n], dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return {
            "name": np.array(self.name_id[:n], dtype=np.int64),
            "parent": parent,
            "op": np.array(self.op[:n], dtype=np.int64),
            "start": start,
            "dur": dur,
            "self": dur - child_time,
            "count": np.array(self.count[:n], dtype=np.int64),
            "count2": np.array(self.count2[:n], dtype=np.int64),
            "raised": np.array(self.raised[:n], dtype=bool),
        }

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        a = self.arrays()
        t0 = float(a["start"].min()) if len(a["start"]) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\top\tstart_s\tend_s\tcount\tcount2\traised\n")
            for i in range(len(a["dur"])):
                s = a["start"][i] - t0
                fh.write(
                    f"{i}\t{self.names[a['name'][i]]}\t{a['parent'][i]}\t{a['op'][i]}\t"
                    f"{s:.9f}\t{s + a['dur'][i]:.9f}\t{a['count'][i]}\t{a['count2'][i]}\t"
                    f"{int(a['raised'][i])}\n"
                )


# -- work counts at span boundaries --------------------------------------------
# span -> (before(args) -> (args, state) or None, after(args, result, state) -> (count, count2))


def _panels_before(args):
    leg, coeff_fn = args[0], args[1]
    panels = [0]

    def counted(z):
        panels[0] += 1
        return coeff_fn(z)

    return (leg, counted) + tuple(args[2:]), panels


_COUNTERS = {
    "core.w_values": (None, lambda args, r, s: (int(np.size(args[0])), 0)),
    "integrate.adaptive_leg": (_panels_before, lambda args, r, s: (s[0], 0)),
    "mesh.assemble": (None, lambda args, r, s: (len(r.vertices), len(r.triangles))),
    "mesh.graph_check": (None, lambda args, r, s: (int(args[0].period_triangle_count), 0)),
}


class SpanStats:
    """Aggregates over the recorded spans, filtered by op."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.a = tracer.arrays()
        self._ancestor_cache: dict[str, np.ndarray] = {}

    def _nid(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def mask(self, name: str, ops=None) -> np.ndarray:
        m = self.a["name"] == self._nid(name)
        if ops is not None:
            m &= np.isin(self.a["op"], np.asarray(list(ops), dtype=np.int64))
        return m

    def calls(self, name, ops=None) -> int:
        return int(np.sum(self.mask(name, ops)))

    def seconds(self, name, ops=None) -> float:
        """Wall time in spans of `name`, not counting nested spans of the same name."""
        m = self.mask(name, ops)
        parent = self.a["parent"]
        nested = np.zeros_like(m)
        has_parent = parent >= 0
        nested[has_parent] = self.a["name"][parent[has_parent]] == self._nid(name)
        return float(np.sum(self.a["dur"][m & ~nested]))

    def self_seconds(self, name, ops=None) -> float:
        return float(np.sum(self.a["self"][self.mask(name, ops)]))

    def counted(self, name, ops=None, second=False) -> int:
        key = "count2" if second else "count"
        return int(np.sum(self.a[key][self.mask(name, ops)]))

    def under(self, name: str) -> np.ndarray:
        """True for spans that have an ancestor span called `name`."""
        if name not in self._ancestor_cache:
            nid = self._nid(name)
            parent = self.a["parent"]
            names = self.a["name"]
            out = np.zeros(len(parent), dtype=bool)
            # parents precede children, so one forward pass resolves ancestry
            for i in range(len(parent)):
                p = parent[i]
                if p >= 0 and (names[p] == nid or out[p]):
                    out[i] = True
            self._ancestor_cache[name] = out
        return self._ancestor_cache[name]

    def raised_in(self, prefix: str) -> int:
        """Typed errors leaving spans of a module, counted once where they first left it."""
        nids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        in_mod = np.isin(self.a["name"], nids)
        raised = self.a["raised"] & in_mod
        parent = self.a["parent"]
        # an error counts at the innermost module span it left: skip spans whose
        # child in the same module raised as well
        child_raised = np.zeros(len(parent), dtype=bool)
        idx = np.nonzero(raised & (parent >= 0))[0]
        child_raised[parent[idx]] = True
        return int(np.sum(raised & ~child_raised))
