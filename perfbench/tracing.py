"""Spans around calls into the public functions of each lkpolar module.

``install`` wraps every listed function in the namespace of every lkpolar
module that holds it, because ``from .x import f`` binds the name at import
time: wrapping only the defining module would miss those callers.
``StratifiedComplex.link_cells`` is wrapped on the class.  ``has_cell`` is not
wrapped; it runs about 2e5 times per 10 grid planes.

Spans are kept in flat arrays (name, start, end, parent, time in children)
and summarised when the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

TRACED = {
    "geomkit": ("sample_grassmannian", "sample_unit_sphere"),
    "plstrata": ("normal_link", "normal_morse_index", "normal_morse_index_many",
                 "pl_morse_indices"),
    "smoothshape": ("height_critical_points", "integrate_stratum"),
    "lkmeasure": ("lk_measure", "exchange_lambda0"),
    "polar": ("polar_length", "polar_sample", "trace_silhouette", "check_genericity",
              "alpha_index"),
    "germ": ("sigma_invariant", "local_polar_length", "local_lambda", "slice_chi_stabilized"),
}
LINK_CELLS = "plstrata.link_cells"

# spans called once per sample or per cell, which also get p50 and tail
PER_SAMPLE = (
    "polar.polar_sample", "polar.trace_silhouette", "polar.check_genericity",
    "polar.alpha_index", "smoothshape.height_critical_points", "plstrata.normal_link",
    "plstrata.normal_morse_index", "plstrata.pl_morse_indices", "germ.slice_chi_stabilized",
    "geomkit.sample_grassmannian",
)
TAIL_LEVELS = (99.9, 99.0, 90.0)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.child = array("d")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, child = (
            self.name_id, self.start, self.end, self.parent, self.child)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            up = stack[-1] if stack else -1
            name_id.append(nid)
            parent.append(up)
            child.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                end[idx] = t1
                if up >= 0:
                    child[up] += t1 - t0

        return traced

    def install(self) -> None:
        """Wrap the TRACED functions wherever lkpolar binds them."""
        import importlib

        import lkpolar
        from lkpolar.plstrata import StratifiedComplex

        modules = [lkpolar] + [
            importlib.import_module(f"lkpolar.{m}") for m in (*TRACED, "cli")
        ]
        for mod_name, funcs in TRACED.items():
            home = importlib.import_module(f"lkpolar.{mod_name}")
            for fname in funcs:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{mod_name}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
        StratifiedComplex.link_cells = self.wrap(LINK_CELLS, StratifiedComplex.link_cells)

    # -- summaries ------------------------------------------------------------

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        if name not in self.names or ancestor not in self.names:
            return 0
        nid, aid = self.names.index(name), self.names.index(ancestor)
        ids, parent = self.name_id, self.parent
        count = 0
        for idx in np.flatnonzero(np.frombuffer(ids, dtype=np.int32) == nid):
            up = parent[idx]
            while up >= 0 and ids[up] != aid:
                up = parent[up]
            count += up >= 0
        return count

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, and for the
        per-sample spans the median and a tail in ms."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        self_time = dur - np.frombuffer(self.child, dtype=float)
        out = {}
        for nid, name in enumerate(self.names):
            mask = ids == nid
            d = dur[mask]
            stats = {"calls": int(mask.sum()), "s": float(d.sum()),
                     "self_s": float(self_time[mask].sum())}
            if name in PER_SAMPLE:
                stats.update(_percentiles(d))
            out[name] = stats
        return out


def _percentiles(d: np.ndarray) -> dict:
    """Median and the highest of TAIL_LEVELS with at least 10 samples beyond
    it (the median again when there are fewer than 100 samples)."""
    if len(d) == 0:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 50.0}
    level = next((p for p in TAIL_LEVELS if len(d) * (1 - p / 100) >= 10), 50.0)
    return {"p50_ms": 1e3 * float(np.percentile(d, 50)),
            "tail_ms": 1e3 * float(np.percentile(d, level)), "tail_pct": level}
