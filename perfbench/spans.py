"""Per-layer spans recorded from outside the program.

A Tracer wraps the public API of the six stretchlab modules: every function
the ``stretchlab`` package exports, plus the functions and constructors the
caller names (the per-layer metrics name ``cli.main``,
``metric.twist_derivative``, ``shear.ShearStructure`` and a few more).
Internal helpers stay unwrapped, so their time is self time of the API
function that called them; for the CLI, ``cli.main`` holds argparse, surface
parsing and TSV formatting.  Each function is wrapped under every module name
that imported it (``stretchlab.metric.curve_length`` is the same object as
``stretchlab.shear.curve_length``).  The wrapper of an ``lru_cache``
function calls the original cache wrapper, so caching is unchanged and hit
ratios come from ``cache_info()`` deltas.

Spans (operation, name, start, end, parent) are kept in memory in flat
arrays and written out at the end, gzip-compressed.  Self time is span time
minus the time of the span's direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "stretchlab"
LAYERS = ("cli", "metric", "shear", "surface", "hypgeom", "traintrack")


class Tracer:
    """Wrappers are built once; install() and uninstall() swap them in and out,
    so a run can alternate traced and untraced operations."""

    def __init__(self, named=frozenset()):
        """Wrap the package's exported functions and the "layer.name" labels in named."""
        self.names: list[str] = []
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self._stack = [-1]
        self._swaps: list[tuple[object, str, object, object]] = []
        self._caches: dict[str, object] = {}
        self._cache_seen = defaultdict(lambda: [0, 0])
        self._cache_base: dict[str, tuple[int, int]] = {}
        namespaces = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        exported = {id(v) for v in vars(sys.modules[PACKAGE]).values()}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(module).items()):
                label = f"{layer}.{attr}"
                if getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
                    continue
                if isinstance(obj, type):
                    if label in named:
                        self._swaps.append((obj, "__init__", obj.__init__, self._wrap(label, obj.__init__)))
                    continue
                if id(obj) not in exported and label not in named:
                    continue
                if hasattr(obj, "cache_info"):
                    self._caches[label] = obj
                wrapper = self._wrap(label, obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._swaps.append((ns, key, obj, wrapper))

    def _wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        name, op, parent, start, end, stack = (
            self.name, self.op, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            op.append(tracer.current_op)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for target, attr, _, wrapper in self._swaps:
            setattr(target, attr, wrapper)
        self._cache_base = {k: self._lookups(c) for k, c in self._caches.items()}

    def uninstall(self) -> None:
        for target, attr, original, _ in reversed(self._swaps):
            setattr(target, attr, original)
        for label, cache in self._caches.items():
            (hits, misses), (h0, m0) = self._lookups(cache), self._cache_base[label]
            self._cache_seen[label][0] += hits - h0
            self._cache_seen[label][1] += misses - m0

    @staticmethod
    def _lookups(cache) -> tuple[int, int]:
        info = cache.cache_info()
        return info.hits, info.misses

    def metrics(self) -> dict:
        """calls, self_s and (for caches) hit_ratio per function, self_s per layer."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            label = self.names[self.name[i]]
            calls[label] += 1
            self_s[label] += self.end[i] - self.start[i] - child[i]
        out = {}
        for label in self.names:
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.self_s"] = self_s[label]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        for label in self._caches:
            hits, misses = self._cache_seen[label]
            out[f"{label}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def write(self, path: str) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n"
                )
