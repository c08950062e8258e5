"""In-memory spans around calls into entmono's public functions.

A :class:`Tracer` installs wrappers at every place a traced function is
bound: its defining module and every ``entmono`` module that imported it by
name (``from .x import y``), plus ``__init__`` for traced classes.  Each
wrapped call records a span (name, start, end, parent) into flat arrays;
:meth:`Tracer.harvest` turns the spans of one operation into per-name call
counts and self times, then drops them.  Wrappers are installed only while
a traced operation runs, so untraced operations run the unmodified code.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

#: (module, attribute) of every traced function or class, named
#: ``<module>.<attribute>`` in the metrics.
TRACED = (
    ("qstate", "DensityOperator"),
    ("qstate", "partial_trace"),
    ("qstate", "eigenvalues"),
    ("qstate", "regroup"),
    ("redfun", "h_spectrum_batch"),
    ("redfun", "property_probe"),
    ("measures", "measure_pure"),
    ("measures", "pure_state_profile"),
    ("partitions", "is_coarser"),
    ("partitions", "all_partitions_of_subsets"),
    ("partitions", "enumerate_coarsenings"),
    ("partitions", "xi_set"),
    ("convexroof", "convex_roof"),
    ("verify", "check_unification"),
    ("verify", "check_hierarchy"),
    ("verify", "check_complete_monogamy"),
    ("verify", "check_tight_complete_monogamy"),
    ("verify", "reproduce_case"),
    ("locc", "monotonicity_trial"),
    ("locc", "apply_instrument"),
    ("cli", "main"),
)

#: Span names that count as ``verify.checks``.
VERIFY_CHECKS = tuple(f"verify.{name}" for mod, name in TRACED if mod == "verify")

LAYERS = tuple(dict.fromkeys(mod for mod, _ in TRACED))

_TWO_BLOCK_HALF = ("sum-bipart", "gsum-bipart")


def roof_key(spec, op, partition, kwargs) -> tuple:
    """Identity of a roof computation, with families merged where they agree.

    On two blocks every family is h of one block (half of it for the
    sum-bipart families), so those calls share a key across families.
    """
    blocks = partition.blocks if partition is not None else tuple((lab,) for lab in op.labels)
    family = spec.family.value
    if len(blocks) == 2:
        family = "half" if family in _TWO_BLOCK_HALF else "whole"
    return (spec.h.name, family, op.matrix.tobytes(), blocks, tuple(sorted(kwargs.items())))


class Tracer:
    """Span recorder plus the patch table that routes calls through it."""

    package = "entmono"

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._reset_spans()
        self.counters: dict[str, float] = {}
        self.roof_keys: list[tuple[int, tuple]] = []
        #: Keys of the verify roofs harvested since the last :meth:`end_round`.
        self.seen_roofs: set[tuple] = set()

    # -- span storage -----------------------------------------------------

    def _reset_spans(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _span(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    # -- installation -----------------------------------------------------

    def _modules(self):
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == self.package or key.startswith(self.package + "."))]

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Route every traced function, at every binding site, through a span."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self.package
        modules = self._modules()
        for mod_name, attr in TRACED:
            defining = sys.modules[f"{pkg}.{mod_name}"]
            target = getattr(defining, attr)
            name = f"{mod_name}.{attr}"
            if isinstance(target, type):
                self._set(target, "__init__", self._span(name, target.__init__))
                continue
            wrapper = self._special(name, target)
            for mod in modules:
                if getattr(mod, attr, None) is target:
                    self._set(mod, attr, wrapper)
        croof = sys.modules[f"{pkg}.convexroof"]
        self._set(croof, "minimize", self._traced_minimize(croof.minimize))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _special(self, name: str, fn):
        wrapped = self._span(name, fn)
        tracer = self
        if name == "redfun.h_spectrum_batch":
            def batch(spec, lam):
                shape = getattr(lam, "shape", None) or np.shape(lam)
                tracer.count("redfun.h_spectrum_batch.spectra", math.prod(shape[:-1]))
                return wrapped(spec, lam)
            return functools.wraps(fn)(batch)
        if name == "convexroof.convex_roof":
            def roof(spec, op, partition=None, **kwargs):
                key = roof_key(spec, op, partition, kwargs)
                tracer.roof_keys.append((len(tracer.span_name), key))
                return wrapped(spec, op, partition, **kwargs)
            return functools.wraps(fn)(roof)
        return wrapped

    def _traced_minimize(self, minimize):
        """scipy's minimize as convexroof calls it, with the objective spanned."""
        span = self._span

        def traced(fun, x0, *args, **kwargs):
            return span("convexroof.minimize", minimize)(
                span("convexroof.objective", fun), x0, *args, **kwargs)

        return traced

    # -- harvesting -------------------------------------------------------

    def harvest(self) -> dict:
        """Aggregate and drop the spans recorded since the last harvest.

        Returns per-name ``calls``, ``self_s`` and ``total_s``, the
        verify-specific counts, the span count, the summed self time, and
        the counters.
        """
        if self._stack:
            raise RuntimeError("harvest inside an open span")
        n = len(self.span_name)
        k = len(self.names)
        names = np.frombuffer(self.span_name, dtype=np.int32) if n else np.zeros(0, np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64) if n else np.zeros(0)
        end = np.frombuffer(self.span_end, dtype=np.float64) if n else np.zeros(0)
        dur = end - start
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_t = dur - child
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_t, minlength=k)
        total_s = np.bincount(names, weights=dur, minlength=k)
        out = {
            "calls": {nm: int(calls[i]) for i, nm in enumerate(self.names)},
            "self_s": {nm: float(self_s[i]) for i, nm in enumerate(self.names)},
            "total_s": {nm: float(total_s[i]) for i, nm in enumerate(self.names)},
            "spans": n,
            "self_sum_s": float(self_t.sum()),
            "counters": dict(self.counters),
        }
        # Roofs called directly from a verify checker, and the repeats among
        # them within this round of operations.
        verify_ids = {self._ids[c] for c in VERIFY_CHECKS if c in self._ids}
        seen = self.seen_roofs
        roofs = repeated = 0
        for idx, key in self.roof_keys:
            p = parents[idx]
            if p >= 0 and names[p] in verify_ids:
                roofs += 1
                repeated += key in seen
                seen.add(key)
        out["verify_roofs"] = roofs
        out["verify_roofs_repeated"] = repeated
        mp = self._ids.get("measures.measure_pure")
        out["verify_pure_values"] = int(sum(
            1 for i in np.flatnonzero(names == mp) if parents[i] >= 0 and names[parents[i]] in verify_ids
        )) if mp is not None and n else 0
        del names, parents, start, end
        self._reset_spans()
        self.counters = {}
        self.roof_keys = []
        return out

    def end_round(self) -> None:
        """Forget the verify roofs seen so far: repeats count within a round."""
        self.seen_roofs = set()
