"""Spans around the library's public functions, recorded from outside it.

The tracer replaces each traced function in every ``edlattice`` module that
holds it (``ed_solver`` imports ``fixed_submodule``, ``rref``,
``reduce_mod_p`` and ``coinvariants`` by name, so patching the defining
module alone would miss those calls).  For a class it wraps ``__init__``.
Spans are kept in memory and written out when the pass ends.  A traced name
that the library no longer defines reports null instead of failing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


def _rows(args, result):
    return len(args[0])


def _cells(args, result):
    matrix = args[0]
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _w_dim(args, result):
    return result[0]


# (module, public name, extra counter name, how to count it per call)
LAYERS = (
    ("group_core", "FiniteGroup", None, None),
    ("group_core", "subgroup_classes", None, None),
    ("group_core", "coset_action", None, None),
    ("int_lattice", "GaloisModule", None, None),
    ("int_lattice", "hermite_normal_form", "cells", _cells),
    ("int_lattice", "smith_normal_form", "cells", _cells),
    ("int_lattice", "fixed_submodule", None, None),
    ("int_lattice", "quotient_by_orbit_relations", None, None),
    ("int_lattice", "direct_sum", None, None),
    ("fp_module", "rref", "rows", _rows),
    ("fp_module", "reduce_mod_p", None, None),
    ("fp_module", "coinvariants", "w_dim", _w_dim),
    ("fp_module", "orbit_span", None, None),
    ("ed_solver", "min_permutation_rank", None, None),
    ("ed_solver", "brute_force_min_rank", None, None),
    ("ed_solver", "verify_certificate", None, None),
    ("catalog", "build_list_L", None, None),
    ("catalog", "permutation_module", None, None),
    ("jsonio", "result_to_json", None, None),
)


class Tracer:
    """Records (name, start, end, parent, op) spans and per-layer totals.

    Self time is a span's duration minus the durations of its direct child
    spans; calls are nested in one thread, so children never overlap.
    """

    def __init__(self, package: str = "edlattice") -> None:
        self.package = package
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, int] = {}
        self.missing: set[str] = set()
        self._stack: list[list] = []  # [name, start, span index, op, child time]
        self._restore: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- recording ------------------------------------------------------------

    def _open(self, name: str, op: int | None = None) -> None:
        parent = self._stack[-1] if self._stack else None
        if op is None:
            op = parent[3] if parent else -1
        self._stack.append([name, time.perf_counter(), len(self.spans), op, 0.0])
        self.spans.append(None)  # filled in when the span closes

    def _close(self) -> None:
        end = time.perf_counter()
        name, start, slot, op, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        self.spans[slot] = (name, start - self._t0, end - self._t0,
                            parent[2] if parent else -1, op)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child

    @contextmanager
    def span(self, name: str, op: int | None = None):
        self._open(name, op)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, name, func, extra, counter):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                key = f"{name}.{extra}"
                self.extra[key] = self.extra.get(key, 0) + counter(args, result)
            return result

        return traced

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for module_name, attr, extra, counter in LAYERS:
            name = f"{module_name}.{attr}"
            module = sys.modules.get(f"{self.package}.{module_name}")
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.add(name)
                continue
            if isinstance(original, type):
                init = original.__init__
                self._patch(original, "__init__", self._wrap(name, init, extra, counter), init)
                continue
            wrapper = self._wrap(name, original, extra, counter)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper, original)

    def _patch(self, holder, key, new, old) -> None:
        setattr(holder, key, new)
        self._restore.append((holder, key, old))

    def uninstall(self) -> None:
        for holder, key, old in reversed(self._restore):
            setattr(holder, key, old)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric by name; null for a layer the library lacks."""
        out = {}
        for module_name, attr, extra, _ in LAYERS:
            name = f"{module_name}.{attr}"
            present = name not in self.missing
            out[f"{name}.calls"] = self.calls.get(name, 0) if present else None
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) if present else None
            if extra:
                key = f"{name}.{extra}"
                out[key] = self.extra.get(key, 0) if present else None
        return out

    def write(self, path) -> None:
        """One JSON object per span: name, start, end (s from tracer start), parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": round(start, 7),
                                         "end": round(end, 7), "parent": parent,
                                         "op": op}) + "\n")
