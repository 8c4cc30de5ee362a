"""Span tracing around the solver's layers, installed from outside the program.

The solver's modules import each other's functions with ``from .x import y``,
so a caller looks a function up in its *own* module namespace.  Patching the
defining module alone would therefore catch nothing: ``Tracer.install``
replaces every ``muntzvide.*`` module attribute that is the original function
object with a wrapper, and ``uninstall`` puts the originals back.  The
program's source is never touched.

Spans (name, start, end, parent, op id) are appended to flat arrays while
tracing and turned into per-layer totals at the end; a span's self time is
its duration minus the durations of its direct children.  A layer whose
function is missing from the program is recorded as absent, so the report
can say so instead of printing zero calls.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "muntzvide"

# span name -> (defining module, attribute)
FUNCTION_LAYERS = (
    ("quadrature.gauss_jacobi", "muntzvide.quadrature", "gauss_jacobi"),
    ("muntz_basis.build_grid", "muntzvide.muntz_basis", "build_grid"),
    ("muntz_basis.basis_matrix_z", "muntzvide.muntz_basis", "basis_matrix_z"),
    ("muntz_basis.interpolate", "muntzvide.muntz_basis", "interpolate"),
    ("analysis.linf_error", "muntzvide.analysis", "linf_error"),
    ("analysis.weighted_l2_error", "muntzvide.analysis", "weighted_l2_error"),
    ("problem.singular_integral", "muntzvide.problem", "singular_integral"),
    ("collocation.assemble", "muntzvide.collocation", "assemble"),
    ("collocation.solve", "muntzvide.collocation", "solve"),
    ("analysis.solve_once", "muntzvide.analysis", "solve_once"),
    ("analysis.reference_solution", "muntzvide.analysis", "reference_solution"),
    ("analysis.convergence_sweep", "muntzvide.analysis", "convergence_sweep"),
    ("cli.run", "muntzvide.cli", "run"),
)

# Layers reached through the callables a problem carries rather than through
# a module function: the factory is patched so that what it returns is traced.
FORCING_FACTORY = ("problem.forcing", "muntzvide.problem", "manufactured_forcing")
KERNEL_FACTORY = ("problem.kernel", "muntzvide.problem", "make_example")


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children.

    ``parent[i]`` is the index of span i's parent, or -1 for a root span.
    Spans of one thread nest, so the children of a span never overlap and
    their summed duration is the part of the parent's interval they cover.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def _lookup(module_name: str, attr: str):
    try:
        return getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError):
        return None


def _argument(args, kwargs, name: str, position: int):
    """A traced call's argument, passed by position or by name, else None."""
    return args[position] if len(args) > position else kwargs.get(name)


class Tracer:
    """Records spans at the solver's layer boundaries while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self.op_id = -1
        self.clear()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for name, module_name, attr in FUNCTION_LAYERS:
            fn = _lookup(module_name, attr)
            if fn is None:
                self.absent.append(name)
            else:
                self._plan(fn, self.wrap(name, fn, self._counter_for(name)))
        self._plan_factory(FORCING_FACTORY, self._traced_forcing_factory)
        self._plan_factory(KERNEL_FACTORY, self._traced_problem_factory)

    # -- recording -----------------------------------------------------------

    def clear(self) -> None:
        """Drop every recorded span and counter."""
        self.span_name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.gauss_jacobi_points = 0
        self.rules_seen: set = set()
        self.rule_repeats = 0
        self.basis_entries = 0

    def span_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` with a span named ``name`` around every call."""
        name_id = self.span_id(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                if on_call is not None:
                    on_call(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- counters ------------------------------------------------------------

    def _counter_for(self, name: str):
        if name == "quadrature.gauss_jacobi":

            def count_rule(args, kwargs):
                npts = _argument(args, kwargs, "npts", 0)
                key = (
                    npts,
                    _argument(args, kwargs, "alpha", 1),
                    _argument(args, kwargs, "beta", 2),
                )
                self.gauss_jacobi_points += int(npts or 0)
                if key in self.rules_seen:
                    self.rule_repeats += 1
                self.rules_seen.add(key)

            return count_rule
        if name == "muntz_basis.basis_matrix_z":

            def count_entries(args, kwargs):
                grid = _argument(args, kwargs, "grid", 0)
                z = _argument(args, kwargs, "z", 1)
                if grid is not None and z is not None:
                    self.basis_entries += int(np.size(z)) * (int(grid.n) + 1)

            return count_entries
        return None

    # -- installation --------------------------------------------------------

    def _plan(self, original, replacement) -> None:
        """Queue a patch of every package attribute bound to ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, replacement))

    def _plan_factory(self, layer, make_replacement) -> None:
        name, module_name, attr = layer
        factory = _lookup(module_name, attr)
        if factory is None:
            self.absent.append(name)
            return
        self.span_id(name)
        self._plan(factory, make_replacement(name, factory))

    def _traced_forcing_factory(self, name, factory):
        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return traced_factory

    def _traced_problem_factory(self, name, factory):
        def traced_factory(*args, **kwargs):
            problem = factory(*args, **kwargs)
            return dataclasses.replace(
                problem, k1=self.wrap(name, problem.k1), k2=self.wrap(name, problem.k2)
            )

        return traced_factory

    def install(self) -> None:
        for mod, attr, _, replacement in self._patches:
            setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def layer_totals(self) -> dict[str, tuple[int, float] | None]:
        """layer -> (calls, self seconds); None for a layer the program lacks."""
        spans = self.arrays()
        own = self_times(spans["parent"], spans["start"], spans["end"])
        calls = np.bincount(spans["name"], minlength=len(self.names))
        self_s = np.bincount(spans["name"], weights=own, minlength=len(self.names))
        totals: dict[str, tuple[int, float] | None] = {
            name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)
        }
        for name in self.absent:
            totals[name] = None
        return totals
