"""Layer tracing from outside fpflow: timing wrappers around public entry points.

``Tracer`` patches, for the duration of a ``with`` block, the functions each
fpflow layer exposes, and records one span per call: name, start, end,
parent span and operation id.  Spans stay in memory until the run writes
them out.  A layer's self time is its spans' durations minus the part
their child spans cover, so the layer times of one operation add up to
the traced part of its wall time.

The linear-algebra layer is found rather than listed: every
``scipy.sparse.linalg`` / ``scipy.linalg`` function an fpflow module holds
by name is wrapped, and a factorization object it returns has its
``solve`` wrapped too.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import inspect
import sys
import time
from collections import defaultdict

LINALG_MODULES = ("scipy.sparse.linalg", "scipy.linalg")
BYTES_PER_FILL_ENTRY = 12  # an 8-byte value plus a 4-byte row index

# (span name, module, attribute, where): "all" patches the object in every
# fpflow namespace that holds it; "own" patches it only on its owner, the
# module or, for a dotted attribute, the class.
TARGETS = (
    ("solver.run", "fpflow.solver", "run", "all"),
    ("solver.backward_euler_step", "fpflow.solver", "backward_euler_step", "all"),
    ("solver.assemble_flux", "fpflow.solver", "assemble_flux", "all"),
    ("diagnostics.free_energy", "fpflow.solver", "free_energy", "own"),
    ("diagnostics.dissipation", "fpflow.solver", "dissipation", "own"),
    ("diagnostics.second_derivative_identity", "fpflow.diagnostics",
     "second_derivative_identity", "all"),
    ("equilibrium.equilibrium_state", "fpflow.equilibrium", "equilibrium_state", "all"),
    ("oracle.build_linear_operator", "fpflow.oracle", "build_linear_operator", "all"),
    ("oracle.reference_evolve", "fpflow.oracle", "reference_evolve", "all"),
    ("cli.to_csv", "fpflow.solver", "EnergyTrace.to_csv", "own"),
    ("cli.semilogy_svg", "fpflow.svgplot", "semilogy_svg", "all"),
    ("cli.fit_summary", "fpflow.cli", "_fit_summary", "all"),
) + tuple(
    (f"params.{cls}.{meth}", "fpflow.params", f"{cls}.{meth}", "own")
    for cls, meths in (
        ("PotentialField", ("on_grid", "gradient_on_grid", "hessian_on_grid")),
        ("DiffusionField", ("on_grid", "gradient_on_grid")),
        ("MobilityField", ("on_grid", "gradient_on_grid", "time_derivative_on_grid")),
    )
    for meth in meths
)

# Per-layer metrics: (name, unit, kind, span-name prefixes).  "self" sums
# self times, "calls" counts spans, "n" sums the count a span carries (the
# steps of a run) and "max_n" takes the largest one (the L+U fill bytes of
# a factorization, reported in MB).
LAYER_METRICS = (
    ("solver.linsolve_s", "s", "self", ("solver.linsolve",)),
    ("solver.linsolve_calls", "count", "calls", ("solver.linsolve",)),
    ("solver.lu_fill_mb", "MB", "max_n", ("solver.linsolve.system",)),
    ("solver.newton_iters", "count", "calls", ("solver.linsolve.system",)),
    ("solver.steps", "count", "n", ("solver.run", "solver.backward_euler_step")),
    ("solver.self_s", "s", "self", ("solver.run", "solver.backward_euler_step")),
    ("solver.assemble_flux_calls", "count", "calls", ("solver.assemble_flux",)),
    ("solver.assemble_flux_s", "s", "self", ("solver.assemble_flux",)),
    ("diagnostics.record_calls", "count", "calls", ("diagnostics.free_energy",)),
    ("diagnostics.record_s", "s", "self",
     ("diagnostics.free_energy", "diagnostics.dissipation")),
    ("diagnostics.identity_s", "s", "self", ("diagnostics.second_derivative_identity",)),
    ("params.on_grid_calls", "count", "calls", ("params.",)),
    ("params.on_grid_s", "s", "self", ("params.",)),
    ("equilibrium.state_s", "s", "self", ("equilibrium.",)),
    ("oracle.build_s", "s", "self", ("oracle.build_linear_operator",)),
    ("oracle.rk4_s", "s", "self", ("oracle.reference_evolve",)),
    ("cli.output_s", "s", "self", ("cli.",)),
)


class Span:
    __slots__ = ("name", "op", "id", "parent", "start", "end", "n")

    def __init__(self, name, op, sid, parent, start):
        self.name, self.op, self.id, self.parent = name, op, sid, parent
        self.start, self.end, self.n = start, start, 0


class Tracer:
    """Records spans while installed; ``with tracer.operation(i):`` scopes one op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(name, self._op, len(self.spans), parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Scope one benchmark operation: a root span all its spans descend from."""
        self._op = op_id
        span = self._open("bench.op")
        try:
            yield span
        finally:
            self._close(span)
            self._op = -1

    def _wrap(self, name: str, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span.n = count(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_linalg(self, fn):
        """A new linear system handed to scipy; factor objects get a traced solve."""
        tracer = self
        name = f"solver.linsolve.system.{fn.__name__}"

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hasattr(out, "L") and hasattr(out, "U"):
                # Extracting L and U copies them; the probe span keeps that
                # cost out of every layer.
                probe = tracer._open("bench.fill_probe")
                try:
                    span.n = (out.L.nnz + out.U.nnz) * BYTES_PER_FILL_ENTRY
                finally:
                    tracer._close(probe)
            if hasattr(out, "solve"):
                return _TracedFactor(out, tracer._wrap("solver.linsolve.solve", out.solve))
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapped) -> None:
        for mod in _fpflow_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def __enter__(self):
        self.missing = []
        for name, modname, attr, where in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            count = _STEP_COUNTS.get(name)
            wrapped = self._wrap(name, fn, count)
            if where == "all":
                self._replace_everywhere(fn, wrapped)
            else:
                self._set(owner, leaf, wrapped)
        # Once wrapped, a function is replaced in every namespace, so later
        # modules see the wrapper (whose __module__ is this one).
        for mod in _fpflow_modules():
            for value in list(vars(mod).values()):
                if (inspect.isfunction(value) or inspect.isbuiltin(value)) and \
                        (getattr(value, "__module__", "") or "").startswith(LINALG_MODULES):
                    self._replace_everywhere(value, self._wrap_linalg(value))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- analysis -------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for a, b in sorted(children.get(s.id, ())):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out[s.id] = (s.end - s.start) - covered
        return out

    def layer_metrics(self, op_id: int) -> dict[str, float]:
        own = self.self_times()
        spans = [s for s in self.spans if s.op == op_id]
        out = {}
        for name, _unit, kind, prefixes in LAYER_METRICS:
            chosen = [s for s in spans if s.name.startswith(prefixes)]
            if kind == "self":
                out[name] = sum(own[s.id] for s in chosen)
            elif kind == "calls":
                out[name] = len(chosen)
            elif kind == "n":
                out[name] = sum(s.n for s in chosen)
            else:  # max_n, bytes -> MB
                out[name] = max((s.n for s in chosen), default=0) / 1e6
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("op", "id", "parent", "name", "start", "end", "n"))
            for s in self.spans:
                w.writerow((s.op, s.id, s.parent, s.name, repr(s.start), repr(s.end), s.n))


class _TracedFactor:
    """Delegates to a factorization object, with ``solve`` traced."""

    def __init__(self, factor, solve):
        self._factor = factor
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._factor, attr)


def _run_steps(args, kwargs, _out) -> int:
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    return int(config.n_steps)


_STEP_COUNTS = {
    "solver.run": _run_steps,
    "solver.backward_euler_step": lambda args, kwargs, out: 1,
}


def _fpflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fpflow" or name.startswith("fpflow."))]
