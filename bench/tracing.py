"""Traced runs: spans around each layer's functions, and per-layer metrics.

The tracer patches module and class attributes of the package under test for
the duration of a ``with`` block and puts the originals back on exit, so no
file of the package changes.  A span is ``[name, start, end, parent, info]``
where ``parent`` is the index of the enclosing span (-1 at top level) and
``info`` an optional number recorded with it (array sizes, LU nonzeros).
Spans are kept in memory; the caller drains them with :meth:`Tracer.take`.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# Every per-layer metric: (name, unit, better, target).  The target names the
# end-to-end metric the layer metric should move, and on which workload.
LAYER_METRICS = (
    ("activations.calls", "count", "lower", "unit_p50_s on chains"),
    ("activations.elements", "count", "lower", "unit_p50_s on chains"),
    ("activations.time_s", "s", "lower", "unit_p50_s on chains"),
    ("model.loss.calls", "count", "lower", "wall_s on villani_scan and sweep"),
    ("model.grad.calls", "count", "lower", "wall_s on villani_scan and sweep"),
    ("model.laplacian.calls", "count", "lower", "wall_s on villani_scan and sweep"),
    ("model.predict.calls", "count", "lower", "wall_s on villani_scan and sweep"),
    ("model.self_s", "s", "lower", "wall_s on villani_scan and sweep"),
    ("dynamics.sgd_step.calls", "count", "lower", "wall_s on chains and sweep"),
    ("dynamics.sgd_step.self_s", "s", "lower", "wall_s on chains and sweep"),
    ("dynamics.loop.self_s", "s", "lower", "unit_p50_s on chains"),
    ("dynamics.log.s", "s", "lower", "wall_s on sweep"),
    ("harness.test_mse.calls", "count", "lower", "wall_s on sweep"),
    ("harness.test_mse.s", "s", "lower", "wall_s on sweep"),
    ("harness.run_sweep.self_s", "s", "lower", "wall_s on sweep"),
    ("harness.cell_s_max", "s", "lower", "unit_tail_s on sweep"),
    ("datasets.realize.s", "s", "lower", "setup_s on sweep"),
    ("diagnostics.points", "count", "lower", "wall_s on villani_scan"),
    ("diagnostics.bounds.s", "s", "lower", "wall_s on villani_scan"),
    ("diagnostics.villani_scan.self_s", "s", "lower", "wall_s on villani_scan"),
    ("fpe.tabulate_potential.s", "s", "lower", "unit_p50_s on fpe_mixing"),
    ("fpe.suggest_half_width.s", "s", "lower", "unit_p50_s on fpe_mixing"),
    ("fpe.suggest_half_width.evals", "count", "lower", "unit_p50_s on fpe_mixing"),
    ("fpe.generator.calls", "count", "lower", "unit_p50_s on fpe_mixing"),
    ("fpe.generator.s", "s", "lower", "unit_p50_s on fpe_mixing"),
    ("fpe.gibbs.calls", "count", "lower", "unit_p50_s on fpe_mixing"),
    ("fpe.splu.calls", "count", "lower", "unit_p50_s and peak_rss_mb on fpe_mixing"),
    ("fpe.splu.s", "s", "lower", "unit_p50_s and peak_rss_mb on fpe_mixing"),
    ("fpe.lu_nnz", "count", "lower", "unit_p50_s and peak_rss_mb on fpe_mixing"),
    ("fpe.lu_fill_ratio", "ratio", "lower", "unit_p50_s and peak_rss_mb on fpe_mixing"),
    ("fpe.solve.calls", "count", "lower", "wall_s on fpe_mixing"),
    ("fpe.solve.s", "s", "lower", "wall_s on fpe_mixing"),
    ("fpe.solve.bytes_computed", "B", "lower", "wall_s on fpe_mixing"),
    ("fpe.eigsh.calls", "count", "lower", "wall_s on fpe_mixing"),
    ("fpe.eigsh.s", "s", "lower", "wall_s on fpe_mixing"),
    ("fpe.decay_rate.self_s", "s", "lower", "wall_s on fpe_mixing"),
    ("fpe.mass_drift_max", "abs", "lower", "accuracy readout on fpe_mixing"),
    ("fpe.decay_gap_ratio", "ratio", "lower", "accuracy readout on fpe_mixing"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall_s, every workload"),
)

COUNT_METRICS = frozenset(name for name, unit, _, _ in LAYER_METRICS if unit == "count")

# Bytes a triangular solve reads per LU nonzero: an 8-byte value plus a
# 4-byte index.  A computed figure, not a measured one.
SOLVE_BYTES_PER_NNZ = 12


class Tracer:
    """Records spans around patched callables; restores them on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot drain spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    def traced(self, fn, name, info=None, post=None):
        """A callable that runs ``fn`` inside a span named ``name``.

        ``info(args, result)`` gives the number stored with the span;
        ``post(result)`` may replace the result handed back to the caller.
        """
        stack, clock = self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return post(result) if post is not None else result

        return wrapper

    def patch(self, owner, attr, value):
        """Set ``owner.attr`` to ``value`` until restore."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, name, info=None, post=None):
        """Replace ``owner.attr`` by its traced version until restore."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.patch(owner, attr, self.traced(original, name, info, post))


class _TracedLU:
    """Stands in for a SuperLU factor so each ``solve`` records a span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _ModuleView:
    """A module whose selected attributes are overridden, for one caller."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _size(args, result):
    return int(getattr(args[1], "size", 1))


def _lu_nnz(lu) -> int:
    return int(lu.L.nnz + lu.U.nnz)


def instrument(tracer: Tracer, pkg) -> None:
    """Wrap the public functions of every timed layer of ``pkg``.

    ``pkg`` is the imported ``villanets`` package.  ``configio`` and ``cli``
    only parse arguments and write files and are not wrapped.
    """
    act_cls = pkg.activations.Activation
    for attr in ("__call__", "d1", "d2"):
        tracer.wrap(act_cls, attr, f"activations.{attr.strip('_')}", info=_size)
    for attr in ("loss", "grad", "laplacian", "predict"):
        tracer.wrap(pkg.model, attr, f"model.{attr}")
    for attr in ("run_sgd", "run_sde", "sgd_step"):
        tracer.wrap(pkg.dynamics, attr, f"dynamics.{attr}")
    # the harness holds its own reference to run_sgd
    tracer.wrap(pkg.harness, "run_sgd", "dynamics.run_sgd")
    for attr in ("run_sweep", "_run_cell", "test_mse"):
        tracer.wrap(pkg.harness, attr, f"harness.{attr}")
    tracer.wrap(pkg.datasets.DataRecipe, "realize", "datasets.realize")
    for attr in ("villani_scan", "grad_lower_bound", "laplacian_upper_bound"):
        tracer.wrap(pkg.diagnostics, attr, f"diagnostics.{attr}")
    for attr in ("suggest_half_width", "build_grid", "tabulate_potential", "gibbs",
                 "generator", "symmetrized_generator", "decay_rate", "spectral_gap"):
        tracer.wrap(pkg.fpe, attr, f"fpe.{attr}")

    spla = pkg.fpe.spla

    def traced_lu(lu):
        nnz = _lu_nnz(lu)
        return _TracedLU(lu, tracer.traced(lu.solve, "fpe.solve", info=lambda a, r: nnz))

    view = _ModuleView(
        spla,
        splu=tracer.traced(spla.splu, "fpe.splu",
                           info=lambda args, lu: (_lu_nnz(lu), int(args[0].nnz)),
                           post=traced_lu),
        eigsh=tracer.traced(spla.eigsh, "fpe.eigsh"),
    )
    tracer.patch(pkg.fpe, "spla", view)


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of its
    children's intervals (clipped to the span)."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, cursor = 0.0, start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append(end - start - covered)
    return out


def _has_ancestor(spans, idx, name) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def log_point_time(spans) -> float:
    """Time in model/eval calls made at log points of the SGD/SDE loops.

    Direct children of a loop span are the per-step work (``sgd_step`` in
    SGD, ``model.grad`` in Euler-Maruyama) and the log-point calls: the
    loss check, the logged loss, the logged gradient (a ``model.grad`` that
    follows a ``model.loss``) and the held-out evaluation.
    """
    total = 0.0
    previous = {}
    for idx, span in enumerate(spans):
        parent = span[3]
        if parent < 0 or spans[parent][0] not in ("dynamics.run_sgd", "dynamics.run_sde"):
            continue
        name = span[0]
        if name in ("model.loss", "harness.test_mse") or (
            name == "model.grad" and previous.get(parent) == "model.loss"
        ):
            total += span[2] - span[1]
        previous[parent] = name
    return total


def round_metrics(spans) -> dict:
    """Per-layer metrics of one round of a workload from its spans."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    dur = defaultdict(float)
    self_by = defaultdict(float)
    info_sum = defaultdict(int)
    cell_max = 0.0
    lu_nnz = a_nnz = solve_bytes = 0
    evals = points = 0
    for idx, span in enumerate(spans):
        name = span[0]
        d = span[2] - span[1]
        calls[name] += 1
        dur[name] += d
        self_by[name] += selfs[idx]
        if name.startswith("activations."):
            info_sum["activations"] += span[4]
        elif name == "fpe.splu":
            lu_nnz += span[4][0]
            a_nnz += span[4][1]
        elif name == "fpe.solve":
            solve_bytes += SOLVE_BYTES_PER_NNZ * span[4]
        elif name == "harness._run_cell":
            cell_max = max(cell_max, d)
        elif name == "model.loss" and _has_ancestor(spans, idx, "fpe.suggest_half_width"):
            evals += 1
        elif name == "diagnostics.grad_lower_bound":
            points += 1
    act_names = ("activations.call", "activations.d1", "activations.d2")
    return {
        "activations.calls": sum(calls[n] for n in act_names),
        "activations.elements": info_sum["activations"],
        "activations.time_s": sum(dur[n] for n in act_names),
        "model.loss.calls": calls["model.loss"],
        "model.grad.calls": calls["model.grad"],
        "model.laplacian.calls": calls["model.laplacian"],
        "model.predict.calls": calls["model.predict"],
        "model.self_s": sum(v for n, v in self_by.items() if n.startswith("model.")),
        "dynamics.sgd_step.calls": calls["dynamics.sgd_step"],
        "dynamics.sgd_step.self_s": self_by["dynamics.sgd_step"],
        "dynamics.loop.self_s": self_by["dynamics.run_sgd"] + self_by["dynamics.run_sde"],
        "dynamics.log.s": log_point_time(spans),
        "harness.test_mse.calls": calls["harness.test_mse"],
        "harness.test_mse.s": dur["harness.test_mse"],
        "harness.run_sweep.self_s": self_by["harness.run_sweep"],
        "harness.cell_s_max": cell_max,
        "datasets.realize.s": dur["datasets.realize"],
        "diagnostics.points": points,
        "diagnostics.bounds.s": (dur["diagnostics.grad_lower_bound"]
                                 + dur["diagnostics.laplacian_upper_bound"]),
        "diagnostics.villani_scan.self_s": self_by["diagnostics.villani_scan"],
        "fpe.tabulate_potential.s": dur["fpe.tabulate_potential"],
        "fpe.suggest_half_width.s": dur["fpe.suggest_half_width"],
        "fpe.suggest_half_width.evals": evals,
        "fpe.generator.calls": calls["fpe.generator"],
        "fpe.generator.s": dur["fpe.generator"],
        "fpe.gibbs.calls": calls["fpe.gibbs"],
        "fpe.splu.calls": calls["fpe.splu"],
        "fpe.splu.s": dur["fpe.splu"],
        "fpe.lu_nnz": lu_nnz,
        "fpe.lu_fill_ratio": lu_nnz / a_nnz if a_nnz else 0.0,
        "fpe.solve.calls": calls["fpe.solve"],
        "fpe.solve.s": dur["fpe.solve"],
        "fpe.solve.bytes_computed": solve_bytes,
        "fpe.eigsh.calls": calls["fpe.eigsh"],
        "fpe.eigsh.s": dur["fpe.eigsh"],
        "fpe.decay_rate.self_s": self_by["fpe.decay_rate"],
    }


def write_spans(spans, path) -> None:
    """One CSV line per span: index, name, start, end, parent."""
    lines = ["index,name,start,end,parent"]
    lines.extend(f"{i},{s[0]},{s[1]!r},{s[2]!r},{s[3]}" for i, s in enumerate(spans))
    path.write_text("\n".join(lines) + "\n")
