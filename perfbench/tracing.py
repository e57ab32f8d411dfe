"""Spans around the public functions of each ``lpsvem`` layer.

``Tracer.install`` replaces module attributes with wrappers that record one
span per call (name, parent, start, end) and the counts read off the results.
Each function is wrapped in the namespace it is called from, so
``polybasis.build_quadrature`` is timed where ``element_ops`` calls it.
Spans stay in memory; ``layer_metrics`` reduces them to the per-layer
figures of one round.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module the call is looked up in, attribute, span name)
TARGETS = (
    ("lpsvem.benchmarks", "make_case", "benchmarks.make_case"),
    ("lpsvem.benchmarks", "run_point", "benchmarks.run_point"),
    ("lpsvem.benchmarks", "generate_mesh", "geometry.generate_mesh"),
    ("lpsvem.benchmarks", "build_mesh_ops", "element_ops.build_mesh_ops"),
    ("lpsvem.element_ops", "build_quadrature", "polybasis.build_quadrature"),
    ("lpsvem.element_ops", "mass_matrix", "polybasis.mass_matrix"),
    ("lpsvem.element_ops", "stiffness_matrix", "polybasis.stiffness_matrix"),
    ("lpsvem.benchmarks", "picard_solve", "solver.picard_solve"),
    ("lpsvem.forms", "Assembler.__init__", "forms.Assembler.__init__"),
    ("lpsvem.forms", "Assembler.build_stokes", "forms.Assembler.build_stokes"),
    ("lpsvem.forms", "Assembler.build_transport", "forms.Assembler.build_transport"),
    ("lpsvem.solver", "solve_stokes", "solver.solve_stokes"),
    ("lpsvem.solver", "solve_temperature", "solver.solve_temperature"),
    ("lpsvem.solver", "splu", "solver.splu"),
    ("lpsvem.benchmarks", "compute_errors", "postprocess.compute_errors"),
)

# per-layer metric -> span names whose durations it sums
TIMED = {
    "benchmarks.make_case_s": ("benchmarks.make_case",),
    "benchmarks.run_point_s": ("benchmarks.run_point",),
    "geometry.generate_s": ("geometry.generate_mesh",),
    "polybasis.quadrature_s": ("polybasis.build_quadrature",),
    "polybasis.matrices_s": ("polybasis.mass_matrix", "polybasis.stiffness_matrix"),
    "element_ops.build_s": ("element_ops.build_mesh_ops",),
    "forms.assembler_init_s": ("forms.Assembler.__init__",),
    "forms.build_stokes_s": ("forms.Assembler.build_stokes",),
    "forms.build_transport_s": ("forms.Assembler.build_transport",),
    "solver.stokes_solve_s": ("solver.solve_stokes",),
    "solver.temperature_solve_s": ("solver.solve_temperature",),
    "solver.factor_s": ("solver.splu",),
    "postprocess.errors_s": ("postprocess.compute_errors",),
}
# self time: span time minus the time of its direct child spans
SELF_TIMED = {"element_ops.self_s": "element_ops.build_mesh_ops"}
COUNTS = ("geometry.cells", "forms.stokes_nnz", "solver.factorizations",
          "solver.picard_iterations", "solver.lu_fill_nnz")


def _stokes_nnz(system) -> int:
    # nonzeros of the saddle matrix [[A_uu, -B^T], [B, L2]]
    return int(system.A_uu.nnz + 2 * system.B.nnz + system.L2.nnz)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, parent index or -1, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _on_result(self, name, out):
        c = self.counts
        if name == "geometry.generate_mesh":
            c["geometry.cells"] += out.n_cells
        elif name == "forms.Assembler.build_stokes":
            c["forms.stokes_nnz"] = max(c["forms.stokes_nnz"], _stokes_nnz(out))
        elif name == "solver.splu":
            c["solver.factorizations"] += 1
            c["solver.lu_fill_nnz"] = max(c["solver.lu_fill_nnz"],
                                          int(out.L.nnz + out.U.nnz))
        elif name == "solver.picard_solve":
            c["solver.picard_iterations"] += out[1].iterations

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = clock()
            self._on_result(name, out)
            return out
        return traced

    def install(self):
        """Wrap every target for the rest of the process; a target that is not
        found is reported and skipped."""
        missing = []
        for modname, attr, name in TARGETS:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                missing.append(f"{modname}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(name, fn))
        if missing:
            print(f"tracing: not found, not traced: {', '.join(missing)}", file=sys.stderr)

    def layer_metrics(self) -> dict[str, float]:
        total = defaultdict(float)
        child = defaultdict(float)
        for name, parent, t0, t1 in self.spans:
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        out = {m: sum(total[n] for n in names) for m, names in TIMED.items()}
        for m, span_name in SELF_TIMED.items():
            out[m] = sum(t1 - t0 - child[i]
                         for i, (name, _, t0, t1) in enumerate(self.spans)
                         if name == span_name)
        out.update({m: self.counts.get(m, 0) for m in COUNTS})
        return out
