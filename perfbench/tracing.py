"""Per-module spans around torcont's public functions, installed from outside.

Several torcont modules import functions by name (``from .linsys import
lu_factor``), and a few import at call time (``torus.solve_fixed`` imports
``newton_square``, ``po.sample_orbit`` imports ``integrate``).  A wrapper
placed only on the defining module would miss the by-name callers, and one
placed only on the callers would miss the call-time imports, so ``SPANS``
lists every module attribute that binds a traced function.
``Tracer.install`` replaces each of them and ``Tracer.uninstall`` puts the
originals back.  ``Tracer.uncovered`` then scans every loaded torcont
module for an attribute still bound to an unwrapped original, which is how
a binding site added later shows up as a coverage failure.

Spans stay in memory as ``[name, start, end, parent]`` lists; the parent
is the index of the enclosing span (-1 at the top).  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  Each span name is "<layer>.<function>".
SPANS = [
    ("cli", "cmd_run", "cli.cmd_run"),
    ("contin", "run", "contin.run"),
    ("contin", "_walk", "contin.walk"),
    ("contin", "_correct", "contin.correct"),
    ("contin", "locate_event", "contin.locate_event"),
    ("contin", "detect_branch_point", "contin.detect_branch_point"),
    ("contin", "switch_branch", "contin.switch_branch"),
    ("contin", "lu_factor", "linsys.lu_factor"),
    ("contin", "bordered_matrix", "linsys.bordered_matrix"),
    ("contin", "det_sign_log", "linsys.det_sign_log"),
    ("contin", "nullspace_tangent", "linsys.nullspace_tangent"),
    ("linsys", "lu_factor", "linsys.lu_factor"),
    ("linsys", "bordered_matrix", "linsys.bordered_matrix"),
    ("linsys", "det_sign_log", "linsys.det_sign_log"),
    ("linsys", "nullspace_tangent", "linsys.nullspace_tangent"),
    ("linsys", "newton_square", "linsys.newton_square"),
    ("po", "newton_square", "linsys.newton_square"),
    ("po", "transition_matrix", "ivp.transition_matrix"),
    ("po", "po_residual", "po.residual"),
    ("po", "po_jacobian", "po.jacobian"),
    ("po", "floquet", "po.floquet"),
    ("po", "solve_po", "po.solve_po"),
    ("torus", "transition_matrix", "ivp.transition_matrix"),
    ("torus", "integrate", "ivp.integrate"),
    ("torus", "torus_residual", "torus.residual"),
    ("torus", "torus_jacobian", "torus.jacobian"),
    ("torus", "init_from_TR", "torus.init"),
    ("torus", "init_from_samples", "torus.init"),
    ("torus", "solve_fixed", "torus.solve_fixed"),
    ("ivp", "integrate", "ivp.integrate"),
    ("ivp", "transition_matrix", "ivp.transition_matrix"),
    ("colloc", "segment_residual", "colloc.segment_residual"),
    ("colloc", "segment_jacobian", "colloc.segment_jacobian"),
    ("store", "read_solution", "store.read_solution"),
    ("store", "restart_TR2tor", "store.restart"),
    ("store", "restart_tor2tor", "store.restart"),
    ("store", "restart_BP2tor", "store.restart"),
    ("store", "restart_isol2tor", "store.restart"),
    ("store.RunWriter", "write_point", "store.write_point"),
]

# Right-hand sides run once per Runge-Kutta stage; a span there would
# distort the traced run, so these bindings only count calls.
COUNTED = [
    ("ivp", "eval_rhs", "ivp.rhs_evals"),
    ("ivp", "eval_jac_state", "ivp.jac_evals"),
]

# Adapters whose returned problem gets its ``jacobian`` closure wrapped; the
# span covers the full-Jacobian assembly plus the active-column slice.
ADAPTERS = [
    ("po", "continuation_problem", "po.problem_jacobian"),
    ("torus", "continuation_problem", "torus.problem_jacobian"),
]

#: layers (span-name prefixes) of the per-layer metrics
LAYERS = ("cli", "contin", "linsys", "torus", "po", "ivp", "colloc", "store")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "B"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def _resolve(path: str):
    """torcont object for a dotted path relative to the package."""
    mod, _, cls = path.partition(".")
    obj = importlib.import_module(f"torcont.{mod}")
    return getattr(obj, cls) if cls else obj


class _TimedFactor:
    """SuperLU stand-in whose ``solve`` records a ``linsys.lu_solve`` span.

    ``SuperLU.solve`` is a C method and cannot be wrapped in place.  The
    attributes ``det_sign_log`` and the callers read are forwarded.
    """

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        rec = self._tracer.open("linsys.lu_solve")
        try:
            return self._lu.solve(rhs, trans)
        finally:
            self._tracer.close(rec)

    U = property(lambda self: self._lu.U)
    L = property(lambda self: self._lu.L)
    perm_r = property(lambda self: self._lu.perm_r)
    perm_c = property(lambda self: self._lu.perm_c)
    shape = property(lambda self: self._lu.shape)
    nnz = property(lambda self: self._lu.nnz)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = Counter()
        self._stack = []
        self._saved = []
        self._originals = {}
        # run after their span closes, so they add nothing to its time
        self._hooks = {
            "contin.correct": self._after_correct,
            "linsys.lu_factor": self._after_lu_factor,
            "torus.jacobian": self._after_torus_jacobian,
        }

    # -- recording -------------------------------------------------------

    def open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def parent_name(self, rec):
        return self.spans[rec[3]][0] if rec[3] >= 0 else ""

    def _span(self, name, fn):
        after = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(rec)
                if after is not None:
                    after(rec, None, failed=True)
                raise
            self.close(rec)
            if after is not None:
                out = after(rec, out, failed=False)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _adapter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            problem, u0 = fn(*args, **kwargs)
            problem.jacobian = self._span(name, problem.jacobian)
            return problem, u0

        return wrapper

    # -- hooks ------------------------------------------------------------

    def _after_correct(self, rec, out, failed):
        parent = self.parent_name(rec)
        if parent == "contin.walk":
            self.counts["contin.step_attempts"] += 1
            self.counts["contin.step_converged"] += not failed
        elif parent in ("contin.locate_event", "contin.detect_branch_point"):
            self.counts[parent + ".corrections"] += 1
        if failed:
            self.counts["contin.correct.failed"] += 1
            return None
        self.counts["contin.newton_iters"] += out[1]
        return out

    def _after_lu_factor(self, rec, out, failed):
        if failed:
            return None
        # nonzeros SuperLU stores for L and U; reading them is free, unlike
        # building the L and U matrices
        self.maxima["linsys.lu_fill_nnz"] = max(self.maxima["linsys.lu_fill_nnz"], out.nnz)
        return _TimedFactor(out, self)

    def _after_torus_jacobian(self, rec, out, failed):
        if not failed:
            self.maxima["torus.jac_nnz"] = max(self.maxima["torus.jac_nnz"], out.nnz)
        return out

    # -- installation ----------------------------------------------------

    def install(self):
        groups = ((SPANS, self._span), (COUNTED, self._counter), (ADAPTERS, self._adapter))
        for table, make in groups:
            for path, attr, name in table:
                owner = _resolve(path)
                fn = getattr(owner, attr)
                if table is not COUNTED:  # counted at the ivp bindings only
                    self._originals[id(fn)] = f"{path}.{attr}"
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, make(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def uncovered(self):
        """Attributes of loaded torcont modules still bound to an original."""
        import sys

        out = []
        for modname, mod in sorted(sys.modules.items()):
            if not modname.startswith("torcont.") or mod is None:
                continue
            for attr, val in vars(mod).items():
                if id(val) in self._originals:
                    out.append(f"{modname}.{attr} (original {self._originals[id(val)]})")
        return out

    # -- summaries -------------------------------------------------------

    def span_table(self):
        """name -> [calls, inclusive seconds, self seconds].

        Inclusive seconds count only the outermost span of a name, so a
        function that re-enters itself is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            dur = end - start
            row[0] += 1
            row[2] += dur - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row[1] += dur
        return table

    def layer_calls(self):
        """layer -> number of spans and counted calls recorded in it."""
        calls = Counter()
        for name, _, _, _ in self.spans:
            calls[name.split(".", 1)[0]] += 1
        for name, n in self.counts.items():
            if name in ("ivp.rhs_evals", "ivp.jac_evals"):
                calls["ivp"] += n
        return calls
