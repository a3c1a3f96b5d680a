"""One benchmark process: set-up only, a measured run, or a traced run.

Started by ``perfbench/run.py`` with ``src`` on ``PYTHONPATH``.  It writes
protocol lines to standard output: ``READY`` when the start data is ready
(the first timed ``contin.run``), then ``RESULT <json>``.  torcont's own
console output goes to the null device.

Modes:

``setup``    stop at ``READY``; the parent times process start to ``READY``.
``measure``  repeat the workload until ``--seconds`` would be exceeded
             (at least once), then compute the invariance deviation.
``trace``    one untraced repetition, then one with spans installed; their
             bd tables and store bytes must be identical.  That counts
             repeat is checked across processes (``spread.py --trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# per-layer metrics taken from the span table: metric -> (span, column)
# with column 0 = calls, 1 = inclusive seconds, 2 = self seconds
SPAN_METRICS = {
    "contin.correct.n": ("contin.correct", 0),
    "contin.correct.s": ("contin.correct", 1),
    "contin.correct.self_s": ("contin.correct", 2),
    "contin.locate_event.n": ("contin.locate_event", 0),
    "contin.locate_event.s": ("contin.locate_event", 1),
    "contin.detect_branch_point.n": ("contin.detect_branch_point", 0),
    "contin.detect_branch_point.s": ("contin.detect_branch_point", 1),
    "contin.switch_branch.s": ("contin.switch_branch", 1),
    "linsys.lu_factor.n": ("linsys.lu_factor", 0),
    "linsys.lu_factor.s": ("linsys.lu_factor", 1),
    "linsys.lu_solve.n": ("linsys.lu_solve", 0),
    "linsys.lu_solve.s": ("linsys.lu_solve", 1),
    "linsys.bordered_matrix.n": ("linsys.bordered_matrix", 0),
    "linsys.bordered_matrix.s": ("linsys.bordered_matrix", 1),
    "linsys.det_sign_log.n": ("linsys.det_sign_log", 0),
    "linsys.det_sign_log.s": ("linsys.det_sign_log", 1),
    "linsys.nullspace_tangent.s": ("linsys.nullspace_tangent", 1),
    "linsys.newton_square.s": ("linsys.newton_square", 1),
    "torus.residual.n": ("torus.residual", 0),
    "torus.residual.s": ("torus.residual", 1),
    "torus.jacobian.n": ("torus.jacobian", 0),
    "torus.jacobian.s": ("torus.jacobian", 1),
    "torus.problem_jacobian.s": ("torus.problem_jacobian", 1),
    "torus.init.s": ("torus.init", 1),
    "torus.solve_fixed.s": ("torus.solve_fixed", 1),
    "po.residual.s": ("po.residual", 1),
    "po.jacobian.n": ("po.jacobian", 0),
    "po.jacobian.s": ("po.jacobian", 1),
    "po.problem_jacobian.s": ("po.problem_jacobian", 1),
    "po.floquet.n": ("po.floquet", 0),
    "po.floquet.s": ("po.floquet", 1),
    "po.solve_po.s": ("po.solve_po", 1),
    "ivp.transition_matrix.n": ("ivp.transition_matrix", 0),
    "ivp.transition_matrix.s": ("ivp.transition_matrix", 1),
    "ivp.integrate.n": ("ivp.integrate", 0),
    "ivp.integrate.s": ("ivp.integrate", 1),
    "colloc.segment_residual.s": ("colloc.segment_residual", 1),
    "colloc.segment_jacobian.s": ("colloc.segment_jacobian", 1),
    "store.write_point.n": ("store.write_point", 0),
    "store.write_point.s": ("store.write_point", 1),
    "store.read_solution.n": ("store.read_solution", 0),
    "store.read_solution.s": ("store.read_solution", 1),
    "store.restart.s": ("store.restart", 1),
    "cli.cmd_run.s": ("cli.cmd_run", 1),
}

# counters kept by the tracer's hooks and wrappers
COUNT_METRICS = (
    "contin.newton_iters",
    "contin.correct.failed",
    "contin.locate_event.corrections",
    "contin.detect_branch_point.corrections",
    "ivp.rhs_evals",
)
MAX_METRICS = ("linsys.lu_fill_nnz", "torus.jac_nnz")


def _emit(proto, tag, payload=None):
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    print(line, file=proto, flush=True)


def layer_metrics(tracer, rep):
    """Per-layer metrics of one traced repetition (seconds or counts)."""
    table = tracer.span_table()
    out = {}
    for metric, (span, col) in SPAN_METRICS.items():
        out[metric] = table.get(span, [0, 0.0, 0.0])[col]
    for metric in COUNT_METRICS:
        out[metric] = tracer.counts[metric]
    for metric in MAX_METRICS:
        out[metric] = tracer.maxima[metric]
    attempts = tracer.counts["contin.step_attempts"]
    out["contin.step_accept_ratio"] = (
        tracer.counts["contin.step_converged"] / attempts if attempts else 0.0)
    out["contin.events_unlocated"] = rep.events_unlocated
    out["contin.events_located"] = rep.events_located
    out["contin.points"] = rep.points
    out["store.bytes_written"] = rep.bytes_written
    return out


def traced_rep(session):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rep = session.rep()
        uncovered = tracer.uncovered()
    finally:
        tracer.uninstall()
    if uncovered:
        rep.failures.append("unwrapped binding sites: " + ", ".join(uncovered))
    return tracer, rep


def run_trace(session, wl, args):
    session.prepare()
    plain = session.rep()
    tracer, traced = traced_rep(session)
    metrics = layer_metrics(tracer, traced)
    if traced.bd != plain.bd:
        traced.failures.append("traced bd tables differ from the untraced run's")
    if traced.bytes_written != plain.bytes_written:
        traced.failures.append("traced store bytes differ from the untraced run's")
    if metrics["linsys.lu_factor.n"] < metrics["contin.newton_iters"]:
        traced.failures.append("fewer factorizations than Newton iterations: "
                               "a lu_factor binding is not wrapped")
    calls = tracer.layer_calls()
    idle = [layer for layer in wl.layers if not calls[layer]]
    if idle:
        traced.failures.append("no calls recorded in layer(s) " + ", ".join(idle))
    if plain.wall_s is None or traced.wall_s is None:
        traced.failures.append("no untraced and traced wall time to compare")
    metrics["trace.wall_s"] = traced.wall_s or 0.0
    metrics["trace.overhead_s"] = (traced.wall_s or 0.0) - (plain.wall_s or 0.0)
    metrics["trace.spans"] = len(tracer.spans)
    metrics["peak_rss_mb"] = peak_rss_mb()
    out_dir = os.path.join(args.root, "traces")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{wl.name}-seed{args.seed}.json"), "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "spans": tracer.spans,
                   "counts": dict(tracer.counts), "maxima": dict(tracer.maxima)}, fh)
    return [plain, traced], metrics


def run_measure(session, wl, args):
    session.prepare()
    reps = []
    t0 = perf_counter()
    while True:
        rep = session.rep()
        if reps and reps[0].wall_s is not None and rep.bd != reps[0].bd:
            rep.failures.append("bd tables differ from the first repetition's")
        reps.append(rep)
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(reps) > args.seconds:
            break
    done = [r for r in reps if r.wall_s is not None]
    metrics = {}
    if done:
        metrics["wall_s"] = statistics.median(r.wall_s for r in done)
        metrics["invariance_dev"] = workloads.invariance_dev(wl.name, done[-1])
    metrics["peak_rss_mb"] = peak_rss_mb()
    return reps, metrics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--root", required=True, help="directory for stores and traces")
    args = ap.parse_args(argv)

    proto = sys.stdout
    wl = workloads.build(args.workload, args.seed)

    def ready():
        _emit(proto, "READY")
        if args.mode == "setup":
            raise workloads.SetupReady

    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        session = workloads.Session(wl, args.root, on_ready=ready)
        try:
            if args.mode == "setup":
                session.prepare()
                try:
                    session.rep()
                except workloads.SetupReady:
                    return 0
                return 1
            runner = run_trace if args.mode == "trace" else run_measure
            reps, metrics = runner(session, wl, args)
        finally:
            session.close()

    _emit(proto, "RESULT", {
        "metrics": metrics,
        "variant": workloads.variant(args.workload, args.seed),
        "reps": [{"wall_s": r.wall_s, "failures": r.failures, "points": r.points,
                  "events_located": r.events_located, "bytes_written": r.bytes_written}
                 for r in reps],
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
