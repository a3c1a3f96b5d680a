"""The benchmark workloads: generated run configs, repetitions and checks.

Every workload is a run config executed through ``cli.cmd_run`` into a
fresh store, so the benchmark drives the same code path as
``torcont run``.

``po1``
    The Langford orbit family in ``rho`` on a 20x4 mesh with TR detection
    and ``rho`` in [0.2, 2.0], both directions: stage ``po1`` of
    ``configs/langford.json``.  Floquet IVPs and TR/bound localization
    dominate; ``linsys`` and ``store`` are nearly idle.
``tr1a``
    The N = 50 torus family continued from po1's first TR with
    ``released=[varrho, rho, om1, om2]``, 22 steps in one direction and no
    events (the acceptance fixture, 30,306 unknowns).  Factorization,
    Jacobian assembly and snapshot writes dominate; event localization is
    bypassed.  The po1 stage that produces the TR orbit is set-up.
``vdp``
    The three stages of ``configs/vdp.json``: a 21-segment 40x4 forced Van
    der Pol torus family, the ``varrho`` family with BP detection, and the
    switch onto the secondary branch.  ``pt_max`` is cut from 60 to 30 in
    the second stage and to 10 in the third so that one chain fits a run;
    the first stage is unchanged, so the second still meets the BPs near
    ``a = 0.72`` (labels 27 and 29 of the shipped config).

The seed moves only the start of ``po1`` along its attractor: seed s adds
(s mod 8)/8 of a period to ``transient_periods``.  Seed 0 keeps the shipped
inputs, and seeds 0-7 cover all 8 input variants.  The variants do the same
work: 21 points and one located TR.

``tr1a`` and ``vdp`` take the same inputs for every seed, because their
work depends on the start phase:

* tr1a: the TR orbit's phase sets SuperLU's pivot order.  Over the 8 phase
  variants the peak RSS was 168 to 170 MB for four of them, 187 to 188 MB
  for two and 230 to 232 MB for two, and the wall time 14 to 18 s.  Each
  figure repeats for its variant.
* vdp: with 1 to 8 extra transient loops the first stage ends between
  a = 1.38 and a = 1.52, and the second stage meets other BPs.  With 2 or 7
  extra loops it meets none within 30 steps.  With 3 or 6 it brackets BPs
  that ``detect_branch_point`` cannot locate, because the corrector
  diverges.  That is a defect of BP localization.

A seed that changed this work would spread ``wall_s`` and ``peak_rss_mb``
by the seed rather than by the code.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from torcont import cli, contin, ivp, odesys, torus

LANGFORD = {"name": "langford", "params": {"om": 3.5, "rho": 1.5, "eps": 0.0}}

PO1_STAGE = {
    "run_id": "po1",
    "problem": "po",
    "source": {
        "kind": "simulate",
        "y0": [0.3, 0.4, 0.0],
        "period": 1.7951958020513104,
        "transient_periods": 100,
    },
    "discretization": {"ntst": 20, "degree": 4},
    "continuation": {
        "released": ["rho"],
        "bounds": {"rho": [0.2, 2.0]},
        "pt_max": 50,
        "h0": 0.05,
        "h_min": 0.0001,
        "h_max": 0.25,
        "bi_direct": True,
        "detect_tr": True,
    },
}

TR1A_STAGE = {
    "run_id": "tr1a",
    "problem": "torus",
    "source": {"kind": "tr", "run": "po1", "label": {"type": "TR", "pick": "first"}, "N": 50},
    "continuation": {
        "released": ["varrho", "rho", "om1", "om2"],
        "pt_max": 22,
        "h0": 0.5,
        "h_min": 0.001,
        "h_max": 10.0,
        "bi_direct": False,
        "detect_bp": False,
    },
}

VDP = {"name": "vdp", "params": {"Om2": 1.5111, "c": 0.11, "a": 0.1}}

_VDP_BOUNDS = {"a": [0.1, 2.0], "Om2": [1.0, 2.0]}

VDP_STAGES = [
    {
        "run_id": "vdP_torus",
        "problem": "torus",
        "source": {
            "kind": "simulate_circle",
            "n_seg": 21,
            "radius": 2.0,
            "transient_loops": 10,
            "params": {"om1": -1.0, "om2": 1.5111, "varrho": -0.661769571835087},
        },
        "discretization": {"ntst": 40, "degree": 4},
        "continuation": {
            "released": ["a", "Om2", "om2", "om1", "varrho", "c"],
            "bounds": _VDP_BOUNDS,
            "pt_max": 60,
            "h0": 0.2,
            "h_min": 0.001,
            "h_max": 2.0,
            "bi_direct": True,
            "detect_bp": False,
        },
    },
    {
        "run_id": "vdP_torus_varrho",
        "problem": "torus",
        "source": {"kind": "torus", "run": "vdP_torus", "label": {"type": "EP", "pick": "last"}},
        "continuation": {
            "released": ["a", "Om2", "om2", "varrho", "om1", "c"],
            "bounds": _VDP_BOUNDS,
            "pt_max": 30,
            "h0": 0.2,
            "h_min": 0.001,
            "h_max": 2.0,
            "bi_direct": True,
            "detect_bp": True,
        },
    },
    {
        "run_id": "vdP_torus_varrho_BP",
        "problem": "torus",
        "source": {"kind": "bp", "run": "vdP_torus_varrho", "label": {"type": "BP", "pick": "first"}},
        "continuation": {
            "bounds": _VDP_BOUNDS,
            "pt_max": 10,
            "h0": 0.1,
            "h_min": 0.001,
            "h_max": 2.0,
            "bi_direct": True,
            "detect_bp": False,
        },
    },
]

RHO_TR = 0.6154
RHO_TR_TOL = 0.005
#: residual below which the switched branch's last point counts as converged
CONVERGED_RESIDUAL = 1.0e-7
INVARIANCE_RETURNS = 20
#: largest |cos| between a switched-branch chord u - u_BP and the primary
#: branch's tangent at the BP; the primary family's own chords near the BP
#: have |cos| > 0.99, the switched branch's stay below 0.36
SWITCH_MAX_COS = 0.9


def variant(name: str, seed: int) -> int:
    """Eighths of a period the seed adds to po1's transient (0 for the
    other workloads)."""
    return seed % 8 if name == "po1" else 0


@dataclass
class Workload:
    name: str
    config: dict
    stage: str = None  # stage executed per repetition (None: all stages)
    setup_stage: str = None  # stage executed once, before the repetitions
    run_ids: tuple = ()  # run directories a repetition writes
    layers: tuple = ()  # layers the traced repetition must record calls in


def build(name: str, seed: int) -> Workload:
    if name in ("po1", "tr1a"):
        po1 = copy.deepcopy(PO1_STAGE)
        po1["source"]["transient_periods"] += variant(name, seed) / 8
        if name == "po1":
            return Workload("po1", {"system": LANGFORD, "stages": [po1]}, run_ids=("po1",),
                            layers=("cli", "contin", "linsys", "po", "ivp", "colloc", "store"))
        return Workload("tr1a", {"system": LANGFORD, "stages": [po1, copy.deepcopy(TR1A_STAGE)]},
                        stage="tr1a", setup_stage="po1", run_ids=("tr1a",),
                        layers=("cli", "contin", "linsys", "torus", "po", "ivp", "store"))
    if name == "vdp":
        stages = copy.deepcopy(VDP_STAGES)
        return Workload("vdp", {"system": VDP, "stages": stages},
                        run_ids=tuple(st["run_id"] for st in stages),
                        layers=("cli", "contin", "linsys", "torus", "ivp", "store"))
    raise KeyError(name)


NAMES = ("po1", "tr1a", "vdp")


class SetupReady(Exception):
    """Raised at the first timed ``contin.run`` of a set-up-only process."""


@dataclass
class Rep:
    """Outcome of one repetition of a workload."""

    wall_s: float = None
    failures: list = field(default_factory=list)
    bd: dict = field(default_factory=dict)  # run_id -> bd.tsv text
    bytes_written: int = 0
    points: int = 0
    events_located: int = 0
    events_unlocated: int = 0
    runs: list = field(default_factory=list)  # (problem, branch) per contin.run


class Session:
    """Repetitions of one workload in this process.

    Wraps ``contin.run`` to collect each returned branch (``cmd_run``
    discards them) and to time the span from the first ``contin.run`` of a
    repetition to the return of its last one.  ``on_ready`` runs once, at
    the first timed ``contin.run`` of the process: the start data is ready.
    """

    def __init__(self, workload: Workload, root: str, on_ready=None):
        self.workload = workload
        self.on_ready = on_ready
        self.work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root)
        self.config_path = os.path.join(self.work, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(workload.config, fh)
        self.setup_store = os.path.join(self.work, "setup")
        self._rep = self._first = self._last = None
        self._original_run = contin.run
        contin.run = self._run

    def _run(self, *args, **kwargs):
        rep = self._rep
        if rep is None:
            return self._original_run(*args, **kwargs)
        start = perf_counter()
        if self._first is None:
            self._first = start
            if self.on_ready is not None:
                ready, self.on_ready = self.on_ready, None
                ready()
        branch = self._original_run(*args, **kwargs)
        self._last = perf_counter()
        rep.runs.append((args[0], branch))
        return branch

    def prepare(self):
        """Run the set-up stage once (tr1a: the po1 family with its TR)."""
        if self.workload.setup_stage is not None:
            cli.cmd_run(self.config_path, stage=self.workload.setup_stage,
                        store_dir=self.setup_store, quiet=True)

    def rep(self) -> Rep:
        """One repetition in a new empty store, which is deleted afterwards."""
        wl = self.workload
        store = tempfile.mkdtemp(prefix="store-", dir=self.work)
        rep = Rep()
        try:
            if wl.setup_stage is not None:
                shutil.copytree(os.path.join(self.setup_store, wl.setup_stage),
                                os.path.join(store, wl.setup_stage))
            self._rep, self._first, self._last = rep, None, None
            try:
                cli.cmd_run(self.config_path, stage=wl.stage, store_dir=store, quiet=True)
            finally:
                self._rep = None
            rep.wall_s = self._last - self._first
            for run_id in wl.run_ids:
                rdir = os.path.join(store, run_id)
                with open(os.path.join(rdir, "bd.tsv")) as fh:
                    rep.bd[run_id] = fh.read()
                rep.bytes_written += sum(os.path.getsize(os.path.join(rdir, f))
                                         for f in os.listdir(rdir))
            for _, branch in rep.runs:
                rep.points += len(branch.points)
                for ev in branch.events:
                    rep.events_located += ev.get("status") == "located"
                    rep.events_unlocated += ev.get("status") == "unlocated"
            rep.failures = check(wl.name, rep)
        except SetupReady:
            raise
        except Exception as exc:  # a failed repetition is counted, not fatal
            rep.failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return rep

    def close(self):
        contin.run = self._original_run
        shutil.rmtree(self.work, ignore_errors=True)


def check(name: str, rep: Rep) -> list:
    """Correctness checks on the branches of one repetition."""
    fails = []
    if rep.events_unlocated:
        fails.append(f"{rep.events_unlocated} event(s) bracketed but not located")
    branches = [b for _, b in rep.runs]
    if name == "po1":
        rhos = [pt.monitors["rho"] for pt in branches[0].by_type("TR")]
        if not any(abs(r - RHO_TR) <= RHO_TR_TOL for r in rhos):
            fails.append(f"no TR within {RHO_TR_TOL} of rho = {RHO_TR} (TRs at {rhos})")
    elif name == "tr1a":
        pts = branches[0].points
        eps = [pt.monitors["eps"] for pt in pts]
        if len(pts) < 20:
            fails.append(f"{len(pts)} points < 20")
        # contin.run raises when the start needs more than 10 iterations,
        # so this only guards against that cap being raised
        if pts[0].corrector_iters > 10:
            fails.append(f"start took {pts[0].corrector_iters} Newton iterations > 10")
        if max(eps) - min(eps) > 1e-10:
            fails.append(f"eps spread {max(eps) - min(eps):.2e} > 1e-10")
    elif name == "vdp":
        if len(rep.runs) != 3:
            return fails + [f"{len(rep.runs)} of 3 stages ran"]
        bps = branches[1].by_type("BP")
        if not bps:
            return fails + ["no BP located on the varrho family"]
        problem, switched = rep.runs[2]
        last = switched.points[-1]
        res = float(np.abs(problem.residual(last.u)).max())
        if last.ptype != "EP" or not res < CONVERGED_RESIDUAL:
            fails.append(f"switched branch ends in {last.ptype} with residual {res:.2e}")
        cos = switch_cosine(bps[0], switched)
        if not cos <= SWITCH_MAX_COS:
            fails.append(f"switched branch runs along the primary family "
                         f"(|cos| {cos:.3f} > {SWITCH_MAX_COS})")
    return fails


def switch_cosine(bp, switched) -> float:
    """Largest |cos| between the chords u - u_BP of the switched branch and
    the primary branch's tangent at the BP it starts from (both branches
    share the unknowns' layout).  NaN when the branch has no chord."""
    chords = np.array([pt.u - bp.u for pt in switched.points[1:]]).reshape(-1, bp.u.size)
    if not len(chords):
        return float("nan")
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.abs(chords @ bp.tangent) / (np.linalg.norm(chords, axis=1)
                                             * np.linalg.norm(bp.tangent))
    return float(np.max(cos))


def invariance_dev(name: str, rep: Rep) -> float:
    """Forward-simulation deviation of the workload's final EP solution.

    Tori use ``torus.invariance_deviation`` over 20 returns.  For po1 the
    orbit is the one-dimensional case: the deviation of x(t0 + kT) from
    x(t0) over 20 periods, at the same integrator tolerances.  For vdp the
    final EP is on the switched branch, which the N = 21 discretization
    resolves to about 0.23 over 20 returns; perfbench/README.md says why
    that figure, and not the primary family's, is reported.
    """
    problem, branch = rep.runs[-1]
    sol = problem.embed(branch.points[-1].u)
    if name == "po1":
        vf = odesys.get_builtin(LANGFORD["name"])
        t0, T = sol.traj.t_offset, sol.period
        times = t0 + T * np.arange(INVARIANCE_RETURNS + 1)
        res = ivp.integrate(vf, times, sol.traj.x_bp[0], sol.p,
                            ivp.IvpOptions(rel_tol=1.0e-10, abs_tol=1.0e-12))
        return float(np.linalg.norm(res.y[1:] - res.y[0], axis=1).max())
    vf = odesys.get_builtin(VDP["name"] if name == "vdp" else LANGFORD["name"])
    return float(torus.invariance_deviation(vf, sol, n_returns=INVARIANCE_RETURNS).max())
