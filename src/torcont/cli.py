"""Command-line frontend: declarative run configs, validation, exports.

Verbs:

    torcont run CONFIG [--stage RUN_ID] [--store DIR]
    torcont validate RUN_ID LABEL [--returns N] [--store DIR]
    torcont export RUN_ID LABEL [--theta2 K] [-o FILE] [--store DIR]
    torcont bd RUN_ID --columns NAME [NAME ...] [-o FILE] [--store DIR]
    torcont list [RUN_ID] [--store DIR]

Exit codes: 0 success, 2 an input refused (naming the file and the field,
see :mod:`torcont.fields`) or an output path that cannot be written, 3
convergence failure, 4 not found.  A config file is JSON with
a ``system`` header and a list of ``stages``; each stage declares its
initial data source (simulated orbit, samples file, circle-seeded
simulation, or a prior run's labeled solution), discretization, and
continuation options.  Stages chain through run ids, so one file reproduces
a whole workflow.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

import numpy as np

from . import colloc, contin, fields, ivp, odesys, po, store, torus
from .errors import (
    ConfigError,
    ConvergenceError,
    FormatError,
    InputError,
    IntegrationError,
    NotFoundError,
    TorcontError,
)
from .fields import BOOL, COUNT, DEGREE, NAMES, NUMBER, OBJECT, POSITIVE, STRING, Field, optional

DEFAULT_STORE = "runs"
#: problem kind -> adapter module, whose ``names(vf)`` lists its parameters and scalars
KINDS = {"po": po, "torus": torus}
#: the fields of a config besides its stages' (``system.params``: one number per parameter)
CONFIG = {"store": optional(STRING), "system": OBJECT, "system.name": optional(STRING),
          "system.plugin": optional(STRING), "system.params": Field("map"),
          "stages": Field("list")}
#: the fields of every stage; CONTINUATION and SOURCES add the rest
STAGE = {"run_id": STRING, "problem": Field("string", among=tuple(KINDS)), "source": OBJECT,
         "source.kind": STRING, "continuation": OBJECT}
CONTINUATION = {"continuation.bounds": optional(OBJECT), "continuation.h0": optional(NUMBER),
                "continuation.h_min": optional(NUMBER), "continuation.h_max": optional(NUMBER),
                "continuation.pt_max": optional(COUNT), "continuation.bi_direct": optional(BOOL),
                "continuation.detect_bp": optional(BOOL)}
_MESH = {"discretization": optional(OBJECT), "discretization.ntst": optional(COUNT),
         "discretization.degree": optional(DEGREE)}
_RELEASED = {"continuation.released": NAMES}  # a bp source takes its BP run's names
_RUN = {"source.run": STRING, "source.label": optional(Field("label"))}
#: problem kind -> source kind -> the fields that a stage from that source adds; a
#: vector has the system's state dimension
SOURCES = {
    "po": {"simulate": {"source.y0": Field("vector"), "source.period": POSITIVE,
                        "source.transient_periods": optional(Field("number", lo=0)), **_MESH,
                        **_RELEASED, "continuation.detect_tr": optional(BOOL)}},
    "torus": {
        "samples": {"source.path": STRING, **_MESH, **_RELEASED},
        # om2 is a number before it is positive: a bool is refused as not a number
        "simulate_circle": {
            "source.n_seg": Field("integer", lo=3, odd=True), "source.params": OBJECT,
            "source.params.om1": NUMBER, "source.params.om2": (NUMBER, POSITIVE),
            "source.params.varrho": NUMBER, "source.radius": optional(POSITIVE),
            "source.transient_loops": optional(Field("integer", lo=0)), **_MESH, **_RELEASED},
        "tr": {**_RUN, "source.N": optional(COUNT),
               "source.eps": optional(Field("number", nonzero=True, null=True)), **_RELEASED},
        "torus": {**_RUN, **_MESH, "discretization.N": optional(COUNT), **_RELEASED},
        "bp": _RUN,
    },
}
#: continuation field -> ContinuationState attribute
STATE_FIELDS = {"h0": "h", "h_min": "h_min", "h_max": "h_max", "pt_max": "pt_max",
                "bi_direct": "bi_direct"}


# -- config loading and validation ---------------------------------------------


def load_config(path: str) -> dict:
    try:
        return fields.load(path, ConfigError)
    except FileNotFoundError:
        raise NotFoundError(f"config file {path!r} does not exist") from None


def resolve_system(doc: dict, path: str = "config"):
    """(vf, p0) of a config whose top-level fields are checked: its ``system``
    is a builtin or a plugin, with a value for each of its parameters."""
    reader = fields.Reader(path, ConfigError)
    got = reader.check(doc, CONFIG, reader="config")
    if "system.name" in got:
        try:
            vf = odesys.get_builtin(got["system.name"])
        except NotFoundError as exc:
            reader.fail("system.name", str(exc))
    elif "system.plugin" in got:
        mod, _, attr = got["system.plugin"].partition(":")
        try:
            vf = getattr(importlib.import_module(mod), attr)()
        except (ImportError, AttributeError, ValueError) as exc:  # ValueError: no module name
            reader.fail("system.plugin", f"cannot load {got['system.plugin']!r} as "
                                         f"'module:factory': {exc}")
    else:
        reader.fail("system", "needs 'name' (builtin) or 'plugin' (module:factory)")
    params = fields.Reader(path, ConfigError, "system.params").check(
        got["system.params"], dict.fromkeys(vf.param_names, NUMBER), f"{vf.name} system")
    return vf, np.array([float(params[name]) for name in vf.param_names])


def _state_from(cfg: dict, path: str) -> contin.ContinuationState:
    """The ContinuationState of a continuation section with checked fields."""
    try:
        return contin.ContinuationState(**{attr: cfg[key] for key, attr in STATE_FIELDS.items()
                                           if key in cfg})
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _bounds_from(cfg: dict) -> dict:
    """The bounds of a checked continuation section: monitor name -> (lo, hi)."""
    return {name: tuple(None if end is None else float(end) for end in pair)
            for name, pair in cfg.get("bounds", {}).items()}


def validate_config(doc: dict, path: str = "config"):
    """(vf, p0, stages) of the config ``doc`` read from ``path``.  Every field
    of every stage is checked before the first stage runs; a fault raises
    ConfigError naming the file and the field."""
    vf, p0 = resolve_system(doc, path)
    if not doc["stages"]:
        fields.Reader(path, ConfigError).fail("stages", "needs at least one stage")
    seen = set()
    for i, st in enumerate(doc["stages"]):
        reader = fields.Reader(path, ConfigError, f"stages[{i}]")
        kind = reader.check(st, STAGE)["problem"]
        skind = reader.value(st["source"]["kind"], "source.kind",
                             Field("string", among=tuple(SOURCES[kind])))
        params, scalars = KINDS[kind].names(vf)
        table = {**STAGE, **CONTINUATION, **SOURCES[kind][skind], **{
            f"continuation.bounds.{m}": optional(Field("interval")) for m in params + scalars}}
        if "source.y0" in table:
            table["source.y0"] = Field("vector", shape=(vf.dim_state,))
        got = reader.check(st, table, f"{skind} source")
        if got["run_id"] in seen:
            reader.fail("run_id", f"duplicate run id {got['run_id']!r}")
        seen.add(got["run_id"])
        try:  # a bp source releases its run's names
            contin.check_released(got.get("continuation.released", ()), params)
        except ConfigError as exc:
            reader.fail("continuation.released", str(exc))
        _state_from(got["continuation"], f"{path}: stages[{i}].continuation")
    return vf, p0, doc["stages"]


# -- stage execution -----------------------------------------------------------


def _progress_printer(monitor_names, out=sys.stdout):
    header = "  ".join(["label", "TYPE"] + [f"{n:>12}" for n in monitor_names])

    def cb(pt):
        cells = [f"{pt.label:5d}", f"{pt.ptype:>4}"]
        cells += [f"{pt.monitors[n]: 12.6e}" for n in monitor_names]
        print("  ".join(cells), file=out)

    print(header, file=out)
    return cb


def _po_stage(vf, p0, st, store_dir, bounds):
    src = st["source"]
    y0 = np.asarray(src["y0"], dtype=float)
    period = float(src["period"])
    transient = float(src.get("transient_periods", 100))
    disc = st.get("discretization", {})
    mesh = colloc.build_mesh(int(disc.get("ntst", 20)), int(disc.get("degree", 4)))

    if transient > 0:
        res = ivp.integrate(vf, [0.0, transient * period], y0, p0)
        y0 = res.y[-1]
    traj = po.sample_orbit(vf, y0, p0, mesh, period)
    orbit = po.solve_po(vf, traj, p0)

    cont = st["continuation"]
    problem, u0 = po.continuation_problem(
        vf, orbit, cont["released"], bounds=bounds,
        detect_tr=bool(cont.get("detect_tr", True)),
        detect_bp=bool(cont.get("detect_bp", False)),
    )
    return problem, u0


def _make_circle_samples(vf, p0, src, mesh):
    """(samples, params) of a ``simulate_circle`` source: the circle seeds after
    the transient, integrated onto the distinct base-point times of one return."""
    n_seg, params = src["n_seg"], src["params"]
    radius = float(src.get("radius", 2.0))
    t_ret = 2 * np.pi / float(params["om2"])
    loops = int(src.get("transient_loops", 10))
    angles = 2 * np.pi * np.arange(n_seg) / n_seg
    seeds = np.zeros((n_seg, vf.dim_state))
    seeds[:, 0] = radius * np.cos(angles)
    seeds[:, 1] = radius * np.sin(angles)
    if loops > 0:
        seeds = ivp.integrate(vf, [0.0, loops * t_ret], seeds, p0).y[-1]
    tau = colloc.distinct_basepoints(mesh)[0]
    samples = ivp.integrate(vf, t_ret * tau, seeds, p0).y.swapaxes(0, 1)
    full = {name: float(val) for name, val in zip(vf.param_names, p0)}
    full.update({k: float(params[k]) for k in torus.EXTRA_PARAMS})
    return samples, full


def _torus_stage(vf, p0, st, store_dir, bounds):
    src = st["source"]
    cont = st["continuation"]
    disc = st.get("discretization", {})
    detect_bp = bool(cont.get("detect_bp", True))

    kind = src["kind"]
    if kind == "samples":
        problem, u0 = store.restart_isol2tor(
            src["path"], cont["released"], vf=vf,
            ntst=int(disc.get("ntst", 20)), degree=int(disc.get("degree", 4)),
            bounds=bounds, detect_bp=detect_bp,
        )
    elif kind == "simulate_circle":
        mesh = colloc.build_mesh(int(disc.get("ntst", 20)), int(disc.get("degree", 4)))
        samples, full = _make_circle_samples(vf, p0, src, mesh)
        sol = torus.init_from_samples(vf, samples, full, mesh)
        problem, u0 = torus.continuation_problem(
            vf, sol, cont["released"], bounds=bounds, detect_bp=detect_bp)
    elif kind == "tr":  # the restarts hold the defaults of unstated fields
        problem, u0 = store.restart_TR2tor(
            store_dir, src["run"], src.get("label"), cont["released"],
            vf=vf, bounds=bounds, detect_bp=detect_bp,
            **{key: src[key] for key in ("N", "eps") if key in src},
        )
    elif kind == "torus":
        problem, u0 = store.restart_tor2tor(
            store_dir, src["run"], src.get("label"),
            released=cont.get("released"), vf=vf, bounds=bounds, detect_bp=detect_bp,
            N=disc.get("N"), ntst=disc.get("ntst"), degree=disc.get("degree"),
        )
    else:  # "bp"; validate_config admits no other source kind
        problem, u0 = store.restart_BP2tor(
            store_dir, src["run"], src.get("label"),
            vf=vf, bounds=bounds, detect_bp=detect_bp,
        )
    return problem, u0


def cmd_run(config_path: str, stage: str = None, store_dir: str = None,
            quiet: bool = False) -> int:
    doc = load_config(config_path)
    vf, p0, stages = validate_config(doc, config_path)
    base = store_dir or doc.get("store", DEFAULT_STORE)
    selected = [st for st in stages if stage is None or st["run_id"] == stage]
    if stage is not None and not selected:
        raise NotFoundError(f"config has no stage {stage!r}")
    try:
        os.makedirs(base, exist_ok=True)
    except FileExistsError:
        raise InputError(f"store {base!r} is not a directory") from None
    except OSError as exc:
        raise InputError(f"cannot make store directory {base!r}: {exc.strerror}") from None
    for st in selected:
        print(f"== run {st['run_id']} ({st['problem']}, source {st['source']['kind']}) ==")
        cont, path = st["continuation"], f"stage {st['run_id']}"
        stage_problem = _po_stage if st["problem"] == "po" else _torus_stage
        problem, u0 = stage_problem(vf, p0, st, base, _bounds_from(cont))
        writer = store.RunWriter(base, st["run_id"], problem)
        progress = None if quiet else _progress_printer(problem.monitor_names)
        branch = contin.run(problem, u0, _state_from(cont, path), writer=writer,
                            progress=progress)
        special = [f"{pt.ptype}:{pt.label}" for pt in branch.points if pt.ptype != "RO"]
        print(f"   {len(branch.points)} points, termination: {branch.termination}")
        if special:
            print(f"   special points: {', '.join(special)}")
        for ev in branch.events:
            if ev.get("status") == "unlocated":
                print(f"   warning: {ev['type']} event bracketed but not located "
                      f"({ev.get('reason', '')})")
    return 0


# -- validate / export / bd / list ----------------------------------------------


def _open_output(path: str):
    """``path`` opened for writing; a path that cannot be written is an InputError."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc.strerror}") from None


def cmd_validate(store_dir: str, run_id: str, label: int, n_returns: int = 20,
                 out=None) -> int:
    out = out or sys.stdout
    doc, vf, sol = store.read_solution(store_dir, run_id, label)
    store.expect_point(doc, run_id, "torus")
    try:
        devs = torus.invariance_deviation(vf, sol, n_returns=n_returns)
    except IntegrationError as exc:
        print(f"integration failed at t = {exc.last_time}", file=out)
        raise
    print(f"torus invariance check: run {run_id}, label {label}, "
          f"{n_returns} returns (T = {sol.T!r})", file=out)
    for k, d in enumerate(devs, start=1):
        print(f"  return {k:3d}: deviation {d:.6e}", file=out)
    print(f"max deviation  {devs.max():.6e}", file=out)
    print(f"mean deviation {devs.mean():.6e}", file=out)
    return 0


def cmd_export(store_dir: str, run_id: str, label: int, theta2_count: int = 65,
               out_path: str = None) -> int:
    doc, vf, sol = store.read_solution(store_dir, run_id, label)
    store.expect_point(doc, run_id, "torus")
    grid = torus.export_torus_mesh(sol, theta2_count)
    out_path = out_path or f"{run_id}_label{label}_torus.tsv"
    with _open_output(out_path) as fh:
        fh.write("# torcont torus grid v1\n")
        fh.write(f"# n_theta1 {grid.theta1.size} n_theta2 {grid.theta2.size} "
                 f"n_state {grid.values.shape[2]}\n")
        fh.write("# theta1\t" + "\t".join(repr(float(v)) for v in grid.theta1) + "\n")
        fh.write("# theta2\t" + "\t".join(repr(float(v)) for v in grid.theta2) + "\n")
        for comp in range(grid.values.shape[2]):
            fh.write(f"# component {comp}: rows theta1, columns theta2\n")
            for i in range(grid.theta1.size):
                fh.write("\t".join(repr(float(v)) for v in grid.values[i, :, comp]) + "\n")
    print(f"wrote {out_path}")
    return 0


def cmd_bd(store_dir: str, run_id: str, columns, out_path: str = None,
           out=None) -> int:
    out = out or sys.stdout
    bd = store.read_bd(store_dir, run_id)
    for name in columns:
        if name not in bd.columns:
            raise NotFoundError(
                f"run {run_id!r} has no monitor {name!r}; "
                f"available: {', '.join(bd.columns)}"
            )
    lines = ["# " + "\t".join(columns)]
    for i in range(len(bd.labels)):
        lines.append("\t".join(repr(bd.columns[name][i]) for name in columns))
    text = "\n".join(lines) + "\n"
    if out_path:
        with _open_output(out_path) as fh:
            fh.write(text)
        print(f"wrote {out_path}", file=out)
    else:
        out.write(text)
    return 0


def cmd_list(store_dir: str, run_id: str = None, out=None) -> int:
    out = out or sys.stdout
    if run_id is None:
        for name in store.list_runs(store_dir):
            meta = store.read_meta(store_dir, name)
            env = [f"{key} {meta[key]}" for key in ("numpy", "blas") if key in meta]
            env += [f"{var}={val}" for var, val in meta.get("threads", {}).items() if val]
            print("\t".join([name, meta["kind"], f"released: {', '.join(meta['released'])}", *env]),
                  file=out)
        return 0
    bd = store.read_bd(store_dir, run_id)
    for lab, ptype in zip(bd.labels, bd.types):
        print(f"{lab}\t{ptype}", file=out)
    return 0


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torcont",
        description="Continuation of two-dimensional quasi-periodic invariant tori.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute the stages of a config file")
    p_run.add_argument("config")
    p_run.add_argument("--stage", help="run only this stage (run_id)")
    p_run.add_argument("--store", help="override the store directory")
    p_run.add_argument("--quiet", action="store_true", help="suppress per-point rows")

    p_val = sub.add_parser("validate", help="forward-simulation invariance check")
    p_val.add_argument("run_id")
    p_val.add_argument("label", type=int)
    p_val.add_argument("--returns", type=int, default=20)
    p_val.add_argument("--store", default=DEFAULT_STORE)

    p_exp = sub.add_parser("export", help="export a torus surface grid")
    p_exp.add_argument("run_id")
    p_exp.add_argument("label", type=int)
    p_exp.add_argument("--theta2", type=int, default=65)
    p_exp.add_argument("-o", "--output")
    p_exp.add_argument("--store", default=DEFAULT_STORE)

    p_bd = sub.add_parser("bd", help="export branch-data columns")
    p_bd.add_argument("run_id")
    p_bd.add_argument("--columns", nargs="+", required=True)
    p_bd.add_argument("-o", "--output")
    p_bd.add_argument("--store", default=DEFAULT_STORE)

    p_ls = sub.add_parser("list", help="list runs in a store, or labels of a run")
    p_ls.add_argument("run_id", nargs="?")
    p_ls.add_argument("--store", default=DEFAULT_STORE)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            return cmd_run(args.config, stage=args.stage, store_dir=args.store,
                           quiet=args.quiet)
        if args.verb == "validate":
            return cmd_validate(args.store, args.run_id, args.label,
                                n_returns=args.returns)
        if args.verb == "export":
            return cmd_export(args.store, args.run_id, args.label,
                              theta2_count=args.theta2, out_path=args.output)
        if args.verb == "bd":
            return cmd_bd(args.store, args.run_id, args.columns, out_path=args.output)
        if args.verb == "list":
            return cmd_list(args.store, args.run_id)
    except (ConfigError, FormatError, InputError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, IntegrationError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except NotFoundError as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return 4
    except TorcontError as exc:  # pragma: no cover - catch-all
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
