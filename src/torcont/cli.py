"""Command-line frontend: declarative run configs, validation, exports.

Verbs:

    torcont run CONFIG [--stage RUN_ID] [--store DIR]
    torcont validate RUN_ID LABEL [--returns N] [--store DIR]
    torcont export RUN_ID LABEL [--theta2 K] [-o FILE] [--store DIR]
    torcont bd RUN_ID --columns NAME [NAME ...] [-o FILE] [--store DIR]
    torcont list [RUN_ID] [--store DIR]

Exit codes: 0 success, 2 configuration error or an output path that cannot
be written, 3 convergence failure, 4 not found.  A config file is JSON with
a ``system`` header and a list of ``stages``; each stage declares its
initial data source (simulated orbit, samples file, circle-seeded
simulation, or a prior run's labeled solution), discretization, and
continuation options.  Stages chain through run ids, so one file reproduces
a whole workflow.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import colloc, contin, ivp, odesys, po, store, torus
from .errors import (
    ConfigError,
    ConvergenceError,
    FormatError,
    InputError,
    IntegrationError,
    NotFoundError,
    TorcontError,
)

DEFAULT_STORE = "runs"
#: problem kind -> adapter module, whose ``names(vf)`` lists its parameters and scalars
KINDS = {"po": po, "torus": torus}
_MESH = ("ntst", "degree")
#: problem kind -> source kind -> (required source fields and their types,
#: optional source fields, discretization fields); no other field is read
SOURCES = {
    "po": {"simulate": ({"y0": list, "period": (int, float)}, ("transient_periods",), _MESH)},
    "torus": {
        "samples": ({"path": str}, (), _MESH),
        "simulate_circle": ({"n_seg": int, "params": dict}, ("radius", "transient_loops"), _MESH),
        "tr": ({"run": str}, ("label", "N", "eps"), ()),
        "torus": ({"run": str}, ("label",), _MESH + ("N",)),
        "bp": ({"run": str}, ("label",), ()),
    },
}


# -- config loading and validation ---------------------------------------------


def _cfg_error(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _need(doc, key, types, path, what=""):
    if key not in doc:
        _cfg_error(f"{path}.{key}", f"missing required field {what}".strip())
    val = doc[key]
    if types is not None and not isinstance(val, types):
        _cfg_error(f"{path}.{key}", f"expected {types}, got {type(val).__name__}")
    return val


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise NotFoundError(f"config file {path!r} does not exist") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from None


def resolve_system(doc: dict):
    sysdoc = _need(doc, "system", dict, "config")
    if "name" in sysdoc:
        vf = odesys.get_builtin(sysdoc["name"])
    elif "plugin" in sysdoc:
        mod, _, attr = sysdoc["plugin"].partition(":")
        if not attr:
            _cfg_error("config.system.plugin", "expected 'module:factory'")
        import importlib

        try:
            vf = getattr(importlib.import_module(mod), attr)()
        except (ImportError, AttributeError) as exc:
            _cfg_error("config.system.plugin", f"cannot load {sysdoc['plugin']!r}: {exc}")
    else:
        _cfg_error("config.system", "needs 'name' (builtin) or 'plugin' (module:factory)")
    params = _need(sysdoc, "params", dict, "config.system")
    missing = [n for n in vf.param_names if n not in params]
    if missing:
        _cfg_error("config.system.params", f"missing values for: {', '.join(missing)}")
    unknown = [n for n in params if n not in vf.param_names]
    if unknown:
        _cfg_error(
            "config.system.params",
            f"unknown parameter(s) {', '.join(unknown)}; system has {', '.join(vf.param_names)}",
        )
    p0 = np.array([float(params[n]) for n in vf.param_names])
    return vf, p0


def _check_released(released, vf, problem_kind, path):
    if not isinstance(released, list) or not all(isinstance(x, str) for x in released):
        _cfg_error(path, "must be a list of parameter names")
    try:
        contin.check_released(released, KINDS[problem_kind].names(vf)[0])
    except ConfigError as exc:
        _cfg_error(path, str(exc))


def _only(doc, fields, path, reader):
    """Refuse a field of ``doc`` outside ``fields``, the ones ``reader`` reads."""
    for key in doc:
        if key not in fields:
            _cfg_error(f"{path}.{key}", f"is not read by {reader}; it reads "
                                        f"{', '.join(fields) or 'no field'}")


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) < np.inf


def _is_int(val, least) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val >= least


_NUMBER = (_is_number, "a finite number")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_POSITIVE_INT = (lambda v: _is_int(v, 1), "a positive integer")
#: stage section -> optional field -> (value check, what it needs)
OPTIONAL_FIELDS = {
    "source": {
        "transient_periods": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
        "N": _POSITIVE_INT,
        "eps": (lambda v: v is None or (_is_number(v) and v != 0), "a nonzero number or null"),
        "label": (store.is_label_spec, 'a label >= 1 or {"type": ..., "pick": '
                                       '"first", "last" or an index}'),
        "radius": (lambda v: _is_number(v) and v > 0, "a positive number"),
        "transient_loops": (lambda v: _is_int(v, 0), "an integer >= 0"),
    },
    "continuation": {"h0": _NUMBER, "h_min": _NUMBER, "h_max": _NUMBER, "pt_max": _POSITIVE_INT,
                     "bi_direct": _BOOL, "detect_tr": _BOOL, "detect_bp": _BOOL},
    "discretization": {"ntst": _POSITIVE_INT, "degree": _POSITIVE_INT, "N": _POSITIVE_INT},
}
#: continuation field -> ContinuationState attribute
STATE_FIELDS = {"h0": "h", "h_min": "h_min", "h_max": "h_max", "pt_max": "pt_max",
                "bi_direct": "bi_direct"}


def _state_from(cfg: dict, path: str) -> contin.ContinuationState:
    """The ContinuationState of a continuation section with checked fields."""
    try:
        return contin.ContinuationState(**{attr: cfg[key] for key, attr in STATE_FIELDS.items()
                                           if key in cfg})
    except ConfigError as exc:
        _cfg_error(path, str(exc))


def _bounds_from(cfg: dict, vf, problem_kind, path):
    bounds = cfg.get("bounds", {})
    if not isinstance(bounds, dict):
        _cfg_error(f"{path}.bounds", "must map monitor names to [lo, hi] pairs")
    params, scalars = KINDS[problem_kind].names(vf)
    allowed = params + scalars
    out = {}
    for name, pair in bounds.items():
        if name not in allowed:
            _cfg_error(f"{path}.bounds.{name}", f"unknown monitor; known: {', '.join(allowed)}")
        if not isinstance(pair, list) or len(pair) != 2:
            _cfg_error(f"{path}.bounds.{name}", "expected [lo, hi] (null for one-sided)")
        lo, hi = pair
        if not all(end is None or _is_number(end) for end in pair):
            _cfg_error(f"{path}.bounds.{name}", f"ends must be numbers or null, got {pair!r}")
        if lo is not None and hi is not None and lo > hi:
            _cfg_error(f"{path}.bounds.{name}", f"lower end {lo} is above upper end {hi}")
        out[name] = (None if lo is None else float(lo), None if hi is None else float(hi))
    return out


def validate_config(doc: dict):
    vf, p0 = resolve_system(doc)
    stages = _need(doc, "stages", list, "config")
    if not stages:
        _cfg_error("config.stages", "needs at least one stage")
    seen = set()
    for i, st in enumerate(stages):
        path = f"config.stages[{i}]"
        run_id = _need(st, "run_id", str, path)
        if run_id in seen:
            _cfg_error(f"{path}.run_id", f"duplicate run id {run_id!r}")
        seen.add(run_id)
        kind = _need(st, "problem", str, path)
        if kind not in KINDS:
            _cfg_error(f"{path}.problem", "must be 'po' or 'torus'")
        source = _need(st, "source", dict, path)
        skind = _need(source, "kind", str, f"{path}.source")
        if skind not in SOURCES[kind]:
            _cfg_error(f"{path}.source.kind", f"{kind} stages accept {', '.join(SOURCES[kind])}")
        required, optional, mesh_fields = SOURCES[kind][skind]
        for key, types in required.items():
            _need(source, key, types, f"{path}.source")
        if skind == "simulate":
            y0, period = source["y0"], source["period"]
            if len(y0) != vf.dim_state or not all(_is_number(v) for v in y0):
                _cfg_error(f"{path}.source.y0",
                           f"must be a list of {vf.dim_state} numbers, got {y0!r}")
            if not (_is_number(period) and period > 0):
                _cfg_error(f"{path}.source.period", f"must be a positive number, got {period!r}")
        if skind == "simulate_circle":
            n_seg, params = source["n_seg"], source["params"]
            if not (_is_int(n_seg, 3) and n_seg % 2):
                _cfg_error(f"{path}.source.n_seg", f"must be an odd integer >= 3, got {n_seg!r}")
            _only(params, torus.EXTRA_PARAMS, f"{path}.source.params", "a simulate_circle source")
            for key in torus.EXTRA_PARAMS:
                val = _need(params, key, None, f"{path}.source.params")
                if not _is_number(val):
                    _cfg_error(f"{path}.source.params.{key}", f"must be a number, got {val!r}")
            if params["om2"] <= 0:
                _cfg_error(f"{path}.source.params.om2", "must be positive")
        cont = _need(st, "continuation", dict, path)
        _only(st, ("run_id", "problem", "source", "discretization", "continuation"), path,
              "a stage")
        if "discretization" in st and not mesh_fields:
            _cfg_error(f"{path}.discretization", f"a {skind} source takes no discretization")
        cont_fields = ["released", "bounds", *OPTIONAL_FIELDS["continuation"]]
        if kind == "torus":
            cont_fields.remove("detect_tr")
        if skind == "bp":
            cont_fields.remove("released")
        read = {"source": ("kind", *required, *optional), "discretization": mesh_fields,
                "continuation": cont_fields}
        for section, fields in OPTIONAL_FIELDS.items():
            values = st.get(section, {})
            if not isinstance(values, dict):
                _cfg_error(f"{path}.{section}", f"must be an object, got {values!r}")
            _only(values, read[section], f"{path}.{section}",
                  f"a {kind} stage from a {skind} source")
            for key, (valid, need) in fields.items():
                if key in values and not valid(values[key]):
                    _cfg_error(f"{path}.{section}.{key}", f"must be {need}, got {values[key]!r}")
        if skind != "bp":
            released = _need(cont, "released", list, f"{path}.continuation")
            _check_released(released, vf, kind, f"{path}.continuation.released")
        _bounds_from(cont, vf, kind, f"{path}.continuation")
        _state_from(cont, f"{path}.continuation")
    return vf, p0, stages


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
    vf, p0, stages = validate_config(doc)
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
        problem, u0 = stage_problem(vf, p0, st, base,
                                    _bounds_from(cont, vf, st["problem"], path))
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
            print(f"{name}\t{meta['kind']}\treleased: {', '.join(meta['released'])}",
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
