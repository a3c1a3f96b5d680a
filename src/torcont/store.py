"""Persistence of continuation runs and the four restart pathways.

One directory per run inside a store directory:

    <store>/<run_id>/meta.json        run-level header (system, problem kind,
                                      released names, monitor column order)
    <store>/<run_id>/bd.tsv           bifurcation-data table, one row per
                                      labeled point: label, type, monitors
    <store>/<run_id>/sol_<label>.json labeled solution snapshot
    <store>/<run_id>/events.json      branch events, written when the run ends

Scalar floats are written with ``repr``, which round-trips IEEE doubles
bit-exactly through JSON; the float arrays of a snapshot are the base64 of
their little-endian bytes (``_encode_array``), bit-exact too.  Formats carry
a version field; a mismatch raises :class:`FormatError` instead of misreading.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import colloc, contin, po as po_mod, torus as torus_mod
from .errors import ConfigError, FormatError, InputError, NotFoundError
from .fourier import dft_matrix, trig_interpolate
from .odesys import VectorField, get_builtin

FORMAT_VERSION = 1  # meta.json, events.json, samples files
SNAPSHOT_VERSION = 2  # sol_<label>.json; version 1 wrote arrays as float lists
BD_HEADER = "# torcont bd v1"


def _f(x) -> str:
    return repr(float(x))


def run_dir(store: str, run_id: str) -> str:
    return os.path.join(store, run_id)


def snapshot_path(store: str, run_id: str, label: int) -> str:
    return os.path.join(run_dir(store, run_id), f"sol_{int(label):06d}.json")


# -- snapshot encoding ---------------------------------------------------------


def _encode_array(a) -> dict:
    """A float array as {"dtype": "<f8", "shape", "data": base64 of its bytes}."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(obj, path: str, name: str, shape: Optional[tuple] = None) -> np.ndarray:
    """Inverse of ``_encode_array``, optionally of an array of ``shape``;
    errors name the file and the field."""
    if not isinstance(obj, dict) or obj.get("dtype") != "<f8":
        raise FormatError(f"{path}: field {name!r} is not an encoded <f8 array")
    try:
        got = tuple(int(k) for k in obj["shape"])
        raw = base64.b64decode(obj["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise FormatError(f"{path}: field {name!r} is a malformed array ({exc})") from None
    if min(got, default=0) < 0 or len(raw) != 8 * math.prod(got):
        raise FormatError(f"{path}: field {name!r} has {len(raw)} data bytes, "
                          f"not 8 per entry of shape {list(got)}")
    if shape is not None and got != tuple(shape):
        raise FormatError(f"{path}: field {name!r} has shape {list(got)}, not {list(shape)}")
    return np.frombuffer(raw, dtype="<f8").reshape(got).astype(float)  # a writable copy


def _number(value, path: str, name: str, count: bool = False):
    """``value`` if a finite JSON number, with ``count`` a positive integer; anything
    else (a bool, NaN or an infinity too) raises FormatError naming the file and field."""
    kinds = int if count else (int, float)
    if (isinstance(value, bool) or not isinstance(value, kinds) or not abs(value) < math.inf
            or (count and value < 1)):
        raise FormatError(f"{path}: field {name!r} is {value!r}, not "
                          + ("a positive integer" if count else "a finite number"))
    return value


def _system_header(vf: VectorField) -> dict:
    return {
        "name": vf.name,
        "dim_state": vf.dim_state,
        "param_names": list(vf.param_names),
        "autonomous": vf.autonomous,
        "forcing_param": vf.forcing_param,
    }


def torus_snapshot(vf: VectorField, sol: torus_mod.TorusSolution) -> dict:
    ref = sol.reference
    return {
        "format": "torcont-solution",
        "version": SNAPSHOT_VERSION,
        "kind": "torus",
        "system": _system_header(vf),
        "mesh": {"ntst": sol.mesh.ntst, "degree": sol.mesh.degree},
        "fourier_modes": sol.N,
        "x_seg": _encode_array(sol.x_seg),
        "T0": sol.T0,
        "T": sol.T,
        "p": _encode_array(sol.p),
        "om1": sol.om1,
        "om2": sol.om2,
        "varrho": sol.varrho,
        "reference": {
            "v00": _encode_array(ref.v00),
            "vphi": _encode_array(ref.vphi),
            "vt": None if ref.vt is None else _encode_array(ref.vt),
        },
    }


def po_snapshot(vf: VectorField, orbit: po_mod.PeriodicOrbit) -> dict:
    return {
        "format": "torcont-solution",
        "version": SNAPSHOT_VERSION,
        "kind": "po",
        "system": _system_header(vf),
        "mesh": {"ntst": orbit.traj.mesh.ntst, "degree": orbit.traj.mesh.degree},
        "x_bp": _encode_array(orbit.traj.x_bp),
        "T": orbit.traj.duration,
        "t_offset": orbit.traj.t_offset,
        "p": _encode_array(orbit.p),
        "reference": {
            "x0": _encode_array(orbit.reference.x0),
            "f0": _encode_array(orbit.reference.f0),
        },
    }


def _check_format(doc: dict, path: str):
    if doc.get("format") != "torcont-solution":
        raise FormatError(f"{path}: not a torcont solution file")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise FormatError(
            f"{path}: format version {doc.get('version')} not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )


def resolve_field(doc: dict, vf: Optional[VectorField]) -> VectorField:
    """Vector field for a snapshot: the given one, or the named builtin."""
    sysinfo = doc["system"]
    if vf is None:
        if sysinfo.get("name") is None:
            raise ConfigError(
                "snapshot was produced by an unnamed user-defined system; "
                "pass its VectorField explicitly to restart"
            )
        vf = get_builtin(sysinfo["name"])
    if vf.dim_state != sysinfo["dim_state"] or list(vf.param_names) != sysinfo["param_names"]:
        raise ConfigError("vector field does not match the snapshot's system header")
    return vf


def solution_from_snapshot(doc: dict, vf: Optional[VectorField] = None,
                           path: str = "snapshot"):
    """Rebuild a TorusSolution or PeriodicOrbit (with its field) from a dict;
    ``path`` names the source in format errors.  Every array must have the
    shape and every scalar the type of docs/formats.md."""
    vf = resolve_field(doc, vf)
    mesh = colloc.build_mesh(_number(doc["mesh"]["ntst"], path, "mesh.ntst", count=True),
                             _number(doc["mesh"]["degree"], path, "mesh.degree", count=True))
    n, q = vf.dim_state, len(vf.param_names)

    def array(obj, name, *shape):
        return _decode_array(obj, path, name, shape)

    def number(name):
        return _number(doc[name], path, name)

    if doc["kind"] == "torus":
        N = _number(doc["fourier_modes"], path, "fourier_modes", count=True)
        ref = doc["reference"]
        sol = torus_mod.TorusSolution(
            mesh=mesh,
            coupling=dft_matrix(N),
            x_seg=array(doc["x_seg"], "x_seg", 2 * N + 1, mesh.n_base, n),
            T0=number("T0"),
            T=number("T"),
            p=array(doc["p"], "p", q),
            om1=number("om1"),
            om2=number("om2"),
            varrho=number("varrho"),
            reference=torus_mod.ReferenceSection(
                v00=array(ref["v00"], "reference.v00", n),
                vphi=array(ref["vphi"], "reference.vphi", n),
                vt=None if ref["vt"] is None else array(ref["vt"], "reference.vt", n),
            ),
        )
        return vf, sol
    if doc["kind"] == "po":
        traj = colloc.Trajectory(
            mesh=mesh,
            x_bp=array(doc["x_bp"], "x_bp", mesh.n_base, n),
            duration=number("T"),
            t_offset=number("t_offset"),
        )
        ref = doc["reference"]
        orbit = po_mod.PeriodicOrbit(
            traj=traj,
            p=array(doc["p"], "p", q),
            reference=po_mod.PoReference(
                x0=array(ref["x0"], "reference.x0", n),
                f0=array(ref["f0"], "reference.f0", n),
            ),
        )
        return vf, orbit
    raise FormatError(f"unknown solution kind {doc['kind']!r}")


# -- run writer ----------------------------------------------------------------


@dataclass
class RunWriter:
    """Streams labeled points of one continuation run to disk.

    docs/formats.md gives the write order and the rule for a reused run
    directory (its old snapshots are deleted)."""

    store: str
    run_id: str
    problem: contin.ContinuationProblem
    _dir: str = ""

    def __post_init__(self):
        self._dir = run_dir(self.store, self.run_id)
        os.makedirs(self._dir, exist_ok=True)
        meta = json.dumps({
            "format": "torcont-run",
            "version": FORMAT_VERSION,
            "run_id": self.run_id,
            "kind": self.problem.kind,
            "system": _system_header(self.problem.vf),
            "monitor_names": list(self.problem.monitor_names),
            "released": list(self.problem.released),
        })
        # encoded before anything changes; then the old header goes first and
        # the old rows next: no header outlives its bd table, no row its snapshot
        meta_path = os.path.join(self._dir, "meta.json")
        if os.path.exists(meta_path):
            os.remove(meta_path)
        with open(os.path.join(self._dir, "bd.tsv"), "w") as fh:
            fh.write(BD_HEADER + "\n")
            fh.write("\t".join(["label", "type"] + list(self.problem.monitor_names)) + "\n")
        for name in os.listdir(self._dir):
            if name.startswith("sol_") or name == "events.json":
                os.remove(os.path.join(self._dir, name))
        _write_atomic(meta_path, meta)

    def write_point(self, pt: contin.BranchPoint):
        problem = self.problem
        sol = problem.embed(pt.u)
        if problem.kind == "torus":
            doc = torus_snapshot(problem.vf, sol)
        else:
            doc = po_snapshot(problem.vf, sol)
        doc["label"] = pt.label
        doc["point_type"] = pt.ptype
        doc["released"] = list(problem.released)
        doc["active"] = list(problem.active)
        doc["tangent"] = _encode_array(pt.tangent)
        doc["monitors"] = {k: float(v) for k, v in pt.monitors.items()}
        _write_atomic(snapshot_path(self.store, self.run_id, pt.label), doc)
        with open(os.path.join(self._dir, "bd.tsv"), "a") as fh:
            cells = [str(pt.label), pt.ptype]
            cells += [_f(pt.monitors[name]) for name in problem.monitor_names]
            fh.write("\t".join(cells) + "\n")

    def write_events(self, events: list):
        """Write the branch's events to ``events.json``; an event's ``u``
        bracket is stored as the monitor values at its two ends."""
        out = []
        for ev in events:
            entry = {k: v for k, v in ev.items() if k != "bracket"}
            if "bracket" in ev:
                entry["bracket"] = [{k: float(v) for k, v in self.problem.monitors(u).items()}
                                    for u in ev["bracket"]]
            out.append(entry)
        doc = {"format": "torcont-events", "version": FORMAT_VERSION, "events": out}
        _write_atomic(os.path.join(self._dir, "events.json"), doc)


def _write_atomic(path: str, doc):
    """Write ``doc`` (a dict or its JSON text) to a temporary file, then
    rename it to ``path``."""
    # json.dumps is the C encoder; json.dump runs the Python one
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with open(path + ".tmp", "w") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


class _Fields(dict):
    """A JSON object read from the file ``path``; a missing field raises a
    FormatError naming the file and the field."""

    def __init__(self, path: str, pairs):
        super().__init__(pairs)
        self.path = path

    def __missing__(self, key):
        raise FormatError(f"{self.path}: missing field {key!r}")


def _read_json(path: str) -> dict:
    """Parse a JSON file into :class:`_Fields` objects; invalid JSON raises a
    FormatError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=lambda pairs: _Fields(path, pairs))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"{path}: invalid JSON ({exc})") from None


# -- reading -------------------------------------------------------------------


@dataclass
class BdTable:
    run_id: str
    labels: list
    types: list
    columns: dict  # name -> list of floats

    def labels_of_type(self, ptype: str):
        return [lab for lab, t in zip(self.labels, self.types) if t == ptype]


def read_meta(store: str, run_id: str) -> dict:
    path = os.path.join(run_dir(store, run_id), "meta.json")
    if not os.path.exists(path):
        raise NotFoundError(f"run {run_id!r} not found in store {store!r}")
    meta = _read_json(path)
    if meta.get("format") != "torcont-run" or meta.get("version") != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported run format/version")
    return meta


def read_bd(store: str, run_id: str) -> BdTable:
    path = os.path.join(run_dir(store, run_id), "bd.tsv")
    if not os.path.exists(path):
        raise NotFoundError(f"run {run_id!r} has no bd table in store {store!r}")
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != BD_HEADER:
            raise FormatError(f"{path}: unsupported bd header {header!r}")
        names = fh.readline().rstrip("\n").split("\t")
        labels, types = [], []
        columns = {name: [] for name in names[2:]}
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            if len(cells) != len(names):
                raise FormatError(f"{path}: malformed row {line!r}")
            try:
                label, values = int(cells[0]), [float(cell) for cell in cells[2:]]
            except ValueError:
                raise FormatError(f"{path}: row {line!r} has a cell that does not parse") from None
            labels.append(label)
            types.append(cells[1])
            for name, value in zip(names[2:], values):
                columns[name].append(value)
    return BdTable(run_id=run_id, labels=labels, types=types, columns=columns)


def read_solution(store: str, run_id: str, label, vf: Optional[VectorField] = None):
    """Load the snapshot of a stored point; returns (doc, vf, solution object).

    ``label`` is a bd label or a label spec (:func:`is_label_spec`), resolved
    against the run's bd table, which is parsed once; a snapshot file without
    a row is not part of the run.  ``doc["label"]`` is the resolved label.
    """
    lab = pick_label(read_bd(store, run_id), label)
    path = snapshot_path(store, run_id, lab)
    if not os.path.exists(path):
        raise NotFoundError(f"label {lab} not found in run {run_id!r}")
    doc = _read_json(path)
    _check_format(doc, path)
    if doc["label"] != lab:
        raise FormatError(f"{path}: holds label {doc['label']!r}, not {lab}")
    vf, sol = solution_from_snapshot(doc, vf, path)
    return doc, vf, sol


def expect_point(doc: dict, run_id: str, kind: str, ptype: Optional[str] = None):
    """Raise a ConfigError unless the snapshot ``doc`` of run ``run_id`` is
    of ``kind`` and, if given, of point type ``ptype``."""
    if doc["kind"] != kind:
        raise ConfigError(f"label {doc['label']} of run {run_id!r} is a {doc['kind']}, "
                          f"not a {'periodic orbit' if kind == 'po' else kind}")
    if ptype is not None and doc["point_type"] != ptype:
        raise ConfigError(f"label {doc['label']} of run {run_id!r} is type "
                          f"{doc['point_type']!r}, not {ptype}")


def is_label_spec(spec) -> bool:
    """Whether ``spec`` names a stored point: a label (an int >= 1), or
    {"type": <point type>, "pick": "first" (the default), "last" or an
    index into the labels of that type}."""
    def index(val):
        return isinstance(val, (int, np.integer)) and not isinstance(val, bool)

    if isinstance(spec, dict) and isinstance(spec.get("type"), str):
        return spec.get("pick", "first") in ("first", "last") or index(spec.get("pick"))
    return index(spec) and spec >= 1


def pick_label(bd: BdTable, spec) -> int:
    """Resolve a label spec (:func:`is_label_spec`) against a bd table."""
    if not is_label_spec(spec):
        raise ConfigError(f"invalid label spec {spec!r}")
    if not isinstance(spec, dict):
        if spec not in bd.labels:
            raise NotFoundError(f"label {spec} not in run {bd.run_id!r}")
        return int(spec)
    labs = bd.labels_of_type(spec["type"])
    if not labs:
        raise NotFoundError(f"run {bd.run_id!r} has no {spec['type']} points")
    pick = spec.get("pick", "first")
    try:
        return labs[{"first": 0, "last": -1}.get(pick, pick)]
    except IndexError:
        raise NotFoundError(f"cannot pick {pick!r} from {len(labs)} labels") from None


def list_runs(store: str):
    if not os.path.isdir(store):
        raise NotFoundError(f"store directory {store!r} does not exist")
    out = []
    for name in sorted(os.listdir(store)):
        if os.path.exists(os.path.join(store, name, "meta.json")):
            out.append(name)
    return out


# -- restart pathways ----------------------------------------------------------


def restart_tor2tor(
    store: str,
    run_id: str,
    label,
    released=None,
    vf: Optional[VectorField] = None,
    bounds: Optional[dict] = None,
    detect_bp: bool = True,
    N: Optional[int] = None,
    ntst: Optional[int] = None,
    degree: Optional[int] = None,
):
    """Continue tori from a saved torus solution; returns (problem, u0).

    ``label`` is a label or a label spec (``None``: the run's last EP).  The
    discretization is rebuilt identically unless N/ntst/degree are
    overridden, in which case the saved solution is interpolated onto the
    finer grid (trigonometric in the angle, Lagrange in time) and
    re-converged as an isolated square problem before continuation.
    Otherwise the stored tangent, mapped by name, borders the start.
    """
    doc, vf, sol = read_solution(
        store, run_id, {"type": "EP", "pick": "last"} if label is None else label, vf)
    expect_point(doc, run_id, "torus")
    released = list(released) if released is not None else list(doc["released"])

    refined = any(v is not None for v in (N, ntst, degree))
    if refined:
        sol = refine_torus(vf, sol, N=N, ntst=ntst, degree=degree)

    problem, u0 = torus_mod.continuation_problem(
        vf, sol, released, bounds=bounds, detect_bp=detect_bp)
    if not refined:
        path = snapshot_path(store, run_id, doc["label"])
        params, scalars = torus_mod.names(vf)
        for name in doc["active"]:
            if name not in params:
                raise FormatError(f"{path}: field 'active' names unknown parameter {name!r}")
        S = sol.x_seg.size + len(scalars)
        cols = contin.active_columns(S, params, doc["active"])
        t_full = np.zeros(S + len(params))
        t_full[cols] = _decode_array(doc["tangent"], path, "tangent", (cols.size,))
        problem.start_border = t_full[contin.active_columns(S, params, problem.active)]
    return problem, u0


def refine_torus(vf, sol, N=None, ntst=None, degree=None):
    """Interpolate a torus onto a finer discretization and re-converge it.

    The old torus is evaluated once at the new mesh's distinct base-point
    times (Lagrange in time) and the new segment angles (trigonometric);
    ``torus.init_from_samples`` builds the guess, and ``torus.solve_fixed``
    converges it with om1, om2 and varrho released.
    """
    mesh = colloc.build_mesh(ntst or sol.mesh.ntst, degree or sol.mesh.degree)
    circles = torus_mod.eval_circle(sol, sol.T0 + sol.T * colloc.distinct_basepoints(mesh)[0])
    samples = trig_interpolate(sol.coupling, circles.swapaxes(0, 1), dft_matrix(N or sol.N).angles)
    params = dict(zip(vf.param_names, sol.p), om1=sol.om1, om2=sol.om2, varrho=sol.varrho)
    return torus_mod.solve_fixed(vf, torus_mod.init_from_samples(vf, samples, params, mesh))


def restart_TR2tor(
    store: str,
    run_id: str,
    label,
    released,
    N: int = 10,
    eps: Optional[float] = None,
    vf: Optional[VectorField] = None,
    bounds: Optional[dict] = None,
    detect_bp: bool = False,
):
    """Torus continuation seeded at a TR periodic orbit; returns (problem, u0).

    ``label`` is a label or a label spec (``None``: the run's first TR).
    Floquet data is recomputed from the stored orbit; the torus has 2N+1
    segments, and the start correction is bordered with the torus-function
    perturbation direction.
    """
    if eps is not None and eps == 0.0:
        raise InputError("eps = 0 gives the degenerate torus; use a positive eps "
                         "(or omit it for the amplitude-scaled default)")
    doc, vf, orbit = read_solution(
        store, run_id, {"type": "TR", "pick": "first"} if label is None else label, vf)
    expect_point(doc, run_id, "po", "TR")
    floq = po_mod.floquet(vf, orbit)
    if floq.tr_eigvec is None:
        raise ConfigError(f"no complex multiplier pair at label {doc['label']}; "
                          "cannot seed a torus")
    sol = torus_mod.init_from_TR(vf, orbit, floq, N=N, eps=eps)
    problem, u0 = torus_mod.continuation_problem(
        vf, sol, list(released), bounds=bounds, detect_bp=detect_bp)
    problem.start_border = np.concatenate([torus_mod.tr_perturbation_direction(sol),
                                           np.zeros(problem.n_unknowns - sol.x_seg.size)])
    return problem, u0


def restart_BP2tor(
    store: str,
    run_id: str,
    label,
    vf: Optional[VectorField] = None,
    bounds: Optional[dict] = None,
    detect_bp: bool = True,
):
    """Secondary-branch continuation through the torus branch point that
    ``label`` names (a label or a label spec; ``None``: the run's first BP);
    returns (problem, u0) whose ``start_tangent`` is the switched direction.
    """
    doc, vf, sol = read_solution(
        store, run_id, {"type": "BP", "pick": "first"} if label is None else label, vf)
    expect_point(doc, run_id, "torus", "BP")
    released = list(doc["released"])
    problem, u0 = torus_mod.continuation_problem(
        vf, sol, released, bounds=bounds, detect_bp=detect_bp)
    incoming = _decode_array(doc["tangent"], snapshot_path(store, run_id, doc["label"]),
                             "tangent", (problem.n_unknowns,))
    problem.start_tangent = contin.switch_branch(problem, u0, incoming)
    return problem, u0


def restart_isol2tor(
    samples_path: str,
    released,
    vf: Optional[VectorField] = None,
    ntst: int = 20,
    degree: int = 4,
    bounds: Optional[dict] = None,
    detect_bp: bool = False,
):
    """Torus family seeded from a samples file; returns (problem, u0).

    The samples file is JSON: {"format": "torcont-samples", "version": 1,
    "system": <name or header>, "t_grid": [...], "samples": [[[...]]] with
    shape (segments, times, states), "params": {name: value, ...}}, resampled
    onto the base points for ``torus.init_from_samples``."""
    if not os.path.exists(samples_path):
        raise NotFoundError(f"samples file {samples_path!r} does not exist")
    doc = _read_json(samples_path)
    if doc.get("format") != "torcont-samples" or doc.get("version") != FORMAT_VERSION:
        raise FormatError(f"{samples_path}: not a torcont samples file (or wrong version)")
    if vf is None:
        sysinfo = doc.get("system")
        name = sysinfo if isinstance(sysinfo, str) else (sysinfo or {}).get("name")
        if name is None:
            raise ConfigError("samples file names no builtin system; pass a VectorField")
        vf = get_builtin(name)
    for key, ndim in (("t_grid", 1), ("samples", 3)):
        try:
            doc[key] = np.asarray(doc[key], dtype=float)
        except (TypeError, ValueError):  # a ragged or non-numeric list
            doc[key] = None
        if doc[key] is None or doc[key].ndim != ndim:
            raise FormatError(f"{samples_path}: field {key!r} is not a {ndim}-dimensional "
                              "array of numbers")
    params = doc["params"]
    if not (isinstance(params, dict) and all(type(v) in (int, float) for v in params.values())
            and params.get("om2", 0) > 0):
        raise FormatError(f"{samples_path}: field 'params' must map names to numbers, "
                          "om2 among them and positive")
    mesh = colloc.build_mesh(ntst, degree)
    on_mesh = colloc.sample_onto_basepoints(mesh, doc["t_grid"], doc["samples"].swapaxes(0, 1),
                                            2.0 * np.pi / params["om2"])
    sol = torus_mod.init_from_samples(vf, on_mesh.swapaxes(0, 1), params, mesh)
    problem, u0 = torus_mod.continuation_problem(
        vf, sol, list(released), bounds=bounds, detect_bp=detect_bp)
    return problem, u0


def write_samples_file(path: str, vf: VectorField, t_grid, samples, params: dict):
    """Write the samples file that :func:`restart_isol2tor` reads; a time,
    sample or parameter that is not finite is an :class:`InputError`."""
    t_grid, samples = np.asarray(t_grid, dtype=float), np.asarray(samples, dtype=float)
    params = {k: float(v) for k, v in params.items()}
    for name, values in (("t_grid", t_grid), ("samples", samples),
                         ("params", list(params.values()))):
        if not np.all(np.isfinite(values)):
            raise InputError(f"cannot write {path!r}: {name} holds a value that is not finite")
    doc = {
        "format": "torcont-samples",
        "version": FORMAT_VERSION,
        "system": _system_header(vf),
        "t_grid": t_grid.tolist(),
        "samples": samples.tolist(),
        "params": params,
    }
    _write_atomic(path, doc)
