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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import colloc, contin, fields, po as po_mod, torus as torus_mod
from .errors import ConfigError, FormatError, InputError, NotFoundError
from .fields import (BOOL, COUNT, DEGREE, NAMES, NUMBER, OBJECT, POSITIVE, STRING, Field, Reader,
                     is_label_spec, optional)
from .fourier import dft_matrix, trig_interpolate
from .odesys import VectorField, get_builtin

FORMAT_VERSION = 1  # meta.json, events.json, samples files
SNAPSHOT_VERSION = 2  # sol_<label>.json; version 1 wrote arrays as float lists
BD_HEADER = "# torcont bd v1"
#: environment variables that set the thread count of numpy's BLAS
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KIND = Field("string", among=("po", "torus"))
#: the system header of every file torcont writes: each field a VectorField attribute
SYSTEM = {"system": OBJECT, "system.name": Field("string", null=True), "system.dim_state": COUNT,
          "system.param_names": NAMES, "system.autonomous": BOOL,
          "system.forcing_param": Field("string", null=True)}
#: the fields of meta.json
META = {**fields.format_version("torcont-run", FORMAT_VERSION), "run_id": STRING, "kind": KIND,
        **SYSTEM, "monitor_names": NAMES, "released": NAMES, "numpy": optional(STRING),
        "blas": optional(Field("string", null=True)), "threads": optional(OBJECT),
        **{f"threads.{name}": Field("string", null=True) for name in THREAD_VARIABLES}}
#: the fields of every snapshot; solution_from_snapshot adds those of its kind
SNAPSHOT = {**fields.format_version("torcont-solution", SNAPSHOT_VERSION), "kind": KIND, **SYSTEM,
            "mesh": OBJECT, "mesh.ntst": COUNT, "mesh.degree": DEGREE, "label": COUNT,
            "point_type": STRING, "released": NAMES, "active": NAMES, "monitors": OBJECT}
#: the fields of a samples file besides its system (a builtin name or a system header)
SAMPLES = {**fields.format_version("torcont-samples", FORMAT_VERSION),
           "t_grid": Field("grid", shape=(None,)),
           "samples": Field("grid", shape=(None, None, None)), "params": Field("map"),
           "params.om2": POSITIVE}


def _f(x) -> str:
    return repr(float(x))


def run_dir(store: str, run_id: str) -> str:
    return os.path.join(store, run_id)


def snapshot_path(store: str, run_id: str, label: int) -> str:
    return os.path.join(run_dir(store, run_id), f"sol_{int(label):06d}.json")


# -- snapshot encoding ---------------------------------------------------------


class _Base64(str):
    """Base64 text, which JSON holds as it is: no character of it needs an
    escape, so :func:`_json` splices it in unscanned."""


def _encode_array(a) -> dict:
    """A float array as {"dtype": "<f8", "shape", "data": base64 of its bytes}."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "data": _Base64(base64.b64encode(a.tobytes()), "ascii")}


def _decode_array(obj, path: str, name: str, shape: Optional[tuple] = None) -> np.ndarray:
    """Inverse of ``_encode_array``, optionally of an array of ``shape``;
    errors name the file and the field."""
    return Reader(path).value(obj, name, Field("array", shape=shape))


def _system_header(vf: VectorField) -> dict:
    """The system header: each field of ``SYSTEM`` is the attribute of ``vf``."""
    return {key: getattr(vf, key) for key in (path.removeprefix("system.") for path in SYSTEM)
            if key != "system"}


def _snapshot(kind: str, vf: VectorField, mesh: colloc.SegmentMesh, **own) -> dict:
    """A snapshot's fields: the ones every snapshot has, then ``own``, the kind's."""
    return {"format": "torcont-solution", "version": SNAPSHOT_VERSION, "kind": kind,
            "system": _system_header(vf), "mesh": {"ntst": mesh.ntst, "degree": mesh.degree},
            **own}


def torus_snapshot(vf: VectorField, sol: torus_mod.TorusSolution) -> dict:
    ref = sol.reference
    return _snapshot(
        "torus", vf, sol.mesh, fourier_modes=sol.N, x_seg=_encode_array(sol.x_seg), T0=sol.T0,
        T=sol.T, p=_encode_array(sol.p), om1=sol.om1, om2=sol.om2, varrho=sol.varrho,
        reference={"v00": _encode_array(ref.v00), "vphi": _encode_array(ref.vphi),
                   "vt": None if ref.vt is None else _encode_array(ref.vt)})


def po_snapshot(vf: VectorField, orbit: po_mod.PeriodicOrbit) -> dict:
    traj, ref = orbit.traj, orbit.reference
    return _snapshot("po", vf, traj.mesh, x_bp=_encode_array(traj.x_bp), T=traj.duration,
                     t_offset=traj.t_offset, p=_encode_array(orbit.p),
                     reference={"x0": _encode_array(ref.x0), "f0": _encode_array(ref.f0)})


def _vector_field(reader: Reader, got: dict, vf: Optional[VectorField]) -> VectorField:
    """The vector field of a file with the checked system fields ``got``: ``vf``,
    or else the builtin they name; a system header must match it."""
    if vf is None:
        try:
            vf = get_builtin(got.get("system.name", got["system"]))
        except NotFoundError as exc:
            reader.fail("system", f"names no builtin system ({exc}); pass its vector field")
    if isinstance(got["system"], dict) and (vf.dim_state != got["system.dim_state"]
                                            or list(vf.param_names) != got["system.param_names"]):
        reader.fail("system", f"does not match the vector field {vf.name!r}")
    return vf


def solution_from_snapshot(doc: dict, vf: Optional[VectorField] = None,
                           path: str = "snapshot"):
    """Rebuild a TorusSolution or PeriodicOrbit (with its field) from a dict;
    returns (vf, solution, tangent), the tangent decoded.  ``path`` names the
    source in format errors.  Every field must be one of docs/formats.md, of
    its kind and in its range, and every array of its shape."""
    reader = Reader(path)
    head = reader.check(doc, SNAPSHOT)
    vf = _vector_field(reader, head, vf)
    kind, n = head["kind"], vf.dim_state
    params, scalars = (torus_mod if kind == "torus" else po_mod).names(vf)
    mesh = colloc.build_mesh(head["mesh.ntst"], head["mesh.degree"])
    vector = Field("array", shape=(n,))
    if kind == "torus":
        N = reader.check(doc, {"fourier_modes": COUNT})["fourier_modes"]
        states = Field("array", shape=(2 * N + 1, mesh.n_base, n))
        own = {"fourier_modes": COUNT, "x_seg": states, "T0": NUMBER, "om1": NUMBER,
               "om2": POSITIVE, "varrho": NUMBER, "reference.v00": vector,
               "reference.vphi": vector, "reference.vt": replace(vector, null=not vf.autonomous)}
    else:
        states = Field("array", shape=(mesh.n_base, n))
        own = {"x_bp": states, "t_offset": NUMBER, "reference.x0": vector, "reference.f0": vector}
    unknowns = math.prod(states.shape) + len(scalars) + len(head["active"])
    names = Field("names", among=params)
    got = reader.check(doc, {
        **SNAPSHOT, "released": names, "active": names,
        **{f"monitors.{name}": NUMBER for name in params + scalars},
        "p": Field("array", shape=(len(vf.param_names),)), "T": POSITIVE, "reference": OBJECT,
        **own, "tangent": Field("array", shape=(unknowns,))}, reader=f"{kind} snapshot")
    if kind == "torus":
        sol = torus_mod.TorusSolution(
            mesh=mesh, coupling=dft_matrix(N), x_seg=got["x_seg"], T0=got["T0"], T=got["T"],
            p=got["p"], om1=got["om1"], om2=got["om2"], varrho=got["varrho"],
            reference=torus_mod.ReferenceSection(
                v00=got["reference.v00"], vphi=got["reference.vphi"], vt=got["reference.vt"]))
    else:
        traj = colloc.Trajectory(mesh=mesh, x_bp=got["x_bp"], duration=got["T"],
                                 t_offset=got["t_offset"])
        sol = po_mod.PeriodicOrbit(traj=traj, p=got["p"], reference=po_mod.PoReference(
            x0=got["reference.x0"], f0=got["reference.f0"]))
    return vf, sol, got["tangent"]


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
            **_environment(),
        })
        # encoded before anything changes; then the old header goes first and
        # the old rows next: no header outlives its bd table, no row its snapshot
        meta_path = os.path.join(self._dir, "meta.json")
        if os.path.exists(meta_path):
            os.remove(meta_path)
        _write_atomic(os.path.join(self._dir, "bd.tsv"), BD_HEADER + "\n" + "\t".join(
            ["label", "type"] + list(self.problem.monitor_names)) + "\n")
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


def _environment() -> dict:
    """The numerical environment of this process: numpy's version, its BLAS
    (null if numpy does not say) and the thread counts that are set."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = None
    return {"numpy": np.__version__, "blas": blas,
            "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES}}


def _json(doc: dict) -> bytes:
    """The bytes of ``json.dumps(doc)``, the ``_Base64`` texts in its dicts
    spliced in rather than scanned by the encoder."""
    payloads = []

    def hold(obj):  # a copy of doc with every _Base64 text replaced by a hole
        if isinstance(obj, _Base64):
            payloads.append(obj.encode("ascii"))
            return "\0"
        return {k: hold(v) for k, v in obj.items()} if isinstance(obj, dict) else obj

    # json.dumps is the C encoder; json.dump runs the Python one
    parts = json.dumps(hold(doc)).encode("ascii").split(b'"\\u0000"')
    if len(parts) != len(payloads) + 1:  # a string of doc encodes as a hole
        return json.dumps(doc).encode("ascii")
    out = [parts[0]]
    for payload, part in zip(payloads, parts[1:]):
        out += [b'"', payload, b'"', part]
    return b"".join(out)


def _write_atomic(path: str, doc):
    """Write ``doc`` (a dict as JSON, or text as it is) to a temporary file,
    then rename it to ``path``."""
    if isinstance(doc, str):
        with open(path + ".tmp", "w") as fh:
            fh.write(doc)
    else:
        with open(path + ".tmp", "wb") as fh:
            fh.write(_json(doc))
    os.replace(path + ".tmp", path)


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
    meta = fields.load(path)
    Reader(path).check(meta, META, reader="run header")
    return meta


def read_bd(store: str, run_id: str) -> BdTable:
    path = os.path.join(run_dir(store, run_id), "bd.tsv")
    if not os.path.exists(path):
        raise NotFoundError(f"run {run_id!r} has no bd table in store {store!r}")
    reader = Reader(path)
    with open(path) as fh:
        header, names = fh.readline().rstrip("\n"), fh.readline().rstrip("\n").split("\t")
        if header != BD_HEADER or names[:2] != ["label", "type"]:
            raise FormatError(f"{path}: unsupported bd header {header!r}, {names!r}")
        labels, types = [], []
        columns = {name: [] for name in names[2:]}
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            if len(cells) != len(names):
                raise FormatError(f"{path}: malformed row {line!r}")
            labels.append(reader.cell(cells[0], "label", line, COUNT))
            types.append(cells[1])
            for name, cell in zip(names[2:], cells[2:]):
                columns[name].append(reader.cell(cell, name, line, NUMBER))
    return BdTable(run_id=run_id, labels=labels, types=types, columns=columns)


def read_solution(store: str, run_id: str, label, vf: Optional[VectorField] = None,
                  tangent: bool = False):
    """Load the snapshot of a stored point; returns (doc, vf, solution object),
    and with ``tangent`` the decoded tangent as a fourth item.

    ``label`` is a bd label or a label spec (:func:`is_label_spec`), resolved
    against the run's bd table, which is parsed once; a snapshot file without
    a row is not part of the run.  ``doc["label"]`` is the resolved label.
    """
    lab = pick_label(read_bd(store, run_id), label)
    path = snapshot_path(store, run_id, lab)
    if not os.path.exists(path):
        raise NotFoundError(f"label {lab} not found in run {run_id!r}")
    doc = fields.load(path)
    vf, sol, t = solution_from_snapshot(doc, vf, path)
    if doc["label"] != lab:
        Reader(path).fail("label", f"holds label {doc['label']!r}, not {lab}")
    return (doc, vf, sol, t) if tangent else (doc, vf, sol)


def expect_point(doc: dict, run_id: str, kind: str, ptype: Optional[str] = None):
    """Raise a ConfigError unless the snapshot ``doc`` of run ``run_id`` is
    of ``kind`` and, if given, of point type ``ptype``."""
    if doc["kind"] != kind:
        raise ConfigError(f"label {doc['label']} of run {run_id!r} is a {doc['kind']}, "
                          f"not a {'periodic orbit' if kind == 'po' else kind}")
    if ptype is not None and doc["point_type"] != ptype:
        raise ConfigError(f"label {doc['label']} of run {run_id!r} is type "
                          f"{doc['point_type']!r}, not {ptype}")


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
    doc, vf, sol, tangent = read_solution(
        store, run_id, {"type": "EP", "pick": "last"} if label is None else label, vf,
        tangent=True)
    expect_point(doc, run_id, "torus")
    released = list(released) if released is not None else list(doc["released"])

    refined = any(v is not None for v in (N, ntst, degree))
    if refined:
        sol = refine_torus(vf, sol, N=N, ntst=ntst, degree=degree)

    problem, u0 = torus_mod.continuation_problem(
        vf, sol, released, bounds=bounds, detect_bp=detect_bp)
    if not refined:
        params, scalars = torus_mod.names(vf)
        S = sol.x_seg.size + len(scalars)
        cols = contin.active_columns(S, params, doc["active"])
        t_full = np.zeros(S + len(params))
        t_full[cols] = tangent
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
    doc, vf, sol, tangent = read_solution(
        store, run_id, {"type": "BP", "pick": "first"} if label is None else label, vf,
        tangent=True)
    expect_point(doc, run_id, "torus", "BP")
    released = list(doc["released"])
    problem, u0 = torus_mod.continuation_problem(
        vf, sol, released, bounds=bounds, detect_bp=detect_bp)
    if tangent.shape != (problem.n_unknowns,):  # "active" disagrees with "released"
        Reader(snapshot_path(store, run_id, doc["label"])).fail(
            "tangent", f"has shape {list(tangent.shape)}, not [{problem.n_unknowns}]")
    problem.start_tangent = contin.switch_branch(problem, u0, tangent)
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
    doc, reader = fields.load(samples_path), Reader(samples_path)
    header = isinstance(doc, dict) and isinstance(doc.get("system"), dict)
    system = SYSTEM if header else {"system": STRING}
    got = reader.check(doc, {**SAMPLES, **system}, reader="samples file")
    vf = _vector_field(reader, got, vf)
    reader.value(doc["t_grid"], "t_grid", Field("grid", shape=got["samples"].shape[1:2]))
    Reader(samples_path, prefix="params").check(got["params"], dict.fromkeys(
        torus_mod.names(vf)[0], NUMBER))
    mesh = colloc.build_mesh(ntst, degree)
    try:  # the samples' own faults (a short or stalled grid, values that are not finite)
        on_mesh = colloc.sample_onto_basepoints(
            mesh, got["t_grid"], got["samples"].swapaxes(0, 1), 2.0 * np.pi / got["params.om2"])
        sol = torus_mod.init_from_samples(vf, on_mesh.swapaxes(0, 1), got["params"], mesh)
    except InputError as exc:
        raise InputError(f"{samples_path}: {exc}") from None
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
