"""The field checker: every file torcont reads refuses bad input through one
table, naming the file and the field, and reads back whatever torcont wrote."""

import copy
import json
import math
import os
import re
import shutil

import numpy as np
import pytest

from torcont import cli, colloc, fields, odesys, store
from torcont.errors import ConfigError, FormatError

ROOT = os.path.join(os.path.dirname(__file__), "..")
SYSTEM = {"name": "langford", "params": {"om": 3.5, "rho": 0.65, "eps": 0.0}}
PO_STAGE = {
    "run_id": "po", "problem": "po",
    "source": {"kind": "simulate", "y0": [0.3, 0.4, 0.0], "period": 1.7951958020513104,
               "transient_periods": 60},
    "discretization": {"ntst": 10, "degree": 4},
    "continuation": {"released": ["rho"], "bounds": {"rho": [0.55, 0.7]}, "pt_max": 12,
                     "h0": 0.02, "h_min": 0.0001, "h_max": 0.05, "bi_direct": True},
}
TORUS_STAGE = {
    "run_id": "tor", "problem": "torus",
    "source": {"kind": "tr", "run": "po", "label": {"type": "TR", "pick": "first"}, "N": 3},
    "continuation": {"released": ["varrho", "rho", "om1", "om2"], "pt_max": 2, "h0": 0.3,
                     "h_min": 0.001, "h_max": 2.0, "bi_direct": False, "detect_bp": False},
}
SAMPLES_CONFIG = {
    "system": {"name": "vdp", "params": {"Om2": 1.5111, "c": 0.11, "a": 0.1}},
    "stages": [{
        "run_id": "file", "problem": "torus", "source": {"kind": "samples", "path": None},
        "discretization": {"ntst": 6, "degree": 3},
        "continuation": {"released": ["a", "Om2", "om2", "om1", "varrho", "c"], "pt_max": 1,
                         "h0": 0.2, "h_min": 0.001, "h_max": 2.0, "bi_direct": False,
                         "detect_bp": False},
    }],
}
MISSING = object()
#: the replacements of every field (written as JSON: NaN is the bare NaN token)
MUTATIONS = {"missing": MISSING, "null": None, "list": [1], "object": {}, "string": "x",
             "bool": True, "NaN": float("nan"), "negative": -1}


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A po run, a torus run from its TR and a samples file, each written by torcont."""
    base = tmp_path_factory.mktemp("written")
    write_json(base / "c.json", {"system": SYSTEM, "stages": [PO_STAGE, TORUS_STAGE]})
    assert cli.main(["run", str(base / "c.json"), "--quiet", "--store", str(base / "store")]) == 0
    vf, mesh = odesys.builtin_vdp(), colloc.build_mesh(6, 3)
    src = {"n_seg": 5, "params": {"om1": -1.0, "om2": 1.5111, "varrho": -0.661769571835087}}
    samples, params = cli._make_circle_samples(vf, np.array([1.5111, 0.11, 0.1]), src, mesh)
    t_grid = 2 * np.pi / params["om2"] * colloc.distinct_basepoints(mesh)[0]
    store.write_samples_file(str(base / "samples.json"), vf, t_grid, samples, params)
    return base


def field_paths(doc, prefix=""):
    """Every field of a JSON document: the fields of its objects, those of
    objects in lists (a config's stages) included."""
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else key
        yield path
        if isinstance(value, dict):
            yield from field_paths(value, path)
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            for i, item in enumerate(value):
                yield from field_paths(item, f"{path}[{i}]")


def mutated(doc, path, value):
    """A copy of ``doc`` with the field ``path`` replaced by ``value`` (MISSING: removed)."""
    doc = copy.deepcopy(doc)
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    return doc


def names_field(err, path, config):
    """Whether ``err`` names the field ``path``, one of its parents or children."""
    parts = re.findall(r"[^.]+", path)
    around = [".".join(parts[:k]) for k in range(1, len(parts) + 1)]
    around += {"active": ["tangent"]}.get(path, [])  # the tangent's length follows active
    if config:
        return any(re.search(rf" {re.escape(a)}[:.[]", err) for a in around)
    return any(f"field '{a}" in err for a in around)


#: snapshot values that once ended in a traceback (exit 1) or named no file
GAPS = [("mesh", [20, 4]), ("mesh", {"degree": 9}), ("reference", None), ("system", None),
        ("kind", [])]


def cases(doc, extra=()):
    for path in field_paths(doc):
        for name, value in MUTATIONS.items():
            yield f"{path} -> {name}", mutated(doc, path, value), path
    for path, value in extra:
        yield f"{path} -> {value!r}", mutated(doc, path, value), path


def outcome(capsys, argv):
    capsys.readouterr()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a traceback is a failure of the case
        rc = f"{type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    return rc, out, err


def check_cases(capsys, path, doc, argv, config=False, extra=()):
    """Run every mutation of ``doc`` (and the ``extra`` (path, value) ones),
    written to ``path``, through ``argv``; return the faults."""
    write_json(path, doc)
    rc0, _, err0 = outcome(capsys, argv)
    faults = []
    for case, bad, field in cases(doc, extra):
        write_json(path, bad)
        rc, out, err = outcome(capsys, argv)
        if rc == 2 and str(path) in err and names_field(err, field, config):
            continue
        if rc == rc0 and (rc != 2 or err == err0) or rc == 3:  # runs as before; a value in
            continue  # range may leave the numerics without convergence (exit 3)
        faults.append(f"{case}: exit {rc}: {err.strip()[:200]}")
    write_json(path, doc)
    return faults


@pytest.mark.parametrize("name", ["langford.json", "vdp.json"])
def test_every_config_field_is_checked(tmp_path, capsys, name):
    # validation ends at the unknown stage (exit 4) once every field has passed
    with open(os.path.join(ROOT, "configs", name)) as fh:
        doc = json.load(fh)
    path = tmp_path / name
    argv = ["run", str(path), "--stage", "no-such-stage", "--store", str(tmp_path / "store")]
    faults = check_cases(capsys, path, doc, argv, config=True)
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("run_id", ["po", "tor"])
def test_every_snapshot_field_is_checked(written, tmp_path, capsys, run_id):
    shutil.copytree(written / "store" / run_id, tmp_path / run_id)
    label = store.read_bd(str(tmp_path), run_id).labels[-1]
    path = tmp_path / run_id / f"sol_{label:06d}.json"
    with open(path) as fh:
        doc = json.load(fh)
    argv = ["validate", run_id, str(label), "--returns", "1", "--store", str(tmp_path)]
    faults = check_cases(capsys, path, doc, argv, extra=GAPS)
    assert not faults, "\n".join(faults)


def test_every_meta_field_is_checked(written, tmp_path, capsys):
    shutil.copytree(written / "store" / "tor", tmp_path / "tor")
    path = tmp_path / "tor" / "meta.json"
    with open(path) as fh:
        doc = json.load(fh)
    faults = check_cases(capsys, path, doc, ["list", "--store", str(tmp_path)])
    assert not faults, "\n".join(faults)


def test_every_bd_cell_is_checked(written, tmp_path, capsys):
    shutil.copytree(written / "store" / "po", tmp_path / "po")
    path = tmp_path / "po" / "bd.tsv"
    with open(path) as fh:
        lines = fh.read().split("\n")
    names, row = lines[1].split("\t"), lines[3].split("\t")
    argv = ["list", "po", "--store", str(tmp_path)]
    rc0, out0, _ = outcome(capsys, argv)
    faults = []
    for i, column in enumerate(names):
        for name, value in MUTATIONS.items():
            cells = row[:i] + row[i + 1:] if value is MISSING else (
                row[:i] + [json.dumps(value)] + row[i + 1:])
            with open(path, "w") as fh:
                fh.write("\n".join(lines[:3] + ["\t".join(cells)] + lines[4:]))
            rc, out, err = outcome(capsys, argv)
            named = f"field {column!r}" in err or "malformed row" in err
            if rc == 2 and str(path) in err and named:
                continue
            if (rc, out) != (rc0, out0) and not (rc == rc0 and column == "type"):
                faults.append(f"{column} -> {name}: exit {rc}: {err.strip()[:200]}")
    assert not faults, "\n".join(faults)


def test_every_samples_field_is_checked(written, tmp_path, capsys):
    path = tmp_path / "samples.json"
    shutil.copy(written / "samples.json", path)
    with open(path) as fh:
        doc = json.load(fh)
    config = copy.deepcopy(SAMPLES_CONFIG)
    config["stages"][0]["source"]["path"] = str(path)
    write_json(tmp_path / "c.json", config)
    argv = ["run", str(tmp_path / "c.json"), "--quiet", "--store", str(tmp_path / "store")]
    assert outcome(capsys, argv)[0] == 0
    faults = check_cases(capsys, path, doc, argv)
    assert not faults, "\n".join(faults)


def test_what_torcont_writes_reads_back(written):
    # every file of a po run, a torus run and a samples file passes the
    # checker, and a field that no table lists would be refused
    base = str(written / "store")
    for run_id in ("po", "tor"):
        assert store.read_meta(base, run_id)["run_id"] == run_id
        for label in store.read_bd(base, run_id).labels:
            doc, _, _ = store.read_solution(base, run_id, label)
            assert doc["label"] == label
    problem, _ = store.restart_isol2tor(str(written / "samples.json"),
                                        ["a", "Om2", "om2", "om1", "varrho", "c"], ntst=6, degree=3)
    assert problem.kind == "torus"
    for name, reread in (("meta.json", lambda: store.read_meta(base, "tor")),
                         ("sol_000001.json", lambda: store.read_solution(base, "tor", 1))):
        path = os.path.join(base, "tor", name)
        with open(path) as fh:
            doc = json.load(fh)
        write_json(path, dict(doc, unlisted=0))
        with pytest.raises(FormatError, match="field 'unlisted' is not read by"):
            reread()
        write_json(path, doc)


def test_meta_records_the_numerical_environment(written, capsys, monkeypatch):
    meta = store.read_meta(str(written / "store"), "po")
    assert meta["numpy"] == np.__version__
    assert isinstance(meta["blas"], str) and meta["blas"]
    assert set(meta["threads"]) == set(store.THREAD_VARIABLES)
    assert cli.main(["list", "--store", str(written / "store")]) == 0
    assert f"numpy {np.__version__}" in capsys.readouterr().out


def test_meta_without_the_environment_still_loads(written, tmp_path, capsys):
    # stores written before the environment was recorded
    shutil.copytree(written / "store" / "po", tmp_path / "po")
    path = tmp_path / "po" / "meta.json"
    with open(path) as fh:
        doc = json.load(fh)
    write_json(path, {k: v for k, v in doc.items() if k not in ("numpy", "blas", "threads")})
    assert cli.main(["list", "--store", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("po\tpo\treleased: rho\n")


def test_a_document_that_is_not_an_object_is_refused(written, tmp_path, capsys):
    shutil.copytree(written / "store" / "po", tmp_path / "po")
    for name in ("meta.json", "sol_000001.json"):
        write_json(tmp_path / "po" / name, [1])
    write_json(tmp_path / "samples.json", [1])
    config = copy.deepcopy(SAMPLES_CONFIG)
    config["stages"][0]["source"]["path"] = str(tmp_path / "samples.json")
    write_json(tmp_path / "c.json", config)
    write_json(tmp_path / "list.json", [1])
    for argv, name in ((["list"], "meta.json"), (["validate", "po", "1"], "sol_000001.json"),
                       (["run", str(tmp_path / "c.json")], "samples.json"),
                       (["run", str(tmp_path / "list.json")], "list.json")):
        rc, _, err = outcome(capsys, argv + ["--store", str(tmp_path)])
        assert rc == 2 and f"{name}: the document: must be an object, got [1]" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_tokens_are_refused_by_the_field(tmp_path, token):
    path = tmp_path / "c.json"
    with open(os.path.join(ROOT, "configs", "langford.json")) as fh:
        text = fh.read()
    path.write_text(text.replace('"rho": 1.5', f'"rho": {token}'))
    with pytest.raises(ConfigError, match=rf"system\.params: must map names to numbers, "
                                          rf".*'rho': {re.escape(token)}"):
        cli.validate_config(cli.load_config(str(path)), str(path))


@pytest.mark.parametrize("field, value, message", [
    (fields.Field("integer", lo=3, odd=True), 4, "must be an odd integer >= 3, got 4"),
    (fields.DEGREE, 9, "must be an integer in [1, 7], got 9"),
    (fields.POSITIVE, 0.0, "must be a positive number, got 0.0"),
    (fields.Field("number", nonzero=True, null=True), 0, "must be a nonzero number or null"),
    (fields.NUMBER, math.inf, "must be a number, got inf"),
    (fields.NUMBER, 10**400, "must be a number, got 1000"),  # beyond a float's range
    (fields.COUNT, True, "must be a positive integer, got True"),
    (fields.Field("string", among=("po", "torus")), "pp", "must be one of 'po', 'torus'"),
    (fields.Field("names", among=("a",)), ["a", "b"], "names unknown parameter 'b'"),
    (fields.Field("interval"), [2.0, 1.0], "must be [lo, hi] with lo <= hi"),
    (fields.Field("array", shape=(2,)), {"dtype": "<f8", "shape": [1], "data": "AAAAAAAA8D8="},
     "has shape [1], not [2]"),
    (fields.Field("grid", shape=(None, 2)), [[1, 2], [3]], "is not a 2-dimensional array"),
    (fields.Field("version", lo=1), True, "is True: format version True not supported"),
])
def test_kinds_and_ranges(field, value, message):
    with pytest.raises(FormatError) as info:
        fields.Reader("f.json").value(value, "x", field)
    assert str(info.value).startswith("f.json: field 'x' ") and message in str(info.value)
