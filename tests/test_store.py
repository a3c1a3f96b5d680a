"""Persistence: bit-exact round trips, bd tables, restart pathways."""

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from torcont import colloc, contin, linsys, odesys, po, store, torus
from torcont.errors import ConfigError, ConvergenceError, FormatError, InputError, NotFoundError
from util_systems import OM, langford_circle_traj, seams


@pytest.fixture(scope="module")
def mini_pipeline(tmp_path_factory):
    """Tiny Langford pipeline on disk: po run with TR point, then a torus run."""
    base = str(tmp_path_factory.mktemp("runs"))
    vf = odesys.builtin_langford()
    rho0 = 0.65
    mesh = colloc.build_mesh(8, 4)
    orbit = po.solve_po(vf, langford_circle_traj(mesh, rho0), np.array([OM, rho0, 0.0]))

    problem, u0 = po.continuation_problem(
        vf, orbit, released=["rho"], bounds={"rho": (0.55, 0.7)})
    writer = store.RunWriter(base, "po_mini", problem)
    state = contin.ContinuationState(h=0.02, h_min=1e-4, h_max=0.05, pt_max=12,
                                     bi_direct=True)
    branch = contin.run(problem, u0, state, writer=writer)

    bd = store.read_bd(base, "po_mini")
    tr_labels = bd.labels_of_type("TR")
    assert tr_labels, "mini pipeline found no TR point"

    tproblem, tu0 = store.restart_TR2tor(
        base, "po_mini", {"type": "TR", "pick": "first"},
        released=["varrho", "rho", "om1", "om2"], N=3, vf=None)
    twriter = store.RunWriter(base, "tor_mini", tproblem)
    tstate = contin.ContinuationState(h=0.3, h_min=1e-3, h_max=2.0, pt_max=6,
                                      bi_direct=False)
    tbranch = contin.run(tproblem, tu0, tstate, writer=twriter)
    return {"base": base, "vf": vf, "branch": branch, "tbranch": tbranch,
            "tr_labels": tr_labels, "problem": problem, "tproblem": tproblem}


def copy_run_with_snapshot(base, run_id, label, doc, dest):
    """A copy of a run's meta and bd table under ``dest`` with ``doc`` as
    the snapshot of ``label``."""
    bad_dir = dest / run_id
    bad_dir.mkdir()
    shutil.copy(os.path.join(base, run_id, "meta.json"), bad_dir / "meta.json")
    shutil.copy(os.path.join(base, run_id, "bd.tsv"), bad_dir / "bd.tsv")
    with open(bad_dir / f"sol_{label:06d}.json", "w") as fh:
        json.dump(doc, fh)
    return str(bad_dir / f"sol_{label:06d}.json")


class TestRoundTrip:
    def test_torus_snapshot_bit_exact(self, mini_pipeline):
        base = mini_pipeline["base"]
        bd = store.read_bd(base, "tor_mini")
        lab = bd.labels[-1]
        doc, vf, sol = store.read_solution(base, "tor_mini", lab)
        doc2 = store.torus_snapshot(vf, sol)
        # arrays survive write -> read -> write unchanged
        assert doc2["x_seg"] == doc["x_seg"]
        assert doc2["T"] == doc["T"] and doc2["om1"] == doc["om1"]
        assert doc2["reference"] == doc["reference"]
        sol2 = store.solution_from_snapshot(doc)[1]
        assert np.array_equal(sol2.x_seg, sol.x_seg)
        assert sol2.T == sol.T and sol2.varrho == sol.varrho

    def test_po_snapshot_bit_exact(self, mini_pipeline):
        base = mini_pipeline["base"]
        doc, vf, orbit = store.read_solution(base, "po_mini", 1)
        assert doc["kind"] == "po"
        doc2 = store.po_snapshot(vf, orbit)
        assert doc2["x_bp"] == doc["x_bp"]
        assert doc2["T"] == doc["T"]

    @pytest.mark.parametrize("run_id", ["po_mini", "tor_mini"])
    def test_snapshot_bytes_are_the_json_encoders(self, mini_pipeline, run_id):
        # the base64 texts are spliced in, not encoded: the bytes stay
        # json.dumps's, also when a string of the document encodes as a hole
        base = mini_pipeline["base"]
        for lab in store.read_bd(base, run_id).labels:
            with open(store.snapshot_path(base, run_id, lab), "rb") as fh:
                written = fh.read()
            assert written == json.dumps(json.loads(written)).encode()
        doc, vf, sol = store.read_solution(base, run_id, lab)
        snap = (store.po_snapshot if run_id == "po_mini" else store.torus_snapshot)(vf, sol)
        for point_type in ("EP", "\0", '"\0'):
            snap["point_type"] = point_type
            assert store._json(snap) == json.dumps(snap).encode()

    def test_mid_branch_snapshot_is_self_consistent(self, mini_pipeline):
        # every stored point must satisfy the zero problem under its own
        # stored reference section (moving sections are written in sync)
        base = mini_pipeline["base"]
        bd = store.read_bd(base, "tor_mini")
        for lab in bd.labels:
            doc, vf, sol = store.read_solution(base, "tor_mini", lab)
            res = torus.torus_residual(vf, sol)
            assert np.abs(res).max() < 1e-7, f"label {lab} inconsistent"

    def test_missing_label(self, mini_pipeline):
        with pytest.raises(NotFoundError):
            store.read_solution(mini_pipeline["base"], "po_mini", 999)

    def test_snapshot_of_another_label_rejected(self, mini_pipeline, tmp_path):
        base = mini_pipeline["base"]
        with open(store.snapshot_path(base, "po_mini", 2)) as fh:
            doc = json.load(fh)
        path = copy_run_with_snapshot(base, "po_mini", 1, doc, tmp_path)
        with pytest.raises(FormatError, match="holds label 2") as info:
            store.read_solution(str(tmp_path), "po_mini", 1)
        assert path in str(info.value)

    def test_missing_run(self, mini_pipeline):
        with pytest.raises(NotFoundError):
            store.read_bd(mini_pipeline["base"], "nope")

    @pytest.mark.parametrize("version", [1, 99])
    def test_version_mismatch_rejected(self, mini_pipeline, tmp_path, version):
        base = mini_pipeline["base"]
        with open(store.snapshot_path(base, "po_mini", 1)) as fh:
            doc = json.load(fh)
        doc["version"] = version
        copy_run_with_snapshot(base, "po_mini", 1, doc, tmp_path)
        with pytest.raises(FormatError, match=f"version {version} not supported"):
            store.read_solution(str(tmp_path), "po_mini", 1)

    @pytest.mark.parametrize("run_id", ["po_mini", "tor_mini"])
    def test_stored_arrays_are_the_emitted_ones(self, mini_pipeline, run_id):
        # the decoded x_seg/x_bp and tangent of every label equal, bit for
        # bit, the arrays of the point the run emitted
        base = mini_pipeline["base"]
        if run_id == "po_mini":
            branch, problem, key = mini_pipeline["branch"], mini_pipeline["problem"], "x_bp"
        else:
            branch, problem, key = mini_pipeline["tbranch"], mini_pipeline["tproblem"], "x_seg"
        points = {pt.label: pt for pt in branch.points}
        assert store.read_bd(base, run_id).labels == sorted(points)
        for lab, pt in points.items():
            path = store.snapshot_path(base, run_id, lab)
            with open(path) as fh:
                doc = json.load(fh)
            emitted = problem.embed(pt.u)
            states = emitted.x_seg if key == "x_seg" else emitted.traj.x_bp
            stored = store._decode_array(doc[key], path, key)
            tangent = store._decode_array(doc["tangent"], path, "tangent")
            for got, want in ((stored, states), (tangent, pt.tangent)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert got.flags.writeable

    @pytest.mark.parametrize("corrupt, message", [
        (lambda arr: arr.update(dtype="<f4"), "not an encoded <f8 array"),
        (lambda arr: arr.update(data=arr["data"][:-12]), "data bytes"),
        (lambda arr: arr.update(data="not base64!"), "malformed array"),
    ], ids=["dtype", "length", "base64"])
    def test_malformed_array_rejected(self, mini_pipeline, tmp_path, corrupt, message):
        base = mini_pipeline["base"]
        lab = store.read_bd(base, "tor_mini").labels[-1]
        with open(store.snapshot_path(base, "tor_mini", lab)) as fh:
            doc = json.load(fh)
        corrupt(doc["x_seg"])
        path = copy_run_with_snapshot(base, "tor_mini", lab, doc, tmp_path)
        with pytest.raises(FormatError, match=message) as info:
            store.read_solution(str(tmp_path), "tor_mini", lab)
        assert path in str(info.value) and "'x_seg'" in str(info.value)

    def test_truncated_snapshot_rejected(self, mini_pipeline, tmp_path):
        base = mini_pipeline["base"]
        lab = store.read_bd(base, "tor_mini").labels[-1]
        with open(store.snapshot_path(base, "tor_mini", lab)) as fh:
            doc = json.load(fh)
        path = copy_run_with_snapshot(base, "tor_mini", lab, doc, tmp_path)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
        with pytest.raises(FormatError, match="invalid JSON") as info:
            store.read_solution(str(tmp_path), "tor_mini", lab)
        assert path in str(info.value)

    def test_truncated_meta_rejected(self, mini_pipeline, tmp_path):
        base = mini_pipeline["base"]
        shutil.copytree(os.path.join(base, "po_mini"), tmp_path / "po_mini")
        path = str(tmp_path / "po_mini" / "meta.json")
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
        with pytest.raises(FormatError, match="invalid JSON") as info:
            store.read_meta(str(tmp_path), "po_mini")
        assert path in str(info.value)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda cells: cells.__setitem__(0, "2a"), "does not parse"),
        (lambda cells: cells.__setitem__(-1, "n/a"), "does not parse"),
        (lambda cells: cells.pop(), "malformed row"),
    ], ids=["label", "monitor", "cell-count"])
    def test_malformed_bd_row_rejected(self, mini_pipeline, tmp_path, corrupt, message):
        shutil.copytree(os.path.join(mini_pipeline["base"], "po_mini"), tmp_path / "po_mini")
        path = str(tmp_path / "po_mini" / "bd.tsv")
        with open(path) as fh:
            lines = fh.read().split("\n")
        cells = lines[3].split("\t")
        corrupt(cells)
        lines[3] = "\t".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
        with pytest.raises(FormatError, match=message) as info:
            store.read_bd(str(tmp_path), "po_mini")
        assert path in str(info.value) and repr(lines[3] + "\n") in str(info.value)

    @pytest.mark.parametrize("run_id, field", [
        ("po_mini", "T"), ("po_mini", "t_offset"), ("po_mini", "reference"),
        ("tor_mini", "varrho"), ("tor_mini", "active"), ("tor_mini", "tangent"),
    ])
    def test_missing_field_rejected(self, mini_pipeline, tmp_path, run_id, field):
        # every version-2 writer writes these fields: a snapshot without one
        # is malformed, and no default stands in for it
        base = mini_pipeline["base"]
        lab = store.read_bd(base, run_id).labels[-1]
        with open(store.snapshot_path(base, run_id, lab)) as fh:
            doc = json.load(fh)
        del doc[field]
        path = copy_run_with_snapshot(base, run_id, lab, doc, tmp_path)
        with pytest.raises(FormatError, match=f"missing field '{field}'") as info:
            if run_id == "po_mini":
                store.read_solution(str(tmp_path), run_id, lab)
            else:
                store.restart_tor2tor(str(tmp_path), run_id, lab)
        assert path in str(info.value)

    def test_malformed_tangent_rejected_on_restart(self, mini_pipeline, tmp_path):
        base = mini_pipeline["base"]
        lab = store.read_bd(base, "tor_mini").labels[-1]
        with open(store.snapshot_path(base, "tor_mini", lab)) as fh:
            doc = json.load(fh)
        doc["tangent"]["shape"] = [doc["tangent"]["shape"][0] + 1]
        path = copy_run_with_snapshot(base, "tor_mini", lab, doc, tmp_path)
        with pytest.raises(FormatError, match="'tangent' has") as info:
            store.restart_tor2tor(str(tmp_path), "tor_mini", lab)
        assert path in str(info.value)

    @pytest.mark.parametrize("field, corrupt, message", [
        ("tangent", lambda doc, t: store._encode_array(t[:-1]), "'tangent' has shape"),
        ("active", lambda doc, t: doc["active"][:-1] + ["nope"],
         "'active' names unknown parameter 'nope'"),
    ], ids=["short", "unknown-name"])
    def test_tangent_not_matching_active_rejected_on_restart(self, mini_pipeline, tmp_path,
                                                             field, corrupt, message):
        base = mini_pipeline["base"]
        lab = store.read_bd(base, "tor_mini").labels[-1]
        with open(store.snapshot_path(base, "tor_mini", lab)) as fh:
            doc = json.load(fh)
        tangent = store._decode_array(doc["tangent"], "", "tangent")
        doc[field] = corrupt(doc, tangent)
        path = copy_run_with_snapshot(base, "tor_mini", lab, doc, tmp_path)
        with pytest.raises(FormatError, match=message) as info:
            store.restart_tor2tor(str(tmp_path), "tor_mini", lab)
        assert path in str(info.value)


class TestBdTable:
    def test_tr_row_carries_type_and_monitor(self, mini_pipeline):
        bd = store.read_bd(mini_pipeline["base"], "po_mini")
        tr = mini_pipeline["tr_labels"][0]
        i = bd.labels.index(tr)
        assert bd.types[i] == "TR"
        assert abs(bd.columns["rho"][i] - 0.6154465) < 5e-3

    def test_labels_unique_ascending(self, mini_pipeline):
        bd = store.read_bd(mini_pipeline["base"], "po_mini")
        assert bd.labels == sorted(bd.labels)
        assert len(set(bd.labels)) == len(bd.labels)

    def test_every_labeled_row_has_snapshot(self, mini_pipeline):
        base = mini_pipeline["base"]
        bd = store.read_bd(base, "po_mini")
        for lab in bd.labels:
            assert os.path.exists(os.path.join(base, "po_mini", f"sol_{lab:06d}.json"))

    def test_bd_floats_roundtrip(self, mini_pipeline):
        # the TSV stores repr() so reading reproduces the monitor bit-exactly
        base = mini_pipeline["base"]
        bd = store.read_bd(base, "tor_mini")
        doc, _, _ = store.read_solution(base, "tor_mini", bd.labels[0])
        i = bd.labels.index(doc["label"])
        for name, val in doc["monitors"].items():
            assert bd.columns[name][i] == val


class TestRestarts:
    def test_tor2tor_zero_steps_identical(self, mini_pipeline):
        base = mini_pipeline["base"]
        bd = store.read_bd(base, "tor_mini")
        lab = bd.labels_of_type("EP")[-1]
        problem, u0 = store.restart_tor2tor(base, "tor_mini", lab,
                                            released=["varrho", "rho", "om1", "om2"])
        doc, vf, sol = store.read_solution(base, "tor_mini", lab)
        state = contin.ContinuationState(h=0.1, pt_max=0, bi_direct=False)
        branch = contin.run(problem, u0, state)
        assert np.array_equal(branch.points[0].u, u0)  # converged start untouched

    def test_tor2tor_preserves_discretization(self, mini_pipeline):
        base = mini_pipeline["base"]
        problem, u0 = store.restart_tor2tor(base, "tor_mini", {"type": "EP", "pick": "last"})
        sol = problem.embed(u0)
        assert sol.mesh.ntst == 8 and sol.mesh.degree == 4
        assert sol.N == 3

    def test_tor2tor_starts_at_the_last_ep_by_default(self, mini_pipeline):
        base = mini_pipeline["base"]
        last_ep = store.read_bd(base, "tor_mini").labels_of_type("EP")[-1]
        _, u0 = store.restart_tor2tor(base, "tor_mini", None)
        assert np.array_equal(u0, store.restart_tor2tor(base, "tor_mini", last_ep)[1])

    def test_tor2tor_type_check(self, mini_pipeline):
        with pytest.raises(ConfigError, match="not a torus"):
            store.restart_tor2tor(mini_pipeline["base"], "po_mini", 1)

    def test_tr2tor_default_modes_gives_21_segments(self, mini_pipeline):
        base = mini_pipeline["base"]
        problem, u0 = store.restart_TR2tor(
            base, "po_mini", {"type": "TR", "pick": "first"},
            released=["varrho", "rho", "om1", "om2"])
        sol = problem.embed(u0)
        assert sol.n_seg == 21  # default N = 10

    def test_tr2tor_rejects_non_tr_label(self, mini_pipeline):
        with pytest.raises(ConfigError, match="not TR"):
            store.restart_TR2tor(mini_pipeline["base"], "po_mini", 1,
                                 released=["varrho", "rho", "om1", "om2"])

    def test_tr2tor_rejects_zero_eps(self, mini_pipeline):
        with pytest.raises(InputError, match="eps"):
            store.restart_TR2tor(mini_pipeline["base"], "po_mini",
                                 {"type": "TR", "pick": "first"},
                                 released=["varrho", "rho", "om1", "om2"], eps=0.0)

    def test_bp2tor_rejects_non_bp_label(self, mini_pipeline):
        with pytest.raises(ConfigError, match="not BP"):
            store.restart_BP2tor(mini_pipeline["base"], "tor_mini", 1)

    def test_restart_new_released_set_holds_varrho(self, mini_pipeline):
        base = mini_pipeline["base"]
        problem, u0 = store.restart_tor2tor(
            base, "tor_mini", {"type": "EP", "pick": "last"},
            released=["eps", "rho", "om1", "om2"], detect_bp=False)
        state = contin.ContinuationState(h=0.2, h_min=1e-3, h_max=1.0, pt_max=4,
                                         bi_direct=False)
        branch = contin.run(problem, u0, state)
        varrhos = [pt.monitors["varrho"] for pt in branch.points]
        assert max(varrhos) - min(varrhos) == 0.0
        eps_vals = [pt.monitors["eps"] for pt in branch.points]
        assert max(eps_vals) - min(eps_vals) > 0.0  # eps actually moves


class TestSamplesFile:
    def test_round_trip_and_restart(self, tmp_path):
        from util_systems import decoupled_exact_samples, decoupled_field
        from torcont import fourier

        vf = decoupled_field()
        om1, om2 = np.sqrt(2.0), 1.0
        cm = fourier.dft_matrix(2)
        tg = np.linspace(0, 2 * np.pi / om2, 80)
        samples = decoupled_exact_samples(cm.angles, tg, om1, om2)
        path = str(tmp_path / "samples.json")
        params = {"gam": 1.0, "w1": om1, "w2": om2, "om1": om1, "om2": om2,
                  "varrho": om1 / om2}
        store.write_samples_file(path, vf, tg, samples, params)
        assert os.listdir(tmp_path) == ["samples.json"]  # no .tmp left behind
        problem, u0 = store.restart_isol2tor(
            path, released=["gam", "om1", "om2", "varrho"], vf=vf, ntst=6, degree=4)
        assert np.abs(problem.residual(u0)).max() < 1e-2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["t_grid", "samples", "params"])
    def test_writer_refuses_values_that_are_not_finite(self, tmp_path, field, bad):
        # JSON has no NaN or Infinity; json.dumps would write them as bare tokens
        data = {"t_grid": np.linspace(0.0, 4.0, 5), "samples": np.ones((3, 5, 2)),
                "params": {"Om2": 1.5111, "c": 0.11, "a": 0.1, "om1": -1.0, "om2": 1.5,
                           "varrho": 0.1}}
        if field == "params":
            data["params"]["c"] = bad
        else:
            data[field].flat[2] = bad
        path = str(tmp_path / "samples.json")
        with pytest.raises(InputError, match=f"{field} holds a value that is not finite"):
            store.write_samples_file(path, odesys.builtin_vdp(), **data)
        assert os.listdir(tmp_path) == []

    def test_wrong_format_rejected(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"format": "something-else"}, fh)
        with pytest.raises(FormatError):
            store.restart_isol2tor(path, released=["om1", "om2", "varrho", "gam"])

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "samples.json")
        with open(path, "w") as fh:
            fh.write('{"format": "torcont-samples", "version": 1, "t_grid": [0.0, ')
        with pytest.raises(FormatError, match="invalid JSON") as info:
            store.restart_isol2tor(path, released=["om1", "om2", "varrho", "gam"])
        assert path in str(info.value)

    def test_missing_file(self):
        with pytest.raises(NotFoundError):
            store.restart_isol2tor("/nonexistent/samples.json",
                                   released=["om1", "om2", "varrho", "gam"])


def test_refined_guess_joins_exactly_at_subinterval_ends(mini_pipeline, monkeypatch):
    _, vf, sol = store.read_solution(mini_pipeline["base"], "tor_mini", {"type": "EP",
                                                                          "pick": "last"})
    monkeypatch.setattr(torus, "solve_fixed", lambda vf, guess: guess)
    guess = store.refine_torus(vf, sol, N=4, ntst=10)
    assert guess.x_seg.shape == (9, 50, 3)
    assert np.array_equal(*seams(guess.mesh, guess.x_seg))


def test_exported_family_diameter_grows(mini_pipeline):
    # tori born at the TR point grow as the branch walks away from it
    base = mini_pipeline["base"]
    bd = store.read_bd(base, "tor_mini")
    diams = []
    for lab in bd.labels:
        doc, vf, sol = store.read_solution(base, "tor_mini", lab)
        grid = torus.export_torus_mesh(sol, theta2_count=17)
        spread = grid.values - grid.values.mean(axis=0, keepdims=True)
        diams.append(float(np.sqrt((spread**2).sum(axis=2)).max()))
    assert all(b > a for a, b in zip(diams, diams[1:])), diams


def test_list_runs(mini_pipeline):
    runs = store.list_runs(mini_pipeline["base"])
    assert "po_mini" in runs and "tor_mini" in runs


def test_read_solution_resolves_label_specs(mini_pipeline):
    base = mini_pipeline["base"]
    bd = store.read_bd(base, "po_mini")
    # every special-type row resolves to its snapshot, by label and by spec
    for ptype in ("EP", "TR"):
        labs = bd.labels_of_type(ptype)
        for lab in labs:
            doc, _, _ = store.read_solution(base, "po_mini", lab)
            assert doc["label"] == lab and doc["point_type"] == ptype
        for pick, want in (("first", labs[0]), ("last", labs[-1]), (-1, labs[-1])):
            doc, _, _ = store.read_solution(base, "po_mini", {"type": ptype, "pick": pick})
            assert doc["label"] == want and doc["point_type"] == ptype
    doc, _, _ = store.read_solution(base, "po_mini", {"type": "TR"})  # pick defaults to first
    assert doc["label"] == bd.labels_of_type("TR")[0]


@pytest.mark.parametrize("spec", [
    True, 0, "first", {"pick": "first"}, {"type": "TR", "pick": True},
    {"type": "TR", "pick": "1"}, {"type": "TR", "pick": "middle"},
], ids=["bool", "zero", "str", "no-type", "pick-bool", "pick-str", "pick-middle"])
def test_invalid_label_spec_rejected(mini_pipeline, spec):
    with pytest.raises(ConfigError, match="invalid label spec"):
        store.read_solution(mini_pipeline["base"], "po_mini", spec)


def test_each_restart_parses_the_bd_table_once(mini_pipeline, monkeypatch):
    base = mini_pipeline["base"]
    read_bd, calls = store.read_bd, []

    def counting(*args):
        calls.append(args[1])
        return read_bd(*args)

    monkeypatch.setattr(store, "read_bd", counting)
    store.restart_tor2tor(base, "tor_mini", {"type": "EP", "pick": "last"})
    store.restart_TR2tor(base, "po_mini", None, ["varrho", "rho", "om1", "om2"], N=3)
    with pytest.raises(ConfigError, match="not BP"):  # tor_mini has no BP: read, then refused
        store.restart_BP2tor(base, "tor_mini", 1)
    assert calls == ["tor_mini", "po_mini", "tor_mini"]


def test_meta_content(mini_pipeline):
    meta = store.read_meta(mini_pipeline["base"], "tor_mini")
    assert meta["kind"] == "torus"
    assert meta["released"][:4] == ["varrho", "rho", "om1", "om2"]
    assert meta["system"]["name"] == "langford"


def small_po_problem():
    vf = odesys.builtin_langford()
    orbit = po.solve_po(vf, langford_circle_traj(colloc.build_mesh(8, 4), 0.65),
                        np.array([OM, 0.65, 0.0]))
    return po.continuation_problem(vf, orbit, released=["rho"], detect_tr=False)


def interrupt_json_encoding(monkeypatch, hit):
    """Make json.dump and json.dumps raise for a document where ``hit`` holds."""
    def interrupting(encode):
        def wrapper(doc, *args, **kwargs):
            if isinstance(doc, dict) and hit(doc):
                raise RuntimeError("interrupted while encoding")
            return encode(doc, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(json, "dump", interrupting(json.dump))
    monkeypatch.setattr(json, "dumps", interrupting(json.dumps))


def test_interrupted_snapshot_dump_leaves_every_row_loadable(tmp_path, monkeypatch):
    problem, u0 = small_po_problem()
    base = str(tmp_path)
    interrupt_json_encoding(monkeypatch, lambda doc: doc.get("label") == 3)
    state = contin.ContinuationState(h=0.02, h_min=1e-4, h_max=0.05, pt_max=6,
                                     bi_direct=False)
    with pytest.raises(RuntimeError, match="interrupted"):
        contin.run(problem, u0, state, writer=store.RunWriter(base, "cut", problem))
    bd = store.read_bd(base, "cut")
    assert bd.labels == [1, 2]
    for lab in bd.labels:
        assert store.read_solution(base, "cut", lab)[0]["label"] == lab


def test_interrupted_reopen_leaves_every_row_loadable(tmp_path, monkeypatch):
    # re-opening a finished run's directory, interrupted while meta.json is
    # written, must not leave bd rows whose snapshots are already deleted
    problem, u0 = small_po_problem()
    base = str(tmp_path)
    state = contin.ContinuationState(h=0.02, h_min=1e-4, h_max=0.05, pt_max=4,
                                     bi_direct=False)
    contin.run(problem, u0, state, writer=store.RunWriter(base, "cut", problem))
    assert store.read_bd(base, "cut").labels == [1, 2, 3, 4, 5]
    interrupt_json_encoding(monkeypatch, lambda doc: doc.get("format") == "torcont-run")
    with pytest.raises(RuntimeError, match="interrupted"):
        store.RunWriter(base, "cut", problem)
    monkeypatch.undo()
    for lab in store.read_bd(base, "cut").labels:
        assert store.read_solution(base, "cut", lab)[0]["label"] == lab
    assert store.read_meta(base, "cut")["run_id"] == "cut"


def reopen_interrupted(base, monkeypatch, interrupt):
    """Re-open the finished po run "cut" for a torus-like problem with
    ``interrupt`` installed; returns the po problem."""
    problem, u0 = small_po_problem()
    state = contin.ContinuationState(h=0.02, h_min=1e-4, h_max=0.05, pt_max=4,
                                     bi_direct=False)
    contin.run(problem, u0, state, writer=store.RunWriter(base, "cut", problem))
    other = dataclasses.replace(problem, kind="torus",
                                monitor_names=problem.monitor_names + ["varrho"])
    interrupt()
    with pytest.raises(RuntimeError, match="interrupted"):
        store.RunWriter(base, "cut", other)
    monkeypatch.undo()
    return problem


def test_reopen_interrupted_while_encoding_keeps_the_old_run(tmp_path, monkeypatch):
    base = str(tmp_path)
    problem = reopen_interrupted(base, monkeypatch, lambda: interrupt_json_encoding(
        monkeypatch, lambda doc: doc.get("format") == "torcont-run"))
    meta = store.read_meta(base, "cut")
    assert meta["kind"] == "po" and meta["monitor_names"] == problem.monitor_names
    bd = store.read_bd(base, "cut")
    assert list(bd.columns) == problem.monitor_names and bd.labels == [1, 2, 3, 4, 5]
    for lab in bd.labels:
        assert store.read_solution(base, "cut", lab)[0]["label"] == lab


def test_reopen_interrupted_while_writing_meta_leaves_no_header(tmp_path, monkeypatch):
    # past the encoding, the old meta.json is gone before bd.tsv changes:
    # a reader finds no header rather than the po run's beside torus columns
    base = str(tmp_path)

    def interrupt():
        replace = os.replace

        def interrupting(src, dst):
            if dst.endswith("meta.json"):
                raise RuntimeError("interrupted while renaming")
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", interrupting)

    reopen_interrupted(base, monkeypatch, interrupt)
    with pytest.raises(NotFoundError):
        store.read_meta(base, "cut")
    assert store.read_bd(base, "cut").labels == []


class Crash(Exception):
    pass


def crashing_at(monkeypatch, base, k):
    """Count the store's file operations under ``base`` (an ``open`` in write
    or append mode, each ``write`` to such a file, ``os.replace`` and
    ``os.remove``) and raise :class:`Crash` before the k-th (never for k = 0);
    returns the count so far, as a one-item list."""
    count = [0]
    real_open, real_replace, real_remove = open, os.replace, os.remove

    def tick(path):
        if str(path).startswith(base + os.sep):
            count[0] += 1
            if count[0] == k:
                raise Crash(f"crash at file operation {k}")

    class File:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            tick(self.fh.name)
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def opening(path, mode="r", *args, **kwargs):
        if mode[0] not in "wa":
            return real_open(path, mode, *args, **kwargs)
        tick(path)
        return File(real_open(path, mode, *args, **kwargs))

    def replacing(src, dst):
        tick(dst)
        real_replace(src, dst)

    def removing(path):
        tick(path)
        real_remove(path)

    monkeypatch.setattr(store, "open", opening, raising=False)
    monkeypatch.setattr(os, "replace", replacing)
    monkeypatch.setattr(os, "remove", removing)
    return count


def replay(base, run_id, problem, branch):
    """The store writes of a ``contin.run`` that emits ``branch``."""
    writer = store.RunWriter(base, run_id, problem)
    for pt in branch.points:
        writer.write_point(pt)
    writer.write_events(branch.events)


def check_run(base, run_id):
    """Every bd row of the run loads, and a ``meta.json`` names bd.tsv's columns."""
    try:
        bd = store.read_bd(base, run_id)
    except NotFoundError:
        bd = None
    for lab in [] if bd is None else bd.labels:
        assert store.read_solution(base, run_id, lab)[0]["label"] == lab
    try:
        meta = store.read_meta(base, run_id)
    except NotFoundError:
        return
    assert bd is not None and meta["monitor_names"] == list(bd.columns)


def test_crash_at_every_file_operation_keeps_every_row_loadable(tmp_path, monkeypatch,
                                                                mini_pipeline):
    # a po run, a torus run, the torus run re-opening a finished po run's
    # directory and a samples file, each cut before each of its file operations
    problem, u0 = small_po_problem()
    state = contin.ContinuationState(h=0.02, h_min=1e-4, h_max=0.05, pt_max=4,
                                     bi_direct=False)
    po_branch = contin.run(problem, u0, state)  # the finished run the re-open replaces
    tor = (mini_pipeline["tproblem"], mini_pipeline["tbranch"])
    samples = {"t_grid": np.linspace(0.0, 4.0, 5), "samples": np.ones((3, 5, 2)),
               "params": {"Om2": 1.5111, "c": 0.11, "a": 0.1, "om1": -1.0, "om2": 1.5,
                          "varrho": 0.1}}
    cases = {
        "po run": (None, lambda base: contin.run(problem, u0, state, writer=store.RunWriter(
            base, "cut", problem))),
        "torus run": (None, lambda base: replay(base, "cut", *tor)),
        "re-open": (lambda base: replay(base, "cut", problem, po_branch),
                    lambda base: replay(base, "cut", *tor)),
        "samples file": (None, lambda base: store.write_samples_file(
            os.path.join(base, "samples.json"), odesys.builtin_vdp(), **samples)),
    }

    def files(base):
        out = {}
        for top, _, names in os.walk(base):
            for name in names:
                with open(os.path.join(top, name), "rb") as fh:
                    out[os.path.relpath(fh.name, base)] = fh.read()
        return out

    for name, (setup, act) in cases.items():
        whole = str(tmp_path / name)
        os.mkdir(whole)
        if setup is not None:
            setup(whole)
        with monkeypatch.context() as m:
            count = crashing_at(m, whole, 0)
            act(whole)
        assert count[0] >= 3, name  # open, write and replace at least
        for k in range(1, count[0] + 1):
            base = str(tmp_path / f"{name}-{k}")
            os.mkdir(base)
            if setup is not None:
                setup(base)
            with monkeypatch.context() as m:
                crashing_at(m, base, k)
                with pytest.raises(Crash):
                    act(base)
            check_run(base, "cut")
            # every cut comes before the samples file's rename, so none is left;
            # the comparison below checks the re-run's bytes
            assert not os.path.exists(os.path.join(base, "samples.json"))
            act(base)  # a re-run into the cut directory leaves what an uncut one does
            assert files(base) == files(whole), (name, k)


def test_skipped_bp_test_is_written_to_events(tmp_path, monkeypatch):
    # a walk whose start factor is singular records the skipped BP test
    problem, u0 = small_po_problem()
    problem.detect_bp = True
    t0 = linsys.nullspace_tangent(problem.jacobian(u0), contin._initial_border(problem))

    def singular_once(*args, **kwargs):
        monkeypatch.setattr(contin, "lu_factor", linsys.lu_factor)
        raise ConvergenceError("linear solve failed: injected singular system")

    monkeypatch.setattr(contin, "lu_factor", singular_once)
    state = contin.ContinuationState(h=0.02, h_min=1e-4, h_max=0.05, pt_max=2,
                                     bi_direct=False)
    problem.start_tangent = t0
    contin.run(problem, u0, state, writer=store.RunWriter(str(tmp_path), "skip", problem))
    events = read_events(str(tmp_path), "skip")["events"]
    assert events == [{"type": "BP", "status": "skipped", "near_label": 1,
                       "reason": "start point: linear solve failed: injected singular system"}]


def read_events(base, run_id):
    with open(os.path.join(base, run_id, "events.json")) as fh:
        return json.load(fh)


class TestEventsFile:
    def test_located_events_of_finished_run(self, mini_pipeline):
        events = read_events(mini_pipeline["base"], "po_mini")["events"]
        located = [ev for ev in events if ev["type"] == "TR"]
        assert located and located[0]["status"] == "located"
        assert located[0]["label"] in mini_pipeline["tr_labels"]

    def test_unlocated_event_round_trips(self, tmp_path, monkeypatch):
        vf = odesys.builtin_langford()
        orbit = po.solve_po(vf, langford_circle_traj(colloc.build_mesh(8, 4), 0.65),
                            np.array([OM, 0.65, 0.0]))
        problem, u0 = po.continuation_problem(vf, orbit, released=["rho"],
                                              bounds={"rho": (0.55, 0.7)})

        def lost(*args, **kwargs):
            raise ConvergenceError("bracket lost in the test")

        monkeypatch.setattr(contin, "locate_event", lost)
        base = str(tmp_path)
        state = contin.ContinuationState(h=0.02, h_min=1e-4, h_max=0.05, pt_max=12,
                                         bi_direct=True)
        branch = contin.run(problem, u0, state, writer=store.RunWriter(base, "lost", problem))
        unloc = [ev for ev in branch.events if ev["status"] == "unlocated"]
        # the TR and the bound of each direction: both bounds are crossed,
        # and each direction still ends with an EP on its last step
        assert [ev["type"] for ev in unloc] == ["TR", "EP", "EP"]
        assert [pt.ptype for pt in branch.points].count("EP") == 3
        doc = read_events(base, "lost")
        assert doc["format"] == "torcont-events" and doc["version"] == store.FORMAT_VERSION
        stored = [ev for ev in doc["events"] if ev["status"] == "unlocated"]
        assert len(stored) == 3
        assert all(ev["reason"] == "bracket lost in the test" for ev in stored)
        for ev, raw, edge in zip(stored, unloc, (None, 0.55, 0.7)):
            ends = [problem.monitors(u) for u in raw["bracket"]]
            assert ev["bracket"] == ends  # exact: floats round-trip through JSON
            if edge is None:
                assert ev["type"] == "TR"
                assert (ends[0]["rho"] - 0.6154) * (ends[1]["rho"] - 0.6154) < 0
            else:
                assert ev["type"] == "EP" and ev["monitor"] == "rho"
                assert (ends[0]["rho"] - edge) * (ends[1]["rho"] - edge) < 0
        assert not [f for f in os.listdir(os.path.join(base, "lost")) if f.endswith(".tmp")]
        # a new run in the same directory drops the old run's events
        store.RunWriter(base, "lost", problem)
        assert not os.path.exists(os.path.join(base, "lost", "events.json"))
