"""CLI: config validation diagnostics, end-to-end runs, exports, exit codes."""

import json
import os

import numpy as np
import pytest

from torcont import cli, store
from torcont.errors import ConfigError, NotFoundError

SMALL_CONFIG = {
    "store": None,  # filled per test
    "system": {"name": "langford", "params": {"om": 3.5, "rho": 0.65, "eps": 0.0}},
    "stages": [
        {
            "run_id": "po_s",
            "problem": "po",
            "source": {"kind": "simulate", "y0": [0.3, 0.4, 0.0],
                       "period": 1.7951958020513104, "transient_periods": 60},
            "discretization": {"ntst": 10, "degree": 4},
            "continuation": {"released": ["rho"], "bounds": {"rho": [0.55, 0.7]},
                             "pt_max": 12, "h0": 0.02, "h_min": 0.0001,
                             "h_max": 0.05, "bi_direct": True},
        },
        {
            "run_id": "tor_s",
            "problem": "torus",
            "source": {"kind": "tr", "run": "po_s",
                       "label": {"type": "TR", "pick": "first"}, "N": 4},
            "continuation": {"released": ["varrho", "rho", "om1", "om2"],
                             "bounds": {"varrho": [0.3, 0.44]},
                             "pt_max": 6, "h0": 0.3, "h_min": 0.001, "h_max": 2.0,
                             "bi_direct": False, "detect_bp": False},
        },
    ],
}


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """Run the small two-stage config once; reuse across tests."""
    base = tmp_path_factory.mktemp("cli_store")
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["store"] = str(base)
    cfg_path = str(base / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    rc = cli.main(["run", cfg_path, "--quiet"])
    assert rc == 0
    return {"store": str(base), "config": cfg_path}


class TestConfigValidation:
    def make(self, tmp_path, mutate):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["store"] = str(tmp_path)
        mutate(cfg)
        path = str(tmp_path / "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def test_unknown_released_name_field_diagnostic(self, tmp_path, capsys):
        path = self.make(tmp_path, lambda c: c["stages"][0]["continuation"].__setitem__(
            "released", ["rho2"]))
        rc = cli.main(["run", path])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stages[0].continuation.released" in err and "rho2" in err

    def test_duplicate_released_name_rejected_before_any_run(self, tmp_path, capsys):
        path = self.make(tmp_path, lambda c: c["stages"][1]["continuation"].__setitem__(
            "released", ["varrho", "rho", "om1", "om2", "rho"]))
        rc = cli.main(["run", path])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stages[1].continuation.released" in err and "'rho' released twice" in err
        assert not os.path.exists(tmp_path / "po_s")  # the po stage did not run

    def test_missing_field_diagnostic(self, tmp_path, capsys):
        path = self.make(tmp_path, lambda c: c["stages"][1]["source"].pop("kind"))
        rc = cli.main(["run", path])
        assert rc == 2
        assert "stages[1].source.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("source, where", [
        ({"kind": "tr"}, "stages[1].source.run"),
        ({"kind": "simulate_circle", "params": {"om1": 1.0, "om2": 2.0, "varrho": 0.1}},
         "stages[1].source.n_seg"),
        ({"kind": "simulate_circle", "n_seg": 5, "params": {"om1": 1.0}},
         "stages[1].source.params.om2: missing required field"),
        ({"kind": "simulate_circle", "n_seg": 5,
          "params": {"om1": 1.0, "om2": 0.0, "varrho": 0.1}}, "stages[1].source.params.om2"),
        # unchecked, a bool ran the stage with 1.0
        ({"kind": "simulate_circle", "n_seg": 5,
          "params": {"om1": 1.0, "om2": True, "varrho": 0.1}},
         "stages[1].source.params.om2: must be a number, got True"),
        ({"kind": "simulate_circle", "n_seg": 5,
          "params": {"om1": 1.0, "om2": 2.0, "varrho": True}},
         "stages[1].source.params.varrho: must be a number, got True"),
        ({"kind": "tr", "run": "po_s", "N": True}, "stages[1].source.N"),
        ({"kind": "tr", "run": "po_s", "N": 0}, "stages[1].source.N"),
        ({"kind": "tr", "run": "po_s", "eps": "0"}, "stages[1].source.eps"),
        ({"kind": "tr", "run": "po_s", "eps": 0}, "stages[1].source.eps"),
        ({"kind": "tr", "run": "po_s", "label": True}, "stages[1].source.label"),
        ({"kind": "tr", "run": "po_s", "label": "first"}, "stages[1].source.label"),
        ({"kind": "tr", "run": "po_s", "label": {"pick": "first"}}, "stages[1].source.label"),
        ({"kind": "tr", "run": "po_s", "label": {"type": "TR", "pick": "middle"}},
         "stages[1].source.label"),
        ({"kind": "tr", "run": "po_s", "label": {"type": "TR", "pick": True}},
         "stages[1].source.label"),
        ({"kind": "simulate_circle", "n_seg": 5, "radius": 0,
          "params": {"om1": 1.0, "om2": 2.0, "varrho": 0.1}}, "stages[1].source.radius"),
        ({"kind": "simulate_circle", "n_seg": 5, "transient_loops": -1,
          "params": {"om1": 1.0, "om2": 2.0, "varrho": 0.1}},
         "stages[1].source.transient_loops"),
        # unchecked, 0 hangs the seed integration, -1 and true end in tracebacks,
        # and 1 and 4 fail only after the earlier stages and the transient
        *[({"kind": "simulate_circle", "n_seg": n_seg,
            "params": {"om1": 1.0, "om2": 2.0, "varrho": 0.1}},
           f"stages[1].source.n_seg: must be an odd integer >= 3, got {n_seg!r}")
          for n_seg in (0, -1, True, 1, 4)],
    ], ids=["run", "n_seg", "torus-params", "om2", "om2-bool", "varrho-bool", "N-bool", "N-zero",
            "eps-str", "eps-zero", "label-bool", "label-str", "label-no-type", "label-pick-middle",
            "label-pick-bool",
            "radius-zero", "transient_loops-negative", "n_seg-zero", "n_seg-negative",
            "n_seg-bool", "n_seg-one", "n_seg-even"])
    def test_source_fields_checked_before_any_run(self, tmp_path, capsys, source, where):
        path = self.make(tmp_path, lambda c: c["stages"][1].__setitem__("source", source))
        rc = cli.main(["run", path])
        assert rc == 2
        assert where in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "po_s")  # the po stage did not run

    @pytest.mark.parametrize("stage, mutate, where", [
        (1, lambda st: st["continuation"].__setitem__("pt_mx", 6), "continuation.pt_mx"),
        (0, lambda st: st["discretization"].__setitem__("ntsst", 10), "discretization.ntsst"),
        (1, lambda st: st.__setitem__("source", {
            "kind": "simulate_circle", "n_seg": 5, "radus": 2.0,
            "params": {"om1": 1.0, "om2": 2.0, "varrho": 0.1}}), "source.radus"),
        (1, lambda st: st["source"].__setitem__("radius", 2.0), "source.radius"),
        (1, lambda st: st.__setitem__("discretization", {"N": 5}),
         "discretization: a tr source takes no discretization"),
        (1, lambda st: st.__setitem__("source", {"kind": "bp", "run": "po_s"}),
         "continuation.released"),
        (1, lambda st: st["continuation"].__setitem__("detect_tr", True),
         "continuation.detect_tr"),
        (1, lambda st: st.__setitem__("source", {
            "kind": "simulate_circle", "n_seg": 5,
            "params": {"om1": 1.0, "om2": 2.0, "varrho": 0.1, "rho": 0.6}}),
         "source.params.rho"),
        (0, lambda st: st["discretization"].__setitem__("N", 4), "discretization.N"),
        (0, lambda st: st.__setitem__("comment", "orbits"), "comment"),
    ], ids=["pt_mx", "ntsst", "radus", "tr-radius", "tr-discretization", "bp-released",
            "torus-detect_tr", "circle-params-rho", "po-N", "stage-comment"])
    def test_unread_fields_refused_before_any_run(self, tmp_path, capsys, stage, mutate,
                                                  where):
        # each of these was accepted and then ignored
        path = self.make(tmp_path, lambda c: mutate(c["stages"][stage]))
        rc = cli.main(["run", path])
        assert rc == 2
        assert f"stages[{stage}].{where}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "po_s")  # the po stage did not run

    def test_shipped_and_benchmark_configs_validate(self, monkeypatch):
        root = os.path.join(os.path.dirname(__file__), "..")
        for name in ("langford.json", "vdp.json"):
            cli.validate_config(cli.load_config(os.path.join(root, "configs", name)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        import workloads

        for name in ("po1", "tr1a", "vdp"):
            cli.validate_config(workloads.build(name, 0).config)

    @pytest.mark.parametrize("mutate, where", [
        (lambda st: st.__setitem__("discretization", 5), "discretization"),
        (lambda st: st["discretization"].__setitem__("ntst", True), "discretization.ntst"),
        (lambda st: st["discretization"].__setitem__("degree", 2.0), "discretization.degree"),
        (lambda st: st["source"].__setitem__("transient_periods", "many"),
         "source.transient_periods"),
        (lambda st: st["source"].__setitem__("transient_periods", -1), "source.transient_periods"),
    ], ids=["discretization-int", "ntst-bool", "degree-float", "transient_periods-str",
            "transient_periods-negative"])
    def test_po_stage_fields_checked_before_any_run(self, tmp_path, capsys, mutate, where):
        path = self.make(tmp_path, lambda c: mutate(c["stages"][0]))
        rc = cli.main(["run", path])
        assert rc == 2
        assert f"stages[0].{where}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "po_s")  # the po stage did not run

    @pytest.mark.parametrize("key, value, where", [
        ("y0", [0.3, "x", 0.0], "source.y0: must be a list of 3 numbers, got [0.3, 'x', 0.0]"),
        ("y0", [0.3], "source.y0: must be a list of 3 numbers, got [0.3]"),
        ("period", True, "source.period: must be a positive number, got True"),
        ("period", -1.0, "source.period: must be a positive number, got -1.0"),
    ], ids=["y0-text", "y0-short", "period-bool", "period-negative"])
    def test_simulate_source_checked_before_any_run(self, tmp_path, capsys, key, value, where):
        # unchecked, text in y0 ended in a traceback when the stage started, a short y0
        # failed only then, and period true or -1.0 reached the orbit seed
        path = self.make(tmp_path, lambda c: c["stages"][0]["source"].__setitem__(key, value))
        rc = cli.main(["run", path])
        assert rc == 2
        assert f"stages[0].{where}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "po_s")  # the po stage did not run

    @pytest.mark.parametrize("key, value, where", [
        ("pt_max", "10", "pt_max"),
        ("pt_max", 0, "pt_max"),
        ("pt_max", True, "pt_max"),
        ("h0", "0.3", "h0"),
        ("h_min", None, "h_min"),
        ("h_max", False, "h_max"),
        ("bi_direct", "no", "bi_direct"),
        ("detect_bp", "no", "detect_bp"),
        ("bounds", {"rho": ["a", 2.0]}, "bounds.rho"),
        ("bounds", {"rho": [2.0, 0.2]}, "bounds.rho"),
        ("bounds", {"rho": [float("nan"), 2.0]}, "bounds.rho"),
    ], ids=["pt_max-str", "pt_max-zero", "pt_max-bool", "h0-str", "h_min-null",
            "h_max-bool", "bi_direct-str", "detect_bp-str", "bound-str", "bound-reversed",
            "bound-nan"])
    def test_continuation_fields_checked_before_any_run(self, tmp_path, capsys, key, value,
                                                        where):
        path = self.make(tmp_path, lambda c: c["stages"][1]["continuation"].__setitem__(
            key, value))
        rc = cli.main(["run", path])
        assert rc == 2
        assert f"stages[1].continuation.{where}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "po_s")  # the po stage did not run

    def test_bad_json_position_reported(self, tmp_path, capsys):
        path = str(tmp_path / "broken.json")
        with open(path, "w") as fh:
            fh.write('{"system": \n !!}')
        rc = cli.main(["run", path])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err  # line number of the defect

    def test_unknown_system_param(self, tmp_path, capsys):
        path = self.make(tmp_path, lambda c: c["system"]["params"].__setitem__("zeta", 1.0))
        rc = cli.main(["run", path])
        assert rc == 2
        assert "zeta" in capsys.readouterr().err

    def test_duplicate_run_id(self, tmp_path, capsys):
        def mutate(c):
            c["stages"][1]["run_id"] = "po_s"

        path = self.make(tmp_path, mutate)
        rc = cli.main(["run", path])
        assert rc == 2
        assert "duplicate" in capsys.readouterr().err

    def test_missing_config_file_is_not_found(self, capsys):
        rc = cli.main(["run", "/nonexistent/config.json"])
        assert rc == 4

    def test_bad_bound_name(self, tmp_path, capsys):
        path = self.make(tmp_path, lambda c: c["stages"][0]["continuation"]["bounds"]
                         .__setitem__("q99", [0, 1]))
        rc = cli.main(["run", path])
        assert rc == 2
        assert "q99" in capsys.readouterr().err


class TestEndToEnd:
    def test_po_run_found_tr_near_paper_value(self, cli_run):
        bd = store.read_bd(cli_run["store"], "po_s")
        trs = bd.labels_of_type("TR")
        assert trs
        i = bd.labels.index(trs[0])
        assert abs(bd.columns["rho"][i] - 0.6154) < 0.005

    def test_torus_run_completed(self, cli_run):
        bd = store.read_bd(cli_run["store"], "tor_s")
        assert len(bd.labels) >= 3
        eps_col = bd.columns["eps"]
        assert max(eps_col) - min(eps_col) == 0.0

    def test_single_stage_selection(self, cli_run, tmp_path):
        # rerunning just the torus stage reuses the saved po run
        cfg = json.load(open(cli_run["config"]))
        cfg2_path = str(tmp_path / "c2.json")
        for st in cfg["stages"]:
            if st["run_id"] == "tor_s":
                st["run_id"] = "tor_s2"
        with open(cfg2_path, "w") as fh:
            json.dump(cfg, fh)
        rc = cli.main(["run", cfg2_path, "--stage", "tor_s2", "--quiet"])
        assert rc == 0
        bd = store.read_bd(cli_run["store"], "tor_s2")
        assert len(bd.labels) >= 3

    def test_unknown_stage(self, cli_run, capsys):
        rc = cli.main(["run", cli_run["config"], "--stage", "nope"])
        assert rc == 4

    def test_store_that_is_a_file_exits_2_before_any_stage(self, cli_run, tmp_path, capsys):
        path = tmp_path / "store"
        path.write_text("")
        rc = cli.main(["run", cli_run["config"], "--store", str(path), "--quiet"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "== run" not in out
        assert err.count("\n") == 1 and repr(str(path)) in err

    def test_start_failure_exits_3(self, tmp_path, capsys):
        # a wildly wrong period makes the initial orbit correction diverge
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["store"] = str(tmp_path)
        cfg["stages"] = cfg["stages"][:1]
        cfg["stages"][0]["source"]["period"] = 0.11
        cfg["stages"][0]["source"]["transient_periods"] = 5
        path = str(tmp_path / "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        rc = cli.main(["run", path, "--quiet"])
        assert rc == 3
        assert "convergence failure" in capsys.readouterr().err


class TestValidate:
    def test_validate_reports_small_deviation(self, cli_run, capsys):
        bd = store.read_bd(cli_run["store"], "tor_s")
        lab = bd.labels_of_type("EP")[-1]
        rc = cli.main(["validate", "tor_s", str(lab), "--returns", "5",
                       "--store", cli_run["store"]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max deviation" in out
        maxdev = float([l for l in out.splitlines() if l.startswith("max deviation")][0].split()[-1])
        assert maxdev < 1e-2  # N=4 discretization; acceptance tightens this

    def test_validate_corrupted_snapshot_flags_large_deviation(self, cli_run, capsys):
        base = cli_run["store"]
        bd = store.read_bd(base, "tor_s")
        lab = bd.labels_of_type("EP")[-1]
        src = os.path.join(base, "tor_s", f"sol_{lab:06d}.json")
        doc = json.load(open(src))
        doc["x_seg"] = store._encode_array(store._decode_array(doc["x_seg"], src, "x_seg") * 1.1)
        os.makedirs(os.path.join(base, "tor_bad"), exist_ok=True)
        import shutil

        for f in ("meta.json", "bd.tsv"):
            shutil.copy(os.path.join(base, "tor_s", f), os.path.join(base, "tor_bad", f))
        with open(os.path.join(base, "tor_bad", f"sol_{lab:06d}.json"), "w") as fh:
            json.dump(doc, fh)
        cli.main(["validate", "tor_bad", str(lab), "--returns", "3", "--store", base])
        out_bad = capsys.readouterr().out
        bad = float([l for l in out_bad.splitlines() if l.startswith("max deviation")][0].split()[-1])
        cli.main(["validate", "tor_s", str(lab), "--returns", "3", "--store", base])
        out_good = capsys.readouterr().out
        good = float([l for l in out_good.splitlines() if l.startswith("max deviation")][0].split()[-1])
        assert bad > 100 * good

    @pytest.mark.parametrize("returns", ["0", "-3"])
    def test_validate_needs_one_return(self, cli_run, capsys, returns):
        bd = store.read_bd(cli_run["store"], "tor_s")
        rc = cli.main(["validate", "tor_s", str(bd.labels_of_type("EP")[-1]),
                       "--returns", returns, "--store", cli_run["store"]])
        assert rc == 2
        assert f"n_returns must be >= 1, got {returns}" in capsys.readouterr().err

    def test_validate_missing_label_not_found(self, cli_run):
        rc = cli.main(["validate", "tor_s", "999", "--store", cli_run["store"]])
        assert rc == 4

    @pytest.mark.parametrize("field,corrupt", [
        ("x_seg", lambda doc, a: {"x_seg": store._encode_array(a(doc["x_seg"])[:-1])}),
        ("x_seg", lambda doc, a: {"x_seg": store._encode_array(a(doc["x_seg"])[:, 1:])}),
        ("p", lambda doc, a: {"p": store._encode_array(a(doc["p"])[:-1])}),
        ("reference.vphi", lambda doc, a: {"reference": dict(
            doc["reference"], vphi=store._encode_array(a(doc["reference"]["vphi"])[:2]))}),
        ("T", lambda doc, a: {"T": "x"}),
        ("T", lambda doc, a: {"T": float("nan")}),
        ("T0", lambda doc, a: {"T0": True}),
        ("mesh.ntst", lambda doc, a: {"mesh": dict(doc["mesh"], ntst=0)}),
        ("mesh.degree", lambda doc, a: {"mesh": dict(doc["mesh"], degree=4.0)}),
        ("fourier_modes", lambda doc, a: {"fourier_modes": "4"}),
    ], ids=["x_seg-segments", "x_seg-base-points", "p", "reference.vphi", "T-string", "T-nan",
            "T0-bool", "mesh.ntst-zero", "mesh.degree-float", "fourier_modes-string"])
    def test_malformed_snapshot_is_a_format_error(self, cli_run, tmp_path, capsys, field,
                                                  corrupt):
        # a snapshot whose array shapes or scalar types differ from
        # docs/formats.md is refused naming the file and the field
        lab = store.read_bd(cli_run["store"], "tor_s").labels_of_type("EP")[-1]
        name = f"sol_{lab:06d}.json"
        src, dst = os.path.join(cli_run["store"], "tor_s"), tmp_path / "tor_s"
        dst.mkdir()
        for f in ("meta.json", "bd.tsv"):
            (dst / f).write_text(open(os.path.join(src, f)).read())
        doc = json.load(open(os.path.join(src, name)))
        doc.update(corrupt(doc, lambda obj: store._decode_array(obj, "", field)))
        (dst / name).write_text(json.dumps(doc))
        rc = cli.main(["validate", "tor_s", str(lab), "--returns", "1", "--store", str(tmp_path)])
        assert rc == 2
        assert f"{dst / name}: field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate", "export"])
    def test_orbit_label_is_not_a_torus(self, cli_run, tmp_path, capsys, verb):
        out = str(tmp_path / "grid.tsv")
        argv = [verb, "po_s", "1", "--store", cli_run["store"]]
        rc = cli.main(argv + (["-o", out] if verb == "export" else []))
        assert rc == 2
        assert "not a torus" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestExportBd:
    def test_export_grid_closure(self, cli_run, tmp_path):
        bd = store.read_bd(cli_run["store"], "tor_s")
        lab = bd.labels_of_type("EP")[-1]
        out = str(tmp_path / "grid.tsv")
        rc = cli.main(["export", "tor_s", str(lab), "--theta2", "17", "-o", out,
                       "--store", cli_run["store"]])
        assert rc == 0
        lines = [l for l in open(out) if not l.startswith("#")]
        header = [l for l in open(out) if l.startswith("# n_theta1")][0]
        n_theta1 = int(header.split()[2])
        rows = np.array([[float(v) for v in l.split("\t")] for l in lines])
        # first and last theta2 columns close up to the coupling tolerance
        assert np.abs(rows[:, 0] - rows[:, -1]).max() < 1e-5
        assert rows.shape[0] % n_theta1 == 0

    def test_bd_projection_column_exact(self, cli_run, tmp_path):
        out = str(tmp_path / "bd2.tsv")
        rc = cli.main(["bd", "tor_s", "--columns", "rho", "eps", "-o", out,
                       "--store", cli_run["store"]])
        assert rc == 0
        bd = store.read_bd(cli_run["store"], "tor_s")
        rows = [l.split("\t") for l in open(out) if not l.startswith("#")]
        assert [float(r[0]) for r in rows] == bd.columns["rho"]
        assert [float(r[1]) for r in rows] == bd.columns["eps"]

    def test_bd_unknown_column(self, cli_run):
        rc = cli.main(["bd", "tor_s", "--columns", "nonexistent",
                       "--store", cli_run["store"]])
        assert rc == 4

    def test_export_missing_label_not_found(self, cli_run):
        rc = cli.main(["export", "tor_s", "999", "--store", cli_run["store"]])
        assert rc == 4

    def test_export_missing_run_not_found(self, cli_run):
        rc = cli.main(["export", "ghost", "1", "--store", cli_run["store"]])
        assert rc == 4

    @pytest.mark.parametrize("verb", [["bd", "tor_s", "--columns", "rho"],
                                      ["export", "tor_s", "1"]], ids=["bd", "export"])
    def test_unwritable_output_path_exits_2(self, cli_run, tmp_path, capsys, verb):
        out = str(tmp_path / "missing" / "x.tsv")
        rc = cli.main(verb + ["-o", out, "--store", cli_run["store"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(out) in err

    def test_list_runs_and_labels(self, cli_run, capsys):
        rc = cli.main(["list", "--store", cli_run["store"]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "po_s" in out and "tor_s" in out
        rc = cli.main(["list", "po_s", "--store", cli_run["store"]])
        assert rc == 0
        assert "TR" in capsys.readouterr().out


def test_determinism_bit_for_bit(tmp_path):
    """Identical config runs produce byte-identical bd tables."""
    import filecmp

    outputs = []
    for k in range(2):
        base = tmp_path / f"det{k}"
        base.mkdir()
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["store"] = str(base)
        cfg["stages"] = cfg["stages"][:1]
        cfg["stages"][0]["continuation"]["pt_max"] = 6
        cfg["stages"][0]["source"]["transient_periods"] = 20
        path = str(base / "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert cli.main(["run", path, "--quiet"]) == 0
        outputs.append(str(base / "po_s" / "bd.tsv"))
    assert filecmp.cmp(outputs[0], outputs[1], shallow=False)


def test_rerun_into_used_directory_drops_stale_labels(cli_run, tmp_path, capsys):
    import shutil

    base = str(tmp_path)
    for run_id in ("po_s", "tor_s"):
        shutil.copytree(os.path.join(cli_run["store"], run_id), os.path.join(base, run_id))
    old = store.read_bd(base, "tor_s").labels
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["store"] = base
    cfg["stages"][1]["continuation"]["pt_max"] = 1
    path = os.path.join(base, "c.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert cli.main(["run", path, "--stage", "tor_s", "--quiet"]) == 0
    new = store.read_bd(base, "tor_s").labels
    assert max(new) < max(old)
    rc = cli.main(["validate", "tor_s", str(max(old)), "--returns", "2", "--store", base])
    assert rc == 4
    assert "not found" in capsys.readouterr().err
    assert sorted(f for f in os.listdir(os.path.join(base, "tor_s")) if f.startswith("sol_")) \
        == [f"sol_{lab:06d}.json" for lab in new]


def test_circle_samples_integrate_all_seeds_at_once(monkeypatch):
    # the simulate_circle source of configs/vdp.json: one integration for the
    # transient and one onto the base points of one return, as close to the
    # seeds integrated one by one as their own integration error
    from torcont import colloc, ivp, odesys

    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "vdp.json")) as fh:
        stage = json.load(fh)["stages"][0]
    src, disc = stage["source"], stage["discretization"]
    mesh = colloc.build_mesh(disc["ntst"], disc["degree"])
    vf = odesys.builtin_vdp()
    p0 = np.array([1.5111, 0.11, 0.1])
    calls = []
    integrate = ivp.integrate

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(ivp, "integrate", counted)
    samples, _ = cli._make_circle_samples(vf, p0, src, mesh)
    monkeypatch.undo()
    assert len(calls) == 2
    n_seg, loops = src["n_seg"], src["transient_loops"]
    t_ret = 2 * np.pi / src["params"]["om2"]
    tb = t_ret * colloc.distinct_basepoints(mesh)[0]
    assert samples.shape == (n_seg, disc["ntst"] * disc["degree"] + 1, 2)
    for j in range(n_seg):
        angle = 2 * np.pi * j / n_seg
        seed = src["radius"] * np.array([np.cos(angle), np.sin(angle)])
        seed = ivp.integrate(vf, [0.0, loops * t_ret], seed, p0).y[-1]
        assert np.abs(ivp.integrate(vf, tb, seed, p0).y - samples[j]).max() < 1e-7


VDP_CIRCLE_CONFIG = {
    "store": None,  # filled per test
    "system": {"name": "vdp", "params": {"Om2": 1.5111, "c": 0.11, "a": 0.1}},
    "stages": [{
        "run_id": "circ_s",
        "problem": "torus",
        "source": {"kind": "simulate_circle", "n_seg": 9, "radius": 2.0, "transient_loops": 10,
                   "params": {"om1": -1.0, "om2": 1.5111, "varrho": -0.661769571835087}},
        "discretization": {"ntst": 10, "degree": 4},
        "continuation": {"released": ["a", "Om2", "om2", "om1", "varrho", "c"], "pt_max": 3,
                         "h0": 0.2, "h_min": 0.001, "h_max": 2.0, "bi_direct": False,
                         "detect_bp": False},
    }],
}


def write_samples(path, t_grid, edit=None):
    """A samples file of 3 constant vdp segments on ``t_grid`` covering one
    return; ``edit`` changes its JSON document before it is written."""
    from torcont import odesys

    store.write_samples_file(path, odesys.builtin_vdp(), t_grid, np.ones((3, len(t_grid), 2)), {
        "Om2": 1.5111, "c": 0.11, "a": 0.1, "om1": -1.0, "om2": 2 * np.pi / 4.0, "varrho": 0.1})
    if edit is not None:
        with open(path) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)


@pytest.mark.parametrize("t_grid, edit, message", [
    ([0.0, 1.0, 1.0, 2.0, 4.0], None, "strictly increasing"),
    ([0.0, 1.0, 2.0, 4.0], lambda d: d["samples"][1][2].__setitem__(0, float("nan")),
     "sample values must be finite"),
    ([0.0, 4.0], None, "at least 3 times"),
    ([0.0, 1.0, 2.0, 4.0], lambda d: d["samples"][1].__setitem__(2, [1.0]),
     "samples.json: field 'samples' is not a 3-dimensional array of numbers"),
    ([0.0, 1.0, 2.0, 4.0], lambda d: d["t_grid"].__setitem__(1, "one"),
     "samples.json: field 't_grid' is not a 1-dimensional array of numbers"),
    ([0.0, 1.0, 2.0, 4.0], lambda d: d["params"].__setitem__("om2", "fast"),
     "samples.json: field 'params' must map names to numbers"),
], ids=["repeated-time", "nan-sample", "two-samples", "ragged-samples", "text-time",
        "text-param"])
def test_bad_samples_file_is_an_input_error(tmp_path, capsys, t_grid, edit, message):
    path = str(tmp_path / "samples.json")
    write_samples(path, t_grid, edit)
    cfg = json.loads(json.dumps(VDP_CIRCLE_CONFIG))
    cfg["store"] = str(tmp_path)
    cfg["stages"][0]["source"] = {"kind": "samples", "path": path}
    with open(tmp_path / "c.json", "w") as fh:
        json.dump(cfg, fh)
    assert cli.main(["run", str(tmp_path / "c.json"), "--quiet"]) == 2
    assert message in capsys.readouterr().err


def loaded_after_runs(tmp_path, configs, modules):
    """Which of ``modules`` a fresh interpreter has loaded after running
    the configs {name: doc} through ``cli.main``."""
    import subprocess
    import sys

    paths = []
    for name, doc in configs.items():
        cfg = json.loads(json.dumps(doc))
        cfg["store"] = str(tmp_path / name)
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(cfg, fh)
    script = (
        "import sys\n"
        "from torcont import cli\n"
        f"for path in {paths!r}:\n"
        "    assert cli.main(['run', path, '--quiet']) == 0\n"
        f"print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.splitlines()[-1]


def test_runs_import_no_scipy_integrate_interpolate_or_sparse(tmp_path):
    # the simulate, tr and simulate_circle sources integrate and resample
    # without scipy.integrate and scipy.interpolate, which would also load
    # scipy.optimize and scipy.special at start-up, and every linear system
    # is assembled and factored without scipy.sparse
    assert loaded_after_runs(
        tmp_path, {"langford": SMALL_CONFIG, "vdp": VDP_CIRCLE_CONFIG},
        ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.special",
         "scipy.sparse")) == "[]"


def test_orbit_and_tr_seeded_torus_runs_import_no_scipy_linalg(tmp_path):
    # numpy factors and solves the continuation's systems
    assert loaded_after_runs(tmp_path, {"langford": SMALL_CONFIG},
                             ("scipy", "scipy.linalg")) == "[]"


def test_circle_and_samples_runs_import_no_scipy(tmp_path):
    # circle seeds are integrated onto the base points, and a samples file's
    # spline is solved by numpy
    from torcont import colloc, ivp, odesys

    src = VDP_CIRCLE_CONFIG["stages"][0]["source"]
    vf, p0 = odesys.builtin_vdp(), np.array([1.5111, 0.11, 0.1])
    mesh = colloc.build_mesh(10, 4)
    samples, params = cli._make_circle_samples(vf, p0, src, mesh)
    t_grid = 2 * np.pi / params["om2"] * colloc.distinct_basepoints(mesh)[0]
    path = str(tmp_path / "samples.json")
    store.write_samples_file(path, vf, t_grid[::2], samples[:, ::2], params)
    from_file = json.loads(json.dumps(VDP_CIRCLE_CONFIG))
    from_file["stages"][0].update(run_id="file_s", source={"kind": "samples", "path": path})
    assert loaded_after_runs(tmp_path, {"vdp": VDP_CIRCLE_CONFIG, "file": from_file},
                             ("scipy",)) == "[]"
