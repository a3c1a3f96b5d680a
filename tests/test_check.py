"""The step runner of ci/check.py, on fake steps (the real ones run pytest),
and the code-line counter of ci/codelines.py."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


def load(name):
    """The module ci/<name>.py."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "ci" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check, codelines = load("check"), load("codelines")


def test_runner_stops_at_the_first_failing_step(capsys):
    ran = []

    def step(name, fails=False):
        def fn():
            ran.append(name)
            if fails:
                raise check.Failed("exited 1, not 0")
            return "ok"
        return name, fn

    rc = check.run_steps([step("first"), step("second step", fails=True), step("third")])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1 and ran == ["first", "second step"]
    assert out[0].startswith("first") and out[0].endswith("s  ok")
    assert out[1].startswith("second step") and out[1].endswith("FAILED: exited 1, not 0")
    assert out[2].startswith("check failed at step 'second step'; total ")
    assert len(out) == 3


def test_a_step_that_raises_is_named(capsys):
    rc = check.run_steps([("broken", lambda: {}["missing"])])
    out = capsys.readouterr().out
    assert rc == 1
    assert "check failed at step 'broken'" in out
    assert "    | KeyError: 'missing'" in out.splitlines()


def test_child_output_is_printed_under_its_step(capsys):
    # on success, and when the step then fails on what the child printed
    def child(text):
        return check.run([sys.executable, "-c", f"print({text!r})"], dict(os.environ))

    def bench():
        return json.loads(child("not json").stdout)["correct"]

    rc = check.run_steps([("talks", lambda: child("hello").stdout.strip()), ("bench", bench)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert out[0].startswith("talks") and out[0].endswith("s  hello")
    assert out[1] == "    | hello"
    assert out[2].startswith("bench") and "FAILED: JSONDecodeError" in out[2]
    assert out[3] == "    | not json"
    assert "    | Traceback (most recent call last):" in out


def test_runner_reports_every_step_and_the_total(capsys):
    rc = check.run_steps([("one", lambda: "ok"), ("two", lambda: "skipped: reason")])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0 and out[1].endswith("s  skipped: reason")
    assert out[2].startswith("all 2 steps passed; total ")


@pytest.mark.parametrize("ci", ["true", None], ids=["github-actions", "elsewhere"])
def test_missing_console_script(tmp_path, monkeypatch, ci):
    # with no torcont on PATH the step fails on a runner and puts a shim
    # there anywhere else
    env = {"PATH": str(tmp_path / "empty")}
    if ci is None:
        monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
    else:
        monkeypatch.setenv("GITHUB_ACTIONS", ci)
    steps = dict(check.steps(tmp_path, env))
    if ci:
        with pytest.raises(check.Failed, match="no torcont console script"):
            steps["editable install"]()
        return
    assert steps["editable install"]().startswith("skipped: ")
    shim = env["PATH"].split(os.pathsep)[0]
    assert os.access(os.path.join(shim, "torcont"), os.X_OK)
    assert env["PYTHONPATH"] == str(check.ROOT / "src")


def test_only_tests_tour_and_demos_get_src(tmp_path, monkeypatch):
    # the install's steps run in the caller's environment, so a broken
    # editable install cannot pass through src on PYTHONPATH
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "torcont").write_text("#!/bin/sh\n")
    (bin_dir / "torcont").chmod(0o755)
    env = {"PATH": str(bin_dir)}
    seen = {}

    def fake_run(cmd, env, cwd=check.ROOT, expect=0):
        seen[str(cmd[1] if cmd[0] == "torcont" else cmd[-1])] = env.get("PYTHONPATH")
        return subprocess.CompletedProcess(cmd, expect, '{"correct": true}\n', "")

    monkeypatch.setattr(check, "run", fake_run)
    steps = dict(check.steps(tmp_path, env))
    for name in ["tier-1 tests", "editable install", "console script: po1 stage",
                 "vdP_torus stage loads no scipy", "README library tour",
                 "demo 01_transform_gallery", "bench po1 --trace 0"]:
        assert steps[name]().startswith("ok"), name
    assert env == {"PATH": str(bin_dir)}
    src = str(check.ROOT / "src")
    assert seen == {"--continue-on-collection-errors": src, "run": None,
                    str(tmp_path / "store"): None, str(tmp_path / "tour.py"): src,
                    str(check.ROOT / "demos" / "01_transform_gallery.py"): src, "0": None}


def test_code_lines_skip_comments_docstrings_and_blanks():
    text = '''"""Module docstring,
over two lines."""

import os  # a comment after code


def f(x):
    """Docstring."""
    # a comment line
    s = """a string
    that is not a docstring"""
    return (x,
            s)
'''
    # import, def, the string's two lines, return and its continuation
    assert codelines.code_lines(text) == 6
