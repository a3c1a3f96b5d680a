"""Every check of the tier-1 workflow, in its order, each in a child process.

Usage, after ``pip install --no-deps -e .`` (from any directory):

    python ci/check.py

It prints one line per step (name, seconds, status), stops at the first
failing step with exit 1 and names it, and ends with the total time.

The ``torcont`` command is the console script that ``shutil.which`` finds.
Without one the "editable install" step fails on a GitHub Actions runner;
anywhere else that step is reported as skipped, and a temporary ``torcont``
shim that runs ``python -m torcont.cli`` stands in for the console script.

Only the tests, the README library tour and the demos get ``src`` on
``PYTHONPATH``. The steps after the install run in the caller's environment,
so they show that the install alone makes ``torcont`` importable; when the
install is skipped they get ``src`` on ``PYTHONPATH`` too.

Each child's output is printed under its step's line.  The code-line step
prints ``ci/codelines.py``'s counts there; it sets no bound on them.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEMOS = ("01_transform_gallery", "02_collocation_orders", "03_langford_po_and_floquet",
         "04_langford_torus_family", "05_vdp_branch_switching", "06_condensed_scaling")

#: the (workload, trace) benchmark runs, each of which must end "correct"
BENCH = (("po1", 1), ("po1", 0), ("vdp", 0), ("vdp", 1), ("tr1a", 1), ("tr1a", 0))

# runs the vdP_torus stage (circle seeds) and fails if it loaded any scipy module
NO_SCIPY = ('import sys; from torcont import cli; rc = cli.main(["run", "configs/vdp.json", '
            '"--stage", "vdP_torus", "--quiet", "--store", sys.argv[1]]); left = sorted(m for m '
            'in sys.modules if m.startswith("scipy")); sys.exit(rc or (f"the vdP_torus stage '
            'loaded {left}" if left else 0))')


#: the output of the current step's children, printed under its line
OUTPUT: list[str] = []


class Failed(Exception):
    """A step's command exited with another status or printed another thing."""


def run(cmd, env, cwd=ROOT, expect=0) -> subprocess.CompletedProcess:
    """Run ``cmd`` in a child process, keep its output for the step's log, and
    raise :class:`Failed` unless it exits with ``expect``."""
    cmd = [str(c) for c in cmd]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    OUTPUT.append(proc.stdout + proc.stderr)
    if proc.returncode != expect:
        raise Failed(f"`{shlex.join(cmd)}` exited {proc.returncode}, not {expect}")
    return proc


def readme_block(pattern: str) -> str:
    """The first group of ``pattern`` in README.md."""
    found = re.search(pattern, (ROOT / "README.md").read_text(), re.S)
    if found is None:
        raise Failed(f"README.md has no block matching {pattern!r}")
    return found.group(1)


def steps(tmp: Path, env: dict) -> list:
    """The (name, function) steps; each function returns its status line.

    ``env`` is the caller's environment; the install's steps run in it."""
    py = sys.executable
    store = tmp / "store"
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with_src = dict(env, PYTHONPATH=src)

    def tests():
        out = run([py, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                  with_src).stdout
        return f"ok: {out.strip().splitlines()[-1]}"

    def code_lines():
        # the counts print under the step, which sets no bound on them
        out = run([py, ROOT / "ci" / "codelines.py"], env).stdout
        return f"ok: {out.strip().splitlines()[-1].split(maxsplit=1)[1]}"

    def console_script():
        found = shutil.which("torcont", path=env["PATH"])
        if found:
            return f"ok: {found}"
        if os.environ.get("GITHUB_ACTIONS") == "true":
            raise Failed("no torcont console script on PATH after `pip install --no-deps -e .`")
        shim = tmp / "bin" / "torcont"
        shim.parent.mkdir()
        shim.write_text(f'#!/bin/sh\nexec {shlex.quote(py)} -m torcont.cli "$@"\n')
        shim.chmod(0o755)
        env.update(PATH=f"{shim.parent}{os.pathsep}{env['PATH']}", PYTHONPATH=src)
        return ("skipped: no torcont console script; a shim runs `python -m torcont.cli`"
                " and the install's steps get src on PYTHONPATH")

    def po1_stage():
        run(["torcont", "run", "configs/langford.json", "--stage", "po1", "--quiet",
             "--store", store], env)
        return "ok"

    def no_scipy():
        run([py, "-c", NO_SCIPY, store], env)
        return "ok"

    def corrupted_snapshot():
        shutil.copytree(store / "po1", store / "po1_bad")
        snap = store / "po1_bad" / "sol_000001.json"
        doc = json.loads(snap.read_text())
        doc["mesh"] = [20, 4]
        snap.write_text(json.dumps(doc))
        err = run(["torcont", "validate", "po1_bad", "1", "--returns", "1", "--store", store],
                  env, expect=2).stderr
        if not any(str(snap) in line and "'mesh'" in line for line in err.splitlines()):
            raise Failed(f"no error line names both {snap} and 'mesh'")
        return "ok: exit 2 names the file and 'mesh'"

    def library_tour():
        tour = tmp / "tour.py"
        tour.write_text(readme_block(r"```python\n(.*?)```"))
        run([py, tour], with_src)
        return "ok"

    def command_line():
        script = tmp / "cli.sh"
        script.write_text(readme_block(r"\n## Command line\n.*?```bash\n(.*?)```"))
        shutil.copytree(ROOT / "configs", tmp / "cli" / "configs")
        run(["bash", "-e", script], env, cwd=tmp / "cli")
        return "ok"

    def demo(name):
        run([py, ROOT / "demos" / f"{name}.py"], with_src)
        return "ok"

    def bench(workload, trace):
        out = run([py, "perfbench/run.py", "--workload", workload, "--seed", "0",
                   "--seconds", "5", "--trace", trace], env).stdout
        if not json.loads(out.strip().splitlines()[-1])["correct"]:
            raise Failed(f"{workload} run (--trace {trace}) not correct")
        return "ok: correct"

    return [
        ("tier-1 tests", tests),
        ("code lines of src/torcont", code_lines),
        ("editable install", console_script),
        ("console script: po1 stage", po1_stage),
        ("vdP_torus stage loads no scipy", no_scipy),
        ("corrupted snapshot exits 2", corrupted_snapshot),
        ("README library tour", library_tour),
        ("README command line", command_line),
        *((f"demo {name}", partial(demo, name)) for name in DEMOS),
        *((f"bench {workload} --trace {trace}", partial(bench, workload, trace))
          for workload, trace in BENCH),
    ]


def run_steps(table) -> int:
    """Run the (name, function) steps of ``table`` in order and print one line
    for each, with its children's output under it; returns 1 at the first
    step that raises, else 0."""
    start = time.perf_counter()
    for name, step in table:
        t0 = time.perf_counter()
        OUTPUT.clear()
        failed = True
        try:
            status, failed = step(), False
        except Failed as exc:
            status = f"FAILED: {exc}"
        except Exception as exc:  # a fault of the step itself still names the step
            OUTPUT.append(traceback.format_exc())
            status = f"FAILED: {type(exc).__name__}: {exc}"
        print(f"{name:<40} {time.perf_counter() - t0:7.1f} s  {status}")
        for line in "".join(OUTPUT).splitlines():
            print(f"    | {line}")
        sys.stdout.flush()
        if failed:
            print(f"check failed at step {name!r}; total {time.perf_counter() - start:.1f} s")
            return 1
    print(f"all {len(table)} steps passed; total {time.perf_counter() - start:.1f} s")
    return 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="torcont-check-") as tmp:
        return run_steps(steps(Path(tmp), dict(os.environ)))


if __name__ == "__main__":
    sys.exit(main())
