"""torcont benchmark: runs one workload and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload po1|tr1a|vdp --seed N --seconds S --trace 0|1

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json:
``wall_s`` (median over repetitions, first ``contin.run`` to last return),
``setup_s`` (median over three processes of process start to start data
ready) and ``invariance_dev``; ``peak_rss_mb`` and ``fail_frac`` are
printed as well.  With ``--trace 1`` they are
the per-layer metrics of a traced repetition.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable table, the environment and
the per-repetition details.

Each workload process is one single-threaded caller in a closed loop, with
BLAS and OpenMP threads capped at the number of usable CPUs.  Stores,
config files and span dumps live under ``.perfbench_work/`` in the current
directory; stores are deleted after every repetition.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import unit_of  # noqa: E402

SRC = os.path.join("src", "torcont")
WORK_DIR = ".perfbench_work"
#: every run must end within this many seconds
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "invariance_dev": "1"}


class ChildError(RuntimeError):
    pass


def run_child(mode, args, env, deadline):
    """Start a worker; return (seconds from start to READY, RESULT payload)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--root", os.path.abspath(WORK_DIR)]
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise ChildError("no time left for another process")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if proc.returncode != 0:
        raise ChildError(f"{mode} process exited with code {proc.returncode}")
    if ready is None:
        raise ChildError(f"{mode} process never reached its start data")
    return ready, result


def environment():
    cpus = len(os.sched_getaffinity(0))
    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    return {"nproc": cpus, "thread_cap": cpus, "git_commit": git_commit(),
            "src_torcont_lines": lines}


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unavailable"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(".git", ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("po1", "tr1a", "vdp"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(SRC):
        print(f"error: no {SRC} under {os.getcwd()}; run from the repository root",
              file=sys.stderr)
        return 2
    start = perf_counter()
    deadline = start + DEADLINE_S
    os.makedirs(WORK_DIR, exist_ok=True)
    env_info = environment()
    cap = str(env_info["thread_cap"])
    # bytecode goes to a cache of the benchmark's own, so src/ stays untouched
    # and every timed import sees the same cache state on every commit
    pycache = os.path.join(WORK_DIR, "pycache")
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
               PYTHONPYCACHEPREFIX=os.path.abspath(pycache),
               OMP_NUM_THREADS=cap, OPENBLAS_NUM_THREADS=cap, MKL_NUM_THREADS=cap)
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    try:
        if args.trace:
            _, result = run_child("trace", args, env, deadline)
            metrics = result["metrics"]
            units = {m: unit_of(m) for m in metrics}
        else:
            # the first run of a workload fills the bytecode cache with an
            # untimed set-up; then one set-up sample before and one after the
            # measuring process, so that a slow phase of the host does not
            # cover all three
            warm = os.path.join(pycache, f"{args.workload}.warm")
            if not os.path.exists(warm):
                run_child("setup", args, env, deadline)
                os.makedirs(pycache, exist_ok=True)
                open(warm, "w").close()
            setups = [run_child("setup", args, env, deadline)[0]]
            ready, result = run_child("measure", args, env, deadline)
            setups += [ready, run_child("setup", args, env, deadline)[0]]
            metrics = dict(result["metrics"], setup_s=statistics.median(setups))
            units = END_TO_END_UNITS
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = result["reps"]
    failed = sum(1 for r in reps if r["failures"])
    for i, r in enumerate(reps):
        for reason in r["failures"]:
            print(f"repetition {i} failed: {reason}", file=sys.stderr)
    missing = [m for m in units if m not in metrics]
    if missing:
        print("error: no repetition completed; missing " + ", ".join(missing), file=sys.stderr)
        return 1
    env_info.update(result["versions"])
    detail = {"workload": args.workload, "seed": args.seed, "variant": result["variant"],
              "trace": args.trace,
              "fail_frac": failed / len(reps), "reps": reps, "environment": env_info,
              "elapsed_s": perf_counter() - start}
    if not args.trace:
        detail["setup_samples_s"] = setups
    for name in units:
        print(f"{name:40s} {metrics[name]:>16.6g} {units[name]}")
    if not args.trace:
        # printed, not recorded: README.md says why neither has a bound
        print(f"{'peak_rss_mb':40s} {metrics['peak_rss_mb']:>16.6g} MB")
    print(f"{'fail_frac':40s} {failed / len(reps):>16.6g} ratio")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
