"""Run the benchmark over several seeds and report run-to-run spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload tr1a --seeds 0-9 [--trace 1] [--out FILE]

For each end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json; a spread below a
third of the bound is marked steady.  Count metrics (per-repetition
points, located events and bytes written, and with ``--trace 1`` every
per-layer count) are compared with those of seed 0 when seed 0 is among
the seeds.  With ``--trace 1`` the counts must also repeat exactly across
runs with the same input variant (for po1 seeds equal mod 8, for the other
workloads every seed), or the script exits with code 1.  ``--seeds 0-7``
covers every input variant.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import unit_of  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    detail = next(json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail "))
    return json.loads(lines[-1]), detail


def counts_of(result, detail):
    """Counts of the run; the repetitions of one run are identical, so the
    first stands for all of them."""
    rep = detail["reps"][0]
    out = {key: rep[key] for key in ("points", "events_located", "bytes_written")}
    for name, m in result["metrics"].items():
        if m["unit"] in ("count", "B"):
            out[name] = m["value"]
    return out


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="defaults to run_seconds of BENCHMARK.json")
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    runs = []
    for seed in seeds:
        result, detail = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, "variant": detail["variant"], "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                     "counts": counts_of(result, detail), "setup_samples_s":
                     detail.get("setup_samples_s"), "reps": detail["reps"],
                     "elapsed_s": detail["elapsed_s"], "environment": detail["environment"]})
        m = runs[-1]["metrics"]
        shown = ", ".join(f"{k}={m[k]:.6g}" for k in list(m)[:4])
        print(f"seed {seed:4d}: correct={result['correct']} {shown} "
              f"({detail['elapsed_s']:.1f} s)", flush=True)

    base = next((r["counts"] for r in runs if r["seed"] == 0), None)
    for r in runs:
        r["counts_differ_from_seed0"] = (
            None if base is None else sorted(k for k in r["counts"] if r["counts"][k] != base.get(k)))

    # with spans installed, runs of the same input must count the same work
    unrepeated = set()
    if args.trace:
        first = {}
        for r in runs:
            ref = first.setdefault(r["variant"], r["counts"])
            unrepeated.update(k for k in r["counts"] if r["counts"][k] != ref.get(k))
    summary = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
               "seeds": seeds, "all_correct": all(r["correct"] for r in runs),
               "counts_unrepeated": sorted(unrepeated), "metrics": {}}
    if len(runs) >= 2:
        for name in runs[0]["metrics"]:
            stats = quartile_spread([r["metrics"][name] for r in runs])
            bound = bounds.get(name) if not args.trace else None
            stats["bound"] = bound
            if bound is not None and stats["spread"] is not None:
                stats["steady"] = stats["spread"] < bound / 3
            summary["metrics"][name] = stats
            if not args.trace or unit_of(name) == "s":
                flag = "" if bound is None else f" bound {bound}  steady={stats.get('steady')}"
                sp = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
                print(f"  {name:36s} median {stats['median']:.6g}  IQR/median {sp}{flag}")
    summary["runs"] = runs
    print(f"all correct: {summary['all_correct']}")
    if base is not None:
        for r in runs:
            print(f"  seed {r['seed']}: counts differing from seed 0: "
                  f"{r['counts_differ_from_seed0'] or 'none'}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    if args.trace:
        print(f"counts that differ between runs of one input: {summary['counts_unrepeated'] or 'none'}")
    return 0 if summary["all_correct"] and not unrepeated else 1


if __name__ == "__main__":
    sys.exit(main())
