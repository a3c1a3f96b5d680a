"""Family of invariant tori born at the Langford TR point.

Runs the checked-in Langford workflow (periodic orbits -> TR detection ->
torus family -> rotation-number-fixed restart) through the config file, then
validates one torus by forward simulation and exports its surface grid.

Expect about 15 s on a 2-vCPU machine: the torus stages carry 101 segments
(N = 50).
Artifacts land in ./runs (override with TORCONT_STORE).
"""

import os

from torcont import cli, store, torus

store_dir = os.environ.get("TORCONT_STORE", "runs")
config = os.path.join(os.path.dirname(__file__), "..", "configs", "langford.json")

cli.cmd_run(config, store_dir=store_dir, quiet=True)

print("\nruns now in the store:")
cli.cmd_list(store_dir)

bd = store.read_bd(store_dir, "tr1")
print(f"\ntorus family tr1: {len(bd.labels)} labeled points")
print("varrho along the branch:", [round(v, 5) for v in bd.columns["varrho"]])
print("eps along the branch:   ", sorted(set(bd.columns["eps"])))

lab = bd.labels_of_type("EP")[-1]
print(f"\nvalidating label {lab} by forward simulation (20 returns):")
cli.cmd_validate(store_dir, "tr1", lab, n_returns=20)

out = os.path.join(store_dir, f"tr1_label{lab}_grid.tsv")
cli.cmd_export(store_dir, "tr1", lab, theta2_count=65, out_path=out)

# growing torus size away from the bifurcation
doc0, vf, sol0 = store.read_solution(store_dir, "tr1", bd.labels[0])
docN, _, solN = store.read_solution(store_dir, "tr1", lab)
for tag, sol in (("first", sol0), ("last", solN)):
    spread = (sol.x_seg - sol.x_seg.mean(axis=0, keepdims=True))
    amp = (spread ** 2).sum(axis=2).max() ** 0.5
    print(f"{tag} torus: max angular amplitude {amp:.4f}, varrho {sol.varrho:.5f}")
