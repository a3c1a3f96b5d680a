"""Quasi-periodic response of the forced Van der Pol oscillator.

Runs the checked-in workflow: tori seeded from forward simulation on a
circle of initial conditions (negative rotation number: the torus winds the
other way), a first family at fixed rotation number, a second family with
the rotation number free where branch points appear, and a restart through
the first branch point onto the secondary family.

Expect about 7 s on a 2-vCPU machine.  Artifacts land in ./runs (override
TORCONT_STORE).
"""

import os

from torcont import cli, store

store_dir = os.environ.get("TORCONT_STORE", "runs")
config = os.path.join(os.path.dirname(__file__), "..", "configs", "vdp.json")

cli.cmd_run(config, store_dir=store_dir, quiet=True)

bd1 = store.read_bd(store_dir, "vdP_torus")
print(f"vdP_torus: {len(bd1.labels)} points; varrho values "
      f"{sorted(set(round(v, 10) for v in bd1.columns['varrho']))}")

bd2 = store.read_bd(store_dir, "vdP_torus_varrho")
bps = bd2.labels_of_type("BP")
print(f"vdP_torus_varrho: {len(bd2.labels)} points, branch points at labels {bps}")
for lab in bps:
    i = bd2.labels.index(lab)
    print(f"  BP {lab}: a = {bd2.columns['a'][i]:.5f}, "
          f"Om2 = {bd2.columns['Om2'][i]:.5f}, varrho = {bd2.columns['varrho'][i]:.6f}")

bd3 = store.read_bd(store_dir, "vdP_torus_varrho_BP")
print(f"secondary branch through BP {bps[0] if bps else '?'}: {len(bd3.labels)} points")
i0 = 0
print(f"  starts at a = {bd3.columns['a'][i0]:.5f}, varrho = {bd3.columns['varrho'][i0]:.6f}")

lab = bd3.labels[-1]
cli.cmd_export(store_dir, "vdP_torus_varrho_BP", lab, theta2_count=49,
               out_path=os.path.join(store_dir, "vdp_secondary_torus.tsv"))
print("\nvalidating the secondary-branch torus by forward simulation:")
cli.cmd_validate(store_dir, "vdP_torus_varrho_BP", lab, n_returns=5)
print("note: the first-return deviation measures the discretization; growth")
print("over later returns signals a transversally unstable torus, which a")
print("forward simulation cannot track for long (stability is not computed).")
