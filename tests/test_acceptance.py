"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The long pipelines (Langford periodic orbits -> TR -> torus family at
N = 50; the forced Van der Pol chain with branch switching) run once in a
module fixture driven entirely through the checked-in config files and the
on-disk store, so the suite also exercises replay-from-disk.  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import contextlib
import io
import json
import os
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from torcont import cli, colloc, contin, fourier, ivp, odesys, po, store, torus
from util_systems import linear_zero_orbit

HERE = os.path.dirname(__file__)
CONFIGS = os.path.join(HERE, "..", "configs")

RESULTS = []


def report(num, ok, detail):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run both shipped workflows once; later tests only read the artifacts."""
    base = str(tmp_path_factory.mktemp("accept_store"))
    timings = {}

    t0 = time.monotonic()
    rc = cli.cmd_run(os.path.join(CONFIGS, "langford.json"), stage="po1",
                     store_dir=base, quiet=True)
    timings["po1"] = time.monotonic() - t0
    assert rc == 0

    # torus family at N = 50 releasing (varrho, rho, om1, om2); at least
    # 20 continuation points are required, so no varrho bound here
    t0 = time.monotonic()
    problem, u0 = store.restart_TR2tor(
        base, "po1", {"type": "TR", "pick": "first"},
        released=["varrho", "rho", "om1", "om2"], N=50)
    writer = store.RunWriter(base, "tr1a", problem)
    state = contin.ContinuationState(h=0.5, h_min=1e-3, h_max=10.0, pt_max=22,
                                     bi_direct=False)
    branch_tr1 = contin.run(problem, u0, state, writer=writer)
    timings["tr1a"] = time.monotonic() - t0

    # restart with (eps, rho, om1, om2): varrho must stay frozen
    t0 = time.monotonic()
    problem2, u02 = store.restart_tor2tor(
        base, "tr1a", {"type": "EP", "pick": "last"},
        released=["eps", "rho", "om1", "om2"], detect_bp=False)
    writer2 = store.RunWriter(base, "tr2a", problem2)
    state2 = contin.ContinuationState(h=0.5, h_min=1e-3, h_max=10.0, pt_max=6,
                                      bi_direct=False)
    branch_tr2 = contin.run(problem2, u02, state2, writer=writer2)
    timings["tr2a"] = time.monotonic() - t0

    t0 = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()) as vdp_out:
        rc = cli.cmd_run(os.path.join(CONFIGS, "vdp.json"), store_dir=base, quiet=True)
    timings["vdp"] = time.monotonic() - t0
    assert rc == 0

    return {"base": base, "timings": timings, "vdp_out": vdp_out.getvalue(),
            "branch_tr1": branch_tr1, "branch_tr2": branch_tr2}


def test_criterion_1_langford_tr_detection(pipeline):
    bd = store.read_bd(pipeline["base"], "po1")
    trs = bd.labels_of_type("TR")
    ok = bool(trs)
    rho_tr = None
    if ok:
        rho_tr = bd.columns["rho"][bd.labels.index(trs[0])]
        ok = abs(rho_tr - 0.6154) <= 0.005
    runtime = pipeline["timings"]["po1"]
    ok = ok and runtime < 120.0
    report(1, ok, f"TR at rho = {rho_tr} (target 0.6154 +/- 0.005), "
                  f"po run {runtime:.1f}s < 120s")


def test_criterion_2_torus_family_and_frozen_monitors(pipeline):
    branch = pipeline["branch_tr1"]
    start_iters = branch.points[0].corrector_iters
    n_pts = len(branch.points)
    eps_vals = [pt.monitors["eps"] for pt in branch.points]
    eps_spread = max(eps_vals) - min(eps_vals)

    branch2 = pipeline["branch_tr2"]
    vr = [pt.monitors["varrho"] for pt in branch2.points]
    vr_spread = max(vr) - min(vr)
    eps2 = [pt.monitors["eps"] for pt in branch2.points]
    eps2_moves = max(eps2) - min(eps2) > 0

    # a fixed perturbation size of 0.1 (instead of the scaled default) must
    # also land in the Newton basin at N = 50
    base = pipeline["base"]
    bd = store.read_bd(base, "po1")
    tr_lab = bd.labels_of_type("TR")[0]
    _, vf, tr_orbit = store.read_solution(base, "po1", tr_lab)
    floq = po.floquet(vf, tr_orbit)
    sol_01 = torus.init_from_TR(vf, tr_orbit, floq, N=50, eps=0.1)
    prob01, u01 = torus.continuation_problem(
        vf, sol_01, released=["varrho", "rho", "om1", "om2"], detect_bp=False)
    seed = np.concatenate([torus.tr_perturbation_direction(sol_01),
                           np.zeros(prob01.n_unknowns - sol_01.x_seg.size)])
    from torcont.contin import _correct

    u_c, iters_01, _ = _correct(prob01, u01, seed / np.linalg.norm(seed), u01,
                                max_iter=10)
    res_01 = np.abs(prob01.residual(u_c)).max()

    ok = (start_iters <= 10 and n_pts >= 20 and eps_spread <= 1e-10
          and vr_spread <= 1e-10 and eps2_moves
          and iters_01 <= 10 and res_01 < 1e-8)
    report(2, ok, f"TR2tor N=50 start in {start_iters} Newton iters "
                  f"(eps=0.1 variant: {iters_01} iters to {res_01:.1e}), "
                  f"{n_pts} points, eps spread {eps_spread:.1e} <= 1e-10; "
                  f"restart varrho spread {vr_spread:.1e} <= 1e-10")


def _validate_max(base, run_id, label, returns=20):
    buf = io.StringIO()
    cli.cmd_validate(base, run_id, label, n_returns=returns, out=buf)
    line = [l for l in buf.getvalue().splitlines() if l.startswith("max deviation")][0]
    return float(line.split()[-1])


def test_criterion_3_invariance_oracle_with_refinement(pipeline):
    base = pipeline["base"]
    bd = store.read_bd(base, "tr1a")
    labels = bd.labels[-5:]
    vf = odesys.builtin_langford()
    # the decrease comparison integrates both resolutions at a tighter
    # tolerance than cmd_validate's default so the forward-simulation floor
    # (~2e-8 over 20 returns at rtol 1e-10) does not mask the discretization
    tight = ivp.IvpOptions(rel_tol=1e-12, abs_tol=1e-14)
    reported, coarse, fine = [], [], []
    for lab in labels:
        reported.append(_validate_max(base, "tr1a", lab, returns=20))
        doc, _, sol = store.read_solution(base, "tr1a", lab)
        coarse.append(torus.invariance_deviation(vf, sol, n_returns=20, opts=tight).max())
        problem, u0 = store.restart_tor2tor(base, "tr1a", lab, N=100, ntst=40,
                                            released=["varrho", "rho", "om1", "om2"],
                                            detect_bp=False)
        fine.append(torus.invariance_deviation(vf, problem.embed(u0), n_returns=20,
                                               opts=tight).max())
    reported = np.asarray(reported)
    coarse = np.asarray(coarse)
    fine = np.asarray(fine)
    ok = bool(np.all(reported < 1e-3) and np.all(fine < coarse))
    report(3, ok, f"5 tori, 20 returns: cmd_validate max {reported.max():.2e} < 1e-3; "
                  f"doubled (N=100, NTST=40): {coarse.max():.2e} -> {fine.max():.2e}, "
                  f"decreased for every label")


def test_criterion_4_vdp_pipeline(pipeline):
    base = pipeline["base"]
    bd1 = store.read_bd(base, "vdP_torus")
    vr = bd1.columns["varrho"]
    vr_spread = max(vr) - min(vr)

    bd2 = store.read_bd(base, "vdP_torus_varrho")
    bps = bd2.labels_of_type("BP")

    bd3 = store.read_bd(base, "vdP_torus_varrho_BP")
    ok_bp_run = len(bd3.labels) >= 2
    # the first corrected point of the switched branch satisfies the zero
    # problem under its stored reference
    res_max = np.inf
    if ok_bp_run:
        doc, vf, sol = store.read_solution(base, "vdP_torus_varrho_BP", bd3.labels[1])
        res_max = np.abs(torus.torus_residual(vf, sol)).max()

    # within five steps the switched branch separates from the primary one
    # beyond solver tolerance (compare state snapshots, closest primary point)
    separation = 0.0
    if ok_bp_run:
        primary = [store.read_solution(base, "vdP_torus_varrho", lab)[2].x_seg
                   for lab in bd2.labels]
        for lab in bd3.labels[1:6]:
            xs = store.read_solution(base, "vdP_torus_varrho_BP", lab)[2].x_seg
            dmin = min(np.abs(xs - xp).max() for xp in primary)
            separation = max(separation, dmin)

    runtime = pipeline["timings"]["vdp"]
    ok = (vr_spread <= 1e-10 and len(bps) >= 1 and ok_bp_run
          and res_max < 1e-7 and separation > 1e-6 and runtime < 600.0)
    report(4, ok, f"isol2tor varrho spread {vr_spread:.1e} <= 1e-10; "
                  f"{len(bps)} BP event(s); switched branch first point "
                  f"residual {res_max:.1e}, separation {separation:.1e}; "
                  f"chain {runtime:.0f}s < 600s")


def test_vdp_first_stage_starts_on_its_bound(pipeline):
    # the simulated start has a = 0.1, the lower edge of a's bound: the
    # first (reverse) direction ends there at once, without localizing
    bd = store.read_bd(pipeline["base"], "vdP_torus")
    assert (bd.labels[1], bd.types[1]) == (2, "EP")
    assert abs(bd.columns["a"][1] - 0.1) <= 1e-12
    stage = pipeline["vdp_out"].split("== run vdP_torus ")[1].splitlines()[1]
    assert stage.split("termination: ")[1].startswith("bound a=0.1; ")


@pytest.mark.parametrize("extra_loops", [3, 6])
def test_vdp_transient_variants_locate_every_bp(tmp_path, extra_loops):
    """With 3 or 6 more transient loops the first stage ends elsewhere and
    the varrho family (30 points, as in the vdp benchmark) brackets other
    branch points; each is located and the switch onto its secondary branch
    succeeds."""
    with open(os.path.join(CONFIGS, "vdp.json")) as fh:
        doc = json.load(fh)
    doc["stages"][0]["source"]["transient_loops"] += extra_loops
    doc["stages"][1]["continuation"]["pt_max"] = 30
    del doc["stages"][2]
    path = str(tmp_path / "vdp.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    base = str(tmp_path / "store")
    assert cli.cmd_run(path, store_dir=base, quiet=True) == 0
    with open(os.path.join(base, "vdP_torus_varrho", "events.json")) as fh:
        bp_events = [ev for ev in json.load(fh)["events"] if ev["type"] == "BP"]
    assert bp_events and all(ev["status"] == "located" for ev in bp_events), bp_events
    labels = store.read_bd(base, "vdP_torus_varrho").labels_of_type("BP")
    assert labels == [ev["label"] for ev in bp_events]
    for lab in labels:
        problem, u0 = store.restart_BP2tor(base, "vdP_torus_varrho", lab)
        assert problem.start_tangent.shape == (problem.n_unknowns,)


def test_criterion_5_matrix_property_suite():
    worst = 0.0
    rng = np.random.default_rng(55)
    for N in (1, 3, 10, 50):
        tol = 1e-10 if N == 50 else 1e-12
        cm = fourier.dft_matrix(N)
        errs = [np.abs(cm.F @ cm.Finv - np.eye(2 * N + 1)).max()]
        r1, r2 = rng.uniform(-2, 2, 2)
        R1, R2 = fourier.rotation_matrix(N, r1), fourier.rotation_matrix(N, r2)
        errs.append(np.abs(R1.T @ R1 - np.eye(2 * N + 1)).max())
        errs.append(np.abs(R1 @ R2 - fourier.rotation_matrix(N, r1 + r2)).max())
        coef = rng.standard_normal(2 * N + 1)

        def chi(x, coef=coef, N=N):
            out = coef[0] * np.ones_like(x)
            for k in range(1, N + 1):
                out = out + coef[2 * k - 1] * np.cos(k * x) + coef[2 * k] * np.sin(k * x)
            return out

        shift = cm.Finv @ R1 @ cm.F @ chi(cm.angles) - chi(cm.angles + 2 * np.pi * r1)
        errs.append(np.abs(shift).max())
        dphi = sum(k * coef[2 * k] for k in range(1, N + 1))
        errs.append(abs(cm.phase_weights @ chi(cm.angles) - dphi)
                    / max(1.0, abs(dphi)))
        assert max(errs) < tol, f"N={N}: {errs}"
        worst = max(worst, max(errs) / tol)
    report(5, True, f"F*Finv, R orthogonality/group law, shift conjugation, "
                    f"phase weights at N in {{1,3,10,50}}; worst margin {worst:.2e} of tol")


def test_criterion_6_collocation_orders():
    def endpoint_errors(degree):
        errs = []
        for ntst in (2, 4, 8, 16):
            mesh = colloc.build_mesh(ntst, degree)
            # analytic Jacobian: finite-difference noise (~1e-9) would floor
            # the h^(2m) endpoint error before the sweep resolves the slope
            vf = odesys.VectorField(dim_state=1, dim_params=0, param_names=(),
                                    autonomous=True, rhs=lambda t, y, p: y,
                                    jac_state=lambda t, y, p: np.ones((1, 1)))
            x = np.exp(mesh.basepoints)[:, None]
            jac = colloc.segment_jacobian(vf, mesh, x, 1.0, 0.0, [])
            J = sp.coo_matrix((jac.J_x, colloc.segment_pattern(mesh, 1)),
                              shape=(colloc.n_residual_rows(mesh, 1), mesh.n_base)).toarray()
            bc = np.zeros((1, mesh.n_base))
            bc[0, 0] = 1.0
            M = np.vstack([J, bc])
            b = np.zeros(M.shape[0])
            b[-1] = 1.0
            sol = np.linalg.solve(M, b)
            errs.append(abs(sol[-1] - np.e))
        return errs

    m = 3
    errs = endpoint_errors(m)
    slope_end = -np.polyfit(np.log2([2, 4, 8, 16]), np.log2(errs), 1)[0]

    rng = np.random.default_rng(6)
    tq = rng.uniform(0, 1, 300)
    errs_int = []
    for ntst in (2, 4, 8, 16):
        mesh = colloc.build_mesh(ntst, m)
        traj = colloc.Trajectory(mesh=mesh, x_bp=np.exp(mesh.basepoints)[:, None],
                                 duration=1.0)
        errs_int.append(np.abs(colloc.interpolate(traj, tq)[:, 0] - np.exp(tq)).max())
    slope_int = -np.polyfit(np.log2([2, 4, 8, 16]), np.log2(errs_int), 1)[0]

    ok = abs(slope_end - 2 * m) < 0.5 and abs(slope_int - (m + 1)) < 0.5
    report(6, ok, f"degree 3: endpoint slope {slope_end:.2f} (target 6 +/- 0.5), "
                  f"interior slope {slope_int:.2f} (target 4 +/- 0.5)")


def test_criterion_7_monodromy_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        A = rng.standard_normal((3, 3)) * 0.7
        T = rng.uniform(0.5, 1.5)
        vf, orbit = linear_zero_orbit(A, T)
        mu = np.sort_complex(po.floquet(vf, orbit).multipliers)
        mu_ref = np.sort_complex(np.linalg.eigvals(expm(A * T)))
        worst = max(worst, np.abs(mu - mu_ref).max())
    report(7, worst < 1e-6, f"20 random 3x3 systems: max multiplier deviation "
                            f"{worst:.2e} < 1e-6 vs scaling-and-squaring oracle")


def test_criterion_8_dimension_deficit():
    # autonomous: Langford torus at small resolution
    vf = odesys.builtin_langford()
    mesh = colloc.build_mesh(4, 3)
    cm = fourier.dft_matrix(2)
    x = np.zeros((5, mesh.n_base, 3))
    sol = torus.TorusSolution(mesh=mesh, coupling=cm, x_seg=x, T0=0.0, T=1.0,
                              p=np.array([3.5, 1.0, 0.0]), om1=1.0, om2=2 * np.pi,
                              varrho=1 / (2 * np.pi), reference=None)
    sol = torus.update_reference(vf, sol)
    d_auto = torus.dimension_deficit(vf, sol)
    J = torus.torus_jacobian(vf, sol)
    count_auto = (sol.x_seg.size + 2) - J.shape[0]

    vdp = odesys.builtin_vdp()
    x2 = np.zeros((5, mesh.n_base, 2))
    sol2 = torus.TorusSolution(mesh=mesh, coupling=cm, x_seg=x2, T0=0.0, T=1.0,
                               p=np.array([1.5, 0.1, 0.1]), om1=-1.0, om2=1.5,
                               varrho=-1 / 1.5, reference=None)
    sol2 = torus.update_reference(vdp, sol2)
    d_force = torus.dimension_deficit(vdp, sol2)

    # with four released parameters the bordered system is square
    problem, u0 = torus.continuation_problem(
        vf, sol, released=["varrho", "rho", "om1", "om2"], detect_bp=False)
    Jr = problem.jacobian(u0)
    square = Jr.shape[1] == Jr.shape[0] + 1  # +1 border row

    # fewer released parameters are rejected before any Newton step
    calls = {"n": 0}
    problem_bad, u0_bad = torus.continuation_problem(vf, sol, released=["rho"])
    real_residual = problem_bad.residual

    def counting_residual(u):
        calls["n"] += 1
        return real_residual(u)

    problem_bad.residual = counting_residual
    try:
        contin.run(problem_bad, u0_bad, contin.ContinuationState())
        rejected = False
    except Exception:
        rejected = calls["n"] == 0

    ok = d_auto == -3 and d_force == -3 and count_auto == -3 and square and rejected
    report(8, ok, f"deficit autonomous {d_auto}, forced {d_force} (both -3 by "
                  f"row/column count); 4 released -> square bordered system; "
                  f"under-release rejected before Newton")


def test_criterion_9_persistence_replay(pipeline):
    base = pipeline["base"]
    # bit-exact re-read: two loads of the same snapshot agree exactly
    bd = store.read_bd(base, "tr1a")
    lab = bd.labels_of_type("EP")[-1]
    path = os.path.join(store.run_dir(base, "tr1a"), f"sol_{lab:06d}.json")
    doc1 = json.load(open(path))
    doc2 = json.load(open(path))
    bitexact = doc1 == doc2
    _, _, sol1 = store.read_solution(base, "tr1a", lab)
    _, _, sol2 = store.read_solution(base, "tr1a", lab)
    bitexact = bitexact and np.array_equal(sol1.x_seg, sol2.x_seg)
    bitexact = bitexact and sol1.T == sol2.T and sol1.varrho == sol2.varrho

    # write -> read -> write reproduces the byte stream
    vf = odesys.builtin_langford()
    redoc = store.torus_snapshot(vf, sol1)
    stable = json.dumps(redoc["x_seg"]) == json.dumps(doc1["x_seg"])

    # the whole Langford chain above was replayed from disk artifacts only:
    # po1 (config) -> tr1a (restart_TR2tor from disk) -> tr2a (restart_tor2tor
    # from disk); assert the final run exists and started from the stored EP
    bd2 = store.read_bd(base, "tr2a")
    doc_ep, _, sol_ep = store.read_solution(base, "tr1a", lab)
    doc_start, _, sol_start = store.read_solution(base, "tr2a", bd2.labels[0])
    same_start = np.abs(sol_start.x_seg - sol_ep.x_seg).max() < 1e-9

    ok = bitexact and stable and same_start
    report(9, ok, f"round trips bit-exact; write-read-write stable; "
                  f"tr2a starts at tr1a's stored EP (max diff "
                  f"{np.abs(sol_start.x_seg - sol_ep.x_seg).max():.1e})")


def test_checked_in_configs_complete(tmp_path):
    """Both shipped workflows, driven end-to-end from their config files.

    The Van der Pol config already ran fully in the pipeline fixture; here
    the Langford config runs all three stages, including the rotation-number
    bound on the torus family, which must terminate the run with an endpoint
    exactly on the bound.
    """
    base = str(tmp_path / "cfgstore")
    rc = cli.cmd_run(os.path.join(CONFIGS, "langford.json"), store_dir=base, quiet=True)
    assert rc == 0
    for run_id in ("po1", "tr1", "tr2"):
        bd = store.read_bd(base, run_id)
        assert len(bd.labels) >= 2, f"{run_id} produced too few points"
    bd1 = store.read_bd(base, "tr1")
    ep = bd1.labels_of_type("EP")[-1]
    varrho_ep = bd1.columns["varrho"][bd1.labels.index(ep)]
    # tr1 is bounded to varrho in [0.338716..., 0.44]; the family leaves
    # through the lower edge and the run ends with an EP on it
    assert abs(varrho_ep - 0.338716189066285) < 1e-6
    eps_tr1 = bd1.columns["eps"]
    assert max(eps_tr1) - min(eps_tr1) == 0.0
    bd2 = store.read_bd(base, "tr2")
    vr2 = bd2.columns["varrho"]
    assert max(vr2) - min(vr2) == 0.0  # released (eps, ...) freezes varrho
    eps2 = bd2.columns["eps"]
    assert max(eps2) - min(eps2) > 0.0
    print("[ACCEPTANCE configs] PASS: langford.json and vdp.json complete at desk scale")


def test_zzz_summary():
    print("\n=== acceptance summary ===")
    for line in RESULTS:
        print(line)
