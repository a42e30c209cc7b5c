"""Acceptance suite: one test per criterion, each printed as a PASS line
with its headline numbers when the run completes.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import json
import os
import time

import numpy as np

from ccl.constraint import identity_features, learn_alpha, learn_lambda, learn_nhat, twolink_jacobian_features
from ccl.core import LearnOptions
from ccl.datagen import GeneratorConfig, TwoLinkArm, generate
from ccl.mathkit import nullspace_projector, ridge_regression, unit_vectors_from_angles
from ccl.metrics import error_ncpe, error_npe, error_nupe, error_poe, error_ppe
from ccl.nullspace import _ncl_problem, learn_ncl
from ccl.policy import ParametricPolicyModel, learn_pi
from ccl.cli import main as cli_main
from oracles import finite_difference_jacobian

def _ok(num, text):
    print(f"\n[criterion {num}] PASS: {text}")


def _angle_dist(a, b):
    d = abs(a - b) % np.pi
    return min(d, np.pi - d)


def test_criterion_1_projector_algebra():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_idem = worst_sym = worst_ann = 0.0
    for _ in range(1000):
        dim_u = int(rng.integers(1, 7))
        dim_b = int(rng.integers(1, dim_u + 1))
        a = rng.normal(size=(dim_b, dim_u))
        if dim_b > 1 and rng.random() < 0.25:
            a[-1] = 2.0 * a[0]  # rank-deficient cases included
        n = nullspace_projector(a)
        worst_idem = max(worst_idem, float(np.max(np.abs(n @ n - n))))
        worst_sym = max(worst_sym, float(np.max(np.abs(n - n.T))))
        scale = max(1.0, float(np.abs(a).max()))
        worst_ann = max(worst_ann, float(np.max(np.abs(a @ n))) / scale)
    elapsed = time.perf_counter() - t0
    assert worst_idem < 1e-9 and worst_sym < 1e-9 and worst_ann < 1e-9
    assert elapsed < 5.0
    _ok(1, f"1000 projectors: idempotency {worst_idem:.2e}, symmetry "
           f"{worst_sym:.2e}, annihilation {worst_ann:.2e}, {elapsed:.2f}s")


def test_criterion_2_state_independent_recovery():
    lines = []
    for theta_deg in (0.0, 30.0, 45.0, 90.0):
        t0 = time.perf_counter()
        data = generate(GeneratorConfig(constraints=(("fixed-angle", theta_deg),),
                                        n_per_group=500, rng_seed=20))
        con, rep = learn_nhat(data.actions)
        row = con.rows[0]
        learned = np.arctan2(row[1], row[0]) % np.pi
        err_deg = np.rad2deg(_angle_dist(learned, np.deg2rad(theta_deg)))
        assert err_deg < 0.5
        assert rep.final_objective < 1e-10

        # exhaustive 0.1-degree lattice oracle over the violation energy
        second = data.actions @ data.actions.T
        grid = np.deg2rad(np.arange(0.0, 180.0, 0.1))
        rows = unit_vectors_from_angles(grid[None, :])
        energy = np.einsum("ip,ij,jp->p", rows, second, rows)
        oracle = float(grid[np.argmin(energy)])
        assert np.rad2deg(_angle_dist(learned, oracle)) <= 0.1
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        lines.append(f"{theta_deg:g}deg: err {err_deg:.4f}deg, "
                     f"objective {rep.final_objective:.1e}, {elapsed:.2f}s")
    _ok(2, "; ".join(lines))


def test_criterion_3_state_dependent_recovery():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        train = generate(GeneratorConfig(constraints=(("parabolic", 0.1),),
                                         n_per_group=1000, rng_seed=300 + seed))
        held = generate(GeneratorConfig(constraints=(("parabolic", 0.1),),
                                        n_per_group=400, rng_seed=900 + seed))
        model, _ = learn_alpha(train.actions, train.states,
                               LearnOptions(rng_seed=seed, max_iter=400))
        poe = error_poe(held.actions, model.projector_stack(held.states))
        worst = max(worst, poe.normalized)
        assert poe.normalized < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _ok(3, f"5 seeds, worst held-out NPOE {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_feature_matrix_variant():
    cfg = GeneratorConfig(system="twolink", policy="linear-attractor",
                          attractor_target=(0.8, 0.9),
                          constraints=(("jacobian-rows", (1,)),),
                          n_per_group=800, rng_seed=40)
    data = generate(cfg)
    model, _ = learn_lambda(data.actions, data.states, twolink_jacobian_features(1.0, 1.0))
    held = generate(GeneratorConfig(system="twolink", policy="linear-attractor",
                                    attractor_target=(0.8, 0.9),
                                    constraints=(("jacobian-rows", (1,)),),
                                    n_per_group=300, rng_seed=41))
    poe = error_poe(held.actions, model.projector_stack(held.states))
    assert poe.normalized < 0.01

    # lambda learns a constant selection: with identity features it is nhat
    toy = generate(GeneratorConfig(constraints=(("fixed-angle", 30.0),),
                                   n_per_group=500, rng_seed=42))
    nhat_model, _ = learn_nhat(toy.actions)
    lambda_model, _ = learn_lambda(toy.actions, toy.states, identity_features(2))
    pa = nhat_model.projector_stack(toy.states)
    pl = lambda_model.projector_stack(toy.states)
    frob = max(np.linalg.norm(pa[i] - pl[i]) for i in range(toy.n_samples))
    assert frob < 1e-12
    _ok(4, f"held-out NPOE {poe.normalized:.2e}; identity-feature projector "
           f"gap {frob:.2e} Frobenius")


def test_criterion_5_nullspace_decomposition():
    data = generate(GeneratorConfig(constraints=(("fixed-angle", 60.0),),
                                    task_b=("sinusoid", 0.5, 3.0, 0.0),
                                    n_per_group=800, rng_seed=50))
    model, _ = learn_ncl(data.states, data.actions, LearnOptions(max_iter=800), num_basis=16)
    npe = error_npe(data.null_component, model.predict(data.states))
    assert npe.normalized < 0.05

    rng = np.random.default_rng(51)
    from ccl.mathkit import rbf_design

    bx = rbf_design(data.states[:, :60], model.centers, model.width)
    u60 = data.actions[:, :60]
    # the learner's own problem: objective r.r, gradient 2 J^T r, with J^T r
    # from the normal equations the solver uses
    problem = _ncl_problem(bx, u60, np.zeros(2 * 16))
    residual = problem.residual
    worst = 0.0
    for _ in range(10):
        weights = rng.normal(size=(2, 16))
        r = residual(weights.ravel())
        grad = 2.0 * problem.normal_equations(weights.ravel(), r)[1]
        fd = finite_difference_jacobian(
            lambda w: np.array([residual(w) @ residual(w)]), weights.ravel())
        rel = np.max(np.abs(grad.ravel() - fd.ravel())) / max(1.0, np.abs(grad).max())
        worst = max(worst, rel)
        assert rel < 1e-5
    _ok(5, f"NPE {npe.normalized:.2e}; worst gradient-vs-FD deviation {worst:.2e}")


def test_criterion_6_policy_recovery_and_degeneracy():
    pooled = generate(GeneratorConfig(
        policy="linear-attractor", attractor_gain=((1.0, 0.3), (-0.3, 1.0)),
        attractor_target=(0.2, -0.1),
        constraints=(("fixed-angle", 0.0), ("fixed-angle", 60.0),
                     ("fixed-angle", 120.0)),
        n_per_group=400, rng_seed=60))
    model, _ = learn_pi(pooled.states, pooled.actions, num_basis=16)
    nupe = error_nupe(pooled.policy, model.predict(pooled.states)).normalized
    assert nupe < 0.05

    naive_w = ridge_regression(model.features(pooled.states), pooled.actions)
    naive = ParametricPolicyModel(weights=naive_w,
                                  centers=model.centers, width=model.width)
    naive_nupe = error_nupe(pooled.policy, naive.predict(pooled.states)).normalized
    assert naive_nupe >= 5.0 * nupe

    single = generate(GeneratorConfig(
        policy="linear-attractor", attractor_target=(0.2, -0.1),
        constraints=(("fixed-angle", 30.0),), n_per_group=500, rng_seed=61))
    lin, _ = learn_pi(single.states, single.actions, basis="linear")
    pred = lin.predict(single.states)
    norms = (single.actions ** 2).sum(axis=0)
    proj = np.einsum("in,jn->nij", single.actions, single.actions) / norms[:, None, None]
    ncpe = error_ncpe(single.policy, pred, proj).normalized
    single_nupe = error_nupe(single.policy, pred).normalized
    assert ncpe < 1e-6
    assert single_nupe > 0.05  # the unconstrained error stays unpinned
    _ok(6, f"pooled NUPE {nupe:.2e}, naive/CCL ratio {naive_nupe / nupe:.1f}x; "
           f"single-constraint NCPE {ncpe:.2e} with NUPE {single_nupe:.2f}")


def test_criterion_7_metric_identities():
    rng = np.random.default_rng(70)

    def mirrored(shape):
        half = rng.normal(size=(shape[0], shape[1] // 2))
        return np.hstack([half, -half])

    n = 60
    # shared per-pair projectors keep projected channels zero-mean too
    half_p = nullspace_projector(rng.normal(size=(n // 2, 1, 2)))
    projectors = np.concatenate([half_p, half_p])

    pi = mirrored((2, n))
    w = np.einsum("nij,jn->in", projectors, pi)
    u = w.copy()

    # zero on perfect predictions
    assert error_ppe(w, projectors, pi).normalized < 1e-12
    assert error_poe(u, projectors).normalized < 1e-12
    assert error_npe(w, w).normalized == 0.0
    assert error_nupe(pi, pi).normalized == 0.0
    assert error_ncpe(pi, pi, projectors).normalized == 0.0

    # exactly one for the zero predictor
    zero_p = np.zeros((2, 2))
    assert abs(error_ppe(w, zero_p, pi).normalized - 1.0) < 1e-12
    assert abs(error_poe(u, zero_p).normalized - 1.0) < 1e-12
    assert abs(error_npe(w, np.zeros_like(w)).normalized - 1.0) < 1e-12
    assert abs(error_nupe(pi, np.zeros_like(pi)).normalized - 1.0) < 1e-12
    assert abs(error_ncpe(pi, np.zeros_like(pi), projectors).normalized - 1.0) < 1e-12

    # loop oracles on random inputs
    truth = rng.normal(size=(2, n))
    pred = rng.normal(size=(2, n))
    stack = rng.normal(size=(n, 2, 2))

    def colmean(values):
        return sum(values) / len(values)

    ppe = error_ppe(truth, stack, pred)
    oracle = colmean([((stack[i] @ pred[:, i] - truth[:, i]) ** 2).sum()
                      for i in range(n)])
    assert abs(ppe.mse - oracle) < 1e-12

    poe = error_poe(truth, stack)
    oracle = colmean([((stack[i] @ truth[:, i] - truth[:, i]) ** 2).sum()
                      for i in range(n)])
    assert abs(poe.mse - oracle) < 1e-12

    npe = error_npe(truth, pred)
    oracle = colmean([((truth[:, i] - pred[:, i]) ** 2).sum() for i in range(n)])
    assert abs(npe.mse - oracle) < 1e-12
    assert abs(error_nupe(truth, pred).mse - oracle) < 1e-12

    ncpe = error_ncpe(truth, pred, stack)
    oracle = colmean([((stack[i] @ (truth[:, i] - pred[:, i])) ** 2).sum()
                      for i in range(n)])
    assert abs(ncpe.mse - oracle) < 1e-12
    _ok(7, "all five metrics: 0 on perfect, 1 on zero predictor, "
           "loop-oracle agreement at 1e-12")


def test_criterion_8_end_to_end_determinism(tmp_path):
    outdir = str(tmp_path / "tut")
    assert cli_main(["tutorial", "toy-pi", "--seed", "7", "--outdir", outdir]) == 0
    first = {}
    for fname in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, fname), "rb") as fh:
            first[fname] = fh.read()
    assert cli_main(["tutorial", "toy-pi", "--seed", "7", "--outdir", outdir]) == 0
    identical = 0
    for fname, blob in first.items():
        with open(os.path.join(outdir, fname), "rb") as fh:
            again = fh.read()
        if fname.endswith(".manifest.json"):
            a, b = json.loads(blob), json.loads(again)
            a.pop("duration_s"), b.pop("duration_s")
            assert a == b, f"manifest drift in {fname}"
        else:
            assert blob == again, f"artifact drift in {fname}"
            identical += 1
    assert identical >= 3  # dataset, model, metrics, plot table
    _ok(8, f"tutorial toy-pi --seed 7 re-run: {identical} artifact files "
           "byte-identical (manifests equal modulo wall-clock)")


def test_criterion_9_data_generation_consistency():
    arm = TwoLinkArm(1.0, 1.0)
    configs = [
        GeneratorConfig(constraints=(("fixed-angle", 30.0),), n_per_group=300,
                        rng_seed=90),
        GeneratorConfig(constraints=(("fixed-angle", 75.0),),
                        task_b=("sinusoid", 0.5, 2.0, 0.3), n_per_group=300,
                        rng_seed=91),
        GeneratorConfig(constraints=(("parabolic", 0.1),),
                        task_b=("constant", (0.2,)), n_per_group=300, rng_seed=92),
        GeneratorConfig(system="twolink", policy="linear-attractor",
                        attractor_target=(0.8, 0.9),
                        constraints=(("jacobian-rows", (1,)),), n_per_group=300,
                        rng_seed=93),
    ]
    worst_feas = worst_orth = 0.0
    for cfg in configs:
        data = generate(cfg)
        clean = data.task_component + data.null_component
        for i in range(data.n_samples):
            spec = cfg.constraints[int(data.group_ids[i])]
            x = data.states[:, i]
            if spec[0] == "fixed-angle":
                th = np.deg2rad(spec[1])
                a = np.array([[np.cos(th), np.sin(th)]])
            elif spec[0] == "parabolic":
                a = np.array([[-2.0 * spec[1] * x[0], 1.0]])
            else:
                a = arm.jacobian(x)[list(spec[1]), :]
            # independent reconstruction of the commanded task value
            if cfg.task_b[0] == "zero":
                b = np.zeros(a.shape[0])
            elif cfg.task_b[0] == "constant":
                b = np.asarray(cfg.task_b[1])
            else:
                amp, cycles, phase = cfg.task_b[1:4]
                drive = amp * np.sin(2 * np.pi * cycles * i / data.n_samples + phase)
                b = a @ (drive * np.ones(2))
            worst_feas = max(worst_feas, float(np.max(np.abs(a @ clean[:, i] - b))))
            worst_orth = max(worst_orth, abs(float(
                data.task_component[:, i] @ data.null_component[:, i])))
    assert worst_feas < 1e-10
    assert worst_orth < 1e-9
    _ok(9, f"constraint feasibility residual {worst_feas:.1e}, "
           f"task/null orthogonality {worst_orth:.1e}")
