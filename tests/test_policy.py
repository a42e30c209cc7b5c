import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccl.datagen import GeneratorConfig, generate
from ccl.core import LearnOptions
from ccl.mathkit import nullspace_projector, rbf_basis, rbf_design, ridge_regression
from ccl.metrics import error_ncpe, error_nupe
from ccl.policy import (LwlPolicyModel, ParametricPolicyModel, _solve_projected, learn_pi,
                        learn_pi_lwl)


def _pooled_linear(seeds=31, n=400, angles=(0.0, 60.0, 120.0)):
    cfg = GeneratorConfig(policy="linear-attractor",
                          attractor_gain=((1.0, 0.3), (-0.3, 1.0)),
                          attractor_target=(0.2, -0.1),
                          constraints=tuple(f"fixed:{a}" for a in angles),
                          n_per_group=n, rng_seed=seeds)
    return generate(cfg)


def _direction_projectors(u):
    norms = (u ** 2).sum(axis=0)
    return np.einsum("in,jn->nij", u, u) / norms[:, None, None]


# ---------------------------------------------------------------------------
# learn_pi
# ---------------------------------------------------------------------------

def test_pi_multi_constraint_recovers_policy():
    data = _pooled_linear()
    model, report = learn_pi(data.states, data.actions, basis="linear")
    nupe = error_nupe(data.policy, model.predict(data.states))
    assert nupe.normalized < 0.05
    assert report.converged and report.dropped_samples == 0


def test_pi_single_constraint_degeneracy():
    # one constraint: the projected fit is perfect but the unconstrained
    # policy stays unidentified
    cfg = GeneratorConfig(policy="linear-attractor",
                          attractor_target=(0.2, -0.1),
                          constraints=("fixed:30.0",),
                          n_per_group=500, rng_seed=32)
    data = generate(cfg)
    model, _ = learn_pi(data.states, data.actions, basis="linear")
    pred = model.predict(data.states)
    ncpe = error_ncpe(data.policy, pred, _direction_projectors(data.actions))
    nupe = error_nupe(data.policy, pred)
    assert ncpe.normalized < 1e-6
    assert nupe.normalized > 0.05  # untied directions are not recovered


def test_pi_unconstrained_data_reduces_to_ridge():
    # scalar actions: the direction projector is identically 1, so the
    # inconsistency fit IS ridge regression and the weights coincide
    rng = np.random.default_rng(33)
    xs = rng.uniform(-1, 1, (1, 400))
    feats = rbf_design(xs, *rbf_basis(xs, 5, seed=0))
    u = rng.normal(size=(1, 5)) @ feats
    model, _ = learn_pi(xs, u, num_basis=5)
    ridge = ridge_regression(feats, u)
    assert np.max(np.abs(model.weights - ridge)) < 1e-8


def test_pi_aligned_2d_data_matches_ridge_through_projectors():
    # with u = pi(x) in 2-D a 90-degree-rotated prediction field is exactly
    # invisible to the direction projectors, so raw weights are compared
    # through them: everything the objective determines matches ridge
    rng = np.random.default_rng(133)
    xs = rng.uniform(-1, 1, (2, 800))
    feats = rbf_design(xs, *rbf_basis(xs, 5, seed=0))
    from ccl.datagen import policy_limit_cycle

    w_seed = ridge_regression(feats, policy_limit_cycle(xs))
    u = w_seed @ feats
    model, _ = learn_pi(xs, u, num_basis=5)
    ridge = ridge_regression(feats, u)
    proj = _direction_projectors(u)
    gap = np.einsum("nij,jn->in", proj, (model.weights - ridge) @ feats)
    assert np.max(np.abs(gap)) < 1e-8


def _reference_solve(features, u, proj, sample_weights, regularization):
    """The normal equations of the projected fit as the learners once
    formed them, from the (N, d, d) projector stack with one 3-operand
    einsum: returns (H, rhs) for vec(W), row g d + i for W[i, g]."""
    d, n_feat = u.shape[0], features.shape[0]
    wf = features * sample_weights
    h = np.einsum("gn,hn,nij->gihj", wf, features, proj).reshape(n_feat * d, n_feat * d)
    h[np.diag_indices_from(h)] += regularization
    return h, ((u * sample_weights) @ features.T).flatten(order="F")


@settings(max_examples=150, deadline=None)
@given(dim_u=st.integers(2, 4), n_feat=st.integers(1, 6), n=st.integers(1, 300),
       n_rows=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_factored_normal_equations_match_the_projector_stack(dim_u, n_feat, n, n_rows, seed):
    # n_rows = 0 is the unweighted system (sample_weights None); weighted
    # rows hold exact zeros, and sometimes nothing else
    rng = np.random.default_rng(seed)
    f = rng.uniform(-1, 1, (n_feat, n))
    u = rng.normal(size=(dim_u, n))
    rhos = rng.uniform(0, 1, (n_rows, n)) * (rng.uniform(size=(n_rows, n)) < rng.uniform())
    reg = LearnOptions().regularization
    with mock.patch("numpy.linalg.solve", wraps=np.linalg.solve) as spy:
        maps = _solve_projected(f, u / np.linalg.norm(u, axis=0), u,
                                rhos if n_rows else None, reg)
    rows = rhos if n_rows else np.ones((1, n))
    proj = _direction_projectors(u)
    assert len(maps) == len(rows) == spy.call_count
    for w, rho, call in zip(maps, rows, spy.call_args_list):
        h, rhs = call.args
        h_ref, rhs_ref = _reference_solve(f, u, proj, rho, reg)
        assert np.max(np.abs(h - h_ref)) <= 1e-12 * np.max(np.abs(h_ref))
        assert np.max(np.abs(rhs - rhs_ref)) <= 1e-12 * np.max(np.abs(rhs_ref))
        # half the gradient of sum_n rho_n ||u_n - P_n W f_n||^2 + reg ||W||^2
        grad = reg * w - (rho * (u - np.einsum("nij,jn->in", proj, w @ f))) @ f.T
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(rhs_ref)


def test_pi_drops_zero_action_samples():
    rng = np.random.default_rng(34)
    xs = rng.uniform(-1, 1, (2, 50))
    u = rng.normal(size=(2, 50))
    u[:, 7] = 0.0
    u[:, 21] = 0.0
    model, report = learn_pi(xs, u, basis="linear")
    assert report.dropped_samples == 2


def test_pi_consistency_over_twenty_seeds():
    # constraints spanning the action space across the pooled data pin the
    # policy down as the sample count grows
    for seed in range(20):
        data = _pooled_linear(seeds=500 + seed, n=334)  # ~1000 samples total
        model, _ = learn_pi(data.states, data.actions, basis="linear")
        nupe = error_nupe(data.policy, model.predict(data.states))
        assert nupe.normalized < 0.05


def test_pi_model_averaging_contrast():
    # two opposing constraints: pooled naive regression averages the
    # branches away while the projected fit keeps the policy
    data = _pooled_linear(seeds=35, angles=(0.0, 90.0))
    model, _ = learn_pi(data.states, data.actions, num_basis=16)
    ccl_nupe = error_nupe(data.policy, model.predict(data.states)).normalized
    naive_w = ridge_regression(model.features(data.states), data.actions)
    naive = ParametricPolicyModel(weights=naive_w,
                                  centers=model.centers, width=model.width)
    naive_nupe = error_nupe(data.policy, naive.predict(data.states)).normalized
    assert naive_nupe >= 5.0 * ccl_nupe


def test_pi_closed_form_is_a_minimum():
    data = _pooled_linear(seeds=36, n=150)
    model, report = learn_pi(data.states, data.actions, num_basis=8)
    proj = _direction_projectors(data.actions)
    feats = model.features(data.states)

    def objective(w):
        pred = w @ feats
        res = data.actions - np.einsum("nij,jn->in", proj, pred)
        return float((res ** 2).sum()) + 1e-8 * float((w ** 2).sum())

    base = objective(model.weights)
    rng = np.random.default_rng(37)
    for _ in range(100):
        delta = rng.normal(size=model.weights.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert objective(model.weights + delta) >= base - 1e-12


def test_closed_form_learners_report_closed_form():
    data = _pooled_linear(seeds=36, n=150)
    for learn, size in ((learn_pi, dict(num_basis=8)), (learn_pi_lwl, dict(num_local=5))):
        _, report = learn(data.states, data.actions, **size)
        assert report.converged and report.reason == "closed-form"
        assert report.iterations == 0 and report.notes == ()


def test_policy_learners_build_their_basis_from_all_states():
    # K-means runs on every state, zero-action samples included, seeded by
    # options.rng_seed, with the shared mean-center-distance width
    data = _pooled_linear(seeds=45, n=60)
    u = data.actions.copy()
    u[:, :7] = 0.0
    centers, width = rbf_basis(data.states, 6, seed=9)
    opts = LearnOptions(rng_seed=9)
    pi_model, pi_report = learn_pi(data.states, u, opts, num_basis=6)
    lwl_model, lwl_report = learn_pi_lwl(data.states, u, opts, num_local=6)
    assert pi_report.dropped_samples == lwl_report.dropped_samples == 7
    for model in (pi_model, lwl_model):
        assert np.array_equal(model.centers, centers) and model.width == width


@pytest.mark.parametrize("num_basis", [0, -3])
def test_policy_learners_reject_fewer_than_one_basis_function(num_basis):
    data = _pooled_linear(seeds=46, n=20)
    for basis in ("rbf", "linear"):
        with pytest.raises(ValueError, match="num_basis must be >= 1"):
            learn_pi(data.states, data.actions, num_basis=num_basis, basis=basis)
    with pytest.raises(ValueError, match="num_local must be >= 1"):
        learn_pi_lwl(data.states, data.actions, num_local=num_basis)


def test_pi_rejects_unknown_basis():
    data = _pooled_linear(seeds=47, n=20)
    with pytest.raises(ValueError, match="unknown basis"):
        learn_pi(data.states, data.actions, basis="fourier")


@pytest.mark.parametrize("learn", [learn_pi, learn_pi_lwl])
def test_policy_learners_share_input_errors(learn):
    xs = np.random.default_rng(48).uniform(-1, 1, (2, 12))
    with pytest.raises(ValueError, match="states and actions disagree on sample count"):
        learn(xs, np.ones((2, 11)))
    with pytest.raises(ValueError, match="all samples have zero action"):
        learn(xs, np.zeros((2, 12)))


# ---------------------------------------------------------------------------
# locally-weighted learner
# ---------------------------------------------------------------------------

def test_lwl_linear_policy_exact():
    data = _pooled_linear(seeds=38, angles=(0.0, 60.0))
    model, report = learn_pi_lwl(data.states, data.actions, num_local=10)
    nupe = error_nupe(data.policy, model.predict(data.states))
    assert nupe.normalized < 0.05
    assert report.converged


def test_lwl_constant_policy_bias_only():
    rng = np.random.default_rng(39)
    xs = rng.uniform(-1, 1, (2, 600))
    const = np.array([0.7, -0.4])
    pi = np.repeat(const[:, None], 600, axis=1)
    u = np.empty_like(pi)
    for n in range(600):
        th = rng.uniform(0, np.pi)
        a = np.array([[np.cos(th), np.sin(th)]])
        u[:, n] = nullspace_projector(a) @ pi[:, n]
    model, _ = learn_pi_lwl(xs, u, num_local=5)
    for b in model.local_maps:
        assert np.max(np.abs(b[:, :2])) < 1e-3  # linear part vanishes
        assert np.max(np.abs(b[:, 2] - const)) < 1e-3


def test_lwl_single_local_model_matches_linear_learn_pi():
    # realizable linear policy under two constraints: a single local map
    # (centered on the mean state, fallback width 1) and the linear-feature
    # parametric fit agree
    rng = np.random.default_rng(40)
    xs = rng.uniform(-1, 1, (2, 500))
    b_true = np.array([[0.8, -0.2, 0.3], [0.1, 1.1, -0.5]])
    aug = np.vstack([xs, np.ones(500)])
    pi = b_true @ aug
    u = np.empty_like(pi)
    for n in range(500):
        th = 0.0 if n % 2 else np.pi / 3
        a = np.array([[np.cos(th), np.sin(th)]])
        u[:, n] = nullspace_projector(a) @ pi[:, n]
    lwl, _ = learn_pi_lwl(xs, u, num_local=1)
    assert np.allclose(lwl.centers[:, 0], xs.mean(axis=1), atol=1e-12) and lwl.width == 1.0
    par, _ = learn_pi(xs, u, basis="linear")
    grid = rng.uniform(-1, 1, (2, 50))
    assert np.max(np.abs(lwl.predict(grid) - par.predict(grid))) < 1e-6


@pytest.mark.parametrize("learn", [lambda xs, u: learn_pi(xs, u, basis="linear"),
                                   lambda xs, u: learn_pi_lwl(xs, u, num_local=1)],
                         ids=["pi-linear", "pi-lwl-one-field"])
def test_3d_affine_policy_pooled_over_three_constraints(learn):
    rng = np.random.default_rng(50)
    n = 900
    xs = rng.uniform(-1, 1, (3, n))
    b_true = rng.normal(size=(3, 4))
    pi = b_true @ np.vstack([xs, np.ones(n)])
    rows = rng.normal(size=(3, 3))
    rows /= np.linalg.norm(rows, axis=0)
    a = rows[:, np.arange(n) % 3]  # sample n sees the one-row constraint n mod 3
    u = pi - a * (a * pi).sum(axis=0)
    model, _ = learn(xs, u)
    grid = rng.uniform(-1, 1, (3, 50))
    assert np.max(np.abs(model.predict(grid) - b_true @ np.vstack([grid, np.ones(50)]))) < 1e-6
    # on noisy actions the reported objective is the one the explicit
    # projector stack gives
    noisy = u + 0.05 * rng.normal(size=u.shape)
    model, report = learn(xs, noisy)
    residual = noisy - np.einsum("nij,jn->in", _direction_projectors(noisy), model.predict(xs))
    expected = float((residual ** 2).sum())
    assert abs(report.final_objective - expected) <= 1e-12 * expected


def test_lwl_fit_working_set_is_a_few_factors():
    # Z = n_feat * d * N * 8 bytes is the factor of the normal equations
    # (n_feat = dim_x + 1 = 3, d = 2).  The fit holds the (M, N) activations
    # it weighs by (1.7 Z), the samples, Z and one weighted copy of it:
    # about 5.6 Z.  A (d, d, N) projector stack would add 0.7 Z and an
    # (M, d, N) stack 3.3 Z; the einsum solve and blend peaked at 10.2 Z.
    rng = np.random.default_rng(51)
    n = 15000
    xs = rng.uniform(-1, 1, (2, n))
    u = rng.normal(size=(2, n))
    tracemalloc.start()
    try:
        learn_pi_lwl(xs, u, num_local=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 3 * 2 * n * 8


def test_lwl_far_from_every_center_predicts_the_nearest_fields_map():
    # every unshifted activation underflows to 0 at (50, 50); the blend
    # still exists and its limit is the nearest field's affine map
    rng = np.random.default_rng(49)
    maps = rng.normal(size=(3, 2, 3))
    model = LwlPolicyModel(local_maps=maps, centers=np.array([[0.0, 1.0, -1.0], [0.0, 1.0, 0.5]]),
                           width=1e-4)
    far = np.array([[50.0], [50.0]])
    assert not rbf_design(far, model.centers, model.width).any()
    nearest = maps[1] @ np.array([50.0, 50.0, 1.0])
    out = model.predict(far)[:, 0]
    assert np.max(np.abs(out - nearest)) <= 1e-12 * np.max(np.abs(nearest))


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_zero_weights():
    model = ParametricPolicyModel(weights=np.zeros((2, 3)))
    assert model.dim_x == 2
    out = model.predict(np.random.default_rng(41).normal(size=(2, 6)))
    assert np.array_equal(out, np.zeros((2, 6)))


def test_predict_one_hot_weight_at_center():
    centers = np.array([[0.0, 2.0], [0.0, 0.0]])
    weights = np.array([[0.0, 3.0], [0.0, -1.0]])  # reads the second feature
    model = ParametricPolicyModel(weights=weights, centers=centers, width=0.5)
    out = model.predict(np.array([[2.0], [0.0]]))
    # feature 2 is exactly 1 at its center; feature 1 decays to exp(-4)
    expected = weights[:, 1] + weights[:, 0] * np.exp(-4.0)
    assert np.allclose(out[:, 0], expected, atol=1e-12)


def test_predict_matches_loop_oracle():
    rng = np.random.default_rng(42)
    model = ParametricPolicyModel(weights=rng.normal(size=(2, 4)),
                                  centers=rng.normal(size=(3, 4)), width=0.8)
    assert model.dim_x == 3
    xs = rng.normal(size=(3, 9))
    out = model.predict(xs)
    for n in range(9):
        feats = np.exp(-((xs[:, [n]] - model.centers) ** 2).sum(axis=0) / (2 * 0.8))
        assert np.max(np.abs(out[:, n] - model.weights @ feats)) < 1e-14


def test_direction_projectors_idempotent_and_fixing():
    rng = np.random.default_rng(43)
    u = rng.normal(size=(3, 40))
    proj = _direction_projectors(u)
    for n in range(40):
        p = proj[n]
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p @ u[:, n] - u[:, n])) < 1e-12


def test_library_direction_projectors_zero_for_zero_actions():
    from ccl.policy import ZERO_ACTION, _direction_projectors as library_projectors

    u = np.random.default_rng(44).normal(size=(2, 6))
    u[:, 2] = 0.0
    u[:, 4] = [ZERO_ACTION / 2, 0.0]
    proj = library_projectors(u)
    assert not proj[[2, 4]].any()
    live = [0, 1, 3, 5]
    assert np.array_equal(proj[live], _direction_projectors(u[:, live]))
