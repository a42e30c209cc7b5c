import numpy as np
import pytest

from ccl.datagen import GeneratorConfig, generate
from ccl.mathkit import nullspace_projector, ridge_regression
from ccl.metrics import error_ncpe, error_nupe
from ccl.policy import (
    LwlPolicyModel,
    ParametricPolicyModel,
    learn_pi,
    learn_pi_lwl,
    linear_policy_model,
    lwl_policy_model,
    rbf_policy_model,
)


def _pooled_linear(seeds=31, n=400, angles=(0.0, 60.0, 120.0)):
    cfg = GeneratorConfig(policy="linear-attractor",
                          attractor_gain=((1.0, 0.3), (-0.3, 1.0)),
                          attractor_target=(0.2, -0.1),
                          constraints=tuple(("fixed-angle", a) for a in angles),
                          n_per_group=n, rng_seed=seeds)
    return generate(cfg)


def _direction_projectors(u):
    norms = (u ** 2).sum(axis=0)
    return np.einsum("in,jn->ijn", u, u) / norms


# ---------------------------------------------------------------------------
# learn_pi
# ---------------------------------------------------------------------------

def test_pi_multi_constraint_recovers_policy():
    data = _pooled_linear()
    model0 = linear_policy_model(data.dim_x, data.dim_u)
    model, report = learn_pi(data.states, data.actions, model0)
    nupe = error_nupe(data.policy, model.predict(data.states))
    assert nupe.normalized < 0.05
    assert report.converged and report.dropped_samples == 0


def test_pi_single_constraint_degeneracy():
    # one constraint: the projected fit is perfect but the unconstrained
    # policy stays unidentified
    cfg = GeneratorConfig(policy="linear-attractor",
                          attractor_target=(0.2, -0.1),
                          constraints=(("fixed-angle", 30.0),),
                          n_per_group=500, rng_seed=32)
    data = generate(cfg)
    model, _ = learn_pi(data.states, data.actions,
                        linear_policy_model(data.dim_x, data.dim_u))
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
    model0 = rbf_policy_model(xs, 1, num_basis=5, seed=0)
    u = rng.normal(size=(1, 5)) @ model0.features(xs)
    model, _ = learn_pi(xs, u, model0)
    ridge = ridge_regression(model0.features(xs), u)
    assert np.max(np.abs(model.weights - ridge)) < 1e-8


def test_pi_aligned_2d_data_matches_ridge_through_projectors():
    # with u = pi(x) in 2-D a 90-degree-rotated prediction field is exactly
    # invisible to the direction projectors, so raw weights are compared
    # through them: everything the objective determines matches ridge
    rng = np.random.default_rng(133)
    xs = rng.uniform(-1, 1, (2, 800))
    model0 = rbf_policy_model(xs, 2, num_basis=5, seed=0)
    from ccl.datagen import policy_limit_cycle

    w_seed = ridge_regression(model0.features(xs), policy_limit_cycle(xs))
    u = w_seed @ model0.features(xs)
    model, _ = learn_pi(xs, u, model0)
    ridge = ridge_regression(model0.features(xs), u)
    proj = _direction_projectors(u)
    gap = np.einsum("ijn,jn->in", proj,
                    (model.weights - ridge) @ model0.features(xs))
    assert np.max(np.abs(gap)) < 1e-8


def test_pi_drops_zero_action_samples():
    rng = np.random.default_rng(34)
    xs = rng.uniform(-1, 1, (2, 50))
    u = rng.normal(size=(2, 50))
    u[:, 7] = 0.0
    u[:, 21] = 0.0
    model, report = learn_pi(xs, u, linear_policy_model(2, 2))
    assert report.dropped_samples == 2


def test_pi_consistency_over_twenty_seeds():
    # constraints spanning the action space across the pooled data pin the
    # policy down as the sample count grows
    for seed in range(20):
        data = _pooled_linear(seeds=500 + seed, n=334)  # ~1000 samples total
        model, _ = learn_pi(data.states, data.actions,
                            linear_policy_model(data.dim_x, data.dim_u))
        nupe = error_nupe(data.policy, model.predict(data.states))
        assert nupe.normalized < 0.05


def test_pi_model_averaging_contrast():
    # two opposing constraints: pooled naive regression averages the
    # branches away while the projected fit keeps the policy
    data = _pooled_linear(seeds=35, angles=(0.0, 90.0))
    model0 = rbf_policy_model(data.states, data.dim_u, num_basis=16, seed=0)
    model, _ = learn_pi(data.states, data.actions, model0)
    ccl_nupe = error_nupe(data.policy, model.predict(data.states)).normalized
    naive_w = ridge_regression(model0.features(data.states), data.actions)
    naive = ParametricPolicyModel(weights=naive_w, dim_x=2,
                                  centers=model0.centers, width=model0.width)
    naive_nupe = error_nupe(data.policy, naive.predict(data.states)).normalized
    assert naive_nupe >= 5.0 * ccl_nupe


def test_pi_closed_form_is_a_minimum():
    data = _pooled_linear(seeds=36, n=150)
    model0 = rbf_policy_model(data.states, data.dim_u, num_basis=8, seed=0)
    model, report = learn_pi(data.states, data.actions, model0)
    proj = _direction_projectors(data.actions)
    feats = model0.features(data.states)

    def objective(w):
        pred = w @ feats
        res = data.actions - np.einsum("ijn,jn->in", proj, pred)
        return float((res ** 2).sum()) + 1e-8 * float((w ** 2).sum())

    base = objective(model.weights)
    rng = np.random.default_rng(37)
    for _ in range(100):
        delta = rng.normal(size=model.weights.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert objective(model.weights + delta) >= base - 1e-12


def test_closed_form_learners_report_closed_form():
    data = _pooled_linear(seeds=36, n=150)
    for learn, model0 in (
            (learn_pi, rbf_policy_model(data.states, data.dim_u, num_basis=8, seed=0)),
            (learn_pi_lwl, lwl_policy_model(data.states, data.dim_u, num_local=5, seed=0))):
        _, report = learn(data.states, data.actions, model0)
        assert report.converged and report.reason == "closed-form"
        assert report.iterations == 1 and report.notes == ()


# ---------------------------------------------------------------------------
# locally-weighted learner
# ---------------------------------------------------------------------------

def test_lwl_linear_policy_exact():
    data = _pooled_linear(seeds=38, angles=(0.0, 60.0))
    model0 = lwl_policy_model(data.states, data.dim_u, num_local=10, seed=0)
    model, report = learn_pi_lwl(data.states, data.actions, model0)
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
        u[:, n] = nullspace_projector(a).projector @ pi[:, n]
    model0 = lwl_policy_model(xs, 2, num_local=5, seed=0)
    model, _ = learn_pi_lwl(xs, u, model0)
    for b in model.local_maps:
        assert np.max(np.abs(b[:, :2])) < 1e-3  # linear part vanishes
        assert np.max(np.abs(b[:, 2] - const)) < 1e-3


def test_lwl_single_local_model_matches_linear_learn_pi():
    # realizable linear policy under two constraints: a single local map
    # and the linear-feature parametric fit agree
    rng = np.random.default_rng(40)
    xs = rng.uniform(-1, 1, (2, 500))
    b_true = np.array([[0.8, -0.2, 0.3], [0.1, 1.1, -0.5]])
    aug = np.vstack([xs, np.ones(500)])
    pi = b_true @ aug
    u = np.empty_like(pi)
    for n in range(500):
        th = 0.0 if n % 2 else np.pi / 3
        a = np.array([[np.cos(th), np.sin(th)]])
        u[:, n] = nullspace_projector(a).projector @ pi[:, n]
    lwl0 = LwlPolicyModel(local_maps=np.zeros((1, 2, 3)),
                          centers=xs.mean(axis=1, keepdims=True), width=1.0)
    lwl, _ = learn_pi_lwl(xs, u, lwl0)
    par, _ = learn_pi(xs, u, linear_policy_model(2, 2))
    grid = rng.uniform(-1, 1, (2, 50))
    assert np.max(np.abs(lwl.predict(grid) - par.predict(grid))) < 1e-6


def test_lwl_zero_activation_error_names_point():
    model = LwlPolicyModel(local_maps=np.zeros((1, 2, 3)),
                           centers=np.zeros((2, 1)), width=1e-4)
    with pytest.raises(ValueError, match="no receptive field"):
        model.predict(np.array([[50.0], [50.0]]))


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_zero_weights():
    model = linear_policy_model(2, 2)
    out = model.predict(np.random.default_rng(41).normal(size=(2, 6)))
    assert np.array_equal(out, np.zeros((2, 6)))


def test_predict_one_hot_weight_at_center():
    centers = np.array([[0.0, 2.0], [0.0, 0.0]])
    weights = np.array([[0.0, 3.0], [0.0, -1.0]])  # reads the second feature
    model = ParametricPolicyModel(weights=weights, dim_x=2, centers=centers,
                                  width=0.5)
    out = model.predict(np.array([[2.0], [0.0]]))
    # feature 2 is exactly 1 at its center; feature 1 decays to exp(-4)
    expected = weights[:, 1] + weights[:, 0] * np.exp(-4.0)
    assert np.allclose(out[:, 0], expected, atol=1e-12)


def test_predict_matches_loop_oracle():
    rng = np.random.default_rng(42)
    model = ParametricPolicyModel(weights=rng.normal(size=(2, 4)), dim_x=3,
                                  centers=rng.normal(size=(3, 4)), width=0.8)
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
        p = proj[:, :, n]
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p @ u[:, n] - u[:, n])) < 1e-12


def test_library_direction_projectors_zero_for_zero_actions():
    from ccl.policy import ZERO_ACTION, _direction_projectors as library_projectors

    u = np.random.default_rng(44).normal(size=(2, 6))
    u[:, 2] = 0.0
    u[:, 4] = [ZERO_ACTION / 2, 0.0]
    proj = library_projectors(u)
    assert not proj[:, :, [2, 4]].any()
    live = [0, 1, 3, 5]
    assert np.array_equal(proj[:, :, live], _direction_projectors(u[:, live]))
