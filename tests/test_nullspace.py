import numpy as np
import pytest

from ccl.core import LearnOptions
from ccl.datagen import GeneratorConfig, generate
from ccl.mathkit import (check_jacobian, finite_difference_jacobian, rbf_basis, rbf_design,
                         ridge_regression)
from ccl.metrics import error_npe
from ccl.nullspace import NullspaceComponentModel, _ncl_problem, _ncl_terms, learn_ncl


def _scenario(seed=0, n=600):
    """Fixed constraint, fixed null-space policy, task drive varying over
    samples: the setting where the null-space component is identifiable."""
    cfg = GeneratorConfig(constraints=(("fixed-angle", 60.0),),
                          task_b=("sinusoid", 0.5, 3.0, 0.0),
                          n_per_group=n, rng_seed=seed)
    return generate(cfg)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def _ncl_derivative(weights, bx, actions):
    """The per-sample derivatives D_n = d e_n / d w_n of the residuals,
    shape (N, dim_u, dim_u); -I where the prediction is negligible."""
    w, dot, safe_rho, coef, small = _ncl_terms(weights, bx, actions)
    d = actions / safe_rho - 2.0 * dot * w / safe_rho ** 2
    dmat = np.einsum("an,in->nai", w, d) + (coef - 1.0)[:, None, None] * np.eye(len(w))
    dmat[small] = -np.eye(len(w))
    return dmat


def _ncl_jacobian(bx, u):
    """The assembled (N dim_u, dim_u G) Jacobian of the ncl residuals over
    the flattened weights: sample n's rows are D_n (x) b_n'.  The learner
    never forms it; it is the oracle of the block normal equations."""
    dim_u, n = u.shape

    def jacobian(wvec):
        dmat = _ncl_derivative(wvec.reshape(dim_u, -1), bx, u)
        return np.einsum("nai,jn->naij", dmat, bx).reshape(n * dim_u, -1)

    return jacobian


def _objective(weights, bx, u):
    """The learner's objective r.r and its gradient 2 J^T r over the
    flattened weights, from its own residual and the assembled Jacobian."""
    wvec = np.ravel(weights)
    r = _ncl_problem(bx, u, wvec).residual(wvec)
    return float(r @ r), 2.0 * _ncl_jacobian(bx, u)(wvec).T @ r


def test_assembled_jacobian_matches_finite_differences():
    data = _scenario(seed=3, n=400)
    bx = rbf_design(data.states, *rbf_basis(data.states, 16, seed=0))
    wvec = np.random.default_rng(4).normal(size=data.dim_u * bx.shape[0])
    problem = _ncl_problem(bx, data.actions, wvec)
    assert problem.jacobian is None  # the normal equations come from the blocks
    assert check_jacobian(problem.residual, _ncl_jacobian(bx, data.actions), wvec) < 1e-6


def _normal_equation_cases(case):
    """(bx, actions, weight vectors) on which to compare the normal equations."""
    if case == "learned-basis":
        data = _scenario(seed=5, n=300)
        bx = rbf_design(data.states, *rbf_basis(data.states, 8, seed=0))
        return bx, data.actions, [ridge_regression(bx, data.actions).ravel()]
    dim_u = int(case[-1])
    rng = np.random.default_rng(30 + dim_u)
    g, n = 6, 80
    bx = rng.uniform(0.05, 1.0, (g, n))
    bx[:, :5] = 0.0  # zero features: a zero prediction whatever the weights
    u = rng.normal(size=(dim_u, n))
    wvecs = [rng.normal(size=dim_u * g) for _ in range(5)]
    for wvec in wvecs:
        assert _ncl_terms(wvec.reshape(dim_u, g), bx, u)[-1].sum() == 5
    return bx, u, wvecs


@pytest.mark.parametrize("case", ["random-dim_u-2", "random-dim_u-3", "learned-basis"])
def test_block_normal_equations_match_the_assembled_jacobian(case):
    # J'J and J'r from the per-sample blocks D_n equal the products of the
    # assembled Jacobian, also at samples whose prediction is negligible
    # (D_n = -I there; the random cases have five)
    bx, u, wvecs = _normal_equation_cases(case)
    problem = _ncl_problem(bx, u, wvecs[0])
    for wvec in wvecs:
        r = problem.residual(wvec)
        jac = _ncl_jacobian(bx, u)(wvec)
        h, grad = problem.normal_equations(wvec, r)
        for got, want in ((h, jac.T @ jac), (grad, jac.T @ r)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_objective_zero_when_model_equals_pure_null_data():
    rng = np.random.default_rng(0)
    bx = rng.uniform(0.1, 1.0, (4, 50))
    weights = rng.normal(size=(2, 4))
    u = weights @ bx  # observations exactly equal the model output
    value, _ = _objective(weights, bx, u)
    assert value < 1e-24


def test_objective_zero_when_task_component_orthogonal():
    rng = np.random.default_rng(1)
    bx = rng.uniform(0.1, 1.0, (4, 50))
    weights = rng.normal(size=(2, 4))
    w = weights @ bx
    # per-sample v orthogonal to w
    perp = np.vstack([-w[1], w[0]])
    v = perp * rng.normal(size=50)
    value, _ = _objective(weights, bx, v + w)
    assert value < 1e-20


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    bx = rng.uniform(0.1, 1.0, (5, 40))
    u = rng.normal(size=(2, 40))
    for _ in range(10):
        weights = rng.normal(size=(2, 5))
        _, grad = _objective(weights, bx, u)
        fd = finite_difference_jacobian(
            lambda w: np.array([_objective(w.reshape(2, 5), bx, u)[0]]),
            weights.ravel())
        scale = max(1.0, np.abs(grad).max())
        assert np.max(np.abs(grad.ravel() - fd.ravel())) / scale < 1e-5


def test_objective_handles_near_zero_predictions():
    bx = np.ones((1, 3))
    u = np.ones((2, 3))
    value, grad = _objective(np.zeros((2, 1)), bx, u)
    assert value == 0.0  # zero predictions contribute their own (zero) norm
    assert np.isfinite(grad).all()


def test_projector_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = rng.normal(size=3)
        p = np.outer(w, w) / (w @ w)
        for c in (0.5, 2.0, 7.3):
            pc = np.outer(c * w, c * w) / ((c * w) @ (c * w))
            assert np.max(np.abs(p - pc)) < 1e-12


# ---------------------------------------------------------------------------
# learning
# ---------------------------------------------------------------------------

def test_learn_ncl_recovers_null_component():
    data = _scenario(seed=4)
    model, report = learn_ncl(data.states, data.actions, LearnOptions(max_iter=600),
                              num_basis=16)
    npe = error_npe(data.null_component, model.predict(data.states))
    assert npe.normalized < 0.05
    assert report.converged


def test_learn_ncl_pure_null_space_matches_ridge():
    cfg = GeneratorConfig(constraints=(("fixed-angle", 25.0),), n_per_group=500,
                          rng_seed=5)
    data = generate(cfg)  # no task drive: u is pure null-space motion
    model, _ = learn_ncl(data.states, data.actions, num_basis=16)
    bx = rbf_design(data.states, model.centers, model.width)
    ridge = ridge_regression(bx, data.actions)
    err_lm = error_npe(data.actions, model.weights @ bx).normalized
    err_ridge = error_npe(data.actions, ridge @ bx).normalized
    assert abs(err_lm - err_ridge) < 1e-3


def test_learn_ncl_rejects_more_basis_than_samples():
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(2, 10))
    with pytest.raises(ValueError, match="need at least 12 samples"):
        learn_ncl(xs, rng.normal(size=(2, 10)), num_basis=12)


@pytest.mark.parametrize("num_basis", [0, -3])
def test_learn_ncl_rejects_fewer_than_one_basis_function(num_basis):
    data = _scenario(seed=6, n=20)
    with pytest.raises(ValueError, match="num_basis must be >= 1"):
        learn_ncl(data.states, data.actions, num_basis=num_basis)


def test_learn_ncl_builds_its_basis_from_the_seed():
    # the basis is K-means on the states seeded by options.rng_seed, with
    # the shared mean-center-distance width
    data = _scenario(seed=8, n=100)
    model, _ = learn_ncl(data.states, data.actions, LearnOptions(rng_seed=4), num_basis=7)
    centers, width = rbf_basis(data.states, 7, seed=4)
    assert np.array_equal(model.centers, centers) and model.width == width


def test_learn_ncl_beats_naive_regression_at_rejecting_task_motion():
    wins = 0
    for seed in range(20):
        data = _scenario(seed=100 + seed, n=300)
        bx = rbf_design(data.states, *rbf_basis(data.states, 12, seed=0))
        naive = ridge_regression(bx, data.actions)
        true_w = ridge_regression(bx, data.null_component)
        obj_true, _ = _objective(true_w, bx, data.actions)
        obj_naive, _ = _objective(naive, bx, data.actions)
        wins += obj_true < obj_naive
    assert wins == 20


def test_learn_ncl_init_insensitive_final_objective():
    # convex-like instance (pure null-space data): two different optimizer
    # starting points on the same basis converge to objectives within 1%
    from ccl.mathkit import lm_solve

    cfg = GeneratorConfig(constraints=(("fixed-angle", 60.0),), n_per_group=600,
                          rng_seed=7)
    data = generate(cfg)
    bx = rbf_design(data.states, *rbf_basis(data.states, 16, seed=0))
    # make the observations exactly representable so the global basin is
    # reachable from both starts
    w_true = ridge_regression(bx, data.actions)
    u = w_true @ bx
    ridge_start = ridge_regression(bx, u).ravel()
    rng = np.random.default_rng(99)
    objectives = []
    for start in (ridge_start, ridge_start + rng.normal(0, 0.2, ridge_start.size)):
        _, report = lm_solve(_ncl_problem(bx, u, start, LearnOptions(max_iter=800)))
        objectives.append(report.final_objective)
    energy = float((u ** 2).sum())
    assert abs(objectives[0] - objectives[1]) / energy < 0.01


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_zero_weights():
    model = NullspaceComponentModel(centers=np.zeros((2, 3)), width=1.0,
                                    weights=np.zeros((2, 3)))
    out = model.predict(np.random.default_rng(8).normal(size=(2, 9)))
    assert np.array_equal(out, np.zeros((2, 9)))


def test_predict_at_single_center():
    center = np.array([[0.4], [-0.2]])
    weights = np.array([[1.5], [-0.7]])
    model = NullspaceComponentModel(centers=center, width=0.8, weights=weights)
    out = model.predict(center)
    assert np.allclose(out[:, 0], weights[:, 0])  # feature is exactly 1 there


def test_predict_matches_loop_oracle():
    rng = np.random.default_rng(9)
    model = NullspaceComponentModel(centers=rng.normal(size=(2, 5)), width=0.9,
                                    weights=rng.normal(size=(2, 5)))
    xs = rng.normal(size=(2, 12))
    out = model.predict(xs)
    for n in range(12):
        feats = np.exp(-((xs[:, [n]] - model.centers) ** 2).sum(axis=0)
                       / (2 * 0.9))
        assert np.max(np.abs(out[:, n] - model.weights @ feats)) < 1e-14
