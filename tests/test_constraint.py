import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ccl.constraint
from ccl.constraint import (
    FeatureMatrixProvider,
    StateDependentConstraintModel,
    StateIndependentConstraint,
    _exact_projection_energy,
    _row_problem,
    feature_provider_from_name,
    identity_features,
    learn_alpha,
    learn_lambda,
    learn_nhat,
    twolink_jacobian_features,
)
from ccl.core import LearnOptions
from ccl.datagen import GeneratorConfig, TwoLinkArm, generate
from ccl.mathkit import (
    nullspace_projector,
    orthogonal_complement_rotation,
    pinv_truncated,
    rbf_basis,
    rbf_design,
    unit_vectors_from_angles,
)
from ccl.metrics import error_poe
from ccl.serialize import save_model
from oracles import check_jacobian, finite_difference_jacobian, row_jacobian


def _angle_dist(a, b):
    d = abs(a - b) % np.pi
    return min(d, np.pi - d)


def _nhat_objective_loop(rows, u):
    """Independent oracle: the projector-consistency error summed per
    sample, ||u - N u||^2 with N = I - pinv(A) A."""
    n = np.eye(u.shape[0]) - np.linalg.pinv(rows) @ rows
    return sum(((u[:, i] - n @ u[:, i]) ** 2).sum() for i in range(u.shape[1]))


# ---------------------------------------------------------------------------
# row-space energy (the objective every constraint learner reports)
# ---------------------------------------------------------------------------

def test_objective_zero_when_row_orthogonal_to_data():
    u = np.vstack([np.zeros(20), np.linspace(-1, 1, 20)])  # all along (0, 1)
    assert _exact_projection_energy(np.array([[[1.0, 0.0]]]), u) == pytest.approx(0.0, abs=1e-12)
    con, rep = learn_nhat(u)
    assert np.allclose(np.abs(con.rows), [[1.0, 0.0]], atol=1e-6)
    assert rep.final_objective == pytest.approx(0.0, abs=1e-12)


def test_objective_worst_case_captures_all_energy():
    u = np.vstack([np.zeros(20), np.linspace(-1, 1, 20)])
    assert _exact_projection_energy(np.array([[[0.0, 1.0]]]), u) == pytest.approx((u ** 2).sum())


def test_objective_equivalent_to_projector_error_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        k = int(rng.integers(1, dim))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        rows = q.T[:k]
        u = rng.normal(size=(dim, 30))
        # one constant constraint for every sample, or the same rows stacked
        for a in (rows[None], np.repeat(rows[None], 30, axis=0)):
            assert abs(_exact_projection_energy(a, u) - _nhat_objective_loop(rows, u)) < 1e-9
        con, rep = learn_nhat(u)
        assert rep.final_objective == _exact_projection_energy(con.rows[None], u)
        assert abs(rep.final_objective - _nhat_objective_loop(con.rows, u)) < 1e-9
        assert rep.mse == rep.final_objective / 30


def test_objective_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        _exact_projection_energy(np.eye(2)[None], np.ones((3, 5)))


# ---------------------------------------------------------------------------
# learn_nhat
# ---------------------------------------------------------------------------

def _grid_oracle_angle(u, step_deg=0.1):
    """Exhaustive lattice minimizer of the violation energy in 2-D."""
    second = u @ u.T
    thetas = np.deg2rad(np.arange(0.0, 180.0, step_deg))
    rows = unit_vectors_from_angles(thetas[None, :])
    energy = np.einsum("ip,ij,jp->p", rows, second, rows)
    return float(thetas[np.argmin(energy)])


@pytest.mark.parametrize("theta_deg", [0.0, 30.0, 45.0, 90.0])
def test_nhat_recovers_planar_angle(theta_deg):
    cfg = GeneratorConfig(constraints=(f"fixed:{theta_deg}",),
                          n_per_group=500, rng_seed=1)
    data = generate(cfg)
    con, rep = learn_nhat(data.actions)
    assert con.dim_b == 1
    row = con.rows[0]
    learned = np.arctan2(row[1], row[0]) % np.pi
    assert np.rad2deg(_angle_dist(learned, np.deg2rad(theta_deg))) < 0.5
    assert rep.final_objective < 1e-10
    oracle = _grid_oracle_angle(data.actions)
    assert np.rad2deg(_angle_dist(learned, oracle)) <= 0.1


def test_nhat_three_dimensional_axis_constraint():
    rng = np.random.default_rng(2)
    pi = rng.normal(size=(3, 400))
    n_true = np.diag([1.0, 1.0, 0.0])
    con, rep = learn_nhat(n_true @ pi)
    assert con.dim_b == 1
    assert np.allclose(np.abs(con.rows[0]), [0.0, 0.0, 1.0], atol=1e-6)
    assert rep.final_objective < 1e-12


def test_nhat_two_row_constraint_recovers_projector():
    rng = np.random.default_rng(3)
    pi = rng.normal(size=(3, 400))
    n_true = np.zeros((3, 3))
    n_true[2, 2] = 1.0  # only the z direction survives
    con, rep = learn_nhat(n_true @ pi)
    assert con.dim_b == 2
    assert np.max(np.abs(con.projector() - n_true)) < 1e-6
    assert len(rep.objective_trace) == 2


def test_nhat_isotropic_data_flags_no_constraint():
    rng = np.random.default_rng(4)
    con, rep = learn_nhat(rng.normal(size=(2, 300)))
    assert "no-constraint-found" in rep.notes
    assert con.dim_b == 1  # best-effort row still returned


@pytest.mark.parametrize("dim_u", [2, 3, 4])
@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_nhat_isotropic_data_flags_no_constraint_at_any_scale(dim_u, scale):
    u = scale * np.random.default_rng(4).normal(size=(dim_u, 300))
    con, rep = learn_nhat(u)
    assert rep.notes == ("no-constraint-found",) and con.dim_b == 1


@pytest.mark.parametrize("noise", [0.01, 0.05])
def test_nhat_finds_a_noisy_fixed_row_with_default_options(noise):
    data = generate(GeneratorConfig(constraints=("fixed:30.0",), n_per_group=1000,
                                    rng_seed=1, noise_std=noise))
    con, rep = learn_nhat(data.actions)
    assert con.dim_b == 1 and rep.notes == ()
    row = con.rows[0]
    learned = np.arctan2(row[1], row[0]) % np.pi
    assert np.rad2deg(_angle_dist(learned, np.deg2rad(30.0))) < 0.5


def _accept_rule_cases():
    rng = np.random.default_rng(24)
    noisy_fixed = generate(GeneratorConfig(constraints=("fixed:30.0",),
                                           n_per_group=1000, rng_seed=2, noise_std=0.01))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    two_rows = nullspace_projector(q.T[:2]) @ rng.normal(size=(4, 600))
    yield pytest.param(noisy_fixed.actions, (1, ()), id="noisy-fixed")
    yield pytest.param(two_rows + rng.normal(0.0, 0.01, two_rows.shape), (2, ()),
                       id="noisy-two-rows")
    yield pytest.param(rng.normal(size=(3, 400)), (1, ("no-constraint-found",)), id="isotropic")


@pytest.mark.parametrize("u,expected", list(_accept_rule_cases()))
def test_nhat_keeps_the_true_row_count(u, expected):
    con, rep = learn_nhat(u)
    assert (con.dim_b, rep.notes) == expected


def _scale_cases():
    toy = dict(n_per_group=300, rng_seed=31)
    arm = dict(toy, system="twolink", policy="linear-attractor")
    return {
        "nhat": (lambda d: learn_nhat(d.actions),
                 [GeneratorConfig(constraints=("fixed:30.0",), noise_std=1e-4, **toy),
                  GeneratorConfig(constraints=("none",), **toy)]),
        "alpha": (lambda d: learn_alpha(d.actions, d.states),
                  [GeneratorConfig(constraints=("parabolic:0.1",), noise_std=0.01, **toy),
                   GeneratorConfig(constraints=("none",), **toy)]),
        "lambda": (lambda d: learn_lambda(d.actions, d.states, twolink_jacobian_features()),
                   [GeneratorConfig(constraints=("jrows:1",), noise_std=0.01,
                                    **arm),
                    GeneratorConfig(constraints=("none",), **arm)]),
    }


@pytest.mark.parametrize("learner", ["nhat", "alpha", "lambda"])
@settings(max_examples=8, deadline=None)
@given(log_scale=st.floats(-3.0, 3.0))
def test_scaling_the_actions_changes_no_row_decision(learner, log_scale):
    learn, configs = _scale_cases()[learner]
    for config in configs:
        data = generate(config)
        scaled = dataclasses.replace(data, actions=data.actions * 10.0 ** log_scale)
        decisions = [(model.dim_b, rep.notes) for model, rep in (learn(data), learn(scaled))]
        assert decisions[0] == decisions[1], config.constraints


def test_nhat_rejections():
    with pytest.raises(ValueError):
        learn_nhat(np.zeros((2, 100)))  # unidentifiable
    with pytest.raises(ValueError):
        learn_nhat(np.ones((3, 2)))  # too few samples


def test_every_constraint_learner_rejects_all_zero_observations():
    # alpha and lambda once reported a row found, with no note, in data
    # that holds no information
    xs = np.random.default_rng(26).uniform(0.2, 1.2, (2, 50))
    for learn in (lambda u: learn_nhat(u), lambda u: learn_alpha(u, xs, num_basis=4),
                  lambda u: learn_lambda(u, xs, twolink_jacobian_features())):
        with pytest.raises(ValueError, match="all-zero observations"):
            learn(np.zeros((2, 50)))


def test_nhat_consistency_bound():
    # projector-consistency error on training data never exceeds the
    # reported normalized objective
    cfg = GeneratorConfig(constraints=("fixed:72.0",), n_per_group=300,
                          rng_seed=5)
    data = generate(cfg)
    con, rep = learn_nhat(data.actions)
    u = data.actions
    n_hat = con.projector()
    lhs = ((n_hat @ u - u) ** 2).sum() / (u ** 2).sum()
    assert lhs <= rep.final_objective / (u ** 2).sum() + 1e-9


def test_nhat_rows_canonical_sign_and_orthonormal():
    rng = np.random.default_rng(6)
    pi = rng.normal(size=(4, 500))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a_true = q.T[:2]
    n_true = nullspace_projector(a_true)
    con, _ = learn_nhat(n_true @ pi)
    rows = con.rows
    assert np.max(np.abs(rows @ rows.T - np.eye(con.dim_b))) < 1e-9
    for row in rows:
        first = row[np.abs(row) > 1e-9][0]
        assert first > 0


def test_nhat_under_noise():
    cfg = GeneratorConfig(constraints=("fixed:30.0",), n_per_group=800,
                          rng_seed=55, noise_std=0.01)
    data = generate(cfg)
    con, rep = learn_nhat(data.actions)
    assert "no-constraint-found" not in rep.notes
    row = con.rows[0]
    learned = np.arctan2(row[1], row[0]) % np.pi
    assert np.rad2deg(_angle_dist(learned, np.deg2rad(30.0))) < 1.0


def test_nhat_objective_trace_sums_to_final_objective():
    # each entry is the energy one accepted row captures inside the
    # complement of the earlier rows, so the entries add up to the total
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a_true = q.T[:2]
    u = nullspace_projector(a_true) @ rng.normal(size=(4, 600))
    u += rng.normal(0.0, 0.01, u.shape)
    con, rep = learn_nhat(u)
    assert con.dim_b == 2 and len(rep.objective_trace) == 2
    assert sum(rep.objective_trace) == pytest.approx(rep.final_objective, rel=1e-12)


@st.composite
def _constant_constraints(draw):
    dim_u = draw(st.integers(2, 6))
    dim_b = draw(st.integers(1, dim_u - 1))
    n = draw(st.integers(3 * dim_u, 12 * dim_u))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(dim_u, dim_u)))
    return q.T[:dim_b], rng.normal(size=(dim_u, n))


@settings(max_examples=60, deadline=None)
@given(_constant_constraints())
def test_nhat_recovers_random_constant_constraints(case):
    a_true, pi = case
    n_true = nullspace_projector(a_true)
    con, rep = learn_nhat(n_true @ pi)
    assert con.dim_b == a_true.shape[0] and rep.notes == ()
    assert np.max(np.abs(con.projector() - n_true)) < 1e-6
    rows = con.rows
    assert np.max(np.abs(rows @ rows.T - np.eye(con.dim_b))) < 1e-9
    for row in rows:
        assert row[np.abs(row) > 1e-9][0] > 0


@st.composite
def _noisy_constant_constraints(draw):
    dim_u = draw(st.integers(2, 5))
    dim_b = draw(st.integers(1, dim_u - 1))
    n = draw(st.integers(20 * dim_u, 60 * dim_u))
    noise = draw(st.floats(0.0, 0.02))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(dim_u, dim_u)))
    u = nullspace_projector(q.T[:dim_b]) @ rng.normal(size=(dim_u, n))
    return dim_b, u + rng.normal(0.0, noise, u.shape)


@settings(max_examples=40, deadline=None)
@given(_noisy_constant_constraints())
def test_nhat_rows_span_the_smallest_eigenvectors_of_the_second_moment(case):
    # the greedy optimum in closed form: row s captures the s-th smallest
    # eigenvalue of u u^T
    dim_b, u = case
    con, rep = learn_nhat(u)
    assert con.dim_b == dim_b and rep.notes == ()
    lam, vec = np.linalg.eigh(u @ u.T)
    rows = con.rows
    assert np.max(np.abs(rows.T @ rows - vec[:, :dim_b] @ vec[:, :dim_b].T)) < 1e-12
    # each entry is the energy its row captures, which is its eigenvalue
    # up to rounding
    trace, total = np.array(rep.objective_trace), (u ** 2).sum()
    assert np.max(np.abs(trace - ((rows @ u) ** 2).sum(axis=1))) <= 1e-14 * total
    assert np.max(np.abs(trace - lam[:dim_b])) <= 1e-12 * lam[-1]


@st.composite
def _psd_matrices(draw):
    # eigenvalues from a small pool, so that repeated and zero ones come up
    dim = draw(st.integers(2, 6))
    lam = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-3, 1.0, 2.5, 1e3]),
                        min_size=dim, max_size=dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return (q * lam) @ q.T


@settings(max_examples=200, deadline=None)
@given(_psd_matrices())
def test_eigen_seed_reaches_the_smallest_eigenvalue(m_rot):
    theta = ccl.constraint._eigen_seed(m_rot)
    assert theta.shape == (m_rot.shape[0] - 1,)
    assert np.all((0.0 <= theta) & (theta <= np.pi))
    a = unit_vectors_from_angles(theta[:, None])[:, 0]
    lam = np.linalg.eigvalsh(m_rot)
    assert abs(a @ m_rot @ a - lam[0]) <= 1e-12 * lam[-1]


def test_alpha_under_noise():
    cfg = GeneratorConfig(constraints=("parabolic:0.1",), n_per_group=800,
                          rng_seed=56, noise_std=0.01)
    data = generate(cfg)
    model, _ = learn_alpha(data.actions, data.states,
                           LearnOptions(rng_seed=0, max_iter=300))
    held = generate(GeneratorConfig(constraints=("parabolic:0.1",),
                                    n_per_group=300, rng_seed=57))
    poe = error_poe(held.actions, model.projector_stack(held.states))
    assert poe.normalized < 0.01  # evaluated on clean held-out data


@st.composite
def _constraint_row_counts(draw):
    # no constraint to dim_u - 1 rows, under isotropic noise of four sizes
    dim_u = draw(st.integers(2, 6))
    dim_b = draw(st.integers(0, dim_u - 1))
    noise = draw(st.sampled_from([0.0, 1e-3, 1e-2, 0.1]))
    n = draw(st.integers(3 * dim_u, 60 * dim_u))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(dim_u, dim_u)))
    u = q[:, dim_b:] @ q[:, dim_b:].T @ rng.normal(size=(dim_u, n))
    return u + rng.normal(0.0, noise, u.shape)


@settings(max_examples=100, deadline=None)
@given(_constraint_row_counts())
def test_nhat_matches_the_greedy_row_loop(u):
    # the row loop of alpha on one constant basis function, with the
    # pseudo-samples vec sqrt(lam) of u u^T and one start per row, its
    # eigen seed (which an unregularized ridge fit on that basis function
    # maps to itself), refined by damped least squares
    lam, vec = np.linalg.eigh(u @ u.T)
    _, _, rows, fit = ccl.constraint._learn_rows(
        np.ones((1, len(u))), vec * np.sqrt(np.maximum(lam, 0.0)), None,
        LearnOptions(num_restarts=1, regularization=0.0))
    con, rep = learn_nhat(u)
    assert (con.dim_b, rep.notes) == (rows.shape[1], fit["notes"])
    assert {start["start"] for start in fit["starts"]} == {0}
    assert np.max(np.abs(con.projector() - nullspace_projector(rows[0]))) < 1e-10


def test_nhat_runs_no_solver(monkeypatch):
    def refuse(problem):
        raise AssertionError("lm_solve called")

    monkeypatch.setattr(ccl.constraint, "lm_solve", refuse)
    assert list(inspect.signature(learn_nhat).parameters) == ["w_obs"]
    data = generate(GeneratorConfig(constraints=("fixed:30.0",), n_per_group=300,
                                    rng_seed=3, noise_std=0.01))
    con, rep = learn_nhat(data.actions)
    assert con.dim_b == 1 and rep.notes == ()
    assert (rep.converged, rep.reason, rep.iterations, rep.starts) == (True, "closed-form", 0, ())
    assert rep.objective_trace == pytest.approx((rep.final_objective,), rel=1e-12)


def test_nhat_learners_see_only_observations():
    params = inspect.signature(learn_nhat).parameters
    assert "policy" not in params and "pi" not in params


# ---------------------------------------------------------------------------
# constraint containers
# ---------------------------------------------------------------------------

def test_state_independent_rows_validation():
    con = StateIndependentConstraint(rows=np.eye(3)[:2])
    assert (con.dim_b, con.dim_u) == (2, 3) and not con.rows.flags.writeable
    for rows in (np.eye(3), np.zeros((0, 3)), np.ones(3), [[1.0, 0.0], [0.0]],
                 [[1.0, 0.0, 1e-4]], [[1.0, 0.0, 0.0], [1e-8, 1.0, 0.0]]):
        with pytest.raises(ValueError):
            StateIndependentConstraint(rows=rows)
    with pytest.raises(ValueError, match="finite"):
        StateIndependentConstraint(rows=[[np.nan, 1.0]])
    with pytest.raises(TypeError):
        StateIndependentConstraint(rows=[["1.0", "0.0"]])
    # orthonormal to within 1e-9
    StateIndependentConstraint(rows=[[1.0, 0.0, 1e-5], [0.0, 1.0, 0.0]])
    # a selection over a feature matrix may keep every feature row
    lam = StateIndependentConstraint(rows=np.eye(3), features=identity_features(3))
    assert (lam.kind, lam.dim_b, lam.dim_u) == ("lambda", 3, 3)
    for rows in (np.eye(3)[:2, :2], np.eye(4)[:3]):
        with pytest.raises(ValueError, match="dim_phi = 3 for feature provider 'identity:3'"):
            StateIndependentConstraint(rows=rows, features=identity_features(3))
    with pytest.raises(ValueError, match=r"rows must have 2 non-empty axes, got shape \(0, 3\)"):
        StateIndependentConstraint(rows=np.zeros((0, 3)), features=identity_features(3))
    # a registered provider may be given by its name
    named = StateIndependentConstraint(rows=np.eye(3), features="identity:3")
    assert named.features.name == "identity:3" and named.kind == "lambda"
    with pytest.raises(ValueError, match="one projector per state"):
        lam.projector()


# ---------------------------------------------------------------------------
# learn_alpha
# ---------------------------------------------------------------------------

def test_alpha_parabolic_held_out_poe():
    cfg = GeneratorConfig(constraints=("parabolic:0.1",), n_per_group=1000,
                          rng_seed=8)
    data = generate(cfg)
    model, rep = learn_alpha(data.actions, data.states,
                             LearnOptions(rng_seed=0, max_iter=400))
    held = generate(GeneratorConfig(constraints=("parabolic:0.1",),
                                    n_per_group=300, rng_seed=80))
    poe = error_poe(held.actions, model.projector_stack(held.states))
    assert poe.normalized < 0.01
    assert model.dim_b == 1 and model.kind == "alpha"


def test_alpha_matches_nhat_on_constant_constraint():
    cfg = GeneratorConfig(constraints=("fixed:40.0",), n_per_group=600,
                          rng_seed=9)
    data = generate(cfg)
    opts = LearnOptions(rng_seed=1, max_iter=400)
    alpha_model, _ = learn_alpha(data.actions, data.states, opts)
    nhat_model, _ = learn_nhat(data.actions)
    n_fixed = nhat_model.projector()
    stack = alpha_model.projector_stack(data.states[:, :100])
    worst = max(np.linalg.norm(stack[i] - n_fixed) for i in range(100))
    assert worst < 1e-2


def test_state_dependent_and_nhat_reports_say_why_they_stopped():
    data = generate(GeneratorConfig(constraints=("parabolic:0.1",), n_per_group=200,
                                    rng_seed=8))
    _, rep = learn_alpha(data.actions, data.states, LearnOptions(max_iter=2), num_basis=6)
    assert not rep.converged and rep.reason == "max-iter"
    fixed = generate(GeneratorConfig(constraints=("fixed:37.0",), n_per_group=200,
                                     rng_seed=8))
    # the rows of nhat are eigenvectors: no solve, no iteration
    _, rep = learn_nhat(fixed.actions)
    assert rep.converged and rep.reason == "closed-form"
    assert rep.iterations == 0 and rep.starts == () and rep.notes == ()
    # no row accepted: the report is that of the best-effort first row
    free = generate(GeneratorConfig(constraints=("none",), n_per_group=200, rng_seed=8))
    _, rep = learn_alpha(free.actions, free.states, LearnOptions(max_iter=1, num_restarts=1),
                         num_basis=6)
    assert rep.notes == ("no-constraint-found",)
    assert not rep.converged and rep.reason == "max-iter"
    _, rep = learn_nhat(free.actions)
    assert rep.notes == ("no-constraint-found",) and rep.reason == "closed-form"
    _, rep = learn_alpha(data.actions, data.states, LearnOptions(max_iter=400), num_basis=6)
    assert rep.converged and rep.reason == "fun-tol"


def test_abandoned_restarts_keep_the_final_objective(monkeypatch):
    def fit(data, seed):
        return learn_alpha(data.actions, data.states, LearnOptions(rng_seed=seed))[1]

    abandoned = 0
    for seed in range(6):
        data = generate(GeneratorConfig(constraints=("parabolic:0.1",), n_per_group=400,
                                        rng_seed=seed))
        raced = fit(data, seed)
        with monkeypatch.context() as m:
            m.setattr(ccl.constraint, "RESTART_GAP", np.inf)
            full = fit(data, seed)
        assert [r["start"] for r in raced.starts] == [r["start"] for r in full.starts]
        assert raced.objective_trace == pytest.approx(full.objective_trace, rel=1e-9)
        assert raced.final_objective == pytest.approx(full.final_objective, rel=1e-9)
        assert raced.iterations <= full.iterations
        assert "abandoned" not in [r["reason"] for r in full.starts]
        abandoned += sum(r["reason"] == "abandoned" for r in raced.starts)
    assert abandoned > 0


def test_alpha_rejects_degenerate_states():
    rng = np.random.default_rng(10)
    u = rng.normal(size=(2, 50))
    xs = np.zeros((2, 50))
    with pytest.raises(ValueError, match="degenerate"):
        learn_alpha(u, xs, num_basis=4)


def test_alpha_orthonormal_rows_at_random_states():
    cfg = GeneratorConfig(constraints=("parabolic:0.15",), n_per_group=400,
                          rng_seed=11)
    data = generate(cfg)
    model, _ = learn_alpha(data.actions, data.states,
                           LearnOptions(rng_seed=0, max_iter=200))
    xs = np.random.default_rng(12).uniform(-1, 1, (2, 100))
    rows = model.constraint_stack(xs)  # alpha rows are the selection rows
    assert np.max(np.abs(rows @ rows.swapaxes(1, 2) - np.eye(model.dim_b))) < 1e-8


def test_alpha_respects_requested_dim_b():
    rng = np.random.default_rng(13)
    pi = rng.normal(size=(3, 300))
    xs = rng.uniform(-1, 1, (3, 300))
    n_true = np.diag([1.0, 1.0, 0.0])
    model, _ = learn_alpha(n_true @ pi, xs, LearnOptions(rng_seed=0, max_iter=150),
                           num_basis=8, dim_b=2)
    assert model.dim_b == 2
    for dim_b in (0, -1):
        with pytest.raises(ValueError, match="dim_b"):
            learn_alpha(n_true @ pi, xs, num_basis=8, dim_b=dim_b)


@pytest.mark.parametrize("dim_u", [2, 3])
def test_alpha_refuses_rows_that_leave_no_null_space(monkeypatch, dim_u):
    # dim_b = dim_u once learned a last row with no angles: a full-rank
    # constraint whose projector is zero, reported as converged
    def refuse(*args, **kwargs):
        raise AssertionError("K-means called")

    monkeypatch.setattr(ccl.constraint, "rbf_basis", refuse)
    rng = np.random.default_rng(dim_u)
    u, xs = rng.normal(size=(dim_u, 100)), rng.uniform(-1, 1, (2, 100))
    with pytest.raises(ValueError, match=r"leave no null space \(1 <= dim_b < dim_u\)"):
        learn_alpha(u, xs, num_basis=4, dim_b=dim_u)
    # a last row with no angles has an empty weight matrix, which is refused
    omegas = tuple(np.zeros((dim_u - 1 - s, 3)) for s in range(dim_u))
    with pytest.raises(ValueError, match=r"omegas must have 2 non-empty axes, got shape \(0, 3\)"):
        StateDependentConstraintModel(omegas=omegas, signs=(1.0,) * dim_u,
                                      centers=np.zeros((2, 3)), width=1.0)
    omegas = omegas[:-1] + (np.zeros((1, 3)),)
    with pytest.raises(ValueError, match="1 <= dim_b < dim_u rows, got"):
        StateDependentConstraintModel(omegas=omegas, signs=(1.0,) * dim_u,
                                      centers=np.zeros((2, 3)), width=1.0)


# ---------------------------------------------------------------------------
# learn_lambda
# ---------------------------------------------------------------------------

def test_lambda_twolink_jacobian_row_selection():
    cfg = GeneratorConfig(system="twolink", policy="linear-attractor",
                          attractor_target=(0.8, 0.9),
                          constraints=("jrows:1",),
                          n_per_group=600, rng_seed=14)
    data = generate(cfg)
    model, rep = learn_lambda(data.actions, data.states, twolink_jacobian_features(1.0, 1.0))
    held = generate(GeneratorConfig(system="twolink", policy="linear-attractor",
                                    attractor_target=(0.8, 0.9),
                                    constraints=("jrows:1",),
                                    n_per_group=300, rng_seed=140))
    poe = error_poe(held.actions, model.projector_stack(held.states))
    assert poe.normalized < 0.01
    assert model.kind == "lambda"
    assert (rep.converged, rep.reason, rep.iterations, rep.starts) == (True, "closed-form", 0, ())


def test_lambda_identity_features_reduce_to_nhat():
    cfg = GeneratorConfig(constraints=("fixed:30.0",), n_per_group=400,
                          rng_seed=15)
    data = generate(cfg)
    nhat_model, _ = learn_nhat(data.actions)
    lambda_model, _ = learn_lambda(data.actions, data.states, identity_features(2))
    pa = nhat_model.projector_stack(data.states[:, :80])
    pl = lambda_model.projector_stack(data.states[:, :80])
    assert np.max(np.abs(pa - pl)) < 1e-12


def test_lambda_notes_a_selection_that_varies_with_the_state():
    # the stated limit: a constant selection cannot follow the parabolic
    # row, and says so
    data = generate(GeneratorConfig(constraints=("parabolic:0.1",), n_per_group=400,
                                    rng_seed=15))
    model, rep = learn_lambda(data.actions, data.states, identity_features(2))
    assert rep.notes == ("no-constraint-found",) and model.dim_b == 1


def test_lambda_runs_no_solver_and_no_kmeans(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solver or K-means called")

    monkeypatch.setattr(ccl.constraint, "lm_solve", refuse)
    monkeypatch.setattr(ccl.constraint, "rbf_basis", refuse)
    assert list(inspect.signature(learn_lambda).parameters) == ["w_obs", "xs", "phi", "dim_b"]
    data = generate(GeneratorConfig(system="twolink", policy="linear-attractor",
                                    constraints=("jrows:0",), n_per_group=300,
                                    rng_seed=3, noise_std=0.01))
    model, rep = learn_lambda(data.actions, data.states, twolink_jacobian_features())
    assert model.dim_b == 1 and rep.notes == ()
    assert (rep.converged, rep.reason, rep.iterations, rep.starts) == (True, "closed-form", 0, ())
    # the row energy inside Phi_hat's image, not the projection energy of
    # the constraint rows @ Phi_hat, whose rows are not orthonormal
    phi_hat = ccl.constraint._normalized_rows(twolink_jacobian_features().stack(data.states))
    target = (phi_hat @ data.actions.T[:, :, None])[:, :, 0].T
    assert rep.objective_trace == pytest.approx(((model.rows @ target) ** 2).sum(axis=1),
                                                rel=1e-12)
    assert rep.final_objective == _exact_projection_energy(model.rows @ phi_hat, data.actions)


@pytest.mark.parametrize("constraint,rows", [((0,), [[1.0, 0.0]]), ((1,), [[0.0, 1.0]])])
def test_lambda_selects_the_constrained_jacobian_row(constraint, rows):
    data = generate(GeneratorConfig(system="twolink", policy="limit-cycle",
                                    constraints=(f"jrows:{constraint[0]}",),
                                    n_per_group=300, rng_seed=4))
    model, rep = learn_lambda(data.actions, data.states, twolink_jacobian_features())
    assert rep.notes == () and np.allclose(model.rows, rows, atol=1e-9)


def test_lambda_full_selection_recovers_feature_projector():
    # dim_b = dim_phi: the selection is square orthogonal and the learned
    # null space collapses to I - pinv(Phi) Phi
    arm = TwoLinkArm(1.0, 1.0)
    rng = np.random.default_rng(16)
    xs = rng.uniform(0.2, np.pi / 2 - 0.2, (2, 150))
    u = np.zeros((2, 150))  # motion fully constrained
    model, _ = learn_lambda(u + rng.normal(0, 1e-9, u.shape), xs,
                            twolink_jacobian_features(1.0, 1.0), dim_b=2)
    assert model.dim_b == 2
    assert np.max(np.abs(model.rows @ model.rows.T - np.eye(2))) < 1e-8
    phi = arm.jacobian(xs[:, :10])
    expected = np.eye(2) - pinv_truncated(phi) @ phi
    assert np.max(np.abs(model.projector_stack(xs[:, :10]) - expected)) < 1e-6


def test_lambda_rejects_rank_zero_feature_sample():
    provider = twolink_jacobian_features(1.0, 1.0)
    xs = np.zeros((2, 40))
    xs[:, 1:] = np.random.default_rng(17).uniform(0.2, 1.0, (2, 39))
    # q = (0, 0) gives a Jacobian with a zero first row but nonzero second;
    # force a fully zero matrix via a degenerate provider instead
    dead = FeatureMatrixProvider(name="identity:2", dim_phi=2, dim_u=2,
                                 fn=lambda xs: np.zeros((xs.shape[1], 2, 2)))
    u = np.random.default_rng(18).normal(size=(2, 40))
    with pytest.raises(ValueError, match="sample 0"):
        learn_lambda(u, xs, dead)


def test_lambda_rejects_a_provider_of_another_size():
    # it once failed inside a matmul, naming no argument
    xs = np.random.default_rng(19).uniform(-1.0, 1.0, (2, 40))
    u = np.random.default_rng(20).normal(size=(2, 40))
    with pytest.raises(ValueError, match="provider 'identity:3' has dim_u 3, but the "
                                         "observations have dim_u 2"):
        learn_lambda(u, xs, identity_features(3))


@pytest.mark.parametrize("dim_b", [3, 0])
def test_state_dependent_row_count_must_fit_the_selection_dimension(dim_b):
    # a dim_b above it was silently clamped to it
    data = generate(GeneratorConfig(constraints=("parabolic:0.1",), n_per_group=60,
                                    rng_seed=21))
    message = f"^dim_b must be {'<= 2' if dim_b == 3 else '>= 1'}, got {dim_b}$"
    with pytest.raises(ValueError, match=message):
        learn_alpha(data.actions, data.states, num_basis=4, dim_b=dim_b)
    with pytest.raises(ValueError, match=message):
        learn_lambda(data.actions, data.states, identity_features(2), dim_b=dim_b)


def test_lambda_learns_with_an_unregistered_provider():
    # the model keeps the provider it was learned with: only a saved
    # document needs a registered name
    data = generate(GeneratorConfig(constraints=("parabolic:0.1",), n_per_group=200,
                                    rng_seed=24))
    mine = FeatureMatrixProvider(name="mine", dim_phi=2, dim_u=2,
                                 fn=lambda xs: np.broadcast_to([[2.0, 1.0], [0.0, 1.0]],
                                                               (xs.shape[1], 2, 2)))
    model, _ = learn_lambda(data.actions, data.states, mine)
    assert model.features is mine
    assert model.projector_stack(data.states).shape == (200, 2, 2)
    rows, _ = model.metrics(data)
    assert [name for name, _ in rows] == ["NPOE", "NPPE"]
    assert rows[0][1].normalized < 0.05


def test_lambda_objective_is_scored_in_the_rows_of_its_own_provider(tmp_path):
    # a provider that takes a registered name but swaps the action axes is
    # fitted and scored through its own matrix, not the registered one
    data = generate(GeneratorConfig(constraints=("fixed:30.0",), n_per_group=200,
                                    rng_seed=25))
    swap = FeatureMatrixProvider(name="identity:2", dim_phi=2, dim_u=2,
                                 fn=lambda xs: np.broadcast_to([[0.0, 1.0], [1.0, 0.0]],
                                                               (xs.shape[1], 2, 2)))
    model, rep = learn_lambda(data.actions, data.states, swap)
    stack = model.rows[None] @ swap.stack(data.states)
    assert np.array_equal(stack, np.broadcast_to(model.rows[:, ::-1], stack.shape))
    assert rep.final_objective == _exact_projection_energy(stack, data.actions)
    assert rep.final_objective < 1e-3 * rep.variance * data.n_samples
    # and is not saved: load_model would rebuild the registered provider,
    # whose projectors are those of the swapped axes
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="feature provider 'identity:2' is not the registered "
                                         "provider of that name"):
        save_model(model, path)
    assert not path.exists()


@pytest.mark.parametrize("name", ["identity:3", "twolink-jacobian:1.0,0.5"])
def test_registered_providers_equal_the_ones_their_names_rebuild(name, monkeypatch):
    provider = feature_provider_from_name(name)
    assert provider == feature_provider_from_name(name)
    assert provider != dataclasses.replace(provider, fn=lambda xs: provider.fn(xs))
    # the two-link provider looks the Jacobian up at each call, so a wrapper
    # installed on the class after it was built (as a tracer does) is called
    calls = []
    original = TwoLinkArm.jacobian
    monkeypatch.setattr(TwoLinkArm, "jacobian", lambda arm, q: calls.append(q) or original(arm, q))
    assert provider.stack(np.zeros((2, 3))).shape == (3, provider.dim_phi, provider.dim_u)
    assert len(calls) == name.startswith("twolink")


# ---------------------------------------------------------------------------
# row objective
# ---------------------------------------------------------------------------

def test_objective_avn_zero_weights_hand_evaluated():
    rng = np.random.default_rng(19)
    u = np.vstack([rng.normal(size=30), rng.normal(size=30)])
    bx = rng.uniform(0.1, 1.0, (5, 30))
    problem = _row_problem(bx, u, np.zeros(5))
    r = problem.residual(problem.p0)
    # zero angles give the row (1, 0): the captured energy is sum u_1^2
    assert r @ r == pytest.approx((u[0] ** 2).sum())


def test_objective_avn_zero_at_generating_weights():
    rng = np.random.default_rng(20)
    xs = rng.uniform(-1, 1, (2, 200))
    centers = rng.uniform(-1, 1, (2, 6))
    bx = rbf_design(xs, centers, 0.8)
    omega_true = rng.normal(0, 0.3, (1, 6))
    rows = unit_vectors_from_angles(omega_true @ bx)
    # observations exactly orthogonal to the true row at every state
    u = np.vstack([-rows[1], rows[0]]) * rng.normal(size=200)
    residual = _row_problem(bx, u, omega_true.ravel()).residual
    r = residual(omega_true.ravel())
    assert r @ r < 1e-10


def test_objective_avn_consistent_with_lm_residuals():
    rng = np.random.default_rng(21)
    bx = rng.uniform(0.1, 1.0, (4, 50))
    u = rng.normal(size=(2, 50))
    residual, jacobian = _row_problem(bx, u, np.zeros(4)).residual, row_jacobian(bx, u)
    for _ in range(10):
        w = rng.normal(0, 0.5, 4)
        r = residual(w)
        assert check_jacobian(residual, jacobian, w) < 1e-5
        # gradient of the scalar energy vs the solver's residual Jacobian
        grad_from_jac = 2.0 * jacobian(w).T @ r
        fd = finite_difference_jacobian(lambda q: np.array([residual(q) @ residual(q)]), w)
        scale = max(1.0, np.abs(grad_from_jac).max())
        assert np.max(np.abs(grad_from_jac - fd.ravel())) / scale < 1e-5


def _row_cases(case):
    """(bx, u_rot, weight vectors) on which to compare a row's normal equations."""
    if case == "learned-basis":
        data = generate(GeneratorConfig(constraints=("parabolic:0.1",), n_per_group=300,
                                        rng_seed=5))
        bx = rbf_design(data.states, *rbf_basis(data.states, 16, seed=0))
        return bx, data.actions, [np.zeros(16), np.random.default_rng(5).normal(size=16)]
    dim = int(case[-1])
    rng = np.random.default_rng(40 + dim)
    bx = rng.uniform(0.05, 1.0, (6, 90))
    return bx, rng.normal(size=(dim, 90)), [rng.normal(size=6 * (dim - 1)) for _ in range(4)]


@pytest.mark.parametrize("case", ["random-dim-2", "random-dim-3", "random-dim-4",
                                  "learned-basis"])
def test_row_normal_equations_match_the_assembled_jacobian(case):
    # J'J and J'r from jw = g (.) beta equal the products of the assembled
    # Jacobian bit for bit, so the solver takes the steps it took when it
    # multiplied that Jacobian out; the problem carries no Jacobian
    bx, u_rot, wvecs = _row_cases(case)
    problem, oracle = _row_problem(bx, u_rot, wvecs[0]), row_jacobian(bx, u_rot)
    assert problem.jacobian is None
    for wvec in wvecs:
        assert check_jacobian(problem.residual, oracle, wvec) < 1e-5
        r, jac = problem.residual(wvec), oracle(wvec)
        h, grad = problem.normal_equations(wvec, r)
        assert np.array_equal(h, jac.T @ jac) and np.array_equal(grad, jac.T @ r)


def test_feature_provider_registry_roundtrip():
    p = twolink_jacobian_features(1.0, 0.5)
    q = feature_provider_from_name(p.name)
    xs = np.array([[0.3, -1.2], [0.7, 0.1]])
    assert np.array_equal(p.stack(xs), q.stack(xs))
    with pytest.raises(ValueError):
        feature_provider_from_name("warp-drive:9")


# ---------------------------------------------------------------------------
# batched geometry
# ---------------------------------------------------------------------------

def _projector_reference(model, x):
    """Per-state loop oracle: rows built one at a time in the complement
    of the earlier ones, then N = I - pinv(A) A."""
    bx = rbf_design(x[:, None], model.centers, model.width)[:, 0]
    rows = []
    for om, sg in zip(model.omegas, model.signs):
        frame = (np.eye(model.dim_u) if not rows
                 else orthogonal_complement_rotation(np.vstack(rows)))
        local = (np.ones(1) if om.shape[0] == 0
                 else unit_vectors_from_angles((om @ bx)[:, None])[:, 0])
        rows.append(sg * (local @ frame))
    a = np.vstack(rows)
    return np.eye(model.dim_u) - pinv_truncated(a) @ a


@st.composite
def _state_dependent_models(draw):
    dim_u = draw(st.integers(3, 6))
    dim_b = draw(st.integers(2, dim_u - 1))
    g = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    centers, width = rng.uniform(-1, 1, (2, g)), rng.uniform(0.2, 2.0)
    omegas = [rng.normal(0.0, 1.0, (dim_u - 1 - s, g)) for s in range(dim_b)]
    signs = rng.choice([-1.0, 1.0], dim_b)
    model = StateDependentConstraintModel(
        omegas=tuple(omegas), signs=tuple(signs), centers=centers, width=width)
    assert model.dim_u == dim_u
    return model, rng.uniform(0.1, 1.4, (2, draw(st.integers(1, 8))))


@settings(max_examples=80, deadline=None)
@given(_state_dependent_models())
def test_projector_stack_matches_loop_oracle(case):
    model, xs = case
    stack = model.projector_stack(xs)
    rows = model.constraint_stack(xs)
    assert stack.shape == (xs.shape[1], model.dim_u, model.dim_u)
    assert rows.shape == (xs.shape[1], model.dim_b, model.dim_u)
    # The fifth row of a six-dimensional selection takes its angle in the
    # SVD complement of four orthonormal rows, which LAPACK returns
    # discontinuously: a 1e-15 change of those rows can turn it by O(1), so
    # last-bit differences between the per-state and batched products show
    # up there.  Only the frame-free properties are checked in that case.
    comparable = (model.dim_u, model.dim_b) != (6, 5)
    for i in range(xs.shape[1]):
        p = stack[i]
        assert np.allclose(p, p.T, atol=1e-12) and np.allclose(p @ p, p, atol=1e-10)
        assert np.allclose(rows[i] @ p, 0.0, atol=1e-10)
        assert np.allclose(rows[i] @ rows[i].T, np.eye(model.dim_b), atol=1e-10)
        if comparable:
            assert np.allclose(p, _projector_reference(model, xs[:, i]), rtol=0, atol=1e-10)


@st.composite
def _selection_models(draw):
    provider = draw(st.sampled_from([identity_features(3), twolink_jacobian_features(1.0, 0.7)]))
    dim_b = draw(st.integers(1, provider.dim_phi))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(provider.dim_phi, provider.dim_phi)))
    xs = rng.uniform(0.1, 1.4, (2, draw(st.integers(1, 8))))
    return StateIndependentConstraint(rows=q.T[:dim_b], features=provider), xs


@settings(max_examples=60, deadline=None)
@given(_selection_models())
def test_selection_projector_stack_matches_loop_oracle(case):
    # A(x) = rows Phi_hat(x), with the rows of Phi normalized: that shows
    # in the projector wherever one row is selected from the twolink Jacobian
    model, xs = case
    stack = model.projector_stack(xs)
    assert stack.shape == (xs.shape[1], model.dim_u, model.dim_u)
    for i in range(xs.shape[1]):
        phi = model.features.stack(xs[:, i:i + 1])[0]
        a = model.rows @ (phi / np.linalg.norm(phi, axis=1, keepdims=True))
        expected = np.eye(model.dim_u) - pinv_truncated(a) @ a
        assert np.allclose(stack[i], expected, rtol=0, atol=1e-10)


def test_feature_provider_batches_and_checks_stack_shape():
    provider = twolink_jacobian_features(1.0, 0.5)
    xs = np.random.default_rng(22).uniform(-1, 1, (2, 6))
    stack = provider.stack(xs)
    assert stack.shape == (6, 2, 2)
    for i in range(6):
        assert np.array_equal(stack[i], TwoLinkArm(1.0, 0.5).jacobian(xs[:, i]))
    assert identity_features(3).stack(np.zeros((2, 4))).shape == (4, 3, 3)
    wrong = FeatureMatrixProvider(name="identity:2", dim_phi=2, dim_u=2,
                                  fn=lambda xs: np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        wrong.stack(xs)
    with pytest.raises(ValueError, match="shape"):
        learn_lambda(np.ones((2, 6)), xs, wrong)
