import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ccl.datagen import (
    GeneratorConfig,
    TwoLinkArm,
    configured_policy,
    generate,
    policy_limit_cycle,
    policy_linear,
    true_projectors,
)
from oracles import finite_difference_jacobian


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy", ["limit-cycle", "linear-attractor"])
def test_configured_policy_is_the_policy_channel_of_generate(policy):
    # the tutorials' field tables evaluate the true policy through it
    config = GeneratorConfig(policy=policy, constraints=(("fixed-angle", 30.0), ("none",)),
                             n_per_group=50, rng_seed=3, attractor_target=(0.2, -0.1))
    data = generate(config)
    assert np.array_equal(configured_policy(config, data.states), data.policy)
    expected = (policy_limit_cycle(data.states) if policy == "limit-cycle"
                else policy_linear(data.states, np.eye(2), [0.2, -0.1]))
    assert np.array_equal(data.policy, expected)


def test_limit_cycle_tangential_on_cycle():
    r0, w = 0.5, 1.3
    u = policy_limit_cycle([r0, 0.0], radius=r0, angular_rate=w)
    assert np.allclose(u, [0.0, w * r0], atol=1e-12)


def test_limit_cycle_fixed_point_at_origin():
    assert np.allclose(policy_limit_cycle([0.0, 0.0]), [0.0, 0.0])


def test_limit_cycle_radial_sign():
    rng = np.random.default_rng(0)
    r0 = 0.5
    for _ in range(50):
        x = rng.uniform(-1, 1, 2)
        if np.linalg.norm(x) < 1e-6:
            continue
        u = policy_limit_cycle(x, radius=r0)
        radial = float(u @ x)  # dot with outward direction
        inside = (x ** 2).sum() < r0 ** 2
        assert (radial > 0) == inside or abs(radial) < 1e-12


def test_linear_policy_examples():
    assert np.allclose(policy_linear([0.3, -0.2], np.eye(2), [0.3, -0.2]), 0.0)
    assert np.allclose(policy_linear([1.0, 2.0], np.eye(2), [0.0, 0.0]), [-1.0, -2.0])
    rng = np.random.default_rng(1)
    gain = rng.normal(size=(2, 2))
    target = rng.normal(size=2)
    x = rng.normal(size=2)
    assert np.allclose(policy_linear(x, gain, target), -gain @ (x - target), atol=1e-12)


# ---------------------------------------------------------------------------
# two-link arm
# ---------------------------------------------------------------------------

def test_twolink_jacobian_at_zero_hand_derived():
    assert np.allclose(TwoLinkArm(1.0, 1.0).jacobian([0.0, 0.0]), [[0.0, 0.0], [2.0, 1.0]],
                       atol=1e-12)


def test_twolink_jacobian_matches_finite_differences():
    arm = TwoLinkArm(1.0, 0.7)
    rng = np.random.default_rng(2)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 2)
        fd = finite_difference_jacobian(arm.forward_kinematics, q)
        assert np.max(np.abs(arm.jacobian(q) - fd)) < 1e-6


@settings(max_examples=50, deadline=None)
@given(arrays(float, st.tuples(st.just(2), st.integers(1, 20)),
              elements=st.floats(-10.0, 10.0)),
       st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_twolink_jacobian_batch_equals_single_state(qs, l1, l2):
    arm = TwoLinkArm(l1, l2)
    stack = arm.jacobian(qs)
    assert stack.shape == (qs.shape[1], 2, 2)
    for i in range(qs.shape[1]):
        single = arm.jacobian(qs[:, i])
        assert single.shape == (2, 2)
        assert np.array_equal(stack[i], single)


def test_twolink_singular_when_links_aligned():
    rng = np.random.default_rng(3)
    for _ in range(10):
        q1 = rng.uniform(-np.pi, np.pi)
        assert abs(np.linalg.det(TwoLinkArm(1.0, 1.0).jacobian([q1, 0.0]))) < 1e-12


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_fixed_angle_data_in_null_space():
    cfg = GeneratorConfig(constraints=(("fixed-angle", 30.0),), n_per_group=200, rng_seed=4)
    data = generate(cfg)
    th = np.deg2rad(30.0)
    a = np.array([np.cos(th), np.sin(th)])
    assert np.max(np.abs(a @ data.actions)) < 1e-10


def test_parabolic_data_satisfies_state_dependent_constraint():
    cfg = GeneratorConfig(constraints=(("parabolic", 0.1),), n_per_group=200, rng_seed=5)
    data = generate(cfg)
    for n in range(data.n_samples):
        a = np.array([-2 * 0.1 * data.states[0, n], 1.0])
        assert abs(a @ data.actions[:, n]) < 1e-10


def test_three_group_pooled_self_consistency():
    cfg = GeneratorConfig(constraints=(("fixed-angle", 0.0), ("fixed-angle", 60.0),
                                       ("fixed-angle", 120.0)),
                          n_per_group=100, rng_seed=6)
    data = generate(cfg)
    projectors = true_projectors(cfg, data)
    assert projectors.shape == (data.n_samples, 2, 2)
    proj = np.einsum("nij,jn->in", projectors, data.actions)
    assert np.max(np.abs(proj - data.actions)) < 1e-10  # per-group POE of truth is 0


def test_decomposition_identity_and_orthogonality():
    cfg = GeneratorConfig(constraints=(("fixed-angle", 45.0),),
                          task_b=("sinusoid", 0.4, 2.0, 0.1),
                          n_per_group=300, rng_seed=7, noise_std=0.05)
    data = generate(cfg)
    clean = data.task_component + data.null_component
    noise = data.actions - clean
    assert np.std(noise) > 0.01  # noise actually applied
    assert np.max(np.abs((data.task_component * data.null_component).sum(axis=0))) < 1e-9
    # ground truth reconstructs the clean action exactly
    assert np.max(np.abs(clean - (data.task_component + data.null_component))) == 0.0


def test_constraint_satisfied_with_task_motion():
    cfg = GeneratorConfig(constraints=(("fixed-angle", 30.0),),
                          task_b=("sinusoid", 0.5, 3.0, 0.0),
                          n_per_group=200, rng_seed=8)
    data = generate(cfg)
    th = np.deg2rad(30.0)
    a = np.array([np.cos(th), np.sin(th)])
    clean = data.task_component + data.null_component
    # A u = b with b = A (drive * ones); v carries it, w is annihilated
    b_from_v = a @ data.task_component
    assert np.max(np.abs(a @ clean - b_from_v)) < 1e-10


def test_constant_task_vector():
    cfg = GeneratorConfig(constraints=(("fixed-angle", 10.0),),
                          task_b=("constant", (0.3,)), n_per_group=50, rng_seed=9)
    data = generate(cfg)
    th = np.deg2rad(10.0)
    a = np.array([np.cos(th), np.sin(th)])
    assert np.allclose(a @ (data.task_component + data.null_component), 0.3, atol=1e-10)


def test_generation_deterministic():
    cfg = GeneratorConfig(constraints=(("parabolic", 0.2),), n_per_group=100,
                          rng_seed=10, noise_std=0.01)
    a = generate(cfg)
    b = generate(cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)


def test_twolink_generation_constrained_by_jacobian_row():
    cfg = GeneratorConfig(system="twolink", policy="linear-attractor",
                          attractor_target=(0.7, 0.8),
                          constraints=(("jacobian-rows", (1,)),),
                          n_per_group=100, rng_seed=11)
    data = generate(cfg)
    arm = TwoLinkArm(1.0, 1.0)
    for n in range(data.n_samples):
        j = arm.jacobian(data.states[:, n])
        assert abs(j[1] @ data.actions[:, n]) < 1e-10  # end-effector y is held


def test_no_constraint_group_passes_policy_through():
    cfg = GeneratorConfig(constraints=(("none",),), n_per_group=50, rng_seed=12)
    data = generate(cfg)
    assert np.array_equal(data.actions, data.policy)


@pytest.mark.parametrize("task_b", [("constant", (1.0,)), ("sinusoid", 0.5, 3.0, 0.0)])
def test_task_drive_without_any_constrained_group_rejected(task_b):
    with pytest.raises(ValueError, match=f"task_b '{task_b[0]}' drives nothing"):
        GeneratorConfig(constraints=(("none",), ("none",)), task_b=task_b)
    # one constrained group gives the drive something to act through
    GeneratorConfig(constraints=(("none",), ("fixed-angle", 30.0)), task_b=task_b)


@pytest.mark.parametrize("noise", [float("nan"), float("inf")])
def test_non_finite_noise_rejected(noise):
    with pytest.raises(ValueError, match="noise_std must be finite"):
        GeneratorConfig(noise_std=noise)


@pytest.mark.parametrize("system,constraints,values", [
    ("toy2d", (("fixed-angle", 30.0),), (1.0, 2.0)),
    ("toy2d", (("none",), ("parabolic", 0.1)), (1.0, 2.0)),
    ("twolink", (("jacobian-rows", (1,)),), (1.0, 2.0, 3.0)),
])
def test_constant_task_vector_must_match_the_constraint_rows(system, constraints, values):
    with pytest.raises(ValueError, match=rf"has {len(values)} values, but group \d's constraint "
                                         r"has 1 row"):
        GeneratorConfig(system=system, constraints=constraints, task_b=("constant", values))


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        GeneratorConfig(system="hexapod")
    with pytest.raises(ValueError):
        GeneratorConfig(constraints=())
    with pytest.raises(ValueError):
        GeneratorConfig(noise_std=-0.1)
    with pytest.raises(ValueError):
        generate(GeneratorConfig(constraints=(("jacobian-rows", (0, 1)),),
                                 system="twolink", n_per_group=10))
