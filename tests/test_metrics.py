import numpy as np
import pytest

from ccl.mathkit import nullspace_projector
from ccl.metrics import MetricTriple, error_ncpe, error_npe, error_nupe, error_poe, error_ppe


def _zero_mean(rng, shape):
    """Random channel with exactly zero per-row mean (mirror construction),
    so the zero predictor normalizes to exactly 1."""
    half = rng.normal(size=(shape[0], shape[1] // 2))
    return np.hstack([half, -half])


def _loop_total_variance(channel):
    total = 0.0
    for row in channel:
        total += ((row - row.mean()) ** 2).mean()
    return total


# ---------------------------------------------------------------------------
# per-metric examples
# ---------------------------------------------------------------------------

def test_ppe_zero_for_true_projector():
    rng = np.random.default_rng(0)
    th = 0.6
    a = np.array([[np.cos(th), np.sin(th)]])
    n = nullspace_projector(a)
    pi = rng.normal(size=(2, 40))
    w = n @ pi
    triple = error_ppe(w, n, pi)
    assert triple.mse < 1e-28 and triple.normalized < 1e-28


def test_ppe_identity_projector_analytic_oracle():
    rng = np.random.default_rng(1)
    th = 1.1
    a = np.array([[np.cos(th), np.sin(th)]])
    n = nullspace_projector(a)
    pi = rng.normal(size=(2, 60))
    w = n @ pi
    triple = error_ppe(w, np.eye(2), pi)
    # projector = I leaves pi untouched: error is the removed component
    expected = ((pi - w) ** 2).sum(axis=0).mean()
    assert triple.mse == pytest.approx(expected, rel=1e-12)


def test_ppe_zero_predictor_baseline():
    rng = np.random.default_rng(2)
    w = _zero_mean(rng, (2, 50))
    pi = rng.normal(size=(2, 50))
    triple = error_ppe(w, np.zeros((2, 2)), pi)
    assert triple.mse == pytest.approx((w ** 2).sum(axis=0).mean())
    assert triple.normalized == pytest.approx(1.0)


def test_poe_pure_null_space_is_zero():
    rng = np.random.default_rng(3)
    a = np.array([[0.8, 0.6]])
    n = nullspace_projector(a)
    u = n @ rng.normal(size=(2, 30))
    assert error_poe(u, n).normalized < 1e-28


def test_poe_zero_projector_normalizes_to_energy_ratio():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(2, 40))
    triple = error_poe(u, np.zeros((2, 2)))
    mean_energy = (u ** 2).sum(axis=0).mean()
    assert triple.mse == pytest.approx(mean_energy)
    assert triple.normalized == pytest.approx(mean_energy / _loop_total_variance(u))


def test_poe_matches_loop_oracle_random_projector():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(3, 25))
    stack = rng.normal(size=(25, 3, 3))
    # an (N, d, d) stack, and one (d, d) matrix applied to every sample
    for p, per_sample in ((stack, stack), (stack[0], [stack[0]] * 25)):
        triple = error_poe(u, p)
        acc = 0.0
        for n in range(25):
            acc += ((per_sample[n] @ u[:, n] - u[:, n]) ** 2).sum()
        assert triple.mse == pytest.approx(acc / 25, rel=1e-12)
        assert triple.variance == pytest.approx(_loop_total_variance(u), rel=1e-12)
    with pytest.raises(ValueError, match="projectors must be"):
        error_poe(u, np.moveaxis(stack, 0, -1))  # samples last: (d, d, N)


@pytest.mark.parametrize("metric", [error_npe, error_nupe])
def test_pairwise_metrics_identity_zero_and_loop(metric):
    rng = np.random.default_rng(7)
    truth = _zero_mean(rng, (2, 40))
    assert metric(truth, truth).normalized == 0.0
    assert metric(truth, np.zeros_like(truth)).normalized == pytest.approx(1.0)
    pred = rng.normal(size=truth.shape)
    triple = metric(truth, pred)
    acc = sum(((truth[:, n] - pred[:, n]) ** 2).sum() for n in range(truth.shape[1]))
    assert triple.mse == pytest.approx(acc / truth.shape[1], rel=1e-12)
    assert triple.variance == pytest.approx(_loop_total_variance(truth), rel=1e-12)


def test_ncpe_blind_inside_removed_directions():
    rng = np.random.default_rng(8)
    a = np.array([[np.cos(0.4), np.sin(0.4)]])
    n = nullspace_projector(a)
    pi = rng.normal(size=(2, 30))
    # perturb only along the constrained (removed) direction
    pred = pi + a.T @ rng.normal(size=(1, 30))
    triple = error_ncpe(pi, pred, n)
    assert triple.normalized < 1e-24


def test_ncpe_exact_prediction_is_zero():
    rng = np.random.default_rng(9)
    pi = rng.normal(size=(2, 30))
    p = rng.normal(size=(30, 2, 2))
    assert error_ncpe(pi, pi, p).normalized == 0.0


def test_ncpe_matches_loop_oracle():
    rng = np.random.default_rng(10)
    pi = rng.normal(size=(2, 20))
    pred = rng.normal(size=(2, 20))
    stack = rng.normal(size=(20, 2, 2))
    # an (N, d, d) stack, and one (d, d) matrix applied to every sample
    for p, per_sample in ((stack, stack), (stack[0], [stack[0]] * 20)):
        triple = error_ncpe(pi, pred, p)
        acc = 0.0
        for n in range(20):
            acc += ((per_sample[n] @ (pi[:, n] - pred[:, n])) ** 2).sum()
        assert triple.mse == pytest.approx(acc / 20, rel=1e-12)
        projected = np.column_stack([per_sample[n] @ pi[:, n] for n in range(20)])
        assert triple.variance == pytest.approx(_loop_total_variance(projected), rel=1e-12)
    with pytest.raises(ValueError, match="projectors must be"):
        error_ncpe(pi, pred, np.moveaxis(stack, 0, -1))  # samples last: (d, d, N)


# ---------------------------------------------------------------------------
# cross-metric properties
# ---------------------------------------------------------------------------

def test_ncpe_mse_never_exceeds_nupe_mse_under_projectors():
    rng = np.random.default_rng(11)
    for _ in range(30):
        pi = rng.normal(size=(3, 15))
        pred = rng.normal(size=(3, 15))
        p = np.empty((15, 3, 3))
        for n in range(15):
            a = rng.normal(size=(rng.integers(1, 3), 3))
            p[n] = nullspace_projector(a)
        assert error_ncpe(pi, pred, p).mse <= error_nupe(pi, pred).mse + 1e-12


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(12)
    truth = rng.normal(size=(2, 30))
    pred = rng.normal(size=(2, 30))
    perm = rng.permutation(30)
    a = error_nupe(truth, pred)
    b = error_nupe(truth[:, perm], pred[:, perm])
    assert a.mse == pytest.approx(b.mse) and a.variance == pytest.approx(b.variance)


def test_metrics_scale_invariant():
    rng = np.random.default_rng(13)
    truth = rng.normal(size=(2, 30))
    pred = rng.normal(size=(2, 30))
    base = error_nupe(truth, pred).normalized
    scaled = error_nupe(3.7 * truth, 3.7 * pred).normalized
    assert abs(base - scaled) < 1e-12


def test_zero_variance_sentinels():
    truth = np.ones((2, 5))
    assert error_nupe(truth, np.zeros_like(truth)).normalized == float("inf")
    assert error_nupe(truth, truth) == MetricTriple(0.0, 0.0, 0.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        error_nupe(np.zeros((2, 5)), np.zeros((2, 6)))
    with pytest.raises(ValueError):
        error_poe(np.zeros((2, 5)), np.zeros((3, 3)))
