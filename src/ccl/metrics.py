"""Normalized evaluation metrics.

Every metric returns a :class:`MetricTriple` (normalized error, ground-
truth variance, raw mean squared error).  The normalization denominator
is the total variance of the ground-truth channel: the sum over output
dimensions of the per-dimension (population) variance.  A zero-variance
channel with nonzero error reports an infinite normalized value instead
of raising.

Channels are (d, N), one column per sample.  A ``projectors`` argument is
one (d, d) matrix, applied to every sample, or an (N, d, d) stack with
sample n's projector at index n; any other shape is a ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np


@dataclass(frozen=True)
class MetricTriple:
    normalized: float
    variance: float
    mse: float


def total_variance(channel):
    """Sum over rows of the per-row population variance of (d, N) data."""
    return float(np.var(np.atleast_2d(channel), axis=1).sum())


def _triple(mse, variance):
    if variance > 0:
        normalized = mse / variance
    else:
        normalized = float("inf") if mse > 0 else 0.0
    return MetricTriple(normalized=normalized, variance=variance, mse=mse)


def _as_stack(projectors, dim, n):
    """Accept a single (d, d) projector, broadcast over the N samples, or
    an (N, d, d) stack."""
    p = np.asarray(projectors, dtype=float)
    if p.shape == (dim, dim):
        return np.broadcast_to(p, (n, dim, dim))
    if p.shape != (n, dim, dim):
        raise ValueError(f"projectors must be ({dim},{dim}) or ({n},{dim},{dim})")
    return p


def _check_pair(a, b, names):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"{names[0]} {a.shape} and {names[1]} {b.shape} differ in shape")
    return a, b


def error_ppe(null_true, projectors, policy) -> MetricTriple:
    """Projected policy error: how far the learned projector applied to
    the true policy lands from the true null-space component.

    mse = mean ||N_hat_n pi_n - w_n||^2, normalized by the variance of w.
    """
    w, pi = _check_pair(null_true, policy, ("null_true", "policy"))
    p = _as_stack(projectors, w.shape[0], w.shape[1])
    proj = np.einsum("nij,jn->in", p, pi)
    mse = float(((proj - w) ** 2).sum(axis=0).mean())
    return _triple(mse, total_variance(w))


def error_poe(actions, projectors) -> MetricTriple:
    """Projected observation error: mean ||N_hat_n u_n - u_n||^2 over the
    variance of u.  Needs no ground truth."""
    u = np.atleast_2d(np.asarray(actions, dtype=float))
    p = _as_stack(projectors, u.shape[0], u.shape[1])
    proj = np.einsum("nij,jn->in", p, u)
    mse = float(((proj - u) ** 2).sum(axis=0).mean())
    return _triple(mse, total_variance(u))


def _prediction_error(truth, pred, names):
    """Mean squared column difference of pred from truth over the variance
    of truth."""
    t, p = _check_pair(truth, pred, names)
    return _triple(float(((t - p) ** 2).sum(axis=0).mean()), total_variance(t))


def error_npe(null_true, null_pred) -> MetricTriple:
    """Null-space component error: mean squared column difference over the
    variance of the true component."""
    return _prediction_error(null_true, null_pred, ("null_true", "null_pred"))


def error_nupe(policy_true, policy_pred) -> MetricTriple:
    """Unconstrained policy error: mean squared difference between true
    and predicted policy outputs over the variance of the true policy."""
    return _prediction_error(policy_true, policy_pred, ("policy_true", "policy_pred"))


def error_ncpe(policy_true, policy_pred, projectors) -> MetricTriple:
    """Constrained policy error: the policy mismatch seen through the
    per-sample projectors, normalized by the variance of the projected
    true policy.  Blind to differences inside the removed directions."""
    f, fp = _check_pair(policy_true, policy_pred, ("policy_true", "policy_pred"))
    p = _as_stack(projectors, f.shape[0], f.shape[1])
    diff = np.einsum("nij,jn->in", p, f - fp)
    mse = float((diff ** 2).sum(axis=0).mean())
    return _triple(mse, total_variance(np.einsum("nij,jn->in", p, f)))
