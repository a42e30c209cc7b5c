"""Recovering the unconstrained policy from constrained observations.

Each observation only reveals the policy component along the observed
action direction, so the fit penalizes the mismatch between u_n and the
model prediction projected onto u_n's direction (the inconsistency
error).  That objective is linear in the model weights and is solved in
closed form; as every direction projector is rank one, the normal matrix
is one factor times its own transpose.  Pooling data recorded under
several different constraints is what pins the policy down.

Two model families: a parametric model (RBF or linear features) and a
locally-weighted ensemble of linear maps blended by Gaussian receptive
fields.  Both predict at every finite state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (LearnOptions, LearnReport, _basis_dim_x, _finite_samples, _freeze_basis,
                   _frozen_finite, _number)
from .mathkit import pairwise_sq_distances, rbf_basis, rbf_design
from .metrics import error_ncpe, error_nupe, total_variance

ZERO_ACTION = 1e-12


def _policy_metrics(model, data):
    """The metrics method of both policy kinds: NUPE and NCPE of the
    prediction against the pi channel, as (rows, skipped)."""
    pred = model.predict(data.states)
    if data.policy is None:
        why = "requires ground truth (pi channel)"
        return [], [("NUPE", why), ("NCPE", why)]
    return [("NUPE", error_nupe(data.policy, pred)),
            ("NCPE", error_ncpe(data.policy, pred, _direction_projectors(data.actions)))], []


@dataclass(frozen=True)
class ParametricPolicyModel:
    """Linear-in-weights policy: prediction = weights @ features(x).

    With ``centers`` (dim_x, G) and ``width`` both set the features are
    Gaussian RBFs with the shared width; with both None the features are
    the state augmented by a constant one (a plain affine policy), so the
    weights have dim_x + 1 >= 2 columns.
    """

    weights: np.ndarray
    centers: np.ndarray = None
    width: float = None

    kind = "pi-parametric"

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_finite("weights", self.weights, 2))
        if (self.centers is None) != (self.width is None):
            raise ValueError("centers and width must be both set (RBF features) "
                             "or both None (affine features)")
        if self.centers is not None:
            _freeze_basis(self)
            if self.weights.shape[1] != self.centers.shape[1]:
                raise ValueError(f"weights must have {self.centers.shape[1]} columns, "
                                 f"one per center")
        elif self.weights.shape[1] < 2:
            raise ValueError("affine weights must have dim_x + 1 >= 2 columns")

    @property
    def dim_x(self):
        return self.weights.shape[1] - 1 if self.centers is None else self.centers.shape[0]

    @property
    def dim_u(self):
        return self.weights.shape[0]

    def features(self, xs):
        return _features(np.atleast_2d(np.asarray(xs, dtype=float)), self.centers, self.width)

    def predict(self, xs):
        return self.weights @ self.features(xs)

    metrics = _policy_metrics


def _features(xs, centers, width):
    """Gaussian RBF features of xs (dim_x, N), or (x, 1) when centers is None."""
    return _affine(xs) if centers is None else rbf_design(xs, centers, width)


def _affine(xs):
    """The states augmented by a constant one, (dim_x + 1, N)."""
    return np.vstack([xs, np.ones(xs.shape[1])])


@dataclass(frozen=True)
class LwlPolicyModel:
    """Locally-weighted linear policy: per-center affine maps
    (M, dim_u, dim_x + 1) blended by Gaussian receptive fields.  Dividing the
    activations by the nearest field's keeps the blend defined far away."""

    local_maps: np.ndarray
    centers: np.ndarray
    width: float

    kind = "pi-lwl"

    def __post_init__(self):
        object.__setattr__(self, "local_maps", _frozen_finite("local_maps", self.local_maps, 3))
        _freeze_basis(self)
        if self.local_maps.shape[0] != self.centers.shape[1]:
            raise ValueError("one local map per center required")
        if self.local_maps.shape[2] != self.centers.shape[0] + 1:
            raise ValueError("local maps must act on the augmented state (x, 1)")

    dim_x = _basis_dim_x

    @property
    def dim_u(self):
        return self.local_maps.shape[1]

    def predict(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        d2 = pairwise_sq_distances(self.centers, xs)
        d2 -= d2.min(axis=0)
        act = np.exp(d2 / (-2.0 * self.width), out=d2)
        aug = _affine(xs)
        return sum(a * (b @ aug) for a, b in zip(act, self.local_maps)) / act.sum(axis=0)

    metrics = _policy_metrics


def _direction_projectors(u):
    """Rank-one projectors onto each observed action direction, a stack
    (N, d, d); zero where the action norm is at most ZERO_ACTION (no
    direction)."""
    norms = (u ** 2).sum(axis=0)
    keep = norms > ZERO_ACTION ** 2
    proj = np.einsum("in,jn->nij", u, u) / np.where(keep, norms, 1.0)[:, None, None]
    proj[~keep] = 0.0
    return proj


def _solve_projected(features, e, u, sample_weights, regularization):
    """Closed-form minimizers W_m of sum_n rho_mn || u_n - P_n W f_n ||^2
    + reg ||W||^2, one per row rho_m of ``sample_weights`` (M, N), or one
    unweighted if it is None.  As P_n = e_n e_n^T (unit directions e), the
    normal matrix is (Z rho) Z^T, Z (n_feat d, N) having f_g e_i in row
    g d + i; the rhs is vec((u rho) f^T) and the ridge keeps it solvable.
    """
    # C order, so that the reshape is a view whatever the layout of e
    z = np.multiply(features[:, None, :], e, order="C").reshape(-1, e.shape[1])

    def solve(zr, ur):
        h = zr @ z.T + regularization * np.eye(len(z))
        rhs = (ur @ features.T).flatten(order="F")
        try:
            vec = np.linalg.solve(h, rhs)
        except np.linalg.LinAlgError:
            vec = np.linalg.lstsq(h, rhs, rcond=None)[0]
        return vec.reshape(-1, len(e)).T

    if sample_weights is None:
        return [solve(z, u)]
    return [solve(z * rho, u * rho) for rho in sample_weights]


def _fit_policy(xs, u, fit):
    """The path both policy learners share, on the finite states and
    actions of :func:`_finite_samples`: check the sample counts, drop the
    samples with (numerically) zero action, whose direction is undefined,
    fit the model with ``fit(xs, u, e)`` on the unit action directions e,
    and report its projected-residual energy and the dropped-sample count.

    Returns (model, LearnReport).
    """
    if xs.shape[1] != u.shape[1]:
        raise ValueError("states and actions disagree on sample count")
    keep = np.linalg.norm(u, axis=0) > ZERO_ACTION
    xs, u = xs[:, keep], u[:, keep]
    if u.shape[1] == 0:
        raise ValueError("all samples have zero action")

    e = u / np.linalg.norm(u, axis=0)
    model = fit(xs, u, e)
    residual = u - e * (e * model.predict(xs)).sum(axis=0)
    energy = float((residual ** 2).sum())
    report = LearnReport.from_errors(
        mse=energy / u.shape[1], variance=total_variance(u),
        iterations=0, final_objective=energy, converged=True,
        reason="closed-form", dropped_samples=int((~keep).sum()),
    )
    return model, report


def learn_pi(xs, u_null, options: Optional[LearnOptions] = None, num_basis=10, basis="rbf"):
    """Fit the parametric policy by the closed-form normal equations of
    the inconsistency error.  ``basis`` "rbf" takes ``num_basis`` Gaussian
    features over all the states (K-means centers, mean-center-distance
    width); "linear" takes the affine features (x, 1), whose size is fixed,
    and only checks that ``num_basis`` is a valid size.

    Returns (ParametricPolicyModel, LearnReport).
    """
    opts = options or LearnOptions()
    xs, u = _finite_samples("states", xs), _finite_samples("actions", u_null)
    if basis == "rbf":
        centers, width = rbf_basis(xs, num_basis, opts.rng_seed)
    elif basis == "linear":
        _number("num_basis", num_basis, integer=True, ge=1)
        centers = width = None
    else:
        raise ValueError(f"unknown basis {basis!r} (use rbf | linear)")

    def fit(xs, u, e):
        [weights] = _solve_projected(_features(xs, centers, width), e, u, None,
                                     opts.regularization)
        return ParametricPolicyModel(weights=weights, centers=centers, width=width)

    return _fit_policy(xs, u, fit)


def learn_pi_lwl(xs, u_null, options: Optional[LearnOptions] = None, num_local=10):
    """Fit the locally-weighted policy on ``num_local`` receptive fields
    over all the states (K-means centers, mean-center-distance width): each
    local affine map solves its own receptive-field-weighted projected
    regression in closed form, all from one factor of the normal equations.

    Returns (LwlPolicyModel, LearnReport).
    """
    opts = options or LearnOptions()
    xs, u = _finite_samples("states", xs), _finite_samples("actions", u_null)
    centers, width = rbf_basis(xs, num_local, opts.rng_seed, name="num_local")

    def fit(xs, u, e):
        maps = _solve_projected(_affine(xs), e, u, rbf_design(xs, centers, width),
                                opts.regularization)
        return LwlPolicyModel(local_maps=maps, centers=centers, width=width)

    return _fit_policy(xs, u, fit)
