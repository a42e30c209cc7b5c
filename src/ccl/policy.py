"""Recovering the unconstrained policy from constrained observations.

Each observation only reveals the policy component along the observed
action direction, so the fit penalizes the mismatch between u_n and the
model prediction projected onto u_n's direction (the inconsistency
error).  That objective is linear in the model weights and is solved in
closed form through accumulated normal equations; pooling data recorded
under several different constraints is what pins the policy down.

Two model families: a parametric model (RBF or linear features) and a
locally-weighted ensemble of linear maps blended by Gaussian receptive
fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LearnOptions, LearnReport, RbfModel, _freeze
from .mathkit import kmeans_centers, pairwise_sq_distances, rbf_design, rbf_width_from_centers

ZERO_ACTION = 1e-12
MIN_ACTIVATION = 1e-12


@dataclass(frozen=True)
class ParametricPolicyModel:
    """Linear-in-weights policy: prediction = weights @ features(x).

    With ``centers`` set the features are Gaussian RBFs with the shared
    ``width``; with centers None the features are the state augmented by
    a constant one (a plain affine policy).
    """

    weights: np.ndarray
    dim_x: int
    centers: np.ndarray = None
    width: float = None

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           _freeze(np.atleast_2d(np.asarray(self.weights, dtype=float))))
        if self.centers is not None:
            object.__setattr__(self, "centers",
                               _freeze(np.atleast_2d(np.asarray(self.centers, dtype=float))))
            if self.width is None or not self.width > 0:
                raise ValueError("RBF features need a positive width")
            expected = self.centers.shape[1]
        else:
            expected = self.dim_x + 1
        if self.weights.shape[1] != expected:
            raise ValueError(f"weights must have {expected} columns")

    @property
    def rbf(self):
        """View as an RbfModel (RBF-feature models only)."""
        if self.centers is None:
            raise ValueError("linear-feature model has no RBF view")
        return RbfModel(centers=self.centers, width=self.width, weights=self.weights)

    def features(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if self.centers is not None:
            return rbf_design(xs, self.centers, self.width)
        return np.vstack([xs, np.ones(xs.shape[1])])

    def predict(self, xs):
        return self.weights @ self.features(xs)


def rbf_policy_model(xs, dim_u, num_basis=10, seed=0) -> ParametricPolicyModel:
    """Zero-weight RBF policy model sized from the data (K-means centers,
    mean-center-distance width)."""
    centers = kmeans_centers(xs, num_basis, seed=seed)
    return ParametricPolicyModel(weights=np.zeros((dim_u, num_basis)),
                                 dim_x=centers.shape[0], centers=centers,
                                 width=rbf_width_from_centers(centers))


def linear_policy_model(dim_x, dim_u) -> ParametricPolicyModel:
    """Zero-weight affine policy model with features (x, 1)."""
    return ParametricPolicyModel(weights=np.zeros((dim_u, dim_x + 1)), dim_x=dim_x)


@dataclass(frozen=True)
class LwlPolicyModel:
    """Locally-weighted linear policy: per-center affine maps
    (M, dim_u, dim_x + 1) blended by Gaussian receptive fields."""

    local_maps: np.ndarray
    centers: np.ndarray
    width: float

    def __post_init__(self):
        object.__setattr__(self, "local_maps", _freeze(np.asarray(self.local_maps, dtype=float)))
        object.__setattr__(self, "centers", _freeze(np.atleast_2d(np.asarray(self.centers, dtype=float))))
        if self.local_maps.ndim != 3:
            raise ValueError("local_maps must be (M, dim_u, dim_x + 1)")
        if self.local_maps.shape[0] != self.centers.shape[1]:
            raise ValueError("one local map per center required")
        if self.local_maps.shape[2] != self.centers.shape[0] + 1:
            raise ValueError("local maps must act on the augmented state (x, 1)")
        if not self.width > 0:
            raise ValueError("width must be > 0")

    def activations(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.exp(-pairwise_sq_distances(self.centers, xs) / (2.0 * self.width))

    def predict(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        act = self.activations(xs)
        total = act.sum(axis=0)
        dead = total < MIN_ACTIVATION
        if dead.any():
            i = int(np.flatnonzero(dead)[0])
            raise ValueError(f"no receptive field active at point {xs[:, i]}")
        aug = np.vstack([xs, np.ones(xs.shape[1])])
        local = np.einsum("mdi,in->mdn", self.local_maps, aug)
        return (act[:, None, :] * local).sum(axis=0) / total


def lwl_policy_model(xs, dim_u, num_local=10, seed=0) -> LwlPolicyModel:
    """Zero-map locally-weighted model sized from the data."""
    centers = kmeans_centers(xs, num_local, seed=seed)
    return LwlPolicyModel(
        local_maps=np.zeros((num_local, dim_u, centers.shape[0] + 1)),
        centers=centers, width=rbf_width_from_centers(centers))


def _direction_projectors(u):
    """Rank-one projectors onto each observed action direction (d, d, N);
    zero where the action norm is at most ZERO_ACTION (no direction)."""
    norms = (u ** 2).sum(axis=0)
    keep = norms > ZERO_ACTION ** 2
    proj = np.einsum("in,jn->ijn", u, u) / np.where(keep, norms, 1.0)
    proj[:, :, ~keep] = 0.0
    return proj


def _solve_projected(features, u, proj, sample_weights, regularization):
    """Closed-form minimizer of
    sum_n rho_n || u_n - P_n W f_n ||^2 + reg ||W||^2.

    The problem is a symmetric positive semidefinite linear system in
    vec(W); the ridge term keeps it solvable at any rank.
    """
    f = features
    d = u.shape[0]
    n_feat = f.shape[0]
    wf = f * sample_weights
    h = np.einsum("gn,hn,ijn->gihj", wf, f, proj).reshape(n_feat * d, n_feat * d)
    rhs = ((u * sample_weights) @ f.T).flatten(order="F")
    h[np.diag_indices_from(h)] += regularization
    try:
        vec = np.linalg.solve(h, rhs)
    except np.linalg.LinAlgError:
        vec = np.linalg.lstsq(h, rhs, rcond=None)[0]
    return vec.reshape(n_feat, d).T


def _drop_zero_actions(xs, u):
    keep = np.linalg.norm(u, axis=0) > ZERO_ACTION
    return xs[:, keep], u[:, keep], int((~keep).sum())


def learn_pi(xs, u_null, model0: ParametricPolicyModel,
             options: Optional[LearnOptions] = None):
    """Fit the parametric policy by the closed-form normal equations of
    the inconsistency error.  Samples with (numerically) zero action are
    excluded (their direction projector is undefined) and counted in the
    report.

    Returns (ParametricPolicyModel, LearnReport).
    """
    opts = options or LearnOptions()
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    u = np.atleast_2d(np.asarray(u_null, dtype=float))
    if xs.shape[1] != u.shape[1]:
        raise ValueError("states and actions disagree on sample count")
    xs, u, dropped = _drop_zero_actions(xs, u)
    if u.shape[1] == 0:
        raise ValueError("all samples have zero action")

    feats = model0.features(xs)
    proj = _direction_projectors(u)
    weights = _solve_projected(feats, u, proj, np.ones(u.shape[1]), opts.regularization)
    model = ParametricPolicyModel(weights=weights, dim_x=model0.dim_x,
                                  centers=model0.centers, width=model0.width)

    pred = model.predict(xs)
    residual = u - np.einsum("ijn,jn->in", proj, pred)
    energy = float((residual ** 2).sum())
    report = LearnReport.from_errors(
        mse=energy / u.shape[1], variance=float(np.var(u, axis=1).sum()),
        iterations=1, final_objective=energy, converged=True,
        reason="fun-tol", notes=("closed-form",), dropped_samples=dropped,
    )
    return model, report


def learn_pi_lwl(xs, u_null, model0: LwlPolicyModel,
                 options: Optional[LearnOptions] = None):
    """Fit the locally-weighted policy: each local affine map solves its
    own receptive-field-weighted projected regression in closed form.

    Returns (LwlPolicyModel, LearnReport).
    """
    opts = options or LearnOptions()
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    u = np.atleast_2d(np.asarray(u_null, dtype=float))
    if xs.shape[1] != u.shape[1]:
        raise ValueError("states and actions disagree on sample count")
    xs, u, dropped = _drop_zero_actions(xs, u)
    if u.shape[1] == 0:
        raise ValueError("all samples have zero action")

    aug = np.vstack([xs, np.ones(xs.shape[1])])
    proj = _direction_projectors(u)
    act = model0.activations(xs)
    maps = np.empty_like(model0.local_maps)
    for m in range(act.shape[0]):
        maps[m] = _solve_projected(aug, u, proj, act[m], opts.regularization)
    model = LwlPolicyModel(local_maps=maps, centers=model0.centers,
                           width=model0.width)

    pred = model.predict(xs)
    residual = u - np.einsum("ijn,jn->in", proj, pred)
    energy = float((residual ** 2).sum())
    report = LearnReport.from_errors(
        mse=energy / u.shape[1], variance=float(np.var(u, axis=1).sum()),
        iterations=1, final_objective=energy, converged=True,
        reason="fun-tol", notes=("closed-form",), dropped_samples=dropped,
    )
    return model, report
