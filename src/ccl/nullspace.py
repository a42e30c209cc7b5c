"""Extracting the null-space part of observed actions.

Observations mix a task-driven component with a null-space component.
The learner fits an RBF model w(x) by penalizing the gap between the
model and the observation projected onto the model's own direction:
a correct model absorbs exactly the null-space part and the task part
projects away.  The objective has an exact analytic Jacobian.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LearnOptions, LearnReport, RbfModel
from .mathkit import (
    LmProblem,
    kmeans_centers,
    lm_solve,
    rbf_design,
    rbf_width_from_centers,
    ridge_regression,
)

TINY_NORM = 1e-12


@dataclass(frozen=True)
class NullspaceComponentModel:
    """RBF regressor for the null-space component, dim_out = dim_u."""

    rbf: RbfModel

    def predict(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return self.rbf.weights @ rbf_design(xs, self.rbf.centers, self.rbf.width)


def make_ncl_model(xs, dim_u, num_basis=16, seed=0) -> NullspaceComponentModel:
    """Zero-weight starting model with K-means centers and the shared
    mean-center-distance width."""
    centers = kmeans_centers(xs, num_basis, seed=seed)
    width = rbf_width_from_centers(centers)
    return NullspaceComponentModel(
        rbf=RbfModel(centers=centers, width=width,
                     weights=np.zeros((dim_u, num_basis))))


def _ncl_parts(weights, bx, actions):
    """Residuals e_n = P_n u_n - w_n with P_n the projector onto the
    model prediction, plus the per-sample derivative D_n = d e_n / d w_n.

    Predictions with negligible norm get a zero projector (the projector
    is undefined there); their residual is then just -w_n.
    """
    w = weights @ bx
    rho = (w ** 2).sum(axis=0)
    dot = (w * actions).sum(axis=0)
    small = rho < TINY_NORM
    safe_rho = np.where(small, 1.0, rho)
    coef = np.where(small, 0.0, dot / safe_rho)

    residual = coef * w - w
    d = actions / safe_rho - 2.0 * dot * w / safe_rho ** 2
    dmat = np.einsum("an,in->ain", w, d)
    dmat += (coef - 1.0)[None, None, :] * np.eye(w.shape[0])[:, :, None]
    dmat[:, :, small] = -np.eye(w.shape[0])[:, :, None]
    return residual, dmat, small


def objective_ncl(weights, bx, actions):
    """Objective value and its exact gradient with respect to the weights.

    value  = sum_n || P_n u_n - w(x_n) ||^2, P_n = w_n w_n^T / ||w_n||^2
    grad   has the weight matrix shape (dim_u, G).
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    bx = np.atleast_2d(np.asarray(bx, dtype=float))
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    e, dmat, _ = _ncl_parts(weights, bx, actions)
    value = float((e ** 2).sum())
    grad = 2.0 * np.einsum("an,ain,jn->ij", e, dmat, bx)
    return value, grad


def _ncl_problem(bx, actions, dim_u):
    g = bx.shape[0]

    def residual(wvec):
        e, _, _ = _ncl_parts(wvec.reshape(dim_u, g), bx, actions)
        return e.ravel(order="F")

    def jacobian(wvec):
        _, dmat, _ = _ncl_parts(wvec.reshape(dim_u, g), bx, actions)
        n = bx.shape[1]
        return np.einsum("ain,jn->naij", dmat, bx).reshape(n * dim_u, dim_u * g)

    return residual, jacobian


def learn_ncl(xs, actions, model0: NullspaceComponentModel,
              options: Optional[LearnOptions] = None):
    """Fit the null-space component model by damped least squares with the
    analytic Jacobian, starting from a ridge regression of the actions on
    the basis.  Requires at least as many samples as basis functions.

    Returns (NullspaceComponentModel, LearnReport).
    """
    opts = options or LearnOptions()
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    u = np.atleast_2d(np.asarray(actions, dtype=float))
    rbf = model0.rbf
    if xs.shape[1] != u.shape[1]:
        raise ValueError("states and actions disagree on sample count")
    if xs.shape[1] < rbf.n_basis:
        raise ValueError(f"need at least {rbf.n_basis} samples "
                         f"for {rbf.n_basis} basis functions")

    bx = rbf_design(xs, rbf.centers, rbf.width)
    w0 = ridge_regression(bx, u, opts.regularization)
    dim_u = u.shape[0]
    residual, jacobian = _ncl_problem(bx, u, dim_u)
    wvec, lm_report = lm_solve(LmProblem(residual=residual, p0=w0.ravel(),
                                         jacobian=jacobian, options=opts))
    weights = wvec.reshape(dim_u, bx.shape[0])

    model = NullspaceComponentModel(
        rbf=RbfModel(centers=rbf.centers, width=rbf.width, weights=weights))
    e, _, small = _ncl_parts(weights, bx, u)
    targets = e + weights @ bx  # the projected observations P_n u_n
    notes = lm_report.notes
    if small.any():
        notes = notes + (f"near-zero-predictions:{int(small.sum())}",)
    report = LearnReport.from_errors(
        mse=float((e ** 2).sum()) / u.shape[1],
        variance=float(np.var(targets, axis=1).sum()),
        iterations=lm_report.iterations,
        final_objective=lm_report.final_objective,
        converged=lm_report.converged, reason=lm_report.reason, notes=notes,
    )
    return model, report
