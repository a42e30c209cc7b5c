"""Extracting the null-space part of observed actions.

Observations mix a task-driven component with a null-space component.
The learner fits an RBF model w(x) by penalizing the gap between the
model and the observation projected onto the model's own direction:
a correct model absorbs exactly the null-space part and the task part
projects away.  Its Gauss-Newton system is built from the exact
analytic derivatives of the per-sample residuals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LearnOptions, LearnReport, _finite_samples, _freeze_basis, _frozen_finite
from .mathkit import LmProblem, lm_solve, rbf_basis, rbf_design, ridge_regression
from .metrics import error_npe, error_nupe, total_variance

TINY_NORM = 1e-12


@dataclass(frozen=True)
class NullspaceComponentModel:
    """RBF regressor for the null-space component: ``weights`` (dim_u, G) on
    the Gaussian features of ``centers`` (dim_x, G) with a shared ``width``."""

    centers: np.ndarray
    width: float
    weights: np.ndarray

    kind = "ncl"

    def __post_init__(self):
        _freeze_basis(self)
        object.__setattr__(self, "weights", _frozen_finite("weights", self.weights, 2))
        if self.weights.shape[1] != self.centers.shape[1]:
            raise ValueError("weights columns must match number of centers")

    def predict(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return self.weights @ rbf_design(xs, self.centers, self.width)

    def metrics(self, data):
        """NUPE and NPE against the w channel: (rows, skipped)."""
        if data.null_component is None:
            why = "requires ground truth (w channel)"
            return [], [("NPE", why), ("NUPE", why)]
        pred = self.predict(data.states)
        return [("NUPE", error_nupe(data.null_component, pred)),
                ("NPE", error_npe(data.null_component, pred))], []


def _ncl_terms(weights, bx, actions):
    """Per-sample terms of the objective: the prediction w_n, w_n . u_n,
    |w_n|^2 (1 where negligible), the projection coefficient
    c_n = w_n . u_n / |w_n|^2 and the mask of predictions with negligible
    norm, where the projector is undefined and taken as zero (c_n = 0)."""
    w = weights @ bx
    rho = (w ** 2).sum(axis=0)
    dot = (w * actions).sum(axis=0)
    small = rho < TINY_NORM
    safe_rho = np.where(small, 1.0, rho)
    coef = np.where(small, 0.0, dot / safe_rho)
    return w, dot, safe_rho, coef, small


def _ncl_residual(weights, bx, actions):
    """Residuals e_n = P_n u_n - w_n with P_n the projector onto the model
    prediction (so e_n = -w_n for a negligible prediction), and the mask of
    negligible predictions."""
    w, _, _, coef, small = _ncl_terms(weights, bx, actions)
    return coef * w - w, small


def _ncl_normal_equations(weights, bx, actions, e):
    """J'J and J'r of the objective at ``weights`` (dim_u, G), whose
    residuals are e (dim_u, N), without forming the (N dim_u, dim_u G)
    Jacobian.  Sample n adds (D_n' D_n) (x) b_n b_n' and (D_n' e_n) (x) b_n,
    so block (i, k) of J'J is bx diag(m_ik) bx' with m_ik = sum_a D_ai D_ak,
    and row block i of J'r is bx q_i' with q_i = sum_a D_ai e_a.  The
    derivative D_n = d e_n / d w_n of the residual is w_n d_n' + beta_n I,
    with d_n = u_n / |w_n|^2 - 2 (w_n . u_n) w_n / |w_n|^4 and
    beta_n = c_n - 1 (d_n = 0 and beta_n = -1 where the prediction is
    negligible), so m and q are a few products per sample, and one matrix
    product forms the upper blocks and J'r together."""
    dim_u, g = weights.shape
    n = bx.shape[1]
    w, dot, safe_rho, coef, small = _ncl_terms(weights, bx, actions)
    d = np.where(small, 0.0, actions / safe_rho - 2.0 * dot * w / safe_rho ** 2)
    beta = coef - 1.0
    iu, ku = np.triu_indices(dim_u)
    nb = iu.size
    m = safe_rho * d[iu] * d[ku] + beta * (d[iu] * w[ku] + w[iu] * d[ku])
    m[iu == ku] += beta ** 2
    rows = np.empty((nb * g + dim_u, n))
    np.multiply(m[:, None, :], bx, out=rows[:nb * g].reshape(nb, g, n))
    rows[nb * g:] = d * (w * e).sum(axis=0) + beta * e
    prod = rows @ bx.T
    h = np.empty((dim_u, g, dim_u, g))
    for block, i, k in zip(prod[:nb * g].reshape(nb, g, g), iu, ku):
        h[i, :, k] = block
        h[k, :, i] = block.T
    return h.reshape(dim_u * g, dim_u * g), prod[nb * g:].ravel()


@dataclass
class _NclProblem(LmProblem):
    """The ncl objective for :func:`lm_solve`; ``normal_equations`` comes
    from the per-sample derivative blocks, so it has no ``jacobian``."""

    bx: np.ndarray = None
    actions: np.ndarray = None

    def normal_equations(self, p, r):
        dim_u = self.actions.shape[0]
        return _ncl_normal_equations(p.reshape(dim_u, -1), self.bx, self.actions,
                                     r.reshape(-1, dim_u).T)


def _ncl_problem(bx, actions, p0, options=None):
    """The objective sum_n || P_n u_n - w(x_n) ||^2 over the flattened
    weights p0 (dim_u G,) as an LmProblem: it is r.r and its gradient
    2 J'r."""
    g = bx.shape[0]
    dim_u = actions.shape[0]

    def residual(wvec):
        return _ncl_residual(wvec.reshape(dim_u, g), bx, actions)[0].ravel(order="F")

    return _NclProblem(residual=residual, p0=p0, options=options or LearnOptions(),
                       bx=bx, actions=actions)


def learn_ncl(xs, actions, options: Optional[LearnOptions] = None, num_basis=16):
    """Fit the null-space component model on ``num_basis`` RBFs (K-means
    centers, mean-center-distance width) by damped least squares on
    normal equations built from the analytic per-sample derivatives,
    starting from a ridge regression of the actions on the basis.
    Requires at least as many samples as basis functions.

    Returns (NullspaceComponentModel, LearnReport).
    """
    opts = options or LearnOptions()
    xs = _finite_samples("states", xs)
    u = _finite_samples("actions", actions)
    if xs.shape[1] != u.shape[1]:
        raise ValueError("states and actions disagree on sample count")

    centers, width = rbf_basis(xs, num_basis, opts.rng_seed)
    bx = rbf_design(xs, centers, width)
    w0 = ridge_regression(bx, u, opts.regularization)
    dim_u = u.shape[0]
    wvec, lm_report = lm_solve(_ncl_problem(bx, u, w0.ravel(), opts))
    weights = wvec.reshape(dim_u, bx.shape[0])

    model = NullspaceComponentModel(centers=centers, width=width, weights=weights)
    e, small = _ncl_residual(weights, bx, u)
    targets = e + weights @ bx  # the projected observations P_n u_n
    notes = (f"near-zero-predictions:{int(small.sum())}",) if small.any() else ()
    report = LearnReport.from_errors(
        mse=float((e ** 2).sum()) / u.shape[1],
        variance=total_variance(targets),
        iterations=lm_report.iterations,
        final_objective=lm_report.final_objective,
        converged=lm_report.converged, reason=lm_report.reason, notes=notes,
    )
    return model, report
