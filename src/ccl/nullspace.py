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

from .core import (LearnOptions, LearnReport, _basis_centers, _basis_doc, _freeze_basis,
                   _frozen_finite)
from .mathkit import LmProblem, lm_solve, rbf_basis, rbf_design, ridge_regression
from .metrics import error_npe, error_nupe

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
        object.__setattr__(self, "weights", _frozen_finite("weights", np.atleast_2d(self.weights)))
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

    def to_doc(self):
        return {"basis": dict(_basis_doc(self.centers, self.width),
                              dim_out=self.weights.shape[0], weights=self.weights.tolist())}

    @classmethod
    def from_doc(cls, doc):
        basis = doc["basis"]
        return cls(centers=_basis_centers(basis), width=basis["width"],
                   weights=np.asarray(basis["weights"], dtype=float).reshape(
                       basis["dim_out"], basis["n_basis"]))


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


def _ncl_problem(bx, actions, dim_u):
    """Residual/Jacobian closures over the flattened weights: the objective
    sum_n || P_n u_n - w(x_n) ||^2 is r.r and its gradient 2 J^T r."""
    g = bx.shape[0]

    def residual(wvec):
        e, _, _ = _ncl_parts(wvec.reshape(dim_u, g), bx, actions)
        return e.ravel(order="F")

    def jacobian(wvec):
        _, dmat, _ = _ncl_parts(wvec.reshape(dim_u, g), bx, actions)
        n = bx.shape[1]
        return np.einsum("ain,jn->naij", dmat, bx).reshape(n * dim_u, dim_u * g)

    return residual, jacobian


def learn_ncl(xs, actions, options: Optional[LearnOptions] = None, num_basis=16):
    """Fit the null-space component model on ``num_basis`` RBFs (K-means
    centers, mean-center-distance width) by damped least squares with the
    analytic Jacobian, starting from a ridge regression of the actions on
    the basis.  Requires at least as many samples as basis functions.

    Returns (NullspaceComponentModel, LearnReport).
    """
    opts = options or LearnOptions()
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    u = np.atleast_2d(np.asarray(actions, dtype=float))
    if xs.shape[1] != u.shape[1]:
        raise ValueError("states and actions disagree on sample count")
    if xs.shape[1] < num_basis:
        raise ValueError(f"need at least {num_basis} samples "
                         f"for {num_basis} basis functions")

    centers, width = rbf_basis(xs, num_basis, opts.rng_seed)
    bx = rbf_design(xs, centers, width)
    w0 = ridge_regression(bx, u, opts.regularization)
    dim_u = u.shape[0]
    residual, jacobian = _ncl_problem(bx, u, dim_u)
    wvec, lm_report = lm_solve(LmProblem(residual=residual, p0=w0.ravel(),
                                         jacobian=jacobian, options=opts))
    weights = wvec.reshape(dim_u, bx.shape[0])

    model = NullspaceComponentModel(centers=centers, width=width, weights=weights)
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
