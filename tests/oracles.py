"""Oracles the tests check analytic derivatives against: finite
differences, and Jacobians that the learners never assemble."""
import numpy as np

from ccl.mathkit import unit_vector_angle_gradient


def finite_difference_jacobian(fn, p, rel_step=1e-6):
    """Central-difference Jacobian with per-parameter step
    rel_step * (1 + |p_i|)."""
    p = np.asarray(p, dtype=float)
    r0 = np.atleast_1d(fn(p))
    jac = np.empty((r0.size, p.size))
    for i in range(p.size):
        h = rel_step * (1.0 + abs(p[i]))
        fwd, bwd = p.copy(), p.copy()
        fwd[i] += h
        bwd[i] -= h
        jac[:, i] = (np.atleast_1d(fn(fwd)) - np.atleast_1d(fn(bwd))) / (2.0 * h)
    return jac


def check_jacobian(fn, jac_fn, p, rel_step=1e-6):
    """Largest deviation of an analytic Jacobian from central differences,
    relative to max(1, largest analytic entry)."""
    analytic = np.atleast_2d(jac_fn(np.asarray(p, dtype=float)))
    numeric = finite_difference_jacobian(fn, p, rel_step)
    scale = max(1.0, float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(analytic - numeric.reshape(analytic.shape)))) / scale


def row_jacobian(bx, u_rot):
    """The assembled (N, n_ang G) Jacobian of an alpha row's residuals
    a(omega beta_n) . u_rot_n over the flattened angle weights: sample n's
    row is g_n (x) beta_n, g_n the angle gradient of its residual.  The
    learner never forms it; it is the oracle of the row problem's normal
    equations."""
    g, n = bx.shape

    def jacobian(wvec):
        grad = unit_vector_angle_gradient(wvec.reshape(-1, g) @ bx, u_rot)
        return np.einsum("in,jn->nij", grad, bx).reshape(n, -1)

    return jacobian
