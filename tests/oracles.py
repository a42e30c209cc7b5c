"""Finite-difference oracles the tests check analytic derivatives against."""
import numpy as np


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
