"""Numerical kernels: truncated pseudoinverse, null-space projectors,
hyperspherical unit vectors, pairwise distances, K-means, Gaussian RBF
features and a damped least-squares (Levenberg-Marquardt) solver.

Everything here is a pure function of its inputs and safe to call
concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import LearnOptions, LearnReport, _number

LAMBDA_MAX = 1e12
# lm_solve also stops on fun-tol once an accepted step's actual and
# predicted reductions are both at most LM_FTOL of the objective (Moré 1978)
LM_FTOL = 1e-6
ABANDON_AFTER = 10  # iterations before lm_solve compares against abandon_above
# kmeans_centers: bound on the rounding error of a computed squared distance,
# relative to the largest squared sample norm (see its docstring); candidate
# rows per distance block, which sizes its (rows, G) buffers; and the step
# the candidate count is rounded up to.  numpy keeps freed buffers under 1024
# bytes for reuse, per exact size, so candidate arrays of every length below
# 128 would each hold on to cached memory.
KMEANS_DISTANCE_ERROR = 4e-10
KMEANS_BLOCK_ROWS = 1024
KMEANS_ROW_STEP = 128


def pinv_truncated(m, threshold=1e-8):
    """Moore-Penrose pseudoinverse with relative singular-value truncation.

    Accepts one matrix (k, d) or a stack (..., k, d) and returns (d, k) or
    (..., d, k).  Singular values below threshold * sigma_max of their own
    matrix are treated as exactly zero, which keeps the inversion stable
    near rank-deficient configurations.  A zero matrix maps to a zero
    pseudoinverse.

    A stack of two or more rows goes through a single batched SVD.  One
    row a has one singular value, |a|, so its pseudoinverse is a^T / |a|^2
    in closed form; it is computed from a / max|a|, so rows from 1e-300 to
    1e300 neither overflow nor underflow.  The truncation rule is the
    SVD's: the result is zero when |a| = 0 or |a| < threshold * |a|.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if not np.isfinite(m).all():
        raise ValueError("matrix must be finite")
    if m.shape[-2] == 1:
        return _pinv_one_row(m, threshold)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    # exactly-zero singular values are always truncated, whatever the
    # threshold (a zero matrix thus inverts to zero); without the zeroed
    # `out` the masked divide leaves garbage
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    inv[s < threshold * s[..., :1]] = 0.0
    return (np.swapaxes(vt, -1, -2) * inv[..., None, :]) @ np.swapaxes(u, -1, -2)


def _pinv_one_row(m, threshold):
    """pinv_truncated of finite one-row matrices (..., 1, d)."""
    scale = np.abs(m).max(axis=-1, keepdims=True, initial=0.0)
    keep = scale > 0
    b = np.divide(m, scale, out=np.zeros_like(m), where=keep)
    sq = (b * b).sum(axis=-1, keepdims=True)  # |a|^2 / scale^2: 0, or in [1, d]
    # the SVD's cut, with sigma = sigma_max = |a|, taken on the scaled norm
    # (for a nonzero row it only asks whether threshold > 1)
    norm = np.sqrt(sq)
    keep &= ~(norm < threshold * norm)
    inv = np.zeros_like(m)
    np.divide(b, sq, out=inv, where=keep)
    np.divide(inv, scale, out=inv, where=keep)
    return np.swapaxes(inv, -1, -2)


def nullspace_projector(a, threshold=1e-8):
    """Projector N = I - pinv(A) A onto the null space of the row space of
    ``a`` (symmetric, idempotent): (d, d) for one matrix (k, d), or
    (..., d, d) for a stack (..., k, d).

    Accepts any rank, including zero rows (which yield the identity).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    dim_b, dim_u = a.shape[-2:]
    if dim_b > dim_u:
        raise ValueError("constraint must have at most dim_u rows")
    return np.eye(dim_u) - pinv_truncated(a, threshold) @ a


def unit_vectors_from_angles(thetas):
    """Unit vectors (m + 1, N) from hyperspherical angles (m, N): per column,
    a_i = cos(theta_i) * prod_{j<i} sin(theta_j), with the last component
    prod_j sin(theta_j)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    m, n = thetas.shape
    s, c = np.sin(thetas), np.cos(thetas)
    out = np.empty((m + 1, n))
    running = np.ones(n)
    for i in range(m):
        out[i] = c[i] * running
        running = running * s[i]
    out[m] = running
    return out


def unit_vector_angle_gradient(thetas, v):
    """g_i = sum_k v_k da_k/dtheta_i, shape (m, N), for angles (m, N) and
    weights v (m + 1, N): the gradient of a(theta) . v per column, by one
    backward pass g_i = (c_i * tail_i - s_i * v_i) * prod_{j<i} s_j, where
    tail_{m-1} = v_m and tail_{i-1} = c_i * v_i + s_i * tail_i."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    m = thetas.shape[0]
    s, c = np.sin(thetas), np.cos(thetas)
    grad = np.empty_like(thetas)
    tail = v[m]
    for i in range(m - 1, -1, -1):
        grad[i] = c[i] * tail - s[i] * v[i]
        if i:
            tail = c[i] * v[i] + s[i] * tail
    if m > 1:  # the sine product of angle 0 is empty
        grad[1:] *= np.cumprod(s[:-1], axis=0)
    return grad


def orthogonal_complement_rotation(rows):
    """Rows completing the given orthonormal rows to a full orthonormal
    basis of R^dim: (k, dim) -> (dim - k, dim), or a stack (..., k, dim)
    -> (..., dim - k, dim) through one batched SVD.

    With no rows (k = 0) the complement is the identity, the frame the SVD
    returns for an empty matrix; it is given as a read-only broadcast.

    Raises if the input rows are not orthonormal.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    k, dim = rows.shape[-2:]
    if k > dim:
        raise ValueError("more rows than the space dimension")
    gram = rows @ np.swapaxes(rows, -1, -2)
    if np.max(np.abs(gram - np.eye(k)), initial=0.0) > 1e-9:
        raise ValueError("rows are not orthonormal")
    if k == 0:
        return np.broadcast_to(np.eye(dim), rows.shape[:-2] + (dim, dim))
    _, _, vt = np.linalg.svd(rows, full_matrices=True)
    return vt[..., k:, :]


def pairwise_sq_distances(aset, bset):
    """Squared Euclidean distances between columns: entry (i, j) is
    ||a_i - b_j||^2 for aset (d, m), bset (d, n)."""
    aset = np.atleast_2d(np.asarray(aset, dtype=float))
    bset = np.atleast_2d(np.asarray(bset, dtype=float))
    if aset.shape[0] != bset.shape[0]:
        raise ValueError("point sets must share their dimension")
    sq = (aset ** 2).sum(axis=0)[:, None] + (bset ** 2).sum(axis=0)[None, :]
    sq -= 2.0 * aset.T @ bset
    return np.maximum(sq, 0.0)


def kmeans_centers(x, n_centers, seed=0, max_iter=100):
    """Lloyd's K-means on the columns of x (dim, N) -> centers (dim, G).

    n_centers must be an integer in [1, N] and x must be finite.  Seeding is greedy
    farthest-point from a seeded RNG, so results are reproducible.  Each
    Lloyd iteration assigns every sample to its nearest center (distances
    as in :func:`pairwise_sq_distances`, ties to the lower index) and stops
    once no assignment changes, or after max_iter iterations.

    A cluster's new center is, per coordinate, the sum of its members
    added one at a time in sample order starting from 0, divided by the
    member count.  For dim >= 2 that is bit for bit what
    ``x[:, members].mean(axis=1)`` gives; for dim = 1 numpy's mean sums
    pairwise, so the two can differ in the last bits.  A cluster left
    empty is re-seeded at the sample farthest from its nearest center of
    that iteration (the lowest such index); several empty clusters in one
    iteration all take that sample.

    An iteration recomputes the distances of only those samples whose
    nearest center can change (Hamerly-style bounds), yet assigns every
    sample exactly as a loop over all samples would:

    - Every center lies in the hull of the samples, so a computed squared
      distance is within eps = 4e-10 * max|x|^2 of the exact one (its
      rounding error is below about 4 (dim + 2) 2^-53 max|x|^2).
    - Each sample keeps one bound, ``gap``: at most the amount by which
      its exact distance (not squared) to any other center exceeds the
      one to its own, less 2 sqrt(2 eps).  A recomputed sample sets it
      from its computed best and second-best squared distances, widened
      by eps; after the centers move it drops by the shift of the
      sample's center plus the largest shift (triangle inequality).
    - A sample is skipped only while gap > 0.  Every other center is then
      farther by more than sqrt(2 eps), so its squared distance exceeds
      the sample's own by more than 2 eps, and the computed distances
      keep the sample where it is; half the margin absorbs the rounding
      of the bounds themselves.  A skipped sample thus keeps the argmin
      the full loop would compute, and the centers are the same bit for
      bit.
    - The product ``2 x^T c`` is still formed for all samples, as a
      product over some rows need not give the bits of the same rows of
      the whole product; the other terms are formed only for the
      candidates (their count rounded up to a multiple of
      KMEANS_ROW_STEP), in blocks of KMEANS_BLOCK_ROWS rows.  The loop stops
      when no recomputed sample changes its center, and an empty
      cluster's reseed reads every sample's nearest distance from that
      product.

    At a large offset (say 1e6 on unit-scale data) eps exceeds the spread
    of the distances and every sample stays a candidate: correct, but no
    faster.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dim, n = x.shape
    _number("n_centers", n_centers, integer=True, ge=1, le=n)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    rng = np.random.default_rng(seed)

    chosen = [int(rng.integers(n))]
    d2 = pairwise_sq_distances(x, x[:, chosen])[:, 0]
    while len(chosen) < n_centers:
        d2[chosen] = -1.0  # never re-pick a selected sample
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, pairwise_sq_distances(x, x[:, [nxt]])[:, 0])
    centers = x[:, chosen].copy()

    # the sample terms of pairwise_sq_distances(x, centers), computed once
    xx = (x ** 2).sum(axis=0)
    x2t = 2.0 * x.T
    # the floor keeps eps above the absolute rounding of subnormal values
    eps = KMEANS_DISTANCE_ERROR * max(float(xx.max()), np.finfo(float).tiny)
    margin = 2.0 * np.sqrt(2.0 * eps)
    assign = np.zeros(n, dtype=np.intp)
    gap = np.full(n, -np.inf)  # no bound yet: every sample is a candidate
    # buffers for the product, a block's distances and its rows of the
    # product, and the candidate indices: no iteration allocates an array
    # sized by its candidate count, which fragments the heap
    prod = np.empty((n, n_centers))
    d2_buf = np.empty((min(n, KMEANS_BLOCK_ROWS), n_centers))
    prod_buf = np.empty_like(d2_buf)
    sample_ids = np.arange(n)
    rows_buf = np.empty(n, dtype=np.intp)
    for it in range(max_iter):
        cc = (centers ** 2).sum(axis=0)
        # the whole product, even for a few candidates: a product over a
        # subset of rows need not give the same bits as those rows of this one
        np.matmul(x2t, centers, out=prod)
        changed = False
        cand = ~(gap > 0.0)  # NaN (overflowing x) is a candidate
        count = np.count_nonzero(cand)
        # the candidates, padded to a multiple of KMEANS_ROW_STEP (or to N)
        # with copies of the last one (recomputing a sample twice is harmless)
        rows = rows_buf[:min(count + -count % KMEANS_ROW_STEP, n)]
        np.compress(cand, sample_ids, out=rows[:count])
        rows[count:] = rows[:count][-1:]
        for start in range(0, rows.size, KMEANS_BLOCK_ROWS):
            blk = rows[start:start + KMEANS_BLOCK_ROWS]
            d2 = np.add(xx[blk, None], cc, out=d2_buf[:blk.size])
            d2 -= np.take(prod, blk, axis=0, out=prod_buf[:blk.size])
            np.maximum(d2, 0.0, out=d2)
            new = np.argmin(d2, axis=1)
            changed = changed or not np.array_equal(new, assign[blk])
            assign[blk] = new
            best = d2[sample_ids[:blk.size], new]
            d2[sample_ids[:blk.size], new] = np.inf
            second = d2[:, 0].copy()
            for k in range(1, n_centers):
                np.minimum(second, d2[:, k], out=second)
            gap[blk] = (np.sqrt(np.maximum(second - eps, 0.0))
                        - np.sqrt(best + eps) - margin)
        if it and not changed:
            break
        counts = np.bincount(assign, minlength=n_centers)
        divisor = np.maximum(counts, 1)
        old = centers.copy()
        for k in range(dim):
            centers[k] = np.bincount(assign, weights=x[k], minlength=n_centers) / divisor
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # every sample's distance to its nearest center, from this
            # iteration's product: skipped samples kept their nearest center
            near = xx + cc[assign] - prod[sample_ids, assign]
            centers[:, empty] = x[:, [int(np.argmax(np.maximum(near, 0.0)))]]
        shift = np.sqrt(((centers - old) ** 2).sum(axis=0))
        gap -= shift[assign] + shift.max()
    return centers


def rbf_design(xs, centers, width):
    """Feature matrix (G, N) for states xs (dim, N); width is finite and > 0."""
    _number("width", width, gt=0)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    return np.exp(-pairwise_sq_distances(centers, xs) / (2.0 * width))


def rbf_width_from_centers(centers, fallback=1.0):
    """Shared squared length-scale: (mean pairwise center distance)^2.

    The mean runs over the full distance matrix including its zero
    diagonal.  Degenerate layouts (single center, coincident centers)
    fall back to ``fallback``.
    """
    d = np.sqrt(pairwise_sq_distances(centers, centers))
    width = float(d.mean()) ** 2
    return width if width > 0 else fallback


def rbf_basis(xs, num_basis, seed=0, name="num_basis"):
    """The basis every RBF learner builds over its states xs (dim, N):
    K-means centers (dim, num_basis) and their shared width.  It takes an
    integer 1 <= num_basis <= N, named ``name`` in its errors.

    Returns (centers, width).
    """
    _number(name, num_basis, integer=True, ge=1, le=xs.shape[1])
    centers = kmeans_centers(xs, num_basis, seed=seed)
    return centers, rbf_width_from_centers(centers)


def ridge_regression(design, targets, regularization=1e-8):
    """Weights W minimizing ||targets - W design||^2 + reg ||W||^2 for a
    design matrix (F, N) and targets (d, N); returns (d, F)."""
    b = np.atleast_2d(np.asarray(design, dtype=float))
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    gram = b @ b.T + regularization * np.eye(b.shape[0])
    return np.linalg.solve(gram, b @ t.T).T


# ---------------------------------------------------------------------------
# damped least squares
# ---------------------------------------------------------------------------

@dataclass
class LmProblem:
    """A nonlinear least-squares problem: residual r(p), initial
    parameters, options and the analytic Jacobian J(p), which only the
    default ``normal_equations`` reads.  No learner passes one (alpha and
    ncl override it); it stays as public API, and perfbench's tracer
    rebuilds problems, this field included, with ``dataclasses.replace``.
    A solve whose best objective is still above ``abandon_above`` after
    ABANDON_AFTER iterations is given up (see :func:`lm_solve`)."""

    residual: Callable[[np.ndarray], np.ndarray]
    p0: np.ndarray
    jacobian: Callable[[np.ndarray], np.ndarray] = None
    options: LearnOptions = field(default_factory=LearnOptions)
    abandon_above: float = np.inf

    def normal_equations(self, p, r):
        """The Gauss-Newton system (J'J, J'r) at p, whose residual is r,
        from ``jacobian(p)``; a problem with a cheaper route overrides it."""
        if self.jacobian is None:
            raise ValueError("LmProblem needs a jacobian unless it overrides normal_equations")
        j = np.atleast_2d(np.asarray(self.jacobian(p), dtype=float))
        if j.shape != (r.size, p.size):
            raise ValueError(f"jacobian shape {j.shape} inconsistent with "
                             f"({r.size}, {p.size})")
        return j.T @ j, j.T @ r


def lm_solve(problem: LmProblem):
    """Minimize ||r(p)||^2 by Levenberg-Marquardt damping of the normal
    equations: (J'J + lam diag(J'J)) step = -J'r.

    The system (J'J, J'r) and its damping diagonal come from
    ``problem.normal_equations`` once per point: at the start and after
    each accepted step.  A rejected step only raises lam and solves the
    same system again.

    lam shrinks x0.1 after an accepted step and grows x10 after a
    rejection; the objective never increases across accepted steps.
    Terminates when the accepted step norm drops below tol_x, on max_iter,
    or with reason ``fun-tol`` when an accepted step's improvement drops
    below tol_fun, or when both its actual reduction E - E_new and the
    reduction s'Hs + 2 lam s'Ds its damped model predicted are at most
    LM_FTOL * E (MINPACK's relative test, blind to the objective's scale;
    H and D are the system and damping in hand, so it needs no solve).
    When lam exceeds LAMBDA_MAX no damped step improves the objective any
    more: the solve stops with reason ``stalled`` (not converged, best
    point returned).  At iteration ABANDON_AFTER a solve whose best objective is
    still above ``problem.abandon_above`` stops with reason ``abandoned``
    (not converged, best point returned); the default bound, inf, never
    does.

    Returns (p_best, LearnReport).
    """
    opts = problem.options
    p = np.asarray(problem.p0, dtype=float).ravel().copy()
    r = np.atleast_1d(np.asarray(problem.residual(p), dtype=float)).ravel()
    if r.size == 0:
        raise ValueError("residual is empty")
    if not np.isfinite(r).all():
        raise ValueError("residual is not finite at the initial point")

    def system(q, res):
        h, g = problem.normal_equations(q, res)
        return h, g, np.diag(np.maximum(np.diag(h), 1e-14))

    h, g, damp = system(p, r)
    energy = float(r @ r)
    lam = 1e-3
    converged = False
    reason = "max-iter"
    iterations = 0

    for iterations in range(1, opts.max_iter + 1):
        try:
            step = np.linalg.solve(h + lam * damp, -g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(h + lam * damp, -g, rcond=None)[0]
        p_new = p + step
        r_new = np.atleast_1d(np.asarray(problem.residual(p_new), dtype=float)).ravel()
        e_new = float(r_new @ r_new) if np.isfinite(r_new).all() else np.inf

        if e_new <= energy:
            gain = energy - e_new
            predicted = step @ (h @ step) + 2.0 * lam * (step @ (damp @ step))
            small = LM_FTOL * energy
            p, r, energy = p_new, r_new, e_new
            lam = max(lam * 0.1, 1e-15)
            if np.linalg.norm(step) < opts.tol_x:
                converged, reason = True, "x-tol"
                break
            if gain < opts.tol_fun or (gain <= small and predicted <= small):
                converged, reason = True, "fun-tol"
                break
            h, g, damp = system(p, r)
        else:
            lam *= 10.0
            if lam > LAMBDA_MAX:
                reason = "stalled"
                break
        if iterations == ABANDON_AFTER and energy > problem.abandon_above:
            reason = "abandoned"
            break

    report = LearnReport(
        nmse=0.0, mse=energy / r.size, variance=0.0,
        iterations=iterations, final_objective=energy,
        converged=converged, reason=reason,
    )
    return p, report
