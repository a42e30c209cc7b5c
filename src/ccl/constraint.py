"""Learning constraint matrices from null-space-only observations.

Observed actions are assumed to satisfy u = N u for the (unknown)
null-space projector N of the constraint, so a candidate constraint row
is scored by how much observation energy it captures: a correct row is
orthogonal to every observation.  Rows are recovered greedily, each new
row taken inside the orthogonal complement of the rows already found,
while one scale-free rule (:func:`_row_kept`) keeps them.

A constant constraint has that optimum in closed form: the smallest
eigenvectors of u u^T.  State-dependent rows, whose angles are RBF
functions of the state, in action space or as a selection over a feature
matrix (for example a manipulator Jacobian), share one greedy loop of
eigen seeds refined by damped least squares.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (UNCONVERGED_REASONS, LearnOptions, LearnReport, _basis_centers, _basis_doc,
                   _declared_size, _finite_samples, _freeze_basis, _frozen_finite)
from .mathkit import (
    LmProblem,
    lm_solve,
    nullspace_projector,
    orthogonal_complement_rotation,
    pinv_truncated,
    rbf_basis,
    rbf_design,
    ridge_regression,
    unit_vector_angle_jacobians,
    unit_vectors_from_angles,
)
from .metrics import error_poe, error_ppe, total_variance

ROW_ACCEPT_RATIO = 0.01  # a kept row's energy over the mean energy of each direction it leaves
RESTART_GAP = 100.0  # a later start trailing the row's best by this factor is abandoned


# ---------------------------------------------------------------------------
# feature matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureMatrixProvider:
    """Named feature matrix Phi(x) of constant shape (dim_phi, dim_u) over
    the state space.  ``fn`` is batched: states (dim_x, N) map to the stack
    (N, dim_phi, dim_u).  The name makes learned selection models
    serializable."""

    name: str
    dim_phi: int
    dim_u: int
    fn: Callable[[np.ndarray], np.ndarray]

    def stack(self, xs):
        """Feature matrices at states xs (dim_x, N), shape (N, dim_phi, dim_u)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        phi = np.asarray(self.fn(xs), dtype=float)
        expected = (xs.shape[1], self.dim_phi, self.dim_u)
        if phi.shape != expected:
            raise ValueError(f"feature matrix stack has shape {phi.shape}, expected {expected}")
        return phi


def identity_features(dim_u) -> FeatureMatrixProvider:
    eye = np.eye(dim_u)
    return FeatureMatrixProvider(name=f"identity:{dim_u}", dim_phi=dim_u, dim_u=dim_u,
                                 fn=lambda xs: np.broadcast_to(eye, (xs.shape[1], dim_u, dim_u)))


def twolink_jacobian_features(l1=1.0, l2=1.0) -> FeatureMatrixProvider:
    from .datagen import TwoLinkArm

    arm = TwoLinkArm(l1, l2)
    return FeatureMatrixProvider(name=f"twolink-jacobian:{float(l1)},{float(l2)}",
                                 dim_phi=2, dim_u=2, fn=arm.jacobian)


def feature_provider_from_name(name) -> FeatureMatrixProvider:
    """Rebuild a provider from its registry name (used when loading
    serialized selection models): ``identity:DIM`` with an integer
    DIM >= 1, or ``twolink-jacobian:L1,L2`` with finite link lengths > 0.
    Any other name is a ValueError."""
    kind, _, args = name.partition(":")
    try:
        if kind == "identity" and int(args) >= 1:
            return identity_features(int(args))
        if kind == "twolink-jacobian":
            l1, l2 = (float(v) for v in args.split(","))
            if 0 < l1 < np.inf and 0 < l2 < np.inf:
                return twolink_jacobian_features(l1, l2)
    except ValueError:
        pass
    if kind in ("identity", "twolink-jacobian"):
        raise ValueError(f"bad feature provider {name!r} (use identity:DIM with an integer "
                         f"DIM >= 1, or twolink-jacobian:L1,L2 with finite lengths > 0)")
    raise ValueError(f"unknown feature provider {name!r}")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _canonical_sign(row, tol=1e-9):
    """+1/-1 so that the first non-negligible component comes out positive."""
    for v in row:
        if abs(v) > tol:
            return 1.0 if v > 0 else -1.0
    return 1.0


def _normalized_rows(mat):
    """Rows of a matrix or a stack of matrices scaled to unit length;
    (near-)zero rows are left as they are."""
    norms = np.linalg.norm(mat, axis=-1, keepdims=True)
    # a C-ordered result keeps the matmuls that consume it on one rounding
    # path, whatever memory layout the feature provider returned
    return np.divide(mat, norms, out=np.array(mat, dtype=float, order="C"),
                     where=norms > 1e-12)


def _constraint_metrics(model, data):
    """The metrics method of both constraint kinds: NPOE of the projected
    actions, and NPPE given the pi and w channels, as (rows, skipped)."""
    projectors = model.projector_stack(data.states)
    rows, skipped = [("NPOE", error_poe(data.actions, projectors))], []
    if data.policy is not None and data.null_component is not None:
        rows.append(("NPPE", error_ppe(data.null_component, projectors, data.policy)))
    else:
        skipped.append(("NPPE", "requires ground truth (pi and w channels)"))
    return rows, skipped


def _with_declared_rows(doc, model):
    if _declared_size(doc, "dim_b") != model.dim_b:
        raise ValueError(f"model document (kind {doc['kind']!r}) declares dim_b "
                         f"{doc['dim_b']!r} but holds {model.dim_b} rows")
    return model


# ---------------------------------------------------------------------------
# state-independent constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateIndependentConstraint:
    """Constant constraint rows (dim_b, dim_u), 1 <= dim_b < dim_u, that
    are orthonormal (to within 1e-9).  Learned rows carry a canonical
    sign: their first non-negligible component is positive."""

    rows: np.ndarray

    kind = "nhat"

    def __post_init__(self):
        rows = _frozen_finite("rows", self.rows)
        if rows.ndim != 2 or not 1 <= rows.shape[0] < rows.shape[1]:
            raise ValueError(f"rows must be a (dim_b, dim_u) matrix with 1 <= dim_b < dim_u, "
                             f"got shape {rows.shape}")
        if np.max(np.abs(rows @ rows.T - np.eye(len(rows)))) > 1e-9:
            raise ValueError("rows must be orthonormal")
        object.__setattr__(self, "rows", rows)

    @property
    def dim_b(self):
        return self.rows.shape[0]

    @property
    def dim_u(self):
        return self.rows.shape[1]

    def projector(self):
        return nullspace_projector(self.rows)

    def projector_stack(self, xs):
        """The one projector at states xs (dim_x, N), as a read-only
        (N, dim_u, dim_u) broadcast."""
        n = np.atleast_2d(xs).shape[1]
        return np.broadcast_to(self.projector(), (n, self.dim_u, self.dim_u))

    metrics = _constraint_metrics

    def to_doc(self):
        return {"dim_u": self.dim_u, "dim_b": self.dim_b, "rows": self.rows.tolist()}

    @classmethod
    def from_doc(cls, doc):
        model = cls(rows=doc["rows"])
        if _declared_size(doc, "dim_u") != model.dim_u:
            raise ValueError(f"model document (kind 'nhat') declares dim_u {doc['dim_u']!r} "
                             f"but its rows have {model.dim_u} columns")
        return _with_declared_rows(doc, model)


def _eigen_seed(m_rot):
    """Angles of the unit vector a minimizing a^T m_rot a: the eigenvector
    of the smallest eigenvalue, signed so that its last component is not
    negative (a and -a capture the same energy).  Each angle is
    theta_i = atan2(|a_{i+1:}|, a_i), so all lie in [0, pi]."""
    a = np.linalg.eigh(m_rot)[1][:, 0]
    if a[-1] < 0:
        a = -a
    tails = np.sqrt(np.cumsum(a[:0:-1] ** 2))[::-1]  # |a_{i+1:}| for i < m
    return np.arctan2(tails, a[:-1])


def _row_kept(e, E, f):
    """Keep a row capturing the energy e of the E that its complement's f
    directions hold while e <= ROW_ACCEPT_RATIO * (E - e) / (f - 1): at
    most that share of the mean energy of each direction it leaves."""
    return e * (f - 1) <= ROW_ACCEPT_RATIO * (E - e)


def learn_nhat(w_obs):
    """Fit a constant constraint to null-space observations (dim_u, N).

    In closed form (Rayleigh-Ritz): for u u^T = V L V^T, L ascending, the
    greedy optimum's row s is column s of V and captures L_s.  It is kept
    while :func:`_row_kept` holds for e = L_s, E = L_s + ... + L_{dim_u-1}
    and f = dim_u - s, for at most dim_u - 1 rows.  If even the first row
    is not kept, it is returned anyway with the note
    ``no-constraint-found``.  Rows carry the canonical sign.

    Returns (StateIndependentConstraint, LearnReport): a ``closed-form``
    report with no iterations or starts, whose ``objective_trace`` holds
    the kept eigenvalues.
    """
    u = _finite_samples("observations", w_obs)
    dim_u, n = u.shape
    if n < dim_u:
        raise ValueError(f"need at least dim_u={dim_u} samples, got {n}")
    if np.max(np.abs(u)) == 0.0:
        raise ValueError("all-zero observations: constraint unidentifiable")

    lam, vec = np.linalg.eigh(u @ u.T)
    lam = np.maximum(lam, 0.0)
    k = 0
    while k < dim_u - 1 and _row_kept(lam[k], lam[k:].sum(), dim_u - k):
        k += 1
    constraint = StateIndependentConstraint(
        rows=[_canonical_sign(row) * row for row in vec[:, :max(k, 1)].T])
    final = _exact_projection_energy(constraint.rows[None], u)
    report = LearnReport.from_errors(
        mse=final / n, variance=total_variance(u), iterations=0, final_objective=final,
        converged=True, reason="closed-form", objective_trace=tuple(lam[:k].tolist()),
        notes=() if k else ("no-constraint-found",))
    return constraint, report


# ---------------------------------------------------------------------------
# state-dependent constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateDependentConstraintModel:
    """Constraint rows whose orientation angles are RBF functions of the
    state: theta_s(x) = omega_s beta(x), with beta the Gaussian features of
    ``centers`` (dim_x, G) and the shared ``width``.

    Without ``features`` (kind "alpha") the rows live directly in action
    space; with a feature provider (kind "lambda") they select within its
    feature matrix Phi(x) (row-normalized), the effective constraint being
    A(x) = Lambda(x) Phi_normalized(x).  The selection rows are mutually
    orthonormal at every state.  ``signs`` are fixed per-row flips making
    the first non-negligible component positive at the training reference
    state.
    """

    omegas: tuple
    signs: tuple
    centers: np.ndarray
    width: float
    dim_u: int
    features: Optional[FeatureMatrixProvider] = None

    def __post_init__(self):
        if self.features is not None and self.features.dim_u != self.dim_u:
            raise ValueError(f"feature provider {self.features.name!r} acts on dim_u "
                             f"{self.features.dim_u}, the model on {self.dim_u}")
        omegas = tuple(_frozen_finite("omegas", np.atleast_2d(o)) for o in self.omegas)
        object.__setattr__(self, "omegas", omegas)
        _freeze_basis(self)
        signs = _frozen_finite("signs", self.signs)
        object.__setattr__(self, "signs", tuple(float(s) for s in signs))
        if len(self.signs) != len(omegas):
            raise ValueError("one sign per row required")
        sel, g = self.sel_dim, self.centers.shape[1]
        for s, om in enumerate(omegas):
            if om.shape != (sel - 1 - s, g):
                raise ValueError(f"row {s + 1} weight matrix has shape {om.shape}, "
                                 f"expected {(sel - 1 - s, g)}")

    @property
    def kind(self):
        return "alpha" if self.features is None else "lambda"

    @property
    def dim_b(self):
        return len(self.omegas)

    @property
    def sel_dim(self):
        return self.dim_u if self.features is None else self.features.dim_phi

    def _selection_stack(self, xs):
        """Selection rows (N, dim_b, sel_dim), each row materialized in the
        complement of the earlier ones."""
        bx = rbf_design(xs, self.centers, self.width)
        rows = np.empty((bx.shape[1], 0, self.sel_dim))
        for om, sg in zip(self.omegas, self.signs):
            row = sg * _rows_in_frames(om, orthogonal_complement_rotation(rows), bx)
            rows = np.concatenate([rows, row[:, None]], axis=1)
        return rows

    def constraint_stack(self, xs):
        """Materialized constraint rows A(x) at states xs (dim_x, N),
        shape (N, dim_b, dim_u)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        sel = self._selection_stack(xs)
        if self.features is None:
            return sel
        return sel @ _normalized_rows(self.features.stack(xs))

    def projector_stack(self, xs):
        """Null-space projectors at states xs (dim_x, N), shape (N, dim_u, dim_u)."""
        return nullspace_projector(self.constraint_stack(xs))

    metrics = _constraint_metrics

    def to_doc(self):
        return {"dim_u": self.dim_u, "dim_b": self.dim_b,
                "omegas": [om.tolist() for om in self.omegas],
                "signs": list(self.signs), "basis": _basis_doc(self.centers, self.width),
                "features": None if self.features is None else self.features.name}

    @classmethod
    def from_doc(cls, doc):
        # a basis block may still carry the dim_out: 0 and empty weights
        # that earlier writers put there; neither is read
        basis = doc["basis"]
        omegas = tuple(np.asarray(om).reshape(-1, _declared_size(basis, "n_basis"))
                       for om in doc["omegas"])
        return _with_declared_rows(doc, cls(
            omegas=omegas, signs=tuple(doc["signs"]), centers=_basis_centers(basis),
            width=basis["width"], dim_u=_declared_size(doc, "dim_u"),
            features=_features_from_doc(doc)))


def _features_from_doc(doc):
    """The provider a state-dependent document names, resolved once (only
    a document holds a provider's name): none for alpha, a registered
    provider for lambda."""
    name = doc["features"]
    if name is not None and not isinstance(name, str):
        raise ValueError(f"feature provider name must be a string, got {name!r}")
    if doc["kind"] == "lambda" and name is None:
        raise ValueError("lambda mode needs a feature provider name")
    if doc["kind"] == "alpha" and name is not None:
        raise ValueError(f"an alpha document names no feature provider, got {name!r}")
    return None if name is None else feature_provider_from_name(name)


def _rows_in_frames(omega, frames, bx):
    """Rows (N, sel_dim) whose local angles omega @ beta(x) are taken in
    the per-sample frames (N, f, sel_dim) of the complement of the earlier
    rows (see :func:`orthogonal_complement_rotation`)."""
    local = (np.ones((1, bx.shape[1])) if omega.shape[0] == 0
             else unit_vectors_from_angles(omega @ bx))
    return np.einsum("fn,nfj->nj", local, frames)


def _row_problem(bx, u_rot):
    """Residual/Jacobian closures for one state-dependent row: the
    residual of sample n is a(omega beta_n) . u_rot_n."""
    g, n = bx.shape
    n_ang = u_rot.shape[0] - 1

    def residual(wvec):
        om = wvec.reshape(n_ang, g)
        a = unit_vectors_from_angles(om @ bx)
        return (a * u_rot).sum(axis=0)

    def jacobian(wvec):
        om = wvec.reshape(n_ang, g)
        jac_a = unit_vector_angle_jacobians(om @ bx)
        gvec = np.einsum("kin,kn->in", jac_a, u_rot)
        return np.einsum("in,jn->nij", gvec, bx).reshape(n, n_ang * g)

    return residual, jacobian


def learn_alpha(w_obs, xs, options: Optional[LearnOptions] = None,
                num_basis=16, dim_b=None):
    """Fit a state-dependent constraint directly in action space.

    Builds a shared RBF basis (K-means centers, mean-center-distance
    width), then recovers each row's angle weights by multi-start damped
    least squares inside the per-sample complement of the earlier rows.
    ``dim_b`` fixes the number of rows; when None, rows are added by the
    one accept rule of :func:`_learn_rows`.

    Returns (StateDependentConstraintModel, LearnReport).
    """
    return _learn_state_dependent(w_obs, xs, None, options, num_basis, dim_b)


def learn_lambda(w_obs, xs, phi: FeatureMatrixProvider,
                 options: Optional[LearnOptions] = None,
                 num_basis=16, dim_b=None):
    """Fit a state-dependent selection over a feature matrix.

    Observations are mapped through the row-normalized feature matrix
    (u -> Phi_hat(x) u) and the selection rows are learned in that space
    with the same greedy scheme as :func:`learn_alpha`; the reported
    objective is evaluated on the exact materialized constraint using the
    truncated pseudoinverse.
    """
    return _learn_state_dependent(w_obs, xs, phi, options, num_basis, dim_b)


def _learn_state_dependent(w_obs, xs, phi, options, num_basis, dim_b):
    opts = options or LearnOptions()
    u = _finite_samples("observations", w_obs)
    xs = _finite_samples("states", xs)
    dim_u, n = u.shape
    if xs.shape[1] != n:
        raise ValueError("states and observations disagree on sample count")
    if n < dim_u:
        raise ValueError(f"need at least dim_u={dim_u} samples, got {n}")
    if num_basis > n:
        raise ValueError("cannot use more basis functions than samples")
    if float(np.ptp(xs, axis=1).max(initial=0.0)) < 1e-12:
        raise ValueError("state variation degenerate: all states identical")

    centers, width = rbf_basis(xs, num_basis, opts.rng_seed)
    bx = rbf_design(xs, centers, width)

    if phi is None:
        target = u
    else:
        mats = phi.stack(xs)
        dead = np.flatnonzero(np.abs(mats).max(axis=(1, 2)) < 1e-12)
        if dead.size:
            raise ValueError(f"feature matrix has rank 0 at sample {dead[0]}")
        phi_hat = _normalized_rows(mats)
        # C-ordered (dim_phi, N) like every vector: a sum over a whole
        # array rounds in memory order
        target = np.ascontiguousarray((phi_hat @ u.T[:, :, None])[:, :, 0].T)

    rng = np.random.default_rng(opts.rng_seed)

    def starts(theta):
        # first a constant-angle anchor: the eigen seed mapped into weight
        # space by ridge fit; then zero weights; then random weights
        size = theta.size * bx.shape[0]
        yield ridge_regression(bx, np.full((theta.size, n), theta[:, None]),
                               opts.regularization).ravel()
        for restart in range(1, opts.num_restarts):
            yield np.zeros(size) if restart == 1 else rng.normal(0.0, 0.4, size)

    omegas, signs, rows, fit = _learn_rows(bx, target, dim_b, starts=starts, opts=opts)
    model = StateDependentConstraintModel(
        omegas=tuple(omegas), signs=tuple(signs), centers=centers, width=width,
        dim_u=dim_u, features=phi,
    )
    # the rows the loop accepted are the model's constraint stack on xs
    final = _exact_projection_energy(rows if phi is None else rows @ phi_hat, u)
    report = LearnReport.from_errors(mse=final / n, variance=total_variance(u),
                                     final_objective=final, **fit)
    return model, report


def _learn_rows(bx, target, dim_b, starts, opts):
    """The greedy row loop of the state-dependent learners.

    Targets (sel_dim, N) are the observations in the space the rows live
    in.  Row s is searched inside the per-sample complement of the rows
    accepted so far, whose f_s = sel_dim - s directions hold the target
    energy E_s.  Its local angles are omega @ bx.  The constant row that
    captures the least energy, the smallest eigenvector of the pooled
    rotated moments u_rot u_rot^T (:func:`_eigen_seed`), goes as angles to
    ``starts(theta)``, which yields the weight vectors that damped least
    squares starts from.  Every start after a row's first is abandoned
    once it still trails RESTART_GAP times the row's best fit so far after
    ABANDON_AFTER iterations.

    A fixed ``dim_b`` keeps that many rows (at most sel_dim).  Otherwise
    at most sel_dim - 1 rows are learned, and the best fit, capturing
    e_s, is kept while :func:`_row_kept` holds for e_s, E_s and f_s.  If
    the first row is rejected, it is returned with the note
    ``no-constraint-found``.

    Returns (omegas, signs, the accepted rows (N, dim_b, sel_dim),
    LearnReport fields).
    """
    sel_dim, n = target.shape
    limit = sel_dim - 1 if dim_b is None else min(dim_b, sel_dim)
    if limit < 1:
        raise ValueError(f"no constraint row to learn: dim_b={dim_b}, "
                         f"selection dimension {sel_dim}")
    rows_stack = np.empty((n, 0, sel_dim))
    omegas, signs, trace_hist, notes = [], [], [], ()
    kept, records = [], []  # LM reports of the kept starts; one record per start

    for s in range(limit):
        frames = orthogonal_complement_rotation(rows_stack)
        # summed by numpy's reduction, not einsum, whose rounding of a 4-D
        # fit differs in the last bit; C-ordered (f, N) like the targets
        u_rot = np.ascontiguousarray((frames * target.T[:, None, :]).sum(axis=-1).T)
        n_ang = sel_dim - 1 - s

        if n_ang == 0:
            omega, fit = np.zeros((0, bx.shape[0])), None
            e_row = float((u_rot[0] ** 2).sum())
        else:
            residual, jacobian = _row_problem(bx, u_rot)
            sol = fit = None
            for k, w0 in enumerate(starts(_eigen_seed(u_rot @ u_rot.T))):
                bound = np.inf if fit is None else RESTART_GAP * fit.final_objective
                p, rep = lm_solve(LmProblem(residual=residual, p0=w0, jacobian=jacobian,
                                            options=opts, abandon_above=bound))
                records.append(dict(row=s, start=k, iterations=rep.iterations,
                                    objective=rep.final_objective, reason=rep.reason))
                if fit is None or rep.final_objective < fit.final_objective:
                    sol, fit = p, rep
            omega = sol.reshape(n_ang, bx.shape[0])
            e_row = fit.final_objective

        accepted = dim_b is not None or _row_kept(e_row, float((u_rot ** 2).sum()),
                                                  u_rot.shape[0])
        if not accepted and s > 0:
            break
        if fit is not None:
            kept.append(fit)
        # the canonical sign is fixed at the reference (first) sample
        rows = _rows_in_frames(omega, frames, bx)
        sign = _canonical_sign(rows[0])
        rows_stack = np.concatenate([rows_stack, sign * rows[:, None]], axis=1)
        omegas.append(omega)
        signs.append(sign)
        if not accepted:
            notes = ("no-constraint-found",)
            break
        trace_hist.append(e_row)

    converged = all(rep.converged for rep in kept)
    # the first of these stops that a kept start reports
    stops = {rep.reason for rep in kept}
    reason = next((stop for stop in UNCONVERGED_REASONS + ("x-tol",) if stop in stops), "fun-tol")
    return omegas, signs, rows_stack, dict(
        iterations=sum(rec["iterations"] for rec in records), converged=converged,
        reason=reason, objective_trace=tuple(trace_hist), notes=notes,
        starts=tuple(records))


def _exact_projection_energy(a, u):
    """Sum over samples of the observation energy u (dim_u, N) inside the
    row space of the constraint rows a, an (N, k, dim_u) stack or one
    (1, k, dim_u) for every sample, via the truncated pseudoinverse."""
    ut = u.T[:, :, None]
    energy = np.swapaxes(ut, 1, 2) @ (pinv_truncated(a) @ a) @ ut
    return max(0.0, float(energy.sum()))
