"""Learning constraint matrices from null-space-only observations.

Observed actions are assumed to satisfy u = N u for the (unknown)
null-space projector N of the constraint, so a candidate constraint row
is scored by how much observation energy it captures: a correct row is
orthogonal to every observation.  Rows are recovered greedily, each new
row taken inside the orthogonal complement of the rows already found,
while one scale-free rule (:func:`_row_kept`) keeps them.

A constant constraint has that optimum in closed form: the smallest
eigenvectors of T T^T, for T = u (nhat) or, for a constant selection
over a feature matrix such as a Jacobian, T = Phi_hat u (lambda).  The
state-dependent rows of alpha (dim_b < dim_u), with RBF angles, are found
by eigen seeds refined by damped least squares (:class:`_RowProblem`).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (UNCONVERGED_REASONS, LearnOptions, LearnReport, _finite_samples, _freeze_basis,
                   _basis_dim_x, _frozen_finite, _number)
from .datagen import TwoLinkArm
from .mathkit import (
    LmProblem,
    _PointTerms,
    angle_gradient_from_sin_cos,
    lm_solve,
    nullspace_projector,
    orthogonal_complement_rotation,
    pinv_truncated,
    rbf_basis,
    rbf_design,
    ridge_regression,
    unit_vectors_from_angles,
    unit_vectors_from_sin_cos,
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


@dataclass(frozen=True)
class _Identity:
    """fn of identity:DIM, equal by value (as every registered fn is)."""

    dim_u: int

    def __call__(self, xs):
        return np.broadcast_to(np.eye(self.dim_u), (xs.shape[1], self.dim_u, self.dim_u))


@dataclass(frozen=True)
class _TwoLinkJacobian:
    """fn of twolink-jacobian:L1,L2; arm.jacobian is looked up at each call."""

    arm: TwoLinkArm

    def __call__(self, xs):
        return self.arm.jacobian(xs)


def identity_features(dim_u) -> FeatureMatrixProvider:
    return FeatureMatrixProvider(name=f"identity:{dim_u}", dim_phi=dim_u, dim_u=dim_u,
                                 fn=_Identity(dim_u))


def twolink_jacobian_features(l1=1.0, l2=1.0) -> FeatureMatrixProvider:
    l1, l2 = float(l1), float(l2)
    return FeatureMatrixProvider(name=f"twolink-jacobian:{l1},{l2}", dim_phi=2, dim_u=2,
                                 fn=_TwoLinkJacobian(TwoLinkArm(l1, l2)))


def feature_provider_from_name(name) -> FeatureMatrixProvider:
    """Rebuild a provider from its registry name (used when loading
    serialized selection models): ``identity:DIM`` with an integer
    DIM >= 1, or ``twolink-jacobian:L1,L2`` with finite link lengths > 0.
    Any other name, or one that is not a string, is a ValueError."""
    if not isinstance(name, str):
        raise ValueError(f"feature provider name must be a string, got {name!r}")
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


# ---------------------------------------------------------------------------
# state-independent constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateIndependentConstraint:
    """Constant constraint rows that are orthonormal (to within 1e-9).
    Learned rows carry a canonical sign: their first non-negligible
    component is positive.

    Without ``features`` (kind "nhat") the rows (dim_b, dim_u), 1 <= dim_b
    < dim_u, are the constraint.  With a feature provider, or its name in
    :func:`feature_provider_from_name` (kind "lambda"), the rows (dim_b,
    dim_phi), 1 <= dim_b <= dim_phi, select within its row-normalized
    feature matrix: the constraint is A(x) = rows Phi_hat(x).
    """

    rows: np.ndarray
    features: Optional[FeatureMatrixProvider] = None

    def __post_init__(self):
        if not isinstance(self.features, (FeatureMatrixProvider, type(None))):
            object.__setattr__(self, "features", feature_provider_from_name(self.features))
        rows = _frozen_finite("rows", self.rows, 2)
        shape = "a (dim_b, dim_u) matrix with 1 <= dim_b < dim_u"
        # no axis is empty, so 1 <= dim_b holds
        fits = len(rows) < rows.shape[1]
        if self.features is not None:
            dim_phi = self.features.dim_phi
            shape = (f"a (dim_b, dim_phi) matrix with 1 <= dim_b <= dim_phi = {dim_phi} "
                     f"for feature provider {self.features.name!r}")
            fits = rows.shape[1] == dim_phi and len(rows) <= dim_phi
        if not fits:
            raise ValueError(f"rows must be {shape}, got shape {rows.shape}")
        if np.max(np.abs(rows @ rows.T - np.eye(len(rows)))) > 1e-9:
            raise ValueError("rows must be orthonormal")
        object.__setattr__(self, "rows", rows)

    @property
    def kind(self):
        return "nhat" if self.features is None else "lambda"

    @property
    def dim_b(self):
        return self.rows.shape[0]

    @property
    def dim_u(self):
        return self.rows.shape[1] if self.features is None else self.features.dim_u

    # nhat reads no state, and a feature provider checks the states it is given
    dim_x = None

    def projector(self):
        """The one null-space projector of an nhat model."""
        if self.features is not None:
            raise ValueError("a lambda model has one projector per state: use projector_stack")
        return nullspace_projector(self.rows)

    def projector_stack(self, xs):
        """Null-space projectors at states xs (dim_x, N), shape (N, dim_u,
        dim_u); for nhat a read-only broadcast of its one projector."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if self.features is None:
            return np.broadcast_to(self.projector(), (xs.shape[1], self.dim_u, self.dim_u))
        return nullspace_projector(self.rows @ _normalized_rows(self.features.stack(xs)))

    metrics = _constraint_metrics


def _row_limit(dim, dim_b):
    """The most rows a learner keeps in dimension ``dim``: a fixed dim_b,
    an integer 1 <= dim_b <= dim (an error naming it otherwise), or dim - 1."""
    limit = dim - 1 if dim_b is None else _number("dim_b", dim_b, integer=True, ge=1, le=dim)
    if limit < 1:
        raise ValueError(f"cannot learn {limit} constraint row(s) in selection "
                         f"dimension {dim} (dim_b={dim_b})")
    return limit


def _learn_constant(u, dim_b, phi_hat=None):
    """The closed-form row learner of nhat and lambda (Rayleigh-Ritz) on
    the targets T: the observations u (dim_u, N), or their images under
    the row-normalized feature matrices ``phi_hat`` (N, dim_phi, dim_u).

    For T T^T = V L V^T, L ascending, the greedy optimum's row s is column
    s of V; it captures e_s = |v_s^T T|^2, L_s up to rounding.  Up to
    :func:`_row_limit` rows are kept while :func:`_row_kept` holds for
    e_s, E_s = e_s + ... + e_last and f_s = dim - s (all, for a fixed
    ``dim_b``); a first row not kept is returned with the note
    ``no-constraint-found``.  Rows carry the canonical sign.

    Returns (rows, a closed-form LearnReport): its ``objective_trace``
    holds the kept e_s, its ``final_objective`` the exact projection
    energy of rows @ Phi_hat, whose rows are not orthonormal.
    """
    target = u
    if phi_hat is not None:
        # C-ordered (dim_phi, N) like every vector: a sum over a whole
        # array rounds in memory order
        target = np.ascontiguousarray((phi_hat @ u.T[:, :, None])[:, :, 0].T)
    dim = target.shape[0]
    limit = _row_limit(dim, dim_b)
    vec = np.linalg.eigh(target @ target.T)[1]
    energy = ((vec.T @ target) ** 2).sum(axis=1)
    k = 0 if dim_b is None else dim_b
    while k < limit and _row_kept(energy[k], energy[k:].sum(), dim - k):
        k += 1
    rows = np.array([_canonical_sign(row) * row for row in vec[:, :max(k, 1)].T])
    final = _exact_projection_energy(rows[None] if phi_hat is None else rows @ phi_hat, u)
    report = LearnReport.from_errors(
        mse=final / u.shape[1], variance=total_variance(u), iterations=0, final_objective=final,
        converged=True, reason="closed-form", objective_trace=tuple(energy[:k].tolist()),
        notes=() if k else ("no-constraint-found",))
    return rows, report


def _row_kept(e, E, f):
    """Keep a row capturing the energy e of the E that its complement's f
    directions hold while e <= ROW_ACCEPT_RATIO * (E - e) / (f - 1): at
    most that share of the mean energy of each direction it leaves."""
    return e * (f - 1) <= ROW_ACCEPT_RATIO * (E - e)


def _observations(w_obs, xs=None):
    """Finite, not all-zero observations (dim_u, N), N >= dim_u, and states (dim_x, N)."""
    u = _finite_samples("observations", w_obs)
    if xs is not None:
        xs = _finite_samples("states", xs)
        if xs.shape[1] != u.shape[1]:
            raise ValueError("states and observations disagree on sample count")
    if u.shape[1] < u.shape[0]:
        raise ValueError(f"need at least dim_u={u.shape[0]} samples, got {u.shape[1]}")
    if np.max(np.abs(u)) == 0.0:
        raise ValueError("all-zero observations: constraint unidentifiable")
    return u, xs


def learn_nhat(w_obs):
    """Fit a constant constraint to null-space observations (dim_u, N):
    the smallest eigenvectors of u u^T (see :func:`_learn_constant`).
    Returns (StateIndependentConstraint, LearnReport)."""
    u, _ = _observations(w_obs)
    rows, report = _learn_constant(u, None)
    return StateIndependentConstraint(rows=rows), report


def learn_lambda(w_obs, xs, phi: FeatureMatrixProvider, *, dim_b=None):
    """Fit a constant selection Lambda over a feature matrix Phi(x), such
    as a manipulator Jacobian: the constraint A(x) = Lambda Phi_hat(x),
    Phi_hat row-normalized.  Lambda's rows are the smallest eigenvectors
    of T T^T for T = Phi_hat u (see :func:`_learn_constant`); ``dim_b``
    (at most dim_phi) fixes their number.  A selection that varies with
    the state is not learned.  Returns (StateIndependentConstraint of
    kind "lambda", LearnReport)."""
    u, xs = _observations(w_obs, xs)
    if phi.dim_u != u.shape[0]:
        raise ValueError(f"feature provider {phi.name!r} has dim_u {phi.dim_u}, "
                         f"but the observations have dim_u {u.shape[0]}")
    mats = phi.stack(xs)
    dead = np.flatnonzero(np.abs(mats).max(axis=(1, 2)) < 1e-12)
    if dead.size:
        raise ValueError(f"feature matrix has rank 0 at sample {dead[0]}")
    rows, report = _learn_constant(u, dim_b, _normalized_rows(mats))
    return StateIndependentConstraint(rows=rows, features=phi), report


# ---------------------------------------------------------------------------
# state-dependent constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateDependentConstraintModel:
    """Constraint rows (kind "alpha"), 1 <= dim_b < dim_u, whose angles are
    RBF functions of the state, theta_s(x) = omega_s beta(x), with beta the
    Gaussian features of ``centers`` (dim_x, G) and ``width``; each row
    lies in the complement of the earlier ones, so row s has dim_u - 1 - s
    angles: ``omegas[s]`` is (dim_u - 1 - s, G).  ``signs`` are per-row
    flips (+1 or -1) making the first non-negligible component positive at
    the training reference state."""

    omegas: tuple
    signs: tuple
    centers: np.ndarray
    width: float

    kind = "alpha"

    def __post_init__(self):
        omegas = tuple(_frozen_finite("omegas", o, 2) for o in self.omegas)
        if not omegas:
            raise ValueError("an alpha constraint holds at least one row")
        object.__setattr__(self, "omegas", omegas)
        _freeze_basis(self)
        signs = _frozen_finite("signs", self.signs, 1)
        if signs.shape != (len(omegas),) or not np.isin(signs, (-1.0, 1.0)).all():
            raise ValueError(f"signs must be one +1 or -1 per row, got {signs.tolist()}")
        object.__setattr__(self, "signs", tuple(float(s) for s in signs))
        if len(omegas) >= self.dim_u:
            raise ValueError(f"an alpha constraint holds 1 <= dim_b < dim_u rows, got "
                             f"{len(omegas)} in action dimension {self.dim_u}")
        g = self.centers.shape[1]
        for s, om in enumerate(omegas):
            if om.shape != (self.dim_u - 1 - s, g):
                raise ValueError(f"row {s + 1} weight matrix has shape {om.shape}, "
                                 f"expected {(self.dim_u - 1 - s, g)}")

    @property
    def dim_b(self):
        return len(self.omegas)

    @property
    def dim_u(self):
        return len(self.omegas[0]) + 1

    dim_x = _basis_dim_x

    def constraint_stack(self, xs):
        """Materialized constraint rows A(x) at states xs (dim_x, N),
        shape (N, dim_b, dim_u), each row in the complement of the earlier
        ones."""
        bx = rbf_design(np.atleast_2d(np.asarray(xs, dtype=float)), self.centers, self.width)
        rows = np.empty((bx.shape[1], 0, self.dim_u))
        for om, sg in zip(self.omegas, self.signs):
            row = sg * _rows_in_frames(om, orthogonal_complement_rotation(rows), bx)
            rows = np.concatenate([rows, row[:, None]], axis=1)
        return rows

    def projector_stack(self, xs):
        """Null-space projectors at states xs (dim_x, N), shape (N, dim_u, dim_u)."""
        return nullspace_projector(self.constraint_stack(xs))

    metrics = _constraint_metrics


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


def _rows_in_frames(omega, frames, bx):
    """Rows (N, dim) whose local angles omega @ beta(x) are taken in the
    per-sample frames (N, f, dim) of the complement of the earlier rows
    (see :func:`orthogonal_complement_rotation`)."""
    return np.einsum("fn,nfj->nj", unit_vectors_from_angles(omega @ bx), frames)


@dataclass
class _RowProblem(LmProblem):
    """One state-dependent row (:func:`_row_problem`).  Sample n's Jacobian
    row is g_n (x) beta_n, g_n the angle gradient of its residual, so with
    jw = g (.) beta stacked over the angles, (n_ang G, N), the Gauss-Newton
    system is (jw jw', jw r): the problem has no ``jacobian``.  The system
    takes the sines and cosines of its angles from ``terms`` when the
    residual last ran at the same point."""

    bx: np.ndarray = None
    u_rot: np.ndarray = None
    terms: _PointTerms = None

    def normal_equations(self, p, r):
        grad = angle_gradient_from_sin_cos(*self.terms.at(p), self.u_rot)
        jw = (grad[:, None, :] * self.bx).reshape(-1, self.bx.shape[1])
        return jw @ jw.T, jw @ r


def _row_problem(bx, u_rot, p0, options=None):
    """One row's angle weights (n_ang G,) from p0: the residual of sample n
    is a(omega beta_n) . u_rot_n.  A row's later starts replace p0 and
    keep this one residual closure and its ``terms``."""
    def sin_cos(wvec):
        theta = wvec.reshape(-1, len(bx)) @ bx
        return np.sin(theta), np.cos(theta)

    terms = _PointTerms(sin_cos)

    def residual(wvec):
        return (unit_vectors_from_sin_cos(*terms.evaluate(wvec)) * u_rot).sum(axis=0)

    return _RowProblem(residual=residual, p0=p0, options=options or LearnOptions(),
                       bx=bx, u_rot=u_rot, terms=terms)


def learn_alpha(w_obs, xs, options: Optional[LearnOptions] = None,
                num_basis=16, dim_b=None):
    """Fit a state-dependent constraint in action space: a shared RBF basis
    (K-means centers, mean-center-distance width), then each row's angle
    weights by multi-start damped least squares (:func:`_learn_rows`);
    ``dim_b`` < dim_u fixes the row count.  Returns
    (StateDependentConstraintModel, LearnReport)."""
    opts = options or LearnOptions()
    u, xs = _observations(w_obs, xs)
    dim_u, n = u.shape
    if _row_limit(dim_u, dim_b) == dim_u:
        raise ValueError(f"cannot learn {dim_b} state-dependent constraint row(s) in action "
                         f"dimension {dim_u}: they leave no null space (1 <= dim_b < dim_u)")
    if float(np.ptp(xs, axis=1).max(initial=0.0)) < 1e-12:
        raise ValueError("state variation degenerate: all states identical")

    centers, width = rbf_basis(xs, num_basis, opts.rng_seed)
    bx = rbf_design(xs, centers, width)
    omegas, signs, rows, fit = _learn_rows(bx, u, dim_b, opts)
    model = StateDependentConstraintModel(
        omegas=tuple(omegas), signs=tuple(signs), centers=centers, width=width)
    # the rows the loop accepted are the model's constraint stack on xs
    final = _exact_projection_energy(rows, u)
    report = LearnReport.from_errors(mse=final / n, variance=total_variance(u),
                                     final_objective=final, **fit)
    return model, report


def _learn_rows(bx, u, dim_b, opts):
    """The greedy row loop of alpha on observations u (dim, N).

    Row s is searched inside the per-sample complement of the rows
    accepted so far, whose f_s = dim - s directions hold the energy E_s of
    u; its local angles are omega @ bx.  Its ``opts.num_restarts`` starts
    are the smallest eigenvector of the rotated moments u_rot u_rot^T
    (:func:`_eigen_seed`) as constant angles mapped into weight space by
    ridge fit, zero weights, then random weights.  A start after a row's
    first is abandoned if it still trails RESTART_GAP times the row's best
    fit after ABANDON_AFTER iterations.  Up to :func:`_row_limit` rows are
    kept while :func:`_row_kept` holds for the best fit's e_s, E_s and f_s
    (all, for a fixed ``dim_b`` < dim); a first row not kept is returned
    with the note ``no-constraint-found``.

    Returns (omegas, signs, the accepted rows (N, dim_b, dim), LearnReport
    fields).
    """
    dim, n = u.shape
    limit = _row_limit(dim, dim_b)
    rng = np.random.default_rng(opts.rng_seed)
    rows_stack = np.empty((n, 0, dim))
    omegas, signs, notes = [], [], ()
    kept, records = [], []  # the best fit of each row kept; one record per start

    for s in range(limit):
        frames = orthogonal_complement_rotation(rows_stack)
        # summed by numpy's reduction, not einsum, whose rounding of a 4-D
        # fit differs in the last bit; C-ordered (f, N) like u
        u_rot = np.ascontiguousarray((frames * u.T[:, None, :]).sum(axis=-1).T)
        theta = _eigen_seed(u_rot @ u_rot.T)
        problem = _row_problem(bx, u_rot, ridge_regression(
            bx, np.full((theta.size, n), theta[:, None]), opts.regularization).ravel(), opts)
        for k in range(opts.num_restarts):
            if k:
                w0 = np.zeros(sol.size) if k == 1 else rng.normal(0.0, 0.4, sol.size)
                problem = replace(problem, p0=w0, abandon_above=RESTART_GAP * fit.final_objective)
            p, rep = lm_solve(problem)
            records.append(dict(row=s, start=k, iterations=rep.iterations,
                                objective=rep.final_objective, reason=rep.reason))
            if k == 0 or rep.final_objective < fit.final_objective:
                sol, fit = p, rep
        omega = sol.reshape(theta.size, -1)

        accepted = dim_b is not None or _row_kept(fit.final_objective,
                                                  float((u_rot ** 2).sum()), u_rot.shape[0])
        if not accepted and s > 0:
            break
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

    # the first of these stops that a kept start reports
    stops = {rep.reason for rep in kept}
    reason = next((stop for stop in UNCONVERGED_REASONS + ("x-tol",) if stop in stops), "fun-tol")
    return omegas, signs, rows_stack, dict(
        iterations=sum(rec["iterations"] for rec in records),
        converged=all(rep.converged for rep in kept), reason=reason, notes=notes,
        objective_trace=() if notes else tuple(rep.final_objective for rep in kept),
        starts=tuple(records))


def _exact_projection_energy(a, u):
    """Sum over samples of the observation energy u (dim_u, N) inside the
    row space of the constraint rows a, an (N, k, dim_u) stack or one
    (1, k, dim_u) for every sample, via the truncated pseudoinverse."""
    ut = u.T[:, :, None]
    energy = np.swapaxes(ut, 1, 2) @ (pinv_truncated(a) @ a) @ ut
    return max(0.0, float(energy.sum()))
