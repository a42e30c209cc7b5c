"""Learning constraint matrices from null-space-only observations.

Observed actions are assumed to satisfy u = N u for the (unknown)
null-space projector N of the constraint, so a candidate constraint row
is scored by how much observation energy it captures: a correct row is
orthogonal to every observation.  Rows are recovered greedily, each new
row searched inside the orthogonal complement of the rows already found.

Three model families share that one greedy loop (lattice seed plus
local refinement over hyperspherical angles): a state-dependent
constraint whose row angles are RBF functions of the state, the same
scheme expressed as a selection over a user-supplied feature matrix (for
example a manipulator Jacobian), and a constant constraint, which is the
case of a single constant basis function.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (UNCONVERGED_REASONS, LearnOptions, LearnReport, _basis_centers, _basis_doc,
                   _declared_size, _freeze_basis, _frozen_finite)
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
from .metrics import error_poe, error_ppe

GRID_POINT_BUDGET = 200_000
ROW_ACCEPT_FRACTION = 0.1  # state-dependent rows may keep this energy share
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

    def __call__(self, x):
        """Feature matrix at one state, shape (dim_phi, dim_u)."""
        return self.stack(np.reshape(x, (-1, 1)))[0]


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
    serialized selection models)."""
    kind, _, args = name.partition(":")
    if kind == "identity":
        return identity_features(int(args))
    if kind == "twolink-jacobian":
        l1, l2 = (float(v) for v in args.split(","))
        return twolink_jacobian_features(l1, l2)
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


def objective_state_independent(a_rows, second_moment):
    """Violation energy of a constant candidate constraint: the summed
    squared projection of the observations onto its rows, computed as
    trace(A M A^T) from the precomputed second moment M = sum_n u_n u_n^T.

    Assumes orthonormal candidate rows (their pseudoinverse is then the
    plain transpose).
    """
    a = np.atleast_2d(np.asarray(a_rows, dtype=float))
    m = np.asarray(second_moment, dtype=float)
    if m.shape != (a.shape[1], a.shape[1]):
        raise ValueError(f"second moment {m.shape} does not match rows {a.shape}")
    return max(0.0, float(np.trace(a @ m @ a.T)))


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
    """Constant constraint rows parameterized by hyperspherical angles.

    Row s (starting at 1) carries dim_u - s angles expressed in the
    orthogonal complement of the earlier rows; materialized rows are
    mutually orthonormal with a canonical sign (first non-negligible
    component positive).
    """

    angles: tuple
    dim_u: int

    kind = "nhat"

    def __post_init__(self):
        angles = tuple(_frozen_finite("angles", np.ravel(a)) for a in self.angles)
        if not 1 <= len(angles) <= self.dim_u - 1:
            raise ValueError("need between 1 and dim_u - 1 rows")
        for s, th in enumerate(angles):
            if th.size != self.dim_u - 1 - s:
                raise ValueError(f"row {s + 1} must have {self.dim_u - 1 - s} angles")
        object.__setattr__(self, "angles", angles)

    @property
    def dim_b(self):
        return len(self.angles)

    def rows(self):
        """Rows (dim_b, dim_u): the state-dependent rows kernel over one
        constant basis function at a single sample."""
        one = np.ones((1, 1))
        rows = np.empty((0, self.dim_u, 1))
        for th in self.angles:
            _, rows = _accept_row(th[:, None], _complement_frames(rows), one, rows)
        return rows[:, :, 0]

    def projector(self, threshold=1e-8):
        return nullspace_projector(self.rows(), threshold)

    def projector_stack(self, xs):
        n = np.atleast_2d(xs).shape[1]
        return np.repeat(self.projector()[:, :, None], n, axis=2)

    metrics = _constraint_metrics

    def to_doc(self):
        return {"dim_u": self.dim_u, "dim_b": self.dim_b,
                "angles": [th.tolist() for th in self.angles]}

    @classmethod
    def from_doc(cls, doc):
        return _with_declared_rows(doc, cls(
            angles=tuple(doc["angles"]),
            dim_u=_declared_size(doc, "dim_u")))


def _grid_seed(m_rot, resolution):
    """Best angle vector on a uniform [0, pi) lattice.  The per-angle
    resolution shrinks when the full lattice would exceed the evaluation
    budget (only relevant above three action dimensions)."""
    n_angles = m_rot.shape[0] - 1
    res = resolution
    if res ** n_angles > GRID_POINT_BUDGET:
        res = max(3, int(GRID_POINT_BUDGET ** (1.0 / n_angles)))
    axis = np.pi * np.arange(res) / res
    grids = np.meshgrid(*([axis] * n_angles), indexing="ij")
    thetas = np.stack([g.ravel() for g in grids])
    a = unit_vectors_from_angles(thetas)
    energy = np.einsum("ip,ij,jp->p", a, m_rot, a)
    return thetas[:, int(np.argmin(energy))].copy()


def learn_nhat(w_obs, options: Optional[LearnOptions] = None):
    """Fit a constant constraint to null-space observations (dim_u, N).

    Rows are found greedily: lattice search over the row angles inside
    the complement of the accepted rows, refined by damped least squares
    from that one lattice start.  A candidate row is kept while the energy
    it captures stays below tol_fun * max(1, remaining energy); with rich
    observations this stops exactly at the true constraint dimension.
    Noisy observations leak energy into every direction, so tol_fun must
    be raised to roughly the noise-to-signal energy ratio for rows to be
    accepted.  If even the first row captures too much energy, no
    constraint is consistent with the data: the best-effort single row is
    returned and the report carries the note ``no-constraint-found``.

    This is the greedy row loop of :func:`learn_alpha` on one constant
    basis function, with dim_u pseudo-samples that carry the second moment
    of the observations: the columns of V sqrt(L) for u u^T = V L V^T.

    Returns (StateIndependentConstraint, LearnReport).
    """
    opts = options or LearnOptions()
    u = np.atleast_2d(np.asarray(w_obs, dtype=float))
    dim_u, n = u.shape
    if n < dim_u:
        raise ValueError(f"need at least dim_u={dim_u} samples, got {n}")
    if not np.isfinite(u).all():
        raise ValueError("observations must be finite")
    if np.max(np.abs(u)) == 0.0:
        raise ValueError("all-zero observations: constraint unidentifiable")

    second = u @ u.T
    lam, vec = np.linalg.eigh(second)
    omegas, _, fit = _learn_rows(
        np.ones((1, dim_u)), vec * np.sqrt(np.maximum(lam, 0.0)), dim_u - 1,
        accept=lambda e_row, u_rot: e_row <= opts.tol_fun * max(1.0, float((u_rot ** 2).sum())),
        starts=lambda theta: (theta,), opts=opts)
    constraint = StateIndependentConstraint(angles=tuple(om.ravel() for om in omegas),
                                            dim_u=dim_u)
    final = objective_state_independent(constraint.rows(), second)
    report = LearnReport.from_errors(mse=final / n, variance=float(np.var(u, axis=1).sum()),
                                     final_objective=final, **fit)
    return constraint, report


# ---------------------------------------------------------------------------
# state-dependent constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateDependentConstraintModel:
    """Constraint rows whose orientation angles are RBF functions of the
    state: theta_s(x) = omega_s beta(x), with beta the Gaussian features of
    ``centers`` (dim_x, G) and the shared ``width``.

    In "alpha" mode the rows live directly in action space; in "lambda"
    mode they select within a feature matrix Phi(x) (row-normalized), the
    effective constraint being A(x) = Lambda(x) Phi_normalized(x).  The
    selection rows are mutually orthonormal at every state.  ``signs``
    are fixed per-row flips making the first non-negligible component
    positive at the training reference state.
    """

    omegas: tuple
    signs: tuple
    centers: np.ndarray
    width: float
    mode: str
    dim_u: int
    feature_name: str = None

    def __post_init__(self):
        if self.mode not in ("alpha", "lambda"):
            raise ValueError(f"unknown mode {self.mode!r}")
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
        if self.mode == "lambda" and self.feature_name is None:
            raise ValueError("lambda mode needs a feature provider name")

    @property
    def kind(self):
        return self.mode

    @property
    def dim_b(self):
        return len(self.omegas)

    @property
    def sel_dim(self):
        if self.mode == "alpha":
            return self.dim_u
        return feature_provider_from_name(self.feature_name).dim_phi

    def _selection_stack(self, xs):
        """Selection rows (N, dim_b, sel_dim), each row materialized in the
        complement of the earlier ones."""
        bx = rbf_design(xs, self.centers, self.width)
        rows = np.empty((0, self.sel_dim, bx.shape[1]))
        for om, sg in zip(self.omegas, self.signs):
            row = sg * _rows_in_frames(om, _complement_frames(rows), bx)
            rows = np.concatenate([rows, row[None]])
        return np.moveaxis(rows, -1, 0)

    def constraint_stack(self, xs):
        """Materialized constraint rows A(x) at states xs (dim_x, N),
        shape (N, dim_b, dim_u)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        sel = self._selection_stack(xs)
        if self.mode == "alpha":
            return sel
        return sel @ _normalized_rows(feature_provider_from_name(self.feature_name).stack(xs))

    def selection_rows(self, x):
        """Orthonormal selection rows at one state, shape (dim_b, sel_dim)."""
        return self._selection_stack(np.reshape(x, (-1, 1)))[0]

    def constraint_rows(self, x):
        """Materialized constraint rows A(x) at one state, shape (dim_b, dim_u)."""
        return self.constraint_stack(np.reshape(x, (-1, 1)))[0]

    def projector(self, x, threshold=1e-8):
        return self.projector_stack(np.reshape(x, (-1, 1)), threshold)[:, :, 0]

    def projector_stack(self, xs, threshold=1e-8):
        """Null-space projectors at states xs (dim_x, N), shape (dim_u, dim_u, N)."""
        return np.moveaxis(nullspace_projector(self.constraint_stack(xs), threshold), 0, -1)

    metrics = _constraint_metrics

    def to_doc(self):
        return {"dim_u": self.dim_u, "dim_b": self.dim_b,
                "omegas": [om.tolist() for om in self.omegas],
                "signs": list(self.signs), "basis": _basis_doc(self.centers, self.width),
                "features": self.feature_name}

    @classmethod
    def from_doc(cls, doc):
        # a basis block may still carry the dim_out: 0 and empty weights
        # that earlier writers put there; neither is read
        basis = doc["basis"]
        omegas = tuple(np.asarray(om).reshape(-1, _declared_size(basis, "n_basis"))
                       for om in doc["omegas"])
        return _with_declared_rows(doc, cls(
            omegas=omegas, signs=tuple(doc["signs"]), centers=_basis_centers(basis),
            width=basis["width"], mode=doc["kind"], dim_u=_declared_size(doc, "dim_u"),
            feature_name=doc["features"]))


def _complement_frames(rows_stack):
    """Per-sample orthonormal frames of the complement of the accumulated
    rows (s, sel_dim, N), shape (sel_dim - s, sel_dim, N); the identity
    when s = 0."""
    comp = orthogonal_complement_rotation(np.moveaxis(rows_stack, -1, 0))
    # einsum's rounding depends on operand layout: frames (and the lambda
    # targets) stay C-contiguous so learned models stay bit-for-bit stable
    return np.ascontiguousarray(np.moveaxis(comp, 0, -1))


def _rows_in_frames(omega, frames, bx):
    """Rows (sel_dim, N) whose local angles omega @ beta(x) are taken in
    the per-sample frames (f, sel_dim, N)."""
    local = (np.ones((1, bx.shape[1])) if omega.shape[0] == 0
             else unit_vectors_from_angles(omega @ bx))
    return np.einsum("fn,fjn->jn", local, frames)


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
    ``dim_b`` fixes the number of rows; when None, rows are added while
    they capture at most a small fraction of the observation energy.

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
    u = np.atleast_2d(np.asarray(w_obs, dtype=float))
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
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
        mode, sel_dim, feature_name = "alpha", dim_u, None
        target = u
    else:
        mode, sel_dim, feature_name = "lambda", phi.dim_phi, phi.name
        mats = phi.stack(xs)
        dead = np.flatnonzero(np.abs(mats).max(axis=(1, 2)) < 1e-12)
        if dead.size:
            raise ValueError(f"feature matrix has rank 0 at sample {dead[0]}")
        target = np.ascontiguousarray((_normalized_rows(mats) @ u.T[:, :, None])[:, :, 0].T)

    limit = sel_dim - 1 if dim_b is None else min(dim_b, sel_dim)
    if limit < 1:
        raise ValueError(f"no constraint row to learn: dim_b={dim_b}, "
                         f"selection dimension {sel_dim}")
    total_energy = float((target ** 2).sum())
    rng = np.random.default_rng(opts.rng_seed)

    def starts(theta):
        # first a constant-angle anchor: the lattice seed mapped into weight
        # space by ridge fit; then zero weights; then random weights
        size = theta.size * bx.shape[0]
        yield ridge_regression(bx, np.repeat(theta[:, None], n, axis=1),
                               opts.regularization).ravel()
        for restart in range(1, opts.num_restarts):
            yield np.zeros(size) if restart == 1 else rng.normal(0.0, 0.4, size)

    omegas, signs, fit = _learn_rows(
        bx, target, limit,
        accept=lambda e_row, u_rot: (dim_b is not None
                                     or e_row <= ROW_ACCEPT_FRACTION * max(total_energy, 1e-30)),
        starts=starts, opts=opts)
    model = StateDependentConstraintModel(
        omegas=tuple(omegas), signs=tuple(signs), centers=centers, width=width,
        mode=mode, dim_u=dim_u, feature_name=feature_name,
    )
    final = _exact_projection_energy(model, xs, u, opts.svd_threshold)
    report = LearnReport.from_errors(mse=final / n, variance=float(np.var(u, axis=1).sum()),
                                     final_objective=final, **fit)
    return model, report


def _learn_rows(bx, target, limit, accept, starts, opts):
    """The greedy row loop of every constraint learner.

    Targets (sel_dim, N) are the observations in the space the rows live
    in.  Row s (at most ``limit`` rows) is searched inside the per-sample
    complement of the rows accepted so far.  Its local angles are
    omega @ bx; the lattice seed on the pooled rotated moments goes to
    ``starts(theta)``, which yields the weight vectors that damped least
    squares starts from, and the best fit is kept while
    ``accept(e_row, u_rot)`` holds.  Every start after a row's first is
    abandoned once it still trails RESTART_GAP times the row's best fit
    so far after ABANDON_AFTER iterations.  If the first row is rejected,
    it is returned anyway with the note ``no-constraint-found``.

    Returns (omegas, signs, LearnReport fields).
    """
    sel_dim, n = target.shape
    rows_stack = np.empty((0, sel_dim, n))
    omegas, signs, trace_hist, notes = [], [], [], ()
    kept, records = [], []  # LM reports of the kept starts; one record per start

    for s in range(limit):
        frames = _complement_frames(rows_stack)
        u_rot = np.einsum("fjn,jn->fn", frames, target)
        n_ang = sel_dim - 1 - s

        if n_ang == 0:
            omega, fit = np.zeros((0, bx.shape[0])), None
            e_row = float((u_rot[0] ** 2).sum())
        else:
            residual, jacobian = _row_problem(bx, u_rot)
            sol = fit = None
            for k, w0 in enumerate(starts(_grid_seed(u_rot @ u_rot.T, opts.search_resolution))):
                bound = np.inf if fit is None else RESTART_GAP * fit.final_objective
                p, rep = lm_solve(LmProblem(residual=residual, p0=w0, jacobian=jacobian,
                                            options=opts, abandon_above=bound))
                records.append(dict(row=s, start=k, iterations=rep.iterations,
                                    objective=rep.final_objective, reason=rep.reason))
                if fit is None or rep.final_objective < fit.final_objective:
                    sol, fit = p, rep
            omega = sol.reshape(n_ang, bx.shape[0])
            e_row = fit.final_objective

        accepted = accept(e_row, u_rot)
        if not accepted and s > 0:
            break
        if fit is not None:
            kept.append(fit)
        sign, rows_stack = _accept_row(omega, frames, bx, rows_stack)
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
    return omegas, signs, dict(
        iterations=sum(rec["iterations"] for rec in records), converged=converged,
        reason=reason, objective_trace=tuple(trace_hist), notes=notes,
        starts=tuple(records))


def _accept_row(omega, frames, bx, rows_stack):
    """Materialize a learned row over all samples, fix its canonical sign
    at the reference (first) sample, and extend the row stack."""
    rows = _rows_in_frames(omega, frames, bx)
    sign = _canonical_sign(rows[:, 0])
    return sign, np.concatenate([rows_stack, sign * rows[None]])


def _exact_projection_energy(model, xs, u, threshold):
    """Sum over samples of the observation energy inside the learned
    constraint's row space, via the truncated pseudoinverse."""
    a = model.constraint_stack(xs)
    ut = u.T[:, :, None]
    energy = np.swapaxes(ut, 1, 2) @ (pinv_truncated(a, threshold) @ a) @ ut
    return max(0.0, float(energy.sum()))
