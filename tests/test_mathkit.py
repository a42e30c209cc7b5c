import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccl import constraint, mathkit, nullspace
from ccl.constraint import learn_alpha
from ccl.core import LearnOptions, LearnReport
from ccl.datagen import GeneratorConfig, generate
from ccl.mathkit import (
    ABANDON_AFTER,
    LAMBDA_MAX,
    LM_FTOL,
    LmProblem,
    kmeans_centers,
    lm_solve,
    nullspace_projector,
    orthogonal_complement_rotation,
    pairwise_sq_distances,
    pinv_truncated,
    rbf_basis,
    rbf_design,
    rbf_width_from_centers,
    ridge_regression,
    unit_vector_angle_gradient,
    unit_vectors_from_angles,
)
from ccl.nullspace import learn_ncl
from ccl.policy import learn_pi, learn_pi_lwl
from oracles import check_jacobian, finite_difference_jacobian, row_jacobian


def _unit_vector(theta):
    """One unit vector: the N = 1 column of the batched kernel."""
    return unit_vectors_from_angles(np.asarray(theta, dtype=float)[:, None])[:, 0]


# ---------------------------------------------------------------------------
# pinv_truncated
# ---------------------------------------------------------------------------

def test_pinv_unit_row():
    assert np.allclose(pinv_truncated([[1.0, 0.0]]), [[1.0], [0.0]])


def test_pinv_identity():
    assert np.allclose(pinv_truncated(np.eye(3)), np.eye(3), atol=1e-12)


def test_pinv_rank_deficient_matches_normal_equations_oracle():
    # full-rank factorization oracle for M = ones(2, 2) = b c with
    # b = (1, 1)^T, c = (1, 1): pinv = c^T (c c^T)^-1 (b^T b)^-1 b^T
    m = np.ones((2, 2))
    b = np.ones((2, 1))
    c = np.ones((1, 2))
    oracle = c.T @ np.linalg.inv(c @ c.T) @ np.linalg.inv(b.T @ b) @ b.T
    assert np.allclose(pinv_truncated(m), oracle, atol=1e-12)
    assert np.allclose(pinv_truncated(m), 0.25 * np.ones((2, 2)), atol=1e-12)


def test_pinv_zero_matrix():
    assert np.array_equal(pinv_truncated(np.zeros((2, 3))), np.zeros((3, 2)))


@pytest.mark.parametrize("shape", [(2, 4), (4, 2), (3, 3), (1, 5)])
def test_pinv_penrose_conditions(shape):
    rng = np.random.default_rng(7)
    for trial in range(5):
        m = rng.normal(size=shape)
        if trial % 2:
            m[0] = m[-1] if shape[0] > 1 else m[0]  # encourage rank deficiency
        p = pinv_truncated(m, 1e-10)
        assert np.allclose(m @ p @ m, m, atol=1e-9)
        assert np.allclose(p @ m @ p, p, atol=1e-9)
        assert np.allclose((m @ p).T, m @ p, atol=1e-9)
        assert np.allclose((p @ m).T, p @ m, atol=1e-9)


def test_pinv_zero_threshold_still_truncates_exact_zeros():
    # a singular matrix with threshold 0 must not divide by zero
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = pinv_truncated(m, threshold=0.0)
    assert np.array_equal(p, np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_pinv_truncation_drops_small_singular_values():
    u = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    m = u @ np.diag([1.0, 1e-12]) @ u.T
    p = pinv_truncated(m, 1e-8)
    # the tiny direction is treated as exactly zero
    assert np.linalg.matrix_rank(p, tol=1e-6) == 1


def _pinv_reference(m, threshold):
    """Per-matrix loop oracle: one SVD per matrix, truncation relative to
    that matrix's own largest singular value; a one-row matrix a is
    inverted in closed form, a^T / |a|^2 from a / max|a|."""
    out = np.zeros(m.shape[:-2] + m.shape[:-3:-1])
    for idx in np.ndindex(m.shape[:-2]):
        if m.shape[-2] == 1:
            a = m[idx][0]
            scale = np.abs(a).max()
            if scale > 0:
                b = a / scale
                sq = (b * b).sum()
                if not np.sqrt(sq) < threshold * np.sqrt(sq):
                    out[idx][:, 0] = b / sq / scale
            continue
        u, s, vt = np.linalg.svd(m[idx], full_matrices=False)
        if s[0] > 0:
            inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
            inv[s < threshold * s[0]] = 0.0
            out[idx] = (vt.T * inv) @ u.T
    return out


@st.composite
def _matrix_stacks(draw):
    """Stacks (N, k, d), k <= d, mixing full-rank, rank-deficient and zero
    matrices, scaled over many decades, some with a singular value just
    above or below the truncation threshold."""
    dim_u = draw(st.integers(2, 6))
    k = draw(st.integers(1, dim_u))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(n):
        kind = draw(st.sampled_from(["full", "deficient", "zero", "straddle"]))
        scale = 10.0 ** draw(st.integers(-6, 6))
        m = rng.normal(size=(k, dim_u))
        if kind == "deficient" and k > 1:
            m[-1] = m[0] * rng.normal()
        elif kind == "zero":
            m[:] = 0.0
        elif kind == "straddle":
            u, _, vt = np.linalg.svd(m, full_matrices=False)
            s = np.ones(k)
            s[-1] = 1e-8 * draw(st.sampled_from([0.999, 1.001]))
            m = (u * s) @ vt
        mats.append(scale * m)
    return np.stack(mats)


@settings(max_examples=60, deadline=None)
@given(_matrix_stacks())
def test_pinv_stack_equals_per_matrix_loop(stack):
    batched = pinv_truncated(stack, 1e-8)
    assert batched.shape == stack.shape[:1] + stack.shape[:0:-1]
    assert np.array_equal(batched, _pinv_reference(stack, 1e-8))
    for i, m in enumerate(stack):
        assert np.array_equal(batched[i], pinv_truncated(m, 1e-8))


@st.composite
def _one_row_stacks(draw):
    """Stacks (N, 1, d) of rows whose magnitudes span 1e-300 to 1e300,
    some of them zero; with d > 1, one entry of a row may lie far below
    the rest (a lone entry that small would have no finite inverse)."""
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = rng.normal(size=d) * 10.0 ** draw(st.integers(-300, 300))
        kind = draw(st.sampled_from(["plain", "zero", "spread"]))
        if kind == "zero":
            row[:] = 0.0
        elif kind == "spread" and d > 1:
            row[rng.integers(d)] *= 10.0 ** draw(st.integers(-300, 0))
        rows.append(row)
    return np.stack(rows)[:, None, :]


@settings(max_examples=150, deadline=None)
@given(_one_row_stacks(), st.sampled_from([0.0, 1e-8, 1.0, 1.5]))
def test_pinv_one_row_closed_form_matches_the_svd(stack, threshold):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = pinv_truncated(stack, threshold)
    assert batched.shape == (stack.shape[0], stack.shape[2], 1)
    for a, p in zip(stack, batched):
        assert np.array_equal(p, pinv_truncated(a, threshold))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        # the SVD path's truncation: zero norm, or norm < threshold * norm
        if s[0] == 0 or s[0] < threshold * s[0]:
            assert not p.any()
            continue
        svd = (vt.T / s) @ u.T
        assert np.max(np.abs(p - svd)) <= 2e-15 * np.max(np.abs(svd))


def test_pinv_stack_truncates_per_matrix():
    # the second matrix's singular values are all below 1e-8 times the
    # first matrix's: each is still inverted against its own sigma_max
    m = np.stack([np.diag([1.0, 1e-12]), np.diag([1e-10, 1e-11])])
    p = pinv_truncated(m, 1e-8)
    assert np.array_equal(p[0], np.diag([1.0, 0.0]))
    assert np.allclose(p[1], np.diag([1e10, 1e11]), rtol=1e-12)


def test_pinv_rejects_non_finite_stack():
    m = np.zeros((3, 1, 2))
    m[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        pinv_truncated(m)


# ---------------------------------------------------------------------------
# nullspace_projector
# ---------------------------------------------------------------------------

def test_projector_axis_constraint():
    n = nullspace_projector([[1.0, 0.0]])
    assert np.allclose(n, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_projector_rotated_constraint_symbolic_oracle():
    th = np.deg2rad(30.0)
    a = np.array([[np.cos(th), np.sin(th)]])
    n = nullspace_projector(a)
    # symbolic outer-product oracle: N = I - a^T a for a unit row
    assert np.allclose(n, np.eye(2) - a.T @ a, atol=1e-12)
    tangent = np.array([-np.sin(th), np.cos(th)])
    assert np.allclose(n @ tangent, tangent, atol=1e-12)


def test_projector_zero_row_is_identity():
    n = nullspace_projector(np.zeros((1, 3)))
    assert np.array_equal(n, np.eye(3))


def test_projector_rejects_too_many_rows():
    with pytest.raises(ValueError):
        nullspace_projector(np.zeros((3, 2)))


@st.composite
def _low_rank_stacks(draw):
    """Stacks (N, k, d), k <= d, each matrix a product of Gaussian factors
    of a random rank 0..k, scaled over many decades."""
    dim_u = draw(st.integers(2, 6))
    k = draw(st.integers(1, dim_u))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ranks = draw(st.lists(st.integers(0, k), min_size=1, max_size=6))
    return np.stack([10.0 ** draw(st.integers(-6, 6))
                     * rng.normal(size=(k, r)) @ rng.normal(size=(r, dim_u)) for r in ranks])


@settings(max_examples=150, deadline=None)
@given(st.one_of(_matrix_stacks(), _low_rank_stacks()))
def test_projector_algebra_random_any_rank(stack):
    """Per matrix A with singular values s, pinv_truncated keeps those at or
    above 1e-8 s_max.  With kappa = s_max / (the smallest kept) and cut the
    largest truncated value (0 if none), the Moore-Penrose identities and
    the projector's hold to tol = 1e3 eps kappa (relative to s_max or to
    |pinv| where the identity scales with them); A pinv A = A and A N = 0
    hold up to cut, the part truncation drops."""
    pinv, proj = pinv_truncated(stack, 1e-8), nullspace_projector(stack, 1e-8)
    norm = lambda m: np.linalg.norm(m, 2)
    for a, p, n in zip(stack, pinv, proj):
        s = np.linalg.svd(a, compute_uv=False)
        if s[0] == 0:
            assert not p.any() and np.array_equal(n, np.eye(a.shape[1]))
            continue
        kept = s[s >= 1e-8 * s[0]]
        tol = 1e3 * np.finfo(float).eps * s[0] / kept[-1]
        cut = s[len(kept)] if len(kept) < len(s) else 0.0
        assert norm(a @ p @ a - a) <= cut + tol * s[0]
        assert norm(p @ a @ p - p) <= tol * norm(p)
        assert norm(a @ p - (a @ p).T) <= tol and norm(p @ a - (p @ a).T) <= tol
        # N = I - pinv(A) A: idempotent, symmetric, annihilates the rows of A,
        # and of rank dim_u minus the rank pinv_truncated keeps
        assert norm(n @ n - n) <= tol and norm(n - n.T) <= tol
        assert norm(a @ n) <= cut + tol * s[0]
        assert np.linalg.matrix_rank(n, tol=0.5) == a.shape[1] - len(kept)


# ---------------------------------------------------------------------------
# hyperspherical unit vectors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("deg,expected", [
    (0.0, (1.0, 0.0)),
    (45.0, (np.sqrt(2) / 2, np.sqrt(2) / 2)),
    (90.0, (0.0, 1.0)),
])
def test_unit_vector_planar_angles(deg, expected):
    a = _unit_vector([np.deg2rad(deg)])
    assert np.allclose(a, expected, atol=1e-12)


def test_unit_vector_norm_property():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        a = _unit_vector(rng.uniform(0, np.pi, dim - 1))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_unit_vector_batch_matches_single():
    rng = np.random.default_rng(4)
    thetas = rng.uniform(0, np.pi, (3, 20))
    batch = unit_vectors_from_angles(thetas)
    for n in range(20):
        assert np.allclose(batch[:, n], _unit_vector(thetas[:, n]))


def test_unit_vector_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 4, 6):
        th = rng.uniform(0.1, np.pi - 0.1, dim - 1)
        v = rng.normal(size=dim)
        analytic = unit_vector_angle_gradient(th[:, None], v[:, None])[:, 0]
        numeric = finite_difference_jacobian(lambda t: _unit_vector(t) @ v, th)[0]
        assert np.max(np.abs(analytic - numeric)) < 1e-8


# ---------------------------------------------------------------------------
# orthogonal complement
# ---------------------------------------------------------------------------

def test_complement_of_planar_axis():
    comp = orthogonal_complement_rotation([[1.0, 0.0]])
    assert np.allclose(np.abs(comp), [[0.0, 1.0]], atol=1e-12)


def test_complement_of_z_axis_gram_schmidt_oracle():
    comp = orthogonal_complement_rotation([[0.0, 0.0, 1.0]])
    assert comp.shape == (2, 3)
    # oracle: Gram-Schmidt of (e1, e2) against e3 leaves the x-y plane
    assert np.allclose(comp[:, 2], 0.0, atol=1e-12)
    assert np.allclose(comp @ comp.T, np.eye(2), atol=1e-12)


def test_complement_of_two_standard_rows():
    comp = orthogonal_complement_rotation(np.eye(3)[:2])
    assert np.allclose(np.abs(comp), [[0.0, 0.0, 1.0]], atol=1e-12)


def test_complement_completes_orthonormal_basis():
    rng = np.random.default_rng(6)
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        rows = q.T[:k]
        comp = orthogonal_complement_rotation(rows)
        full = np.vstack([rows, comp])
        assert np.max(np.abs(full @ full.T - np.eye(dim))) < 1e-10


@pytest.mark.parametrize("dim", range(1, 7))
def test_complement_of_no_rows_is_the_identity_the_svd_gives(dim):
    rows = np.zeros((3, 0, dim))
    comp = orthogonal_complement_rotation(rows)
    assert comp.shape == (3, dim, dim)
    assert np.array_equal(comp, np.linalg.svd(rows, full_matrices=True)[2])
    assert np.array_equal(orthogonal_complement_rotation(np.zeros((0, dim))), np.eye(dim))


def test_complement_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        orthogonal_complement_rotation([[1.0, 1.0]])


def test_complement_stack_matches_single_and_checks_every_matrix():
    rng = np.random.default_rng(8)
    rows = np.stack([np.linalg.qr(rng.normal(size=(4, 4)))[0].T[:2] for _ in range(5)])
    comp = orthogonal_complement_rotation(rows)
    assert comp.shape == (5, 2, 4)
    for i in range(5):
        assert np.array_equal(comp[i], orthogonal_complement_rotation(rows[i]))
    rows[3, 1] *= 2.0
    with pytest.raises(ValueError, match="orthonormal"):
        orthogonal_complement_rotation(rows)


# ---------------------------------------------------------------------------
# distances / kmeans / rbf
# ---------------------------------------------------------------------------

def test_distances_identical_points():
    d = pairwise_sq_distances([[1.0], [2.0]], [[1.0], [2.0]])
    assert d[0, 0] == pytest.approx(0.0)


def test_distances_three_four_five():
    d = pairwise_sq_distances(np.array([[0.0], [0.0]]), np.array([[3.0], [4.0]]))
    assert d[0, 0] == pytest.approx(25.0)


def test_distances_match_loop_oracle():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 5))
    d = pairwise_sq_distances(a, b)
    for i in range(4):
        for j in range(5):
            assert abs(d[i, j] - ((a[:, i] - b[:, j]) ** 2).sum()) < 1e-12


def test_kmeans_all_points_when_g_equals_n():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 8))
    centers = kmeans_centers(x, 8, seed=0)
    assert sorted(map(tuple, centers.T)) == sorted(map(tuple, x.T))


def test_kmeans_two_separated_blobs():
    rng = np.random.default_rng(10)
    radius = 0.5
    blob_a = rng.uniform(-radius, radius, (2, 40))
    blob_b = rng.uniform(-radius, radius, (2, 40)) + 10.0  # gap 10x radius
    x = np.hstack([blob_a, blob_b])
    centers = kmeans_centers(x, 2, seed=1)
    dist_to_a = np.linalg.norm(centers - blob_a.mean(axis=1, keepdims=True), axis=0)
    dist_to_b = np.linalg.norm(centers - blob_b.mean(axis=1, keepdims=True), axis=0)
    assert min(dist_to_a) < radius and min(dist_to_b) < radius


def test_kmeans_single_center_is_mean():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 30))
    centers = kmeans_centers(x, 1, seed=0)
    assert np.allclose(centers[:, 0], x.mean(axis=1), atol=1e-12)


def test_kmeans_rejects_more_centers_than_points():
    with pytest.raises(ValueError):
        kmeans_centers(np.zeros((2, 3)), 4)


@pytest.mark.parametrize("n_centers", [0, -3])
def test_kmeans_rejects_fewer_than_one_center(n_centers):
    x = np.random.default_rng(16).normal(size=(2, 20))
    with pytest.raises(ValueError, match="n_centers must be >= 1"):
        kmeans_centers(x, n_centers)


def test_kmeans_rejects_non_finite_states():
    x = np.random.default_rng(17).normal(size=(2, 20))
    for bad in (np.nan, np.inf, -np.inf):
        x[1, 7] = bad
        with pytest.raises(ValueError, match="x must be finite"):
            kmeans_centers(x, 3)


def _reference_kmeans(x, n_centers, seed=0, max_iter=100, reseeds=None):
    """The Lloyd loop kmeans_centers replaced: per-cluster boolean-mask
    means, and every distance through pairwise_sq_distances.  Appends the
    1-based iteration of each empty-cluster reseed to ``reseeds``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dim, n = x.shape
    if n_centers < 1:
        raise ValueError("n_centers must be >= 1")
    if n_centers > n:
        raise ValueError("cannot place more centers than samples")
    rng = np.random.default_rng(seed)

    chosen = [int(rng.integers(n))]
    d2 = pairwise_sq_distances(x, x[:, chosen])[:, 0]
    while len(chosen) < n_centers:
        d2[chosen] = -1.0  # never re-pick a selected sample
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, pairwise_sq_distances(x, x[:, [nxt]])[:, 0])
    centers = x[:, chosen].copy()

    assign = None
    for iteration in range(1, max_iter + 1):
        d2 = pairwise_sq_distances(x, centers)
        new_assign = np.argmin(d2, axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for g in range(n_centers):
            members = assign == g
            if members.any():
                centers[:, g] = x[:, members].mean(axis=1)
            else:
                if reseeds is not None:
                    reseeds.append(iteration)
                nearest = d2.min(axis=1)
                centers[:, g] = x[:, int(np.argmax(nearest))]
    return centers


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_kmeans_matches_the_reference_loop_bit_for_bit():
    # for dim >= 2 a masked gather x[:, members] is Fortran-ordered, so
    # numpy's mean adds each coordinate one sample at a time, as bincount does
    rng = np.random.default_rng(20)
    layouts = (np.ascontiguousarray, np.asfortranarray, lambda a: a[:, ::-1])
    for case in range(240):
        dim, n = int(rng.integers(2, 7)), int(rng.integers(1, 300))
        x = rng.normal(size=(dim, n)) * 10.0 ** rng.uniform(-3, 3)
        x += rng.uniform(-1e6, 1e6) if case % 4 == 0 else 0.0
        if case % 5 == 1:
            x = np.round(x, int(rng.integers(0, 2)))  # duplicates and tied distances
        x = layouts[case % 3](x)
        g = min(int(rng.choice([1, 2, 10, 16, n])), n)
        assert _same_bits(kmeans_centers(x, g, seed=case), _reference_kmeans(x, g, seed=case)), \
            (case, dim, n, g)


def test_kmeans_one_dimensional_states_agree_with_the_reference_loop():
    # a 1-D gather is C-contiguous, so numpy's mean sums it pairwise rather
    # than in sample order: the centers agree, but not always to the bit
    rng = np.random.default_rng(21)
    for case in range(20):
        blobs = [rng.normal(loc=10.0 * k, scale=0.5, size=int(rng.integers(20, 400)))
                 for k in range(4)]
        x = np.concatenate(blobs)[None, :]
        new, ref = kmeans_centers(x, 4, seed=case), _reference_kmeans(x, 4, seed=case)
        assert np.allclose(new, ref, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("n_centers", [4, 5, 6])
def test_kmeans_reseeds_empty_clusters_like_the_reference_loop(n_centers):
    # 12 samples at 3 distinct points: every center past the third starts on
    # a duplicate, its cluster empties, and the reseed puts it on a sample
    points = np.array([[2.0, 1.0, 5.0], [7.0, 3.0, -2.0]])  # none at the origin
    x = points[:, [0, 1, 2, 0, 0, 1, 2, 2, 1, 0, 2, 1]]
    centers = kmeans_centers(x, n_centers, seed=n_centers)
    assert _same_bits(centers, _reference_kmeans(x, n_centers, seed=n_centers))
    samples = set(map(tuple, x.T))
    assert set(map(tuple, centers.T)) <= samples
    assert len(set(map(tuple, centers.T))) == 3


@st.composite
def _kmeans_inputs(draw):
    """States (dim, N) over many scales and offsets, some on a coarse grid
    (duplicates and exactly tied distances), with a center count in [1, N]."""
    dim, n = draw(st.integers(2, 6)), draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(dim, n)) * 10.0 ** draw(st.floats(-3, 3))
    x += draw(st.sampled_from([0.0, 0.0, 1.0, -1.0])) * 10.0 ** draw(st.floats(0, 6))
    if draw(st.booleans()):
        step = 10.0 ** draw(st.integers(-3, 3))
        x = np.round(x / step) * step
    return x, draw(st.integers(1, n)), draw(st.integers(0, 2 ** 16))


@settings(max_examples=150, deadline=None)
@given(_kmeans_inputs())
def test_kmeans_bounded_loop_matches_the_reference_loop_bit_for_bit(case):
    x, g, seed = case
    assert _same_bits(kmeans_centers(x, g, seed=seed), _reference_kmeans(x, g, seed=seed))


@pytest.mark.parametrize("scale", [1e-162, 1e-160, 1e160, 1e200])
def test_kmeans_matches_the_reference_loop_at_extreme_magnitudes(scale):
    # subnormal squared distances (absolute rounding beyond the relative
    # error bound) and overflowing ones (NaN distances and bounds)
    rng = np.random.default_rng(22)
    with np.errstate(all="ignore"):
        for case in range(30):
            x = rng.normal(size=(2, 300)) * scale
            g = int(rng.integers(2, 17))
            assert _same_bits(kmeans_centers(x, g, seed=case),
                              _reference_kmeans(x, g, seed=case)), (case, g)


def test_kmeans_reseeds_a_cluster_emptied_after_the_first_iteration():
    # two points, not dyadic, so a cluster mean lands an ulp off its point
    # and a center reseeded onto a sample takes that point's members: a
    # cluster empties in every one of the 100 iterations, and from the
    # second on 3 of the 6 samples are skipped on their bounds (found by
    # searching seeds; continuous data never emptied a cluster after the
    # first iteration in 200k tries)
    a, b = [-2.7, 2.4], [1.6, -1.3]
    x = np.array([a, a, b, a, b, b]).T
    reseeds = []
    expected = _reference_kmeans(x, 3, seed=3, reseeds=reseeds)
    assert min(reseeds) == 1 and max(reseeds) >= 2
    assert _same_bits(kmeans_centers(x, 3, seed=3), expected)


def test_kmeans_working_set_stays_within_two_distance_arrays():
    x = np.random.default_rng(23).normal(size=(2, 15000))
    tracemalloc.start()
    try:
        kmeans_centers(x, 10, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * 15000 * 10 * 8


def test_rbf_basis_is_seeded_kmeans_with_shared_width():
    x = np.random.default_rng(15).normal(size=(2, 40))
    centers, width = rbf_basis(x, 6, seed=3)
    assert np.array_equal(centers, kmeans_centers(x, 6, seed=3))
    assert width == rbf_width_from_centers(centers)


@pytest.mark.parametrize("num_basis", [0, -3])
def test_rbf_basis_rejects_fewer_than_one_function(num_basis):
    with pytest.raises(ValueError, match="num_basis must be >= 1"):
        rbf_basis(np.zeros((2, 5)), num_basis)


def test_every_rbf_learner_refuses_more_functions_than_samples():
    # rbf_basis checks the size for all four; pi and pi-lwl failed inside
    # K-means, alpha and ncl each with a message of their own
    rng = np.random.default_rng(16)
    xs, u = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
    for fit in (lambda: rbf_basis(xs, 6), lambda: learn_alpha(u, xs, num_basis=6),
                lambda: learn_ncl(xs, u, num_basis=6), lambda: learn_pi(xs, u, num_basis=6)):
        with pytest.raises(ValueError, match="^num_basis must be <= 5, got 6$"):
            fit()
    with pytest.raises(ValueError, match="^num_local must be <= 5, got 6$"):
        learn_pi_lwl(xs, u, num_local=6)


def test_rbf_at_center_is_one():
    centers = np.array([[0.0, 1.0], [0.0, 0.0]])
    feats = rbf_design(np.array([1.0, 0.0])[:, None], centers, width=0.5)[:, 0]
    assert feats[1] == pytest.approx(1.0)


def test_rbf_analytic_decay():
    width = 0.7
    centers = np.array([[0.0], [0.0]])
    x = np.array([np.sqrt(2 * width), 0.0])  # squared distance = 2 * width
    assert rbf_design(x[:, None], centers, width)[0, 0] == pytest.approx(np.exp(-1.0))


def test_rbf_matches_direct_formula_oracle():
    rng = np.random.default_rng(13)
    centers = rng.normal(size=(3, 6))
    width = 0.9
    x = rng.normal(size=3)
    feats = rbf_design(x[:, None], centers, width)[:, 0]
    for g in range(6):
        direct = np.exp(-((x - centers[:, g]) ** 2).sum() / (2 * width))
        assert abs(feats[g] - direct) < 1e-14
    assert np.all(feats > 0) and np.all(feats <= 1)


def test_rbf_design_batches_columns():
    rng = np.random.default_rng(14)
    centers = rng.normal(size=(2, 4))
    xs = rng.normal(size=(2, 7))
    design = rbf_design(xs, centers, 1.1)
    for n in range(7):
        assert np.allclose(design[:, n], rbf_design(xs[:, n][:, None], centers, 1.1)[:, 0])


def test_rbf_width_rule_includes_diagonal():
    centers = np.array([[0.0, 1.0]])
    # distance matrix entries: 0, 1, 1, 0 -> mean 0.5 -> width 0.25
    assert rbf_width_from_centers(centers) == pytest.approx(0.25)
    assert rbf_width_from_centers(np.zeros((2, 1))) == 1.0  # fallback


def test_ridge_regression_recovers_weights():
    rng = np.random.default_rng(15)
    b = rng.normal(size=(4, 100))
    w_true = rng.normal(size=(2, 4))
    w_fit = ridge_regression(b, w_true @ b, regularization=1e-10)
    assert np.allclose(w_fit, w_true, atol=1e-6)


# ---------------------------------------------------------------------------
# damped least squares
# ---------------------------------------------------------------------------

def _rosenbrock(p):
    return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])


def _rosenbrock_jacobian(p):
    return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])


def test_lm_linear_residual_two_iterations():
    problem = LmProblem(residual=lambda p: p - 3.0, p0=np.array([0.0]),
                        jacobian=lambda p: np.eye(1), options=LearnOptions(tol_fun=1e-5))
    p, report = lm_solve(problem)
    assert abs(p[0] - 3.0) < 1e-6
    assert report.iterations <= 2
    assert report.converged


def test_lm_rosenbrock():
    p, report = lm_solve(LmProblem(residual=_rosenbrock, p0=np.array([-1.2, 1.0]),
                                   jacobian=_rosenbrock_jacobian))
    assert np.max(np.abs(p - 1.0)) < 1e-6
    assert report.final_objective < 1e-12
    assert report.converged


def test_lm_flat_gradient_minimum():
    problem = LmProblem(residual=lambda p: p ** 2, p0=np.array([1.0]),
                        jacobian=lambda p: np.diag(2.0 * p),
                        options=LearnOptions(tol_fun=1e-18))
    p, report = lm_solve(problem)
    assert abs(p[0]) <= 1e-4


def test_lm_objective_never_increases():
    problem = LmProblem(residual=_rosenbrock, p0=np.array([-1.2, 1.0]),
                        jacobian=_rosenbrock_jacobian)
    p, report = lm_solve(problem)
    assert report.final_objective <= float((_rosenbrock(np.array([-1.2, 1.0])) ** 2).sum())


def test_lm_abandons_a_start_above_its_bound_at_abandon_after():
    # p ** 2 creeps to its flat minimum and runs far past ABANDON_AFTER
    slow = dict(residual=lambda p: p ** 2, p0=np.array([1.0]),
                jacobian=lambda p: np.diag(2.0 * p), options=LearnOptions(tol_fun=1e-18))
    p, report = lm_solve(LmProblem(**slow, abandon_above=-1.0))
    assert report.iterations == ABANDON_AFTER
    assert not report.converged and report.reason == "abandoned"
    # the best point is the one a solve capped at ABANDON_AFTER returns
    capped = dict(slow, options=LearnOptions(tol_fun=1e-18, max_iter=ABANDON_AFTER))
    p_cap, report_cap = lm_solve(LmProblem(**capped))
    assert report_cap.reason == "max-iter"
    assert np.array_equal(p, p_cap) and report.final_objective == report_cap.final_objective
    # below the bound the solve runs on untouched
    p_free, report_free = lm_solve(LmProblem(**slow, abandon_above=report.final_objective))
    p_inf, report_inf = lm_solve(LmProblem(**slow))
    assert report_free.iterations > ABANDON_AFTER
    assert np.array_equal(p_free, p_inf) and report_free == report_inf


def test_lm_converging_before_abandon_after_is_never_abandoned():
    problem = LmProblem(residual=lambda p: p - 3.0, p0=np.array([0.0]),
                        jacobian=lambda p: np.eye(1), options=LearnOptions(tol_fun=1e-5),
                        abandon_above=-1.0)
    p, report = lm_solve(problem)
    assert report.iterations < ABANDON_AFTER
    assert report.converged and report.reason in ("fun-tol", "x-tol")
    assert abs(p[0] - 3.0) < 1e-6


def _stalling_problem():
    """|sin p + 2| >= 1 from 1e-3 above its minimum at -pi/2, with a
    Jacobian of the wrong sign: every damped step climbs, so none is ever
    accepted and lam overflows long before max_iter."""
    return LmProblem(residual=lambda p: np.sin(p) + 2.0, p0=np.array([-np.pi / 2 + 1e-3]),
                     jacobian=lambda p: np.diag(-np.cos(p)),
                     options=LearnOptions(max_iter=1000))


def test_lm_reports_a_stall_when_the_damping_overflows():
    p, report = lm_solve(_stalling_problem())
    assert report.iterations < 1000
    assert not report.converged and report.reason == "stalled"
    assert abs(np.sin(p[0]) + 1.0) < 1e-6


def test_greedy_learner_reports_a_kept_start_that_stalled(monkeypatch):
    data = generate(GeneratorConfig(constraints=("parabolic:0.1",), n_per_group=60,
                                    rng_seed=2))
    solve = constraint.lm_solve

    def stalling(problem):
        p, report = solve(problem)
        return p, dataclasses.replace(report, converged=False, reason="stalled")

    monkeypatch.setattr(constraint, "lm_solve", stalling)
    _, report = learn_alpha(data.actions, data.states, LearnOptions(max_iter=30), num_basis=3)
    assert not report.converged and report.reason == "stalled"
    assert {start["reason"] for start in report.starts} == {"stalled"}


def test_lm_stops_at_the_same_iteration_whatever_the_residual_scale(monkeypatch):
    # an exponential fit whose optimum leaves a residual (energy near 9.6):
    # the relative reduction test stops it, on the residual as given and
    # scaled by 1e3 alike
    t = np.linspace(0.0, 1.0, 20)
    y = np.exp(1.3 * t) + np.sin(17.0 * t)

    def solve(scale):
        return lm_solve(LmProblem(
            residual=lambda p: scale * (p[0] * np.exp(p[1] * t) - y), p0=np.array([1.0, 0.0]),
            jacobian=lambda p: scale * np.stack([np.exp(p[1] * t), p[0] * t * np.exp(p[1] * t)],
                                                axis=1)))

    (p, report), (p_scaled, report_scaled) = solve(1.0), solve(1e3)
    assert report.reason == report_scaled.reason == "fun-tol"
    assert report.iterations == report_scaled.iterations
    np.testing.assert_allclose(p_scaled, p, rtol=1e-12)
    # the absolute test alone stops the two at different iterations
    monkeypatch.setattr(mathkit, "LM_FTOL", 0.0)
    assert solve(1.0)[1].iterations != solve(1e3)[1].iterations


def _reference_lm_solve(problem):
    """lm_solve as a loop that forms J'J, J'r and the damping diagonal
    again in every iteration, rejected steps included, from the Jacobian
    of the current point: the oracle for a solver that forms them once
    per accepted point.  An alpha row has no Jacobian; the loop reads the
    assembled oracle's, so it also checks the row's own normal equations."""
    opts = problem.options
    jacobian = problem.jacobian or row_jacobian(problem.bx, problem.u_rot)
    p = np.asarray(problem.p0, dtype=float).ravel().copy()
    r = np.atleast_1d(np.asarray(problem.residual(p), dtype=float)).ravel()
    j = np.atleast_2d(np.asarray(jacobian(p), dtype=float))
    energy, lam = float(r @ r), 1e-3
    converged, reason, iterations = False, "max-iter", 0
    for iterations in range(1, opts.max_iter + 1):
        h = j.T @ j
        g = j.T @ r
        damp = np.diag(np.maximum(np.diag(h), 1e-14))
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
            j = np.atleast_2d(np.asarray(jacobian(p), dtype=float))
            if np.linalg.norm(step) < opts.tol_x:
                converged, reason = True, "x-tol"
                break
            if gain < opts.tol_fun or (gain <= small and predicted <= small):
                converged, reason = True, "fun-tol"
                break
        else:
            lam *= 10.0
            if lam > LAMBDA_MAX:
                reason = "stalled"
                break
        if iterations == ABANDON_AFTER and energy > problem.abandon_above:
            reason = "abandoned"
            break
    return p, LearnReport(nmse=0.0, mse=energy / r.size, variance=0.0, iterations=iterations,
                          final_objective=energy, converged=converged, reason=reason)


def _alpha_row_problem():
    """The first-row problem of an alpha fit on a parabolic constraint,
    from a random start."""
    data = generate(GeneratorConfig(constraints=("parabolic:0.1",), n_per_group=200,
                                    rng_seed=3))
    bx = rbf_design(data.states, *rbf_basis(data.states, 4, seed=0))
    return constraint._row_problem(bx, data.actions,
                                   np.random.default_rng(8).normal(size=bx.shape[0]))


_LM_CASES = {
    "rosenbrock": lambda: LmProblem(residual=_rosenbrock, p0=np.array([-1.2, 1.0]),
                                    jacobian=_rosenbrock_jacobian),
    "flat-minimum": lambda: LmProblem(residual=lambda p: p ** 2, p0=np.array([1.0]),
                                      jacobian=lambda p: np.diag(2.0 * p),
                                      options=LearnOptions(tol_fun=1e-18)),
    "abandoned": lambda: LmProblem(residual=lambda p: p ** 2, p0=np.array([1.0]),
                                   jacobian=lambda p: np.diag(2.0 * p),
                                   options=LearnOptions(tol_fun=1e-18), abandon_above=-1.0),
    "stalled": _stalling_problem,
    "alpha-row": _alpha_row_problem,
}


@pytest.mark.parametrize("case", sorted(_LM_CASES))
def test_lm_matches_the_reference_loop_bit_for_bit(case):
    p, report = lm_solve(_LM_CASES[case]())
    p_ref, report_ref = _reference_lm_solve(_LM_CASES[case]())
    assert _same_bits(p, p_ref)
    assert report == report_ref


class _CountingProblem(LmProblem):
    """Records the points at which the solver asks for its normal equations."""

    def normal_equations(self, p, r):
        self.system_points.append(p.copy())
        return super().normal_equations(p, r)


@pytest.mark.parametrize("case", ["rosenbrock", "stalled"])
def test_lm_forms_its_system_once_per_accepted_point(case):
    base = _LM_CASES[case]()
    evaluated, jacobian_points = [], []

    def residual(p):
        r = base.residual(p)
        evaluated.append((p.copy(), float(r @ r)))
        return r

    def jacobian(p):
        jacobian_points.append(p.copy())
        return base.jacobian(p)

    problem = _CountingProblem(residual=residual, p0=base.p0, jacobian=jacobian,
                               options=base.options)
    problem.system_points = []
    _, report = lm_solve(problem)
    # the accepted points: the start, then every trial point that did not
    # raise the objective
    accepted, best = [evaluated[0][0]], evaluated[0][1]
    for p, energy in evaluated[1:]:
        if energy <= best:
            accepted.append(p)
            best = energy
    assert len(evaluated) - len(accepted) > 0  # some steps were rejected
    # one system per accepted point, but none where a converged solve stops
    expected = len(accepted) - report.converged
    assert len(problem.system_points) == len(jacobian_points) == expected
    for got, jac_p, want in zip(problem.system_points, jacobian_points, accepted):
        assert _same_bits(got, want) and _same_bits(jac_p, want)


def test_lm_requires_a_jacobian():
    # only the default normal equations read the Jacobian, so a problem
    # without one is built, and its solve fails before the first step
    problem = LmProblem(residual=lambda p: p, p0=np.array([1.0]))
    with pytest.raises(ValueError, match="needs a jacobian"):
        lm_solve(problem)


def test_lm_rejects_non_finite_start():
    with pytest.raises(ValueError):
        lm_solve(LmProblem(residual=lambda p: np.array([np.inf]), p0=np.array([1.0]),
                           jacobian=lambda p: np.ones((1, 1))))


def test_lm_rejects_bad_jacobian_shape():
    with pytest.raises(ValueError):
        lm_solve(LmProblem(residual=lambda p: p, p0=np.array([1.0, 2.0]),
                           jacobian=lambda p: np.zeros((3, 3))))


def test_check_jacobian_harness():
    def residual(p):
        return np.array([np.sin(p[0]) * p[1], p[0] ** 3])

    def jacobian(p):
        return np.array([[np.cos(p[0]) * p[1], np.sin(p[0])],
                         [3 * p[0] ** 2, 0.0]])

    rng = np.random.default_rng(16)
    for _ in range(10):
        p = rng.normal(size=2)
        assert check_jacobian(residual, jacobian, p) < 1e-5

    def wrong(p):
        return jacobian(p) + 0.05

    assert check_jacobian(residual, wrong, np.array([0.3, 0.4])) > 1e-3


# ---------------------------------------------------------------------------
# one forward pass per LM point
# ---------------------------------------------------------------------------

def test_lm_builds_each_system_at_its_latest_residual_point():
    # the contract alpha's and ncl's problems rely on to reuse their terms
    for case in sorted(_LM_CASES):
        problem = _LM_CASES[case]()
        latest, systems = [], [0]
        residual, build = problem.residual, problem.normal_equations

        def recording(p):
            r = residual(p)
            latest[:] = [p.copy(), np.atleast_1d(np.asarray(r, dtype=float)).ravel().copy()]
            return r

        def checking(p, r):
            assert _same_bits(p, latest[0]) and _same_bits(r, latest[1]), case
            systems[0] += 1
            return build(p, r)

        problem = dataclasses.replace(problem, residual=recording)
        problem.normal_equations = checking
        lm_solve(problem)
        assert systems[0] >= 1, case


def _alpha_3d_row_problem():
    """A row problem with two angles: the first row of 3-D observations."""
    rng = np.random.default_rng(12)
    xs = rng.uniform(-1.0, 1.0, (2, 150))
    a = np.vstack([np.cos(xs[0]), np.sin(xs[0]), 0.5 + 0.0 * xs[1]])
    a /= np.linalg.norm(a, axis=0)
    u = rng.normal(size=(3, 150))
    u -= a * (a * u).sum(axis=0)
    bx = rbf_design(xs, *rbf_basis(xs, 5, seed=0))
    return constraint._row_problem(bx, u, rng.normal(0.0, 0.4, 2 * bx.shape[0]))


def _ncl_lm_problem():
    """learn_ncl's problem on a fixed constraint with a task drive."""
    data = generate(GeneratorConfig(constraints=("fixed:60.0",), task_b="sin:0.5,3.0,0.0",
                                    n_per_group=150, rng_seed=2))
    bx = rbf_design(data.states, *rbf_basis(data.states, 6, seed=0))
    w0 = ridge_regression(bx, data.actions)
    return nullspace._ncl_problem(bx, data.actions, w0.ravel())


_TERM_CASES = {"alpha-2d": _alpha_row_problem, "alpha-3d": _alpha_3d_row_problem,
               "ncl": _ncl_lm_problem}


def _count_terms(monkeypatch, case):
    """Counts the evaluations of a problem's per-sample terms: calls of
    np.sin and np.cos for alpha (one each per evaluation), of _ncl_terms
    for ncl."""
    calls = {"n": 0}

    def counted(fn):
        def wrapper(*args, **kw):
            calls["n"] += 1
            return fn(*args, **kw)
        return wrapper

    if case == "ncl":
        monkeypatch.setattr(nullspace, "_ncl_terms", counted(nullspace._ncl_terms))
    else:
        monkeypatch.setattr(np, "sin", counted(np.sin))
        monkeypatch.setattr(np, "cos", counted(np.cos))
    return lambda: calls["n"] // (1 if case == "ncl" else 2)


def _counting_residual(problem):
    """The problem rebuilt as perfbench's tracer does, with a residual that
    counts its calls."""
    calls = {"n": 0}

    def residual(p):
        calls["n"] += 1
        return problem.residual(p)

    return dataclasses.replace(problem, residual=residual), lambda: calls["n"]


@pytest.mark.parametrize("case", sorted(_TERM_CASES))
def test_lm_evaluates_the_terms_once_per_residual_call(monkeypatch, case):
    problem, residual_calls = _counting_residual(_TERM_CASES[case]())
    terms_calls = _count_terms(monkeypatch, case)
    _, report = lm_solve(problem)
    assert report.iterations > 1
    assert terms_calls() == residual_calls()


@pytest.mark.parametrize("case", sorted(_TERM_CASES))
def test_system_after_a_residual_elsewhere_is_the_fresh_system(case):
    p1 = _TERM_CASES[case]().p0
    # p1 moved by one ulp in one entry, and far away
    for p2 in (p1 + np.eye(p1.size)[0] * np.spacing(p1[0]), 0.5 * p1 + 0.1):
        problem, fresh = _TERM_CASES[case](), _TERM_CASES[case]()
        problem.residual(p1)
        r2 = fresh.residual(p2)
        got, want = problem.normal_equations(p2, r2), fresh.normal_equations(p2, r2)
        assert all(_same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("case", sorted(_TERM_CASES))
def test_lm_is_bit_identical_when_every_system_recomputes_its_terms(case):
    p, report = lm_solve(_TERM_CASES[case]())
    problem = _TERM_CASES[case]()
    build = problem.normal_equations

    def forgetful(q, r):
        problem.terms.last = None
        return build(q, r)

    problem.normal_equations = forgetful
    p_ref, report_ref = lm_solve(problem)
    assert _same_bits(p, p_ref)
    assert report == report_ref


@pytest.mark.parametrize("case", sorted(_TERM_CASES))
def test_a_problem_rebuilt_by_replace_reuses_the_terms(monkeypatch, case):
    problem = _TERM_CASES[case]()
    wrapped = dataclasses.replace(problem, residual=lambda p: problem.residual(p))
    r = wrapped.residual(wrapped.p0)
    terms_calls = _count_terms(monkeypatch, case)
    wrapped.normal_equations(wrapped.p0.copy(), r)
    assert terms_calls() == 0
