"""Shared domain types: demonstration datasets, solver options and fit
reports, the delimited text format used to exchange datasets between the
CLI and the learners, and the field checks that model constructors share.

All containers are immutable after construction (their numpy buffers are
marked read-only), so they can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
import numbers
import operator
import sys

import numpy as np

CONVERGENCE_REASONS = ("fun-tol", "x-tol", "max-iter", "stalled", "abandoned", "closed-form")
# the reasons a fit that did not converge can stop at
UNCONVERGED_REASONS = ("max-iter", "stalled", "abandoned")
# group ids are read as 64-bit integers
GROUP_ID_MIN, GROUP_ID_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _frozen_finite(name, a, ndim):
    """``a`` as a read-only float array, once it is checked to hold only
    ints or floats (TypeError otherwise: no string or bool is read) on
    exactly ``ndim`` axes, none of them empty, that are all finite
    (ValueError, which also names a ragged ``a``).  It is never reshaped,
    and an empty axis, which nested lists cannot hold, is refused, so the
    array round-trips through ``tolist``."""
    try:
        a = np.asarray(a)
    except ValueError:  # numpy's words for nested sequences of unequal lengths
        raise ValueError(f"{name} is ragged: its nested sequences differ in length") from None
    if a.dtype.kind not in "iuf":
        raise TypeError(f"{name} must hold ints or floats, not {a.dtype}")
    if a.ndim != ndim or 0 in a.shape:
        raise ValueError(f"{name} must have {ndim} non-empty axes, got shape {a.shape}")
    a = _freeze(np.asarray(a, dtype=float))
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _finite_samples(name, a):
    """A learner's argument ``a`` as a float array (dim, N), once it is
    checked to hold only finite values (ValueError naming it otherwise)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _number(name, value, integer=False, *, ge=None, gt=None, le=None):
    """``value``, checked to be a number a user sets: an integer if
    ``integer``, else a finite real number, never a bool or a string (a
    TypeError naming it otherwise), and >= ``ge``, > ``gt``, <= ``le`` (a
    ValueError).  It is compared as given, never through float(), so a
    huge integer is refused as not finite and does not overflow; a
    refusal words an integer of more than 64 bits by its bit count, as
    Python will not print one of more than 4300 digits."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real):
        raise TypeError(f"{name} must be {'an integer' if integer else 'a real number'}, "
                        f"not {type(value).__name__}")
    if not (integer or -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"{name} must be finite")
    for bound, sign, holds in ((ge, ">=", operator.ge), (gt, ">", operator.gt),
                               (le, "<=", operator.le)):
        if bound is not None and not holds(value, bound):
            bits = int(value).bit_length() if integer else 0
            shown = f"an integer of {bits} bits" if bits > 64 else value
            raise ValueError(f"{name} must be {sign} {bound}, got {shown}")
    return value


def _freeze_basis(model):
    """Freeze a model's RBF ``centers`` (dim_x, G) and make its shared
    ``width``, a finite real number > 0, a float."""
    object.__setattr__(model, "centers", _frozen_finite("centers", model.centers, 2))
    object.__setattr__(model, "width", float(_number("width", model.width, gt=0)))


@dataclass(frozen=True)
class LearnOptions:
    """Settings of the learners that take options: alpha, ncl, pi and
    pi-lwl.  nhat and lambda solve in closed form and read none of them.

    Every RBF learner seeds its K-means with rng_seed and ridges its
    least squares with regularization.  Only alpha and ncl run damped
    least squares, and so read tol_fun, tol_x and max_iter; only alpha
    restarts it, num_restarts times per row (its restart angles also
    draw from rng_seed).  tol_fun / tol_x are the residual and parameter tolerances of the
    damped least-squares solver :func:`mathkit.lm_solve`; they stop only
    that solver, and no learner reads them to accept a constraint row.
    Its reason ``fun-tol`` means an accepted step gained less than
    tol_fun, or its relative actual and predicted reductions were both at
    most mathkit.LM_FTOL (a constant, not an option).
    There is no truncation knob: a learned constraint's projector, and the
    objective its learner reports, both cut singular values below 1e-8 of
    the largest (the default of :func:`mathkit.pinv_truncated`).
    """

    # each field's metadata holds its bounds, as keywords of _number
    tol_fun: float = field(default=1e-9, metadata=dict(gt=0))
    tol_x: float = field(default=1e-9, metadata=dict(gt=0))
    max_iter: int = field(default=1000, metadata=dict(ge=1))
    num_restarts: int = field(default=5, metadata=dict(ge=1))
    regularization: float = field(default=1e-8, metadata=dict(ge=0))
    rng_seed: int = field(default=0, metadata=dict(ge=0, le=2 ** 64 - 1))

    def __post_init__(self):
        # a field with an int default takes an integer
        for f in fields(self):
            _number(f.name, getattr(self, f.name), isinstance(f.default, int), **f.metadata)


@dataclass(frozen=True)
class LearnReport:
    """Outcome statistics of a single fit.

    ``converged`` is qualified by ``reason`` (one of ``fun-tol``,
    ``x-tol``, ``max-iter``, ``stalled`` for a damped least-squares solve
    whose damping overflowed because no step improved the objective any
    more, ``abandoned`` for a start cut short because it trailed a better
    one, or ``closed-form`` for a direct solve with no iteration, so with
    ``iterations`` 0); a fit stops at ``max-iter``, ``stalled`` or
    ``abandoned`` exactly when it did not converge.  A state-dependent
    constraint learner reports over the starts it kept: ``max-iter`` if
    any of them stopped there, otherwise ``stalled`` if any of them
    stalled, otherwise ``x-tol`` if any of them stopped on the step
    tolerance, otherwise ``fun-tol``.

    ``objective_trace`` has one entry per constraint row accepted by a
    greedy learner: the target energy that row captures inside the
    complement of the earlier rows.  ``starts`` has one record per damped
    least-squares solve (none for the closed forms), in schedule order: a
    dict with the 0-based ``row`` and ``start`` index, its ``iterations``,
    final ``objective`` and stop ``reason``.  ``notes`` carries free-form
    diagnostic flags such as ``no-constraint-found``.
    """

    nmse: float
    mse: float
    variance: float
    iterations: int
    final_objective: float
    converged: bool
    reason: str = "max-iter"
    objective_trace: tuple = ()
    notes: tuple = ()
    dropped_samples: int = 0
    starts: tuple = ()

    def __post_init__(self):
        if self.reason not in CONVERGENCE_REASONS:
            raise ValueError(f"unknown convergence reason {self.reason!r}")
        if bool(self.converged) == (self.reason in UNCONVERGED_REASONS):
            state = "converged" if self.converged else "did not converge"
            raise ValueError(f"a fit that {state} cannot stop at {self.reason!r}")
        if self.reason == "closed-form" and self.iterations != 0:
            raise ValueError("a closed-form fit runs no iterations")
        for name in ("nmse", "mse", "variance", "final_objective"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.variance > 0:
            expected = self.mse / self.variance
            if abs(self.nmse - expected) > 1e-9 * max(1.0, expected):
                raise ValueError("nmse must equal mse / variance")

    @classmethod
    def from_errors(cls, mse, variance, **kw):
        nmse = mse / variance if variance > 0 else 0.0
        return cls(nmse=nmse, mse=mse, variance=variance, **kw)


@dataclass(frozen=True)
class DemonstrationSet:
    """Column-per-sample demonstration data.

    states      (dim_x, N)
    actions     (dim_u, N)
    group_ids   (N,) integers in [0, K), marking which constraint
                condition produced each sample
    policy / task_component / null_component are optional ground-truth
    channels of shape (dim_u, N).
    """

    states: np.ndarray
    actions: np.ndarray
    group_ids: np.ndarray = None
    policy: np.ndarray = None
    task_component: np.ndarray = None
    null_component: np.ndarray = None

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, float))
        actions = np.atleast_2d(np.asarray(self.actions, float))
        n = states.shape[1]
        if n < 1:
            raise ValueError("dataset needs at least one sample")
        if actions.shape[1] != n:
            raise ValueError("states and actions disagree on sample count")
        gid = np.zeros(n, dtype=int) if self.group_ids is None else np.asarray(self.group_ids)
        if gid.dtype.kind == "f" and not (np.mod(gid, 1.0) == 0.0).all():
            raise ValueError("group ids must be integers")
        gid = gid.astype(int)
        if gid.shape != (n,):
            raise ValueError("group_ids must have one entry per sample")
        if gid.min(initial=0) < 0:
            raise ValueError("group ids must be non-negative")
        k = int(gid.max(initial=0)) + 1
        present = np.unique(gid)
        if len(present) != k:
            raise ValueError("group ids must be dense: every id in [0, K) used")
        object.__setattr__(self, "states", _freeze(states))
        object.__setattr__(self, "actions", _freeze(actions))
        object.__setattr__(self, "group_ids", _freeze(gid))
        for name in ("policy", "task_component", "null_component"):
            ch = getattr(self, name)
            if ch is None:
                continue
            ch = np.atleast_2d(np.asarray(ch, float))
            if ch.shape != actions.shape:
                raise ValueError(f"{name} channel must match actions shape")
            object.__setattr__(self, name, _freeze(ch))
        for name in ("states", "actions", "policy", "task_component", "null_component"):
            ch = getattr(self, name)
            if ch is not None and not np.isfinite(ch).all():
                raise ValueError(f"non-finite entries in {name}")

    @property
    def dim_x(self):
        return self.states.shape[0]

    @property
    def dim_u(self):
        return self.actions.shape[0]

    @property
    def n_samples(self):
        return self.states.shape[1]

    @property
    def n_groups(self):
        return int(self.group_ids.max()) + 1

    def group_indices(self, k):
        return np.flatnonzero(self.group_ids == k)

    def subset(self, idx):
        """New dataset restricted to the given sample indices (group ids
        are re-densified)."""
        idx = np.asarray(idx, dtype=int)
        gid = self.group_ids[idx]
        _, dense = np.unique(gid, return_inverse=True)
        pick = lambda ch: None if ch is None else ch[:, idx]
        return DemonstrationSet(
            states=self.states[:, idx],
            actions=self.actions[:, idx],
            group_ids=dense,
            policy=pick(self.policy),
            task_component=pick(self.task_component),
            null_component=pick(self.null_component),
        )


# ---------------------------------------------------------------------------
# dataset text format
#
# One sample per row, comma separated, with a header naming the columns:
# x1..x{dim_x}, u1..u{dim_u}, optional pi*/v*/w* ground-truth channels and
# an optional trailing integer group column k.
# ---------------------------------------------------------------------------

# rows formatted per block: the tokens and text of one block at a time (a
# block of 1024 rows raised the resident peak of a whole benchmark pass)
_SAVE_BLOCK_ROWS = 256
# the column blocks of the header, in order: states, actions and the
# policy, task and null-space channels
_BLOCKS = ("x", "u", "pi", "v", "w")


def save_dataset(data: DemonstrationSet, path):
    """Write a dataset file (format above), one block of
    _SAVE_BLOCK_ROWS rows at a time, so the Python objects alive at once
    stay a small fraction of the float table whatever its length. Each
    distinct bit pattern of a block is formatted once."""
    channels = [data.states, data.actions, data.policy, data.task_component, data.null_component]
    cols = [f"{p}{i + 1}" for p, ch in zip(_BLOCKS, channels) if ch is not None
            for i in range(len(ch))] + ["k"]
    channels = [ch for ch in channels if ch is not None]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for s in range(0, data.n_samples, _SAVE_BLOCK_ROWS):
            block = slice(s, s + _SAVE_BLOCK_ROWS)
            table = np.vstack([ch[:, block] for ch in channels]).T
            # bit patterns, not float equality, so -0.0 stays apart from 0.0
            bits, inverse = np.unique(table.ravel().view(np.int64), return_inverse=True)
            # repr of a Python float is the shortest string that reads back bit for bit
            tokens = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            # a row is value, ",", value, ",", ..., group id, "\n"
            cells = np.empty((len(table), 2 * len(cols)), dtype=object)
            cells[:, 1::2] = ","
            cells[:, -1] = "\n"
            cells[:, :-2:2] = tokens[inverse.reshape(table.shape)]
            cells[:, -2] = list(map(str, data.group_ids[block].tolist()))
            fh.write("".join(cells.ravel().tolist()))


def _read_header(path, header):
    """Column layout of a dataset file from its header line: the (dim_x,
    dim_u, dim_pi, dim_v, dim_w) block sizes and whether a trailing group
    column k is present."""
    if not header:
        raise ValueError(f"{path}: empty dataset file")
    names = [c.strip() for c in header.removeprefix("\ufeff").split(",")]
    blocks = tuple(sum(n.startswith(p) and n[len(p):].isdigit() for n in names) for p in _BLOCKS)
    has_k = names[-1] == "k"
    dim_x, dim_u = blocks[:2]
    if dim_x == 0 or dim_u == 0:
        raise ValueError(f"{path} line 1: header must declare x* and u* columns")
    canonical = [f"{p}{i + 1}" for p, d in zip(_BLOCKS, blocks) for i in range(d)]
    if names != canonical + ["k"] * has_k:
        raise ValueError(f"{path} line 1: unrecognized or out-of-order columns in header: {names}")
    for p, got in zip(_BLOCKS[2:], blocks[2:]):
        if got and got != dim_u:
            raise ValueError(f"{path} line 1: {p}* channel must have dim_u={dim_u} columns, "
                             f"got {got}")
    return blocks, has_k


def _read(lines, n_values, has_k=False):
    """numpy's C reader on data lines of ``n_values`` float columns and,
    with has_k, a trailing column of 64-bit integer group ids: a structured
    array with fields "v" and "k", or None when it refuses a line.  The
    structured dtype makes it enforce the exact column count; it rounds
    each value the way Python's float does."""
    dtype = [("v", float, (n_values,))] + ([("k", np.int64)] if has_k else [])
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=dtype)
    except ValueError:
        return None


def _out_of_range(token):
    """Whether a group id numpy's reader refuses as a 64-bit integer is a
    whole number beyond that range: the reader reads it as a number and
    int as an integer (int alone also takes "1_000" and non-ASCII digits)."""
    try:
        whole = int(token)
    except ValueError:
        return False
    return not GROUP_ID_MIN <= whole <= GROUP_ID_MAX and _read([token], 1) is not None


def _row_error(line, n_values, has_k):
    """Why numpy's reader refuses a data line, with its checks in this
    order: the column count, a value it does not read as a number, a
    non-finite value, then a group id it does not read as a 64-bit
    integer."""
    tokens = line.split(",")
    expected = n_values + has_k
    if len(tokens) != expected:
        return f"expected {expected} columns, got {len(tokens)}"
    # n_values >= 2, so the values hold a comma and are never a blank line
    values = _read([",".join(tokens[:n_values])], n_values)
    if values is None:
        return "non-numeric token"
    if not np.isfinite(values["v"]).all():
        return "non-finite value"
    token = tokens[-1].strip()
    return f"group id {token!r} is {'out of range' if _out_of_range(token) else 'not an integer'}"


def _scan_rows(path, n_values, has_k):
    """The error for a dataset file numpy's reader refuses, found by reading
    it again: it names the first data line (they start at line 2) that the
    reader refuses, found by halving a block of lines known to hold it, or
    else says that the file holds no data rows."""
    with open(path) as fh:
        fh.readline()
        rows = [(lineno, line) for lineno, line in enumerate(fh, start=2) if not line.isspace()]
    if not rows:
        return ValueError(f"{path}: no data rows")
    lo, hi = 0, len(rows)  # rows[lo:hi] holds the first refused line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        block = _read([line for _, line in rows[lo:mid]], n_values, has_k)
        if block is None or not np.isfinite(block["v"]).all():
            hi = mid
        else:
            lo = mid
    lineno, line = rows[lo]
    return ValueError(f"{path} line {lineno}: {_row_error(line, n_values, has_k)}")


def _undecodable(path, exc):
    """The error for a dataset file with a byte that does not decode, naming
    its line.  Text mode decodes in chunks, so the position in exc is not on
    the line: the file is read again with each bad byte kept as a surrogate."""
    with open(path, errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode(exc.encoding)
            except UnicodeEncodeError as bad:
                byte = ord(line[bad.start]) - 0xDC00
                return ValueError(f"{path} line {lineno}: {exc.encoding!r} codec can't decode "
                                  f"byte 0x{byte:02x}")
    return exc


def load_dataset(path) -> DemonstrationSet:
    """Read a dataset file, validating dimensions and values.

    Lines end where text mode ends them (LF, CRLF or CR), and blank or
    whitespace-only lines are skipped.  numpy's C reader parses the data
    lines as they are read (the file is never held whole): values as
    floats, rounded the way Python's float rounds, and group ids as 64-bit
    integers.  A leading UTF-8 byte-order mark is ignored.  Group ids are
    remapped onto a dense [0, K) range; a missing group column means a
    single group.

    A malformed header is a ValueError naming it.  When the reader refuses
    a line, reads a non-finite value or finds no rows, the file is read
    again to name the first offending line, as ``PATH line L: ...``: a
    wrong column count, a non-numeric token, a non-finite value, then a
    group id that is not an integer or is out of range, checked in that
    order.  A byte that does not decode is named the same way, on the
    header or a data line.
    """
    try:
        with open(path) as fh:
            blocks, has_k = _read_header(path, fh.readline())
            lines = (line for line in fh if not line.isspace())
            # taken apart, since numpy's reader warns when it finds no data
            first = next(lines, None)
            rows = None if first is None else _read(
                (line for part in ([first], lines) for line in part), sum(blocks), has_k)
        if rows is None or not np.isfinite(rows["v"]).all():
            raise _scan_rows(path, sum(blocks), has_k)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    states, actions, policy, task_c, null_c = (
        part if len(part) else None for part in np.split(rows["v"].T, np.cumsum(blocks)[:-1]))
    dense = np.unique(rows["k"], return_inverse=True)[1] if has_k else None
    return DemonstrationSet(states=states, actions=actions, group_ids=dense,
                            policy=policy, task_component=task_c, null_component=null_c)
