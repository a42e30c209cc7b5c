"""Shared domain types: demonstration datasets, solver options and fit
reports, the delimited text format used to exchange datasets between the
CLI and the learners, and the RBF basis block that model documents share.

All containers are immutable after construction (their numpy buffers are
marked read-only), so they can be shared freely across threads.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
import itertools
import math
import numbers

import numpy as np

CONVERGENCE_REASONS = ("fun-tol", "x-tol", "max-iter", "stalled", "abandoned", "closed-form")
# the reasons a fit that did not converge can stop at
UNCONVERGED_REASONS = ("max-iter", "stalled", "abandoned")
# group ids are stored as numpy's default integer type
GROUP_ID_MIN, GROUP_ID_MAX = int(np.iinfo(int).min), int(np.iinfo(int).max)


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _frozen_finite(name, a):
    """``a`` as a read-only float array, once it is checked to hold only
    ints or floats (TypeError otherwise: no string is parsed) that are all
    finite (ValueError)."""
    a = np.asarray(a)
    if a.dtype.kind not in "iuf":
        raise TypeError(f"{name} must hold ints or floats, not {a.dtype}")
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


def _freeze_basis(model):
    """Freeze a model's RBF ``centers`` (dim_x, G) and make its shared
    ``width`` a float: at least one center, all finite, 0 < width < inf.
    A width that is not a real number (a string, a bool, None) is a
    TypeError."""
    object.__setattr__(model, "centers", _frozen_finite("centers", np.atleast_2d(model.centers)))
    if isinstance(model.width, bool) or not isinstance(model.width, numbers.Real):
        raise TypeError(f"width must be a real number, not {type(model.width).__name__}")
    object.__setattr__(model, "width", float(model.width))
    if model.centers.shape[1] < 1:
        raise ValueError("need at least one basis center")
    if not 0 < model.width < np.inf:
        raise ValueError("width must be finite and > 0")


def _basis_doc(centers, width):
    """The basis block of a model document, read back by _basis_centers;
    model fields are float arrays, so tolist() writes Python floats."""
    return {"dim_x": centers.shape[0], "n_basis": centers.shape[1],
            "centers": centers.tolist(), "width": width}


def _declared_size(doc, key):
    """A size a model document declares: a positive integer.  A bool, a
    float equal to an integer and a size < 1, which numpy's reshape would
    read as the unknown dimension, are all rejected (ValueError)."""
    size = doc[key]
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise ValueError(f"model document field {key} must be a positive integer, not {size!r}")
    return size


def _basis_centers(basis):
    return np.asarray(basis["centers"]).reshape(_declared_size(basis, "dim_x"),
                                                _declared_size(basis, "n_basis"))


@dataclass(frozen=True)
class LearnOptions:
    """Knobs shared by every learner.

    tol_fun / tol_x are the residual and parameter tolerances of the
    damped least-squares solver :func:`mathkit.lm_solve`; they stop only
    that solver, and no learner reads them to accept a constraint row.
    There is no truncation knob: a learned constraint's projector, and the
    objective its learner reports, both cut singular values below 1e-8 of
    the largest (the default of :func:`mathkit.pinv_truncated`).
    """

    tol_fun: float = 1e-9
    tol_x: float = 1e-9
    max_iter: int = 1000
    num_restarts: int = 5
    regularization: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self):
        # each field keeps the type of its default: int fields take an
        # integer (not a bool), float fields any finite real number
        for f in fields(self):
            value = getattr(self, f.name)
            whole = isinstance(f.default, int)
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if whole else numbers.Real):
                raise TypeError(f"{f.name} must be {'an integer' if whole else 'a real number'}, "
                                f"not {type(value).__name__}")
            if not (whole or math.isfinite(value)):
                raise ValueError(f"{f.name} must be finite")
        if not self.tol_fun > 0:
            raise ValueError("tol_fun must be > 0")
        if not self.tol_x > 0:
            raise ValueError("tol_x must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.num_restarts < 1:
            raise ValueError("num_restarts must be >= 1")
        if self.regularization < 0:
            raise ValueError("regularization must be >= 0")
        if not 0 <= self.rng_seed < 2 ** 64:
            raise ValueError("rng_seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class LearnReport:
    """Outcome statistics of a single fit.

    ``converged`` is qualified by ``reason`` (one of ``fun-tol``,
    ``x-tol``, ``max-iter``, ``stalled`` for a damped least-squares solve
    whose damping overflowed because no step improved the objective any
    more, ``abandoned`` for a start cut short because it trailed a better
    one, or ``closed-form`` for a direct solve with no iteration, so with
    ``iterations`` 0); a fit that did not converge can only stop at
    ``max-iter``, ``stalled`` or ``abandoned``.  A state-dependent
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
        if not self.converged and self.reason not in UNCONVERGED_REASONS:
            raise ValueError(f"a fit that did not converge cannot stop at {self.reason!r}")
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

    def split(self, train_fraction, seed=0):
        """Shuffled train/held-out split, stratified per group."""
        rng = np.random.default_rng(seed)
        train, hold = [], []
        for k in range(self.n_groups):
            idx = self.group_indices(k)
            idx = idx[rng.permutation(len(idx))]
            cut = max(1, int(round(train_fraction * len(idx))))
            train.extend(idx[:cut])
            hold.extend(idx[cut:])
        return self.subset(np.sort(train)), self.subset(np.sort(hold))


# ---------------------------------------------------------------------------
# dataset text format
#
# One sample per row, comma separated, with a header naming the columns:
# x1..x{dim_x}, u1..u{dim_u}, optional pi*/v*/w* ground-truth channels and
# an optional trailing integer group column k.
# ---------------------------------------------------------------------------

def _header_block(names, prefix):
    got = [n for n in names if n.startswith(prefix) and n[len(prefix):].isdigit()]
    expect = [f"{prefix}{i + 1}" for i in range(len(got))]
    if got != expect:
        raise ValueError(f"malformed header: expected contiguous {prefix}1..{prefix}N columns")
    return len(got)


# rows formatted per block: the tokens and text of one block at a time (a
# block of 1024 rows raised the resident peak of a whole benchmark pass)
_SAVE_BLOCK_ROWS = 256
# every character at which str.splitlines breaks a line ("\r\n" is one
# break, but text mode has already turned it and a lone "\r" into "\n")
_LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def save_dataset(data: DemonstrationSet, path):
    """Write a dataset file (format above), one block of
    _SAVE_BLOCK_ROWS rows at a time, so the Python objects alive at once
    stay a small fraction of the float table whatever its length. Each
    distinct bit pattern of a block is formatted once."""
    cols = [f"x{i+1}" for i in range(data.dim_x)] + [f"u{i+1}" for i in range(data.dim_u)]
    channels = [data.states, data.actions]
    for ch, prefix in ((data.policy, "pi"), (data.task_component, "v"), (data.null_component, "w")):
        if ch is not None:
            cols += [f"{prefix}{i+1}" for i in range(ch.shape[0])]
            channels.append(ch)
    cols.append("k")
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


def _lines(fh, size=1 << 16):
    """The lines of a file opened in text mode with universal newlines
    (open's default), split exactly as ``fh.read().splitlines()`` splits
    them, read ``size`` characters at a time: only one chunk and the line
    it leaves unfinished are held."""
    tail = []
    while chunk := fh.read(size):
        lines = chunk.splitlines()
        last = None if chunk[-1] in _LINE_BREAKS else lines.pop()
        if lines:
            lines[0] = "".join(tail) + lines[0]
            tail = []
        if last is not None:
            tail.append(last)
        yield from lines
    if tail:
        yield "".join(tail)


def _read_header(path, header, dims):
    """Column layout of a dataset file from its header line: the (dim_x,
    dim_u, dim_pi, dim_v, dim_w) block sizes and whether a trailing group
    column k is present."""
    if header is None:
        raise ValueError(f"{path}: empty dataset file")
    names = [c.strip() for c in header.removeprefix("\ufeff").split(",")]
    dim_x = _header_block(names, "x")
    dim_u = _header_block(names, "u")
    dim_pi = _header_block(names, "pi")
    dim_v = _header_block(names, "v")
    dim_w = _header_block(names, "w")
    has_k = names[-1] == "k"
    if dim_x == 0 or dim_u == 0:
        raise ValueError("header must declare x* and u* columns")
    canonical = ([f"x{i+1}" for i in range(dim_x)] + [f"u{i+1}" for i in range(dim_u)]
                 + [f"pi{i+1}" for i in range(dim_pi)] + [f"v{i+1}" for i in range(dim_v)]
                 + [f"w{i+1}" for i in range(dim_w)] + (["k"] if has_k else []))
    if names != canonical:
        raise ValueError(f"unrecognized or out-of-order columns in header: {names}")
    for d, got in (("pi", dim_pi), ("v", dim_v), ("w", dim_w)):
        if got and got != dim_u:
            raise ValueError(f"{d}* channel must have dim_u={dim_u} columns, got {got}")
    if dims is not None and (dim_x, dim_u) != tuple(dims):
        raise ValueError(f"declared dims {tuple(dims)} do not match file dims {(dim_x, dim_u)}")
    return (dim_x, dim_u, dim_pi, dim_v, dim_w), has_k


def _parse_rows(lines, n_values, has_k):
    """Data rows through numpy's C reader, fed the data lines one at a time:
    an (N, n_values) table and the raw group ids (None without a k column),
    or None when the reader rejects a line, reads a non-finite value or
    finds no rows.

    The structured dtype makes the reader enforce the exact column count
    and read group ids as int64, so it accepts a subset of what the
    per-line scan accepts, and rounds floats the way Python's float does.
    """
    lines = iter(lines)
    for first in lines:
        if first:
            break
    else:
        return None  # numpy's reader would warn that it found no data
    dtype = [("v", float, (n_values,))] + ([("k", np.int64)] if has_k else [])
    try:
        rows = np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None,
                          ndmin=1, dtype=dtype)
    except ValueError:
        return None
    if not np.isfinite(rows["v"]).all():
        return None
    return rows["v"], rows["k"] if has_k else None


def _scan_rows(path, lines, n_values, has_k):
    """The per-line scan of the data lines with Python's float and int:
    the reference parse.  It names the first offending line of the file
    (the data lines start at line 2), or returns what
    _parse_rows returns for inputs numpy's reader does not take (blank
    lines of whitespace, digit separators, non-ASCII digits or padding)."""
    expected = n_values + (1 if has_k else 0)
    # one buffer of doubles, row after row: no per-row objects outlive their line
    values, gids, linenos = array("d"), [], []

    def first_non_finite():
        rows = np.frombuffer(values, count=len(linenos) * n_values).reshape(-1, n_values)
        finite = np.isfinite(rows).all(axis=1)
        return None if finite.all() else linenos[np.argmin(finite)]

    def fail(lineno, message):
        # finiteness is checked in bulk; on this error path a non-finite value
        # on an earlier line, or on this line ahead of its group id, comes first
        bad = first_non_finite()
        if bad is not None:
            lineno, message = bad, "non-finite value"
        raise ValueError(f"{path} line {lineno}: {message}") from None

    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        tokens = line.split(",")
        if len(tokens) != expected:
            fail(lineno, f"expected {expected} columns, got {len(tokens)}")
        try:
            values.extend(map(float, tokens[:n_values]))
        except ValueError:
            fail(lineno, "non-numeric token")
        linenos.append(lineno)
        if has_k:
            tok = tokens[-1].strip()
            try:
                gid = int(tok)
            except ValueError:
                fail(lineno, f"group id {tok!r} is not an integer")
            if not GROUP_ID_MIN <= gid <= GROUP_ID_MAX:
                fail(lineno, f"group id {tok!r} is out of range")
            gids.append(gid)
    if not linenos:
        raise ValueError(f"{path}: no data rows")
    bad = first_non_finite()
    if bad is not None:
        raise ValueError(f"{path} line {bad}: non-finite value")
    return (np.frombuffer(values).reshape(-1, n_values),
            np.asarray(gids, dtype=int) if has_k else None)


def load_dataset(path, dims=None) -> DemonstrationSet:
    """Read a dataset file, validating dimensions and values.

    dims, when given, is a (dim_x, dim_u) pair checked against the header.
    A row with a wrong column count, a non-numeric token, a non-finite
    value or a non-integer or out-of-range group id (checked in that
    order) is rejected, naming the first offending line of the file.
    Group ids are remapped onto a dense [0, K) range; a missing group
    column means a single group.  A leading UTF-8 byte-order mark is
    ignored.

    The file is read in chunks and never held whole: numpy's C reader
    parses the lines as they are read, so the memory held beyond the
    result is a chunk and the line in reading.  Only when that reader
    rejects a line, reads a non-finite value or finds no rows is the file
    read again, by the per-line reference scan, which names the offending
    line or accepts what only Python's float and int take.
    """
    with open(path) as fh:
        lines = _lines(fh)
        blocks, has_k = _read_header(path, next(lines, None), dims)
        n_values = sum(blocks)
        parsed = _parse_rows(lines, n_values, has_k)
        if parsed is None:
            fh.seek(0)
            parsed = _scan_rows(path, itertools.islice(_lines(fh), 1, None), n_values, has_k)
    rows, raw = parsed
    table = rows.T
    channels, ofs = [], 0
    for d in blocks:
        channels.append(table[ofs:ofs + d] if d else None)
        ofs += d
    states, actions, policy, task_c, null_c = channels
    if raw is None:
        dense = np.zeros(table.shape[1], dtype=int)
    else:
        _, dense = np.unique(raw, return_inverse=True)
    return DemonstrationSet(states=states, actions=actions, group_ids=dense,
                            policy=policy, task_component=task_c, null_component=null_c)
