"""Synthetic demonstration generators: a planar toy system driven by a
limit-cycle or linear-attractor policy under linear/parabolic constraints,
and a two-link planar arm constrained through rows of its Jacobian.

Each generated sample is decomposed as u = v + w (+ optional noise) with
v the task-space component pinv(A) b and w the null-space component N pi,
so ground-truth channels are always available for evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .core import DemonstrationSet, _frozen_finite, _number
from .mathkit import nullspace_projector, pinv_truncated


def policy_limit_cycle(x, radius=0.5, gain=1.0, angular_rate=1.0):
    """Planar limit-cycle field: radial attraction to the circle r = radius
    plus constant-rate rotation.  Accepts a single state (2,) or a batch
    (2, N)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xs = x.reshape(2, -1)
    r2 = (xs ** 2).sum(axis=0)
    shrink = gain * (radius ** 2 - r2)
    out = np.vstack((xs[0] * shrink - angular_rate * xs[1],
                     xs[1] * shrink + angular_rate * xs[0]))
    return out[:, 0] if single else out


def policy_linear(x, gain, target):
    """Linear attractor -gain (x - target); zero at the target."""
    x = np.asarray(x, dtype=float)
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    target = np.asarray(target, dtype=float)
    single = x.ndim == 1
    xs = x.reshape(len(target), -1)
    out = -gain @ (xs - target[:, None])
    return out[:, 0] if single else out


@dataclass(frozen=True)
class TwoLinkArm:
    """Planar two-revolute-joint arm with analytic kinematics."""

    l1: float = 1.0
    l2: float = 1.0

    def forward_kinematics(self, q):
        q1, q2 = float(q[0]), float(q[1])
        return np.array([self.l1 * np.cos(q1) + self.l2 * np.cos(q1 + q2),
                         self.l1 * np.sin(q1) + self.l2 * np.sin(q1 + q2)])

    def jacobian(self, q):
        """End-effector Jacobian at joint angles q: one state (2,) gives
        (2, 2), a batch (2, N) gives the stack (N, 2, 2).  States of another
        dimension are a ValueError."""
        q = np.asarray(q, dtype=float)
        if len(q) != 2:
            raise ValueError(f"the two-link Jacobian takes 2-D states (joint angles q1, q2), "
                             f"got {len(q)}-D states")
        s1, c1 = np.sin(q[0]), np.cos(q[0])
        s12, c12 = np.sin(q[0] + q[1]), np.cos(q[0] + q[1])
        rows = (np.stack([-self.l1 * s1 - self.l2 * s12, -self.l2 * s12], axis=-1),
                np.stack([self.l1 * c1 + self.l2 * c12, self.l2 * c12], axis=-1))
        return np.stack(rows, axis=-2)


# the box the states are drawn from, as (low, high): the toy plane, the arm's joint angles
STATE_BOX = {"toy2d": ((-1.0, -1.0), (1.0, 1.0)),
             "twolink": ((0.0, 0.0), (np.pi / 2, np.pi / 2))}
ARM = TwoLinkArm()
# each policy a config names, as its field at states xs (dim_x, N) under that config
POLICIES = {"limit-cycle": lambda config, xs: policy_limit_cycle(xs),
            "linear-attractor": lambda config, xs: policy_linear(xs, config.attractor_gain,
                                                                 config.attractor_target)}


def _finite(text):
    """One number of a spec; it must be finite."""
    number = float(text)
    if not np.isfinite(number):
        raise ValueError("numbers must be finite")
    return number


def _jacobian_rows(text):
    """The rows of a jrows spec; a ValueError names one out of the arm's two
    rows, a repeated one, or two, which leave no null space."""
    rows = tuple(int(v) for v in text.split(","))
    for k, r in enumerate(rows):
        if not 0 <= r < 2:
            raise ValueError(f"Jacobian row index {r} is out of range (the arm has rows 0 and 1)")
        if r in rows[:k]:
            raise ValueError(f"Jacobian row {r} is selected twice")
    if len(rows) > 1:
        raise ValueError(f"{len(rows)} Jacobian rows constrain every direction of the 2-D arm")
    return rows


def _sinusoid(text):
    """The amplitude, cycles and phase of a sin spec."""
    amplitude, cycles, phase = map(_finite, text.split(","))
    return amplitude, cycles, phase


# each field's spec kinds, as (usage, kind -> parser of the text after the
# colon, or None for a kind that takes no argument)
SPEC_KINDS = {"constraint": ("none | fixed:DEG | parabolic:A | jrows:I",
                             {"none": None, "fixed": _finite, "parabolic": _finite,
                              "jrows": _jacobian_rows}),
              "task_b": ("zero | const:V[,V] | sin:AMP,CYCLES,PHASE",
                         {"zero": None, "sin": _sinusoid,
                          "const": lambda text: tuple(map(_finite, text.split(",")))})}


def _parse(field, spec):
    """A spec string as (kind, argument); an error names the field and the
    spec as given."""
    usage, kinds = SPEC_KINDS[field]
    if not isinstance(spec, str):
        raise TypeError(f"{field} {spec!r} must be a spec string (use {usage})")
    kind, colon, text = spec.partition(":")
    if kind not in kinds:
        raise ValueError(f"{field} {spec!r}: unknown kind {kind!r} (use {usage})")
    if kinds[kind] is None:
        if colon:
            raise ValueError(f"{field} {spec!r}: {kind} takes no argument")
        return kind, None
    try:
        return kind, kinds[kind](text)
    except ValueError as exc:
        raise ValueError(f"{field} {spec!r}: {exc}") from None


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for :func:`generate`.

    ``constraints`` holds one spec per group (K = len): "none",
    "fixed:DEG" (a fixed row at DEG degrees), "parabolic:A" (the normal
    of the parabola y = A x^2 + c through the state) or "jrows:I" (row I
    of the two-link arm's Jacobian).  ``task_b`` is "zero", "const:V[,V]" (a
    constant target per constraint row) or "sin:AMP,CYCLES,PHASE", a
    sinusoid over the sample index mapped through the constraint, so the
    task motion is always feasible.  A task drive needs a constraint to
    act through: if every group is "none", ``task_b`` must be "zero".
    Every field is checked here: the specs are parsed, the system and the
    policy are keys of STATE_BOX and POLICIES, and the attractor's gain and
    target are finite, (2, 2) and (2,).  An error names the field (a spec as
    given).
    """

    system: str = "toy2d"
    policy: str = "limit-cycle"
    constraints: tuple = ("fixed:30",)
    task_b: str = "zero"
    n_per_group: int = 500
    noise_std: float = 0.0
    rng_seed: int = 0
    # the linear attractor -gain (x - target)
    attractor_gain: tuple = ((1.0, 0.0), (0.0, 1.0))
    attractor_target: tuple = (0.0, 0.0)

    def __post_init__(self):
        for name, table in (("system", STATE_BOX), ("policy", POLICIES)):
            value = getattr(self, name)
            if value not in table:
                raise ValueError(f"unknown {name} {value!r} (use {' | '.join(table)})")
        if len(self.constraints) < 1:
            raise ValueError("need at least one constraint group")
        _number("n_per_group", self.n_per_group, integer=True, ge=1)
        _number("rng_seed", self.rng_seed, integer=True, ge=0)
        _number("noise_std", self.noise_std, ge=0)
        for name, shape in (("attractor_gain", (2, 2)), ("attractor_target", (2,))):
            got = _frozen_finite(name, getattr(self, name), len(shape)).shape
            if got != shape:
                raise ValueError(f"{name} must have shape {shape}, got shape {got}")
        # a constraint of the 2-D generator has one row (jrows takes one)
        constrained = [spec for spec in self.constraints if _parse("constraint", spec)[0] != "none"]
        task = _parse("task_b", self.task_b)
        if task[0] != "zero" and not constrained:
            raise ValueError(f"task_b {self.task_b!r} drives nothing: every constraint is none")
        if task[0] == "const" and len(task[1]) != 1:
            raise ValueError(f"task_b {self.task_b!r} has {len(task[1])} values, but "
                             f"constraint {constrained[0]!r} has 1 row")


def configured_policy(config: GeneratorConfig, xs):
    """The policy that ``config`` names, at states xs (dim_x, N)."""
    return POLICIES[config.policy](config, xs)


def _constraint_matrix(constraint, xs):
    """Rows A(x) of a parsed constraint at states xs (dim_x, N), shape (N,
    k, dim_u), or None for no constraint.  A fixed angle is one matrix
    broadcast over the samples."""
    kind, arg = constraint
    n = xs.shape[1]
    if kind == "none":
        return None
    if kind == "fixed":
        th = np.deg2rad(arg)
        return np.broadcast_to([[np.cos(th), np.sin(th)]], (n, 1, 2))
    if kind == "parabolic":
        return np.stack([-2.0 * arg * xs[0], np.ones(n)], axis=-1)[:, None, :]
    return ARM.jacobian(xs)[:, list(arg), :]


def _distinct(a):
    """The matrices of a constraint stack (N, k, dim_u) that can differ: a
    fixed constraint broadcasts one matrix over the samples, returned here
    as a stack of one."""
    return a[:1] if a.strides[0] == 0 else a


def _task_targets(task, a):
    """Task targets b of a parsed task_b for the constraint stack a (N, k,
    dim_u): None, a constant (k, 1), or b_n = A_n (s_n * ones) for a
    sinusoid s_n."""
    kind, arg = task
    if kind == "zero":
        return None
    if kind == "const":
        return np.asarray(arg).reshape(a.shape[1], 1)
    amp, cycles, phase = arg
    n = len(a)
    drive = amp * np.sin(2.0 * np.pi * cycles * np.arange(n) / n + phase)
    return a @ (drive[:, None] * np.ones(a.shape[2]))[:, :, None]


def generate(config: GeneratorConfig) -> DemonstrationSet:
    """Sample a demonstration set with ground-truth decomposition.

    For each group k the states are drawn i.i.d. uniform (state box for
    the toy system, joint box for the arm), the policy is evaluated, and
    the action is composed as u = pinv(A) b + N pi + noise.  Group k uses
    the derived seed rng_seed + k, so groups are independent and the
    whole dataset is reproducible bit-for-bit.
    """
    low, high = np.asarray(STATE_BOX[config.system])
    dim_x = dim_u = 2

    blocks = {name: [] for name in ("x", "u", "pi", "v", "w", "k")}
    for k, spec in enumerate(config.constraints):
        rng = np.random.default_rng(config.rng_seed + k)
        n = config.n_per_group
        xs = rng.uniform(low[:, None], high[:, None], size=(dim_x, n))
        pi = configured_policy(config, xs)
        a = _constraint_matrix(_parse("constraint", spec), xs)
        v = np.zeros((dim_u, n))
        w = pi
        if a is not None:
            pinv = np.broadcast_to(pinv_truncated(_distinct(a)), (n, dim_u, a.shape[1]))
            w = ((np.eye(dim_u) - pinv @ a) @ pi.T[:, :, None])[:, :, 0].T
            b = _task_targets(_parse("task_b", config.task_b), a)
            if b is not None:
                v = (pinv @ b)[:, :, 0].T

        u = v + w
        if config.noise_std > 0:
            u = u + rng.normal(0.0, config.noise_std, size=u.shape)
        blocks["x"].append(xs)
        blocks["u"].append(u)
        blocks["pi"].append(pi)
        blocks["v"].append(v)
        blocks["w"].append(w)
        blocks["k"].append(np.full(n, k, dtype=int))

    return DemonstrationSet(
        states=np.hstack(blocks["x"]),
        actions=np.hstack(blocks["u"]),
        group_ids=np.concatenate(blocks["k"]),
        policy=np.hstack(blocks["pi"]),
        task_component=np.hstack(blocks["v"]),
        null_component=np.hstack(blocks["w"]),
    )


def true_projectors(config: GeneratorConfig, data: DemonstrationSet):
    """Ground-truth null-space projectors of data produced by
    :func:`generate` with the same config, as a stack (N, dim_u, dim_u)
    whose entry n is sample n's projector."""
    out = np.empty((data.n_samples, data.dim_u, data.dim_u))
    for k in range(data.n_groups):
        idx = data.group_indices(k)
        a = _constraint_matrix(_parse("constraint", config.constraints[k]), data.states[:, idx])
        out[idx] = np.eye(data.dim_u) if a is None else nullspace_projector(_distinct(a))
    return out
