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

from .core import DemonstrationSet
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


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for :func:`generate`.

    ``constraints`` holds one spec per group (K = len), each a tuple:
    ("none",), ("fixed-angle", degrees), ("parabolic", curvature) or
    ("jacobian-rows", (row, ...)).  ``task_b`` is ("zero",),
    ("constant", (values...)) or ("sinusoid", amplitude, cycles, phase)
    where the sinusoid runs over the sample index and is mapped through
    the constraint so the task motion is always feasible.  A task drive
    needs a constraint to act through: if every group is ("none",),
    ``task_b`` must be ("zero",).
    """

    system: str = "toy2d"
    policy: str = "limit-cycle"
    constraints: tuple = (("fixed-angle", 30.0),)
    task_b: tuple = ("zero",)
    n_per_group: int = 500
    noise_std: float = 0.0
    rng_seed: int = 0
    # policy parameters
    cycle_radius: float = 0.5
    cycle_gain: float = 1.0
    cycle_rate: float = 1.0
    attractor_gain: tuple = ((1.0, 0.0), (0.0, 1.0))
    attractor_target: tuple = (0.0, 0.0)
    # sampling ranges
    state_low: tuple = (-1.0, -1.0)
    state_high: tuple = (1.0, 1.0)
    joint_low: tuple = (0.0, 0.0)
    joint_high: tuple = (np.pi / 2, np.pi / 2)
    arm_lengths: tuple = (1.0, 1.0)

    def __post_init__(self):
        if self.system not in ("toy2d", "twolink"):
            raise ValueError(f"unknown system {self.system!r}")
        if self.policy not in ("limit-cycle", "linear-attractor"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if len(self.constraints) < 1:
            raise ValueError("need at least one constraint group")
        if self.n_per_group < 1:
            raise ValueError("n_per_group must be >= 1")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        for spec in self.constraints:
            if spec[0] == "jacobian-rows":
                check_jacobian_rows(spec[1])
        if self.task_b[0] != "zero" and not any(map(constraint_rows, self.constraints)):
            raise ValueError(f"task_b {self.task_b[0]!r} drives nothing: "
                             f"no group has a constraint")
        if self.task_b[0] == "constant":
            values = np.size(self.task_b[1])
            for k, spec in enumerate(self.constraints):
                rows = constraint_rows(spec)
                if rows and rows != values:
                    raise ValueError(f"constant task_b has {values} values, but "
                                     f"group {k}'s constraint has {rows} row(s)")


def configured_policy(config: GeneratorConfig, xs):
    """The policy that ``config`` names, at states xs (dim_x, N)."""
    if config.policy == "limit-cycle":
        return policy_limit_cycle(xs, config.cycle_radius, config.cycle_gain, config.cycle_rate)
    return policy_linear(xs, config.attractor_gain, config.attractor_target)


def check_jacobian_rows(rows):
    """The rows of a ("jacobian-rows", rows) spec; a ValueError names one out
    of the arm's two rows, a repeated one, or two, which leave no null space."""
    for k, r in enumerate(rows):
        if not 0 <= r < 2:
            raise ValueError(f"Jacobian row index {r} is out of range (the arm has rows 0 and 1)")
        if r in rows[:k]:
            raise ValueError(f"Jacobian row {r} is selected twice")
    if len(rows) > 1:
        raise ValueError(f"{len(rows)} Jacobian rows constrain every direction of the 2-D arm")
    return rows


def constraint_rows(spec):
    """The number of constraint rows of a spec; 0 for ("none",)."""
    if spec[0] == "jacobian-rows":
        return len(np.atleast_1d(spec[1]))
    return 0 if spec[0] == "none" else 1


def _constraint_matrix(spec, xs, arm):
    """Constraint rows A(x) at states xs (dim_x, N), shape (N, k, dim_u),
    or None for no constraint.  A fixed angle is one matrix broadcast over
    the samples."""
    kind = spec[0]
    n = xs.shape[1]
    if kind == "none":
        return None
    if kind == "fixed-angle":
        th = np.deg2rad(float(spec[1]))
        return np.broadcast_to([[np.cos(th), np.sin(th)]], (n, 1, 2))
    if kind == "parabolic":
        a = float(spec[1])
        return np.stack([-2.0 * a * xs[0], np.ones(n)], axis=-1)[:, None, :]
    if kind == "jacobian-rows":
        return arm.jacobian(xs)[:, list(spec[1]), :]
    raise ValueError(f"unknown constraint kind {kind!r}")


def _distinct(a):
    """The matrices of a constraint stack (N, k, dim_u) that can differ: a
    fixed constraint broadcasts one matrix over the samples, returned here
    as a stack of one."""
    return a[:1] if a.strides[0] == 0 else a


def _task_targets(task_b, a):
    """Task targets b for the constraint stack a (N, k, dim_u): None, a
    constant (k, 1), or b_n = A_n (s_n * ones) for a sinusoid s_n."""
    kind = task_b[0]
    if kind == "zero":
        return None
    if kind == "constant":
        return np.asarray(task_b[1], dtype=float).reshape(a.shape[1], 1)
    if kind == "sinusoid":
        amp, cycles, phase = (float(v) for v in task_b[1:4])
        n = len(a)
        drive = amp * np.sin(2.0 * np.pi * cycles * np.arange(n) / n + phase)
        return a @ (drive[:, None] * np.ones(a.shape[2]))[:, :, None]
    raise ValueError(f"unknown task_b kind {kind!r}")


def generate(config: GeneratorConfig) -> DemonstrationSet:
    """Sample a demonstration set with ground-truth decomposition.

    For each group k the states are drawn i.i.d. uniform (state box for
    the toy system, joint box for the arm), the policy is evaluated, and
    the action is composed as u = pinv(A) b + N pi + noise.  Group k uses
    the derived seed rng_seed + k, so groups are independent and the
    whole dataset is reproducible bit-for-bit.
    """
    arm = TwoLinkArm(*config.arm_lengths)
    low, high = ((config.joint_low, config.joint_high) if config.system == "twolink"
                 else (config.state_low, config.state_high))
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    dim_x = dim_u = 2

    blocks = {name: [] for name in ("x", "u", "pi", "v", "w", "k")}
    for k, spec in enumerate(config.constraints):
        rng = np.random.default_rng(config.rng_seed + k)
        n = config.n_per_group
        xs = rng.uniform(low[:, None], high[:, None], size=(dim_x, n))
        pi = configured_policy(config, xs)
        a = _constraint_matrix(spec, xs, arm)
        v = np.zeros((dim_u, n))
        w = pi
        if a is not None:
            pinv = np.broadcast_to(pinv_truncated(_distinct(a)), (n, dim_u, a.shape[1]))
            w = ((np.eye(dim_u) - pinv @ a) @ pi.T[:, :, None])[:, :, 0].T
            b = _task_targets(config.task_b, a)
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
    arm = TwoLinkArm(*config.arm_lengths)
    out = np.empty((data.n_samples, data.dim_u, data.dim_u))
    for k in range(data.n_groups):
        idx = data.group_indices(k)
        a = _constraint_matrix(config.constraints[k], data.states[:, idx], arm)
        out[idx] = np.eye(data.dim_u) if a is None else nullspace_projector(_distinct(a))
    return out
