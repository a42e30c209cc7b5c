"""Command-line pipeline: generate data, learn models, evaluate metrics,
and run the bundled end-to-end tutorials.

Every run writes a JSON manifest next to its outputs recording the
resolved command (sufficient to re-run it), the seed (null for eval,
which draws no random numbers), wall-clock duration and a summary of the
learning report.  All artifact outputs are deterministic for a fixed
--seed; the environment variable CCL_SEED overrides the default seed.

Exit codes: 0 success, 1 input or validation error, 2 learning finished
without convergence (best-effort model still written).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .constraint import feature_provider_from_name, learn_alpha, learn_lambda, learn_nhat
from .core import DemonstrationSet, LearnOptions, load_dataset, save_dataset
from .datagen import (POLICIES, SPEC_KINDS, STATE_BOX, GeneratorConfig, configured_policy,
                      generate, true_projectors)
from .nullspace import learn_ncl
from .policy import learn_pi, learn_pi_lwl
from .serialize import load_model, save_model

# every LearnOptions field but the seed is a learn flag (--tol-fun, ...)
SOLVER_FIELDS = [f for f in fields(LearnOptions) if f.name != "rng_seed"]


class CliError(Exception):
    """Input or usage problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


@dataclass(frozen=True)
class RunManifest:
    """Record of one CLI run, written next to its outputs."""

    subcommand: str
    command: tuple
    config: dict
    inputs: tuple
    outputs: tuple
    seed: Optional[int]  # None for eval, which draws no random numbers
    duration_s: float
    report: dict = None

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True, default=list)
            fh.write("\n")


def _default_seed():
    text = os.environ.get("CCL_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise CliError(f"CCL_SEED must be an integer, got {text!r}") from None


def _manifest_path(out_path):
    return f"{out_path}.manifest.json"


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _gen_config(args):
    return GeneratorConfig(
        system=args.system, policy=args.policy, constraints=tuple(args.constraint),
        task_b=args.b, n_per_group=args.n, noise_std=args.noise, rng_seed=args.seed)


def cmd_gen(args):
    config = _gen_config(args)
    t0 = time.perf_counter()
    data = generate(config)
    save_dataset(data, args.out)
    command = ["gen", "--system", args.system, "--policy", args.policy]
    for c in args.constraint:
        command += ["--constraint", c]
    command += ["--b", args.b, "--n", str(args.n), "--noise", repr(args.noise),
                "--seed", str(args.seed), "--out", args.out]
    RunManifest(subcommand="gen", command=tuple(command), config=asdict(config),
                inputs=(), outputs=(args.out,), seed=args.seed,
                duration_s=time.perf_counter() - t0).write(_manifest_path(args.out))
    print(f"gen: wrote {data.n_samples} samples ({data.n_groups} groups) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

def _solver_flag(field):
    return "--" + field.name.replace("_", "-")


def _options_from_args(args):
    # only the given solver flags, so their defaults live in LearnOptions alone
    given = {f.name: getattr(args, f.name) for f in SOLVER_FIELDS}
    return LearnOptions(rng_seed=args.seed, **{k: v for k, v in given.items() if v is not None})


def _learner_flags(args):
    """The learner and solver flags given on the command line (a --basis
    only when it is not the default), as flag -> value."""
    given = {"--num-basis": args.num_basis, "--dim-b": args.dim_b,
             "--features": args.features, "--basis": None if args.basis == "rbf" else args.basis,
             **{_solver_flag(f): getattr(args, f.name) for f in SOLVER_FIELDS}}
    return {flag: value for flag, value in given.items() if value is not None}


def _size(args, name="num_basis"):
    # the basis size goes to the learner only when given, so its default
    # lives in the learner's signature alone
    return {} if args.num_basis is None else {name: args.num_basis}


_LM_FLAGS = ("--tol-fun", "--tol-x", "--max-iter")  # they stop damped least squares
# each --method: its learner call on (parsed args, dataset, options), and the
# learner and solver flags it reads
LEARNERS = {
    "nhat": (lambda a, d, o: learn_nhat(d.actions), ()),
    "alpha": (lambda a, d, o: learn_alpha(d.actions, d.states, o, dim_b=a.dim_b, **_size(a)),
              ("--num-basis", "--dim-b", *_LM_FLAGS, "--num-restarts", "--regularization")),
    "lambda": (lambda a, d, o: learn_lambda(d.actions, d.states,
                                            feature_provider_from_name(a.features), dim_b=a.dim_b),
               ("--dim-b", "--features")),
    "ncl": (lambda a, d, o: learn_ncl(d.states, d.actions, o, **_size(a)),
            ("--num-basis", *_LM_FLAGS, "--regularization")),
    "pi": (lambda a, d, o: learn_pi(d.states, d.actions, o, basis=a.basis, **_size(a)),
           ("--num-basis", "--basis", "--regularization")),
    "pi-lwl": (lambda a, d, o: learn_pi_lwl(d.states, d.actions, o, **_size(a, "num_local")),
               ("--num-basis", "--regularization")),
}


def _check_learner_flags(args):
    _, reads = LEARNERS[args.method]
    for flag in _learner_flags(args):
        if flag not in reads:
            raise CliError(f"method {args.method} does not take {flag}")
    if args.basis == "linear" and args.num_basis is not None:
        raise CliError("--basis linear does not take --num-basis "
                       "(its features (x, 1) have a fixed size)")
    if args.method == "lambda" and not args.features:
        raise CliError("method lambda needs --features "
                       "(e.g. twolink-jacobian:1.0,1.0 or identity:2)")


def _learn_config(args, opts, model):
    """The learn manifest's config: the method and, for each flag in its
    LEARNERS row, the value its learner used under the flag's name (a
    solver option as resolved; the basis size as the model's center count,
    None for the affine features)."""
    centers = getattr(model, "centers", None)
    used = {"--num-basis": None if centers is None else centers.shape[1],
            "--dim-b": args.dim_b, "--features": args.features, "--basis": args.basis,
            **{_solver_flag(f): getattr(opts, f.name) for f in SOLVER_FIELDS}}
    _, reads = LEARNERS[args.method]
    return {"method": args.method, **{flag[2:].replace("-", "_"): used[flag] for flag in reads}}


def cmd_learn(args):
    t0 = time.perf_counter()
    _check_learner_flags(args)
    data = load_dataset(args.inp)
    opts = _options_from_args(args)
    learn, _ = LEARNERS[args.method]
    model, report = learn(args, data, opts)
    save_model(model, args.out)

    notes = list(report.notes)
    if args.method in ("pi", "pi-lwl") and data.n_groups == 1:
        notes.append("degeneracy-warning: all samples share one constraint group; "
                     "the policy is only pinned down along observed directions")
    summary = dict(asdict(report), notes=notes)
    command = ["learn", "--method", args.method, "--in", args.inp, "--out", args.out,
               "--seed", str(args.seed)]
    for flag, value in _learner_flags(args).items():
        command += [flag, str(value)]
    RunManifest(subcommand="learn", command=tuple(command),
                config=_learn_config(args, opts, model),
                inputs=(args.inp,), outputs=(args.out,), seed=args.seed,
                duration_s=time.perf_counter() - t0,
                report=summary).write(_manifest_path(args.out))
    print(f"learn: method={args.method} converged={report.converged} "
          f"reason={report.reason} iterations={report.iterations} "
          f"objective={report.final_objective:.6g} nmse={report.nmse:.6g} "
          f"notes={json.dumps(notes)}")
    return 0 if report.converged else 2


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def compute_metrics(model, data: DemonstrationSet):
    """All metrics applicable to a (model, dataset) pair.

    Returns (rows, skipped): rows are (name, MetricTriple), skipped are
    (name, why) notes for metrics whose ground-truth channels are absent.
    """
    # each model scores itself; this stays a named function because the
    # benchmark's tracer (perfbench/tracer.py) times the eval metrics by it
    return model.metrics(data)


def _metric_table(rows, skipped):
    lines = ["metric,normalized,variance,mse"]
    for name, triple in rows:
        lines.append(f"{name},{triple.normalized!r},{triple.variance!r},{triple.mse!r}")
    for name, why in skipped:
        lines.append(f"# {name} skipped: {why}")
    return "\n".join(lines) + "\n"


def cmd_eval(args):
    t0 = time.perf_counter()
    model = load_model(args.model)
    data = load_dataset(args.data)
    rows, skipped = compute_metrics(model, data)
    table = _metric_table(rows, skipped)
    sys.stdout.write(table)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
        structured = {"metrics": {name: asdict(t) for name, t in rows},
                      "skipped": dict(skipped)}
        RunManifest(subcommand="eval",
                    command=("eval", "--model", args.model, "--data", args.data,
                             "--out", args.out),
                    config={}, inputs=(args.model, args.data), outputs=(args.out,),
                    seed=None, duration_s=time.perf_counter() - t0,
                    report=structured).write(_manifest_path(args.out))
    return 0


# ---------------------------------------------------------------------------
# tutorials
# ---------------------------------------------------------------------------

def _grid_states(low, high, per_axis=15):
    ax = [np.linspace(low[i], high[i], per_axis) for i in range(2)]
    g = np.meshgrid(*ax, indexing="ij")
    return np.vstack([v.ravel() for v in g])


def _projector_field(config, model):
    """True and learned null-space projectors on a grid over the states (the
    joint angles for twolink), as (column names, columns)."""
    xs = _grid_states(*STATE_BOX[config.system])
    dummy = DemonstrationSet(states=xs, actions=np.zeros_like(xs),
                             group_ids=np.zeros(xs.shape[1], dtype=int))
    stacks = (true_projectors(config, dummy), model.projector_stack(xs))
    names = [f"{tag}_n{i+1}{j+1}" for tag in ("true", "learned")
             for i in range(2) for j in range(2)]
    return ["x1", "x2", *names], np.vstack([xs, *(p.reshape(len(p), -1).T for p in stacks)])


def _policy_field(config, model):
    """True and predicted policy on a grid over the states, as (column
    names, columns)."""
    xs = _grid_states(*STATE_BOX[config.system])
    return (["x1", "x2", "true_1", "true_2", "pred_1", "pred_2"],
            np.vstack([xs, configured_policy(config, xs), model.predict(xs)]))


# field table file suffix -> its column builder
FIELDS = {"field": _policy_field, "projector_field": _projector_field}
# each tutorial: its gen -> learn -> eval stages, as (file stem, gen flags,
# learn flags, field table); every stage also takes the tutorial's --seed
TUTORIALS = {
    "toy-ncl": [("ncl", "--constraint fixed:60.0 --b sin:0.5,3.0,0.0",
                 "--method ncl --num-basis 16", "field")],
    "toy-constraint": [("linear", "--constraint fixed:30.0", "--method nhat",
                        "projector_field"),
                       ("parabolic", "--constraint parabolic:0.1",
                        "--method alpha --num-basis 16", "projector_field")],
    "toy-pi": [("pi", "--constraint fixed:0.0 --constraint fixed:60.0 "
                      "--constraint fixed:120.0 --n 200",
                "--method pi --num-basis 10", "field")],
    "twolink": [("twolink", "--system twolink --policy linear-attractor --constraint jrows:1",
                 "--method lambda --features twolink-jacobian:1.0,1.0",
                 "projector_field")],
}


def _stage_paths(outdir, stem, field):
    """The data, model, metrics and field table files of one tutorial stage."""
    return [os.path.join(outdir, f"{stem}_{end}")
            for end in ("data.csv", "model.json", "metrics.csv", f"{field}.csv")]


def cmd_tutorial(args):
    """Each stage runs gen -> learn -> eval through the parser, so its
    manifests are ordinary commands, and then writes its field table."""
    outdir = args.outdir or f"ccl-tutorial-{args.name}"
    os.makedirs(outdir, exist_ok=True)
    seed = ["--seed", str(args.seed)]
    parser = build_parser()
    code = 0
    for stem, gen_flags, learn_flags, field in TUTORIALS[args.name]:
        data, model, metrics, table = _stage_paths(outdir, stem, field)
        gen_args = parser.parse_args(["gen", *gen_flags.split(), *seed, "--out", data])
        cmd_gen(gen_args)
        code = max(code, cmd_learn(parser.parse_args(
            ["learn", *learn_flags.split(), *seed, "--in", data, "--out", model])))
        cmd_eval(parser.parse_args(["eval", "--model", model, "--data", data,
                                    "--out", metrics]))
        names, columns = FIELDS[field](_gen_config(gen_args), load_model(model))
        with open(table, "w") as fh:
            fh.write(",".join(names) + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in columns.T.tolist())
    print(f"tutorial {args.name}: outputs in {outdir}")
    return code


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="ccl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--system", default="toy2d", help=" | ".join(STATE_BOX))
    g.add_argument("--policy", default="limit-cycle", help=" | ".join(POLICIES))
    g.add_argument("--constraint", action="append", required=True,
                   help="repeatable; " + SPEC_KINDS["constraint"][0])
    g.add_argument("--b", default="zero",
                   help="task drive: " + SPEC_KINDS["task_b"][0])
    g.add_argument("--n", type=int, default=500, help="samples per group")
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    l = sub.add_parser("learn", help="fit a model to a dataset")
    l.add_argument("--method", choices=LEARNERS, required=True)
    l.add_argument("--in", dest="inp", required=True)
    l.add_argument("--out", required=True)
    l.add_argument("--num-basis", type=int, default=None,
                   help="basis functions / local models, not nhat or lambda "
                        "(default 16, policies 10)")
    l.add_argument("--dim-b", type=int, default=None,
                   help="fix the constraint row count (alpha/lambda)")
    l.add_argument("--features", default=None,
                   help="feature matrix for lambda, e.g. twolink-jacobian:1.0,1.0")
    l.add_argument("--basis", choices=("rbf", "linear"), default="rbf",
                   help="feature family for method pi")
    l.add_argument("--seed", type=int, default=None)
    for f in SOLVER_FIELDS:
        l.add_argument(_solver_flag(f), type=type(f.default), default=None)
    l.set_defaults(func=cmd_learn)

    e = sub.add_parser("eval", help="evaluate a model against a dataset")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", default=None, help="also write the metric table here")
    e.set_defaults(func=cmd_eval)

    t = sub.add_parser("tutorial", help="run a bundled end-to-end scenario")
    t.add_argument("name", choices=TUTORIALS)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--outdir", default=None)
    t.set_defaults(func=cmd_tutorial)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:
            # the environment is read only when --seed is absent
            args.seed = _default_seed()
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
