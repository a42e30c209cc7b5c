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
from .datagen import GeneratorConfig, generate, policy_limit_cycle, policy_linear, true_projectors
from .nullspace import learn_ncl
from .policy import learn_pi, learn_pi_lwl
from .serialize import load_model, save_model

METHODS = ("nhat", "alpha", "lambda", "ncl", "pi", "pi-lwl")
TUTORIALS = ("toy-ncl", "toy-constraint", "toy-pi", "twolink")
# every LearnOptions field but the seed is a learn flag (--tol-fun, ...)
SOLVER_FIELDS = [f for f in fields(LearnOptions) if f.name != "rng_seed"]
# the methods that read each learner flag
LEARNER_FLAG_METHODS = {"--num-basis": ("alpha", "lambda", "ncl", "pi", "pi-lwl"),
                        "--dim-b": ("alpha", "lambda"), "--features": ("lambda",),
                        "--basis": ("pi",)}


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

def _parse_constraint(text):
    kind, _, arg = text.partition(":")
    if kind == "none":
        return ("none",)
    if kind == "fixed":
        return ("fixed-angle", float(arg))
    if kind == "parabolic":
        return ("parabolic", float(arg))
    if kind == "jrows":
        return ("jacobian-rows", tuple(int(v) for v in arg.split(",")))
    raise CliError(f"unknown constraint spec {text!r} "
                   "(use none | fixed:DEG | parabolic:A | jrows:I[,J])")


def _parse_task_b(text):
    kind, _, arg = text.partition(":")
    if kind == "zero":
        return ("zero",)
    if kind == "const":
        return ("constant", tuple(float(v) for v in arg.split(",")))
    if kind == "sin":
        amp, cycles, phase = (float(v) for v in arg.split(","))
        return ("sinusoid", amp, cycles, phase)
    raise CliError(f"unknown task spec {text!r} (use zero | const:V[,V] | sin:AMP,CYCLES,PHASE)")


def _gen_config(args):
    return GeneratorConfig(
        system=args.system, policy=args.policy,
        constraints=tuple(_parse_constraint(c) for c in args.constraint),
        task_b=_parse_task_b(args.b), n_per_group=args.n,
        noise_std=args.noise, rng_seed=args.seed)


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
    return LearnOptions(rng_seed=args.seed,
                        **{f.name: getattr(args, f.name) for f in SOLVER_FIELDS})


def _learner_flags(args):
    """The learner flags given on the command line (a --basis only when it
    is not the default), as flag -> value."""
    given = {"--num-basis": args.num_basis, "--dim-b": args.dim_b,
             "--features": args.features, "--basis": None if args.basis == "rbf" else args.basis}
    return {flag: value for flag, value in given.items() if value is not None}


def _check_learner_flags(args):
    for flag in _learner_flags(args):
        if args.method not in LEARNER_FLAG_METHODS[flag]:
            raise CliError(f"method {args.method} does not take {flag}")
    if args.method == "lambda" and not args.features:
        raise CliError("method lambda needs --features "
                       "(e.g. twolink-jacobian:1.0,1.0 or identity:2)")


def _dispatch_learn(args, data, opts):
    # the basis size goes to the learner only when given, so its default
    # lives in the learner's signature alone
    size = {} if args.num_basis is None else {"num_basis": args.num_basis}
    if args.method == "nhat":
        return learn_nhat(data.actions, opts)
    if args.method == "alpha":
        return learn_alpha(data.actions, data.states, opts, dim_b=args.dim_b, **size)
    if args.method == "lambda":
        provider = feature_provider_from_name(args.features)
        return learn_lambda(data.actions, data.states, provider, opts, dim_b=args.dim_b, **size)
    if args.method == "ncl":
        return learn_ncl(data.states, data.actions, opts, **size)
    if args.method == "pi":
        return learn_pi(data.states, data.actions, opts, basis=args.basis, **size)
    if args.method == "pi-lwl":
        local = {} if args.num_basis is None else {"num_local": args.num_basis}
        return learn_pi_lwl(data.states, data.actions, opts, **local)
    raise CliError(f"unknown method {args.method!r}")


def cmd_learn(args):
    t0 = time.perf_counter()
    _check_learner_flags(args)
    data = load_dataset(args.inp)
    opts = _options_from_args(args)
    model, report = _dispatch_learn(args, data, opts)
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
    for f in SOLVER_FIELDS:
        if getattr(opts, f.name) != f.default:
            command += [_solver_flag(f), repr(getattr(opts, f.name))]
    RunManifest(subcommand="learn", command=tuple(command),
                config={"method": args.method, "options": asdict(opts),
                        "num_basis": args.num_basis, "dim_b": args.dim_b,
                        "features": args.features, "basis": args.basis},
                inputs=(args.inp,), outputs=(args.out,), seed=args.seed,
                duration_s=time.perf_counter() - t0,
                report=summary).write(_manifest_path(args.out))
    print(f"learn: method={args.method} converged={report.converged} "
          f"reason={report.reason} iterations={report.iterations} "
          f"objective={report.final_objective:.6g} nmse={report.nmse:.6g}")
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


def _write_projector_field(path, config, model, per_axis=15):
    low, high = ((config.joint_low, config.joint_high) if config.system == "twolink"
                 else (config.state_low, config.state_high))
    xs = _grid_states(low, high, per_axis)
    dummy = DemonstrationSet(states=xs, actions=np.zeros_like(xs),
                             group_ids=np.zeros(xs.shape[1], dtype=int))
    truth = true_projectors(config, dummy)
    learned = model.projector_stack(xs)
    with open(path, "w") as fh:
        names = [f"{tag}_n{i+1}{j+1}" for tag in ("true", "learned")
                 for i in range(2) for j in range(2)]
        fh.write("x1,x2," + ",".join(names) + "\n")
        for n in range(xs.shape[1]):
            vals = [xs[0, n], xs[1, n]]
            vals += [*truth[n].ravel(), *learned[n].ravel()]
            fh.write(",".join(repr(float(v)) for v in vals) + "\n")


def _write_vector_field(path, config, predict, per_axis=15):
    xs = _grid_states(config.state_low, config.state_high, per_axis)
    if config.policy == "limit-cycle":
        truth = policy_limit_cycle(xs, config.cycle_radius, config.cycle_gain,
                                   config.cycle_rate)
    else:
        truth = policy_linear(xs, config.attractor_gain, config.attractor_target)
    pred = predict(xs)
    with open(path, "w") as fh:
        fh.write("x1,x2,true_1,true_2,pred_1,pred_2\n")
        for n in range(xs.shape[1]):
            vals = (xs[0, n], xs[1, n], truth[0, n], truth[1, n], pred[0, n], pred[1, n])
            fh.write(",".join(repr(float(v)) for v in vals) + "\n")


def _tutorial_stage(outdir, stem, gen_argv, learn_argv):
    """gen -> learn -> eval through the parser, with shared file naming.

    Returns (generator config, learned model, learn exit code)."""
    data_path = os.path.join(outdir, f"{stem}_data.csv")
    model_path = os.path.join(outdir, f"{stem}_model.json")
    metrics_path = os.path.join(outdir, f"{stem}_metrics.csv")
    parser = build_parser()
    gen_args = parser.parse_args(["gen", *gen_argv, "--out", data_path])
    cmd_gen(gen_args)
    code = cmd_learn(parser.parse_args(["learn", *learn_argv,
                                        "--in", data_path, "--out", model_path]))
    cmd_eval(parser.parse_args(["eval", "--model", model_path, "--data", data_path,
                                "--out", metrics_path]))
    return _gen_config(gen_args), load_model(model_path), code


def cmd_tutorial(args):
    outdir = args.outdir or f"ccl-tutorial-{args.name}"
    os.makedirs(outdir, exist_ok=True)
    seed = ["--seed", str(args.seed)]
    code = 0

    if args.name == "toy-ncl":
        config, model, code = _tutorial_stage(
            outdir, "ncl", ["--constraint", "fixed:60.0", "--b", "sin:0.5,3.0,0.0", *seed],
            ["--method", "ncl", "--num-basis", "16", *seed])
        _write_vector_field(os.path.join(outdir, "ncl_field.csv"), config, model.predict)

    elif args.name == "toy-constraint":
        config, model, c1 = _tutorial_stage(
            outdir, "linear", ["--constraint", "fixed:30.0", *seed],
            ["--method", "nhat", *seed])
        _write_projector_field(os.path.join(outdir, "linear_projector_field.csv"),
                               config, model)
        config_p, model_p, c2 = _tutorial_stage(
            outdir, "parabolic", ["--constraint", "parabolic:0.1", *seed],
            ["--method", "alpha", "--num-basis", "16", *seed])
        _write_projector_field(os.path.join(outdir, "parabolic_projector_field.csv"),
                               config_p, model_p)
        code = max(c1, c2)

    elif args.name == "toy-pi":
        config, model, code = _tutorial_stage(
            outdir, "pi", ["--constraint", "fixed:0.0", "--constraint", "fixed:60.0",
                           "--constraint", "fixed:120.0", "--n", "200", *seed],
            ["--method", "pi", "--num-basis", "10", *seed])
        _write_vector_field(os.path.join(outdir, "pi_field.csv"), config, model.predict)

    elif args.name == "twolink":
        config, model, code = _tutorial_stage(
            outdir, "twolink", ["--system", "twolink", "--policy", "linear-attractor",
                                "--constraint", "jrows:1", *seed],
            ["--method", "lambda", "--num-basis", "16",
             "--features", "twolink-jacobian:1.0,1.0", *seed])
        _write_projector_field(os.path.join(outdir, "twolink_projector_field.csv"),
                               config, model)
    else:
        raise CliError(f"unknown tutorial {args.name!r}")
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
    g.add_argument("--system", choices=("toy2d", "twolink"), default="toy2d")
    g.add_argument("--policy", choices=("limit-cycle", "linear-attractor"),
                   default="limit-cycle")
    g.add_argument("--constraint", action="append", required=True,
                   help="repeatable; none | fixed:DEG | parabolic:A | jrows:I[,J]")
    g.add_argument("--b", default="zero",
                   help="task drive: zero | const:V[,V] | sin:AMP,CYCLES,PHASE")
    g.add_argument("--n", type=int, default=500, help="samples per group")
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    l = sub.add_parser("learn", help="fit a model to a dataset")
    l.add_argument("--method", choices=METHODS, required=True)
    l.add_argument("--in", dest="inp", required=True)
    l.add_argument("--out", required=True)
    l.add_argument("--num-basis", type=int, default=None,
                   help="basis functions / local models, not nhat (default 16, policies 10)")
    l.add_argument("--dim-b", type=int, default=None,
                   help="fix the constraint row count (alpha/lambda)")
    l.add_argument("--features", default=None,
                   help="feature matrix for lambda, e.g. twolink-jacobian:1.0,1.0")
    l.add_argument("--basis", choices=("rbf", "linear"), default="rbf",
                   help="feature family for method pi")
    l.add_argument("--seed", type=int, default=None)
    for f in SOLVER_FIELDS:
        l.add_argument(_solver_flag(f), type=type(f.default), default=f.default)
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
