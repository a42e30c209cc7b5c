"""The benchmark's workloads: CLI stage sequences and their output checks.

A pass runs every stage of a workload on datasets generated from one pass
seed.  Each stage is an argv for ``ccl.cli.main``; after the pass, every
model must reload, every eval table must hold the expected finite rows, and
the gated quality numbers must stay under the thresholds of the
repository's acceptance criteria 3-5.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Model:
    """A learned model of a pass and the eval table scoring it."""

    label: str          # suffix of the quality names, "" for a lone model
    model: str          # file name of the model document
    table: str          # file name of the eval table
    rows: tuple         # metric rows the eval table must hold
    gates: tuple = ()   # (row, upper bound) the learned model must meet
    scored: tuple = None  # rows reported as quality numbers (default: rows)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int              # samples per constraint group
    stages: object      # (seed) -> [(stage, argv)]
    models: tuple


def _alpha_parabolic(n):
    def stages(seed):
        s = str(seed)
        return [
            ("gen", ["gen", "--system", "toy2d", "--constraint", "parabolic:0.1",
                     "--n", str(n), "--seed", s, "--out", "data.csv"]),
            ("learn", ["learn", "--method", "alpha", "--in", "data.csv",
                       "--out", "model.json", "--seed", s]),
            ("eval", ["eval", "--model", "model.json", "--data", "data.csv",
                      "--out", "metrics.csv"]),
        ]
    return stages


def _lambda_twolink(n):
    def stages(seed):
        s = str(seed)
        return [
            ("gen", ["gen", "--system", "twolink", "--policy", "linear-attractor",
                     "--constraint", "jrows:1", "--n", str(n), "--seed", s,
                     "--out", "data.csv"]),
            ("learn", ["learn", "--method", "lambda", "--features", "twolink-jacobian:1.0,1.0",
                       "--in", "data.csv", "--out", "model.json", "--seed", s]),
            ("eval", ["eval", "--model", "model.json", "--data", "data.csv",
                      "--out", "metrics.csv"]),
        ]
    return stages


def _policy_pooled(n):
    def stages(seed):
        s = str(seed)
        # the second dataset's groups are seeded from seed + 3 on, so they
        # share no samples with the three groups of the first
        s2 = str(seed + 3)
        out = [("gen", ["gen", "--constraint", "fixed:0", "--constraint", "fixed:60",
                        "--constraint", "fixed:120", "--n", str(n), "--seed", s,
                        "--out", "pooled.csv"])]
        for method, stem in (("pi", "pi"), ("pi-lwl", "lwl")):
            out += [("learn", ["learn", "--method", method, "--in", "pooled.csv",
                               "--out", f"{stem}.json", "--seed", s]),
                    ("eval", ["eval", "--model", f"{stem}.json", "--data", "pooled.csv",
                              "--out", f"{stem}.csv"])]
        out += [("gen", ["gen", "--constraint", "fixed:60", "--b", "sin:0.5,3,0",
                         "--n", str(n), "--seed", s2, "--out", "ncl_data.csv"]),
                ("learn", ["learn", "--method", "ncl", "--in", "ncl_data.csv",
                           "--out", "ncl.json", "--seed", s2]),
                ("eval", ["eval", "--model", "ncl.json", "--data", "ncl_data.csv",
                          "--out", "ncl.csv"])]
        return out
    return stages


_CONSTRAINT_MODEL = Model("", "model.json", "metrics.csv", ("NPOE", "NPPE"),
                          (("NPOE", 0.01),))


def build(name, n=None):
    """The named workload, optionally at another group size."""
    spec = _SPECS[name]
    n = spec["n"] if n is None else n
    return Workload(name=name, n=n, stages=spec["stages"](n), models=spec["models"])


# Why each workload and size was chosen: perfbench/README.md, "Workloads".
_SPECS = {
    # the LM restarts dominate learn_s
    "alpha-parabolic": dict(n=2500, stages=_alpha_parabolic, models=(_CONSTRAINT_MODEL,)),
    # per-sample geometry and feature-matrix calls dominate the pass
    "lambda-twolink": dict(n=2500, stages=_lambda_twolink, models=(_CONSTRAINT_MODEL,)),
    # CSV I/O and K-means dominate; the constraint learners are bypassed
    "policy-pooled": dict(
        n=5000, stages=_policy_pooled,
        models=(Model("pi", "pi.json", "pi.csv", ("NUPE", "NCPE")),
                Model("lwl", "lwl.json", "lwl.csv", ("NUPE", "NCPE")),
                Model("ncl", "ncl.json", "ncl.csv", ("NUPE", "NPE"), (("NPE", 0.05),),
                      scored=("NPE",)))),  # NUPE repeats NPE for this model
}

NAMES = tuple(_SPECS)


def read_table(path):
    """Eval table rows as {metric: normalized}; skipped-metric notes are left out."""
    rows = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "metric,normalized,variance,mse":
        raise ValueError(f"{path}: not an eval table")
    for line in lines[1:]:
        if not line.startswith("#"):
            name, normalized, _, _ = line.split(",")
            rows[name] = float(normalized)
    return rows


def check_table(model: Model, rows):
    """Problems with one eval table; an empty list means it passed."""
    problems = []
    if sorted(rows) != sorted(model.rows):
        problems.append(f"{model.table}: rows {sorted(rows)}, expected {sorted(model.rows)}")
    for name in model.rows:
        value = rows.get(name)
        if value is not None and not math.isfinite(value):
            problems.append(f"{model.table}: {name} is {value}")
    for name, bound in model.gates:
        value = rows.get(name)
        if value is not None and not value < bound:
            problems.append(f"{model.table}: {name} {value:.3g} is not below {bound}")
    return problems


def quality_name(model: Model, row):
    return row.lower() + (f"_{model.label}" if model.label else "")
