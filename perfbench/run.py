#!/usr/bin/env python3
"""Pipeline benchmark: drives ``ccl.cli.main`` in-process on one workload.

    python3 perfbench/run.py --workload alpha-parabolic --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; ``ccl`` is imported from the checkout's
``src``.  Each pass generates fresh datasets from a pass seed drawn from
``--seed``, runs the workload's CLI stages, then checks every output.  Passes
start while the ``--seconds`` window has room for one more.

``--trace 0`` reports the end-to-end metrics.  After the window the first
pass seed is run again, and its artifacts must match byte for byte.

``--trace 1`` runs every pass seed twice: untraced, then with the tracer of
``tracer.py`` installed.  Both must write byte-identical artifacts.  The
spans go to ``_work/spans.jsonl``, the per-layer metrics are computed from
that file, and ``trace.overhead_frac`` compares the traced passes with the
untraced passes of the same seeds.

Every reported time is scaled to a reference machine speed, measured by
``calibrate()`` before each pass; the raw wall times stay in the result file.

A readable report comes first.  The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics.  The whole
result, with every pass, goes to ``_work/result-<workload>-<seed>-<trace>.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from tracer import (CLI_STAGE_SPANS, Tracer, attribute, layer_totals, read_trace,
                    restart_useful_ratio)
from workloads import NAMES, build, check_table, quality_name, read_table

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
STAGES = ("gen", "learn", "eval")

# Median time of calibrate() on the box the bounds were set on (2 cores,
# Python 3.11.7, numpy 2.4.6, one BLAS thread).  Reported times are scaled
# to that speed; see calibrate().
REFERENCE_CALIBRATION_S = 0.0095

# The metrics of BENCHMARK.json's end_to_end list, in its order.
END_TO_END = ("setup_s", "pipeline_s", "gen_s", "learn_s", "eval_s", "peak_rss_mb",
              "accuracy_digits")

# A fresh interpreter importing the CLI and warming LAPACK: what every user
# process of the pipeline pays before its first stage.
SETUP_PROBE = """
import sys
sys.path.insert(0, {src!r})
import numpy as np
import ccl.cli
a = np.arange(64.0).reshape(8, 8) + 8.0 * np.eye(8)
np.linalg.svd(a)
np.linalg.solve(a, np.ones(8))
print("ready", flush=True)
"""


class SetupError(Exception):
    """The program under test cannot be imported or started."""


def import_ccl():
    sys.path.insert(0, SRC)
    try:
        import ccl.cli
    except ImportError as exc:
        raise SetupError(f"cannot import ccl from {SRC}: {exc}") from None
    where = os.path.dirname(os.path.abspath(ccl.cli.__file__))
    if where != os.path.join(SRC, "ccl"):
        raise SetupError(f"ccl was imported from {where}, not from {SRC}")
    return ccl.cli


def measure_setup():
    """Wall times from process start until the probe reports ready."""
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first start is a warm-up
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE.format(src=SRC)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            raise SetupError("setup probe did not exit within 60 s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SetupError(f"setup probe failed: {err.strip()}")
        if i:
            times.append(t1 - t0)
    return times


def host_facts(seed):
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "seed": seed,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def calibrate():
    """Seconds for a fixed mix of the work the pipeline does: tiny SVDs,
    float formatting and parsing, and small normal-equation solves.

    The box the benchmark runs on is shared, and its speed drifts by half
    over minutes.  A run samples this before every pass; the median of the
    samples measures the run's machine speed, and every reported time is
    scaled by REFERENCE_CALIBRATION_S / median.  The mix uses numpy only, so
    no change to ccl can move it.
    """
    import numpy as np

    t0 = perf_counter()
    rng = np.random.default_rng(0)
    row = rng.normal(size=(1, 2))
    for i in range(150):
        np.linalg.svd(row + i * 1e-3, full_matrices=False)
    text = ",".join(repr(float(v)) for v in rng.normal(size=1500))
    [float(v) for v in text.split(",")]
    jac = rng.normal(size=(2500, 16))
    for _ in range(20):
        np.linalg.solve(jac.T @ jac + np.eye(16), jac.T @ jac[:, 0])
    return perf_counter() - t0


def call_stage(main, argv):
    """Run one CLI call; returns (exit code, seconds, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(argv)
        except Exception:  # a traceback breaks the CLI contract: count it
            code = "traceback"
            traceback.print_exc()
        dt = perf_counter() - t0
    return code, dt, err.getvalue()


def digests(pass_dir):
    """sha256 of each artifact; manifests are left out (their duration_s varies)."""
    out = {}
    for name in sorted(os.listdir(pass_dir)):
        if name.endswith(".manifest.json"):
            continue
        with open(os.path.join(pass_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_pass(cli, workload, seed, pass_dir, tracer=None):
    """One pass of the workload's stages, in a fresh directory."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    os.makedirs(pass_dir)
    stage_s = dict.fromkeys(STAGES, 0.0)
    problems, ops = [], 0
    with contextlib.chdir(pass_dir):
        t0 = perf_counter()
        for stage, argv in workload.stages(seed):
            if tracer is None:
                code, dt, err = call_stage(cli.main, argv)
            else:
                with tracer.span(f"cli.{stage}"):  # one of CLI_STAGE_SPANS
                    code, dt, err = call_stage(cli.main, argv)
            stage_s[stage] += dt
            ops += 1
            if code != 0:
                problems.append(f"{' '.join(argv[:3])}: exit {code}: {err.strip()[-500:]}")
        pipeline_s = perf_counter() - t0
    return {"seed": seed, "pipeline_s": pipeline_s, "stage_s": stage_s,
            "ops": ops, "failed": len(problems), "problems": problems}


def check_pass(workload, pass_dir, record):
    """Check a pass's outputs; adds its quality numbers and digests to record."""
    from ccl.serialize import load_model

    quality = {}
    for model in workload.models:  # two operations: reload, eval table
        try:
            load_model(os.path.join(pass_dir, model.model))
            reload_problems = []
        except (OSError, ValueError) as exc:
            reload_problems = [f"{model.model} does not reload: {exc}"]
        try:
            rows = read_table(os.path.join(pass_dir, model.table))
            table_problems = check_table(model, rows)
        except (OSError, ValueError) as exc:
            rows, table_problems = {}, [f"{model.table}: {exc}"]
        record["ops"] += 2
        record["failed"] += bool(reload_problems) + bool(table_problems)
        record["problems"] += reload_problems + table_problems
        quality.update({quality_name(model, k): rows[k] for k in model.scored or model.rows
                        if k in rows})
    record.update(quality=quality, digests=digests(pass_dir))
    return record


def accuracy_digits(quality):
    """Mean over a pass's eval-table numbers of -log10(normalized error);
    0 when the pass produced none."""
    if not quality:
        return 0.0
    return statistics.fmean(-math.log10(max(v, 1e-300)) for v in quality.values())


def summarize(values, unit):
    """Mean (the reported value), median, quartiles and range of a sample,
    and the highest percentile with at least ten samples above it."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    out = {"value": statistics.fmean(values), "unit": unit, "samples": len(values),
           "median": statistics.median(values), "q1": q[0], "q3": q[2],
           "min": min(values), "max": max(values), "tail_pct": None, "tail": None}
    if len(values) > 10:
        k = len(values) - 10
        out.update(tail_pct=100.0 * k / len(values), tail=sorted(values)[k - 1])
    return out


def end_to_end(passes, setup_times, scale, attempted, failed):
    """End-to-end metrics of the untraced passes, plus the quality numbers.
    Times are multiplied by ``scale``, the run's speed factor."""
    out = {"setup_s": summarize([t * scale for t in setup_times], "s")}
    out["setup_s"]["value"] = out["setup_s"]["median"]
    out["pipeline_s"] = summarize([p["pipeline_s"] * scale for p in passes], "s")
    for stage in STAGES:
        out[f"{stage}_s"] = summarize([p["stage_s"][stage] * scale for p in passes], "s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = summarize([rss], "MiB")
    out["accuracy_digits"] = summarize([accuracy_digits(p["quality"]) for p in passes],
                                       "digits")
    out["failed_frac"] = summarize([failed / attempted], "ratio")
    out["failed_frac"]["samples"] = attempted
    for name in dict.fromkeys(k for p in passes for k in p["quality"]):
        out[name] = summarize([p["quality"][name] for p in passes if name in p["quality"]],
                              "ratio")
    return out


# Layer groups for the time split of a traced pass.  Every instant goes to
# the innermost enclosing span of a group (see tracer.attribute).
GROUPS = {
    "lm": ("mathkit.lm_solve", "mathkit.lm_solve.residual", "mathkit.lm_solve.jacobian"),
    "geometry": ("mathkit.pinv_truncated", "mathkit.nullspace_projector",
                 "mathkit.orthogonal_complement_rotation", "constraint.projector_stack",
                 "constraint.exact_projection_energy", "datagen.TwoLinkArm.jacobian"),
    "io": ("core.save_dataset", "core.load_dataset", "serialize.save_model",
           "serialize.load_model"),
    "kmeans": ("mathkit.kmeans_centers",),
    "datagen": ("datagen.generate",),
    "learners": ("constraint.learn", "nullspace.learn_ncl", "policy.learn_pi",
                 "policy.learn_pi_lwl"),
    "predict": ("policy.predict", "nullspace.predict"),
    "metrics": ("metrics.error", "cli.compute_metrics"),
    "features": ("mathkit.rbf_design", "mathkit.ridge_regression"),
    "cli": CLI_STAGE_SPANS,
}

# The layers each workload was chosen to stress: (stage, or None for the
# whole pass; groups whose summed share should exceed every other group's).
CLAIMS = {
    "alpha-parabolic": ("learn", ("lm",)),
    "lambda-twolink": (None, ("geometry",)),
    "policy-pooled": (None, ("io", "kmeans")),
}

# Per-layer metrics read straight off the span totals: "<span name>.<field>",
# field being calls, s (inclusive seconds) or self_s.
SPAN_METRICS = (
    "mathkit.lm_solve.calls", "mathkit.lm_solve.self_s",
    "mathkit.lm_solve.residual.calls", "mathkit.lm_solve.residual.s",
    "mathkit.lm_solve.jacobian.calls", "mathkit.lm_solve.jacobian.s",
    "mathkit.pinv_truncated.calls", "mathkit.pinv_truncated.s",
    "mathkit.nullspace_projector.calls",
    "mathkit.rbf_design.calls", "mathkit.rbf_design.s",
    "mathkit.kmeans_centers.calls", "mathkit.kmeans_centers.s",
    "constraint.projector_stack.calls", "constraint.projector_stack.s",
    "constraint.exact_projection_energy.s", "constraint.learn.self_s",
    "datagen.TwoLinkArm.jacobian.calls", "datagen.generate.self_s",
    "core.save_dataset.s", "core.load_dataset.calls", "core.load_dataset.s",
    "serialize.save_model.s", "serialize.load_model.s",
    "nullspace.learn_ncl.self_s", "policy.learn_pi.s", "policy.learn_pi_lwl.s",
    "policy.predict.s", "metrics.error.s", "cli.compute_metrics.s",
)


def time_split(spans, workload):
    """Share of each layer group in the whole pass and in each stage, and
    whether the workload's claimed dominant layers hold up."""
    by_name = {name: group for group, names in GROUPS.items() for name in names}
    seconds = attribute(spans, by_name)
    split = {}
    for scope in (None,) + STAGES:
        part = {}
        for (stage, group), t in seconds.items():
            if scope in (None, stage):
                part[group] = part.get(group, 0.0) + t
        whole = sum(part.values())
        split[scope or "pipeline"] = {g: t / whole for g, t in sorted(part.items())}
    scope, claimed = CLAIMS[workload]
    shares = split[scope or "pipeline"]
    rivals = {g: v for g, v in shares.items() if g not in claimed and g != "other"}
    top = max(rivals, key=rivals.get)
    share = sum(shares.get(g, 0.0) for g in claimed)
    verdict = {"scope": scope or "pipeline", "groups": claimed, "share": share,
               "largest_other": top, "largest_other_share": rivals[top],
               "other_share": shares.get("other", 0.0), "holds": share > rivals[top]}
    return split, verdict


def per_layer(totals, counts, lm_records, n_passes, overhead_frac):
    """Per-layer metrics, per traced pass."""
    def total(name, field):
        return totals.get(name, {}).get(field, 0) / n_passes

    out = {m: total(*m.rsplit(".", 1)) for m in SPAN_METRICS}
    out["mathkit.lm_solve.iterations"] = sum(r["iterations"] for r in lm_records) / n_passes
    out["mathkit.lm_solve.restart_useful_ratio"] = restart_useful_ratio(lm_records)
    for name in ("core.save_dataset.bytes", "core.load_dataset.bytes"):
        out[name] = counts.get(name, 0) / n_passes
    out["cli.self_s"] = sum(total(name, "self_s") for name in CLI_STAGE_SPANS)
    out["trace.overhead_frac"] = overhead_frac
    return out


def layer_unit(name):
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("ratio", "_frac")):
        return "ratio"
    return "count"


def print_end_to_end(metrics):
    print("end-to-end: value = mean over passes (each pass on its own datasets);"
          " setup_s is a median")
    print(f"  {'metric':<16} {'value':>12} {'unit':<7} {'median':>12} {'q1':>12}"
          f" {'q3':>12} {'samples':>7}  tail (highest percentile with 10 samples above)")
    for name, m in metrics.items():
        tail = "" if m["tail"] is None else f"p{m['tail_pct']:.0f} {m['tail']:.6g}"
        print(f"  {name:<16} {m['value']:>12.6g} {m['unit']:<7} {m['median']:>12.6g}"
              f" {m['q1']:>12.6g} {m['q3']:>12.6g} {m['samples']:>7}  {tail}")


def run_window(cli, workload, next_seed, seconds, tracer, calibration):
    """Passes until the window is spent, then the determinism check.

    A calibrate() sample goes to ``calibration`` before every pass (or pair
    of passes) and once after the window.
    Returns (untraced passes, traced passes, repeats, mismatches).
    Untraced, the first pass seed is run once more at the end; traced, every
    seed runs untraced and then traced.  Each repeat is one operation, which
    fails when its artifacts differ from the first run's.
    """
    os.makedirs(WORK, exist_ok=True)
    pass_dir = os.path.join(WORK, f"pass-{workload.name}")
    passes, traced, mismatches = [], [], []
    t_start = perf_counter()
    while True:
        seed = next_seed()
        calibration.append(calibrate())
        passes.append(check_pass(workload, pass_dir, run_pass(cli, workload, seed, pass_dir)))
        if tracer is not None:
            tracer.pass_id = len(traced)
            with tracer:
                record = run_pass(cli, workload, seed, pass_dir, tracer)
            traced.append(check_pass(workload, pass_dir, record))
            if traced[-1]["digests"] != passes[-1]["digests"]:
                mismatches.append(f"seed {seed}: traced artifacts differ from untraced ones")
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / len(passes) > seconds:
            break
    calibration.append(calibrate())
    if tracer is None:
        again = check_pass(workload, pass_dir,
                           run_pass(cli, workload, passes[0]["seed"], pass_dir))
        if again["digests"] != passes[0]["digests"]:
            mismatches.append(f"seed {passes[0]['seed']}: artifacts differ across passes")
    shutil.rmtree(pass_dir, ignore_errors=True)
    return passes, traced, len(traced) if tracer else 1, mismatches


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    try:
        cli = import_ccl()
        setup_times = measure_setup()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    workload = build(args.workload)
    host = host_facts(args.seed)
    tracer = Tracer() if args.trace else None
    pass_seeds = np.random.default_rng(args.seed)
    calibration = []
    passes, traced, repeats, mismatches = run_window(
        cli, workload, lambda: int(pass_seeds.integers(0, 2 ** 31 - 16)), args.seconds, tracer,
        calibration)
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibration)

    every = passes + traced
    attempted = sum(p["ops"] for p in every) + repeats
    failed = sum(p["failed"] for p in every) + len(mismatches)
    problems = [msg for p in every for msg in p["problems"]] + mismatches
    for msg in problems:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)

    metrics = end_to_end(passes, setup_times, scale, attempted, failed)
    result = {"workload": workload.name, "n_per_group": workload.n, "trace": args.trace,
              "seconds": args.seconds, "host": host, "setup_times_s": setup_times,
              "calibration_s": calibration, "scale": scale,
              "passes": every, "end_to_end": metrics, "problems": problems}
    print(f"perfbench: workload={workload.name} seed={args.seed} trace={args.trace} "
          f"n={workload.n} passes={len(passes)}")
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items() if k != "blas_threads")
          + " blas_threads=1")
    print(f"speed: calibration median {statistics.median(calibration) * 1e3:.3f} ms over "
          f"{len(calibration)} samples, reference {REFERENCE_CALIBRATION_S * 1e3:.3f} ms: "
          f"times are wall seconds x {scale:.4f}")
    print_end_to_end(metrics)

    if tracer is None:
        reported = {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in END_TO_END}
    else:
        span_file = os.path.join(WORK, "spans.jsonl")
        tracer.write_jsonl(span_file)
        spans, counts, lm_records = read_trace(span_file)
        totals = layer_totals(spans)
        overhead = (sum(p["pipeline_s"] for p in traced)
                    / sum(p["pipeline_s"] for p in passes) - 1.0)
        layers = per_layer(totals, counts, lm_records, len(traced), overhead)
        layers.update({k: v * scale for k, v in layers.items() if layer_unit(k) == "s"})
        split, verdict = time_split(spans, workload.name)
        result.update(layers=layers, layer_totals=totals, lm_records=lm_records,
                      time_split=split, claim=verdict)
        print(f"per layer: value = total over {len(traced)} traced passes / {len(traced)}")
        for name, value in layers.items():
            print(f"  {name:<44} {value:>14.6g}  {layer_unit(name)}")
        print(f"time split of {verdict['scope']}: " + ", ".join(
            f"{g} {v:.1%}" for g, v in split[verdict["scope"]].items()))
        print(f"claim: {'+'.join(verdict['groups'])} is the largest share of "
              f"{verdict['scope']}: {verdict['share']:.1%} vs {verdict['largest_other']} "
              f"{verdict['largest_other_share']:.1%} -> "
              f"{'holds' if verdict['holds'] else 'DOES NOT HOLD'}")
        reported = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    result["metrics"] = reported
    with open(os.path.join(WORK, f"result-{workload.name}-{args.seed}-{args.trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
