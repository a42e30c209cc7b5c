"""Checks of the benchmark's tracer.

    python3 -m pytest -q perfbench/check_trace.py
    python3 perfbench/check_trace.py

The file name keeps these checks out of the repository's own test run; they
are about the benchmark, not about ``ccl``.
"""
from __future__ import annotations

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import ccl.cli  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import (TARGETS, Tracer, bindings, layer_totals, original_of,  # noqa: E402
                    read_trace, resolve)


def _originals():
    return {(module, path): resolve(module, path)[2] for module, path, _ in TARGETS}


def test_every_binding_resolves_to_its_wrapper_and_is_restored():
    originals = _originals()
    bound = {key: bindings(fn) for key, fn in originals.items()}
    # the from-imports of the CLI and the learners are among the bindings
    assert ("ccl.cli", "load_dataset") in bound[("ccl.core", "load_dataset")]
    assert ("ccl.constraint", "lm_solve") in bound[("ccl.mathkit", "lm_solve")]
    assert ("ccl.datagen", "pinv_truncated") in bound[("ccl.mathkit", "pinv_truncated")]

    tracer = Tracer()
    with tracer:
        for (module, path), fn in originals.items():
            owner, attr, current = resolve(module, path)
            assert original_of(current) is fn, f"{module}.{path} is not wrapped"
            for mod_name, key in bound[(module, path)]:
                value = getattr(sys.modules[mod_name], key)
                assert value is current, f"{mod_name}.{key} escapes the tracer"
            assert not bindings(fn), f"{module}.{path} still bound: {bindings(fn)}"
        try:
            tracer.install()
        except RuntimeError:
            pass
        else:
            raise AssertionError("a second install must refuse to wrap twice")
    for (module, path), fn in originals.items():
        assert resolve(module, path)[2] is fn
        assert bindings(fn) == bound[(module, path)]


def _pass_pair(name, n):
    wl = workloads.build(name, n)
    tracer = Tracer()
    with tempfile.TemporaryDirectory() as tmp:
        pass_dir = os.path.join(tmp, "pass")
        plain = run.check_pass(wl, pass_dir, run.run_pass(ccl.cli, wl, 11, pass_dir))
        tracer.pass_id = 0
        with tracer:
            record = run.run_pass(ccl.cli, wl, 11, pass_dir, tracer)
        traced = run.check_pass(wl, pass_dir, record)
        span_file = os.path.join(tmp, "spans.jsonl")
        tracer.write_jsonl(span_file)
        spans, _, lm_records = read_trace(span_file)
    totals = layer_totals(spans)
    return plain, traced, totals, lm_records


def test_traced_pass_writes_identical_artifacts_and_counts_lm_once():
    for name in workloads.NAMES:
        plain, traced, totals, lm_records = _pass_pair(name, 300)
        assert plain["problems"] == [] and traced["problems"] == []
        assert plain["digests"] == traced["digests"]
        assert {"data.csv", "pooled.csv"} & set(plain["digests"])
        lm = totals["mathkit.lm_solve"]
        assert lm["calls"] == len(lm_records) > 0
        assert totals["mathkit.lm_solve.residual"]["calls"] == sum(
            r["residual_calls"] for r in lm_records)
        # the span and the record of each solve are one and the same timing
        assert abs(lm["s"] - sum(r["total_s"] for r in lm_records)) < 1e-6
        for stage in ("gen", "learn", "eval"):
            assert totals[f"cli.{stage}"]["calls"] >= 1


if __name__ == "__main__":
    for test in (test_every_binding_resolves_to_its_wrapper_and_is_restored,
                 test_traced_pass_writes_identical_artifacts_and_counts_lm_once):
        test()
        print(f"ok {test.__name__}")
