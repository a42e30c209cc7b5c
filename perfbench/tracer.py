"""Span tracer that instruments the public functions of ``ccl`` from outside.

Nothing in ``ccl`` knows about it: ``Tracer.install`` replaces each traced
function with a timing wrapper at every ``ccl`` module attribute that holds
the original object (so the copies made by ``from .mathkit import ...`` are
caught too) and at the class attribute of each traced method.
``Tracer.uninstall`` puts every original back.

Spans live in flat arrays while a run is going and are written as JSON lines
once it ends; ``read_trace`` reads such a file back.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import os
import sys
from array import array
from collections import namedtuple
from time import perf_counter

# (module, attribute path, span name).  Several functions may share a span
# name; their calls are then reported as one layer entry.
TARGETS = (
    ("ccl.cli", "compute_metrics", "cli.compute_metrics"),
    ("ccl.core", "save_dataset", "core.save_dataset"),
    ("ccl.core", "load_dataset", "core.load_dataset"),
    ("ccl.datagen", "generate", "datagen.generate"),
    ("ccl.datagen", "TwoLinkArm.jacobian", "datagen.TwoLinkArm.jacobian"),
    ("ccl.mathkit", "pinv_truncated", "mathkit.pinv_truncated"),
    ("ccl.mathkit", "nullspace_projector", "mathkit.nullspace_projector"),
    ("ccl.mathkit", "orthogonal_complement_rotation", "mathkit.orthogonal_complement_rotation"),
    ("ccl.mathkit", "kmeans_centers", "mathkit.kmeans_centers"),
    ("ccl.mathkit", "rbf_design", "mathkit.rbf_design"),
    ("ccl.mathkit", "ridge_regression", "mathkit.ridge_regression"),
    ("ccl.mathkit", "lm_solve", "mathkit.lm_solve"),
    ("ccl.constraint", "learn_alpha", "constraint.learn"),
    ("ccl.constraint", "learn_lambda", "constraint.learn"),
    # private, but it is the per-sample loop that scores a learned constraint
    ("ccl.constraint", "_exact_projection_energy", "constraint.exact_projection_energy"),
    ("ccl.constraint", "StateDependentConstraintModel.projector_stack",
     "constraint.projector_stack"),
    ("ccl.constraint", "StateIndependentConstraint.projector_stack", "constraint.projector_stack"),
    ("ccl.nullspace", "learn_ncl", "nullspace.learn_ncl"),
    ("ccl.nullspace", "NullspaceComponentModel.predict", "nullspace.predict"),
    ("ccl.policy", "learn_pi", "policy.learn_pi"),
    ("ccl.policy", "learn_pi_lwl", "policy.learn_pi_lwl"),
    ("ccl.policy", "ParametricPolicyModel.predict", "policy.predict"),
    ("ccl.policy", "LwlPolicyModel.predict", "policy.predict"),
    ("ccl.metrics", "error_poe", "metrics.error"),
    ("ccl.metrics", "error_ppe", "metrics.error"),
    ("ccl.metrics", "error_npe", "metrics.error"),
    ("ccl.metrics", "error_nupe", "metrics.error"),
    ("ccl.metrics", "error_ncpe", "metrics.error"),
    ("ccl.serialize", "save_model", "serialize.save_model"),
    ("ccl.serialize", "load_model", "serialize.load_model"),
)

_MARK = "__perfbench_original__"
CLI_STAGE_SPANS = ("cli.gen", "cli.learn", "cli.eval")  # opened by the benchmark


def _ccl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ccl" or name.startswith("ccl."))]


def resolve(module, path):
    """(owner, attribute, value) for a dotted attribute path in a module."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records nested spans of the wrapped calls.

    ``pass_id`` tags every span opened while it is set, so the spans of one
    workload pass can be told apart from the next.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = []      # (pass, name, value)
        self.lm_records = []  # one dict per lm_solve call
        self.pass_id = -1
        self._lm_group = -1
        self._last_residual = None
        self._stack = []
        self._restore = []    # (owner, attr, original)

    # -- spans ------------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_pass.append(self.pass_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = perf_counter()
        self._stack.pop()
        return self.span_end[idx] - self.span_start[idx]

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name):
        """Context manager timing a block as a span (used around CLI stages)."""
        return _Span(self, self.name_id(name))

    def count(self, name, value):
        self.counts.append((self.pass_id, name, value))

    def wrap(self, name, fn):
        name_id = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return _finish_wrapper(traced, fn)

    # -- special wrappers ---------------------------------------------------

    def _wrap_lm_solve(self, name, fn):
        solve_id = self.name_id(name)
        res_id = self.name_id(name + ".residual")
        jac_id = self.name_id(name + ".jacobian")
        tracer = self

        def timed(name_id, stats, inner):
            def call(p):
                idx = tracer._open(name_id)
                try:
                    return inner(p)
                finally:
                    stats[0] += 1
                    stats[1] += tracer._close(idx)
            return call

        def traced(problem):
            res, jac = [0, 0.0], [0, 0.0]
            # the restarts of one learned row are consecutive solves sharing
            # one residual closure
            if problem.residual is not tracer._last_residual:
                tracer._last_residual = problem.residual
                tracer._lm_group += 1
            group = tracer._lm_group
            wrapped = dataclasses.replace(
                problem, residual=timed(res_id, res, problem.residual),
                jacobian=None if problem.jacobian is None else timed(jac_id, jac, problem.jacobian))
            idx = tracer._open(solve_id)
            try:
                p, report = fn(wrapped)
            finally:
                total = tracer._close(idx)
            tracer.lm_records.append({
                "pass": tracer.pass_id, "group": group, "iterations": report.iterations,
                "final_objective": report.final_objective, "converged": report.converged,
                "reason": report.reason, "residual_calls": res[0], "residual_s": res[1],
                "jacobian_calls": jac[0], "jacobian_s": jac[1], "total_s": total})
            return p, report

        return _finish_wrapper(traced, fn)

    def _wrap_file_io(self, name, fn, path_arg):
        plain = self.wrap(name, fn)
        tracer = self

        def traced(*args, **kwargs):
            path = args[path_arg] if len(args) > path_arg else kwargs["path"]
            out = plain(*args, **kwargs)
            tracer.count(name + ".bytes", os.path.getsize(path))
            return out

        return _finish_wrapper(traced, fn)

    def _make_wrapper(self, name, fn):
        if name == "mathkit.lm_solve":
            return self._wrap_lm_solve(name, fn)
        if name == "core.save_dataset":
            return self._wrap_file_io(name, fn, 1)
        if name == "core.load_dataset":
            return self._wrap_file_io(name, fn, 0)
        return self.wrap(name, fn)

    # -- patching -------------------------------------------------------------

    def install(self):
        """Wrap every target once, at every binding of it inside ``ccl``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        importlib.import_module("ccl.cli")  # binds every module we patch
        modules = _ccl_modules()
        try:
            for module, path, name in TARGETS:
                owner, attr, original = resolve(module, path)
                if hasattr(original, _MARK):
                    raise RuntimeError(f"{module}.{path} is already wrapped")
                wrapper = self._make_wrapper(name, original)
                if "." in path:  # a method: the class attribute is its only binding
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        self._last_residual = None
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path):
        """Write spans, counts and LM records, one JSON object per line."""
        names = self.names
        with open(path, "w") as fh:
            for i in range(len(self.span_start)):
                fh.write('{"type":"span","id":%d,"name":"%s","parent":%d,"pass":%d,'
                         '"start":%r,"end":%r}\n'
                         % (i, names[self.span_name[i]], self.span_parent[i],
                            self.span_pass[i], self.span_start[i], self.span_end[i]))
            for pass_id, name, value in self.counts:
                fh.write(json.dumps({"type": "count", "pass": pass_id, "name": name,
                                     "value": value}) + "\n")
            for rec in self.lm_records:
                fh.write(json.dumps({"type": "lm", **rec}) + "\n")


class _Span:
    __slots__ = ("tracer", "name_id", "idx")

    def __init__(self, tracer, name_id):
        self.tracer, self.name_id = tracer, name_id

    def __enter__(self):
        self.idx = self.tracer._open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def _finish_wrapper(wrapper, fn):
    wrapper.__name__ = getattr(fn, "__name__", "traced")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    setattr(wrapper, _MARK, fn)
    return wrapper


def original_of(obj):
    """The function a tracer wrapper stands for, or None for plain objects."""
    return getattr(obj, _MARK, None)


def bindings(original):
    """Every (module, attribute) in the loaded ``ccl`` modules holding ``original``."""
    return [(mod.__name__, key) for mod in _ccl_modules()
            for key, value in vars(mod).items() if value is original]


# ---------------------------------------------------------------------------
# reading a trace back
# ---------------------------------------------------------------------------

Span = namedtuple("Span", "name parent pass_id start end")


def read_trace(path):
    """(spans, counts, lm_records) from a trace file.

    spans[i] is the span with id i; counts maps a count name to its sum.
    """
    spans, counts, lm_records, names = [], {}, [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec["type"]
            if kind == "span":
                if rec["id"] != len(spans):
                    raise ValueError(f"{path}: span ids must run 0, 1, 2, ...")
                name = names.setdefault(rec["name"], rec["name"])
                spans.append(Span(name, rec["parent"], rec["pass"], rec["start"], rec["end"]))
            elif kind == "count":
                counts[rec["name"]] = counts.get(rec["name"], 0) + rec["value"]
            else:
                lm_records.append(rec)
    return spans, counts, lm_records


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_totals(spans):
    """{span name: {"calls", "s", "self_s"}} summed over all spans."""
    totals = {}
    for s, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += s.end - s.start
        entry["self_s"] += own
    return totals


def restart_useful_ratio(lm_records):
    """Iterations of each group's winning start over all its starts' iterations.

    A group is the set of ``lm_solve`` calls sharing one residual closure
    (the restarts of one learned row, or a single solve); the winner is the
    first start with the lowest final objective, as the learner picks it.
    With no iteration recorded, no start was wasted: the ratio is 1.
    """
    groups = {}
    for rec in lm_records:
        groups.setdefault((rec["pass"], rec["group"]), []).append(rec)
    useful = total = 0
    for recs in groups.values():
        best = min(recs, key=lambda r: r["final_objective"])
        useful += best["iterations"]
        total += sum(r["iterations"] for r in recs)
    return useful / total if total else 1.0


def attribute(spans, groups):
    """Seconds per (stage, group) with every instant counted once.

    A span's self time goes to the group of the nearest span, itself or an
    ancestor, whose name is in ``groups`` (a name -> group map), or to
    "other"; its stage is the nearest ``cli.<stage>`` span around it.
    """
    owner, stage, out = [], [], {}
    # a parent is opened, so numbered, before its children
    for s, own in zip(spans, self_times(spans)):
        up = s.parent >= 0
        owner.append(groups.get(s.name, owner[s.parent] if up else "other"))
        stage.append(s.name[4:] if s.name in CLI_STAGE_SPANS
                     else stage[s.parent] if up else None)
        key = (stage[-1], owner[-1])
        out[key] = out.get(key, 0.0) + own
    return out
