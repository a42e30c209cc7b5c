"""The traced benchmark wraps ``ccl`` functions by module and attribute name
(``perfbench/tracer.py``).  Its own check is not part of this suite, so a
rename inside ``ccl`` would break the traced benchmark unnoticed; these tests
resolve every entry of the tracer's target list and check that the spans it
records still nest the way its per-layer attribution reads them.  The last
test runs the stages of every benchmark workload (``perfbench/workloads.py``)
and checks that none of them reaches numpy's SVD."""
import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from ccl import cli, constraint, mathkit, nullspace, policy
from ccl.constraint import identity_features, learn_alpha, learn_lambda, learn_nhat
from ccl.core import LearnOptions
from ccl.datagen import GeneratorConfig, generate
from ccl.nullspace import learn_ncl
from ccl.policy import learn_pi, learn_pi_lwl

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: the dataclasses of workloads.py look their module up
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")


def test_every_traced_target_resolves():
    tracer = _load("tracer")
    assert tracer.TARGETS
    for module, path, _ in tracer.TARGETS:
        _, _, value = tracer.resolve(module, path)
        assert callable(value), f"{module}.{path}"


def test_lm_solve_keeps_the_contract_the_tracer_wraps():
    # the tracer calls lm_solve with the problem alone and rebuilds the
    # problem with dataclasses.replace, so every solver setting must be a field
    assert len(inspect.signature(mathkit.lm_solve).parameters) == 1
    problem = mathkit.LmProblem(residual=lambda p: p, p0=np.zeros(1),
                                jacobian=lambda p: np.eye(1), abandon_above=3.0)
    assert dataclasses.replace(problem, residual=lambda p: 2 * p).abandon_above == 3.0


def test_alpha_rows_give_their_starts_one_residual_and_no_jacobian(monkeypatch):
    # the tracer groups the restarts of a row by the identity of their
    # residual closure, and times a jacobian only where a problem carries
    # one: alpha's rows build their own normal equations
    solve, solved = constraint.lm_solve, []

    def recording(problem):
        solved.append(problem)
        return solve(problem)

    monkeypatch.setattr(constraint, "lm_solve", recording)
    rng = np.random.default_rng(13)
    xs = rng.uniform(-1, 1, (3, 200))
    u = np.diag([1.0, 1.0, 0.0]) @ rng.normal(size=(3, 200))
    _, report = learn_alpha(u, xs, LearnOptions(max_iter=20, num_restarts=3), num_basis=4,
                            dim_b=2)
    assert [(start["row"], start["start"]) for start in report.starts] == [
        (row, start) for row in range(2) for start in range(3)]
    residuals = {}
    for start, problem in zip(report.starts, solved, strict=True):
        residuals.setdefault(start["row"], set()).add(id(problem.residual))
    assert [len(ids) for ids in residuals.values()] == [1, 1]
    assert residuals[0] != residuals[1]
    assert all(problem.jacobian is None for problem in solved)


def test_every_metric_span_is_timed_under_compute_metrics():
    # the per-layer metrics.error time of an eval is only attributed when the
    # metric calls, wherever the models make them, run inside compute_metrics
    data = generate(GeneratorConfig(constraints=("fixed:0.0", "fixed:60.0"),
                                    n_per_group=40, rng_seed=4))
    opts = LearnOptions(max_iter=20, num_restarts=1)
    models = [learn_nhat(data.actions)[0],
              learn_alpha(data.actions, data.states, opts, num_basis=3)[0],
              learn_lambda(data.actions, data.states, identity_features(2))[0],
              learn_ncl(data.states, data.actions, opts, num_basis=3)[0],
              learn_pi(data.states, data.actions, opts, num_basis=3)[0],
              learn_pi(data.states, data.actions, opts, basis="linear")[0],
              learn_pi_lwl(data.states, data.actions, opts, num_local=3)[0]]
    tracer = _load("tracer").Tracer()
    with tracer:
        rows = sum((len(cli.compute_metrics(model, data)[0]) for model in models), 0)
    names = [tracer.names[i] for i in tracer.span_name]

    def ancestors(i):
        while (i := tracer.span_parent[i]) >= 0:
            yield names[i]

    errors = [i for i, name in enumerate(names) if name == "metrics.error"]
    assert len(errors) == rows == 2 * len(models)
    assert all("cli.compute_metrics" in ancestors(i) for i in errors)


def test_every_rbf_learner_places_its_basis_in_one_kmeans_span():
    # the per-layer mathkit.kmeans_centers metrics read the tracer's wrapper
    # around the module global; a learner that placed its centers any other
    # way would silently drop out of them
    data = generate(GeneratorConfig(constraints=("fixed:0.0", "fixed:60.0"),
                                    n_per_group=40, rng_seed=5))
    opts = LearnOptions(max_iter=20, num_restarts=1)
    xu, ux = (data.states, data.actions), (data.actions, data.states)
    # (module, learner, its arguments, keyword arguments, the learner's span)
    runs = [(policy, "learn_pi", xu, {"num_basis": 3}, "policy.learn_pi"),
            (policy, "learn_pi_lwl", xu, {"num_local": 3}, "policy.learn_pi_lwl"),
            (nullspace, "learn_ncl", xu, {"num_basis": 3}, "nullspace.learn_ncl"),
            (constraint, "learn_alpha", ux, {"num_basis": 3}, "constraint.learn")]
    tracer = _load("tracer").Tracer()
    with tracer:
        for module, learner, args, kwargs, _ in runs:
            # looked up inside the block, where the tracer has wrapped it
            getattr(module, learner)(*args, opts, **kwargs)
    names = [tracer.names[i] for i in tracer.span_name]

    def outermost(i):
        while tracer.span_parent[i] >= 0:
            i = tracer.span_parent[i]
        return names[i]

    kmeans = [outermost(i) for i, name in enumerate(names) if name == "mathkit.kmeans_centers"]
    assert kmeans == [span for *_, span in runs]


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_no_workload_stage_runs_a_singular_value_decomposition(tmp_path, monkeypatch, name):
    # every workload's constraints have one row (or none), whose
    # pseudoinverse and complement frames pinv_truncated and
    # orthogonal_complement_rotation form in closed form
    def svd(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd called")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(np.linalg, "svd", svd)
    for stage, argv in WORKLOADS.build(name, n=200).stages(0):
        assert cli.main(argv) == 0, (stage, argv)


def test_lambda_workload_runs_no_damped_least_squares_and_no_kmeans(tmp_path, monkeypatch):
    # lambda learns a constant selection in closed form: it places no RBF
    # basis and refines no angle weights
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"mathkit.{name} called")
        return call

    monkeypatch.chdir(tmp_path)
    for name in ("lm_solve", "kmeans_centers"):
        original = getattr(mathkit, name)
        for module in (cli, constraint, mathkit, nullspace, policy):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refuse(name))
    for stage, argv in WORKLOADS.build("lambda-twolink", n=200).stages(0):
        assert cli.main(argv) == 0, (stage, argv)
