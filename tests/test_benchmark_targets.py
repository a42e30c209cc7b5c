"""The traced benchmark wraps ``ccl`` functions by module and attribute name
(``perfbench/tracer.py``).  Its own check is not part of this suite, so a
rename inside ``ccl`` would break the traced benchmark unnoticed; these tests
resolve every entry of the tracer's target list and check that the spans it
records still nest the way its per-layer attribution reads them."""
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from ccl import cli, mathkit
from ccl.constraint import identity_features, learn_alpha, learn_lambda, learn_nhat
from ccl.core import LearnOptions
from ccl.datagen import GeneratorConfig, generate
from ccl.nullspace import learn_ncl
from ccl.policy import learn_pi, learn_pi_lwl

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_target_resolves():
    tracer = _load_tracer()
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


def test_every_metric_span_is_timed_under_compute_metrics():
    # the per-layer metrics.error time of an eval is only attributed when the
    # metric calls, wherever the models make them, run inside compute_metrics
    data = generate(GeneratorConfig(constraints=(("fixed-angle", 0.0), ("fixed-angle", 60.0)),
                                    n_per_group=40, rng_seed=4))
    opts = LearnOptions(max_iter=20, num_restarts=1)
    models = [learn_nhat(data.actions, opts)[0],
              learn_alpha(data.actions, data.states, opts, num_basis=3)[0],
              learn_lambda(data.actions, data.states, identity_features(2), opts, num_basis=3)[0],
              learn_ncl(data.states, data.actions, opts, num_basis=3)[0],
              learn_pi(data.states, data.actions, opts, num_basis=3)[0],
              learn_pi(data.states, data.actions, opts, basis="linear")[0],
              learn_pi_lwl(data.states, data.actions, opts, num_local=3)[0]]
    tracer = _load_tracer().Tracer()
    with tracer:
        rows = sum((len(cli.compute_metrics(model, data)[0]) for model in models), 0)
    names = [tracer.names[i] for i in tracer.span_name]

    def ancestors(i):
        while (i := tracer.span_parent[i]) >= 0:
            yield names[i]

    errors = [i for i, name in enumerate(names) if name == "metrics.error"]
    assert len(errors) == rows == 2 * len(models)
    assert all("cli.compute_metrics" in ancestors(i) for i in errors)
