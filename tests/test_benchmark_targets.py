"""The traced benchmark wraps ``ccl`` functions by module and attribute name
(``perfbench/tracer.py``).  Its own check is not part of this suite, so a
rename inside ``ccl`` would break the traced benchmark unnoticed; this test
reads the tracer's target list and resolves every entry."""
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from ccl import mathkit

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
