"""The traced benchmark wraps ``ccl`` functions by module and attribute name
(``perfbench/tracer.py``).  Its own check is not part of this suite, so a
rename inside ``ccl`` would break the traced benchmark unnoticed; this test
reads the tracer's target list and resolves every entry."""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, path, _ in tracer.TARGETS:
        _, _, value = tracer.resolve(module, path)
        assert callable(value), f"{module}.{path}"
