"""The README's Python examples run as written: its ```python blocks are
executed in order in one namespace, so a later block may use the names an
earlier one defined.  Its list of solver flags is the one the CLI builds."""
import re
from pathlib import Path

from ccl import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks, "README has no python example"
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_lists_the_solver_flags_of_the_cli():
    listed = re.search(r"The solver flags are .*?: `(--[^`]*)`", README.read_text(), re.S)
    assert listed, "README has no solver flag list"
    assert listed.group(1).split() == [cli._solver_flag(f) for f in cli.SOLVER_FIELDS]
