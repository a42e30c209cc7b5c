"""The README's Python examples run as written: its ```python blocks are
executed in order in one namespace, so a later block may use the names an
earlier one defined.  Its list of solver flags is the one the CLI builds,
and its learner table states the defaults of the learners' signatures."""
import ast
import inspect
import re
from pathlib import Path

import ccl
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


def test_readme_learner_table_states_the_signature_defaults():
    table = dict(re.findall(r"^\| `(learn_\w+)` \| `\((.*)\)` \|$", README.read_text(), re.M))
    assert sorted(table) == ["learn_alpha", "learn_lambda", "learn_ncl", "learn_nhat",
                             "learn_pi", "learn_pi_lwl"]
    for name, listed in table.items():
        params = inspect.signature(getattr(ccl, name)).parameters.values()
        args = [arg.partition("=") for arg in listed.split(", ")]
        assert len(args) == len(params), name
        # options defaults to None and is listed bare; every other default is stated
        stated = {key: ast.literal_eval(value) for key, _, value in args if value}
        defaults = {p.name: p.default for p in params
                    if p.default is not p.empty and p.name != "options"}
        assert stated == defaults, name
