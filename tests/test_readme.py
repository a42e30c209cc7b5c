"""The README's Python examples run as written: its ```python blocks are
executed in order in one namespace, so a later block may use the names an
earlier one defined.  Its list of solver flags is the one the CLI builds,
its learner table states the defaults of the learners' signatures, its
tables of learn flags and tutorial files are the CLI's LEARNERS and
TUTORIALS (with each data file's sidecar), and its table of model
documents holds the dataclass fields of each class in MODEL_CLASSES."""
import ast
import dataclasses
import inspect
import re
from pathlib import Path

import ccl
from ccl import cli, serialize

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


def test_readme_states_the_flags_of_each_learn_method():
    rows = re.findall(r"^\| `ccl learn --method ([\w-]+)` \| (.*) \|$", README.read_text(), re.M)
    assert [method for method, _ in rows] == list(cli.LEARNERS)
    for method, cell in rows:
        assert re.findall(r"`(--[\w-]+)`", cell) == list(cli.LEARNERS[method][1]), method


def test_readme_lists_the_files_of_each_tutorial():
    rows = re.findall(r"^\| `ccl tutorial ([\w-]+)` \| (.*) \|$", README.read_text(), re.M)
    assert [name for name, _ in rows] == list(cli.TUTORIALS)
    for name, cell in rows:
        # each data file is followed by its sidecar
        files = [path for stem, _, _, field in cli.TUTORIALS[name]
                 for data, *made in [cli._stage_paths("", stem, field)]
                 for path in (data, data + ".npy", *made)]
        assert re.findall(r"`([\w.]+)`", cell) == files, name


def test_readme_lists_the_fields_of_each_model_document():
    table = README.read_text().split("\n| kind | fields |\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", table, re.M)
    assert [kind for kind, _ in rows] == list(serialize.MODEL_CLASSES)
    for kind, cell in rows:
        fields = [f.name for f in dataclasses.fields(serialize.MODEL_CLASSES[kind])]
        assert re.findall(r"`(\w+)`", cell) == fields, kind
