import argparse
import json
import os
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from ccl.cli import LEARNERS, TUTORIALS, _stage_paths, build_parser, main
from ccl.core import DemonstrationSet, LearnOptions, load_dataset, save_dataset
from ccl.datagen import GeneratorConfig
from ccl.serialize import MODEL_CLASSES, load_model


def _run(*argv):
    return main(list(argv))


def _gen(tmp_path, name="d.csv", constraint="fixed:30", n=300, seed=42, extra=()):
    out = str(tmp_path / name)
    code = _run("gen", "--constraint", constraint, "--n", str(n),
                "--seed", str(seed), "--out", out, *extra)
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_dataset_and_manifest(tmp_path):
    out = _gen(tmp_path, seed=42)
    data = load_dataset(out)
    assert data.n_samples == 300
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["seed"] == 42
    assert manifest["subcommand"] == "gen"
    assert manifest["outputs"] == [out]


def test_gen_missing_out_is_usage_error(tmp_path, capsys):
    assert _run("gen", "--constraint", "fixed:30") == 1
    assert "required" in capsys.readouterr().err


def test_gen_bad_constraint_spec(tmp_path, capsys):
    code = _run("gen", "--constraint", "warp:9", "--out", str(tmp_path / "d.csv"))
    assert code == 1
    assert "constraint" in capsys.readouterr().err


_BAD_SPECS = [("--constraint", "fixed:inf", "numbers must be finite"),
              ("--constraint", "fixed:-inf", "numbers must be finite"),
              ("--constraint", "parabolic:nan", "numbers must be finite"),
              ("--b", "sin:inf,3,0", "numbers must be finite"),
              ("--b", "sin:0.5,nan,0", "numbers must be finite"),
              ("--b", "const:nan", "numbers must be finite"),
              ("--constraint", "fixed:abc", "could not convert string to float: 'abc'"),
              ("--constraint", "parabolic:", "could not convert string to float: ''"),
              ("--constraint", "jrows:", "invalid literal for int() with base 10: ''"),
              ("--constraint", "jrows:x", "invalid literal for int() with base 10: 'x'"),
              ("--b", "const:", "could not convert string to float: ''"),
              ("--b", "sin:1,2", "not enough values to unpack (expected 3, got 2)"),
              ("--constraint", "none:5", "none takes no argument"),
              ("--constraint", "none:", "none takes no argument"),
              ("--b", "zero:1", "zero takes no argument")]


@pytest.mark.parametrize("flag,spec,why", _BAD_SPECS, ids=[s for _, s, _ in _BAD_SPECS])
def test_gen_names_the_flag_of_a_bad_spec(tmp_path, capsys, flag, spec, why):
    out = str(tmp_path / "d.csv")
    specs = (flag, spec) if flag == "--constraint" else ("--constraint", "fixed:30", flag, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run("gen", *specs, "--n", "20", "--out", out) == 1
    captured = capsys.readouterr()
    field = "constraint" if flag == "--constraint" else "task_b"
    assert captured.err == f"error: {field} {spec!r}: {why}\n"
    assert captured.out == "" and not os.path.exists(out)


@pytest.mark.parametrize("noise", ["nan", "inf", "-inf"])
def test_gen_rejects_a_non_finite_noise(tmp_path, capsys, noise):
    out = str(tmp_path / "d.csv")
    assert _run("gen", "--constraint", "fixed:30", f"--noise={noise}", "--n", "20",
                "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: noise_std must be finite\n"
    assert captured.out == "" and not os.path.exists(out)


@pytest.mark.parametrize("constraints,b,counts", [
    (("fixed:30",), "const:1,2", (2, 1)),
    (("none", "parabolic:0.1"), "const:1,2,3", (3, 1)),
])
def test_gen_rejects_a_constant_task_vector_of_the_wrong_length(tmp_path, capsys, constraints,
                                                                b, counts):
    out = str(tmp_path / "d.csv")
    specs = [arg for c in constraints for arg in ("--constraint", c)]
    assert _run("gen", *specs, "--b", b, "--n", "20", "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: task_b {b!r} has {counts[0]} values, but constraint "
                            f"{constraints[-1]!r} has {counts[1]} row\n")
    assert captured.out == "" and not os.path.exists(out)


@pytest.mark.parametrize("b", ["const:1,2,3", "const:1", "sin:0.5,3,0"])
def test_gen_rejects_a_task_drive_when_no_group_is_constrained(tmp_path, capsys, b):
    out = str(tmp_path / "d.csv")
    assert _run("gen", "--constraint", "none", "--constraint", "none", "--b", b,
                "--n", "20", "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: task_b {b!r} drives nothing: every constraint is none\n"
    assert captured.out == "" and not os.path.exists(out)
    assert not os.path.exists(out + ".manifest.json")


@pytest.mark.parametrize("spec,why", [
    ("jrows:5", "Jacobian row index 5 is out of range (the arm has rows 0 and 1)"),
    ("jrows:-1", "Jacobian row index -1 is out of range (the arm has rows 0 and 1)"),
    ("jrows:1,2,3", "Jacobian row index 2 is out of range (the arm has rows 0 and 1)"),
    ("jrows:0,0", "Jacobian row 0 is selected twice"),
    ("jrows:1,0", "2 Jacobian rows constrain every direction of the 2-D arm"),
])
def test_gen_names_the_flag_of_a_bad_jacobian_row_spec(tmp_path, capsys, spec, why):
    out = str(tmp_path / "d.csv")
    assert _run("gen", "--system", "twolink", "--constraint", spec, "--n", "20",
                "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: constraint {spec!r}: {why}\n"
    assert captured.out == "" and not os.path.exists(out)


# gen runs that fail, each as (its flags, the GeneratorConfig arguments of the
# same request): every bad spec, a noise that is not finite, a task drive with
# nothing to drive, a const of the wrong length, a negative seed and an
# unknown system or policy
_REFUSED = ([((flag, spec), {"constraints": (spec,)}) if flag == "--constraint" else
             (("--constraint", "fixed:30", flag, spec),
              {"constraints": ("fixed:30",), "task_b": spec}) for flag, spec, _ in _BAD_SPECS]
            + [(("--constraint", "fixed:30", f"--noise={noise}"),
                {"constraints": ("fixed:30",), "noise_std": float(noise)})
               for noise in ("nan", "inf", "-inf")]
            + [(("--constraint", "none", "--constraint", "none", "--b", "sin:0.5,3,0"),
                {"constraints": ("none", "none"), "task_b": "sin:0.5,3,0"}),
               (("--constraint", "none", "--constraint", "parabolic:0.1", "--b", "const:1,2,3"),
                {"constraints": ("none", "parabolic:0.1"), "task_b": "const:1,2,3"}),
               (("--constraint", "fixed:30", "--seed", "-1"),
                {"constraints": ("fixed:30",), "rng_seed": -1}),
               (("--constraint", "fixed:30", "--system", "bogus"),
                {"constraints": ("fixed:30",), "system": "bogus"}),
               (("--constraint", "fixed:30", "--policy", "bogus"),
                {"constraints": ("fixed:30",), "policy": "bogus"})])


@pytest.mark.parametrize("flags,config", _REFUSED, ids=[" ".join(f) for f, _ in _REFUSED])
def test_gen_and_the_library_refuse_a_config_with_one_message(tmp_path, capsys, flags, config):
    assert _run("gen", *flags, "--n", "20", "--out", str(tmp_path / "d.csv")) == 1
    with pytest.raises(ValueError) as exc:
        GeneratorConfig(n_per_group=20, **config)
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_gen_parabolic(tmp_path):
    out = _gen(tmp_path, constraint="parabolic:0.1", seed=1)
    data = load_dataset(out)
    for n in range(0, data.n_samples, 37):
        a = np.array([-0.2 * data.states[0, n], 1.0])
        assert abs(a @ data.actions[:, n]) < 1e-10


def test_gen_deterministic_reruns(tmp_path):
    a = _gen(tmp_path, name="a.csv", seed=7)
    b = _gen(tmp_path, name="b.csv", seed=7)
    assert open(a).read() == open(b).read()


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

def test_learn_nhat_model_kind(tmp_path):
    data = _gen(tmp_path)
    out = str(tmp_path / "m.json")
    assert _run("learn", "--method", "nhat", "--in", data, "--out", out) == 0
    doc = json.loads(open(out).read())
    assert doc["kind"] == "nhat"
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["report"]["converged"] is True


@pytest.mark.parametrize("constraint,notes", [("fixed:30", "[]"),
                                               ("none", '["no-constraint-found"]')])
def test_learn_console_line_prints_the_notes(tmp_path, capsys, constraint, notes):
    # a note does not change the exit code, which comes from converged alone
    data = _gen(tmp_path, constraint=constraint)
    capsys.readouterr()
    assert _run("learn", "--method", "nhat", "--in", data, "--out", str(tmp_path / "m.json")) == 0
    line = capsys.readouterr().out
    assert line.startswith("learn: method=nhat converged=True ")
    assert line.endswith(f" notes={notes}\n")


def test_learn_lambda_requires_features(tmp_path, capsys):
    data = _gen(tmp_path)
    code = _run("learn", "--method", "lambda", "--in", data,
                "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert "features" in capsys.readouterr().err


def test_learn_lambda_twolink(tmp_path):
    out = str(tmp_path / "d.csv")
    assert _run("gen", "--system", "twolink", "--policy", "linear-attractor",
                "--constraint", "jrows:1", "--n", "300", "--seed", "3",
                "--out", out) == 0
    model_path = str(tmp_path / "m.json")
    assert _run("learn", "--method", "lambda", "--features",
                "twolink-jacobian:1.0,1.0", "--in", out, "--out", model_path) == 0
    doc = json.loads(open(model_path).read())
    assert doc["kind"] == "lambda" and sorted(doc) == ["features", "kind", "rows", "version"]
    report = json.loads(open(model_path + ".manifest.json").read())["report"]
    assert (report["reason"], report["iterations"], report["starts"]) == ("closed-form", 0, [])


@pytest.mark.parametrize("method,extra", [("alpha", ()), ("lambda", ("--features", "identity:2"))])
def test_learn_rejects_a_dim_b_above_the_selection_dimension(tmp_path, capsys, method, extra):
    # it was clamped to 2 rows while the manifest recorded --dim-b 3
    data = _gen(tmp_path, n=60)
    capsys.readouterr()
    out = str(tmp_path / "m.json")
    assert _run("learn", "--method", method, "--in", data, "--out", out, *extra,
                "--dim-b", "3") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: dim_b must be <= 2, got 3\n"
    assert captured.out == "" and not os.path.exists(out)


def test_learn_alpha_refuses_rows_that_leave_no_null_space(tmp_path, capsys):
    # it exited 0, converged, with a zero projector: eval read NPOE 1.02
    data = _gen(tmp_path, constraint="parabolic:0.1", n=100)
    capsys.readouterr()
    out = str(tmp_path / "m.json")
    assert _run("learn", "--method", "alpha", "--in", data, "--out", out, "--dim-b", "2") == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: cannot learn 2 state-dependent constraint row(s) in action "
                            "dimension 2: they leave no null space (1 <= dim_b < dim_u)\n")
    assert captured.out == "" and not os.path.exists(out)


def test_learn_rejects_a_provider_of_another_size(tmp_path, capsys):
    data = _gen(tmp_path, n=60)
    out = str(tmp_path / "m.json")
    assert _run("learn", "--method", "lambda", "--features", "identity:3", "--in", data,
                "--out", out) == 1
    assert capsys.readouterr().err == ("error: feature provider 'identity:3' has dim_u 3, "
                                       "but the observations have dim_u 2\n")
    assert not os.path.exists(out)


def test_learn_pi_single_group_degeneracy_warning(tmp_path):
    data = _gen(tmp_path)
    out = str(tmp_path / "m.json")
    assert _run("learn", "--method", "pi", "--in", data, "--out", out) == 0
    manifest = json.loads(open(out + ".manifest.json").read())
    assert any("degeneracy" in note for note in manifest["report"]["notes"])


def test_learn_manifest_records_every_start(tmp_path):
    data = _gen(tmp_path, constraint="parabolic:0.1", n=400, seed=5)
    out = str(tmp_path / "m.json")
    assert _run("learn", "--method", "alpha", "--in", data, "--out", out) == 0
    report = json.loads(open(out + ".manifest.json").read())["report"]
    row0 = [rec for rec in report["starts"] if rec["row"] == 0]
    assert [rec["start"] for rec in row0] == list(range(LearnOptions().num_restarts))
    assert sum(rec["iterations"] for rec in report["starts"]) == report["iterations"]
    kept = min(row0, key=lambda rec: rec["objective"])
    assert kept["objective"] == report["objective_trace"][0]
    assert "abandoned" in [rec["reason"] for rec in row0]


def test_learn_exit_code_two_when_not_converged(tmp_path):
    data = _gen(tmp_path, constraint="parabolic:0.1", n=120, seed=5)
    out = str(tmp_path / "m.json")
    code = _run("learn", "--method", "alpha", "--in", data, "--out", out,
                "--max-iter", "1", "--num-restarts", "1", "--num-basis", "6")
    assert code == 2
    assert os.path.exists(out)  # best-effort model still written


def test_learn_all_methods_dispatch(tmp_path):
    data = _gen(tmp_path, constraint="fixed:45", n=200, seed=9)
    for method, extra in (("nhat", ()), ("alpha", ("--num-basis", "6", "--max-iter", "60")),
                          ("ncl", ("--num-basis", "6", "--max-iter", "60")),
                          ("pi", ()), ("pi-lwl", ())):
        out = str(tmp_path / f"{method}.json")
        code = _run("learn", "--method", method, "--in", data, "--out", out, *extra)
        assert code in (0, 2)
        assert os.path.exists(out)


@pytest.mark.parametrize("size", ["0", "-3"])
def test_learn_rejects_num_basis_below_one(tmp_path, capsys, size):
    data = _gen(tmp_path, constraint="fixed:45", n=60, seed=9)
    for method in ("alpha", "ncl", "pi", "pi-lwl"):
        out = str(tmp_path / f"{method}.json")
        code = _run("learn", "--method", method, "--in", data, "--out", out,
                    f"--num-basis={size}")
        assert code == 1
        name = "num_local" if method == "pi-lwl" else "num_basis"
        assert f"error: {name} must be >= 1, got {size}" in capsys.readouterr().err
        assert not os.path.exists(out)


_UNREAD_FLAGS = ([(m, "--num-basis", "4") for m in ("nhat", "lambda")]
                 + [(m, "--dim-b", "1") for m in ("nhat", "ncl", "pi", "pi-lwl")]
                 + [(m, "--features", "identity:2")
                    for m in ("nhat", "alpha", "ncl", "pi", "pi-lwl")]
                 + [(m, "--basis", "linear") for m in ("nhat", "alpha", "lambda", "ncl", "pi-lwl")]
                 # the solver flags: only alpha and ncl run damped least squares
                 + [(m, flag, value) for m in ("nhat", "lambda", "pi", "pi-lwl")
                    for flag, value in (("--tol-fun", "1e-6"), ("--tol-x", "1e-6"),
                                        ("--max-iter", "20"))]
                 + [(m, "--num-restarts", "2") for m in ("nhat", "lambda", "ncl", "pi", "pi-lwl")]
                 + [(m, "--regularization", "1e-6") for m in ("nhat", "lambda")])


@pytest.mark.parametrize("method,flag,value", _UNREAD_FLAGS,
                         ids=[f"{m}{f}" for m, f, _ in _UNREAD_FLAGS])
def test_learn_rejects_a_flag_its_method_never_reads(tmp_path, capsys, method, flag, value):
    # refused before the dataset is read: the input file does not exist
    out = str(tmp_path / "m.json")
    features = ("--features", "identity:2") if method == "lambda" else ()
    assert _run("learn", "--method", method, "--in", str(tmp_path / "absent.csv"),
                "--out", out, *features, flag, value) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: method {method} does not take {flag}\n"
    assert captured.out == "" and not os.path.exists(out)


def test_learn_rejects_a_basis_size_for_the_linear_basis(tmp_path, capsys):
    # the affine features (x, 1) have a fixed size; refused before the load
    out = str(tmp_path / "m.json")
    assert _run("learn", "--method", "pi", "--basis", "linear", "--num-basis", "7",
                "--in", str(tmp_path / "absent.csv"), "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --basis linear does not take --num-basis")
    assert captured.out == "" and not os.path.exists(out)


def test_learn_default_basis_sizes_come_from_the_learners(tmp_path):
    data = _gen(tmp_path, constraint="fixed:45", n=60, seed=9)
    for method, size_of, size, extra in (
            ("alpha", lambda doc: len(doc["centers"][0]), 16, ("--max-iter", "20")),
            ("ncl", lambda doc: len(doc["centers"][0]), 16, ("--max-iter", "20")),
            ("pi", lambda doc: len(doc["centers"][0]), 10, ()),
            ("pi-lwl", lambda doc: len(doc["local_maps"]), 10, ())):
        out = str(tmp_path / f"{method}.json")
        code = _run("learn", "--method", method, "--in", data, "--out", out, *extra)
        assert code in (0, 2)
        assert size_of(json.loads(open(out).read())) == size
        assert "--num-basis" not in json.loads(open(out + ".manifest.json").read())["command"]


@pytest.mark.parametrize("dim_x", [1, 3])
def test_twolink_features_refuse_states_that_are_not_two_joint_angles(tmp_path, capsys, dim_x):
    # on x1 states learn and eval ended in an IndexError traceback; on
    # x1,x2,x3 states both exited 0 and dropped x3
    rng = np.random.default_rng(30)
    data = str(tmp_path / "d.csv")
    save_dataset(DemonstrationSet(states=rng.uniform(-1.0, 1.0, (dim_x, 40)),
                                  actions=rng.normal(size=(2, 40))), data)
    message = (f"error: the two-link Jacobian takes 2-D states (joint angles q1, q2), "
               f"got {dim_x}-D states")
    features = ("--method", "lambda", "--features", "twolink-jacobian:1,1")
    model = str(tmp_path / "m.json")
    assert _run("learn", *features, "--in", data, "--out", model) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(model)
    two = str(tmp_path / "two.csv")
    assert _run("gen", "--system", "twolink", "--policy", "linear-attractor", "--constraint",
                "jrows:1", "--n", "60", "--seed", "3", "--out", two) == 0
    assert _run("learn", *features, "--in", two, "--out", model) == 0
    capsys.readouterr()
    assert _run("eval", "--model", model, "--data", data, "--out", str(tmp_path / "e.csv")) == 1
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_channel_gating(tmp_path, capsys):
    data = _gen(tmp_path)
    model_path = str(tmp_path / "m.json")
    _run("learn", "--method", "nhat", "--in", data, "--out", model_path)
    capsys.readouterr()
    assert _run("eval", "--model", model_path, "--data", data) == 0
    out = capsys.readouterr().out
    assert "NPOE" in out and "NPPE" in out  # channels present in generated data

    # strip the ground-truth channels: NPPE must be skipped with a note
    stripped = str(tmp_path / "plain.csv")
    full = load_dataset(data)
    with open(stripped, "w") as fh:
        fh.write("x1,x2,u1,u2\n")
        for n in range(full.n_samples):
            row = list(full.states[:, n]) + list(full.actions[:, n])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    assert _run("eval", "--model", model_path, "--data", stripped) == 0
    out = capsys.readouterr().out
    assert "NPOE" in out
    assert "NPPE skipped: requires ground truth" in out


def test_eval_self_closed_loop_near_zero(tmp_path, capsys):
    data = _gen(tmp_path, seed=11)
    model_path = str(tmp_path / "m.json")
    _run("learn", "--method", "nhat", "--in", data, "--out", model_path)
    metrics_path = str(tmp_path / "met.csv")
    capsys.readouterr()
    assert _run("eval", "--model", model_path, "--data", data,
                "--out", metrics_path) == 0
    for line in open(metrics_path).read().splitlines()[1:]:
        if line.startswith("#"):
            continue
        name, normalized, variance, mse = line.split(",")
        assert float(normalized) < 1e-6
    manifest = json.loads(open(metrics_path + ".manifest.json").read())
    assert set(manifest["report"]["metrics"]) == {"NPOE", "NPPE"}
    for triple in manifest["report"]["metrics"].values():
        assert triple["normalized"] < 1e-6


def test_eval_malformed_model_exits_one(tmp_path, capsys):
    data = _gen(tmp_path)
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("{ not json")
    assert _run("eval", "--model", bad, "--data", data) == 1


# every learned model kind, as the CLI writes it
_LEARNED_KINDS = {
    "nhat": ("nhat", ()),
    "alpha": ("alpha", ("--num-basis", "4", "--max-iter", "40")),
    "lambda": ("lambda", ("--features", "identity:2")),
    "ncl": ("ncl", ("--num-basis", "4", "--max-iter", "40")),
    "pi-rbf": ("pi", ("--num-basis", "4")),
    "pi-linear": ("pi", ("--basis", "linear")),
    "pi-lwl": ("pi-lwl", ("--num-basis", "3")),
}


def _learn_kind(tmp_path, name):
    """A dataset and the document ``ccl learn`` writes for it: (data path, doc)."""
    data = _gen(tmp_path, constraint="fixed:45", n=80, seed=9)
    method, extra = _LEARNED_KINDS[name]
    learned = str(tmp_path / f"{name}.json")
    assert _run("learn", "--method", method, "--in", data, "--out", learned, *extra) in (0, 2)
    return data, json.loads(open(learned).read())


def test_model_kinds_are_the_kinds_the_learners_write(tmp_path):
    assert {method for method, _ in _LEARNED_KINDS.values()} == set(LEARNERS)
    written = {_learn_kind(tmp_path, name)[1]["kind"] for name in _LEARNED_KINDS}
    assert set(MODEL_CLASSES) == written


@pytest.mark.parametrize("name", sorted(_LEARNED_KINDS))
def test_model_document_missing_a_field_is_an_error(tmp_path, capsys, name):
    data, doc = _learn_kind(tmp_path, name)
    for key in sorted(doc):
        bad = str(tmp_path / f"without-{key}.json")
        with open(bad, "w") as fh:
            json.dump({k: v for k, v in doc.items() if k != key}, fh)
        with pytest.raises(ValueError):
            load_model(bad)
        capsys.readouterr()
        assert _run("eval", "--model", bad, "--data", data,
                    "--out", str(tmp_path / "e.csv")) == 1, key
        assert capsys.readouterr().err.startswith("error: "), key


# one learned parameter of each kind, as a path into its document, and a
# non-finite value to put there
_POISON = [
    ("nhat", ("rows", 0, 0), float("nan")),
    ("alpha", ("omegas", 0, 0, 0), float("nan")),
    ("alpha", ("centers", 0, 0), float("nan")),
    ("alpha", ("signs", 0), float("nan")),
    ("lambda", ("rows", 0, 0), float("nan")),
    ("ncl", ("weights", 0, 0), float("nan")),
    ("ncl", ("width",), float("inf")),
    ("pi-rbf", ("weights", 0, 0), float("nan")),
    ("pi-rbf", ("width",), float("inf")),
    ("pi-linear", ("weights", 0, 0), float("nan")),
    ("pi-lwl", ("local_maps", 0, 0, 0), float("nan")),
    ("pi-lwl", ("width",), float("inf")),
]


@pytest.mark.parametrize("name,path,value", _POISON,
                         ids=[n + "-" + ".".join(k for k in p if isinstance(k, str))
                              for n, p, _ in _POISON])
def test_model_document_with_a_non_finite_parameter_is_an_error(tmp_path, capsys, name, path,
                                                                 value):
    data, doc = _learn_kind(tmp_path, name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match="must be finite"):
        load_model(bad)
    capsys.readouterr()
    assert _run("eval", "--model", bad, "--data", data) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "must be finite" in captured.err
    assert captured.out == ""


# a learned number written as a JSON string, or a width that is no number
_STRINGLY = [
    ("alpha", ("width",), "text"),
    ("alpha", ("width",), None),
    ("alpha", ("width",), True),
    ("alpha", ("centers", 0, 0), "text"),
    ("alpha", ("omegas", 0, 0, 0), "text"),
    ("alpha", ("signs", 0), "text"),
    ("nhat", ("rows", 0, 0), "text"),
    ("ncl", ("width",), "text"),
    ("ncl", ("weights", 0, 0), "text"),
    ("pi-rbf", ("width",), "text"),
    ("pi-rbf", ("weights", 0, 0), "text"),
    ("pi-rbf", ("centers", 0, 0), "text"),
    ("pi-linear", ("weights", 0, 0), "text"),
    ("pi-lwl", ("width",), None),
    ("pi-lwl", ("local_maps", 0, 0, 0), "text"),
]


@pytest.mark.parametrize("name,path,value", _STRINGLY,
                         ids=[f"{n}-{'.'.join(k for k in p if isinstance(k, str))}-{v}"
                              for n, p, v in _STRINGLY])
def test_model_document_with_a_numeric_string_is_malformed(tmp_path, capsys, name, path, value):
    data, doc = _learn_kind(tmp_path, name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value == "text":  # the very number it held, as a string
        value = repr(node[path[-1]])
    node[path[-1]] = value
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match="has a malformed field: "):
        load_model(bad)
    capsys.readouterr()
    assert _run("eval", "--model", bad, "--data", data) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: model document") and "malformed field" in captured.err
    assert captured.out == ""


def test_eval_rejects_an_rbf_document(tmp_path, capsys):
    data = _gen(tmp_path, n=40)
    bad = str(tmp_path / "rbf.json")
    with open(bad, "w") as fh:
        json.dump({"version": 2, "kind": "rbf", "centers": [[0.0], [0.0]], "width": 1.0,
                   "weights": [[1.0], [1.0]]}, fh)
    capsys.readouterr()
    assert _run("eval", "--model", bad, "--data", data) == 1
    assert capsys.readouterr().err == "error: unknown model kind 'rbf'\n"


@pytest.fixture(scope="module")
def learned_docs(tmp_path_factory):
    """One learned document of each kind: name -> (data path, doc)."""
    return {name: _learn_kind(tmp_path_factory.mktemp(name), name) for name in _LEARNED_KINDS}


# a field that is not one of its kind's: each size that version 1 documents
# declared beside their arrays, and the features tag of alpha and pi
_UNKNOWN_FIELDS = [("nhat", "dim_u", 2), ("nhat", "dim_b", 1), ("alpha", "dim_u", 2),
                   ("alpha", "dim_b", 1), ("alpha", "features", None), ("alpha", "basis", {}),
                   ("lambda", "dim_u", 2), ("lambda", "dim_b", 1), ("ncl", "dim_out", 2),
                   ("ncl", "n_basis", 4), ("pi-rbf", "dim_x", 2), ("pi-rbf", "features", "rbf"),
                   ("pi-linear", "dim_x", 2), ("pi-lwl", "n_local", 3), ("pi-lwl", "dim_u", 2)]


@pytest.mark.parametrize("name,key,value", _UNKNOWN_FIELDS,
                         ids=[f"{n}-{k}" for n, k, _ in _UNKNOWN_FIELDS])
def test_model_document_with_an_unknown_field_names_it(tmp_path, capsys, learned_docs, name,
                                                       key, value):
    data, doc = learned_docs[name]
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(dict(doc, **{key: value}), fh)
    message = f"model document (kind {doc['kind']!r}) has unknown field {key!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_model(bad)
    capsys.readouterr()
    assert _run("eval", "--model", bad, "--data", data) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("version", [1, 1.0, True])
def test_model_document_version_must_be_the_integer(tmp_path, capsys, learned_docs, version):
    data, doc = learned_docs["ncl"]
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(dict(doc, version=version), fh)
    capsys.readouterr()
    assert _run("eval", "--model", bad, "--data", data) == 1
    assert capsys.readouterr().err == (f"error: unsupported model document version "
                                       f"{version!r}: only version 2 is read, so learn the "
                                       f"model again\n")


@pytest.mark.parametrize("features", [5, True, ["identity:2"], {"name": "identity:2"}])
def test_model_document_features_must_be_a_string(tmp_path, capsys, learned_docs, features):
    data, doc = learned_docs["lambda"]
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(dict(doc, features=features), fh)
    capsys.readouterr()
    assert _run("eval", "--model", bad, "--data", data) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: feature provider name must be a string, got {features!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("kind,features,holds", [("lambda", None, "nhat"),
                                                 ("nhat", "identity:2", "lambda")])
def test_constraint_document_of_the_other_kind_is_an_error(tmp_path, capsys, learned_docs, kind,
                                                            features, holds):
    # the features field decides the kind, so it must agree with the tag
    data, doc = learned_docs[kind]
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(dict(doc, features=features), fh)
    capsys.readouterr()
    assert _run("eval", "--model", bad, "--data", data) == 1
    assert capsys.readouterr().err == (f"error: model document (kind {kind!r}) holds the fields "
                                       f"of a {holds!r} model\n")


# an nhat document (one row in 2-D, as learned) edited into a bad one, and
# the message its load fails with
_BAD_NHAT_DOCS = {
    "not-orthonormal": (lambda doc: dict(doc, rows=[[v * (1 + 1e-8) for v in doc["rows"][0]]]),
                        "rows must be orthonormal"),
    "ragged": (lambda doc: dict(doc, rows=[doc["rows"][0], [0.0]]), "rows is ragged"),
    "strings": (lambda doc: dict(doc, rows=[[repr(v) for v in doc["rows"][0]]]),
                "malformed field"),
    "dim-b-not-below-dim-u": (lambda doc: dict(doc, rows=[[1.0, 0.0], [0.0, 1.0]]),
                              "1 <= dim_b < dim_u"),
    "angles": (lambda doc: {**{k: v for k, v in doc.items() if k != "rows"},
                            "angles": [[0.7853981633974483]]}, "missing field 'rows'"),
}


@pytest.mark.parametrize("name", sorted(_BAD_NHAT_DOCS))
def test_nhat_document_with_bad_rows_is_an_error(tmp_path, capsys, learned_docs, name):
    data, doc = learned_docs["nhat"]
    edit, message = _BAD_NHAT_DOCS[name]
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(edit(doc), fh)
    capsys.readouterr()
    assert _run("eval", "--model", bad, "--data", data) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# a lambda document (one selection row over identity:2, as learned) edited
# into a bad one, and the message its load fails with
_BAD_LAMBDA_DOCS = {
    "rows-wider-than-the-provider": (lambda doc: dict(doc, rows=[[1.0, 0.0, 0.0]]),
                                     "rows must be a (dim_b, dim_phi) matrix with 1 <= dim_b "
                                     "<= dim_phi = 2 for feature provider 'identity:2', got "
                                     "shape (1, 3)"),
    "more-rows-than-the-provider": (lambda doc: dict(doc, rows=np.eye(3)[:, :2].tolist()),
                                    "got shape (3, 2)"),
    "not-orthonormal": (lambda doc: dict(doc, rows=[[v * (1 + 1e-8) for v in doc["rows"][0]]]),
                        "rows must be orthonormal"),
    "rows-a-dict": (lambda doc: dict(doc, rows={"0": doc["rows"][0]}), "malformed field"),
    "rows-of-dicts": (lambda doc: dict(doc, rows=[{"x": 1.0}]), "malformed field"),
    "rows-nested-deeper": (lambda doc: dict(doc, rows=[doc["rows"]]), "got shape (1, 1, 2)"),
    "rows-a-number": (lambda doc: dict(doc, rows=1.0), "got shape ()"),
    "rows-ragged": (lambda doc: dict(doc, rows=[doc["rows"][0], [[0.0]]]), "rows is ragged"),
}


@pytest.mark.parametrize("name", sorted(_BAD_LAMBDA_DOCS))
def test_lambda_document_with_bad_rows_is_an_error(tmp_path, capsys, learned_docs, name):
    data, doc = learned_docs["lambda"]
    edit, message = _BAD_LAMBDA_DOCS[name]
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(edit(doc), fh)
    capsys.readouterr()
    assert _run("eval", "--model", bad, "--data", data) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("features", [
    "twolink-jacobian:0,0", "twolink-jacobian:nan,1", "twolink-jacobian:inf,1",
    "twolink-jacobian:1,-2", "twolink-jacobian:1", "identity:0", "identity:-1",
    "identity:1.5", "identity:two"])
def test_bad_feature_name_is_an_error(tmp_path, capsys, learned_docs, features):
    # zero link lengths once scored a perfect NPOE of 0.0, and a nan length
    # printed a numpy warning; both in eval and in learn the name is refused
    data, doc = learned_docs["lambda"]
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(dict(doc, features=features), fh)
    out = str(tmp_path / "m.json")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (("eval", "--model", bad, "--data", data),
                     ("learn", "--method", "lambda", "--features", features,
                      "--in", data, "--out", out)):
            assert _run(*argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: bad feature provider {features!r}")
            assert captured.out == ""
    assert not os.path.exists(out)


def test_alpha_document_with_rows_that_leave_no_null_space_is_an_error(tmp_path, capsys,
                                                                       learned_docs):
    # a second row with no angles once loaded: a full-rank constraint
    # whose projector is zero
    data, doc = learned_docs["alpha"]
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(dict(doc, omegas=doc["omegas"] + [[]], signs=doc["signs"] + [1.0]), fh)
    capsys.readouterr()
    assert _run("eval", "--model", bad, "--data", data) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: omegas must have 2 non-empty axes, got shape (0,)\n"
    assert captured.out == ""


def _document_paths(node, path=()):
    """Every field of a model document but its version and kind, as paths
    into it: each key of a block, and the first element of each list."""
    if isinstance(node, dict):
        for key in sorted(node):
            if path or key not in ("version", "kind"):
                yield path + (key,)
                yield from _document_paths(node[key], path + (key,))
    elif isinstance(node, list) and node:
        yield path + (0,)
        yield from _document_paths(node[0], path + (0,))


# what a field is replaced by: a value of each JSON type, a deeper nesting
# of the field and a ragged list
_REPLACEMENTS = {"null": lambda v: None, "number": lambda v: 0.5, "string": lambda v: "text",
                 "empty-list": lambda v: [], "object": lambda v: {}, "nested": lambda v: [v],
                 "ragged": lambda v: [v, [v]]}


@pytest.mark.parametrize("replacement", sorted(_REPLACEMENTS))
@pytest.mark.parametrize("name", sorted(_LEARNED_KINDS))
def test_model_document_with_a_field_of_another_shape_is_an_error(tmp_path, capsys, learned_docs,
                                                                  name, replacement):
    # a deeper nesting of an alpha, ncl or pi-lwl array, and a sign of
    # 0.5, once loaded; other edits were already refused
    data, doc = learned_docs[name]
    bad = str(tmp_path / "bad.json")
    checked = 0
    for path in _document_paths(doc):
        edited = json.loads(json.dumps(doc))
        node = edited
        for key in path[:-1]:
            node = node[key]
        value = node[path[-1]]
        # a learned number but a sign or an orthonormal row may be any
        # finite number, and a null field (nhat's features, the centers
        # and width of an affine policy) may be null
        if (replacement, type(value)) in (("number", float), ("null", type(None))) \
                and path[0] not in ("signs", "rows"):
            continue
        node[path[-1]] = _REPLACEMENTS[replacement](value)
        with open(bad, "w") as fh:
            json.dump(edited, fh)
        capsys.readouterr()
        assert _run("eval", "--model", bad, "--data", data) == 1, path
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == "", path
        checked += 1
    assert checked >= 3


# every learned array of two or more axes, as a path into its document
_ARRAYS = [("nhat", ("rows",)), ("lambda", ("rows",)), ("alpha", ("omegas", 0)),
           ("alpha", ("centers",)), ("ncl", ("centers",)),
           ("ncl", ("weights",)), ("pi-rbf", ("centers",)), ("pi-rbf", ("weights",)),
           ("pi-linear", ("weights",)), ("pi-lwl", ("centers",)), ("pi-lwl", ("local_maps",))]


@pytest.mark.parametrize("name,path", _ARRAYS,
                         ids=[f"{n}-{'.'.join(map(str, p))}" for n, p in _ARRAYS])
def test_model_document_with_a_flattened_array_is_an_error(tmp_path, capsys, learned_docs, name,
                                                           path):
    # an alpha weight matrix, the centers of alpha and ncl, ncl's weights
    # and pi-lwl's local maps were reshaped from any list of their size
    data, doc = learned_docs[name]
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = np.ravel(node[path[-1]]).tolist()
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert _run("eval", "--model", bad, "--data", data) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


# every learned array field and its number of axes; a model's sizes are
# the lengths of these axes, so each must be non-empty and none may be split
_ARRAY_AXES = [("nhat", "rows", 2), ("lambda", "rows", 2), ("alpha", "omegas", 3),
               ("alpha", "centers", 2), ("alpha", "signs", 1), ("ncl", "centers", 2),
               ("ncl", "weights", 2), ("pi-rbf", "centers", 2), ("pi-rbf", "weights", 2),
               ("pi-linear", "weights", 2), ("pi-lwl", "centers", 2),
               ("pi-lwl", "local_maps", 3)]
_AXIS_EDITS = [(name, key, axis, edit) for name, key, ndim in _ARRAY_AXES
               for axis in range(ndim) for edit in ("empty", "split")]


@pytest.mark.parametrize("name,key,axis,edit", _AXIS_EDITS,
                         ids=[f"{n}-{k}-axis{a}-{e}" for n, k, a, e in _AXIS_EDITS])
def test_model_document_with_an_empty_or_split_axis_is_an_error(tmp_path, capsys, learned_docs,
                                                                name, key, axis, edit):
    # an empty axis is the size 0 and a split axis the extra nesting that
    # version 1 documents declared or reshaped away; every array edits the
    # same way at every depth, so the document stays a regular nested list
    data, doc = learned_docs[name]
    array = np.asarray(doc[key])
    if edit == "empty":
        value = np.empty(array.shape[:axis] + (0,) + array.shape[axis + 1:]).tolist()
    else:
        value = np.expand_dims(array, axis + 1).tolist()
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(dict(doc, **{key: value}), fh)
    # an alpha model with no omegas at all holds no row
    message = ("an alpha constraint holds at least one row" if (key, axis, edit) ==
               ("omegas", 0, "empty") else f"{key} must have ")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_model(bad)
    capsys.readouterr()
    assert _run("eval", "--model", bad, "--data", data) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.out == ""


def test_deeply_nested_model_file_is_an_error_not_a_traceback(tmp_path, capsys):
    data = _gen(tmp_path, n=40)
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200000 + "]" * 200000)
    capsys.readouterr()
    assert _run("eval", "--model", str(bad), "--data", data) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: not a valid model document: nested too deeply\n"
    assert captured.out == ""


def test_model_document_missing_field_names_it(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump({"kind": "alpha", "version": 2}, fh)
    with pytest.raises(ValueError) as exc:
        load_model(bad)
    assert str(exc.value) == "model document (kind 'alpha') is missing field 'omegas'"
    data = _gen(tmp_path, n=40)
    assert _run("eval", "--model", bad, "--data", data) == 1
    assert capsys.readouterr().err.endswith("is missing field 'omegas'\n")


# ---------------------------------------------------------------------------
# manifests / determinism / env seed
# ---------------------------------------------------------------------------

def test_manifest_command_reruns_identically(tmp_path):
    out = _gen(tmp_path, name="a.csv", seed=13)
    manifest = json.loads(open(out + ".manifest.json").read())
    command = manifest["command"]
    # redirect the output and re-run the recorded command
    redone = str(tmp_path / "b.csv")
    command[command.index("--out") + 1] = redone
    assert main(command) == 0
    assert open(out).read() == open(redone).read()


def test_learn_manifest_command_reruns_with_solver_flags(tmp_path):
    data = _gen(tmp_path, constraint="parabolic:0.1", n=120, seed=5)
    out = str(tmp_path / "a.json")
    code = _run("learn", "--method", "alpha", "--in", data, "--out", out, "--num-basis", "6",
                "--max-iter", "3", "--num-restarts", "2", "--tol-fun", "1e-6")
    assert code == 2
    command = json.loads(open(out + ".manifest.json").read())["command"]
    assert command[-6:] == ["--tol-fun", "1e-06", "--max-iter", "3", "--num-restarts", "2"]
    redone = str(tmp_path / "b.json")
    command[command.index("--out") + 1] = redone
    assert main(command) == code
    assert open(out, "rb").read() == open(redone, "rb").read()


def test_learn_manifest_config_holds_what_the_learner_used(tmp_path):
    # it held a basis and all six LearnOptions values, whatever the method read
    data = _gen(tmp_path, constraint="fixed:45", n=60, seed=9)
    defaults = LearnOptions()
    for method, flags, config in (
            ("nhat", (), {}),
            ("lambda", ("--features", "identity:2"), {"dim_b": None, "features": "identity:2"}),
            ("alpha", ("--num-basis", "6", "--max-iter", "3", "--dim-b", "1"),
             {"num_basis": 6, "dim_b": 1, "tol_fun": defaults.tol_fun, "tol_x": defaults.tol_x,
              "max_iter": 3, "num_restarts": defaults.num_restarts,
              "regularization": defaults.regularization}),
            ("ncl", ("--max-iter", "3", "--tol-x", "1e-06"),
             {"num_basis": 16, "tol_fun": defaults.tol_fun, "tol_x": 1e-6, "max_iter": 3,
              "regularization": defaults.regularization}),
            ("pi", ("--basis", "linear"),
             {"num_basis": None, "basis": "linear", "regularization": defaults.regularization}),
            ("pi-lwl", ("--regularization", "0.001"), {"num_basis": 10, "regularization": 0.001})):
        out = str(tmp_path / f"{method}.json")
        assert _run("learn", "--method", method, "--in", data, "--out", out, *flags) in (0, 2)
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["config"] == {"method": method, **config}, method
        assert manifest["seed"] == 0


@pytest.mark.parametrize("method,flag", [("pi", "--regularization"), ("ncl", "--tol-x"),
                                         ("ncl", "--tol-fun")])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_learn_rejects_non_finite_solver_options(tmp_path, capsys, method, flag, value):
    data = _gen(tmp_path, constraint="fixed:45", n=60, seed=9)
    out = str(tmp_path / "m.json")
    assert _run("learn", "--method", method, "--in", data, "--out", out, flag, value) == 1
    assert f"error: {flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_learn_help_lists_every_solver_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for f in fields(LearnOptions):
        flag = "--" + f.name.replace("_", "-")
        assert (flag in text) == (f.name != "rng_seed"), flag
    assert "--svd-threshold" not in text  # the projectors always truncate at 1e-8
    assert "--search-resolution" not in text  # each row is seeded in closed form
    assert len(fields(LearnOptions)) == 6  # five solver flags and the seed


def test_every_flag_a_learn_method_takes_is_a_learn_flag():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {flag for action in sub.choices["learn"]._actions for flag in action.option_strings}
    for method, (_, flags) in LEARNERS.items():
        assert set(flags) <= defined, method


def test_learn_rejects_the_removed_search_resolution_flag(tmp_path, capsys):
    data = _gen(tmp_path, constraint="fixed:30", n=60, seed=9)
    out = str(tmp_path / "nhat.json")
    assert _run("learn", "--method", "nhat", "--in", data, "--out", out,
                "--search-resolution", "90") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--search-resolution" in err
    assert "Traceback" not in err and not os.path.exists(out)


def test_ccl_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CCL_SEED", "99")
    out = str(tmp_path / "d.csv")
    assert _run("gen", "--constraint", "fixed:10", "--n", "50", "--out", out) == 0
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["seed"] == 99


def test_ccl_seed_env_not_an_integer_is_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CCL_SEED", "abc")
    out = tmp_path / "d.csv"
    assert _run("gen", "--constraint", "fixed:10", "--n", "50", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "CCL_SEED" in err
    assert not out.exists()


def test_explicit_seed_ignores_invalid_ccl_seed_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CCL_SEED", "abc")
    data = _gen(tmp_path, seed=3, n=50)
    assert json.loads(open(data + ".manifest.json").read())["seed"] == 3
    model = str(tmp_path / "m.json")
    assert _run("learn", "--method", "nhat", "--in", data, "--out", model,
                "--seed", "4") == 0
    assert json.loads(open(model + ".manifest.json").read())["seed"] == 4


def test_eval_does_not_read_ccl_seed(tmp_path, monkeypatch):
    data = _gen(tmp_path, seed=3, n=50)
    model = str(tmp_path / "m.json")
    assert _run("learn", "--method", "nhat", "--in", data, "--out", model) == 0
    monkeypatch.setenv("CCL_SEED", "abc")
    table = str(tmp_path / "t.csv")
    assert _run("eval", "--model", model, "--data", data, "--out", table) == 0
    assert json.loads(open(table + ".manifest.json").read())["seed"] is None


def test_learn_rejects_group_id_beyond_64_bits(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_text("x1,u1,u2,k\n0.0,1.0,0.0,0\n0.5,0.0,1.0,99999999999999999999\n")
    code = _run("learn", "--method", "nhat", "--in", str(data), "--out", str(tmp_path / "m.json"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3: group id '99999999999999999999'" in err


@pytest.mark.parametrize("name", ["toy-ncl", "toy-pi"])
def test_tutorial_reruns_byte_identical(tmp_path, name, capsys):
    outdir = str(tmp_path / "tut")
    assert _run("tutorial", name, "--seed", "7", "--outdir", outdir) in (0, 2)
    (stem, _, _, field), = TUTORIALS[name]
    written = _stage_paths("", stem, field)
    assert sorted(os.listdir(outdir)) == sorted(written + [f"{f}.manifest.json"
                                                           for f in written[:3]])
    first = {}
    for fname in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, fname), "rb") as fh:
            first[fname] = fh.read()
    assert _run("tutorial", name, "--seed", "7", "--outdir", outdir) in (0, 2)
    for fname, blob in first.items():
        with open(os.path.join(outdir, fname), "rb") as fh:
            again = fh.read()
        if fname.endswith(".manifest.json"):
            a = json.loads(blob)
            b = json.loads(again)
            a.pop("duration_s"), b.pop("duration_s")
            assert a == b, fname
        else:
            assert blob == again, fname


def test_tutorial_toy_constraint_prints_both_metric_sets(tmp_path, capsys):
    outdir = str(tmp_path / "tut")
    assert _run("tutorial", "toy-constraint", "--seed", "3",
                "--outdir", outdir) in (0, 2)
    out = capsys.readouterr().out
    assert out.count("NPOE") >= 2 and out.count("NPPE") >= 2
    assert os.path.exists(os.path.join(outdir, "linear_projector_field.csv"))
    assert os.path.exists(os.path.join(outdir, "parabolic_projector_field.csv"))


def test_tutorial_twolink(tmp_path, capsys):
    outdir = str(tmp_path / "tut")
    assert _run("tutorial", "twolink", "--seed", "4", "--outdir", outdir) in (0, 2)
    out = capsys.readouterr().out
    assert "NPOE" in out
    assert os.path.exists(os.path.join(outdir, "twolink_projector_field.csv"))
