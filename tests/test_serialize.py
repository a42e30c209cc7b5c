import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ccl.cli import main
from ccl.constraint import (FeatureMatrixProvider, StateDependentConstraintModel,
                            StateIndependentConstraint, identity_features, learn_alpha,
                            learn_lambda, learn_nhat, twolink_jacobian_features)
from ccl.core import LearnOptions
from ccl.datagen import GeneratorConfig, generate
from ccl.nullspace import NullspaceComponentModel, learn_ncl
from ccl.policy import LwlPolicyModel, ParametricPolicyModel, learn_pi, learn_pi_lwl
from ccl.serialize import MODEL_CLASSES, load_model, model_to_doc, save_model

# An alpha document as version-1 writers wrote it: declared sizes beside
# the arrays, a basis block, and placeholder output weights.
V1_ALPHA = """{"basis": {"centers": [[-0.05924753430403235, 0.5430952054072262, -0.48811841650480253],
                       [-0.6934115194349784, 0.3161649368068597, 0.4657496975778444]],
           "dim_out": 0, "dim_x": 2, "n_basis": 3, "weights": [], "width": 0.5889956932100403},
 "dim_b": 1, "dim_u": 2, "features": null, "kind": "alpha",
 "omegas": [[[1.3459551462150918, 1.9603684855033707, 0.427486875658689]]],
 "signs": [-1.0], "version": 1}"""


def _assert_exact(a, b):
    assert type(a) is type(b)
    assert np.array_equal(np.asarray(a), np.asarray(b))


def test_rbf_roundtrip_minimal(tmp_path):
    model = NullspaceComponentModel(centers=np.zeros((1, 1)), width=1.0, weights=[[0.0]])
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    _assert_exact(back.centers, model.centers)
    _assert_exact(back.weights, model.weights)
    assert back.width == model.width


def test_rbf_roundtrip_full_precision(tmp_path):
    rng = np.random.default_rng(0)
    model = NullspaceComponentModel(centers=rng.normal(size=(3, 7)) * np.pi,
                                    width=0.123456789123456789,
                                    weights=rng.normal(size=(2, 7)) / 3.0)
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    _assert_exact(back.centers, model.centers)
    _assert_exact(back.weights, model.weights)
    assert back.width == model.width


def test_nhat_roundtrip_single_row(tmp_path):
    model = StateIndependentConstraint(rows=[[np.cos(0.5236), np.sin(0.5236)]])
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert (back.dim_u, back.dim_b) == (2, 1)
    _assert_exact(back.rows, model.rows)


def test_nhat_roundtrip_multi_row(tmp_path):
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 4)))
    model = StateIndependentConstraint(rows=q.T[:2])
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    _assert_exact(back.rows, model.rows)
    _assert_exact(back.projector(), model.projector())


def test_alpha_roundtrip_preserves_projectors(tmp_path):
    cfg = GeneratorConfig(constraints=(("parabolic", 0.1),), n_per_group=300,
                          rng_seed=2)
    data = generate(cfg)
    model, _ = learn_alpha(data.actions, data.states,
                           LearnOptions(rng_seed=0, max_iter=150), num_basis=8)
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "alpha"
    assert sorted(json.loads(path.read_text())) == ["centers", "kind", "omegas", "signs",
                                                    "version", "width"]
    xs = data.states[:, :10]
    _assert_exact(back.constraint_stack(xs), model.constraint_stack(xs))


def test_lambda_roundtrip_restores_feature_provider(tmp_path):
    cfg = GeneratorConfig(system="twolink", policy="linear-attractor",
                          attractor_target=(0.8, 0.9),
                          constraints=(("jacobian-rows", (1,)),),
                          n_per_group=300, rng_seed=3)
    data = generate(cfg)
    model, _ = learn_lambda(data.actions, data.states, twolink_jacobian_features(1.0, 1.0))
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert back.features.name == "twolink-jacobian:1.0,1.0"
    assert sorted(json.loads(path.read_text())) == ["features", "kind", "rows", "version"]
    xs = data.states[:, :10]
    _assert_exact(back.rows, model.rows)
    _assert_exact(back.projector_stack(xs), model.projector_stack(xs))


def _v2_alpha_doc():
    """V1_ALPHA's model as a version-2 document: its fields."""
    v1 = json.loads(V1_ALPHA)
    return model_to_doc(StateDependentConstraintModel(
        omegas=tuple(v1["omegas"]), signs=tuple(v1["signs"]), centers=v1["basis"]["centers"],
        width=v1["basis"]["width"]))


def test_alpha_document_is_its_fields():
    doc = _v2_alpha_doc()
    v1 = json.loads(V1_ALPHA)
    assert doc == {"version": 2, "kind": "alpha", "omegas": v1["omegas"], "signs": v1["signs"],
                   "centers": v1["basis"]["centers"], "width": v1["basis"]["width"]}


def test_version_1_document_is_refused(tmp_path, capsys):
    old = tmp_path / "old.json"
    old.write_text(V1_ALPHA)
    message = ("unsupported model document version 1: only version 2 is read, "
               "so learn the model again")
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_model(old)
    data = tmp_path / "d.csv"
    data.write_text("x1,x2,u1,u2\n0.0,1.0,1.0,0.0\n0.5,0.5,0.0,1.0\n")
    assert main(["eval", "--model", str(old), "--data", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def _pooled_data():
    return generate(GeneratorConfig(constraints=(("fixed-angle", 0.0), ("fixed-angle", 60.0)),
                                    task_b=("sinusoid", 0.5, 3.0, 0.0),
                                    n_per_group=40, rng_seed=4))


# every model kind a learner writes, under the document kind it is saved as
_LEARNERS = {
    "nhat": ("nhat", lambda d, o: learn_nhat(d.actions)),
    "alpha": ("alpha", lambda d, o: learn_alpha(d.actions, d.states, o, num_basis=4)),
    "lambda": ("lambda", lambda d, o: learn_lambda(d.actions, d.states, identity_features(2))),
    "ncl": ("ncl", lambda d, o: learn_ncl(d.states, d.actions, o, num_basis=5)),
    "pi-rbf": ("pi-parametric", lambda d, o: learn_pi(d.states, d.actions, o, num_basis=4)),
    "pi-linear": ("pi-parametric", lambda d, o: learn_pi(d.states, d.actions, o, basis="linear")),
    "pi-lwl": ("pi-lwl", lambda d, o: learn_pi_lwl(d.states, d.actions, o, num_local=3)),
}


def _assert_roundtrip_byte_exact(model, tmp_path, kind, data):
    path, again = tmp_path / "m.json", tmp_path / "again.json"
    save_model(model, path)
    back = load_model(path)
    save_model(back, again)
    assert json.loads(path.read_text())["kind"] == kind
    assert again.read_bytes() == path.read_bytes()
    assert back.metrics(data) == model.metrics(data)


@pytest.mark.parametrize("name", sorted(_LEARNERS))
def test_learned_model_roundtrip_byte_exact(tmp_path, name):
    data = _pooled_data()
    kind, learn = _LEARNERS[name]
    model, _ = learn(data, LearnOptions(rng_seed=5, max_iter=40))
    _assert_roundtrip_byte_exact(model, tmp_path, kind, data)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "hologram", "version": 2}))
    with pytest.raises(ValueError, match="unknown model kind"):
        load_model(path)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "m.json"
    doc = model_to_doc(NullspaceComponentModel(centers=np.zeros((1, 1)), width=1.0,
                                               weights=np.zeros((1, 1))))
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_not_json_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("definitely: not json {")
    with pytest.raises(ValueError, match="not a valid model document"):
        load_model(path)


def test_missing_kind_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"version": 1}))
    with pytest.raises(ValueError, match="kind"):
        load_model(path)


def test_malformed_fields_rejected(tmp_path):
    path = tmp_path / "m.json"
    for field, value, message in (("omegas", 5, "kind 'alpha'.*malformed field"),
                                  ("signs", None, "kind 'alpha'.*malformed field"),
                                  ("dim_b", 1, "kind 'alpha'.* unknown field 'dim_b'")):
        doc = _v2_alpha_doc()
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_model(path)


def test_provider_without_a_registered_name_is_not_saved(tmp_path):
    # its document was written, and then refused by load_model
    mine = FeatureMatrixProvider(name="mine", dim_phi=2, dim_u=2,
                                 fn=lambda xs: np.broadcast_to(np.eye(2), (xs.shape[1], 2, 2)))
    model = StateIndependentConstraint(rows=[[1.0, 0.0]], features=mine)
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="unknown feature provider 'mine'"):
        save_model(model, path)
    assert not path.exists()


def test_huge_integer_width_is_refused_as_infinite(tmp_path):
    # float() of it raised an OverflowError, a traceback from ccl eval
    doc = _v2_alpha_doc()
    doc["width"] = 10 ** 400
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="width must be finite and > 0"):
        load_model(path)


def test_constructors_refuse_3d_centers_and_declared_sizes():
    # each was built and saved, and its document then refused on load (or,
    # for pi-lwl, loaded and failed in predict)
    centers = np.zeros((1, 2, 3))
    builds = {
        "ncl": lambda c: NullspaceComponentModel(centers=c, width=1.0, weights=np.zeros((2, 3))),
        "alpha": lambda c: StateDependentConstraintModel(omegas=(np.zeros((1, 3)),), signs=(1.0,),
                                                         centers=c, width=1.0),
        "pi-lwl": lambda c: LwlPolicyModel(local_maps=np.zeros((3, 2, 3)), centers=c, width=1.0),
    }
    for kind, build in builds.items():
        with pytest.raises(ValueError, match=r"^centers must have 2 non-empty axes, got shape "
                                             r"\(1, 2, 3\)$"):
            build(centers)
        assert build(centers[0]).kind == kind
    # a size is read off the arrays, never declared beside them
    with pytest.raises(TypeError, match="dim_u"):
        StateDependentConstraintModel(omegas=(np.zeros((1, 3)),), signs=(1.0,),
                                      centers=centers[0], width=1.0, dim_u=2.0)
    with pytest.raises(TypeError, match="dim_x"):
        ParametricPolicyModel(weights=np.zeros((2, 3)), dim_x=2)
    assert ParametricPolicyModel(weights=np.zeros((2, 3))).dim_x == 2


def test_policy_basis_is_centers_and_width_together():
    with pytest.raises(ValueError, match="both set"):
        ParametricPolicyModel(weights=np.zeros((2, 3)), centers=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="both set"):
        ParametricPolicyModel(weights=np.zeros((2, 3)), width=1.0)
    with pytest.raises(ValueError, match="dim_x \\+ 1 >= 2 columns"):
        ParametricPolicyModel(weights=np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# property: every model a constructor accepts round-trips byte-exact
# ---------------------------------------------------------------------------

_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included
_WIDTH = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
# the size that version-1 documents of each kind declared beside its arrays
_DECLARED_SIZE = {"nhat": "dim_b", "alpha": "dim_u", "ncl": "dim_out", "pi-parametric": "dim_x",
                  "pi-lwl": "n_local"}


def _random_fields(draw, kind):
    """(class, constructor fields, malformed) of a random model of ``kind``
    with finite parameters, dim_u in 2..6.  A draw is malformed ("axis"
    or "count") with an extra axis on one of its arrays, or a float or a
    bool where a count belongs: a former declared size, or the dimension
    in the name of a lambda model's feature provider."""
    def params(*shape):
        return draw(arrays(np.float64, shape, elements=_FINITE))

    def orthonormal_rows(dim_b):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        q, _ = np.linalg.qr(rng.normal(size=(dim_u, dim_u)))
        return q.T[:dim_b]

    dim_u = draw(st.integers(2, 6))
    dim_x, g = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if kind == "nhat":
        fields = dict(rows=orthonormal_rows(draw(st.integers(1, dim_u - 1))))
    elif kind == "lambda":
        # a selection may keep every feature row; a provider may be given by name
        fields = dict(rows=orthonormal_rows(draw(st.integers(1, dim_u))),
                      features=draw(st.sampled_from([identity_features(dim_u),
                                                     f"identity:{dim_u}"])))
    elif kind == "alpha":
        dim_b = draw(st.integers(1, dim_u - 1))
        fields = dict(omegas=tuple(params(dim_u - 1 - s, g) for s in range(dim_b)),
                      signs=tuple(draw(st.sampled_from([-1.0, 1.0])) for _ in range(dim_b)),
                      centers=params(dim_x, g), width=draw(_WIDTH))
    elif kind == "ncl":
        fields = dict(centers=params(dim_x, g), width=draw(_WIDTH), weights=params(dim_u, g))
    elif kind == "pi-parametric" and draw(st.booleans()):
        fields = dict(weights=params(dim_u, dim_x + 1))
    elif kind == "pi-parametric":
        fields = dict(weights=params(dim_u, g), centers=params(dim_x, g), width=draw(_WIDTH))
    else:
        assert kind == "pi-lwl"
        fields = dict(local_maps=params(g, dim_u, dim_x + 1), centers=params(dim_x, g),
                      width=draw(_WIDTH))

    def extra_axis(a):
        a = np.asarray(a)
        return np.expand_dims(a, draw(st.integers(0, a.ndim)))

    malformed = draw(st.sampled_from([None, "axis", "count"]))
    if malformed == "axis":
        name = draw(st.sampled_from(sorted(k for k, v in fields.items()
                                           if isinstance(v, (np.ndarray, tuple)))))
        if name == "omegas":  # one row's weight matrix
            s = draw(st.integers(0, len(fields[name]) - 1))
            fields[name] = tuple(extra_axis(om) if i == s else om
                                 for i, om in enumerate(fields[name]))
        else:
            fields[name] = extra_axis(fields[name])
    elif malformed == "count":
        count = draw(st.sampled_from([float(dim_u), True]))
        if kind == "lambda":
            fields["features"] = f"identity:{count}"
        else:
            fields[_DECLARED_SIZE[kind]] = count
    return MODEL_CLASSES[kind], fields, malformed


@pytest.mark.parametrize("kind", sorted(MODEL_CLASSES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_model_kind_roundtrips_byte_exact(kind, data):
    cls, fields, malformed = _random_fields(data.draw, kind)
    try:
        model = cls(**fields)
    except (TypeError, ValueError):
        if malformed is None:
            raise
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "m.json", Path(tmp) / "again.json"
        save_model(model, path)
        back = load_model(path)
        save_model(back, again)
        assert type(back) is type(model) and back.kind == kind
        assert again.read_bytes() == path.read_bytes()
