import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ccl.constraint import (StateDependentConstraintModel, StateIndependentConstraint,
                            identity_features, learn_alpha, learn_lambda, learn_nhat,
                            twolink_jacobian_features)
from ccl.core import LearnOptions
from ccl.datagen import GeneratorConfig, generate
from ccl.nullspace import NullspaceComponentModel, learn_ncl
from ccl.policy import LwlPolicyModel, ParametricPolicyModel, learn_pi, learn_pi_lwl
from ccl.serialize import MODEL_CLASSES, load_model, model_to_doc, save_model

# An alpha document as version-1 writers wrote it before the basis block
# lost its placeholder output weights ("dim_out": 0, "weights": []).
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


def test_nhat_roundtrip_single_angle(tmp_path):
    model = StateIndependentConstraint(angles=(np.array([0.5236]),), dim_u=2)
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert back.dim_u == 2
    assert np.array_equal(back.angles[0], model.angles[0])
    _assert_exact(back.rows(), model.rows())


def test_nhat_roundtrip_multi_row(tmp_path):
    rng = np.random.default_rng(1)
    model = StateIndependentConstraint(
        angles=(rng.uniform(0, np.pi, 3), rng.uniform(0, np.pi, 2)), dim_u=4)
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    _assert_exact(back.rows(), model.rows())


def test_alpha_roundtrip_preserves_projectors(tmp_path):
    cfg = GeneratorConfig(constraints=(("parabolic", 0.1),), n_per_group=300,
                          rng_seed=2)
    data = generate(cfg)
    model, _ = learn_alpha(data.actions, data.states,
                           LearnOptions(rng_seed=0, max_iter=150), num_basis=8)
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "alpha" and back.features is None
    assert sorted(json.loads(path.read_text())["basis"]) == ["centers", "dim_x", "n_basis", "width"]
    xs = data.states[:, :10]
    _assert_exact(back.constraint_stack(xs), model.constraint_stack(xs))


def test_lambda_roundtrip_restores_feature_provider(tmp_path):
    cfg = GeneratorConfig(system="twolink", policy="linear-attractor",
                          attractor_target=(0.8, 0.9),
                          constraints=(("jacobian-rows", (1,)),),
                          n_per_group=300, rng_seed=3)
    data = generate(cfg)
    model, _ = learn_lambda(data.actions, data.states,
                            twolink_jacobian_features(1.0, 1.0),
                            LearnOptions(rng_seed=0, max_iter=150), num_basis=8)
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert back.features.name == "twolink-jacobian:1.0,1.0"
    assert sorted(json.loads(path.read_text())["basis"]) == ["centers", "dim_x", "n_basis", "width"]
    xs = data.states[:, :10]
    _assert_exact(back.constraint_stack(xs), model.constraint_stack(xs))


def test_alpha_document_with_placeholder_weights_loads(tmp_path):
    old = tmp_path / "old.json"
    old.write_text(V1_ALPHA)
    model = load_model(old)
    new = tmp_path / "new.json"
    save_model(model, new)
    expected = json.loads(V1_ALPHA)
    del expected["basis"]["dim_out"], expected["basis"]["weights"]
    assert json.loads(new.read_text()) == expected
    xs = np.random.default_rng(6).uniform(-1, 1, (2, 20))
    _assert_exact(load_model(new).projector_stack(xs), model.projector_stack(xs))


def _pooled_data():
    return generate(GeneratorConfig(constraints=(("fixed-angle", 0.0), ("fixed-angle", 60.0)),
                                    task_b=("sinusoid", 0.5, 3.0, 0.0),
                                    n_per_group=40, rng_seed=4))


# every model kind a learner writes, under the document kind it is saved as
_LEARNERS = {
    "nhat": ("nhat", lambda d, o: learn_nhat(d.actions, o)),
    "alpha": ("alpha", lambda d, o: learn_alpha(d.actions, d.states, o, num_basis=4)),
    "lambda": ("lambda", lambda d, o: learn_lambda(d.actions, d.states, identity_features(2),
                                                   o, num_basis=4)),
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


def test_unknown_policy_features_rejected(tmp_path):
    data = _pooled_data()
    doc = model_to_doc(learn_pi(data.states, data.actions, basis="linear")[0])
    doc["features"] = "banana"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"^unknown features 'banana' \(use rbf \| linear\)$"):
        load_model(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "hologram", "version": 1}))
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
    for field, value, message in (("basis", 5, "kind 'alpha'.*malformed field"),
                                  ("signs", None, "kind 'alpha'.*malformed field"),
                                  ("dim_b", 2, "declares dim_b 2 but holds 1 rows")):
        doc = json.loads(V1_ALPHA)
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_model(path)


# ---------------------------------------------------------------------------
# property: every kind round-trips byte-exact over random parameters
# ---------------------------------------------------------------------------

_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included
_WIDTH = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


def _random_model(draw, kind):
    """A model of ``kind`` with random finite parameters, dim_u in 2..6."""
    def params(*shape):
        return draw(arrays(np.float64, shape, elements=_FINITE))

    dim_u = draw(st.integers(2, 6))
    dim_x, g = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if kind == "nhat":
        dim_b = draw(st.integers(1, dim_u - 1))
        return StateIndependentConstraint(
            angles=tuple(params(dim_u - 1 - s) for s in range(dim_b)), dim_u=dim_u)
    if kind in ("alpha", "lambda"):
        dim_b = draw(st.integers(1, dim_u - 1))
        return StateDependentConstraintModel(
            omegas=tuple(params(dim_u - 1 - s, g) for s in range(dim_b)),
            signs=tuple(draw(st.sampled_from([-1.0, 1.0])) for _ in range(dim_b)),
            centers=params(dim_x, g), width=draw(_WIDTH), dim_u=dim_u,
            features=identity_features(dim_u) if kind == "lambda" else None)
    if kind == "ncl":
        return NullspaceComponentModel(centers=params(dim_x, g), width=draw(_WIDTH),
                                       weights=params(dim_u, g))
    if kind == "pi-parametric":
        if draw(st.booleans()):
            return ParametricPolicyModel(weights=params(dim_u, dim_x + 1), dim_x=dim_x)
        return ParametricPolicyModel(weights=params(dim_u, g), dim_x=dim_x,
                                     centers=params(dim_x, g), width=draw(_WIDTH))
    assert kind == "pi-lwl"
    return LwlPolicyModel(local_maps=params(g, dim_u, dim_x + 1), centers=params(dim_x, g),
                          width=draw(_WIDTH))


@pytest.mark.parametrize("kind", sorted(MODEL_CLASSES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_model_kind_roundtrips_byte_exact(kind, data):
    model = _random_model(data.draw, kind)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "m.json", Path(tmp) / "again.json"
        save_model(model, path)
        back = load_model(path)
        save_model(back, again)
        assert type(back) is type(model) and back.kind == kind
        assert again.read_bytes() == path.read_bytes()
