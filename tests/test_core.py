import dataclasses
import os
import re
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccl import core
from ccl.constraint import learn_alpha, learn_lambda, learn_nhat, twolink_jacobian_features
from ccl.core import (GROUP_ID_MAX, GROUP_ID_MIN, _SAVE_BLOCK_ROWS, DemonstrationSet,
                      LearnOptions, LearnReport, load_dataset, save_dataset)
from ccl.datagen import GeneratorConfig, generate
from ccl.mathkit import kmeans_centers, rbf_design
from ccl.nullspace import NullspaceComponentModel, learn_ncl
from ccl.policy import learn_pi, learn_pi_lwl


# ---------------------------------------------------------------------------
# options / report / rbf container
# ---------------------------------------------------------------------------

def test_default_options_valid():
    opts = LearnOptions()
    assert opts.tol_fun == 1e-9 and opts.max_iter == 1000
    assert opts.num_restarts == 5


@pytest.mark.parametrize("kw", [
    {"tol_fun": 0.0}, {"tol_x": -1.0}, {"max_iter": 0},
    {"num_restarts": 0},
    {"regularization": -0.1}, {"rng_seed": -1}, {"rng_seed": 2 ** 64},
])
def test_options_bounds(kw):
    with pytest.raises(ValueError):
        LearnOptions(**kw)


@pytest.mark.parametrize("name", ["tol_fun", "tol_x", "regularization"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_options_float_fields_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        LearnOptions(**{name: value})


@pytest.mark.parametrize("name", ["max_iter", "num_restarts", "rng_seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "7"])
def test_options_count_fields_must_be_integers(name, value):
    with pytest.raises(TypeError, match=f"{name} must be an integer, not"):
        LearnOptions(**{name: value})


@pytest.mark.parametrize("name", ["tol_fun", "tol_x", "regularization"])
@pytest.mark.parametrize("value", [True, "1e-3", None])
def test_options_float_fields_must_be_real_numbers(name, value):
    with pytest.raises(TypeError, match=f"{name} must be a real number, not"):
        LearnOptions(**{name: value})


def test_options_take_numpy_scalars_and_ints_for_floats():
    opts = LearnOptions(rng_seed=np.int64(7), max_iter=np.int32(5), tol_fun=1,
                        regularization=np.float64(0.5))
    assert (opts.rng_seed, opts.max_iter, opts.tol_fun, opts.regularization) == (7, 5, 1, 0.5)


_SETTING_DATA = generate(GeneratorConfig(constraints=("parabolic:0.1",), n_per_group=20))
_XS, _U = _SETTING_DATA.states, _SETTING_DATA.actions
# every number a user sets, as "where.name": (a call that sets it to a value,
# whether it is an integer, its bounds: >= ge, > gt, <= le)
_SETTINGS = {
    "LearnOptions.tol_fun": (lambda v: LearnOptions(tol_fun=v), False, dict(gt=0)),
    "LearnOptions.tol_x": (lambda v: LearnOptions(tol_x=v), False, dict(gt=0)),
    "LearnOptions.max_iter": (lambda v: LearnOptions(max_iter=v), True, dict(ge=1)),
    "LearnOptions.num_restarts": (lambda v: LearnOptions(num_restarts=v), True, dict(ge=1)),
    "LearnOptions.regularization": (lambda v: LearnOptions(regularization=v), False, dict(ge=0)),
    "LearnOptions.rng_seed": (lambda v: LearnOptions(rng_seed=v), True,
                              dict(ge=0, le=2 ** 64 - 1)),
    "GeneratorConfig.n_per_group": (lambda v: GeneratorConfig(n_per_group=v), True, dict(ge=1)),
    "GeneratorConfig.rng_seed": (lambda v: GeneratorConfig(rng_seed=v), True, dict(ge=0)),
    "GeneratorConfig.noise_std": (lambda v: GeneratorConfig(noise_std=v), False, dict(ge=0)),
    "NullspaceComponentModel.width": (
        lambda v: NullspaceComponentModel(centers=np.zeros((2, 3)), width=v,
                                          weights=np.ones((2, 3))), False, dict(gt=0)),
    "rbf_design.width": (lambda v: rbf_design(_XS, np.zeros((2, 3)), v), False, dict(gt=0)),
    "kmeans_centers.n_centers": (lambda v: kmeans_centers(_XS, v), True, dict(ge=1, le=20)),
    "learn_alpha.num_basis": (lambda v: learn_alpha(_U, _XS, num_basis=v), True,
                              dict(ge=1, le=20)),
    "learn_alpha.dim_b": (lambda v: learn_alpha(_U, _XS, dim_b=v), True, dict(ge=1, le=2)),
    "learn_lambda.dim_b": (lambda v: learn_lambda(_U, _XS, twolink_jacobian_features(), dim_b=v),
                           True, dict(ge=1, le=2)),
    "learn_ncl.num_basis": (lambda v: learn_ncl(_XS, _U, num_basis=v), True, dict(ge=1, le=20)),
    "learn_pi.num_basis": (lambda v: learn_pi(_XS, _U, num_basis=v), True, dict(ge=1, le=20)),
    "learn_pi(linear).num_basis": (lambda v: learn_pi(_XS, _U, num_basis=v, basis="linear"),
                                   True, dict(ge=1)),
    "learn_pi_lwl.num_local": (lambda v: learn_pi_lwl(_XS, _U, num_local=v), True,
                               dict(ge=1, le=20)),
}


def _refused(integer, ge=None, gt=None, le=None):
    """Values a setting refuses, each with the error it raises: a bool, a
    string, a float where an integer is due, a non-finite or huge value
    where a real number is, and one out of bounds (an integer setting's
    bounds are ge and le, a real setting's ge or gt)."""
    wrong = [st.sampled_from([True, False, np.True_]), st.text(max_size=3),
             st.integers().map(str)]
    bad = []
    if integer:
        wrong.append(st.floats())
        bad.append(st.integers(max_value=ge - 1))
        if le is not None:
            bad += [st.integers(min_value=le + 1), st.just(10 ** 400)]
    else:
        huge = int(sys.float_info.max) + 1
        bad += [st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(min_value=huge),
                st.integers(max_value=-huge)]
        if gt is not None:
            bad.append(st.floats(max_value=gt, allow_nan=False))
        if ge is not None:
            bad.append(st.floats(max_value=ge, allow_nan=False).filter(lambda v: v < ge))
    return st.one_of(*(s.map(lambda v: (v, TypeError)) for s in wrong),
                     *(s.map(lambda v: (v, ValueError)) for s in bad))


@pytest.mark.parametrize("setting", _SETTINGS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_number_a_user_sets_refuses_a_bad_value_by_name(setting, data):
    build, integer, bounds = _SETTINGS[setting]
    value, error = data.draw(_refused(integer, **bounds), label="value")
    with pytest.raises(error, match=f"^{setting.rpartition('.')[2]} must be "):
        build(value)


@pytest.mark.parametrize("value, bits", [(10 ** 5000, 16610), (-10 ** 5000, 16610),
                                         (2 ** 64, 65)], ids=["1e5000", "-1e5000", "2**64"])
def test_a_refused_integer_of_more_than_64_bits_is_worded_by_its_bit_count(value, bits):
    # Python refuses to print an integer of more than 4300 digits
    bound = ">= 0" if value < 0 else "<= 18446744073709551615"
    with pytest.raises(ValueError, match=f"^rng_seed must be {bound}, got an integer of "
                                         f"{bits} bits$"):
        LearnOptions(rng_seed=value)


@pytest.mark.parametrize("build, name", [
    (lambda: GeneratorConfig(attractor_gain=((1.0, 0.0), (0.0,))), "attractor_gain"),
    (lambda: NullspaceComponentModel(centers=np.zeros((2, 1)), width=1.0,
                                     weights=[[1.0], []]), "weights"),
], ids=["GeneratorConfig", "NullspaceComponentModel"])
def test_a_ragged_array_field_is_refused_by_name(build, name):
    with pytest.raises(ValueError, match=f"^{name} is ragged: its nested sequences differ "
                                         f"in length$"):
        build()


def test_report_nmse_consistency():
    rep = LearnReport.from_errors(mse=2.0, variance=4.0, iterations=1,
                                  final_objective=2.0, converged=True, reason="fun-tol")
    assert rep.nmse == pytest.approx(0.5)
    with pytest.raises(ValueError):
        LearnReport(nmse=0.9, mse=2.0, variance=4.0, iterations=1,
                    final_objective=2.0, converged=True, reason="fun-tol")
    with pytest.raises(ValueError):
        LearnReport(nmse=0.5, mse=2.0, variance=4.0, iterations=1,
                    final_objective=2.0, converged=True, reason="bogus")
    for reason in ("fun-tol", "x-tol"):
        with pytest.raises(ValueError, match="did not converge"):
            LearnReport.from_errors(mse=2.0, variance=4.0, iterations=1,
                                    final_objective=2.0, converged=False, reason=reason)


@pytest.mark.parametrize("reason", core.UNCONVERGED_REASONS)
def test_report_refuses_a_converged_fit_that_stopped_unconverged(reason):
    # a report could claim convergence at max-iter
    with pytest.raises(ValueError, match=f"^a fit that converged cannot stop at '{reason}'$"):
        LearnReport.from_errors(mse=2.0, variance=4.0, iterations=10,
                                final_objective=2.0, converged=True, reason=reason)


def test_report_accepts_abandoned_for_a_fit_that_did_not_converge():
    rep = LearnReport.from_errors(mse=2.0, variance=4.0, iterations=10,
                                  final_objective=2.0, converged=False, reason="abandoned")
    assert rep.reason == "abandoned"


def test_report_closed_form_only_when_converged():
    rep = LearnReport.from_errors(mse=2.0, variance=4.0, iterations=0,
                                  final_objective=2.0, converged=True, reason="closed-form")
    assert rep.reason == "closed-form"
    with pytest.raises(ValueError, match="did not converge"):
        LearnReport.from_errors(mse=2.0, variance=4.0, iterations=0,
                                final_objective=2.0, converged=False, reason="closed-form")


def test_report_closed_form_runs_no_iterations():
    with pytest.raises(ValueError, match="no iterations"):
        LearnReport.from_errors(mse=2.0, variance=4.0, iterations=1,
                                final_objective=2.0, converged=True, reason="closed-form")


def test_rbf_model_invariants():
    model = NullspaceComponentModel(centers=np.zeros((2, 3)), width=0.5, weights=np.ones((2, 3)))
    assert model.centers.shape == (2, 3) and model.weights.shape == (2, 3)
    with pytest.raises(ValueError):
        NullspaceComponentModel(centers=np.zeros((2, 3)), width=0.0, weights=np.ones((2, 3)))
    with pytest.raises(ValueError):
        NullspaceComponentModel(centers=np.zeros((2, 3)), width=1.0, weights=np.ones((2, 2)))
    with pytest.raises(ValueError):
        NullspaceComponentModel(centers=np.full((2, 3), np.nan), width=1.0,
                                weights=np.ones((2, 3)))


# every learner as (states, actions) -> fit, and the name of its action argument
_LEARNERS = {
    "nhat": (lambda xs, u: learn_nhat(u), "observations"),
    "alpha": (lambda xs, u: learn_alpha(u, xs, num_basis=6), "observations"),
    "lambda": (lambda xs, u: learn_lambda(u, xs, twolink_jacobian_features()), "observations"),
    "ncl": (lambda xs, u: learn_ncl(xs, u, num_basis=6), "actions"),
    "pi": (lambda xs, u: learn_pi(xs, u, num_basis=6), "actions"),
    "pi-lwl": (lambda xs, u: learn_pi_lwl(xs, u, num_local=6), "actions"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("method,argument", [
    (method, argument) for method in _LEARNERS for argument in ("actions", "states")
    if (method, argument) != ("nhat", "states")])  # nhat takes no states
def test_learners_reject_non_finite_arguments_by_name(method, argument, bad):
    data = generate(GeneratorConfig(constraints=("fixed:30.0",), n_per_group=40))
    xs, u = np.array(data.states), np.array(data.actions)
    (u if argument == "actions" else xs)[1, 7] = bad
    fit, action_name = _LEARNERS[method]
    name = action_name if argument == "actions" else "states"
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        fit(xs, u)


# ---------------------------------------------------------------------------
# demonstration sets
# ---------------------------------------------------------------------------

def _toy_set(n=10, with_channels=False):
    rng = np.random.default_rng(0)
    kw = {}
    if with_channels:
        kw = dict(policy=rng.normal(size=(2, n)),
                  task_component=rng.normal(size=(2, n)),
                  null_component=rng.normal(size=(2, n)))
    return DemonstrationSet(states=rng.normal(size=(2, n)),
                            actions=rng.normal(size=(2, n)),
                            group_ids=np.arange(n) % 2, **kw)


def test_dataset_basic_properties():
    data = _toy_set(10)
    assert data.dim_x == 2 and data.dim_u == 2
    assert data.n_samples == 10 and data.n_groups == 2
    assert len(data.group_indices(1)) == 5
    assert not data.states.flags.writeable


def test_containers_are_read_only():
    data = _toy_set(6)
    model = NullspaceComponentModel(centers=np.zeros((2, 3)), width=0.5, weights=np.ones((2, 3)))
    for arr in (data.states, data.actions, data.group_ids,
                model.centers, model.weights):
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_dataset_rejects_mismatched_counts():
    with pytest.raises(ValueError):
        DemonstrationSet(states=np.zeros((2, 5)), actions=np.zeros((2, 4)))


def test_dataset_rejects_sparse_group_ids():
    with pytest.raises(ValueError):
        DemonstrationSet(states=np.zeros((2, 4)), actions=np.zeros((2, 4)),
                         group_ids=[0, 2, 0, 2])


def test_dataset_rejects_non_integral_group_ids():
    with pytest.raises(ValueError, match="integers"):
        DemonstrationSet(states=np.zeros((2, 2)), actions=np.zeros((2, 2)),
                         group_ids=[0.0, 0.7])
    with pytest.raises(ValueError, match="integers"):
        DemonstrationSet(states=np.zeros((2, 2)), actions=np.zeros((2, 2)),
                         group_ids=[0.0, np.nan])
    # integral floats name the same groups as their integers
    data = DemonstrationSet(states=np.zeros((2, 2)), actions=np.zeros((2, 2)),
                            group_ids=[1.0, 0.0])
    assert list(data.group_ids) == [1, 0] and data.n_groups == 2


def test_dataset_rejects_non_finite():
    states = np.zeros((2, 3))
    actions = np.zeros((2, 3))
    actions[1, 2] = np.nan
    with pytest.raises(ValueError):
        DemonstrationSet(states=states, actions=actions)


def test_dataset_subset_and_split():
    data = _toy_set(20, with_channels=True)
    sub = data.subset([0, 3, 5])
    assert sub.n_samples == 3
    assert np.allclose(sub.actions, data.actions[:, [0, 3, 5]])


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_dataset_roundtrip_exact(tmp_path):
    data = _toy_set(17, with_channels=True)
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    back = load_dataset(path)
    assert np.array_equal(back.states, data.states)
    assert np.array_equal(back.actions, data.actions)
    assert np.array_equal(back.group_ids, data.group_ids)
    assert np.array_equal(back.policy, data.policy)
    assert np.array_equal(back.task_component, data.task_component)
    assert np.array_equal(back.null_component, data.null_component)


def test_load_ignores_a_leading_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    save_dataset(_toy_set(9, with_channels=True), plain)
    marked.write_bytes("\ufeff".encode("utf-8") + plain.read_bytes())
    a, b = load_dataset(plain), load_dataset(marked)
    for name in ("states", "actions", "group_ids", "policy", "task_component", "null_component"):
        assert np.array_equal(getattr(b, name), getattr(a, name)), name


def test_load_four_column_file_defaults_to_single_group(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,u1,u2\n0.0,1.0,2.0,3.0\n4.0,5.0,6.0,7.0\n")
    data = load_dataset(path)
    assert (data.dim_x, data.dim_u) == (2, 2)
    assert data.n_groups == 1
    assert data.n_samples == 2


def test_load_remaps_groups_dense(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,u1,k\n0.0,1.0,0\n0.5,2.0,2\n0.25,3.0,0\n")
    data = load_dataset(path)
    assert data.n_groups == 2
    assert list(data.group_ids) == [0, 1, 0]


def test_load_rejects_non_numeric_naming_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,u1\n0.0,1.0\n0.5,oops\n")
    with pytest.raises(ValueError, match="line 3"):
        load_dataset(path)


def test_load_rejects_non_finite_naming_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,u1\n0.0,1.0\n0.5,nan\n")
    with pytest.raises(ValueError, match="line 3"):
        load_dataset(path)


def test_load_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,u1\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(path)


def test_load_rejects_unknown_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,q1,u1\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError):
        load_dataset(path)


@pytest.mark.parametrize("text, message", [
    ("", ": empty dataset file"),
    ("x1,k\n0.0,0\n", " line 1: header must declare x* and u* columns"),
    ("x1,x3,u1\n0.0,1.0,2.0\n",
     " line 1: unrecognized or out-of-order columns in header: ['x1', 'x3', 'u1']"),
    ("u1,x1\n0.0,1.0\n", " line 1: unrecognized or out-of-order columns in header: ['u1', 'x1']"),
    ("x1,u1,u2,pi1\n0.0,1.0,2.0,3.0\n", " line 1: pi* channel must have dim_u=2 columns, got 1"),
    ("\ufeffx1,u1,q1\n0.0,1.0,2.0\n",
     " line 1: unrecognized or out-of-order columns in header: ['x1', 'u1', 'q1']"),
], ids=["empty", "no-x-or-u", "gap", "out-of-order", "pi-width", "byte-order-mark"])
def test_malformed_header_is_named(tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    assert str(exc.value) == f"{path}{message}"


def test_fuzzed_invalid_files_rejected(tmp_path):
    rng = np.random.default_rng(22)
    base_header = "x1,x2,u1,u2,k"
    good_row = lambda: ",".join(repr(float(v)) for v in rng.normal(size=4)) + ",0"
    corruptions = [
        lambda rows: rows[:1] + ["1.0,2.0,3.0"],            # short row
        lambda rows: rows[:1] + [good_row() + ",9.0"],       # long row
        lambda rows: rows[:1] + [good_row().replace("0", "zero", 1)],
        lambda rows: [r.replace(",4", ",inf", 1) if i == 1 else r
                      for i, r in enumerate(rows)],
    ]
    for trial in range(12):
        rows = [good_row() for _ in range(4)]
        corrupted = corruptions[trial % len(corruptions)](rows)
        path = tmp_path / f"bad{trial}.csv"
        path.write_text(base_header + "\n" + "\n".join(corrupted) + "\n")
        try:
            data = load_dataset(path)
        except ValueError:
            continue
        # if a mutation happened to stay parseable, the result must still
        # satisfy every container invariant
        assert np.isfinite(data.states).all() and np.isfinite(data.actions).all()


def test_fuzzed_roundtrip_preserves_invariants(tmp_path):
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(1, min(n, 4) + 1))
        gids = rng.integers(0, k, size=n)
        gids[:k] = np.arange(k)  # ensure density
        data = DemonstrationSet(
            states=rng.normal(size=(int(rng.integers(1, 4)), n)),
            actions=rng.normal(size=(int(rng.integers(1, 4)), n)),
            group_ids=gids)
        path = tmp_path / f"f{trial}.csv"
        save_dataset(data, path)
        back = load_dataset(path)
        assert back.n_samples == n and back.n_groups == k
        assert np.array_equal(back.states, data.states)


# ---------------------------------------------------------------------------
# text format properties
# ---------------------------------------------------------------------------

# edge values of the exact repr round trip: signed zero, subnormals, the
# largest magnitudes and integral floats (written as "3.0", not "3")
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e16]
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_FLOATS),
                    st.integers(-10 ** 6, 10 ** 6).map(float))


@st.composite
def _demonstration_sets(draw, values=_FLOATS, max_n=10):
    dim_x, dim_u = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, max_n))
    gids = draw(st.permutations(list(range(k)) + draw(
        st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))))
    block = lambda rows: np.array(draw(st.lists(
        values, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    channels = {name: block(dim_u) if draw(st.booleans()) else None
                for name in ("policy", "task_component", "null_component")}
    return DemonstrationSet(states=block(dim_x), actions=block(dim_u),
                            group_ids=gids, **channels)


def _reference_rows(data):
    """Data rows as the original per-sample writer formatted them."""
    stacked = np.vstack([ch for ch in (data.states, data.actions, data.policy,
                                       data.task_component, data.null_component)
                         if ch is not None])
    return [",".join([repr(float(v)) for v in stacked[:, n]] + [str(int(data.group_ids[n]))])
            for n in range(data.n_samples)]


@settings(max_examples=80, deadline=None)
@given(_demonstration_sets())
def test_codec_roundtrip_is_byte_and_bit_exact(data):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        save_dataset(data, first)
        back = load_dataset(first)
        save_dataset(back, second)
        text = open(first).read()
        assert open(second).read() == text
    assert text.splitlines()[1:] == _reference_rows(data)
    for name in ("states", "actions", "group_ids", "policy", "task_component", "null_component"):
        a, b = getattr(data, name), getattr(back, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# a small pool, so values repeat within rows, across rows and across blocks:
# signed zeros (equal as floats, distinct as bits), the smallest subnormal,
# neighbouring large integral floats and short decimals
_REPEATED_FLOATS = [0.0, -0.0, 5e-324, 1e16, 9999999999999998.0, 1e-05, 0.0001, 1 / 3]


@st.composite
def _repeating_sets(draw):
    data = draw(_demonstration_sets(st.sampled_from(_REPEATED_FLOATS), max_n=12))
    if not draw(st.booleans()):
        return data
    # the pooled data's aliased channels: w is u and v is all zero
    return dataclasses.replace(data, task_component=np.zeros_like(data.actions),
                               null_component=data.actions)


@settings(max_examples=150, deadline=None)
@given(_repeating_sets(), st.integers(1, 4))
def test_save_formats_repeated_values_as_the_per_sample_writer(data, block_rows):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_SAVE_BLOCK_ROWS", block_rows)
        path = os.path.join(tmp, "d.csv")
        save_dataset(data, path)
        assert open(path).read().splitlines()[1:] == _reference_rows(data)


def _numpy_float(token):
    """float(token) where numpy's reader reads the token as a number, else
    None: it takes what float takes, but only ASCII text with no digit
    separators once the surrounding whitespace is stripped."""
    text = token.strip()
    if not text.isascii() or "_" in text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _numpy_int(token):
    """The group id token as numpy's reader reads a 64-bit integer: "not an
    integer" unless it is an optional sign and ASCII digits once stripped,
    "out of range" beyond 64 bits."""
    text = token.strip()
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        return "not an integer"
    return int(text) if GROUP_ID_MIN <= int(text) <= GROUP_ID_MAX else "out of range"


def _reference_row_error(path, lines, expected, has_k, parsed=None):
    """The original loader's per-row validation loop, deciding tokens as
    numpy's reader does: the reference for which line an error names and
    which check it reports.  When a list is passed as parsed, each accepted
    row's (values, group id) is appended."""
    rows = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split(",")
        if len(tokens) != expected:
            return f"{path} line {lineno}: expected {expected} columns, got {len(tokens)}"
        values = [_numpy_float(t) for t in (tokens[:-1] if has_k else tokens)]
        if None in values:
            return f"{path} line {lineno}: non-numeric token"
        if not np.all(np.isfinite(values)):
            return f"{path} line {lineno}: non-finite value"
        gid = None
        if has_k:
            gid = _numpy_int(tokens[-1])
            if isinstance(gid, str):
                return f"{path} line {lineno}: group id {tokens[-1].strip()!r} is {gid}"
        if parsed is not None:
            parsed.append((values, gid))
        rows += 1
    return None if rows else f"{path}: no data rows"


# non-numeric tokens (the last two read by float alone), then non-finite
# ones (an overflow such as 1e400 reads as inf)
_BAD_VALUES = ["oops", "1.0.0", "", " ", "0x10", "1e", "1_000", "\u0661\u0662",
               "nan", "inf", "-inf", " NaN ", "1e400", "-Infinity"]
_BAD_GROUP_IDS = ["0.5", "a", "", "1e3", "nan", "1.0", "1_0", "\u0661",
                  "9223372036854775808", "-9223372036854775809"]


@st.composite
def _corrupted_files(draw):
    dim_x, dim_u = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    has_k = draw(st.booleans())
    n_values = dim_x + dim_u
    header = ",".join([f"x{i + 1}" for i in range(dim_x)] + [f"u{i + 1}" for i in range(dim_u)]
                      + (["k"] if has_k else []))
    n = draw(st.integers(1, 5))
    rows = [[repr(draw(_FLOATS)) for _ in range(n_values)] + ([str(i % 2)] if has_k else [])
            for i in range(n)]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["short", "long", "value", "group-id"]))
        if kind == "short":
            rows[i] = rows[i][:-1]
        elif kind == "long":
            rows[i] = rows[i] + ["1.0"]
        elif kind == "value":
            col = draw(st.integers(0, n_values - 1))
            rows[i] = rows[i][:col] + [draw(st.sampled_from(_BAD_VALUES))] + rows[i][col + 1:]
        else:
            rows[i] = rows[i][:-1] + [draw(st.sampled_from(_BAD_GROUP_IDS))]
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t  "])))
    return [header] + lines, n_values + has_k, has_k


@settings(max_examples=300, deadline=None)
@given(_corrupted_files())
# within a line: count, then non-numeric, then non-finite, then group id;
# across lines the earliest failing line wins whatever its check
@example((["x1,u1,k", "nan,0.0,0.5", "0.0,0.0,0"], 3, True))
@example((["x1,u1,k", "oops,inf,0", "0.0,0.0,0"], 3, True))
@example((["x1,u1,k", "0.0,0.0,0", "inf,oops,0"], 3, True))
@example((["x1,u1,k", "1.0,inf,0", "", "0.0,0.0"], 3, True))
@example((["x1,u1,k", "1.0,2.0,0", " ", "0.0,0.0,a", "0.0,-inf,0"], 3, True))
@example((["x1,u1", "1.0,2.0", "\t", "1e400,1.0", "x,1.0"], 2, False))
@example((["x1,u1", "", " "], 2, False))
def test_load_errors_match_per_row_reference(case):
    lines, expected, has_k = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        message = _reference_row_error(path, lines, expected, has_k)
        if message is None:
            assert load_dataset(path).n_samples == sum(1 for l in lines[1:] if l.strip())
        else:
            with pytest.raises(ValueError) as exc:
                load_dataset(path)
            assert str(exc.value) == message


# tokens numpy's reader reads: padding of any whitespace, signs and leading zeros
_SHARED_LINES = ["x1,u1,k", "\xa01.5, +3 ,00012", "", "00012,-0.0, -7 ", "5e-324,1e308,0"]


def test_shared_lines_load_as_the_reference_bit_for_bit(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("\n".join(_SHARED_LINES) + "\n", encoding="utf-8")
    parsed = []
    assert _reference_row_error(path, _SHARED_LINES, 3, True, parsed) is None
    data = load_dataset(path)
    values = np.array([v for v, _ in parsed])
    assert data.states.tobytes() == np.ascontiguousarray(values[:, :1].T).tobytes()
    assert data.actions.tobytes() == np.ascontiguousarray(values[:, 1:].T).tobytes()
    _, dense = np.unique([g for _, g in parsed], return_inverse=True)
    assert np.array_equal(data.group_ids, dense)
    assert data.n_samples == len(parsed) == 3


# inputs only Python's float and int read, and rows joined by a character
# at which str.splitlines breaks a line but text mode does not
@pytest.mark.parametrize("body, message", [
    ("0.5,1.0,0\n1_000,0.5,0\n", "line 3: non-numeric token"),
    ("0.5,\u0661\u0662,0\n", "line 2: non-numeric token"),
    ("0.5,1.0,0\n0.5,1.0,\u0661\n", "line 3: group id '\u0661' is not an integer"),
    ("0.5,1.0,0\n1.0,2.0,0\x0c3.0,4.0,1\n", "line 3: expected 3 columns, got 5"),
], ids=["digit-separator", "non-ascii-digits", "non-ascii-group-id", "form-feed-join"])
def test_tokens_and_breaks_only_python_reads_are_refused_naming_their_line(
        tmp_path, body, message):
    path = tmp_path / "d.csv"
    path.write_text("x1,u1,k\n" + body, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    assert str(exc.value) == f"{path} {message}"


@pytest.mark.parametrize("body", ["", "\n\n\n", " \n\t  \n"])
def test_file_without_rows_names_no_data_rows_and_warns_nothing(tmp_path, body):
    path = tmp_path / "d.csv"
    path.write_text("x1,u1,k\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            load_dataset(path)
    assert str(exc.value) == f"{path}: no data rows"


@pytest.mark.parametrize("text, line, byte", [
    (b"x1,u1,k\n0.5,1.0,0\n0.5,\xff,0\n", 3, "ff"),
    (b"x1,u\xff1,k\n0.5,1.0,0\n", 1, "ff"),
    # past the first chunk text mode decodes, after lines ended by CR and CRLF
    (b"x1,u1,k\r" + b"0.5,1.0,0\r\n" * 2000 + b"0.5,1.0,0\r1.0,\xe2\x82,0\n", 2003, "e2"),
    (b"x1,u1,k\n0.5,1.0,0\n0.5,1.0,0\xc3", 3, "c3"),
], ids=["data-line", "header", "after-chunks", "cut-at-the-end"])
def test_a_byte_that_does_not_decode_names_its_line(tmp_path, text, line, byte):
    path = tmp_path / "d.csv"
    path.write_bytes(text)
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    assert str(exc.value) == f"{path} line {line}: 'utf-8' codec can't decode byte 0x{byte}"


def test_the_error_scan_reads_the_file_a_logarithmic_number_of_times(tmp_path, monkeypatch):
    n = 4096
    path = tmp_path / "d.csv"
    path.write_text("x1,u1,k\n" + "0.5,1.0,0\n" * (n - 1) + "0.5,1.0\n")
    calls = []
    read = core._read
    monkeypatch.setattr(core, "_read", lambda lines, *a: calls.append(1) or read(lines, *a))
    with pytest.raises(ValueError, match=f"line {n + 1}: expected 3 columns, got 2$"):
        load_dataset(path)
    # the whole file once, log2(n) halvings, and the reads that word the message
    assert len(calls) <= 1 + n.bit_length() + 3, len(calls)


# ---------------------------------------------------------------------------
# streaming: bounded memory, and the lines the whole-file reader would see
# ---------------------------------------------------------------------------

def _traced_peak(fn):
    """Peak of the memory Python and numpy allocate while fn runs, above
    what is allocated when it starts."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_codec_peak_memory_is_bounded_by_the_float_table(tmp_path):
    # the pooled limit-cycle file of the benchmark, at 3 x 34000 rows: the
    # whole-table writer and the whole-file reader held 5.3x and 4.6x
    data = generate(GeneratorConfig(constraints=("fixed:0.0", "fixed:60.0",
                                                 "fixed:120.0"), n_per_group=34000))
    # the doubles of its float columns: x, u and the pi, v, w channels
    table_bytes = 8 * data.n_samples * (data.dim_x + 4 * data.dim_u)
    path = tmp_path / "pooled.csv"
    _, save_peak = _traced_peak(lambda: save_dataset(data, path))
    back, load_peak = _traced_peak(lambda: load_dataset(path))
    assert back.states.tobytes() == data.states.tobytes()
    assert save_peak <= 1.5 * table_bytes, save_peak / table_bytes
    assert load_peak <= 2.5 * table_bytes, load_peak / table_bytes


def test_save_formats_every_block_as_the_per_sample_writer(tmp_path):
    rng = np.random.default_rng(4)
    n = 2 * _SAVE_BLOCK_ROWS + 3
    data = DemonstrationSet(states=rng.normal(size=(2, n)), actions=rng.normal(size=(3, n)),
                            group_ids=np.arange(n) % 5, null_component=rng.normal(size=(3, n)))
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    assert path.read_text().splitlines()[1:] == _reference_rows(data)


# characters at which str.splitlines breaks a line and text mode does not:
# each stays inside its line, where numpy's reader takes several of them
# for whitespace next to a number
_OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_BREAK_FILES = {
    "inside-a-row": "x1,u1,k\n1.0,{c}2.0,0\n3.0,4.0,1\n",
    "before-a-group-id": "x1,u1,k\n1.0,2.0,{c}0\n",
    "between-rows": "x1,u1,k\n1.0,2.0,0{c}3.0,4.0,1\n",
    "ending-a-row": "x1,u1,k\n1.0,2.0,0{c}\n3.0,4.0,1\n",
    "ending-the-header": "x1,u1,k{c}1.0,2.0,0\n",
    "inside-the-header": "x1,u1{c}k\n1.0,2.0\n",
    "alone": "x1,u1\n{c}\n1.0,2.0\n",
}


def _load_as_reference(path, lines):
    """Check that the dataset file at path, whose text-mode lines are
    lines, fails with the reference's message or loads its rows bit for
    bit."""
    names = lines[0].split(",")
    dim_x = sum(name.startswith("x") for name in names)
    parsed = []
    message = _reference_row_error(path, lines, len(names), names[-1] == "k", parsed)
    if message is not None:
        with pytest.raises(ValueError) as exc:
            load_dataset(path)
        assert str(exc.value) == message
        return
    data = load_dataset(path)
    values = np.array([v for v, _ in parsed])
    assert data.states.tobytes() == np.ascontiguousarray(values[:, :dim_x].T).tobytes()
    assert data.actions.tobytes() == np.ascontiguousarray(values[:, dim_x:].T).tobytes()
    assert data.n_samples == len(parsed)


@pytest.mark.parametrize("char", _OTHER_BREAKS, ids=[f"U+{ord(c):04X}" for c in _OTHER_BREAKS])
@pytest.mark.parametrize("layout", sorted(_BREAK_FILES))
def test_other_line_breaks_stay_inside_their_line(tmp_path, layout, char):
    text = _BREAK_FILES[layout].format(c=char)
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    lines = text.split("\n")
    if [name.strip() for name in lines[0].split(",")] not in (["x1", "u1"], ["x1", "u1", "k"]):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 1: "):
            load_dataset(path)
    else:
        _load_as_reference(path, lines)


# tokens of every kind the checks tell apart, the first five read as numbers
# (and group ids) by numpy's reader, and the ends of rows: text mode ends a
# line at the first three, the others join two rows into one line
_TOKENS = ["1.5", "-0.0", "7", " 2 ", "\xa03", "nan", "1e400", "1_0", "\u0661", "a", "",
           "99999999999999999999"]
_ROW_ENDS = ["\n", "\r", "\r\n", "\n \n", "\x0c", "\x85", "\u2028"]


@st.composite
def _text_files(draw):
    header = draw(st.sampled_from(["x1,u1", "x1,u1,k", "x1,x2,u1,k"]))
    width = header.count(",") + 1
    # mostly rows of the right width, of tokens numpy's reader reads, that end a line
    token = st.sampled_from(_TOKENS[:5] * 6 + _TOKENS)
    row = st.integers(width - 1, width + 1).flatmap(
        lambda n: st.lists(token, min_size=n, max_size=n)) | st.lists(
            token, min_size=width, max_size=width)
    end = st.sampled_from(_ROW_ENDS[:1] * 6 + _ROW_ENDS)
    rows = draw(st.lists(st.tuples(row, end), max_size=6))
    return header + "\n" + "".join(",".join(tokens) + e for tokens, e in rows)


@settings(max_examples=300, deadline=None)
@given(_text_files())
def test_every_file_loads_or_names_its_line_as_the_reference(text):
    # the error scan names a line for every file numpy's reader refuses
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        _load_as_reference(path, lines)
