import numpy as np
import pytest

from ccl.core import DemonstrationSet, LearnOptions, LearnReport, RbfModel, load_dataset, save_dataset


# ---------------------------------------------------------------------------
# options / report / rbf container
# ---------------------------------------------------------------------------

def test_default_options_valid():
    opts = LearnOptions()
    assert opts.tol_fun == 1e-9 and opts.max_iter == 1000
    assert opts.search_resolution == 90 and opts.num_restarts == 5


@pytest.mark.parametrize("kw", [
    {"tol_fun": 0.0}, {"tol_x": -1.0}, {"max_iter": 0},
    {"search_resolution": 1}, {"num_restarts": 0}, {"svd_threshold": -1e-9},
    {"regularization": -0.1}, {"rng_seed": -1}, {"rng_seed": 2 ** 64},
])
def test_options_bounds(kw):
    with pytest.raises(ValueError):
        LearnOptions(**kw)


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


def test_rbf_model_invariants():
    model = RbfModel(centers=np.zeros((2, 3)), width=0.5, weights=np.ones((2, 3)))
    assert model.dim_x == 2 and model.n_basis == 3 and model.dim_out == 2
    with pytest.raises(ValueError):
        RbfModel(centers=np.zeros((2, 3)), width=0.0, weights=np.ones((2, 3)))
    with pytest.raises(ValueError):
        RbfModel(centers=np.zeros((2, 3)), width=1.0, weights=np.ones((2, 2)))
    with pytest.raises(ValueError):
        RbfModel(centers=np.full((2, 3), np.nan), width=1.0, weights=np.ones((2, 3)))


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
    model = RbfModel(centers=np.zeros((2, 3)), width=0.5, weights=np.ones((2, 3)))
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
    train, hold = data.split(0.75, seed=1)
    assert train.n_samples + hold.n_samples == 20
    assert train.policy is not None


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


def test_load_four_column_file_defaults_to_single_group(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,u1,u2\n0.0,1.0,2.0,3.0\n4.0,5.0,6.0,7.0\n")
    data = load_dataset(path, dims=(2, 2))
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


def test_load_rejects_dimension_mismatch(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,u1,u2\n0.0,1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="dims"):
        load_dataset(path, dims=(3, 2))


def test_load_rejects_unknown_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,q1,u1\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError):
        load_dataset(path)


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
