import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reclens.datamodel import (
    FactorModel,
    MetadataMatrix,
    RatingsMatrix,
    predict_rating,
    write_json,
)
from reclens.errors import ValidationError

from conftest import make_meta


def model_from_rows(user_rows, item_rows, lam=0.0):
    user_rows = np.atleast_2d(np.asarray(user_rows, dtype=float))
    item_rows = np.atleast_2d(np.asarray(item_rows, dtype=float))
    return FactorModel(
        rank=user_rows.shape[1], lam=lam,
        user_factors=user_rows, item_factors=item_rows,
    )


class TestPredictRating:
    def test_unit_vector_selects_coordinate(self):
        m = model_from_rows([[1.0, 0.0]], [[3.5, 9.0]])
        assert predict_rating(m, 0, 0) == 3.5

    def test_zero_user_vector(self):
        m = model_from_rows([[0.0, 0.0]], [[17.0, -4.0]])
        assert predict_rating(m, 0, 0) == 0.0

    def test_hand_computed_dot_product(self):
        # (0.5, 2) . (2, 1) = 1 + 2 = 3
        m = model_from_rows([[0.5, 2.0]], [[2.0, 1.0]])
        assert predict_rating(m, 0, 0) == pytest.approx(3.0, abs=1e-15)

    @pytest.mark.parametrize("user,item", [(1, 0), (-1, 0), (0, 1), (0, -2)])
    def test_out_of_range_index(self, user, item):
        m = model_from_rows([[1.0]], [[1.0]])
        with pytest.raises(IndexError):
            predict_rating(m, user, item)

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.floats(-8, 8),
    )
    def test_bilinear_in_user_row(self, user_row, item_row, c):
        m1 = model_from_rows([user_row], [item_row])
        m2 = model_from_rows([[c * v for v in user_row]], [item_row])
        assert predict_rating(m2, 0, 0) == pytest.approx(
            c * predict_rating(m1, 0, 0), rel=1e-9, abs=1e-9
        )


class TestRatingsMatrix:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            RatingsMatrix(2, 2, [0, 0], [0, 0], [3.0, 4.0])

    def test_distant_duplicate_pair_rejected(self):
        # The repeated pair sits at the two ends of unsorted arrays, with
        # every other pair between them, so only a global check finds it.
        keys = np.arange(25 * 40)[::-1]
        users, items = np.divmod(keys[keys != 7 * 40 + 3], 40)
        users = np.concatenate(([7], users, [7]))
        items = np.concatenate(([3], items, [3]))
        ratings = np.full(len(users), 3.0)
        with pytest.raises(ValidationError, match="duplicate"):
            RatingsMatrix(25, 40, users, items, ratings)
        assert RatingsMatrix(25, 40, users[:-1], items[:-1], ratings[:-1]).nnz == 1000

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            RatingsMatrix(1, 1, [0], [1], [3.0])

    @pytest.mark.parametrize("scale, message", [
        ((5.0, 1.0), "must satisfy low < high"),
        ((1.0, float("inf")), "is not two finite numbers"),
        ((float("nan"), 5.0), "is not two finite numbers"),
    ])
    def test_bad_scale_rejected(self, scale, message):
        with pytest.raises(ValidationError, match=message):
            RatingsMatrix(1, 1, [0], [0], [3.0], scale=scale)

    def test_rating_outside_scale_rejected(self):
        with pytest.raises(ValidationError, match="scale"):
            RatingsMatrix(1, 1, [0], [0], [6.0], scale=(1.0, 5.0))

    @pytest.mark.parametrize(
        "user_ids, item_ids, message",
        [
            (["a"], ["x", "y"], "1 user ids for 2 user factor rows"),
            (["a", "b"], ["x", "x"], "item id 'x' is repeated"),
            (["a", "a"], ["x", "y"], "user id 'a' is repeated"),
            (["a", "b"], ["x", "y", "z"], "3 item ids for 2 item factor rows"),
        ],
    )
    def test_ids_must_name_each_row_once(self, user_ids, item_ids, message):
        entries = ([0, 1], [0, 1], [3.0, 4.0])
        with pytest.raises(ValidationError, match=message):
            RatingsMatrix(2, 2, *entries, user_ids=tuple(user_ids),
                          item_ids=tuple(item_ids))
        assert RatingsMatrix(2, 2, *entries, user_ids=("a", "b"),
                             item_ids=("x", "y")).nnz == 2

    def test_arrays_are_read_only(self):
        rm = RatingsMatrix(1, 1, [0], [0], [3.0])
        with pytest.raises(ValueError):
            rm.ratings[0] = 1.0


class TestFactorModel:
    def test_column_count_must_match_rank(self):
        with pytest.raises(ValidationError):
            FactorModel(rank=2, lam=0.0,
                        user_factors=np.ones((1, 3)), item_factors=np.ones((1, 2)))

    def test_non_finite_rejected(self):
        bad = np.array([[np.nan]])
        with pytest.raises(ValidationError):
            FactorModel(rank=1, lam=0.0, user_factors=bad, item_factors=np.ones((1, 1)))

    @pytest.mark.parametrize("rank, lam, message", [
        (2.0, 0.0, "mistyped value for rank: 2.0 is not an integer"),
        (True, 0.0, "mistyped value for rank: True is not an integer"),
        (2, "0.1", "mistyped value for lam: '0.1' is not a finite number"),
        (2, float("nan"), "mistyped value for lam: nan is not a finite number"),
    ])
    def test_rank_and_lambda_typed(self, rank, lam, message):
        with pytest.raises(ValidationError, match=message):
            FactorModel(rank=rank, lam=lam,
                        user_factors=np.ones((1, 2)), item_factors=np.ones((1, 2)))


class TestDenseAttributeRow:
    def test_partial_support(self):
        meta = make_meta(1, {"a": {0}, "b": set(), "c": {0}, "d": set()})
        np.testing.assert_array_equal(meta.X[0], [1.0, 0.0, 1.0, 0.0])

    def test_empty_support(self):
        meta = make_meta(2, {"a": {0}, "b": {0}})
        np.testing.assert_array_equal(meta.X[1], [0.0, 0.0])

    def test_full_support(self):
        meta = make_meta(1, {"a": {0}, "b": {0}, "c": {0}})
        np.testing.assert_array_equal(meta.X[0], [1.0, 1.0, 1.0])

    def test_out_of_range(self):
        meta = make_meta(1, {"a": {0}})
        with pytest.raises(IndexError):
            meta.X[1]

    def test_sparse_dense_round_trip(self, rng):
        n_items, n_features = 7, 5
        columns = {
            f"f{j}": set(np.flatnonzero(rng.random(n_items) < 0.4).tolist())
            for j in range(n_features)
        }
        meta = make_meta(n_items, columns)
        for i in range(n_items):
            row = meta.X[i]
            back = {meta.feature_names[j] for j in np.flatnonzero(row)}
            expected = {name for name, col in columns.items() if i in col}
            assert back == expected
        # X agrees with a cell-by-cell construction
        expected = np.zeros((n_items, n_features))
        for j, name in enumerate(meta.feature_names):
            for i in columns[name]:
                expected[i, j] = 1.0
        np.testing.assert_array_equal(meta.X, expected)


class TestMetadataMatrix:
    def test_marginals_cached_exactly(self):
        meta = make_meta(4, {"a": {0, 1}, "b": {2}, "c": set()})
        np.testing.assert_allclose(meta.marginals, [0.5, 0.25, 0.0], atol=1e-12)

    def test_marginals_invariant_under_item_reordering(self, rng):
        n_items = 9
        columns = {
            f"f{j}": set(np.flatnonzero(rng.random(n_items) < 0.5).tolist())
            for j in range(4)
        }
        meta = make_meta(n_items, columns)
        perm = rng.permutation(n_items)
        shuffled = make_meta(
            n_items, {k: {int(perm[i]) for i in v} for k, v in columns.items()}
        )
        np.testing.assert_array_equal(meta.marginals, shuffled.marginals)

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(ValidationError):
            MetadataMatrix(("a", "a"), np.zeros((1, 2), dtype=bool))

    def test_values_are_binary(self):
        meta = make_meta(3, {"a": {0, 2}})
        assert set(np.unique(meta.X)) <= {0.0, 1.0}



@pytest.mark.parametrize("arrays", [
    {"b": np.arange(12.0).reshape(4, 3) / 7},
    {"b": np.array([[np.nan, -np.inf, 1e-300]]), "a0": np.empty((0, 2))},
    {"z": np.empty((3, 0)), "a": np.array([[1.5]])},
    {"long": np.arange(1200.0).reshape(600, 2) / 3, "flat": np.arange(700) - 9},
    {},
])
def test_write_json_is_one_dumps_line(tmp_path, arrays):
    """Arrays written in blocks of rows give the bytes of one ``json.dumps``
    of the whole document with each array as its list."""
    doc = {"m": {"y": [1, 2.5], "x": None}, "s": "é\n", "t": True, **arrays}
    path = tmp_path / "doc.json"
    write_json(doc, path)
    lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    assert path.read_bytes() == (json.dumps(lists, sort_keys=True) + "\n").encode()
