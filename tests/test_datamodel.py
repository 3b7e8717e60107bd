import errno
import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reclens import datamodel
from reclens.datamodel import (
    JSON_ROWS,
    FactorModel,
    MetadataMatrix,
    RatingsMatrix,
    predict_rating,
    write_json,
)
from reclens.errors import OutputError, ValidationError

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

    def test_pairs_unique_is_a_keyword_promise_that_skips_the_check(self):
        """``pairs_unique=True`` takes the caller's word that no pair
        repeats; it can only be passed by name."""
        assert RatingsMatrix(2, 2, [0, 0], [0, 0], [3.0, 4.0], pairs_unique=True).nnz == 2
        with pytest.raises(TypeError):
            RatingsMatrix(2, 2, [0], [0], [3.0], (1.0, 5.0), None, None, True)

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
            (["a", 12345], ["x", "y"], "user id 12345 is not a string"),
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
        (2, "0.1", "mistyped value for lambda: '0.1' is not a finite number"),
        (2, float("nan"), "mistyped value for lambda: nan is not a finite number"),
    ])
    def test_rank_and_lambda_typed(self, rank, lam, message):
        with pytest.raises(ValidationError, match=message):
            FactorModel(rank=rank, lam=lam,
                        user_factors=np.ones((1, 2)), item_factors=np.ones((1, 2)))


def ratings_of(users, items, ratings):
    return RatingsMatrix(3, 4, users=users, items=items, ratings=ratings)


def model_of(user_factors, item_factors):
    return FactorModel(rank=2, lam=0.1, user_factors=user_factors,
                       item_factors=item_factors)


# Each container, its array fields, and arrays of the dtypes it stores.
CONTAINERS = {
    "ratings": (ratings_of, ("users", "items", "ratings"),
                lambda: (np.array([0, 2, 1, 2]), np.array([3, 0, 1, 2]),
                         np.array([1.0, 2.5, 4.0, 5.0]))),
    "model": (model_of, ("user_factors", "item_factors"),
              lambda: (np.arange(6.0).reshape(3, 2).copy(),
                       np.arange(8.0).reshape(4, 2).copy())),
}


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
class TestCopySemantics:
    """A container never stores an array that a caller can still write:
    writeable arrays, and views of them, are copied; a read-only array of
    the stored dtype that owns its memory is kept as it is."""

    def test_writeable_inputs_are_copied(self, kind):
        build, fields, arrays = CONTAINERS[kind]
        given = arrays()
        # A read-only view whose base stays writeable is copied too.
        view = given[-1].view()
        view.setflags(write=False)
        obj = build(*given[:-1], view)
        want = [a.copy() for a in given]
        for a in given:
            a[...] = 0
        for name, a, w in zip(fields, given, want):
            stored = getattr(obj, name)
            assert not stored.flags.writeable, name
            assert not np.shares_memory(stored, a), name
            assert np.array_equal(stored, w), name

    def test_read_only_owned_arrays_are_kept(self, kind):
        build, fields, arrays = CONTAINERS[kind]
        given = arrays()
        for a in given:
            a.setflags(write=False)
        obj = build(*given)
        assert all(getattr(obj, name) is a for name, a in zip(fields, given))

    def test_read_only_arrays_of_another_dtype_are_converted(self, kind):
        build, fields, arrays = CONTAINERS[kind]
        given = [a.astype(np.int32 if a.dtype == np.int64 else np.float32)
                 for a in arrays()]
        for a in given:
            a.setflags(write=False)
        obj = build(*given)
        for name, want in zip(fields, arrays()):
            stored = getattr(obj, name)
            assert stored.dtype == want.dtype and not stored.flags.writeable
            assert np.array_equal(stored, want)


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


@pytest.mark.parametrize("failure", [
    MemoryError(), KeyboardInterrupt(),
    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
], ids=["memory", "interrupt", "disk-full"])
def test_failed_encode_keeps_previous_file(tmp_path, monkeypatch, failure):
    """An encoder that fails after the first ``JSON_ROWS`` block has gone to
    the temporary file leaves the previous file as it was and no temporary
    file behind.  An ``OSError`` comes out naming the destination."""
    path = tmp_path / "doc.json"
    path.write_text("previous\n")
    seen = []

    def dumps(value, **kwargs):
        if isinstance(value, list) and len(value) == JSON_ROWS:
            seen.append(sorted(p.name for p in tmp_path.iterdir()))
            if len(seen) == 2:
                raise failure
        return json.dumps(value, **kwargs)

    monkeypatch.setattr(datamodel, "json", type("Json", (), {"dumps": dumps}))
    doc = {"a": np.arange(3.0 * JSON_ROWS)}
    expected = (OutputError if isinstance(failure, OSError) else type(failure))
    with pytest.raises(expected) as caught:
        write_json(doc, path)
    assert len(seen) == 2 and len(seen[1]) == 2, seen  # the temporary file
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]
    if expected is OutputError:
        assert str(caught.value) == f"cannot write {path}: No space left on device"
        assert isinstance(caught.value, OSError)


# Run in a child process, so the file-size limit binds nothing else.
FAILED_BODY_UNDER_SIZE_LIMIT = textwrap.dedent("""
    import errno, json, os, resource, sys
    from reclens import datamodel

    failure = {"memory": MemoryError("encoder"),
               "disk-full": OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}
    calls = []

    def dumps(value, **kwargs):
        calls.append(value)
        if len(calls) == 4:
            raise failure[sys.argv[2]]
        return json.dumps(value, **kwargs)

    datamodel.json = type("Json", (), {"dumps": dumps})
    resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100))
    try:
        datamodel.write_json({"a": "x" * 200, "b": 1, "c": 2}, sys.argv[1])
    except BaseException as exc:
        print(type(exc).__name__, exc, sep=": ")
""")


@pytest.mark.parametrize("failure, error", [
    ("memory", "MemoryError: encoder"),
    ("disk-full", "OutputError: cannot write {path}: No space left on device"),
], ids=["memory", "disk-full"])
def test_body_exception_survives_a_failed_flush(tmp_path, failure, error):
    """Under a 100-byte file-size limit, an encoder that fails on its fourth
    call, with 200 bytes of text still buffered, comes out as its own
    exception: the buffered text is dropped, not flushed into "File too
    large".  An ``OSError`` from the body still names the destination, and
    no file is left behind."""
    path = tmp_path / "out.json"
    done = subprocess.run(
        [sys.executable, "-c", FAILED_BODY_UNDER_SIZE_LIMIT, str(path), failure],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(datamodel.__file__).parents[1])},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == error.format(path=path) + "\n"
    assert list(tmp_path.iterdir()) == []


def test_new_file_mode_follows_umask(tmp_path):
    """A written file gets the mode ``open`` would give it, 0o666 less the
    umask, whether it is new or replaces a file of another mode."""
    old = os.umask(0o027)
    try:
        with open(tmp_path / "by_open.json", "w"):
            pass
        write_json({}, tmp_path / "new.json")
        (tmp_path / "old.json").write_text("previous\n")
        os.chmod(tmp_path / "old.json", 0o600)
        write_json({}, tmp_path / "old.json")
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {"by_open.json": 0o640, "new.json": 0o640, "old.json": 0o640}


def test_symlink_at_output_is_replaced(tmp_path):
    """A symlink at the output path is replaced by the new file; the file it
    pointed to keeps its bytes."""
    target = tmp_path / "target.json"
    target.write_text("target\n")
    link = tmp_path / "out.json"
    link.symlink_to(target)
    write_json({"x": 1}, link)
    assert not link.is_symlink()
    assert link.read_text() == '{"x": 1}\n'
    assert target.read_text() == "target\n"


def test_temporary_name_clash_takes_the_next_name(tmp_path, monkeypatch):
    """A file already at the next temporary name is left alone, and the
    writer creates the one after it."""
    monkeypatch.setattr(datamodel, "_TEMP_IDS", itertools.count())
    taken = tmp_path / f".reclens-{os.getpid()}-0.tmp"
    taken.write_text("someone else's\n")
    write_json({"x": 1}, tmp_path / "out.json")
    assert taken.read_text() == "someone else's\n"
    assert (tmp_path / "out.json").read_text() == '{"x": 1}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "out.json"]


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_destination_names_it(tmp_path, where):
    """A destination whose directory is missing, or that is a directory,
    fails with one error naming it and leaves no temporary file."""
    path = tmp_path / "no" / "x.json" if where == "missing" else tmp_path
    with pytest.raises(OutputError, match=f"^cannot write {path}: "):
        write_json({}, path)
    assert list(tmp_path.parent.glob(".reclens-*")) == []
    assert list(tmp_path.iterdir()) == []


@given(seed=st.integers(0, 2**16), n=st.integers(0, 40), k=st.integers(1, 60),
       zeros=st.booleans())
def test_dot_adds_in_factor_order_whatever_the_batch(seed, n, k, zeros):
    """Each row's k products are added one by one, in factor order, onto
    +0.0: a row has the same bits alone and in any batch, and products
    that are all -0.0 add up to +0.0."""
    rng = np.random.default_rng(seed)
    rows, u = rng.normal(size=(n, k)), rng.normal(size=k)
    if zeros:
        rows[:, :] = 0.0
        u = -np.abs(u)
    batch = datamodel._dot(rows, u)
    expected = [0.0 + np.cumsum(row * u)[-1] for row in rows]
    assert batch.tobytes() == np.array(expected).tobytes()
    for i in range(n):
        assert datamodel._dot(rows[i:i + 1], u).tobytes() == batch[i:i + 1].tobytes()
