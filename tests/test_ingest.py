import importlib.util
import json
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import entropy as scipy_entropy

from reclens import ingest
from reclens.datamodel import RatingsMatrix
from reclens.errors import InsufficientDataError, ParseError, ValidationError
from reclens.ingest import (
    FeatureFilterSpec,
    RawItemRecord,
    encode_one_hot,
    feature_entropy,
    filter_features,
    load_metadata,
    load_ratings,
    prune_items,
    restrict_items,
    select_features,
)

from conftest import make_meta, write_metadata_jsonl, write_ratings_csv


def binary_entropy_oracle(p: float) -> float:
    """Independent route: scipy's distribution entropy in base 2."""
    return float(scipy_entropy([p, 1.0 - p], base=2))


class TestLoadRatings:
    def test_counts_distinct_ids(self, tmp_path):
        path = tmp_path / "r.csv"
        write_ratings_csv(path, [("1", "10", 4.0, 7), ("2", "10", 3.0, 8),
                                 ("1", "11", 5.0, 9)])
        rm = load_ratings(path)
        assert (rm.n_users, rm.n_items, rm.nnz) == (2, 2, 3)
        assert rm.user_ids == ("1", "2")
        assert rm.item_ids == ("10", "11")

    def test_empty_after_header(self, tmp_path):
        path = tmp_path / "r.csv"
        write_ratings_csv(path, [])
        rm = load_ratings(path)
        assert rm.nnz == 0

    def test_duplicate_keeps_last(self, tmp_path):
        path = tmp_path / "r.csv"
        write_ratings_csv(path, [("1", "10", 4.0), ("1", "10", 5.0)])
        rm = load_ratings(path)
        assert rm.nnz == 1
        assert rm.ratings[0] == 5.0

    def test_timestamp_optional(self, tmp_path):
        path = tmp_path / "r.csv"
        write_ratings_csv(path, [("1", "10", 4.0)], header="userId,movieId,rating")
        assert load_ratings(path).nnz == 1

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "r.csv"
        write_ratings_csv(path, [("1", "10", 4.0), ("2", "11", "not-a-number")])
        with pytest.raises(ParseError, match=":3:"):
            load_ratings(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "r.csv"
        with open(path, "w") as fh:
            fh.write("userId,movieId,rating\n1,10\n")
        with pytest.raises(ParseError, match=":2:"):
            load_ratings(path)

    def test_rating_outside_scale(self, tmp_path):
        path = tmp_path / "r.csv"
        write_ratings_csv(path, [("1", "10", 9.5)])
        with pytest.raises(ValidationError, match="scale"):
            load_ratings(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "r.csv"
        with open(path, "w") as fh:
            fh.write("1,10,4.0\n")
        with pytest.raises(ParseError, match=":1:"):
            load_ratings(path)

    @staticmethod
    def write_100k(path, rng):
        """100,000 distinct (user, item) pairs of 943 users and 1682 items,
        in random order, with ratings and timestamps."""
        keys = rng.choice(943 * 1682, size=100_000, replace=False)
        users, items = np.divmod(keys, 1682)
        stars = rng.integers(1, 6, len(keys))
        times = rng.integers(874_724_710, 893_286_638, len(keys))
        write_ratings_csv(path, zip(users + 1, items + 1, stars, times))

    def test_peak_memory_within_two_and_a_half_times_the_result(
        self, tmp_path, rng
    ):
        """Reading 100k ratings holds at most 2.5 times the bytes of the
        arrays it returns: the ratings are appended to buffers, not kept
        block by block and joined, and the matrix takes them uncopied."""
        path = tmp_path / "r.csv"
        self.write_100k(path, rng)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rm = load_ratings(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        returned = rm.users.nbytes + rm.items.nbytes + rm.ratings.nbytes
        assert (rm.nnz, returned) == (100_000, 2_400_000)
        assert peak <= 2.5 * returned

    @pytest.mark.parametrize("repeats", [0, 3])
    def test_pairs_are_checked_by_one_sort(self, tmp_path, rng, monkeypatch,
                                           repeats):
        """load_ratings finds and resolves repeated pairs itself, and so
        builds the matrix without its second sort of the pairs; the result
        has no repeated pair, as the matrix's own check confirms."""
        path = tmp_path / "r.csv"
        self.write_100k(path, rng)
        lines = path.read_text().splitlines(keepends=True)
        with open(path, "a") as fh:
            fh.writelines(lines[1:1 + repeats])
        promised = []

        def spy(*args, pairs_unique=False, **kwargs):
            promised.append(pairs_unique)
            return RatingsMatrix(*args, pairs_unique=pairs_unique, **kwargs)

        monkeypatch.setattr(ingest, "RatingsMatrix", spy)
        rm = load_ratings(path)
        assert promised == [True] and rm.nnz == 100_000
        RatingsMatrix(rm.n_users, rm.n_items, rm.users, rm.items, rm.ratings)

    def test_arrays_own_their_rows_alone(self, tmp_path, rng):
        """Each returned array is read-only and owns exactly its rows'
        memory, which it shares with no other array; so does each array
        after repeated pairs are resolved."""
        path = tmp_path / "r.csv"
        self.write_100k(path, rng)
        unique = load_ratings(path)
        lines = path.read_text().splitlines(keepends=True)
        with open(path, "a") as fh:
            fh.writelines(lines[1:4])
        repeated = load_ratings(path)
        assert repeated.nnz == unique.nnz == 100_000
        for rm in (unique, repeated):
            arrays = (rm.users, rm.items, rm.ratings)
            for a in arrays:
                assert a.base is None and a.flags.owndata
                assert not a.flags.writeable and a.nbytes == 8 * rm.nnz
            for a, b in combinations(arrays, 2):
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("scale, message", [
        ((float("nan"), 5.0), r"rating scale \(nan, 5.0\) is not two finite numbers"),
        ((5.0, 1.0), r"rating scale \(5.0, 1.0\) must satisfy low < high"),
        ((1.0, float("inf")), r"rating scale \(1.0, inf\) is not two finite numbers"),
        ((1.0, "5"), "is not two finite numbers"),
    ])
    def test_bad_scale_rejected_before_the_file_is_read(self, tmp_path, scale,
                                                        message):
        with pytest.raises(ValidationError, match=message):
            load_ratings(tmp_path / "missing.csv", scale=scale)


class TestLoadMetadata:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_metadata_jsonl(path, {"m1": {"genre": ["scifi", "action"]},
                                    "m2": {"genre": ["drama"], "year": ["1999"]}})
        records = load_metadata(path)
        assert [r.item_id for r in records] == ["m1", "m2"]
        assert records[0].attributes["genre"] == {"scifi", "action"}

    def test_source_prefix(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_metadata_jsonl(path, {"m1": {"genre": ["scifi"]}})
        records = load_metadata(path, source="imdb")
        assert set(records[0].attributes) == {"imdb:genre"}

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with open(path, "w") as fh:
            fh.write('{"item_id": "a", "attributes": {}}\n{oops\n')
        with pytest.raises(ParseError, match=":2:"):
            load_metadata(path)

    def test_scalars_and_lists_of_scalars_accepted(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"item_id": 7, "attributes": '
                        '{"flag": true, "tags": ["a", 1, false], "none": []}}\n')
        (record,) = load_metadata(path)
        assert record.item_id == "7"
        assert record.attributes == {"flag": {"True"}, "tags": {"a", "1", "False"},
                                     "none": frozenset()}

    @pytest.mark.parametrize("line, detail", [
        ('{"item_id": "a", "attributes": {"g": null}}', "attribute 'g' holds null"),
        ('{"item_id": "a", "attributes": {"g": ["x", null]}}',
         """attribute 'g' holds ["x", null]"""),
        ('{"item_id": "a", "attributes": {"g": [["x"]]}}',
         """attribute 'g' holds [["x"]]"""),
        ('{"item_id": "a", "attributes": {"g": {"x": 1}}}',
         """attribute 'g' holds {"x": 1}"""),
        ('{"item_id": null}', "item_id must be a string or a number, not null"),
        ('{"item_id": true}', "item_id must be a string or a number, not true"),
        ('{"item_id": ["a"]}', """item_id must be a string or a number, not ["a"]"""),
    ])
    def test_other_values_rejected_naming_the_line(self, tmp_path, line, detail):
        path = tmp_path / "m.jsonl"
        path.write_text('{"item_id": "ok", "attributes": {}}\n' + line + "\n")
        with pytest.raises(ParseError) as exc:
            load_metadata(path)
        assert str(exc.value).startswith(f"{path}:2: {detail}")

    def test_long_value_is_cut_in_the_message(self, tmp_path):
        path = tmp_path / "m.jsonl"
        record = {"item_id": "a", "attributes": {"g": [list("x" * 60)]}}
        path.write_text(json.dumps(record))
        with pytest.raises(ParseError, match=r'holds \[\["x", "x",.*\.\.\.; it must'):
            load_metadata(path)

    def test_scalar_attribute_coerced(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with open(path, "w") as fh:
            fh.write('{"item_id": "a", "attributes": {"year": 1999}}\n')
        records = load_metadata(path)
        assert records[0].attributes["year"] == {"1999"}


class TestEncodeOneHot:
    def test_multi_valued_attribute(self):
        recs = [RawItemRecord("a", {"genre": frozenset({"scifi", "action"})})]
        meta = encode_one_hot(recs, {"a": 0}, 1)
        assert meta.feature_names == ("genre=action", "genre=scifi")
        np.testing.assert_array_equal(meta.X, [[1.0, 1.0]])

    def test_disjoint_values_symmetric_marginals(self):
        recs = [
            RawItemRecord("a", {"genre": frozenset({"a"})}),
            RawItemRecord("b", {"genre": frozenset({"b"})}),
        ]
        meta = encode_one_hot(recs, {"a": 0, "b": 1}, 2)
        assert meta.supports().tolist() == [1, 1]
        np.testing.assert_allclose(meta.marginals, [0.5, 0.5])

    def test_marginal_is_support_over_total(self):
        recs = [RawItemRecord("a", {"g": frozenset({"x"})})] + [
            RawItemRecord(f"b{i}", {"g": frozenset({"y"})}) for i in range(3)
        ]
        meta = encode_one_hot(recs, {"a": 0, "b0": 1, "b1": 2, "b2": 3}, 4)
        assert meta.marginals[meta.feature_index("g=x")] == 0.25

    def test_column_count_is_distinct_pairs(self, rng):
        values = ["v1", "v2", "v3"]
        recs = []
        pairs = set()
        for i in range(12):
            attrs = {}
            for attr in ("genre", "decade"):
                chosen = [values[j] for j in range(3) if rng.random() < 0.5]
                if chosen:
                    attrs[attr] = frozenset(chosen)
                    pairs.update((attr, v) for v in chosen)
            recs.append(RawItemRecord(f"i{i}", attrs))
        meta = encode_one_hot(recs, {f"i{i}": i for i in range(12)}, 12)
        assert meta.n_features == len(pairs)

    def test_external_index_alignment(self):
        recs = [RawItemRecord("x", {"g": frozenset({"1"})})]
        meta = encode_one_hot(recs, item_index={"x": 2, "y": 0, "z": 1}, n_items=4)
        assert meta.n_items == 4
        assert np.flatnonzero(meta.X[:, 0]).tolist() == [2]

    def test_unknown_items_skipped(self):
        recs = [RawItemRecord("x", {"g": frozenset({"1"})}),
                RawItemRecord("unrated", {"g": frozenset({"1"})})]
        meta = encode_one_hot(recs, item_index={"x": 0}, n_items=1)
        assert np.flatnonzero(meta.X[:, 0]).tolist() == [0]

    def test_empty_records_rejected(self):
        with pytest.raises(ValidationError):
            encode_one_hot([], {}, 0)


class TestFeatureEntropy:
    def test_maximal(self):
        assert feature_entropy(0.5) == 1.0

    def test_degenerate(self):
        assert feature_entropy(0.0) == 0.0
        assert feature_entropy(1.0) == 0.0

    def test_quarter_against_oracle(self):
        expected = binary_entropy_oracle(0.25)
        assert expected == pytest.approx(0.8112781244591328, abs=1e-12)
        assert feature_entropy(0.25) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_domain_error(self, p):
        with pytest.raises(ValidationError):
            feature_entropy(p)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry(self, p):
        assert feature_entropy(p) == pytest.approx(feature_entropy(1.0 - p), abs=1e-12)


class TestFilterFeatures:
    def three_feature_meta(self):
        # marginals 0.5, 0.01, 0.0 over 100 items
        return make_meta(
            100,
            {"a": set(range(50)), "b": {0}, "c": set()},
        )

    def test_zero_threshold_is_identity(self):
        meta = self.three_feature_meta()
        out = filter_features(meta, FeatureFilterSpec.entropy_threshold(0.0))
        assert out.feature_names == meta.feature_names
        np.testing.assert_array_equal(out.X, meta.X)

    def test_entropy_threshold_drops_low_entropy(self):
        meta = self.three_feature_meta()
        ents = [binary_entropy_oracle(p) for p in meta.marginals]
        assert ents[0] == pytest.approx(1.0)
        assert ents[1] == pytest.approx(0.0808, abs=5e-5)
        assert ents[2] == 0.0
        out = filter_features(meta, FeatureFilterSpec.entropy_threshold(0.05))
        assert out.feature_names == ("a", "b")

    def test_min_support(self):
        meta = make_meta(6, {"a": set(range(5)), "b": {0}, "c": {0, 1}})
        out = filter_features(meta, FeatureFilterSpec.min_support(2))
        assert out.feature_names == ("a", "c")

    def test_top_k_tie_breaks_by_name(self):
        meta = make_meta(4, {"z": {0, 1}, "a": {2, 3}, "m": {0}})
        out = filter_features(meta, FeatureFilterSpec.top_k_entropy(2))
        # "a" and "z" tie at entropy 1.0; both beat "m"
        assert out.feature_names == ("a", "z")
        out1 = filter_features(meta, FeatureFilterSpec.top_k_entropy(1))
        assert out1.feature_names == ("a",)

    def test_top_k_overflow_warns_and_keeps_all(self):
        meta = make_meta(2, {"a": {0}, "b": {1}})
        with pytest.warns(UserWarning, match="keeping all"):
            out = filter_features(meta, FeatureFilterSpec.top_k_entropy(5))
        assert out.feature_names == meta.feature_names

    @pytest.mark.parametrize(
        "spec",
        [
            FeatureFilterSpec.entropy_threshold(0.05),
            FeatureFilterSpec.min_support(2),
            FeatureFilterSpec.top_k_entropy(2),
        ],
    )
    def test_idempotent(self, spec):
        meta = make_meta(8, {"a": set(range(4)), "b": {0}, "c": {0, 5}, "d": set()})
        once = filter_features(meta, spec)
        twice = filter_features(once, spec)
        assert once.feature_names == twice.feature_names
        np.testing.assert_array_equal(once.X, twice.X)

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            FeatureFilterSpec.entropy_threshold(-1.0)
        with pytest.raises(ValidationError):
            FeatureFilterSpec.top_k_entropy(0)
        with pytest.raises(ValidationError):
            FeatureFilterSpec("bogus", 1)


class TestPruneItems:
    def test_zero_feature_item_removed(self):
        meta = make_meta(2, {"a": {0}})
        pruned, mask = prune_items(meta, min_features=1)
        assert mask.tolist() == [True, False]
        assert pruned.n_items == 1

    def test_threshold_comparison(self):
        # items hold 3, 2, 5 features
        columns = {f"f{j}": set() for j in range(5)}
        for j in range(3):
            columns[f"f{j}"].add(0)
        for j in range(2):
            columns[f"f{j}"].add(1)
        for j in range(5):
            columns[f"f{j}"].add(2)
        meta = make_meta(3, columns)
        pruned, mask = prune_items(meta, min_features=3)
        assert mask.tolist() == [True, False, True]
        assert pruned.n_items == 2

    def test_vacuous_prune_is_identity(self):
        meta = make_meta(3, {"a": {0, 1, 2}})
        pruned, mask = prune_items(meta, min_features=1)
        assert mask.all()
        np.testing.assert_array_equal(pruned.X, meta.X)

    def test_all_pruned_raises(self):
        meta = make_meta(2, {"a": set()})
        with pytest.raises(InsufficientDataError):
            prune_items(meta, min_features=1)

    def test_surviving_rows_unchanged(self, rng):
        n_items = 10
        columns = {
            f"f{j}": set(np.flatnonzero(rng.random(n_items) < 0.4).tolist())
            for j in range(4)
        }
        meta = make_meta(n_items, columns)
        pruned, mask = prune_items(meta, min_features=2)
        kept = np.flatnonzero(mask)
        np.testing.assert_array_equal(pruned.X, meta.X[kept])

    def test_marginals_reflect_pruned_population(self):
        meta = make_meta(4, {"a": {0, 1}, "b": {0}})
        pruned, mask = prune_items(meta, min_features=1)
        # items 2, 3 drop; "a" now covers both survivors
        assert pruned.marginals.tolist() == [1.0, 0.5]


class TestAlignmentHelpers:
    def test_select_features_reorders(self):
        meta = make_meta(2, {"a": {0}, "b": {1}, "c": {0, 1}})
        out = select_features(meta, ["c", "a"])
        assert out.feature_names == ("c", "a")
        np.testing.assert_array_equal(out.X, meta.X[:, [2, 0]])

    def test_select_features_missing(self):
        meta = make_meta(1, {"a": {0}})
        with pytest.raises(ValidationError):
            select_features(meta, ["nope"])

    def test_restrict_items_matches_rows(self):
        meta = make_meta(4, {"a": {0, 3}, "b": {1, 3}})
        out = restrict_items(meta, [3, 0])
        np.testing.assert_array_equal(out.X, meta.X[[3, 0]])
        assert out.marginals.tolist() == [1.0, 0.5]


class TestEncodeGuards:
    def test_empty_index_with_total_allowed(self):
        # no record matches the index, so no (attribute, value) pair is observed
        recs = [RawItemRecord("a", {"g": frozenset({"x"})})]
        meta = encode_one_hot(recs, item_index={}, n_items=3)
        assert meta.n_items == 3
        assert meta.n_features == 0


# -------------------------------------------- block parser vs per-line oracle

def load_ratings_lines_oracle(path, scale=(1.0, 5.0)):
    """``load_ratings`` one line at a time: the per-line parser that the
    block reader replaced.  A dict assigned row by row keeps each repeated
    pair at its first position with its last rating."""
    user_index, item_index, cells = {}, {}, {}
    lo, hi = scale
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = ingest._text_lines(fh, path)
        header = next(lines, "")
        if not header.lower().startswith("userid"):
            raise ParseError(f"{path}:1: expected a header line starting with userId")
        for lineno, line in enumerate(lines, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) not in (3, 4):
                raise ParseError(
                    f"{path}:{lineno}: expected 3 or 4 comma-separated fields, "
                    f"got {len(parts)}"
                )
            uid, iid, rating_text = parts[0].strip(), parts[1].strip(), parts[2].strip()
            if not uid or not iid:
                raise ParseError(f"{path}:{lineno}: empty user or item id")
            try:
                rating = float(rating_text)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: rating {rating_text!r} is not a number"
                ) from None
            if not lo <= rating <= hi:
                raise ValidationError(
                    f"{path}:{lineno}: rating {rating} outside scale [{lo}, {hi}]"
                )
            u = user_index.setdefault(uid, len(user_index))
            i = item_index.setdefault(iid, len(item_index))
            cells[(u, i)] = rating
    return RatingsMatrix(
        n_users=len(user_index),
        n_items=len(item_index),
        users=np.array([u for u, _ in cells], dtype=np.int64),
        items=np.array([i for _, i in cells], dtype=np.int64),
        ratings=np.array(list(cells.values()), dtype=np.float64),
        scale=scale,
        user_ids=tuple(user_index),
        item_ids=tuple(item_index),
    )


# Ids and ratings that parse, some only after stripping whitespace (\x1c and
# \x0c are whitespace to str.strip) or through float's wider syntax.
_IDS = ["1", "2", "3", "u4", "10"] * 4 + [" 5 ", "\t1", "\ufeff1", "\u00e9"]
_RATINGS = ["1", "2.5", "5", "4.0", "3"] * 4 + [
    " 3 ", "3\x1c", "\x0c2", "4e0", "1_0e-1", "\u0663"]
_BAD_RATINGS = ["nan", "inf", "-inf", "1_0", "0", "6", "5.0001", "x", ""]


@st.composite
def _valid_rows(draw):
    """A data line that parses: 3 or 4 fields, or a blank line."""
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from(["", "   ", "\t"]))
    fields = [draw(st.sampled_from(_IDS)), draw(st.sampled_from(_IDS)),
              draw(st.sampled_from(_RATINGS))]
    if draw(st.booleans()):
        fields.append(draw(st.sampled_from(["0", "877936512", "", "x"])))
    return ",".join(fields)


@st.composite
def _damaged_rows(draw):
    """A data line with a wrong field count, an empty id or a bad rating."""
    fields = draw(_valid_rows()).split(",")
    if len(fields) < 3:
        return "1,2"
    damage = draw(st.sampled_from(["rating", "uid", "iid", "short", "long"]))
    if damage == "short":
        return ",".join(fields[:2])
    if damage == "long":
        return ",".join(fields + ["9", "9"])
    if damage == "rating":
        fields[2] = draw(st.sampled_from(_BAD_RATINGS))
    else:
        fields[damage == "iid"] = draw(st.sampled_from(["", "  "]))
    return ",".join(fields)


@st.composite
def _ratings_files(draw):
    """A ratings file as bytes: header, rows (at most one damaged), line
    endings, maybe a BOM, a bad header or a byte that is not UTF-8."""
    header = draw(st.sampled_from(
        ["userId,movieId,rating,timestamp"] * 16
        + ["\ufeffuserId,movieId,rating", "USERID,m,r", "user,movie,rating", ""]
    ))
    rows = draw(st.lists(_valid_rows(), min_size=draw(st.integers(0, 12)),
                         max_size=25))
    if draw(st.integers(0, 2)) > 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(_damaged_rows()))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join([header, *rows])
    if draw(st.booleans()):
        text += ending
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 9:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def _outcome(load, path):
    """The parsed matrix's content, or the error's type and message."""
    try:
        rm = load(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return (rm.n_users, rm.n_items, rm.user_ids, rm.item_ids, rm.scale,
            rm.users.tolist(), rm.items.tolist(), rm.ratings.tolist())


@pytest.fixture(scope="module")
def benchmark_ratings(tmp_path_factory):
    """The ratings file that the benchmark reads, as
    ``perfbench/gen_ml100k.py`` writes it at its full size."""
    script = Path(__file__).resolve().parents[1] / "perfbench" / "gen_ml100k.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen_ml100k", script)
    module = importlib.util.module_from_spec(spec)
    out = tmp_path_factory.mktemp("bench")
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)  # for its dataclasses
        spec.loader.exec_module(module)
        module.write(out, module.SIZES["full"], 777)
    return out / "ratings.csv"


class TestBlockParser:
    """``load_ratings`` splits blocks of lines at once and reads only an
    irregular block line by line; the per-line parser is the oracle."""

    @settings(max_examples=200)
    @given(data=_ratings_files(), block=st.integers(1, 4))
    def test_matches_per_line_oracle(self, tmp_path_factory, data, block):
        path = tmp_path_factory.mktemp("ratings") / "r.csv"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "RATINGS_BLOCK", block)
            assert _outcome(load_ratings, path) == _outcome(
                load_ratings_lines_oracle, path
            )

    @staticmethod
    def spy_on_parse_lines(monkeypatch):
        """The (first line number, lines) of every ``_parse_lines`` call."""
        calls, original = [], ingest._parse_lines

        def spy(block, first_lineno, path, lo, hi):
            calls.append((first_lineno, list(block)))
            return original(block, first_lineno, path, lo, hi)

        monkeypatch.setattr(ingest, "_parse_lines", spy)
        return calls

    def test_irregular_blocks_are_read_line_by_line(self, tmp_path, monkeypatch):
        """Blank lines, padded fields and mixed 3/4-field rows make a block
        irregular: it is read line by line and loads as the oracle reads it.
        The last block, without a final newline, is regular."""
        calls = self.spy_on_parse_lines(monkeypatch)
        monkeypatch.setattr(ingest, "RATINGS_BLOCK", 3)
        path = tmp_path / "r.csv"
        path.write_bytes(
            "\ufeffuserId,movieId,rating\r\n 1 , a ,4\r\n\r\n2,a, 3.5 ,9\r\n"
            "  \r\n1,b,5,0\r\n2,b,1\r\n1,a,2".encode("utf-8")
        )
        rm = load_ratings(path)
        assert (rm.user_ids, rm.item_ids) == (("1", "2"), ("a", "b"))
        assert rm.users.tolist() == [0, 1, 0, 1]
        assert rm.items.tolist() == [0, 0, 1, 1]
        assert rm.ratings.tolist() == [2.0, 3.5, 5.0, 1.0]
        assert [first for first, _ in calls] == [2, 5]

    def test_benchmark_file_needs_no_fallback(self, benchmark_ratings, monkeypatch):
        calls = self.spy_on_parse_lines(monkeypatch)
        assert len(load_ratings(benchmark_ratings).ratings) == 100_000
        assert calls == []

    @pytest.mark.parametrize("fields, ending, bom, final", [
        (3, "\n", False, True), (4, "\n", False, True), (3, "\r\n", True, True),
        (4, "\r\n", True, True), (4, "\r", False, True), (3, "\n", True, False),
        (4, "\r\n", False, False),
    ])
    def test_uniform_files_need_no_fallback(
        self, benchmark_ratings, tmp_path, monkeypatch, fields, ending, bom, final
    ):
        """3-field and 4-field files, with LF, CRLF or CR line ends, a BOM
        or none, and a final newline or none, split block by block."""
        calls = self.spy_on_parse_lines(monkeypatch)
        lines = benchmark_ratings.read_text(encoding="utf-8").splitlines()[:9001]
        lines = [",".join(line.split(",")[:fields]) for line in lines]
        text = ending.join(lines) + (ending if final else "")
        text = ("\ufeff" if bom else "") + text
        path = tmp_path / "r.csv"
        path.write_bytes(text.encode("utf-8"))
        outcome = _outcome(load_ratings, path)
        assert calls == [] and len(outcome[-1]) > 8000
        assert outcome == _outcome(load_ratings_lines_oracle, path)

    @pytest.mark.parametrize("line", [
        " 7,x,3,1", "7 ,x,3,1", "7,x,3,1 ", "7,x,\x1c3,1", "7,x,3\x1c,1", "7,x,3",
        "7,x", "7,x,3,1,1", "", "   ", "\u00e97,x,3,1", "7,\u0663,3,1", "7,x,\u0663,1",
        ",x,3,1", "7,,3,1", "7,x,x,1", "7,x,9,1",
    ])
    def test_one_irregular_line_reads_its_block_line_by_line(
        self, tmp_path, monkeypatch, line
    ):
        """Padding, a field too many or too few, a blank line, non-ASCII
        text, an empty id or a bad rating: only that line's block is read
        line by line, and the file loads, or fails, as the oracle has it."""
        calls = self.spy_on_parse_lines(monkeypatch)
        monkeypatch.setattr(ingest, "RATINGS_BLOCK", 4)
        rows = [f"{u % 3},{u},{1 + u % 5},88" for u in range(12)]
        rows[5] = line
        path = tmp_path / "r.csv"
        path.write_text("\n".join(["userId,movieId,rating,timestamp", *rows]) + "\n",
                        encoding="utf-8")
        assert _outcome(load_ratings, path) == _outcome(load_ratings_lines_oracle, path)
        assert [first for first, _ in calls] == [6]

    def test_line_widths_that_even_out_are_irregular(self, tmp_path, monkeypatch):
        """A 3-field and a 5-field line among 4-field ones average four
        fields a line; the block is still read line by line."""
        calls = self.spy_on_parse_lines(monkeypatch)
        path = tmp_path / "r.csv"
        path.write_text("userId,movieId,rating,timestamp\n1,a,4,0\n2,b,3\n"
                        "3,c,2,5,9\n4,d,1,0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"r\.csv:4: expected 3 or 4 .*, got 5"):
            load_ratings(path)
        assert [first for first, _ in calls] == [2]

    def test_only_the_bad_block_is_read_line_by_line(self, tmp_path, monkeypatch):
        calls = self.spy_on_parse_lines(monkeypatch)
        monkeypatch.setattr(ingest, "RATINGS_BLOCK", 3)
        path = tmp_path / "r.csv"
        write_ratings_csv(path, [("1", str(i), 3.0) for i in range(7)]
                          + [("1", "7", "x")] + [("2", "8", 4.0)] * 3)
        with pytest.raises(ParseError, match=r"r\.csv:9: rating 'x' is not a number"):
            load_ratings(path)
        assert [(first, len(lines)) for first, lines in calls] == [(8, 3)]
        assert calls[0][1][1].startswith("1,7,x")

    def test_padded_rating_in_a_later_block_loads(self, tmp_path, monkeypatch):
        """float rejects a rating padded with \\x1c, which str.strip removes:
        that block is read line by line and loads as the oracle reads it."""
        calls = self.spy_on_parse_lines(monkeypatch)
        monkeypatch.setattr(ingest, "RATINGS_BLOCK", 2)
        path = tmp_path / "r.csv"
        path.write_text("userId,movieId,rating\n1,a,4\n2,b,3\n3,a,2\n"
                        "1,c,5\x1c\n2,a,1\n", encoding="utf-8")
        rm = load_ratings(path)
        assert rm.ratings.tolist() == [4.0, 3.0, 2.0, 5.0, 1.0]
        assert (rm.user_ids, rm.item_ids) == (("1", "2", "3"), ("a", "b", "c"))
        assert [first for first, _ in calls] == [4]
        assert _outcome(load_ratings, path) == _outcome(
            load_ratings_lines_oracle, path
        )

    def test_non_utf8_byte_is_one_error_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "RATINGS_BLOCK", 2)
        path = tmp_path / "r.csv"
        path.write_bytes(b"userId,movieId,rating\n1,a,4\n2,b,3\n3,\xff,2\n")
        with pytest.raises(ParseError) as info:
            load_ratings(path)
        message = str(info.value)
        assert message.startswith(f"{path}: not valid UTF-8 (")
        assert "\n" not in message
        assert _outcome(load_ratings, path) == _outcome(
            load_ratings_lines_oracle, path
        )

    @pytest.mark.parametrize("bad_row, expected", [
        (100, r"r\.csv:102: rating 'x' is not a number"), (1900, "not valid UTF-8")])
    def test_bad_line_and_undecodable_bytes_first_one_wins(
        self, tmp_path, bad_row, expected
    ):
        """Text is decoded some kilobytes at a time: a bad line decoded before
        the bytes that are not UTF-8 is reported, one after them is not."""
        rows = [f"{u % 50},{u},3" for u in range(2000)]
        rows[bad_row] = "1,1,x"
        rows[1500] = "1,\udcff,3"
        data = "\n".join(["userId,movieId,rating", *rows]).encode(
            "utf-8", "surrogateescape")
        path = tmp_path / "r.csv"
        path.write_bytes(data)
        assert data.index(b"\xff") > 8192
        with pytest.raises(ParseError, match=expected):
            load_ratings(path)
        assert _outcome(load_ratings, path) == _outcome(
            load_ratings_lines_oracle, path
        )

    def test_duplicates_across_blocks_keep_first_position_last_rating(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(ingest, "RATINGS_BLOCK", 2)
        path = tmp_path / "r.csv"
        write_ratings_csv(path, [("a", "x", 1.0), ("b", "y", 2.0), ("c", "z", 3.0),
                                 ("a", "x", 4.0), ("b", "y", 5.0), ("a", "x", 2.5)])
        rm = load_ratings(path)
        assert rm.users.tolist() == [0, 1, 2]
        assert rm.items.tolist() == [0, 1, 2]
        assert rm.ratings.tolist() == [2.5, 5.0, 3.0]
        assert _outcome(load_ratings, path) == _outcome(
            load_ratings_lines_oracle, path
        )

    def test_error_names_line_beyond_first_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "RATINGS_BLOCK", 3)
        path = tmp_path / "r.csv"
        write_ratings_csv(path, [("1", str(i), 3.0) for i in range(7)]
                          + [("1", "7", "nan")])
        with pytest.raises(ValidationError, match=r"r\.csv:9: rating nan outside"):
            load_ratings(path)
