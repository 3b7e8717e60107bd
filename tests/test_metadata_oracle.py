"""The boolean-array metadata path against the frozenset reference.

``FrozensetMetadata`` and the functions below are the column-sparse
implementation that ``MetadataMatrix`` replaced: one frozenset of item
indices per feature, validated item by item.  Every public constructor and
transform of the array path must give the same names, cells, marginals,
supports and prune mask, and ``random_metadata`` must leave its generator
in the same state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reclens.datamodel import MetadataMatrix
from reclens.errors import InsufficientDataError, ValidationError
from reclens.ingest import (
    FeatureFilterSpec,
    RawItemRecord,
    encode_one_hot,
    feature_entropy,
    filter_features,
    prune_items,
    restrict_items,
    select_features,
)
from reclens.synth import random_metadata


@dataclass(frozen=True)
class FrozensetMetadata:
    """Items x binary features, stored column-sparse: ``columns[j]`` is the
    set of items holding feature ``j``."""

    n_items: int
    feature_names: tuple[str, ...]
    columns: tuple[frozenset[int], ...]
    marginals: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "columns", tuple(frozenset(c) for c in self.columns))
        if len(self.feature_names) != len(self.columns):
            raise ValidationError("one column per feature name required")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValidationError("feature names must be unique")
        for name, col in zip(self.feature_names, self.columns):
            for i in col:
                if not 0 <= i < self.n_items:
                    raise ValidationError(
                        f"feature {name!r} references item {i} outside "
                        f"[0, {self.n_items})"
                    )
        if self.n_items > 0:
            marg = np.array([len(c) / self.n_items for c in self.columns])
        else:
            marg = np.zeros(len(self.columns))
        object.__setattr__(self, "marginals", marg)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def supports(self) -> np.ndarray:
        return np.array([len(c) for c in self.columns], dtype=np.int64)

    @property
    def dense(self) -> np.ndarray:
        mat = np.zeros((self.n_items, self.n_features))
        for j, col in enumerate(self.columns):
            if col:
                mat[sorted(col), j] = 1.0
        return mat


def encode_one_hot_oracle(records, item_index=None, n_items=None):
    if item_index is None:
        item_index = {}
        for rec in records:
            item_index.setdefault(rec.item_id, len(item_index))
        total = len(item_index)
    else:
        total = n_items
    columns: dict[str, set[int]] = {}
    for rec in records:
        idx = item_index.get(rec.item_id)
        if idx is None:
            continue
        for attr, values in rec.attributes.items():
            for value in values:
                columns.setdefault(f"{attr}={value}", set()).add(idx)
    names = tuple(sorted(columns))
    return FrozensetMetadata(total, names, tuple(frozenset(columns[n]) for n in names))


def filter_features_oracle(meta, spec):
    ent = [feature_entropy(p) for p in meta.marginals]
    if spec.kind == "entropy_threshold":
        keep = [j for j in range(meta.n_features) if ent[j] >= spec.value]
    elif spec.kind == "min_support":
        supports = meta.supports()
        keep = [j for j in range(meta.n_features) if supports[j] >= spec.value]
    elif int(spec.value) >= meta.n_features:
        keep = list(range(meta.n_features))
    else:
        ranked = sorted(range(meta.n_features),
                        key=lambda j: (-ent[j], meta.feature_names[j]))
        keep = sorted(ranked[:int(spec.value)])
    return FrozensetMetadata(
        meta.n_items,
        tuple(meta.feature_names[j] for j in keep),
        tuple(meta.columns[j] for j in keep),
    )


def prune_items_oracle(meta, min_features):
    counts = np.zeros(meta.n_items, dtype=np.int64)
    for col in meta.columns:
        for i in col:
            counts[i] += 1
    mask = counts >= min_features
    if not mask.any():
        raise InsufficientDataError("every item was pruned")
    new_of_old = {old: new for new, old in enumerate(np.flatnonzero(mask))}
    columns = tuple(
        frozenset(new_of_old[i] for i in col if mask[i]) for col in meta.columns
    )
    return FrozensetMetadata(int(mask.sum()), meta.feature_names, columns), mask


def select_features_oracle(meta, names):
    index = {n: j for j, n in enumerate(meta.feature_names)}
    return FrozensetMetadata(
        meta.n_items, tuple(names), tuple(meta.columns[index[n]] for n in names)
    )


def restrict_items_oracle(meta, item_indices):
    new_of_old = {old: new for new, old in enumerate(item_indices)}
    columns = tuple(
        frozenset(new_of_old[i] for i in col if i in new_of_old)
        for col in meta.columns
    )
    return FrozensetMetadata(len(item_indices), meta.feature_names, columns)


def random_metadata_oracle(n_items, n_features, rng, marginal_range=(0.05, 0.95)):
    lo, hi = marginal_range
    width = len(str(n_features - 1)) if n_features > 1 else 1
    names, columns = [], []
    for j in range(n_features):
        p = lo + rng.random() * (hi - lo)
        held = rng.random(n_items) < p
        names.append(f"f{j:0{width}d}")
        columns.append(frozenset(np.flatnonzero(held).tolist()))
    return FrozensetMetadata(n_items, tuple(names), tuple(columns))


def assert_same(meta: MetadataMatrix, oracle: FrozensetMetadata):
    assert meta.feature_names == oracle.feature_names
    assert meta.n_items == oracle.n_items
    assert meta.X.dtype == np.bool_ and meta.X.flags.c_contiguous
    assert not meta.X.flags.writeable
    np.testing.assert_array_equal(meta.X, oracle.dense == 1.0)
    # marginals are bit-identical, not merely close
    assert meta.marginals.tobytes() == oracle.marginals.tobytes()
    np.testing.assert_array_equal(meta.supports(), oracle.supports())


@st.composite
def record_sets(draw):
    """Records over a few items, attributes and values; some items repeat
    and some records name items outside a supplied index."""
    n_items = draw(st.integers(1, 8))
    attrs = ["genre", "decade", "tag"]
    values = ["a", "b", "c", "d"]
    records = []
    for _ in range(draw(st.integers(1, 12))):
        item = f"i{draw(st.integers(0, n_items))}"
        chosen = draw(st.dictionaries(
            st.sampled_from(attrs), st.frozensets(st.sampled_from(values)),
            max_size=3,
        ))
        records.append(RawItemRecord(item, chosen))
    return n_items, records


@given(record_sets(), st.booleans())
def test_encode_one_hot_matches_frozenset_oracle(case, indexed):
    n_items, records = case
    if indexed:
        index = {f"i{k}": (k * 3) % n_items for k in range(n_items)}
        kwargs = {"item_index": index, "n_items": n_items}
    else:
        kwargs = {}
    assert_same(encode_one_hot(records, **kwargs),
                encode_one_hot_oracle(records, **kwargs))


@st.composite
def matrices(draw):
    n_items = draw(st.integers(1, 9))
    n_features = draw(st.integers(0, 7))
    columns = [
        draw(st.frozensets(st.integers(0, n_items - 1))) for _ in range(n_features)
    ]
    names = draw(st.permutations([f"x{j}" for j in range(n_features)]))
    return (MetadataMatrix.from_columns(n_items, names, columns),
            FrozensetMetadata(n_items, tuple(names), tuple(columns)))


SPECS = st.one_of(
    st.floats(0.0, 1.0).map(FeatureFilterSpec.entropy_threshold),
    st.integers(1, 8).map(FeatureFilterSpec.min_support),
    st.integers(1, 8).map(FeatureFilterSpec.top_k_entropy),
)


@given(matrices(), SPECS)
def test_filter_features_matches_frozenset_oracle(pair, spec):
    meta, oracle = pair
    assert_same(meta, oracle)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = filter_features(meta, spec)
    assert_same(out, filter_features_oracle(oracle, spec))


@given(matrices(), st.integers(1, 4))
def test_prune_items_matches_frozenset_oracle(pair, min_features):
    meta, oracle = pair
    try:
        expected, expected_mask = prune_items_oracle(oracle, min_features)
    except InsufficientDataError:
        with pytest.raises(InsufficientDataError):
            prune_items(meta, min_features)
        return
    pruned, mask = prune_items(meta, min_features)
    assert_same(pruned, expected)
    assert mask.dtype == np.bool_
    np.testing.assert_array_equal(mask, expected_mask)


@given(matrices(), st.data())
def test_select_features_matches_frozenset_oracle(pair, data):
    meta, oracle = pair
    names = data.draw(st.permutations(meta.feature_names))
    names = names[:data.draw(st.integers(0, len(names)))]
    assert_same(select_features(meta, names), select_features_oracle(oracle, names))


@given(matrices(), st.data())
def test_restrict_items_matches_frozenset_oracle(pair, data):
    # Distinct indices: the shadow's item indices never repeat, and the
    # oracle keeps only the last position of a repeated index.
    meta, oracle = pair
    order = data.draw(st.permutations(range(meta.n_items)))
    rows = order[:data.draw(st.integers(1, meta.n_items))]
    assert_same(restrict_items(meta, rows), restrict_items_oracle(oracle, rows))


@given(st.integers(0, 40), st.integers(0, 12), st.integers(0, 2**32 - 1),
       st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted))
def test_random_metadata_matches_frozenset_oracle(n_items, n_features, seed, span):
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    meta = random_metadata(n_items, n_features, rng=rng, marginal_range=tuple(span))
    expected = random_metadata_oracle(n_items, n_features, oracle_rng, tuple(span))
    assert_same(meta, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_from_columns_rejects_items_outside_range():
    with pytest.raises(ValidationError, match="outside"):
        MetadataMatrix.from_columns(2, ("a",), (frozenset({2}),))
    with pytest.raises(ValidationError, match="one column per feature"):
        MetadataMatrix.from_columns(2, ("a", "b"), (frozenset(),))


def test_encode_rejects_index_outside_total():
    recs = [RawItemRecord("x", {"g": frozenset({"1"})})]
    with pytest.raises(ValidationError, match="outside"):
        encode_one_hot(recs, item_index={"x": 3}, n_items=2)


def test_constructor_takes_only_boolean_arrays():
    with pytest.raises(ValidationError, match="boolean"):
        MetadataMatrix(("a",), np.ones((2, 1)))
    with pytest.raises(ValidationError, match="one column"):
        MetadataMatrix(("a", "b"), np.ones((2, 1), dtype=bool))
    held = np.ones((2, 1), dtype=bool)
    meta = MetadataMatrix(("a",), held)
    held[0, 0] = False  # the matrix keeps its own copy
    assert meta.X[0, 0] and meta.marginals.tolist() == [1.0]
    assert meta.X.sum() == 2
