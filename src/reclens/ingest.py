"""Loading and preparing input data.

Ratings come from a comma-delimited text file (``userId,movieId,rating``
with an optional trailing timestamp); item metadata comes from a
line-delimited file of JSON records.  Nominal attributes are one-hot
encoded, features are filtered by entropy or support, and items with too
little metadata are pruned from the explanation universe.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .datamodel import MetadataMatrix, RatingsMatrix
from .errors import (
    InsufficientDataError,
    ParseError,
    ValidationError,
    is_finite_real,
)


@dataclass(frozen=True)
class RawItemRecord:
    """One item's raw metadata: attribute name -> set of string values."""

    item_id: str
    attributes: Mapping[str, frozenset[str]]

    def __post_init__(self):
        if not self.item_id:
            raise ValidationError("item_id must be non-empty")
        attrs = {}
        for name, values in self.attributes.items():
            if not name:
                raise ValidationError(f"empty attribute name on item {self.item_id!r}")
            attrs[name] = frozenset(str(v) for v in values)
        object.__setattr__(self, "attributes", attrs)


_FILTER_KINDS = ("entropy_threshold", "top_k_entropy", "min_support")


@dataclass(frozen=True)
class FeatureFilterSpec:
    """Which features survive: by entropy threshold, by top-k entropy, or by
    minimum support count."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in _FILTER_KINDS:
            raise ValidationError(f"unknown filter kind {self.kind!r}")
        if not is_finite_real(self.value):
            raise ValidationError(
                f"mistyped value for {self.kind}: {self.value!r} is not a "
                "finite number"
            )
        if self.kind == "entropy_threshold":
            if self.value < 0:
                raise ValidationError("entropy threshold must be >= 0")
        else:
            if int(self.value) != self.value or self.value < 1:
                raise ValidationError(f"{self.kind} count must be an integer >= 1")

    @classmethod
    def entropy_threshold(cls, bits: float) -> "FeatureFilterSpec":
        return cls("entropy_threshold", float(bits))

    @classmethod
    def top_k_entropy(cls, k: int) -> "FeatureFilterSpec":
        return cls("top_k_entropy", int(k))

    @classmethod
    def min_support(cls, count: int) -> "FeatureFilterSpec":
        return cls("min_support", int(count))


def _text_lines(fh, path):
    """The lines of the open text file ``fh``; a ``ParseError`` naming
    ``path`` if its bytes are not valid UTF-8."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc})") from None


# Data lines per block of the vectorized ratings parser: large enough that
# the per-block numpy calls are amortized, small enough that a block's
# strings stay a small part of the process's peak memory.
RATINGS_BLOCK = 4096


def load_ratings(
    path: str | Path,
    scale: tuple[float, float] = (1.0, 5.0),
) -> RatingsMatrix:
    """Parse a ratings file into a dense-indexed matrix.

    The first line must be a header starting with ``userId``.  Duplicate
    (user, item) rows keep the last occurrence.  Users and items are
    re-indexed in order of first appearance; the external ids are kept on
    the returned matrix.

    The file is parsed ``RATINGS_BLOCK`` lines at a time with one split per
    block.  A file that is irregular in any way (a bad header, field count,
    id or rating, or bytes that are not UTF-8) is parsed again line by line
    by :func:`_load_ratings_lines`, which names the offending line, so the
    errors are those of the per-line parser.
    """
    path = Path(path)
    try:
        parsed = _parse_ratings_blocks(path, scale)
    except UnicodeDecodeError:
        parsed = None
    if parsed is None:
        return _load_ratings_lines(path, scale)
    user_index, item_index, users, items, ratings = parsed
    keys = users * len(item_index) + items
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    if not first.all():
        # A repeated pair keeps the position of its first row and the
        # rating of its last, as a dict assigned row by row would.
        last = np.concatenate((first[1:], [True]))
        ratings[order[first]] = ratings[order[last]]
        keep = np.sort(order[first])
        users, items, ratings = users[keep], items[keep], ratings[keep]
    return RatingsMatrix(
        n_users=len(user_index),
        n_items=len(item_index),
        users=users,
        items=items,
        ratings=ratings,
        scale=scale,
        user_ids=tuple(user_index),
        item_ids=tuple(item_index),
    )


def _dense_codes(index: dict[str, int], keys: list[str]) -> np.ndarray:
    """The index of each key, adding unseen keys in order of first
    appearance."""
    try:
        return np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))
    except KeyError:
        for key in dict.fromkeys(keys):
            index.setdefault(key, len(index))
        return _dense_codes(index, keys)


def _parse_ratings_blocks(path: Path, scale: tuple[float, float]):
    """(user_index, item_index, users, items, ratings) with every row kept,
    duplicates included; None if the file is irregular anywhere."""
    lo, hi = scale
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users, items = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    ratings = [np.empty(0)]
    with open(path, "r", encoding="utf-8") as fh:
        if not fh.readline().lower().lstrip("\ufeff").startswith("userid"):
            return None
        while lines := list(islice(fh, RATINGS_BLOCK)):
            commas = [line.count(",") for line in lines]
            if not 2 <= min(commas) <= max(commas) <= 3:
                lines = [line for line in lines if line.strip()]
                if not lines:
                    continue
                commas = [line.count(",") for line in lines]
                if not 2 <= min(commas) <= max(commas) <= 3:
                    return None
            if min(commas) != max(commas):
                # Pad 3-field rows with an empty timestamp field.
                lines = [line if c == 3 else line + ","
                         for line, c in zip(lines, commas)]
            stride = max(commas) + 1
            fields = ",".join(lines).split(",")
            uids = list(map(str.strip, fields[0::stride]))
            iids = list(map(str.strip, fields[1::stride]))
            if "" in uids or "" in iids:
                return None
            try:
                # float ignores the whitespace that str.strip removes, bar
                # \x1c-\x1f, on which it raises and the file falls back.
                block = np.fromiter(map(float, fields[2::stride]), np.float64,
                                    len(lines))
            except ValueError:
                return None
            if not ((block >= lo) & (block <= hi)).all():
                return None
            users.append(_dense_codes(user_index, uids))
            items.append(_dense_codes(item_index, iids))
            ratings.append(block)
    return (user_index, item_index, np.concatenate(users), np.concatenate(items),
            np.concatenate(ratings))


def _load_ratings_lines(
    path: Path,
    scale: tuple[float, float] = (1.0, 5.0),
) -> RatingsMatrix:
    """:func:`load_ratings` one line at a time: the error path, whose
    messages name the offending line, and the reference the block parser
    is tested against."""
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    cells: dict[tuple[int, int], float] = {}
    lo, hi = scale
    with open(path, "r", encoding="utf-8") as fh:
        lines = _text_lines(fh, path)
        header = next(lines, "")
        if not header.lower().lstrip("\ufeff").startswith("userid"):
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
    users = np.fromiter((u for u, _ in cells), dtype=np.int64, count=len(cells))
    items = np.fromiter((i for _, i in cells), dtype=np.int64, count=len(cells))
    ratings = np.fromiter(cells.values(), dtype=np.float64, count=len(cells))
    return RatingsMatrix(
        n_users=len(user_index),
        n_items=len(item_index),
        users=users,
        items=items,
        ratings=ratings,
        scale=scale,
        user_ids=tuple(user_index),
        item_ids=tuple(item_index),
    )


# The JSON types of one attribute value (a bool is an int).
_ATTRIBUTE_VALUE = (str, int, float)


def _json_excerpt(value, width: int = 40) -> str:
    """``value`` as JSON, cut to ``width`` characters for an error message."""
    text = json.dumps(value)
    return text if len(text) <= width else text[:width - 3] + "..."


def load_metadata(path: str | Path, source: str | None = None) -> list[RawItemRecord]:
    """Read line-delimited JSON item records.

    When ``source`` is given, attribute names are prefixed ``source:name``
    so that same-named attributes from different files stay distinct.  An
    ``item_id`` must be a string or a number, and an attribute a string,
    number or boolean or a list of them; anything else is a ``ParseError``
    that names the line.
    """
    path = Path(path)
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(_text_lines(fh, path), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict) or "item_id" not in obj:
                raise ParseError(f"{path}:{lineno}: record must have an item_id field")
            item_id = obj["item_id"]
            if isinstance(item_id, bool) or not isinstance(item_id, (str, int, float)):
                raise ParseError(
                    f"{path}:{lineno}: item_id must be a string or a number, "
                    f"not {_json_excerpt(item_id)}"
                )
            raw_attrs = obj.get("attributes", {})
            if not isinstance(raw_attrs, dict):
                raise ParseError(f"{path}:{lineno}: attributes must be an object")
            attrs = {}
            for name, values in raw_attrs.items():
                if isinstance(values, _ATTRIBUTE_VALUE):
                    values = [values]
                if not isinstance(values, list) or not all(
                    isinstance(v, _ATTRIBUTE_VALUE) for v in values
                ):
                    raise ParseError(
                        f"{path}:{lineno}: attribute {name!r} holds "
                        f"{_json_excerpt(values)}; it must be a string, number or "
                        "boolean, or a list of them"
                    )
                key = f"{source}:{name}" if source else str(name)
                attrs[key] = frozenset(str(v) for v in values)
            try:
                records.append(RawItemRecord(str(item_id), attrs))
            except ValidationError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    return records


def encode_one_hot(
    records: Sequence[RawItemRecord],
    item_index: Mapping[str, int] | None = None,
    n_items: int | None = None,
) -> MetadataMatrix:
    """One binary column per observed (attribute, value) pair.

    Columns are named ``attribute=value`` and ordered by sorted name.  By
    default items are indexed in order of first appearance; pass
    ``item_index`` (and ``n_items``) to align with an existing indexing,
    e.g. the one produced by :func:`load_ratings`.  Records whose item is
    missing from a supplied index are skipped (they cannot be rated).
    """
    if not records:
        raise ValidationError("cannot encode an empty record list")
    if item_index is None:
        item_index = {}
        for rec in records:
            item_index.setdefault(rec.item_id, len(item_index))
        total = len(item_index)
    elif n_items is not None:
        total = n_items
    elif item_index:
        total = max(item_index.values()) + 1
    else:
        raise ValidationError("item_index is empty and n_items was not given")
    rows, keys = [], []
    for rec in records:
        idx = item_index.get(rec.item_id)
        if idx is None:
            continue
        for attr, values in rec.attributes.items():
            for value in values:
                rows.append(idx)
                keys.append(f"{attr}={value}")
    names = sorted(set(keys))
    column = {name: j for j, name in enumerate(names)}
    rows = np.array(rows, dtype=np.int64)
    outside = (rows < 0) | (rows >= total)
    if outside.any():
        at = int(np.argmax(outside))
        raise ValidationError(
            f"feature {keys[at]!r} references item {rows[at]} outside [0, {total})"
        )
    X = np.zeros((total, len(names)), dtype=np.bool_)
    X[rows, np.fromiter(map(column.__getitem__, keys), np.intp, len(keys))] = True
    return MetadataMatrix(tuple(names), X)


def feature_entropy(p: float) -> float:
    """Binary Shannon entropy of a marginal probability, in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"marginal probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _entropies(meta: MetadataMatrix) -> np.ndarray:
    return np.array([feature_entropy(p) for p in meta.marginals])


def filter_features(meta: MetadataMatrix, spec: FeatureFilterSpec) -> MetadataMatrix:
    """Keep exactly the features passing the filter spec.

    ``top_k_entropy`` breaks entropy ties by ascending feature name; a k
    larger than the feature count keeps everything and warns.
    """
    if spec.kind == "entropy_threshold":
        ent = _entropies(meta)
        keep = [j for j in range(meta.n_features) if ent[j] >= spec.value]
    elif spec.kind == "min_support":
        supports = meta.supports()
        keep = [j for j in range(meta.n_features) if supports[j] >= spec.value]
    else:  # top_k_entropy
        k = int(spec.value)
        if k >= meta.n_features:
            if k > meta.n_features:
                warnings.warn(
                    f"top_k_entropy({k}) exceeds feature count "
                    f"{meta.n_features}; keeping all features"
                )
            keep = list(range(meta.n_features))
        else:
            ent = _entropies(meta)
            ranked = sorted(
                range(meta.n_features), key=lambda j: (-ent[j], meta.feature_names[j])
            )
            keep = sorted(ranked[:k])
    return MetadataMatrix(
        tuple(meta.feature_names[j] for j in keep), meta.X[:, keep]
    )


def prune_items(
    meta: MetadataMatrix, min_features: int = 1
) -> tuple[MetadataMatrix, np.ndarray]:
    """Drop items holding fewer than ``min_features`` surviving features.

    Returns the compacted matrix (marginals now reflect the pruned
    population) plus a boolean mask over the original item indexing, so
    callers can map compacted rows back to the original items.
    """
    if min_features < 1:
        raise ValidationError("min_features must be >= 1")
    mask = meta.X.sum(axis=1) >= min_features
    if not mask.any():
        raise InsufficientDataError(
            "every item was pruned; no metadata-rich items remain"
        )
    return MetadataMatrix(meta.feature_names, meta.X[mask]), mask


def select_features(meta: MetadataMatrix, names: Sequence[str]) -> MetadataMatrix:
    """Reorder/restrict the matrix to exactly the named features."""
    index = {n: j for j, n in enumerate(meta.feature_names)}
    missing = [n for n in names if n not in index]
    if missing:
        raise ValidationError(f"features {missing} not present in the metadata")
    return MetadataMatrix(tuple(names), meta.X[:, [index[n] for n in names]])


def restrict_items(meta: MetadataMatrix, item_indices: Sequence[int]) -> MetadataMatrix:
    """Compact the matrix so row j corresponds to original item
    item_indices[j]; marginals then reflect the restricted population."""
    rows = np.asarray(item_indices, dtype=np.int64).reshape(-1)
    outside = (rows < 0) | (rows >= meta.n_items)
    if outside.any():
        raise ValidationError(
            f"item index {rows[np.argmax(outside)]} outside [0, {meta.n_items})"
        )
    return MetadataMatrix(meta.feature_names, meta.X[rows])
