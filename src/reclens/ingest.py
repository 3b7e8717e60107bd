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

from .datamodel import MetadataMatrix, RatingsMatrix, check_scale
from .errors import (
    InsufficientDataError,
    ParseError,
    ValidationError,
    excerpt,
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
                raise ValidationError(
                    f"empty attribute name on item {excerpt(repr(self.item_id))}"
                )
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
            raise ValidationError(f"unknown filter kind {excerpt(repr(self.kind))}")
        if not is_finite_real(self.value):
            raise ValidationError(
                f"mistyped value for {self.kind}: {excerpt(repr(self.value))} is not a "
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
    (user, item) rows keep the position of the first and the rating of the
    last.  Users and items are re-indexed in order of first appearance; the
    external ids are kept on the returned matrix.  The scale is checked
    before the file is opened.

    The file is read once, ``RATINGS_BLOCK`` lines at a time.  A regular
    block (ASCII, no blank lines or whitespace to strip, all lines of 3
    fields or all of 4, valid ids and ratings) is split in one go by
    :func:`_split_block`.  Any other block is read again, on its own and
    line by line, by :func:`_parse_lines`, which strips whitespace, skips
    blank lines, takes 3- and 4-field lines mixed, and names the first bad
    line.

    The ratings are held once on their way in: each block's user codes,
    item codes and ratings (8 bytes each) are appended to buffers that
    grow in place by half, the buffers are cut to length at the end, and
    the matrix takes them as they are, read-only, without a copy.  Beyond
    one block's strings, the loader so holds at most 36 bytes per row,
    against the 24 it returns.
    """
    check_scale(scale)
    path, (lo, hi) = Path(path), scale
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    # The rows read so far are the first ``rows`` of each buffer.
    users, items = np.empty(RATINGS_BLOCK, np.int64), np.empty(RATINGS_BLOCK, np.int64)
    ratings, rows = np.empty(RATINGS_BLOCK), 0
    block, first_line = [], 2  # first_line: the line number of block[0]
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            if not fh.readline().lower().startswith("userid"):
                raise ParseError(f"{path}:1: expected a header line starting with userId")
            while True:
                first_line += len(block)
                block = []
                block.extend(islice(fh, RATINGS_BLOCK))
                if not block:
                    break
                try:
                    uids, iids, values = _split_block(block, lo, hi)
                except ValueError:
                    uids, iids, values = _parse_lines(block, first_line, path, lo, hi)
                end = rows + len(values)
                if end > len(ratings):
                    for buffer in (users, items, ratings):
                        buffer.resize(end + end // 2, refcheck=False)
                users[rows:end] = _dense_codes(user_index, uids)
                items[rows:end] = _dense_codes(item_index, iids)
                ratings[rows:end] = values
                rows = end
        except UnicodeDecodeError as exc:
            # extend kept the lines decoded before the bad bytes; a bad one
            # among them is reported first, as a line-by-line read would.
            _parse_lines(block, first_line, path, lo, hi)
            raise ParseError(f"{path}: not valid UTF-8 ({exc})") from None
    for buffer in (users, items, ratings):
        buffer.resize(rows, refcheck=False)
    users, items, ratings = _resolve_repeats(users, items, ratings, len(item_index))
    for array in (users, items, ratings):
        array.setflags(write=False)
    return RatingsMatrix(
        n_users=len(user_index),
        n_items=len(item_index),
        users=users,
        items=items,
        ratings=ratings,
        scale=scale,
        user_ids=tuple(user_index),
        item_ids=tuple(item_index),
        pairs_unique=True,
    )


def _resolve_repeats(users, items, ratings, n_items):
    """The rows with each repeated (user, item) pair resolved: the pair
    keeps the position of its first row and the rating of its last, as a
    dict assigned row by row would.  Without a repeat, the arrays given."""
    # The keys are formed in place, so that the check holds one temporary
    # of 8 bytes per row; it is the only sort of the pairs on a load
    # without repeats (load_ratings builds the matrix with pairs_unique).
    keys = users * n_items
    keys += items
    # A plain sort, in place, finds repeated pairs many times faster than
    # the stable argsort that resolving them needs.
    keys.sort()
    if not (keys[1:] == keys[:-1]).any():
        return users, items, ratings
    keys = users * n_items + items
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    last = np.concatenate((first[1:], [True]))
    ratings[order[first]] = ratings[order[last]]
    keep = np.sort(order[first])
    return users[keep], items[keep], ratings[keep]


def _dense_codes(index: dict[str, int], keys: list[str]) -> np.ndarray:
    """The index of each key, adding unseen keys in order of first
    appearance."""
    try:
        return np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))
    except KeyError:
        for key in dict.fromkeys(keys):
            index.setdefault(key, len(index))
        return _dense_codes(index, keys)


# The ASCII characters that str.strip removes, bar the line end "\n".
_PADDING = "".join(c for c in map(chr, range(128)) if c.isspace() and c != "\n")


def _split_block(lines: list[str], lo: float, hi: float):
    """(user ids, item ids, ratings) of a regular block of data lines:
    ASCII, no whitespace but the line ends, every line of 3 fields or
    every line of 4, no id empty, and every rating one that ``float`` reads
    within [lo, hi].  Any other block raises ``ValueError``.

    The block takes a fixed number of string calls, whatever its length:
    one split of the text with each line end made a field of its own.
    With every line w fields wide, each (w + 1)-th field is a line end.
    """
    text = "".join(lines)
    if not text.endswith("\n"):
        text += "\n"  # the last line of a file without a final newline
    if not text.isascii() or any(c in text for c in _PADDING):
        raise ValueError("whitespace to strip")
    fields = text.replace("\n", ",\n,").split(",")[:-1]
    stride, rest = divmod(len(fields), len(lines))
    ends = fields[stride - 1::stride]
    if rest or stride not in (4, 5) or ends != ["\n"] * len(lines):
        raise ValueError("not 3 or 4 fields on every line")
    uids, iids = fields[0::stride], fields[1::stride]
    if "" in uids or "" in iids:
        raise ValueError("an empty id")
    ratings = np.fromiter(map(float, fields[2::stride]), np.float64, len(lines))
    if not ((ratings >= lo) & (ratings <= hi)).all():
        raise ValueError("a rating outside the scale")
    return uids, iids, ratings


def _parse_lines(block: list[str], first_lineno: int, path: Path, lo, hi):
    """The rows of a block read one line at a time, the first being line
    ``first_lineno`` of ``path``: blank lines skipped, whitespace stripped
    from each line and field, 3 or 4 fields to a line; or the
    ``ParseError`` or ``ValidationError`` that names its first bad line."""
    uids, iids, ratings = [], [], []
    for lineno, line in enumerate(block, start=first_lineno):
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
                f"{path}:{lineno}: rating {excerpt(repr(rating_text))} is not a number"
            ) from None
        if not lo <= rating <= hi:
            raise ValidationError(
                f"{path}:{lineno}: rating {rating} outside scale [{lo}, {hi}]"
            )
        uids.append(uid)
        iids.append(iid)
        ratings.append(rating)
    return uids, iids, np.array(ratings, dtype=np.float64)


# The JSON types of one attribute value (a bool is an int).
_ATTRIBUTE_VALUE = (str, int, float)


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
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(_text_lines(fh, path), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise ParseError(f"{path}:{lineno}: record must be a JSON object, "
                                 f"not {excerpt(json.dumps(obj))}")
            if "item_id" not in obj:
                raise ParseError(f"{path}:{lineno}: record must have an item_id field")
            item_id = obj["item_id"]
            if isinstance(item_id, bool) or not isinstance(item_id, (str, int, float)):
                raise ParseError(
                    f"{path}:{lineno}: item_id must be a string or a number, "
                    f"not {excerpt(json.dumps(item_id))}"
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
                        f"{path}:{lineno}: attribute {excerpt(repr(name))} holds "
                        f"{excerpt(json.dumps(values))}; it must be a string, "
                        "number or boolean, or a list of them"
                    )
                key = f"{source}:{name}" if source else str(name)
                # RawItemRecord makes the frozenset of string values.
                attrs[key] = values
            try:
                records.append(RawItemRecord(str(item_id), attrs))
            except ValidationError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    return records


def encode_one_hot(
    records: Sequence[RawItemRecord],
    item_index: Mapping[str, int],
    n_items: int,
) -> MetadataMatrix:
    """One binary column per observed (attribute, value) pair.

    Columns are named ``attribute=value`` and ordered by sorted name.  Row
    ``item_index[item_id]`` of the ``n_items`` rows holds that item's
    features, so the rows follow the model's item indexing, e.g. the one
    produced by :func:`load_ratings`.  Records whose item is missing from
    the index are skipped (they cannot be rated).
    """
    if not records:
        raise ValidationError("cannot encode an empty record list")
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
    outside = (rows < 0) | (rows >= n_items)
    if outside.any():
        at = int(np.argmax(outside))
        raise ValidationError(
            f"feature {excerpt(repr(keys[at]))} references item {rows[at]} outside "
            f"[0, {n_items})"
        )
    X = np.zeros((n_items, len(names)), dtype=np.bool_)
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
                    f"top_k_entropy({excerpt(repr(k))}) exceeds feature count "
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
        shown = ", ".join(excerpt(repr(n)) for n in missing[:3])
        more = f" and {len(missing) - 3} more" if len(missing) > 3 else ""
        raise ValidationError(f"features {shown}{more} not present in the metadata")
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
