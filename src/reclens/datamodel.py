"""Core numeric containers shared by the whole pipeline.

All types are immutable after construction (arrays are marked read-only),
so they can be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, ValidationError


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def check_ids(kind: str, ids, n_rows: int | None = None) -> None:
    """Reject external ``kind`` ids that repeat or, when ``n_rows`` is
    given, that do not name exactly one factor row each."""
    if ids is None:
        return
    if n_rows is not None and len(ids) != n_rows:
        raise ValidationError(
            f"{len(ids)} {kind} ids for {n_rows} {kind} factor rows"
        )
    if len(set(ids)) < len(ids):
        seen = set()
        repeated = next(i for i in ids if i in seen or seen.add(i))
        raise ValidationError(f"{kind} id {repeated!r} is repeated")


@dataclass(frozen=True)
class RatingsMatrix:
    """Sparse (user, item, rating) triplets: the ground-truth matrix.

    Indices are dense and 0-based; external identifiers, when known, live in
    ``user_ids`` / ``item_ids`` (position = dense index), one unique id per
    user or item.
    """

    n_users: int
    n_items: int
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    scale: tuple[float, float] = (1.0, 5.0)
    user_ids: tuple[str, ...] | None = None
    item_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "users", _frozen_array(self.users, np.int64))
        object.__setattr__(self, "items", _frozen_array(self.items, np.int64))
        object.__setattr__(self, "ratings", _frozen_array(self.ratings, np.float64))
        if not (len(self.users) == len(self.items) == len(self.ratings)):
            raise ValidationError("users, items and ratings must have equal length")
        lo, hi = self.scale
        if not lo < hi:
            raise ValidationError(f"rating scale {self.scale} must satisfy low < high")
        if self.nnz:
            if self.users.min() < 0 or self.users.max() >= self.n_users:
                raise ValidationError("user index out of range")
            if self.items.min() < 0 or self.items.max() >= self.n_items:
                raise ValidationError("item index out of range")
            if self.ratings.min() < lo or self.ratings.max() > hi:
                raise ValidationError(f"rating outside declared scale {self.scale}")
            pairs = np.sort(self.users * self.n_items + self.items)
            if (pairs[1:] == pairs[:-1]).any():
                raise ValidationError("duplicate (user, item) pair")
        check_ids("user", self.user_ids, self.n_users)
        check_ids("item", self.item_ids, self.n_items)

    @property
    def nnz(self) -> int:
        return len(self.ratings)

    @classmethod
    def from_entries(
        cls,
        n_users: int,
        n_items: int,
        entries: Iterable[tuple[int, int, float]],
        scale: tuple[float, float] = (1.0, 5.0),
        user_ids: Sequence[str] | None = None,
        item_ids: Sequence[str] | None = None,
    ) -> "RatingsMatrix":
        entries = list(entries)
        users = [e[0] for e in entries]
        items = [e[1] for e in entries]
        ratings = [e[2] for e in entries]
        return cls(
            n_users,
            n_items,
            np.asarray(users, dtype=np.int64),
            np.asarray(items, dtype=np.int64),
            np.asarray(ratings, dtype=np.float64),
            scale=scale,
            user_ids=tuple(user_ids) if user_ids is not None else None,
            item_ids=tuple(item_ids) if item_ids is not None else None,
        )


@dataclass(frozen=True)
class FactorModel:
    """Dense user and item factor matrices of rank ``rank``.

    The predicted rating for a (user, item) pair is the dot product of the
    corresponding factor rows; predictions are never clamped to the rating
    scale.  External ids, when given, are unique and name one factor row
    each (position = row).
    """

    rank: int
    lam: float
    user_factors: np.ndarray
    item_factors: np.ndarray
    user_ids: tuple[str, ...] | None = None
    item_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "user_factors", _frozen_array(self.user_factors, np.float64)
        )
        object.__setattr__(
            self, "item_factors", _frozen_array(self.item_factors, np.float64)
        )
        if self.rank < 1:
            raise ValidationError(f"rank must be >= 1, got {self.rank}")
        if self.user_factors.ndim != 2 or self.user_factors.shape[1] != self.rank:
            raise ValidationError("user_factors must be n_users x rank")
        if self.item_factors.ndim != 2 or self.item_factors.shape[1] != self.rank:
            raise ValidationError("item_factors must be n_items x rank")
        if not np.all(np.isfinite(self.user_factors)) or not np.all(
            np.isfinite(self.item_factors)
        ):
            raise ValidationError("factor matrices must be finite")
        check_ids("user", self.user_ids, self.n_users)
        check_ids("item", self.item_ids, self.n_items)

    @property
    def n_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_factors.shape[0]


def predict_rating(model: FactorModel, user: int, item: int) -> float:
    """Raw model output u_user . i_item, without clamping."""
    if not 0 <= user < model.n_users:
        raise IndexError(f"user index {user} out of range [0, {model.n_users})")
    if not 0 <= item < model.n_items:
        raise IndexError(f"item index {item} out of range [0, {model.n_items})")
    return float(model.user_factors[user] @ model.item_factors[item])


@dataclass(frozen=True)
class MetadataMatrix:
    """Items x binary interpretable features.

    ``X`` is a read-only, C-ordered ``bool`` array: ``X[i, j]`` is whether
    item ``i`` holds feature ``feature_names[j]``.  ``marginals[j]`` caches
    the empirical probability ``X[:, j].mean()``.
    """

    feature_names: tuple[str, ...]
    X: np.ndarray
    marginals: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        X = np.asarray(self.X)
        if X.dtype != np.bool_ or X.ndim != 2:
            raise ValidationError("X must be a boolean items x features array")
        if X.shape[1] != len(self.feature_names):
            raise ValidationError("one column per feature name required")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValidationError("feature names must be unique")
        X = np.array(X, order="C")
        X.setflags(write=False)
        marg = X.mean(axis=0) if len(X) else np.zeros(X.shape[1])
        marg.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "marginals", marg)

    @classmethod
    def from_columns(
        cls,
        n_items: int,
        feature_names: Sequence[str],
        columns: Sequence[Iterable[int]],
    ) -> "MetadataMatrix":
        """The matrix whose column ``j`` holds exactly the items in
        ``columns[j]``."""
        if len(feature_names) != len(columns):
            raise ValidationError("one column per feature name required")
        X = np.zeros((n_items, len(columns)), dtype=np.bool_)
        for j, (name, col) in enumerate(zip(feature_names, columns)):
            for i in col:
                if not 0 <= i < n_items:
                    raise ValidationError(
                        f"feature {name!r} references item {i} outside "
                        f"[0, {n_items})"
                    )
                X[i, j] = True
        return cls(feature_names, X)

    @property
    def n_items(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def supports(self) -> np.ndarray:
        return self.X.sum(axis=0, dtype=np.int64)

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"unknown feature {name!r}") from None


def read_json(path):
    """The JSON document in ``path``; a ``FormatError`` naming the file if it
    is not valid JSON or nests deeper than the decoder can follow."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from None
        except RecursionError:
            raise FormatError(f"{path}: not valid JSON (nested too deeply)") from None


def write_json(doc, path) -> None:
    """Write ``doc`` to ``path`` as one line of sorted-key JSON.
    ``json.dumps`` runs the C encoder; ``json.dump`` to a file would run
    the pure-Python one, for the same bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def load_artifact(path, fmt: str, version: int, build):
    """Read a versioned JSON artifact and turn it into an object with
    ``build(doc)``.

    Bad JSON, a missing or mistyped field, and a value its type rejects all
    raise one ``FormatError`` that names the file.
    """
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValidationError(f"{path}: not a {fmt} file")
    if doc.get("version") != version:
        raise ValidationError(f"{path}: unsupported version {doc.get('version')}")
    try:
        return build(doc)
    except KeyError as exc:
        raise FormatError(f"{path}: {fmt} file lacks field {exc}") from None
    except (TypeError, ValueError, IndexError, OverflowError,
            ValidationError) as exc:
        raise FormatError(f"{path}: malformed {fmt} file: {exc}") from None
