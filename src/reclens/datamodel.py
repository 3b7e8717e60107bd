"""Core numeric containers shared by the whole pipeline.

All types are immutable after construction (arrays are marked read-only),
so they can be shared freely across threads.
"""

from __future__ import annotations

import json
import operator
import os
from contextlib import contextmanager, suppress
from dataclasses import KW_ONLY, InitVar, dataclass, field
from itertools import chain, count

import numpy as np

from .errors import (
    FormatError,
    OutputError,
    ValidationError,
    check_types,
    excerpt,
    is_finite_real,
)


# Array rows that write_json encodes at once, which bounds its working set.
JSON_ROWS = 256

# Numbers the temporary files that open_output creates in this process.
_TEMP_IDS = count()


def _frozen_array(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype`` that no caller can
    write through.

    A read-only ndarray of ``dtype`` that owns its memory is taken as it
    is, without a copy: whoever made it read-only gave up writing it, as
    :func:`~reclens.ingest.load_ratings` does with the arrays it builds.
    Anything else, a writeable array or a view of one included, is copied.
    """
    if (type(values) is np.ndarray and values.dtype == dtype
            and values.base is None and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def check_ids(kind: str, ids, n_rows: int | None = None, noun: str = "id") -> None:
    """Reject external ``kind`` ids, or the ``noun`` they go by, that are
    not strings, that repeat or, when ``n_rows`` is given, that do not name
    exactly one factor row each."""
    if ids is None:
        return
    for i in ids:
        if not isinstance(i, str):
            raise ValidationError(f"{kind} {noun} {excerpt(repr(i))} is not a string")
    if n_rows is not None and len(ids) != n_rows:
        raise ValidationError(
            f"{len(ids)} {kind} {noun}s for {n_rows} {kind} factor rows"
        )
    if len(set(ids)) < len(ids):
        seen = set()
        repeated = next(i for i in ids if i in seen or seen.add(i))
        raise ValidationError(f"{kind} {noun} {excerpt(repr(repeated))} is repeated")


def check_scale(scale) -> None:
    """Raise ``ValidationError`` unless the rating scale (low, high) is two
    finite numbers with low < high."""
    lo, hi = scale
    if not (is_finite_real(lo) and is_finite_real(hi)):
        problem = "is not two finite numbers"
    elif not lo < hi:
        problem = "must satisfy low < high"
    else:
        return
    raise ValidationError(f"rating scale {excerpt(repr(scale))} {problem}")


@dataclass(frozen=True)
class RatingsMatrix:
    """Sparse (user, item, rating) triplets: the ground-truth matrix.

    Indices are dense and 0-based; external identifiers, when known, live in
    ``user_ids`` / ``item_ids`` (position = dense index), one unique id per
    user or item.  Construction sorts the (user, item) pairs to reject a
    repeated one, unless ``pairs_unique`` promises that none repeats, as
    :func:`~reclens.ingest.load_ratings` does once its own sort has found
    or resolved every repeat.
    """

    n_users: int
    n_items: int
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    scale: tuple[float, float] = (1.0, 5.0)
    user_ids: tuple[str, ...] | None = None
    item_ids: tuple[str, ...] | None = None
    _: KW_ONLY
    pairs_unique: InitVar[bool] = False

    def __post_init__(self, pairs_unique):
        object.__setattr__(self, "users", _frozen_array(self.users, np.int64))
        object.__setattr__(self, "items", _frozen_array(self.items, np.int64))
        object.__setattr__(self, "ratings", _frozen_array(self.ratings, np.float64))
        if not (len(self.users) == len(self.items) == len(self.ratings)):
            raise ValidationError("users, items and ratings must have equal length")
        check_scale(self.scale)
        lo, hi = self.scale
        if self.nnz:
            if self.users.min() < 0 or self.users.max() >= self.n_users:
                raise ValidationError("user index out of range")
            if self.items.min() < 0 or self.items.max() >= self.n_items:
                raise ValidationError("item index out of range")
            if self.ratings.min() < lo or self.ratings.max() > hi:
                raise ValidationError(f"rating outside declared scale {self.scale}")
        if self.nnz and not pairs_unique:
            pairs = self.users * self.n_items + self.items
            pairs.sort()
            if (pairs[1:] == pairs[:-1]).any():
                raise ValidationError("duplicate (user, item) pair")
        check_ids("user", self.user_ids, self.n_users)
        check_ids("item", self.item_ids, self.n_items)

    @property
    def nnz(self) -> int:
        return len(self.ratings)


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
        check_types(self, integers=("rank",), reals=("lam",))
        if self.rank < 1:
            raise ValidationError(
                f"rank must be >= 1, got {excerpt(repr(self.rank))}"
            )
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


def _dot(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``rows @ u`` for (n, k) ``rows``, without BLAS: each row's k products
    added in factor order onto +0.0, so its bits depend on no BLAS kernel
    and no other row.  A numpy sum along axis 0 of a C-ordered (k, n)
    array adds in that order, but sums one column pairwise, so one row's
    products are added by Python's ``sum``, in order onto 0."""
    if len(rows) == 1:
        return np.array([sum(map(operator.mul, rows[0].tolist(), u.tolist()))])
    return np.multiply(rows.T, u[:, None], order="C").sum(axis=0)


def predict_rating(model: FactorModel, user: int, item: int) -> float:
    """Raw model output u_user . i_item in factor order, without clamping."""
    if not 0 <= user < model.n_users:
        raise IndexError(f"user index {user} out of range [0, {model.n_users})")
    if not 0 <= item < model.n_items:
        raise IndexError(f"item index {item} out of range [0, {model.n_items})")
    return float(_dot(model.item_factors[item:item + 1], model.user_factors[user])[0])


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
    """The JSON document in ``path``, after a UTF-8 byte-order mark if one
    starts it; a ``FormatError`` naming the file if it is not valid JSON or
    nests deeper than the decoder can follow."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from None
        except RecursionError:
            raise FormatError(f"{path}: not valid JSON (nested too deeply)") from None


@contextmanager
def open_output(path):
    """Yield a UTF-8 text handle, with "\\n" newlines, whose text replaces
    ``path`` whole when the block ends without an exception; otherwise
    ``path`` is left as it was.

    The text goes to a new temporary file beside ``path``, created as
    ``open`` creates a file (mode 0o666 less the umask), and ``os.replace``
    moves it onto ``path``, so a symlink at ``path`` is replaced rather than
    written through.  On any exception the temporary file is removed, and an
    ``OSError`` comes out as an ``OutputError`` that names ``path``:
    ``cannot write <path>: <reason>``.  When the block raises, the text
    still buffered is dropped rather than flushed, so the block's own
    exception comes out, not one from writing that text.
    """
    path = os.fspath(path)
    temp = None
    try:
        while temp is None:
            name = os.path.join(os.path.dirname(path),
                                f".reclens-{os.getpid()}-{next(_TEMP_IDS)}.tmp")
            try:
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except FileExistsError:
                continue
            temp = name
        fh = open(fd, "w", encoding="utf-8", newline="\n")
        try:
            yield fh
        except BaseException:
            # Closing the file beneath the buffers drops their text unwritten,
            # so a flush that would fail cannot replace the body's exception.
            fh.buffer.raw.close()
            raise
        fh.close()
        os.replace(temp, path)
    except BaseException as exc:
        if temp is not None:
            with suppress(OSError):
                os.unlink(temp)
        if isinstance(exc, OSError) and not isinstance(exc, OutputError):
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def write_json(doc: dict, path) -> None:
    """Write ``doc`` to ``path`` as one line of sorted-key JSON: the bytes of
    ``json.dumps(doc, sort_keys=True)`` with each array read as its
    ``tolist()``.  ``json.dumps`` runs the C encoder; ``json.dump`` to a
    file would run the pure-Python one, for the same bytes.

    A top-level value that is a numpy array is written ``JSON_ROWS`` rows
    at a time.  Encoded whole, a rank-20 MovieLens-100k model's factors held
    6.8 MB of floats and text at once, which set the peak RSS of ``train``.
    """
    with open_output(path) as fh:
        fh.write("{")
        for i, key in enumerate(sorted(doc)):
            value = doc[key]
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            if isinstance(value, np.ndarray):
                fh.write("[")
                for r in range(0, len(value), JSON_ROWS):
                    rows = json.dumps(value[r:r + JSON_ROWS].tolist())[1:-1]
                    fh.write(f"{', ' if r else ''}{rows}")
                fh.write("]")
            else:
                fh.write(json.dumps(value, sort_keys=True))
        fh.write("}\n")


def array_from_json(values, what: str, dtype=np.float64) -> np.ndarray:
    """A saved file's list, or list of lists, of JSON numbers as an array of
    ``dtype``: float64 for factor and weight matrices, int64 for index
    arrays.

    ``np.array`` alone would parse the string "0.5", read true as 1.0 and
    null as NaN, and truncate an index of 1.5 to 1.  Here every entry must
    be a JSON number, and every entry of an index array a whole one;
    ``ValidationError`` names ``what`` and the first entry that is not, or
    says that the rows of a list of lists differ in length.
    """
    entries = values if isinstance(values, list) else [values]
    if set(map(type, entries)) == {list}:
        if len(set(map(len, entries))) > 1:
            raise ValidationError(f"{what} rows differ in length")
        entries = list(chain.from_iterable(entries))
    kinds = set(map(type, entries))
    if not kinds <= {int, float}:
        bad = next(v for v in entries if type(v) not in (int, float))
        raise ValidationError(f"{what} holds {excerpt(repr(bad))}, not a number")
    if dtype == np.int64 and float in kinds:
        # int() raises for an infinite or NaN entry.
        bad = next((v for v in entries if int(v) != v), None)
        if bad is not None:
            raise ValidationError(f"{what} holds {excerpt(repr(bad))}, not an integer")
    return np.array(values, dtype=dtype)


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
        raise ValidationError(
            f"{path}: unsupported version {excerpt(repr(doc.get('version')))}"
        )
    try:
        return build(doc)
    except KeyError as exc:
        raise FormatError(f"{path}: {fmt} file lacks field {exc}") from None
    except (TypeError, ValueError, IndexError, OverflowError,
            ValidationError) as exc:
        raise FormatError(f"{path}: malformed {fmt} file: {exc}") from None
