"""Quantitative input influence of metadata features on shadow ratings.

The influence of a feature is the expected drop in the model's output when
that feature alone is resampled from its marginal distribution
(``qii_exact_binary``).  ``explain`` evaluates it in the equivalent form
(x_f - p_f) * (m(x|f=1) - m(x|f=0)), only where it can be nonzero: a tree
shadow's rating moves only with the features that some factor tree tests
on the item's path, so every other feature reports exactly 0.0 and sorts
by name.  ``TreeForest.walk`` routes the items through all factor trees
together, one numpy step per tree level, in groups of trees of its own;
that one route gives the shadow rating, the path features and their flip
effects, by row, then tree, then level.  None of these depends on the
user, so each metadata row is routed once per shadow and
``MetadataMatrix``: ``explain`` keeps a memo of every row it has routed
(``_RowMemo``; for a linear shadow, of each row's predicted factors), and
a query walks only the rows the memo lacks, then gathers every row's
entries from it.  The matrix's feature names are checked against the
shadow's once, when its memo starts.  A single item's query then does
work in proportion to its row's path entries, plus one copy of the
memo's name-ordered zeros.  A linear shadow's flip effect is the same
for every item, so its item-set influence is (mean(x) - p) times that
effect, and over the whole item universe it is exactly 0.0 for every
feature.  Ratings and a linear shadow's flip effects add their k products
in factor order, with no BLAS routine, so a report's every bit comes from
the shadow and the metadata alone, whatever CPU kernel BLAS runs.
``qii_monte_carlo`` samples from an empirical value pool and serves as a
cross-check.
"""

from __future__ import annotations

import json
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .datamodel import FactorModel, MetadataMatrix, _dot, open_output, predict_rating
from .errors import EstimatorMismatchError, ValidationError, excerpt, is_integer
from .shadow import ShadowModel

RatingFn = Callable[[np.ndarray], float]


def _item_index(item) -> int:
    """``item`` as an int; ``ValidationError`` unless it is an integer, since
    ``int()`` would read 3.7, "3" and True as items."""
    if not is_integer(item):
        raise ValidationError(f"item {excerpt(repr(item))} is not an integer index")
    return int(item)


@dataclass(frozen=True)
class SingleItem:
    item: int

    def __post_init__(self):
        object.__setattr__(self, "item", _item_index(self.item))


@dataclass(frozen=True)
class ItemSet:
    items: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(map(_item_index, self.items)))
        if not self.items:
            raise ValidationError("item_set scope requires at least one item")


@dataclass(frozen=True)
class InfluenceQuery:
    user: int
    scope: SingleItem | ItemSet


@dataclass(frozen=True)
class InfluenceReport:
    """Every feature's influence for one query, sorted by descending
    magnitude (feature-name tie-break), truncated to the requested length.
    """

    query: InfluenceQuery
    influences: tuple[tuple[str, float], ...]
    shadow_rating: float
    baseline_rating: float | None = None
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        scope = self.query.scope
        return {
            "user": self.query.user,
            "scope": (
                {"single_item": scope.item}
                if isinstance(scope, SingleItem)
                else {"item_set": list(scope.items)}
            ),
            "estimator": "exact_binary",
            "influences": [[name, value] for name, value in self.influences],
            "shadow_rating": self.shadow_rating,
            "baseline_rating": self.baseline_rating,
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def qii_exact_binary(
    rating_fn: RatingFn, x: np.ndarray, feature: int, marginal: float
) -> float:
    """Exact influence for a Bernoulli-distributed binary feature:
    m(x) - [p * m(x|f=1) + (1-p) * m(x|f=0)]."""
    x = np.asarray(x, dtype=np.float64)
    if x[feature] not in (0.0, 1.0):
        raise EstimatorMismatchError(
            f"feature {feature} has non-binary value {x[feature]}; "
            "use qii_monte_carlo, which samples the feature's empirical values"
        )
    if not 0.0 <= marginal <= 1.0:
        raise ValidationError(f"marginal {marginal} outside [0, 1]")
    x1 = x.copy()
    x1[feature] = 1.0
    x0 = x.copy()
    x0[feature] = 0.0
    return float(
        rating_fn(x) - (marginal * rating_fn(x1) + (1.0 - marginal) * rating_fn(x0))
    )


def qii_monte_carlo(
    rating_fn: RatingFn,
    x: np.ndarray,
    feature: int,
    column_values: Sequence[float],
    samples: int,
    seed: int = 0,
) -> float:
    """Average of m(x) - m(x|f=v) over seeded uniform draws of v from the
    feature's empirical value pool.

    Draws are grouped by value before evaluation, so the result equals the
    naive per-draw average while calling ``rating_fn`` once per distinct
    drawn value.
    """
    column_values = np.asarray(column_values, dtype=np.float64)
    if len(column_values) == 0:
        raise ValidationError("column_values must be non-empty")
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    draws = column_values[rng.integers(0, len(column_values), size=samples)]
    base = rating_fn(x)
    values, counts = np.unique(draws, return_counts=True)
    total = 0.0
    for v, c in zip(values, counts):
        xv = x.copy()
        xv[feature] = v
        total += c * (base - rating_fn(xv))
    return float(total / samples)


class _RowMemo:
    """What ``explain`` needs of the rows of one ``MetadataMatrix`` that no
    user changes: each row's k predicted factors and, for a tree shadow,
    its route entries, the (tree, feature, flip effect) triples of
    ``TreeForest.walk`` in walk order, each with the feature's lean
    x_f - p_f.  A row's entries are in tree order, one per (tree, feature)
    cell, because ``walk`` lists them by row, then tree, then level.

    The factors fill a (rows, k) array beside a mask of the rows held; the
    entries are appended to flat buffers as ``walk`` gives them, a row's
    ``count`` entries from ``start`` on.  A fill routes all the rows it is
    given in one ``walk``.  Buffers grow into new arrays and a held entry
    is never rewritten, so the views that a one-row gather returns stay
    valid.  Memory: the (rows, k) factors and three per-row indices, plus
    at most k * max_depth entries of 32 bytes for each distinct row that
    has been queried.  The memo holds ``meta`` itself, not its id, which
    a later matrix could reuse, and not the shadow, which ``_memos`` must
    not keep alive; it is only started for a ``meta`` whose feature names
    are the shadow's.

    Built when it starts, and never written after, it also holds what
    ``explain`` reads of the shadow: ``name_rank``, each feature's position
    in name order; ``name_array``, the names as an object array;
    ``zero_pairs``, the ``(name, 0.0)`` pairs in name order; and
    ``in_eval``, whether each row's item is in ``eval_items``.
    """

    def __init__(self, shadow, meta):
        self.name_array = np.array(shadow.feature_names, dtype=object)
        order = self.name_array.argsort()
        self.name_rank = order.argsort()
        self.zero_pairs = tuple((name, 0.0) for name in self.name_array[order])
        self.in_eval = np.isin(shadow.item_indices, shadow.eval_items)
        self.lock = threading.Lock()
        n = meta.n_items
        self.meta = meta
        self.factors = np.empty((n, shadow.rank))
        self.filled = np.zeros(n, dtype=bool)
        self.start = np.zeros(n, dtype=np.intp)
        self.count = np.zeros(n, dtype=np.intp)
        self.size = 0
        self.trees = self.features = np.empty(0, dtype=np.intp)
        self.lean = self.effects = np.empty(0)

    def fill(self, shadow, rows):
        """Hold the distinct ``rows``: their ``forest.walk``, or their linear
        factors and no entries."""
        X = self.meta.X[rows]
        if shadow.forest is None:
            none = np.empty(0, dtype=np.intp)
            walked = shadow.predicted_factors_batch(X), none, none, none, np.empty(0)
        else:
            walked = shadow.forest.walk(X)
        self.factors[rows], trees, at, features, effects = walked
        start, end = self.size, self.size + len(trees)
        if end > len(self.trees):
            capacity = max(end, len(self.trees) * 3 // 2)
            for name in ("trees", "features", "lean", "effects"):
                held = getattr(self, name)
                grown = np.empty(capacity, dtype=held.dtype)
                grown[:start] = held[:start]
                setattr(self, name, grown)
        span = slice(start, end)
        self.trees[span], self.features[span] = trees, features
        self.lean[span] = X[at, features] - self.meta.marginals[features]
        self.effects[span] = effects
        count = np.bincount(at, minlength=len(rows))
        self.start[rows] = start + count.cumsum() - count
        self.count[rows] = count
        self.size = end
        self.filled[rows] = True

    def gather(self, shadow, rows):
        """(factors, trees, features, lean, effects) of ``rows`` in order, a
        repeated row as often as it repeats, after filling the rows the memo
        lacks, all under the memo's lock; one row's are views."""
        with self.lock:
            if len(rows) == 1:
                row = rows[0]
                if not self.filled[row]:
                    self.fill(shadow, rows)
                at = slice(self.start[row], self.start[row] + self.count[row])
                factors = self.factors[row:row + 1]
            else:
                lacking = np.zeros(len(self.filled), dtype=bool)
                lacking[rows] = True
                lacking &= ~self.filled
                if lacking.any():
                    self.fill(shadow, np.flatnonzero(lacking))
                count = self.count[rows]
                at = np.repeat(self.start[rows] - (np.cumsum(count) - count), count)
                at += np.arange(len(at))
                factors = self.factors[rows]
            return (factors, self.trees[at], self.features[at], self.lean[at],
                    self.effects[at])


# Each shadow's row memo: a memo goes with its shadow, and a copied or
# unpickled shadow, a new object, starts with none.  The lock guards the
# map alone; each memo's own guards its rows.
_memos = weakref.WeakKeyDictionary()
_memos_lock = threading.Lock()


def _memo_of(shadow, meta) -> _RowMemo:
    """The shadow's row memo for ``meta``.  A ``meta`` other than the
    memo's starts a new one in its place, once its feature names are found
    to be the shadow's; one named otherwise raises ``ValidationError``.
    A memo that is found needs no lock, as one dict read is atomic; only
    the check and the start of a memo go under the map's lock."""
    memo = _memos.get(shadow)
    if memo is None or memo.meta is not meta:
        with _memos_lock:
            memo = _memos.get(shadow)
            if memo is None or memo.meta is not meta:
                if tuple(meta.feature_names) != tuple(shadow.feature_names):
                    raise ValidationError(
                        "metadata feature names do not match the shadow model's "
                        "features"
                    )
                memo = _memos[shadow] = _RowMemo(shadow, meta)
    return memo


def _influences(shadow, meta, rows, user):
    """Exact-binary influence of every feature, averaged over the metadata
    rows ``rows``: mean over rows of (x_f - p_f) * (m(x|f=1) - m(x|f=0));
    and f_1 .. f_k for every row, the (rows, k) array that
    ``predicted_factors_batch`` returns.

    A tree contributes only for the features tested on a row's path; any
    other flip leaves its prediction unchanged.  The path features, their
    flip effects and the factors come from the shadow's row memo, which
    walks each row once (:class:`_RowMemo`).  For several rows, one
    ``bincount`` adds each (tree, feature) cell's terms in row order into a
    (k, features) array, whose rows are added in factor order.  One row has
    at most one term per cell, held in tree order, so a ``bincount`` by
    feature adds the same terms in the same order.  A linear factor's flip
    effect is its weight, whatever the row.
    """
    u = shadow.user_factors[user]
    n_features = meta.n_features
    memo = _memo_of(shadow, meta)
    factors, trees, features, lean, effects = memo.gather(shadow, rows)
    # (bincount returns integers when it is given no entry.)
    out = np.zeros(n_features)
    if shadow.forest is None:
        out += (meta.X[rows].mean(axis=0) - meta.marginals) * _dot(shadow.weights, u)
    elif len(rows) == 1:
        out += np.bincount(features, lean * (u[trees] * effects), minlength=n_features)
    else:
        # A sum over axis 0 adds the rows one after another, in factor
        # order, when a row holds two values or more; a one-column array
        # would be summed pairwise, so its rows get a second column, of zeros.
        k, width = shadow.forest.n_trees, max(n_features, 2)
        sums = np.bincount(trees * width + features, lean * (u[trees] * effects),
                           minlength=k * width)
        sums = sums / len(rows)
        out += sums.reshape(k, width).sum(axis=0)[:n_features]
    return out, factors


def explain(
    shadow: ShadowModel,
    meta: MetadataMatrix,
    query: InfluenceQuery,
    top_k: int = 10,
    baseline: FactorModel | None = None,
) -> InfluenceReport:
    """Rank every feature by its influence on the query's shadow rating.

    single_item answers "why this recommendation"; item_set averages the
    per-item influences, answering "what does the model think this user
    likes".  Features sort by descending |influence| with a name tie-break
    and the list is cut to ``top_k``.  A feature that no factor tree tests
    on the items' paths reports exactly 0.0; only the nonzero values are
    sorted, and the zeros follow from a copy of the memo's name-ordered
    tuple ``zero_pairs``, with the moved features' pairs deleted.  A single
    item's shadow rating is its row's rating, an item set's the mean of its
    rows'.  Metadata whose feature names are not the shadow's raises
    ``ValidationError``; they are checked once per ``meta`` object, when
    the shadow's row memo for it starts (:class:`_RowMemo`).
    The report warns when items lie outside the evaluation split, unless
    the scope is an item set over the shadow's whole item universe.
    A ``baseline`` must be the model the shadow was trained from: the
    shadow keeps its ids and its user factors verbatim.
    """
    if top_k < 1:
        raise ValidationError("top_k must be >= 1")
    if not 0 <= query.user < shadow.n_users:
        raise IndexError(f"user index {query.user} out of range")
    if baseline is not None and (
        (baseline.user_ids, baseline.item_ids) != (shadow.user_ids, shadow.item_ids)
        or not np.array_equal(baseline.user_factors, shadow.user_factors)
    ):
        raise ValidationError(
            "the baseline model is not the one the shadow model was trained "
            "from: their user ids, item ids or user factors differ"
        )
    scope = query.scope
    if isinstance(scope, SingleItem):
        row = shadow.row_of_item.get(scope.item)
        if row is None:
            raise IndexError(f"item {scope.item} is not in the shadow model's "
                             "item universe")
        rows = [row]
    else:
        rows = shadow.rows_of_items(scope.items)
    memo = _memo_of(shadow, meta)
    if isinstance(scope, SingleItem):
        outside = 0 if memo.in_eval[row] else 1
    else:
        # An item set that spans the whole item universe includes the
        # training items by construction, so it is not warned about.  Every
        # item is in the universe, so it spans it when it has as many
        # distinct items.
        whole = len(set(scope.items)) == len(shadow.row_of_item)
        outside = 0 if whole else int(np.count_nonzero(~memo.in_eval[rows]))
    warnings = []
    if outside:
        warnings.append(
            f"{outside} item(s) outside the evaluation split; "
            "the explanation may be unreliable"
        )
    values, factors = _influences(shadow, meta, rows, query.user)
    ratings = _dot(factors, shadow.user_factors[query.user])
    # The mean of one rating is that rating, bit for bit.
    shadow_rating = float(ratings[0] if len(rows) == 1 else ratings.mean())
    # Only the features that moved are sorted; every other one is +0.0
    # (each sum starts from +0.0) and follows in name order: the name-ordered
    # zero pairs less those of the moved features, deleted from the highest
    # name rank down, so that each rank still indexes its own pair.
    moved = np.flatnonzero(values)
    ranks = memo.name_rank[moved]
    order = np.lexsort((ranks, -np.abs(values[moved])))
    top = moved[order[:top_k]]
    ranked = tuple(zip(memo.name_array[top].tolist(), values[top].tolist()))
    if len(ranked) < top_k:
        zeros = list(memo.zero_pairs)
        for rank in sorted(ranks.tolist(), reverse=True):
            del zeros[rank]
        ranked += tuple(zeros[:top_k - len(ranked)])
    baseline_rating = None
    if baseline is not None and isinstance(scope, SingleItem):
        baseline_rating = predict_rating(baseline, query.user, scope.item)
    return InfluenceReport(
        query=query,
        influences=ranked,
        shadow_rating=shadow_rating,
        baseline_rating=baseline_rating,
        warnings=tuple(warnings),
    )


def influence_report_svg(report: InfluenceReport, top: int = 10) -> str:
    """Horizontal bar chart of the report: features on the y axis,
    influence in stars on the x axis."""
    entries = list(report.influences[:top])
    if not entries:
        raise ValidationError("cannot chart an empty report")
    width, row_h, label_w, pad = 640, 24, 240, 8
    height = row_h * len(entries) + 2 * pad
    plot_w = width - label_w - 2 * pad
    biggest = max(abs(v) for _, v in entries) or 1.0
    mid = label_w + plot_w / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="12">',
        f'<line x1="{mid}" y1="{pad}" x2="{mid}" y2="{height - pad}" '
        'stroke="#888"/>',
    ]
    for r, (name, value) in enumerate(entries):
        y = pad + r * row_h
        bar = abs(value) / biggest * (plot_w / 2)
        x = mid if value >= 0 else mid - bar
        color = "#2c7fb8" if value >= 0 else "#d95f0e"
        parts.append(
            f'<text x="{label_w - 4}" y="{y + row_h / 2 + 4}" '
            f'text-anchor="end">{_svg_escape(name)}</text>'
        )
        parts.append(
            f'<rect class="bar" x="{x:.2f}" y="{y + 4}" width="{bar:.2f}" '
            f'height="{row_h - 8}" fill="{color}"/>'
        )
        side = x + bar + 4 if value >= 0 else x - 4
        anchor = "start" if value >= 0 else "end"
        parts.append(
            f'<text x="{side:.2f}" y="{y + row_h / 2 + 4}" '
            f'text-anchor="{anchor}">{value:+.3f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg(report: InfluenceReport, path: str | Path, top: int = 10) -> None:
    with open_output(path) as fh:
        fh.write(influence_report_svg(report, top=top) + "\n")
