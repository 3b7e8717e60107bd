"""Quantitative input influence of metadata features on shadow ratings.

The influence of a feature is the expected drop in the model's output when
that feature alone is resampled from its marginal distribution
(``qii_exact_binary``).  ``explain`` evaluates it in the equivalent form
(x_f - p_f) * (m(x|f=1) - m(x|f=0)), only where it can be nonzero: a tree
shadow's rating moves only with the features that some factor tree tests
on the item's path, so every other feature reports exactly 0.0 and sorts
by name.  ``TreeForest.walk`` routes the items through all factor trees
together, one numpy step per tree level, in groups of trees capped by
``regressors.FOREST_PAIRS``, once per group; that one route gives the
shadow rating, the path features and their flip effects.  A linear
shadow's flip effect is the same for every item, so its
item-set influence is (mean(x) - p) times that effect, and over the whole
item universe it is exactly 0.0 for every feature.  ``qii_monte_carlo``
samples from an empirical value pool and serves as a cross-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .datamodel import FactorModel, MetadataMatrix, predict_rating
from .errors import EstimatorMismatchError, ValidationError
from .shadow import ShadowModel

RatingFn = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class SingleItem:
    item: int


@dataclass(frozen=True)
class ItemSet:
    items: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(int(i) for i in self.items))
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


def _influences(shadow, X, user, marginals):
    """Exact-binary influence of every feature, averaged over the rows of X:
    mean over rows of (x_f - p_f) * (m(x|f=1) - m(x|f=0)); and f_1 .. f_k
    for every row, the (rows, k) array that ``predicted_factors_batch``
    returns.

    A tree contributes only for the features tested on a row's path; any
    other flip leaves its prediction unchanged.  One ``TreeForest.walk``
    per group of trees gives the factor predictions, the path features and
    their flip effects.  Each tree's sums fill one row of a (k, features)
    array, whose rows are added in factor order.  A linear factor's flip
    effect is its weight, whatever the row.
    """
    u = shadow.user_factors[user]
    n, n_features = X.shape
    forest = shadow.forest
    if forest is None:
        out = np.zeros(n_features)
        out += (X.mean(axis=0) - marginals) * (shadow.weights @ u)
        return out, shadow.predicted_factors_batch(X)
    factors = np.empty((n, forest.n_trees))
    # A sum over axis 0 adds the rows one after another, in factor order,
    # when a row holds two values or more; a one-column array would be
    # summed pairwise, so it gets a second column of zeros.
    sums = np.zeros((forest.n_trees, max(n_features, 2)))
    for group in forest.groups(n):
        predicted, trees, rows, features, effects = forest.walk(X, group)
        factors[:, group.start:group.stop] = predicted.T
        lean = X[rows, features] - marginals[features]
        sums[group.start:group.stop, :n_features] = np.bincount(
            (trees - group.start) * n_features + features,
            lean * (u[trees] * effects),
            minlength=len(group) * n_features,
        ).reshape(len(group), n_features)
    sums /= n
    return sums.sum(axis=0)[:n_features], factors


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
    sorted, and the zeros follow from the shadow's name-ordered
    ``zero_pairs``.
    The report warns when items lie outside the evaluation split, unless
    the scope is an item set over the shadow's whole item universe.
    """
    if top_k < 1:
        raise ValidationError("top_k must be >= 1")
    if tuple(meta.feature_names) != tuple(shadow.feature_names):
        raise ValidationError(
            "metadata feature names do not match the shadow model's features"
        )
    if not 0 <= query.user < shadow.n_users:
        raise IndexError(f"user index {query.user} out of range")
    if isinstance(query.scope, SingleItem):
        items = [query.scope.item]
    else:
        items = query.scope.items
    rows = shadow.rows_of_items(items)
    warnings = []
    # An item set that spans the whole item universe includes the training
    # items by construction, so it is not warned about.
    whole = isinstance(query.scope, ItemSet) and np.isin(
        shadow.item_indices, items).all()
    outside = 0 if whole else int(np.count_nonzero(~shadow.in_eval[rows]))
    if outside:
        warnings.append(
            f"{outside} item(s) outside the evaluation split; "
            "the explanation may be unreliable"
        )
    values, factors = _influences(shadow, meta.X[rows], query.user, meta.marginals)
    shadow_rating = float((factors @ shadow.user_factors[query.user]).mean())
    # Only the features that moved are sorted; every other one is +0.0
    # (each sum starts from +0.0) and follows in name order.
    moved = np.flatnonzero(values)
    order = np.lexsort((shadow.name_rank[moved], -np.abs(values[moved])))
    top = moved[order[:top_k]]
    ranked = tuple(zip(shadow.name_array[top].tolist(), values[top].tolist()))
    if len(ranked) < top_k:
        unmoved = np.ones(len(values), dtype=bool)
        unmoved[shadow.name_rank[moved]] = False
        ranked += tuple(shadow.zero_pairs[unmoved][:top_k - len(ranked)])
    baseline_rating = None
    if baseline is not None and isinstance(query.scope, SingleItem):
        baseline_rating = predict_rating(baseline, query.user, query.scope.item)
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(influence_report_svg(report, top=top))
        fh.write("\n")
