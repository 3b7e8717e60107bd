"""The composed shadow model: one regressor per item latent factor,
combined with the baseline's user factors, plus its agreement metrics.

A shadow's factors are all trees or all linear.  A tree shadow holds its
factor trees as one ``TreeForest``, so predicting every factor for a batch
of items takes one numpy step per tree level for all trees together, in
groups of trees capped by ``regressors.FOREST_PAIRS``.  A linear shadow
holds one (features, k) weight matrix and k intercepts, and every linear
prediction goes through ``regressors.predict_linear``, whose rows depend
neither on the batch nor on BLAS: an item's factors are the same bits in
``influence.explain``, in ``measure_agreement``'s blocks and in
``predict``.  Since factors depend only on the item, the agreement
metrics predict each distinct item once and gather those factors for
every pair and block.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .datamodel import (
    FactorModel,
    MetadataMatrix,
    _dot,
    array_from_json,
    check_ids,
    load_artifact,
    write_json,
)
from .errors import (
    InsufficientDataError,
    ValidationError,
    check_seed,
    check_types,
    excerpt,
    is_finite_real,
)
from .regressors import (
    RegressionTree,
    TreeForest,
    TreeParams,
    check_ridge,
    fit_linear_columns,
    fit_trees,
    predict_linear,
)

SHADOW_FORMAT = "reclens-shadow-model"
SHADOW_VERSION = 1

FAITHFULNESS_EPS = 1e-12

# Eval items per block in measure_agreement: its working set is a few
# (users x block) float64 matrices.
AGREEMENT_BLOCK = 128

# Version-1 shadow files write a threshold for every split and a bins count
# for every tree.  Features are 0/1, so every threshold is 0.5, and bins
# never changed a tree; both are written as these constants so that older
# readers, which require the fields, still load the files.
SPLIT_THRESHOLD = 0.5
FILE_BINS = 32


@dataclass(frozen=True)
class LinearKind:
    ridge: float = 0.1

    def __post_init__(self):
        check_ridge(self.ridge)


@dataclass(frozen=True)
class TreeKind:
    params: TreeParams


ShadowKind = LinearKind | TreeKind


@dataclass(frozen=True, eq=False)
class ShadowModel:
    """k per-factor regressors plus the baseline user factors.

    ``item_indices[row]`` is the baseline item index behind metadata row
    ``row`` (the two coincide when no pruning happened).  ``train_items``
    and ``eval_items`` are baseline item index sets from the seeded split;
    when the split keeps everything, eval falls back to the training set
    and ``eval_is_train`` is flagged so reports can say so.

    A ``TreeKind`` shadow holds ``forest``, its k factor trees, none deeper
    than the kind's ``max_depth``, which both ``predicted_factors_batch``
    and ``influence.explain`` walk.  A ``LinearKind`` shadow holds
    ``weights`` and ``intercepts``, a finite (features, k) matrix and
    k-vector, read-only, float64 and C-ordered, which
    ``predicted_factors_batch`` hands to ``regressors.predict_linear`` and
    whose rows ``influence.explain`` reads as flip effects.  The other
    kind's fields are None.  ``user_factors`` is finite, and every factor
    reads ``len(feature_names)`` features.  External ids, when given, are
    unique; ``user_ids`` names each user factor row and ``item_ids`` covers
    every entry of ``item_indices``, and the feature names are unique
    strings.  ``row_of_item``, built at construction, is a dict from each
    baseline item to its metadata row (the last, for a repeated item).
    The shadow is compared and hashed by identity.
    """

    user_factors: np.ndarray
    feature_names: tuple[str, ...]
    item_indices: np.ndarray
    train_items: np.ndarray
    eval_items: np.ndarray
    kind: ShadowKind
    forest: TreeForest | None = None
    weights: np.ndarray | None = None
    intercepts: np.ndarray | None = None
    eval_is_train: bool = False
    user_ids: tuple[str, ...] | None = None
    item_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        for name in ("user_factors", "item_indices", "train_items", "eval_items"):
            arr = np.asarray(getattr(self, name))
            arr = arr.astype(np.float64 if name == "user_factors" else np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.isfinite(self.user_factors).all():
            raise ValidationError("shadow user factors must be finite")
        check_types(self, flags=("eval_is_train",))
        trees = isinstance(self.kind, TreeKind)
        if (self.forest is None, self.weights is None, self.intercepts is None) != (
            not trees, trees, trees
        ) or (trees and not isinstance(self.forest, TreeForest)):
            raise ValidationError(
                "a tree shadow holds a forest and no linear weights" if trees
                else "a linear shadow holds weights and intercepts and no forest"
            )
        if trees:
            width, n_factors = self.forest.n_features, self.forest.n_trees
            max_depth = self.kind.params.max_depth
            for j, tree in enumerate(self.forest.trees):
                if tree.depth > max_depth:
                    raise ValidationError(
                        f"factor tree {j} has depth {tree.depth}, but the kind's "
                        f"max_depth is {max_depth}"
                    )
        else:
            for name in ("weights", "intercepts"):
                arr = np.array(getattr(self, name), dtype=np.float64, order="C")
                if not np.isfinite(arr).all():
                    raise ValidationError(f"linear shadow {name} must be finite")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
            shape = self.weights.shape
            if len(shape) != 2 or self.intercepts.shape != shape[1:]:
                raise ValidationError(
                    f"linear shadow weights {shape} and intercepts "
                    f"{self.intercepts.shape} are not (features, k) and (k,)"
                )
            width, n_factors = shape
        if n_factors != self.rank:
            raise ValidationError("one predictor per latent factor required")
        names = self.feature_names
        if width != len(names):
            raise ValidationError(
                f"the factors read {width} features, but the shadow names {len(names)}"
            )
        check_ids("feature", names, noun="name")
        check_ids("user", self.user_ids, self.n_users)
        check_ids("item", self.item_ids)
        if self.item_ids is not None:
            n_ids = len(self.item_ids)
            outside = (self.item_indices < 0) | (self.item_indices >= n_ids)
            if outside.any():
                raise ValidationError(
                    f"item index {self.item_indices[outside][0]} has no item id "
                    f"among {n_ids}"
                )
        object.__setattr__(self, "row_of_item", {
            item: row for row, item in enumerate(self.item_indices.tolist())})

    @property
    def rank(self) -> int:
        return self.user_factors.shape[1]

    @property
    def n_users(self) -> int:
        return self.user_factors.shape[0]

    def rows_of_items(self, items: Sequence[int] | np.ndarray) -> np.ndarray:
        """The metadata row behind each baseline item, from ``row_of_item``;
        ``IndexError`` for an item outside the item universe, which holds
        no bool, string or fractional number."""
        if isinstance(items, np.ndarray):
            items = items.tolist()
        rows = [None if isinstance(i, (bool, np.bool_)) else self.row_of_item.get(i)
                for i in items]
        if None in rows:
            raise IndexError(f"item {items[rows.index(None)]} is not in the "
                             "shadow model's item universe")
        return np.array(rows, dtype=np.intp)

    def predicted_factors_batch(self, X: np.ndarray) -> np.ndarray:
        """f_1 .. f_k for every row of X: a C-contiguous (rows, k) array.
        A tree shadow's forest routes all its trees at once; ``explain``
        gets the same array from its own walk instead.  A linear shadow's
        rows are bit-identical whatever the batch."""
        if self.forest is not None:
            return self.forest.predict_batch(X)
        return predict_linear(X, self.weights, self.intercepts)

    def predict(self, user: int, a: np.ndarray) -> float:
        """sum_j U[user][j] * f_j(a), added in j order, for a 0/1 row ``a``."""
        if not 0 <= user < self.n_users:
            raise IndexError(f"user index {user} out of range [0, {self.n_users})")
        factors = self.predicted_factors_batch(np.asarray(a)[None])
        return float(_dot(factors, self.user_factors[user])[0])


def train_shadow(
    baseline: FactorModel,
    meta: MetadataMatrix,
    kind: ShadowKind,
    split: tuple[float, int] = (0.8, 0),
    item_indices: Sequence[int] | None = None,
) -> ShadowModel:
    """Fit one regressor per latent factor on the items' attribute rows.

    ``split`` = (train_fraction, seed) partitions items once; every factor
    is trained on the same rows.  ``item_indices`` maps metadata rows to
    baseline item indices after pruning; by default the metadata must span
    the baseline item set one to one.
    """
    if item_indices is None:
        if meta.n_items != baseline.n_items:
            raise ValidationError(
                f"metadata covers {meta.n_items} items but the baseline has "
                f"{baseline.n_items}; pass item_indices after pruning"
            )
        item_indices = np.arange(meta.n_items, dtype=np.int64)
    else:
        item_indices = np.asarray(item_indices, dtype=np.int64)
        if len(item_indices) != meta.n_items:
            raise ValidationError("item_indices must have one entry per metadata row")
        if len(item_indices) and (
            item_indices.min() < 0 or item_indices.max() >= baseline.n_items
        ):
            raise ValidationError("item_indices out of baseline range")
    train_fraction, seed = split
    if not 0.0 < train_fraction <= 1.0:
        raise ValidationError("split must be in (0, 1]")
    check_seed(seed)
    n = meta.n_items
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(train_fraction * n))
    train_rows = np.sort(perm[:n_train])
    eval_rows = np.sort(perm[n_train:])
    if len(train_rows) < 2:
        raise InsufficientDataError(
            f"only {len(train_rows)} training item(s); need at least 2"
        )
    eval_is_train = len(eval_rows) == 0
    if eval_is_train:
        eval_rows = train_rows
    X = meta.X[train_rows]
    Y = baseline.item_factors[item_indices[train_rows]]
    if isinstance(kind, LinearKind):
        weights, intercepts = fit_linear_columns(X, Y, kind.ridge)
        factors = {"weights": weights, "intercepts": intercepts}
    else:
        factors = {"forest": TreeForest(fit_trees(X, Y, kind.params))}
    return ShadowModel(
        **factors,
        user_factors=baseline.user_factors,
        feature_names=meta.feature_names,
        item_indices=item_indices,
        train_items=item_indices[train_rows],
        eval_items=item_indices[eval_rows],
        kind=kind,
        eval_is_train=eval_is_train,
        user_ids=baseline.user_ids,
        item_ids=baseline.item_ids,
    )


def _distinct(items: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``items``, as ``np.unique`` gives them,
    from a sort and a neighbour comparison: a plain ``np.unique`` imports
    ``numpy.ma`` in numpy 2.4, which costs a ``shadow`` process ~9 ms."""
    ordered = np.sort(items)
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _item_predictions(shadow, meta, items):
    """(distinct, where, factors): the sorted distinct ``items``, each
    item's position among them, and the shadow's predicted factors of each
    distinct item, predicted once however often the item repeats.  Rows
    predict alike in any batch, so ``factors[where]`` is bit-identical to
    predicting ``items`` themselves."""
    distinct = _distinct(items)
    rows = shadow.rows_of_items(distinct)
    factors = shadow.predicted_factors_batch(meta.X[rows])
    return distinct, np.searchsorted(distinct, items), factors


def _latent_mae(predicted, truth) -> tuple[np.ndarray, float]:
    """Per-factor MAE of ``predicted`` vs ``truth`` item factors, and its
    mean."""
    if len(truth) == 0:
        raise ValidationError("latent agreement over an empty item set is undefined")
    per_factor = np.abs(predicted - truth).mean(axis=0)
    return per_factor, float(per_factor.mean())


def latent_agreement(
    shadow: ShadowModel,
    baseline: FactorModel,
    meta: MetadataMatrix,
    items: Iterable[int],
) -> tuple[np.ndarray, float]:
    """Per-factor MAE of predicted vs baseline item factors, and its mean."""
    items = np.asarray(list(items), dtype=np.int64)
    _, where, factors = _item_predictions(shadow, meta, items)
    return _latent_mae(factors[where], baseline.item_factors[items])


def _pair_predictions(shadow, baseline, meta, pairs):
    """(users, distinct, where, shadow_pred, base_pred) over the pairs, with
    ``distinct`` and ``where`` as :func:`_item_predictions` gives them for
    the pairs' items."""
    if not isinstance(pairs, (np.ndarray, Sequence)):
        pairs = list(pairs)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) == 0:
        raise ValidationError("agreement over an empty pair set is undefined")
    users, items = pairs[:, 0], pairs[:, 1]
    distinct, where, factors = _item_predictions(shadow, meta, items)
    shadow_pred = np.einsum("ij,ij->i", shadow.user_factors[users], factors[where])
    base_pred = np.einsum(
        "ij,ij->i", baseline.user_factors[users], baseline.item_factors[items]
    )
    return users, distinct, where, shadow_pred, base_pred


def _random_factors(shadow, baseline, distinct, seed):
    """faithfulness's randomized latent vectors, one per distinct item: a
    per-factor uniform draw from that factor's range over the shadow's
    items."""
    universe = baseline.item_factors[shadow.item_indices]
    lo = universe.min(axis=0)
    hi = universe.max(axis=0)
    rng = np.random.default_rng(seed)
    return lo + rng.random((len(distinct), shadow.rank)) * (hi - lo)


def observational_agreement(
    shadow: ShadowModel,
    baseline: FactorModel,
    meta: MetadataMatrix,
    pairs: Iterable[tuple[int, int]],
) -> tuple[float, float]:
    """MAE and MSE of (baseline rating - shadow rating) over the pairs.

    The comparison target is always the baseline model's prediction, never
    the ground-truth rating.
    """
    *_, shadow_pred, base_pred = _pair_predictions(shadow, baseline, meta, pairs)
    resid = base_pred - shadow_pred
    return float(np.abs(resid).mean()), float(np.mean(resid**2))


def faithfulness(
    shadow: ShadowModel,
    baseline: FactorModel,
    meta: MetadataMatrix,
    pairs: Iterable[tuple[int, int]],
    seed: int = 0,
) -> float:
    """MSE with randomized latent predictions divided by the shadow's MSE.

    Each item's predicted latent vector is replaced by a per-factor uniform
    draw from that factor's empirical range across the shadow's items;
    values far above 1 mean the shadow captures real signal.
    """
    users, distinct, where, shadow_pred, base_pred = _pair_predictions(
        shadow, baseline, meta, pairs
    )
    mse_shadow = float(np.mean((base_pred - shadow_pred) ** 2))
    random_factors = _random_factors(shadow, baseline, distinct, seed)
    rand_pred = np.einsum(
        "ij,ij->i", shadow.user_factors[users], random_factors[where]
    )
    mse_random = float(np.mean((base_pred - rand_pred) ** 2))
    return mse_random / max(mse_shadow, FAITHFULNESS_EPS)


@dataclass(frozen=True)
class AgreementReport:
    per_factor_mae: tuple[float, ...]
    mean_latent_mae: float
    observational_mae: float
    observational_mse: float
    faithfulness: float

    def __post_init__(self):
        if any(v < 0 for v in self.per_factor_mae) or min(
            self.mean_latent_mae,
            self.observational_mae,
            self.observational_mse,
            self.faithfulness,
        ) < 0:
            raise ValidationError("agreement metrics must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)


def measure_agreement(
    shadow: ShadowModel,
    baseline: FactorModel,
    meta: MetadataMatrix,
    item_set: str = "eval",
    seed: int = 0,
) -> AgreementReport:
    """Bundle latent and observational agreement over a named item set
    ("eval", "train" or "all"); pairs are all users x those items.

    The observational MAE/MSE and the faithfulness ratio equal
    :func:`observational_agreement` and :func:`faithfulness` over that pair
    grid (same random draw for the same seed), but are accumulated over
    blocks of ``AGREEMENT_BLOCK`` items as ``U @ V_blockᵀ`` matrix
    products, so memory is O(users x block) rather than a list of every
    pair.  The items' factors are predicted once, for the latent MAE and
    every block.
    """
    if item_set == "eval":
        items = shadow.eval_items
    elif item_set == "train":
        items = shadow.train_items
    elif item_set == "all":
        items = shadow.item_indices
    else:
        raise ValidationError(f"unknown item set {excerpt(repr(item_set))}")
    check_seed(seed)
    distinct, where, factors = _item_predictions(shadow, meta, items)
    per_factor, mean_mae = _latent_mae(factors[where], baseline.item_factors[items])
    random_factors = _random_factors(shadow, baseline, distinct, seed)
    abs_sum = sq_sum = rand_sq_sum = 0.0
    for start in range(0, len(items), AGREEMENT_BLOCK):
        block = slice(start, start + AGREEMENT_BLOCK)
        base = baseline.user_factors @ baseline.item_factors[items[block]].T
        resid = base - shadow.user_factors @ factors[where[block]].T
        abs_sum += float(np.abs(resid).sum())
        sq_sum += float((resid**2).sum())
        rand = random_factors[where[block]]
        rand_sq_sum += float(((base - shadow.user_factors @ rand.T) ** 2).sum())
    n_pairs = shadow.n_users * len(items)
    mse = sq_sum / n_pairs
    return AgreementReport(
        per_factor_mae=tuple(float(v) for v in per_factor),
        mean_latent_mae=mean_mae,
        observational_mae=abs_sum / n_pairs,
        observational_mse=mse,
        faithfulness=(rand_sq_sum / n_pairs) / max(mse, FAITHFULNESS_EPS),
    )


def _tree_doc(tree: RegressionTree) -> dict:
    """A tree's nested version-1 node documents, built from the last node
    back, so that each split finds its children's."""
    feature, left, right, value = (
        a.tolist() for a in (tree._feature, tree._left, tree._right, tree._value))
    docs = [None] * len(value)
    for i in reversed(range(len(docs))):
        if left[i] == i:
            docs[i] = {"value": value[i]}
        else:
            docs[i] = {"feature": feature[i], "threshold": SPLIT_THRESHOLD,
                       "left": docs[left[i]], "right": docs[right[i]]}
    return docs[0]


def _tree_from_doc(root: dict, n_features) -> RegressionTree:
    """The tree of nested version-1 node documents, read in the order that
    ``RegressionTree`` numbers nodes."""
    nodes, feature, value = [root], [], []
    for node in nodes:  # nodes grows while it is walked
        if "value" in node:
            feature.append(-1)
            value.append(node["value"])
            continue
        if node["threshold"] != SPLIT_THRESHOLD:
            raise ValidationError(
                f"tree split threshold {excerpt(repr(node['threshold']))} is not "
                f"{SPLIT_THRESHOLD}; features are 0/1"
            )
        # -1 marks a leaf, so a split on it splits on no feature.
        feature.append(None if node["feature"] == -1 else node["feature"])
        value.append(np.nan)
        nodes += [node["left"], node["right"]]
    return RegressionTree(feature, value, n_features)


def _kind_doc(kind: ShadowKind) -> dict:
    """The kind's type and settings as a shadow file writes them, in its
    kind document and again in each predictor document."""
    if isinstance(kind, LinearKind):
        return {"type": "linear", "ridge": kind.ridge}
    return {"type": "tree", "max_depth": kind.params.max_depth, "bins": FILE_BINS,
            "min_leaf": kind.params.min_leaf}


def _predictor_docs(shadow: ShadowModel) -> list[dict]:
    """A file document per tree, or per weight column."""
    settings = _kind_doc(shadow.kind)
    if shadow.forest is not None:
        return [{**settings, "n_features": t.n_features, "root": _tree_doc(t)}
                for t in shadow.forest.trees]
    return [{**settings, "weights": w.tolist(), "intercept": float(b)}
            for w, b in zip(shadow.weights.T, shadow.intercepts)]


def _family(doc: dict, what: str) -> str:
    """The ``type`` field of a kind or predictor document: "linear" or
    "tree"; anything else raises ``ValidationError``."""
    if doc["type"] not in ("linear", "tree"):
        raise ValidationError(
            f"{what} type {excerpt(repr(doc['type']))} is neither 'linear' nor 'tree'"
        )
    return doc["type"]


def _factors_from_docs(docs: list, kind: ShadowKind, names) -> dict:
    """The ``forest``, or the ``weights`` and ``intercepts``, of a shadow
    file's predictor documents, checked against its kind and names.  Each
    predictor's copy of a kind setting must equal the kind's; the kind
    alone is read."""
    settings = _kind_doc(kind)
    family = settings["type"]
    for j, doc in enumerate(docs):
        linear = _family(doc, "predictor") == "linear"
        width = len(doc["weights"]) if linear else doc["n_features"]
        if linear:
            check_ridge(doc["ridge"])
        if doc["type"] != family:
            problem = f"is a {doc['type']} predictor, but the shadow kind is {family}"
        elif width != len(names):
            problem = (f"reads {excerpt(repr(width))} features, but the shadow names "
                       f"{len(names)}")
        # Every setting but the type and the fixed bins is the kind's; none
        # is a bool, but True == 1.
        elif field := next((f for f in settings if f not in ("type", "bins") and (
                doc[f] != settings[f] or isinstance(doc[f], bool))), None):
            problem = (f"has {field} {excerpt(repr(doc[field]))}, but the kind has "
                       f"{excerpt(repr(settings[field]))}")
        elif linear and not is_finite_real(doc["intercept"]):
            problem = (f"has intercept {excerpt(repr(doc['intercept']))}, not a finite "
                       "number")
        else:
            continue
        raise ValidationError(f"predictor {j} {problem}")
    if family == "tree":
        return {"forest": TreeForest([_tree_from_doc(doc["root"], doc["n_features"])
                                      for doc in docs])}
    return {
        "weights": np.stack([array_from_json(doc["weights"], f"predictor {j} weights")
                             for j, doc in enumerate(docs)], axis=1),
        "intercepts": [doc["intercept"] for doc in docs],
    }


def save_shadow(shadow: ShadowModel, path: str | Path) -> None:
    doc = {
        "format": SHADOW_FORMAT,
        "version": SHADOW_VERSION,
        "kind": _kind_doc(shadow.kind),
        "feature_names": list(shadow.feature_names),
        "predictors": _predictor_docs(shadow),
        "user_factors": shadow.user_factors,
        "item_indices": shadow.item_indices.tolist(),
        "train_items": shadow.train_items.tolist(),
        "eval_items": shadow.eval_items.tolist(),
        "eval_is_train": shadow.eval_is_train,
        "user_ids": list(shadow.user_ids) if shadow.user_ids is not None else None,
        "item_ids": list(shadow.item_ids) if shadow.item_ids is not None else None,
    }
    write_json(doc, path)


def load_shadow(path: str | Path) -> ShadowModel:
    def build(doc):
        kind_doc = doc["kind"]
        if _family(kind_doc, "shadow kind") == "linear":
            kind: ShadowKind = LinearKind(ridge=kind_doc["ridge"])
        else:
            kind = TreeKind(
                TreeParams(kind_doc["max_depth"], min_leaf=kind_doc["min_leaf"])
            )
        return ShadowModel(
            **_factors_from_docs(doc["predictors"], kind, doc["feature_names"]),
            user_factors=array_from_json(doc["user_factors"], "user_factors"),
            feature_names=tuple(doc["feature_names"]),
            **{name: array_from_json(doc[name], name, np.int64)
               for name in ("item_indices", "train_items", "eval_items")},
            kind=kind,
            eval_is_train=doc["eval_is_train"],
            user_ids=tuple(doc["user_ids"]) if doc.get("user_ids") is not None else None,
            item_ids=tuple(doc["item_ids"]) if doc.get("item_ids") is not None else None,
        )

    return load_artifact(path, SHADOW_FORMAT, SHADOW_VERSION, build)
