"""Shared fixtures and oracle helpers."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import settings

from reclens.datamodel import MetadataMatrix, RatingsMatrix
from reclens.regressors import RegressionTree, TreeForest, TreeNode, TreeParams
from reclens.shadow import LinearKind, ShadowModel, TreeKind

# Property tests draw the same examples on every run, so a tier-1 result is
# repeatable; no deadline, because example run times vary with machine load.
settings.register_profile("reclens", derandomize=True, deadline=None)
settings.load_profile("reclens")


def identity_meta(n_items: int) -> MetadataMatrix:
    """One exclusive feature per item: row i is the i-th unit vector."""
    width = len(str(n_items - 1))
    return MetadataMatrix.from_columns(
        n_items,
        tuple(f"id{i:0{width}d}" for i in range(n_items)),
        tuple(frozenset([i]) for i in range(n_items)),
    )


def make_meta(n_items: int, columns: dict[str, set[int]]) -> MetadataMatrix:
    names = tuple(sorted(columns))
    return MetadataMatrix.from_columns(
        n_items, names, tuple(frozenset(columns[n]) for n in names)
    )


def complete_low_rank_ratings(
    n_users: int,
    n_items: int,
    rank: int,
    rng: np.random.Generator,
    scale: tuple[float, float] = (1.0, 5.0),
) -> tuple[RatingsMatrix, np.ndarray]:
    """A complete ratings matrix of exact rank ``rank`` with every value
    inside the scale: one constant factor carries the midpoint, the rest
    perturb it by less than the half-width."""
    lo, hi = scale
    mid = (lo + hi) / 2
    half = (hi - lo) / 2
    U = np.empty((n_users, rank))
    V = np.empty((n_items, rank))
    U[:, 0] = 1.0
    V[:, 0] = mid
    if rank > 1:
        spread = 0.9 * half / (rank - 1)
        U[:, 1:] = rng.uniform(-1.0, 1.0, size=(n_users, rank - 1))
        V[:, 1:] = rng.uniform(-spread, spread, size=(n_items, rank - 1))
    R = U @ V.T
    assert R.min() >= lo and R.max() <= hi
    users, items = np.divmod(np.arange(n_users * n_items), n_items)
    return (
        RatingsMatrix(
            n_users=n_users,
            n_items=n_items,
            users=users,
            items=items,
            ratings=R.ravel(),
            scale=scale,
        ),
        R,
    )


def leaf_tree(value: float, n_features: int) -> RegressionTree:
    return RegressionTree(
        root=TreeNode(value=float(value)),
        params=TreeParams(max_depth=0),
        n_features=n_features,
    )


def predict_tree(tree: RegressionTree, X) -> np.ndarray:
    """One tree's prediction for every row of X, as a forest of one."""
    return TreeForest((tree,)).predict_batch(X)[:, 0]


def walk_tree(tree: RegressionTree, x) -> float:
    """One row's prediction by walking the tree's node objects from its
    root, independently of the flat arrays that batch routing reads."""
    node = tree.root
    while not node.is_leaf:
        node = node.right if bool(x[node.feature]) else node.left
    return node.value


def path_oracle(tree, X):
    """(rows, features): the features tested on each row's path, once per
    row, found by walking the tree's node objects."""
    rows, features = [], []
    for r, x in enumerate(X):
        tested, node = set(), tree.root
        while not node.is_leaf:
            tested.add(node.feature)
            node = node.right if bool(x[node.feature]) else node.left
        rows += [r] * len(tested)
        features += sorted(tested)
    return np.array(rows, dtype=np.intp), np.array(features, dtype=np.intp)


def flip_oracle(tree, X, rows, features):
    """f(x | x_j = 1) - f(x | x_j = 0) for each pair by walking the tree."""
    out = []
    for r, j in zip(rows, features):
        on, off = X[r].copy(), X[r].copy()
        on[j], off[j] = 1.0, 0.0
        out.append(walk_tree(tree, on) - walk_tree(tree, off))
    return np.array(out)


def repeat_tree(n_features: int) -> RegressionTree:
    """x0 at the root; x2 under its left child, x0 again under its right."""
    return RegressionTree(
        root=TreeNode(
            feature=0,
            left=TreeNode(feature=2, left=TreeNode(value=1.0),
                          right=TreeNode(value=2.0)),
            right=TreeNode(feature=0, left=TreeNode(value=3.0),
                           right=TreeNode(value=4.0)),
        ),
        params=TreeParams(max_depth=2),
        n_features=n_features,
    )


def random_tree(rng: np.random.Generator, n_features: int, depth: int) -> RegressionTree:
    """A hand-built tree of at most ``depth`` levels.  Each split draws its
    feature with replacement, so a path may test a feature more than once,
    and each leaf one of five values, so leaves often tie."""
    def grow(level):
        if level == depth or (level and rng.random() < 0.25):
            return TreeNode(value=float(rng.integers(-2, 3)) / 2)
        return TreeNode(feature=int(rng.integers(n_features)),
                        left=grow(level + 1), right=grow(level + 1))

    return RegressionTree(
        root=grow(0), params=TreeParams(max_depth=depth), n_features=n_features
    )


def manual_shadow(
    factors,
    user_factors,
    meta: MetadataMatrix,
    item_indices=None,
    ridge: float = 0.0,
) -> ShadowModel:
    """Assemble a ShadowModel directly (all items in both splits): a tree
    shadow from a sequence of trees, its kind taken from the first tree, or
    a linear shadow of ``ridge`` from a (weights, intercepts) pair."""
    if isinstance(factors[0], RegressionTree):
        fitted = {"forest": TreeForest(tuple(factors)),
                  "kind": TreeKind(factors[0].params)}
    else:
        weights, intercepts = factors
        fitted = {"weights": weights, "intercepts": intercepts,
                  "kind": LinearKind(ridge=ridge)}
    if item_indices is None:
        item_indices = np.arange(meta.n_items)
    item_indices = np.asarray(item_indices, dtype=np.int64)
    return ShadowModel(
        **fitted,
        user_factors=np.asarray(user_factors, dtype=np.float64),
        feature_names=meta.feature_names,
        item_indices=item_indices,
        train_items=item_indices,
        eval_items=item_indices,
        eval_is_train=True,
    )


def shadow_factors(shadow: ShadowModel):
    """What ``manual_shadow`` takes to rebuild the shadow's factors: its
    trees, or its (weights, intercepts)."""
    if shadow.forest is not None:
        return shadow.forest.trees
    return shadow.weights, shadow.intercepts


def fit_linear_oracle(X, y, ridge) -> tuple[np.ndarray, float]:
    """(w, b) from the ridge normal equations formed and solved for one
    target alone."""
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    G = A.T @ A
    G[np.diag_indices(d)] += ridge
    z = np.linalg.solve(G, A.T @ y)
    return z[:d], float(z[d])


def write_ratings_csv(path, rows, header="userId,movieId,rating,timestamp"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def write_metadata_jsonl(path, records: dict[str, dict[str, list[str]]]):
    with open(path, "w", encoding="utf-8") as fh:
        for item_id, attrs in records.items():
            fh.write(json.dumps({"item_id": item_id, "attributes": attrs}))
            fh.write("\n")


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
