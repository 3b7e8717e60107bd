"""Shared fixtures and oracle helpers."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.vendor import pretty

from reclens.datamodel import MetadataMatrix, RatingsMatrix
from reclens.errors import SolverError
from reclens.regressors import RegressionTree, TreeForest, TreeParams
from reclens.shadow import LinearKind, ShadowModel, TreeKind

# Property tests draw the same examples on every run, so a tier-1 result is
# repeatable; no deadline, because example run times vary with machine load.
settings.register_profile("reclens", derandomize=True, deadline=None)
settings.load_profile("reclens")


def pretty_tree(tree: RegressionTree, printer, cycle) -> None:
    """A tree as the node lists it was built from.  Hypothesis prints a
    dataclass from its init fields, and a tree does not keep its InitVars
    ``feature`` and ``value``, so without this a failing example that holds
    a tree cannot be printed."""
    feature = np.where(np.isnan(tree._value), tree._feature, -1).tolist()
    printer.text(f"RegressionTree(feature={feature}, value={tree._value.tolist()}, "
                 f"n_features={tree.n_features})")


pretty.for_type_by_name("reclens.regressors", "RegressionTree", pretty_tree)


def identity_meta(n_items: int) -> MetadataMatrix:
    """One exclusive feature per item: row i is the i-th unit vector."""
    width = len(str(n_items - 1))
    return MetadataMatrix(
        tuple(f"id{i:0{width}d}" for i in range(n_items)),
        np.eye(n_items, dtype=np.bool_),
    )


def make_meta(n_items: int, columns: dict[str, set[int]]) -> MetadataMatrix:
    """The matrix whose feature ``name`` holds exactly the items in
    ``columns[name]``, with the features in name order."""
    names = tuple(sorted(columns))
    X = np.zeros((n_items, len(names)), dtype=np.bool_)
    for j, name in enumerate(names):
        X[sorted(columns[name]), j] = True
    return MetadataMatrix(names, X)


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


def tree_of(node, n_features: int) -> RegressionTree:
    """The tree of a nested node, a leaf value or a (feature, left, right)
    tuple, with its nodes numbered level by level, left before right."""
    nodes, feature, value = [node], [], []
    for node in nodes:  # nodes grows while it is walked
        if isinstance(node, tuple):
            feature.append(node[0])
            value.append(np.nan)
            nodes += node[1:]
        else:
            feature.append(-1)
            value.append(node)
    return RegressionTree(feature, value, n_features)


def leaf_tree(value: float, n_features: int) -> RegressionTree:
    return RegressionTree([-1], [float(value)], n_features)


def chain_tree(values, n_features: int) -> RegressionTree:
    """len(values) - 1 splits in a chain: split j sends the rows with feature
    j set right, to the leaf values[j], and the rest down to split j + 1;
    the rows with none of them set reach values[-1]."""
    node = float(values[-1])
    for j in range(len(values) - 2, -1, -1):
        node = (j, node, float(values[j]))
    return tree_of(node, n_features)


def is_split(tree: RegressionTree) -> list:
    """Whether each node splits, from its value alone: NaN at a split, a
    finite number at a leaf."""
    return np.isnan(tree._value).tolist()


def node_children(tree: RegressionTree) -> list:
    """Each node's (left, right) children, None at a leaf, from the
    breadth-first numbering alone and not from the tree's child arrays:
    the s-th split's children are the next two nodes not yet taken."""
    children, taken = [], 1
    for split in is_split(tree):
        children.append((taken, taken + 1) if split else None)
        taken += 2 if split else 0
    return children


def node_rows(tree: RegressionTree, X) -> tuple[list, list]:
    """The rows of X that reach each node, and each node's level, by the
    same numbering as ``node_children``."""
    rows, levels = [np.arange(len(X))], [0]
    for i, (f, split) in enumerate(zip(tree._feature.tolist(), is_split(tree))):
        if split:
            right = np.asarray(X)[rows[i], f] == 1
            rows += [rows[i][~right], rows[i][right]]
            levels += [levels[i] + 1] * 2
    return rows, levels


def predict_tree(tree: RegressionTree, X) -> np.ndarray:
    """One tree's prediction for every row of X, as a forest of one."""
    return TreeForest((tree,)).predict_batch(X)[:, 0]


def walk_path(tree: RegressionTree, x) -> tuple[list, float]:
    """The features tested on one row's path, in order, and its leaf value,
    by walking ``node_children``, independently of the child arrays that
    batch routing reads."""
    children, i, tested = node_children(tree), 0, []
    while children[i] is not None:
        tested.append(int(tree._feature[i]))
        i = children[i][bool(x[tested[-1]])]
    return tested, float(tree._value[i])


def walk_tree(tree: RegressionTree, x) -> float:
    """One row's prediction by ``walk_path``."""
    return walk_path(tree, x)[1]


def path_oracle(tree, X):
    """(rows, features): the features tested on each row's path, once per
    row in the order the path first tests them, found by ``walk_path``."""
    rows, features = [], []
    for r, x in enumerate(X):
        tested = dict.fromkeys(walk_path(tree, x)[0])
        rows += [r] * len(tested)
        features += list(tested)
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
    return tree_of((0, (2, 1.0, 2.0), (0, 3.0, 4.0)), n_features)


def random_tree(rng: np.random.Generator, n_features: int, depth: int) -> RegressionTree:
    """A hand-built tree of at most ``depth`` levels.  Each split draws its
    feature with replacement, so a path may test a feature more than once,
    and each leaf one of five values, so leaves often tie."""
    def grow(level):
        if level == depth or (level and rng.random() < 0.25):
            return float(rng.integers(-2, 3)) / 2
        return (int(rng.integers(n_features)), grow(level + 1), grow(level + 1))

    return tree_of(grow(0), n_features)


def manual_shadow(
    factors,
    user_factors,
    meta: MetadataMatrix,
    item_indices=None,
    ridge: float = 0.0,
) -> ShadowModel:
    """Assemble a ShadowModel directly (all items in both splits): a tree
    shadow from a sequence of trees, its kind's max_depth that of the
    deepest tree, or a linear shadow of ``ridge`` from a (weights,
    intercepts) pair."""
    if isinstance(factors[0], RegressionTree):
        depth = max(tree.depth for tree in factors)
        fitted = {"forest": TreeForest(tuple(factors)),
                  "kind": TreeKind(TreeParams(max_depth=depth))}
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
    """(w, b) from the ridge normal equations formed with BLAS and solved
    by LAPACK for one target alone: a cross-check of ``fit_linear``'s
    arithmetic, equal to it only within rounding."""
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    G = A.T @ A
    G[np.diag_indices(d)] += ridge
    z = np.linalg.solve(G, A.T @ y)
    return z[:d], float(z[d])


def fit_linear_reference(X, y, ridge) -> tuple[np.ndarray, float]:
    """(w, b) for one target by the arithmetic of ``fit_linear_columns``,
    written as plain scalar loops: its bits, step by step.

    The unknowns are the features by ascending count of nonzeros (ties by
    index), then the intercept.  Each Gram entry and right-hand side sums
    its products over the rows in order.  Row j of U is G's row j less the
    products of the rows above, summed in order; so is row j of the forward
    substitution, and the back substitution subtracts each solved row from
    the rows above it in turn.  Zero products are added as they come, where
    ``fit_linear_columns`` skips them: for finite inputs that changes no
    bit.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    p = d + 1
    counts = [sum(1 for r in range(n) if X[r, f] != 0) for f in range(d)]
    order = sorted(range(d), key=lambda f: counts[f])
    cols = [[float(v) for v in X[:, f]] for f in order] + [[1.0] * n]
    y = [float(v) for v in y]
    G = [[0.0] * p for _ in range(p)]
    for a in range(p):
        for b in range(a, p):
            for r in range(n):
                if cols[a][r] != 0 and cols[b][r] != 0:
                    G[a][b] += cols[a][r] * cols[b][r]
    for a in range(d):
        G[a][a] += ridge
    floor = [p * np.finfo(np.float64).eps * G[a][a] for a in range(p)]
    U = [[0.0] * p for _ in range(p)]
    for j in range(p):
        row = []
        for m in range(j, p):
            total = 0.0
            for t in range(j):
                total += U[t][j] * U[t][m]
            row.append(G[j][m] - total)
        if not row[0] > floor[j]:
            raise SolverError("normal equations are singular; use ridge > 0 "
                              "to regularize")
        U[j][j] = math.sqrt(row[0])
        for m in range(j + 1, p):
            U[j][m] = row[m - j] / U[j][j]
    z = [0.0] * p
    for a in range(p):
        for r in range(n):
            if cols[a][r] != 0:
                z[a] += cols[a][r] * y[r]
    for j in range(p):
        total = 0.0
        for t in range(j):
            total += U[t][j] * z[t]
        z[j] = (z[j] - total) / U[j][j]
    for j in reversed(range(p)):
        z[j] /= U[j][j]
        for t in range(j):
            z[t] -= U[t][j] * z[j]
    w = np.empty(d)
    w[order] = z[:d]
    return w, z[d]


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


def write_wide_data(data):
    """Seeded ratings and metadata in directory ``data`` whose metadata keeps
    more than 128 of its 160 tag features after the entropy filter, so that
    solves of that many unknowns run."""
    rng = np.random.default_rng(20261019)
    n_users, n_items, n_features = 120, 180, 160
    rows = [(f"u{u}", f"m{i}", int(rng.integers(1, 6)), 0)
            for u in range(n_users)
            for i in rng.choice(n_items, size=int(rng.integers(20, 60)),
                                replace=False)]
    rows += [(f"u{i % n_users}", f"m{i}", 3, 0) for i in range(n_items)]
    data.mkdir()
    write_ratings_csv(data / "ratings.csv", rows)
    marginals = rng.uniform(0.05, 0.5, n_features)
    write_metadata_jsonl(data / "meta.jsonl", {
        f"m{i}": {"tag": [f"t{j:03d}" for j in range(n_features)
                          if rng.random() < marginals[j]]}
        for i in range(n_items)
    })


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
