"""Per-factor predictor families: ridge linear regression and CART
regression trees over 0/1 features.

Both are deterministic: identical inputs always produce identical models.
A linear shadow's k factors are one (features, k) weight matrix and k
intercepts, as ``fit_linear_columns`` fits them; ``predict_linear``
multiplies fixed blocks of ``LINEAR_BLOCK`` rows by them, so a row's
prediction never depends on the batch around it.  A tree reads its
features as booleans: every split sends the rows where the feature is
False left and the others right, and no tree grows deeper than
``MAX_TREE_DEPTH`` levels, so that every fitted tree can be saved in a
shadow file and read back.
A ``TreeForest`` routes the k factor trees of a shadow together, one numpy
step per tree level, in groups of trees capped by ``FOREST_PAIRS``; a
single tree predicts as a forest of one.  ``TreeForest.walk`` routes each
(tree, row) pair once and reads off it the leaf, the features tested on
the path and each one's flip effect, which is all that an influence
report needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError, check_types, is_finite_real

# (tree, row) pairs that a TreeForest routes at once.  Its working set is a
# few dozen arrays of up to pairs x depth (tree, row, feature) path entries;
# at this cap an item set as large as a depth-8, rank-50 MovieLens-100k
# shadow's universe still runs one tree at a time, as the per-tree loop did.
FOREST_PAIRS = 2048

# Rows that predict_linear multiplies at once.  Every product has this many
# rows, the last block padded with zero rows, so BLAS runs the same kernel
# for every row whatever the batch size and wherever the row sits in it; a
# plain X @ W rounds a row differently as the number of rows changes.
LINEAR_BLOCK = 64

# The deepest tree a shadow may hold.  Growing a tree, writing it and
# reading it back each recurse once per level, and Python's default limit
# of 1000 frames, less those of the callers, must cover them: a tree 989
# levels deep still fits and saves, but its shadow file no longer loads.
MAX_TREE_DEPTH = 512


def predict_linear(
    X: np.ndarray, weights: np.ndarray, intercepts: np.ndarray
) -> np.ndarray:
    """X @ weights + intercepts for a (rows, features) X, an (features, k)
    weight matrix and k intercepts: a C-contiguous (rows, k) array.

    X is multiplied in blocks of ``LINEAR_BLOCK`` rows, the last one padded
    with zero rows, so each row of the result is bit-identical to that row
    predicted alone, at any position in a batch of any size.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != len(weights):
        raise ValidationError(
            f"attribute matrix has shape {X.shape}, expected (*, {len(weights)})"
        )
    n = len(X)
    out = np.empty((n, weights.shape[1]))
    block = np.zeros((LINEAR_BLOCK, X.shape[1]))
    for start in range(0, n, LINEAR_BLOCK):
        rows = X[start:start + LINEAR_BLOCK]
        block[:len(rows)] = rows
        block[len(rows):] = 0.0
        out[start:start + len(rows)] = (block @ weights)[:len(rows)]
    out += intercepts
    return out


def check_ridge(ridge) -> None:
    """Raise ``ValidationError`` unless ridge is a finite number >= 0: an
    infinite ridge zeroes every weight, and NaN poisons the solve."""
    if not is_finite_real(ridge) or ridge < 0:
        raise ValidationError(f"ridge must be a finite number >= 0, got {ridge!r}")


def fit_linear(X: np.ndarray, y: np.ndarray, ridge: float) -> tuple[np.ndarray, float]:
    """(w, b) minimizing ||Xw + b - y||^2 + ridge*||w||^2, via the normal
    equations on the intercept-augmented system (b unpenalized)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValidationError("X must be 2-d with one row per target value")
    weights, intercepts = fit_linear_columns(X, y[:, None], ridge)
    return weights[:, 0], float(intercepts[0])


def fit_linear_columns(
    X: np.ndarray, Y: np.ndarray, ridge: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fit_linear` for each column of Y, forming the Gram matrix of
    the intercept-augmented X once for all of them: a C-ordered (features,
    k) weight matrix and k intercepts.

    Each column gets its own right-hand side and its own solve, so every
    column is bit-identical to a separate :func:`fit_linear` call; one
    solve with all columns at once would not be.
    """
    X = np.asarray(X)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or len(X) != len(Y) or len(Y) < 1:
        raise ValidationError("X must be 2-d with one row per target value")
    check_ridge(ridge)
    n, d = X.shape
    # The intercept-augmented X is the only float copy of X.
    A = np.empty((n, d + 1))
    A[:, :d] = X
    A[:, d] = 1.0
    G = A.T @ A
    G[np.diag_indices(d)] += ridge  # intercept column left unpenalized
    Z = np.empty((d + 1, Y.shape[1]))
    for j in range(Y.shape[1]):
        try:
            Z[:, j] = np.linalg.solve(G, A.T @ Y[:, j])
        except np.linalg.LinAlgError:
            raise SolverError(
                "normal equations are singular; use ridge > 0 to regularize"
            ) from None
    return Z[:d], Z[d]


@dataclass(frozen=True)
class TreeParams:
    """CART settings: the deepest level a tree may grow to, at most
    ``MAX_TREE_DEPTH``, and the fewest training rows a leaf may hold.

    Features are 0/1, so a split has no threshold to choose and a column
    no bins to cut.  ``min_leaf`` is keyword-only, so that a positional
    second argument, which was once ``bins``, fails rather than set it.
    """

    max_depth: int = 5
    min_leaf: int = field(default=1, kw_only=True)

    def __post_init__(self):
        check_types(self, integers=("max_depth", "min_leaf"))
        if self.max_depth < 0:
            raise ValidationError("max_depth must be >= 0")
        if self.max_depth > MAX_TREE_DEPTH:
            raise ValidationError(
                f"max_depth must be <= {MAX_TREE_DEPTH}, got {self.max_depth}"
            )
        if self.min_leaf < 1:
            raise ValidationError("min_leaf must be >= 1")


@dataclass(frozen=True, eq=False)
class TreeNode:
    """Internal node (feature, children) or leaf (value).  Rows whose
    feature is False go left, the others right.  Nodes compare by identity."""

    feature: int | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """A fitted tree.  ``root`` is the stored and serialized form; the flat
    arrays that a ``TreeForest`` routes are built from it at construction,
    so threads that share a tree never race to build them.  Construction
    rejects a leaf whose value is not a finite number and a split whose
    feature is not an integer index below ``n_features`` (a bool is none),
    so a tree read from a file predicts only finite numbers.  Trees compare
    by params, width and flat arrays, so with no recursion at any depth."""

    root: TreeNode
    params: TreeParams
    n_features: int

    def __post_init__(self):
        # Breadth-first node arrays.  A leaf's children are the leaf itself,
        # so rows that reach a shallow leaf stay there for the later levels.
        nodes, levels = [self.root], [0]
        feature, left, right, value = [], [], [], []
        for i, node in enumerate(nodes):  # nodes grows while it is walked
            if node.is_leaf:
                if not is_finite_real(node.value):
                    raise ValidationError(
                        f"tree node {i} holds leaf value {node.value!r}, not a "
                        "finite number"
                    )
                feature.append(0)
                left.append(i)
                right.append(i)
                value.append(node.value)
                continue
            if (
                node.left is None
                or node.right is None
                or not isinstance(node.feature, (int, np.integer))
                or isinstance(node.feature, bool)
                or not 0 <= node.feature < self.n_features
            ):
                raise ValidationError(
                    f"tree node {i} is neither a leaf nor a split on one of "
                    f"{self.n_features} features"
                )
            feature.append(node.feature)
            left.append(len(nodes))
            right.append(len(nodes) + 1)
            value.append(np.nan)
            nodes += [node.left, node.right]
            levels += [levels[i] + 1] * 2
        for name, values, dtype in (
            ("_feature", feature, np.intp),
            ("_left", left, np.intp),
            ("_right", right, np.intp),
            ("_value", value, np.float64),
        ):
            object.__setattr__(self, name, np.array(values, dtype=dtype))
        object.__setattr__(self, "_depth", max(levels))

    def __eq__(self, other):
        # equal_nan, because split nodes hold NaN values.
        return isinstance(other, RegressionTree) and all(
            np.array_equal(getattr(self, a), getattr(other, a), equal_nan=True)
            for a in ("_feature", "_left", "_right", "_value")
        ) and (self.params, self.n_features) == (other.params, other.n_features)


@dataclass(frozen=True)
class TreeForest:
    """Trees over the same features, routed together: each step moves every
    (tree, row) pair down one level, so a batch takes as many numpy steps
    as its deepest tree has levels, whatever the number of trees.

    The trees' flat node arrays are concatenated, each tree's child indices
    offset by the position of its root.  Trees are taken in groups of
    consecutive indices with rows x trees <= ``FOREST_PAIRS`` (one tree at
    least), so memory stays bounded for any number of trees and rows.  A
    lone ``RegressionTree`` routes as a forest of one.  ``predict_batch``
    routes every pair to its leaf; ``walk`` also keeps the route, to find
    the features on each path and flip each one from where the path first
    tests it.
    """

    trees: tuple

    def __post_init__(self):
        trees = tuple(self.trees)
        object.__setattr__(self, "trees", trees)
        if not trees or len({t.n_features for t in trees}) != 1:
            raise ValidationError("a forest needs trees over the same features")
        sizes = [len(t._value) for t in trees]
        roots = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
        for name, parts in (
            ("_feature", [t._feature for t in trees]),
            ("_left", [t._left + r for t, r in zip(trees, roots)]),
            ("_right", [t._right + r for t, r in zip(trees, roots)]),
            ("_value", [t._value for t in trees]),
        ):
            object.__setattr__(self, name, np.concatenate(parts))
        object.__setattr__(self, "_root", roots)
        object.__setattr__(
            self, "_depth", np.array([t._depth for t in trees], dtype=np.intp)
        )

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    def groups(self, n_rows: int) -> list[range]:
        """Consecutive tree index ranges of at most ``FOREST_PAIRS //
        n_rows`` trees each, and of one tree at least."""
        size = max(1, FOREST_PAIRS // max(n_rows, 1))
        return [
            range(start, min(start + size, self.n_trees))
            for start in range(0, self.n_trees, size)
        ]

    def _checked(self, X: np.ndarray) -> np.ndarray:
        """X as a boolean 2-d array of this forest's width."""
        X = _boolean(X)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValidationError(
                f"attribute matrix has shape {X.shape}, expected (*, {self.n_features})"
            )
        return X

    def _route(self, X, trees, rows, visited=None):
        """Leaf node of each pair (tree ``trees[i]``, row ``X[rows[i]]``),
        one level per step from the tree's root; with ``visited``, the node
        array of every level is appended to it.  A leaf's children are the
        leaf itself, so pairs that reach a shallow leaf stay there for the
        later levels."""
        node = self._root[trees]
        for _ in range(self._depth[trees].max(initial=0)):
            if visited is not None:
                visited.append(node)
            node = np.where(X[rows, self._feature[node]], self._right[node],
                            self._left[node])
        return node

    def _reroute(self, X, node, rows, flipped, steps):
        """Leaf node reached from ``node[i]`` in ``steps`` levels by row
        ``X[rows[i]]`` with its value in column ``flipped[i]`` negated."""
        for _ in range(steps):
            tested = self._feature[node]
            x = X[rows, tested] != (tested == flipped)
            node = np.where(x, self._right[node], self._left[node])
        return node

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Every tree's prediction for every row of X: a C-contiguous
        (rows, trees) array."""
        X = self._checked(X)
        n = len(X)
        out = np.empty((n, self.n_trees))
        for group in self.groups(n):
            trees = np.tile(np.arange(group.start, group.stop), n)
            rows = np.repeat(np.arange(n), len(group))
            leaves = self._route(X, trees, rows)
            out[:, group.start:group.stop] = self._value[leaves].reshape(n, len(group))
        return out

    def walk(
        self, X: np.ndarray, group: range | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Route each pair of a tree of ``group`` (default all trees) and a
        row of X once, and read off that route everything an influence
        report needs.

        Returns (predicted, trees, rows, features, effects): ``predicted``
        is the (len(group), rows) array of each pair's leaf value.  Each
        triple (trees[i], rows[i], features[i]) names a feature tested on
        that pair's path, once, ordered by tree, row, then feature; no other
        feature can change the tree's prediction for the row.  ``effects[i]``
        is f_t(x | x_j = 1) - f_t(x | x_j = 0) for t = trees[i],
        x = X[rows[i]], j = features[i].

        The side of a flip where x_j keeps its value is the path's own leaf.
        The other side leaves the path at the first node that tests j, for
        its other child, and routes on from there reading x_j flipped, so a
        tree that tests j again lower down still reads the flipped value.
        """
        X = self._checked(X)
        if group is None:
            group = range(self.n_trees)
        n, width = X.shape
        pair_trees, pair_rows = np.divmod(np.arange(group.start * n, group.stop * n), n)
        visited = []
        leaves = self._route(X, pair_trees, pair_rows, visited=visited)
        predicted = self._value[leaves].reshape(len(group), n)
        levels = len(visited)
        if not levels:
            empty = np.empty(0, np.intp)
            return predicted, empty, empty, empty, np.empty(0)
        nodes = np.array(visited)
        # Every split on a path as one key that sorts by pair, feature, then
        # level; the first key of each (pair, feature) is the shallowest
        # node that tests the feature.
        level, pairs = np.nonzero(self._left[nodes] != nodes)
        keys = (pairs * width + self._feature[nodes[level, pairs]]) * levels + level
        keys.sort()
        tested, level = np.divmod(keys, levels)
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(tested[1:], tested[:-1], out=first[1:])
        tested, level = tested[first], level[first]
        pairs, features = np.divmod(tested, width)
        trees, rows = pair_trees[pairs], pair_rows[pairs]
        start = nodes[level, pairs]
        held = X[rows, features]
        # The other child of the first node that tests the feature is at
        # least one level down, so levels - 1 steps reach a leaf from it.
        other = self._reroute(
            X, np.where(held, self._left[start], self._right[start]), rows,
            features, levels - 1,
        )
        kept, flipped = self._value[leaves[pairs]], self._value[other]
        effects = np.where(held, kept - flipped, flipped - kept)
        return predicted, trees, rows, features, effects


def _boolean(X) -> np.ndarray:
    """X as a boolean array: boolean X as it is, and numeric X whose entries
    are all 0 or 1 read as booleans; any other X raises
    ``ValidationError``."""
    X = np.asarray(X)
    if X.dtype == np.bool_:
        return X
    X = X.astype(np.float64, copy=False)
    binary = (X == 0.0) | (X == 1.0)
    if not binary.all():
        raise ValidationError(
            f"tree features must be 0/1, but X holds {float(X[~binary][0])}"
        )
    return X == 1.0


def _binary_split(X, y, rows, params):
    """The feature maximizing variance reduction over boolean X, or None.

    One pass scores every feature.  With targets centred on the node mean,
    a split that puts n1 of the n rows on one side with target sum s1
    lowers the SSE by s1^2 * n / (n0 * n1).  Each column is first oriented
    so that the node's first row reads 0, and the sums run row by row, so a
    column and its complement score bit-identically and ``argmax`` keeps
    the lowest feature index among ties.
    """
    Xr = X[rows]
    Xo = Xr != Xr[0]
    n = len(rows)
    n1 = Xo.sum(axis=0)
    n0 = n - n1
    candidates = np.flatnonzero((n1 >= params.min_leaf) & (n0 >= params.min_leaf))
    if len(candidates) == 0:
        return None
    targets = y[rows]
    s1 = ((targets - targets.mean())[:, None] * Xo).sum(axis=0)[candidates]
    gain = s1 * s1 * n / (n0[candidates] * n1[candidates])
    return int(candidates[np.argmax(gain)])


def _grow(X, y, rows, depth, params) -> TreeNode:
    targets = y[rows]
    if depth >= params.max_depth or np.ptp(targets) == 0.0:
        return TreeNode(value=float(targets.mean()))
    feature = _binary_split(X, y, rows, params)
    if feature is None:
        return TreeNode(value=float(targets.mean()))
    go_right = X[rows, feature]
    return TreeNode(
        feature=feature,
        left=_grow(X, y, rows[~go_right], depth + 1, params),
        right=_grow(X, y, rows[go_right], depth + 1, params),
    )


def fit_tree(X: np.ndarray, y: np.ndarray, params: TreeParams) -> RegressionTree:
    """Greedy CART regression over 0/1 features: variance-reduction
    splits, mean-valued leaves.

    X is boolean, or numeric with every entry 0 or 1 (read as boolean);
    any other X raises ``ValidationError``.  A split sends the rows where
    its feature is False left, and one sufficient-statistics pass per node
    scores all features at once, breaking ties to the lowest feature
    index.

    Zero-gain splits are still taken while the target varies, so deeper
    trees can recover interactions (e.g. parity) that no single split
    improves on.
    """
    X = np.asarray(X)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y) or len(y) < 1:
        raise ValidationError("X must be 2-d with one row per target value")
    X = _boolean(X)
    root = _grow(X, y, np.arange(len(y)), 0, params)
    return RegressionTree(root=root, params=params, n_features=X.shape[1])
