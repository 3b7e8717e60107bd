"""Per-factor predictor families: ridge linear regression and CART
regression trees over 0/1 features.

Both are deterministic: identical inputs always produce identical models.
Both read X as booleans, 0/1 numbers included (:func:`_boolean`).
A linear shadow's k factors are one (features, k) weight matrix and k
intercepts, as ``fit_linear_columns`` fits them: it counts the Gram matrix
of the intercept-augmented X by popcounts of its packed columns, factors
it once by a Cholesky written in elementwise numpy, and substitutes all k
right-hand sides together.  ``predict_linear`` adds each row's weight rows
in feature order, then the intercepts.  Neither calls BLAS and every sum
runs in a fixed order, so no BLAS setting changes a bit, a fitted column
has the bits of its own fit, and a predicted row those it has alone.
A tree is its breadth-first node arrays and reads its features as
booleans: every split sends the rows where the feature is False left and
the others right, and no tree grows deeper than ``MAX_TREE_DEPTH`` levels,
so that every fitted tree can be saved in a shadow file and read back.
``fit_trees`` grows the k factor trees of a shadow together, level by
level.  On sparse X (below ``SPARSE_DENSITY`` ones) it scores each level's
splits from X's ones with one ``bincount`` per group of nodes, capped by
``SPLIT_CELLS``; on denser X each node runs ``_binary_split`` over every
column.  Both give each tree bit for bit as growing it alone would.
A ``TreeForest`` routes the k factor trees of a shadow together, one numpy
step per tree level, in groups of trees capped by ``FOREST_PAIRS``; a
single tree predicts as a forest of one.  ``TreeForest.walk`` routes each
(tree, row) pair once and reads off it the leaf, the features tested on
the path, each at the first node that tests it, and each one's flip
effect, which is all that an influence report needs, by row, then tree.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import SolverError, ValidationError, check_types, excerpt, is_finite_real

# (tree, row) pairs that a TreeForest routes at once, by row, then tree.
# Its working set is a few dozen arrays of up to pairs x depth path entries;
# at this cap an item set as large as a depth-8, rank-50 MovieLens-100k
# shadow's universe still runs one tree at a time, as the per-tree loop did.
FOREST_PAIRS = 2048

# The deepest tree a shadow may hold.  A version-1 shadow file nests one
# JSON object per tree level, and json's encoder and decoder recurse per
# level within Python's limit of 1000 frames: about 990 deep, a document no
# longer encodes or decodes.  No reclens function recurses.
MAX_TREE_DEPTH = 512

# The share of X's cells set to 1 below which fit_trees finds splits from
# X's ones rather than from every cell of every node; it selects nothing
# else.  On random 0/1 rows shaped like the MovieLens-100k metadata (1346 x
# 323; rank-12 depth-3 and rank-50 depth-8 forests) the sparse search took
# a third of the dense one's time at 1% ones, the same near 10%, and 3-5
# times as long at 50%, about the share of synth's metadata (a 2-vCPU
# Xeon, numpy 2.4.6).
SPARSE_DENSITY = 0.1

# Units of work that one step of the sparse split search holds at once:
# a node's (node, feature) cells plus the ones that fill them.  Each step
# takes one node at least; this bounds the grower's memory (fit_trees).
SPLIT_CELLS = 1 << 16


def predict_linear(
    X: np.ndarray, weights: np.ndarray, intercepts: np.ndarray
) -> np.ndarray:
    """X @ weights + intercepts for a (rows, features) 0/1 X, an (features,
    k) weight matrix and k intercepts: a C-contiguous (rows, k) array.

    A row is the weight rows of its ones, added in feature order, plus the
    intercepts, with no BLAS, so it has its own bits in any batch.  Step j
    adds every row's j-th one: O(rows * k) memory besides X's ones.
    """
    X = _boolean(X, len(weights))
    ones = np.count_nonzero(X, axis=1)
    features = np.nonzero(X)[1]
    start = np.cumsum(ones) - ones
    out = np.zeros((len(X), weights.shape[1]))
    for j in range(ones.max(initial=0)):
        rows = np.flatnonzero(ones > j)
        out[rows] += weights[features[start[rows] + j]]
    out += intercepts
    return out


def check_ridge(ridge) -> None:
    """Raise ``ValidationError`` unless ridge is a finite number >= 0: an
    infinite ridge zeroes every weight, and NaN poisons the solve."""
    if not is_finite_real(ridge) or ridge < 0:
        raise ValidationError(
            f"ridge must be a finite number >= 0, got {excerpt(repr(ridge))}"
        )


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
    """:func:`fit_linear` for each column of Y, from one factorization of
    the Gram matrix of the intercept-augmented 0/1 X: a C-ordered
    (features, k) weight matrix and k intercepts.

    X is read by :func:`_boolean`, with no float copy and no BLAS or LAPACK
    routine.  The unknowns are ordered by their column's count of ones,
    fewest first, the intercept last.  The Gram matrix G counts the rows
    where two columns both hold a one, by popcounts of X's packed columns
    (:func:`_popcount_gram`); each right-hand side sums its targets over X's
    ones in row order.  G is factored once as U^T U (:func:`_cholesky`) and
    all columns are substituted together (:func:`_substitute`), elementwise
    and in a fixed order, so each column is bit-identical to a separate
    :func:`fit_linear` call.  A pivot that is not above the rounding residue
    of its diagonal entry raises ``SolverError``.
    """
    X = np.asarray(X)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or len(X) != len(Y) or len(Y) < 1:
        raise ValidationError("X must be 2-d with one row per target value")
    X = _boolean(X)
    check_ridge(ridge)
    n, d = X.shape
    k = Y.shape[1]
    if not k:
        return np.empty((d, 0)), np.empty(0)
    # X's ones row by row, each row ending with its intercept entry, and
    # each entry's unknown: rare features come first, so that their
    # elimination fills in few entries of U.
    ones = np.count_nonzero(X, axis=1)
    features = np.nonzero(X)[1]
    by_count = np.argsort(np.bincount(features, minlength=d), kind="stable")
    position = np.empty(d + 1, np.intp)
    position[by_count], position[d] = np.arange(d), d
    unknown = position[np.insert(features, np.cumsum(ones), d)]
    rows = np.repeat(np.arange(n), ones + 1)
    G = _popcount_gram(X, by_count)
    G[np.arange(d), np.arange(d)] += ridge  # intercept left unpenalized
    above = _cholesky(G)
    Z = np.empty((d + 1, k))
    for j in range(k):
        Z[:, j] = np.bincount(unknown, Y[rows, j], minlength=d + 1)
    _substitute(G, above, Z)
    return Z[position[:d]], Z[d]


def _popcount_gram(X, order):
    """The upper triangle of the Gram matrix of the boolean columns
    ``X[:, order]`` and an intercept column of ones; the lower one is 0.
    Each column is packed into 64-bit words, so entry (f, g) is the
    ``np.bitwise_count`` of the words that both columns' ``&`` leaves: the
    number of rows where both hold a one, an exact integer.  Besides G and
    X it holds at most about 17 * (d + 1) * ceil(n / 64) bytes, the packed
    words and one copy of them, or one row's ``&`` and its counts, and
    numpy's iterator buffers of at most 64 KiB.
    """
    n, d = X.shape
    width = (n + 7) // 8
    packed = np.zeros((d + 1, 8 * -(-n // 64)), np.uint8)
    packed[:d, :width] = np.packbits(X, axis=0, bitorder="little").T
    packed[d, :width] = np.packbits(np.ones(n, np.bool_), bitorder="little")
    words = packed.view(np.uint64)
    words[:d] = words[order]
    G = np.zeros((d + 1, d + 1))
    for f in range(d + 1):
        G[f, f:] = np.bitwise_count(words[f] & words[f:]).sum(axis=1)
    return G


def _cholesky(G):
    """Overwrite G, upper-triangular, with the upper-triangular U such that
    U^T U = G, row by row, and return for each row j the rows above it
    that are nonzero in column j.

    Row j is G's row less the sum of the products of those rows, each
    scaled by its entry in column j; the sum runs over them in order, and
    a skipped row would have added 0.  (A numpy sum along the first axis
    of a 2-d array adds row by row; only along the last axis does it add
    pairwise.)  A pivot that is NaN or at most ``p * eps`` times its
    diagonal entry in G, the residue that rounding can leave where the
    exact pivot is 0, raises ``SolverError``.
    """
    p = len(G)
    floor = p * np.finfo(np.float64).eps * G.diagonal()
    above = []
    for j in range(p):
        rows = G[:j, j].nonzero()[0]
        row = G[j, j:]
        if len(rows):
            products = G[rows, j:] * G[rows, j, None]
            # The last row is one column wide, where sum would go pairwise.
            row -= products.sum(axis=0) if p - j > 1 else products.cumsum()[-1]
        if not row[0] > floor[j]:
            raise SolverError(
                "normal equations are singular; use ridge > 0 to regularize"
            )
        row[0] = np.sqrt(row[0])
        row[1:] /= row[0]
        above.append(rows)
    return above


def _substitute(U, above, Z):
    """Overwrite each column z of Z with the solution of U^T U x = z, where
    ``above`` lists U's nonzeros as :func:`_cholesky` returns them.

    The forward step takes from row j the sum, in order, of the solved
    rows above it times their entries in column j; the back step subtracts
    each solved row, times its column, from the rows above it.  Both work
    elementwise along the columns, so each column gets the bits it would
    get alone.
    """
    for j, rows in enumerate(above):
        if len(rows):
            Z[j] -= np.cumsum(Z[rows] * U[rows, j, None], axis=0)[-1]
        Z[j] /= U[j, j]
    for j, rows in reversed(list(enumerate(above))):
        Z[j] /= U[j, j]
        Z[rows] -= np.multiply.outer(U[rows, j], Z[j])


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
                f"max_depth must be <= {MAX_TREE_DEPTH}, got "
                f"{excerpt(repr(self.max_depth))}"
            )
        if self.min_leaf < 1:
            raise ValidationError("min_leaf must be >= 1")


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """A fitted tree as breadth-first node lists: ``feature[i]`` is node i's
    split feature, or -1 at a leaf, and ``value[i]`` a leaf's prediction (a
    split's is not read).  The s-th split's children are nodes 2s + 1 and
    2s + 2, left then right; rows whose feature is False go left.
    Construction rejects a width ``n_features`` that is not an integer
    >= 0, a leaf value that is not a finite number, a split feature that is
    not an integer index below ``n_features`` (a bool is none), a split
    without children and lists that are not one tree, so a
    tree read from a file predicts only finite numbers.  Its growth settings
    are its shadow kind's."""

    feature: InitVar[list]
    value: InitVar[list]
    n_features: int

    def __post_init__(self, feature, value):
        check_types(self, integers=("n_features",))
        if self.n_features < 0:
            raise ValidationError(
                f"n_features must be >= 0, got {excerpt(repr(self.n_features))}"
            )
        n = len(feature)
        if not n or len(value) != n:
            raise ValidationError(f"{n} features and {len(value)} values are not one tree")
        # A leaf is its own child, as TreeForest._descend needs, and tests
        # feature 0: numpy gathers slower when negative indices are mixed in.
        # levels holds the level of each node that the splits so far place.
        left, right = list(range(n)), list(range(n))
        features, values, levels = [0] * n, [np.nan] * n, [0]
        for i, f in enumerate(feature):
            if i >= len(levels):
                raise ValidationError(f"tree node {i} is no split's child")
            index = isinstance(f, (int, np.integer)) and not isinstance(f, bool)
            if index and f == -1:
                if not is_finite_real(value[i]):
                    raise ValidationError(
                        f"tree node {i} holds leaf value "
                        f"{excerpt(repr(value[i]))}, not a finite number"
                    )
                values[i] = value[i]
            elif index and 0 <= f < self.n_features and len(levels) + 1 < n:
                features[i], left[i], right[i] = f, len(levels), len(levels) + 1
                levels += [levels[i] + 1] * 2
            else:
                raise ValidationError(
                    f"tree node {i} is neither a leaf nor a split on one of "
                    f"{self.n_features} features"
                )
        for name, nodes in (("_feature", features), ("_left", left), ("_right", right)):
            object.__setattr__(self, name, np.array(nodes, dtype=np.intp))
        object.__setattr__(self, "_value", np.array(values, dtype=np.float64))
        object.__setattr__(self, "_depth", levels[-1])  # levels never fall

    @property
    def depth(self) -> int:
        """Splits on the longest root-to-leaf path: 0 for a lone leaf."""
        return self._depth

    root = property(lambda self: NodeView(self, 0), doc="Node 0, as a view.")

    def __eq__(self, other):
        # equal_nan, because split nodes hold NaN values.
        return isinstance(other, RegressionTree) and all(
            np.array_equal(getattr(self, a), getattr(other, a), equal_nan=True)
            for a in ("_feature", "_left", "_right", "_value")
        ) and self.n_features == other.n_features


@dataclass(frozen=True)
class NodeView:
    """A tree's node ``index``; ``left`` and ``right`` are None at a leaf."""

    tree: RegressionTree
    index: int

    left = property(lambda self: self._child(self.tree._left[self.index]))
    right = property(lambda self: self._child(self.tree._right[self.index]))

    def _child(self, i):
        return None if i == self.index else NodeView(self.tree, int(i))


@dataclass(frozen=True)
class TreeForest:
    """Trees over the same features, routed together: each step moves every
    (tree, row) pair down one level, so a batch takes as many numpy steps
    as its deepest tree has levels, whatever the number of trees.

    The trees' flat node arrays are concatenated, each tree's child indices
    offset by the position of its root.  Trees are taken in groups of
    consecutive indices with rows x trees <= ``FOREST_PAIRS`` (one tree at
    least), each descending its own depth, so memory stays bounded for any
    number of trees and rows; no caller sees the groups.  A lone
    ``RegressionTree`` routes as a forest of one.  ``predict_batch``
    routes every pair to its leaf; ``walk`` also keeps the route, to find
    the features on each path at the splits marked as their first test, and
    flip each one from there.  Both descend by one loop, ``_descend``.
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
            self, "_depth", np.array([t.depth for t in trees], dtype=np.intp)
        )
        # Where a path first tests a feature: at each split whose feature no
        # ancestor tests.  Each step climbs every split's ancestry one level.
        first_test = self._left != np.arange(len(self._left))
        node = np.flatnonzero(first_test)
        parent = np.full(len(first_test), -1)
        parent[self._left[node]] = parent[self._right[node]] = node
        up = parent[node]
        while len(node):
            node, up = node[up >= 0], up[up >= 0]
            first_test[node[self._feature[up] == self._feature[node]]] = False
            up = parent[up]
        object.__setattr__(self, "_first_test", first_test)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    def _groups(self, n_rows: int):
        """Each run of at most ``FOREST_PAIRS // n_rows`` trees (one at
        least): its slice, and its pairs' trees and rows, by row then tree."""
        size = max(1, FOREST_PAIRS // max(n_rows, 1))
        for start in range(0, self.n_trees, size):
            width = min(size, self.n_trees - start)
            rows, trees = np.divmod(np.arange(n_rows * width), width)
            yield slice(start, start + width), trees + start, rows

    def _descend(self, X, node, rows, steps, flipped, visited=None):
        """Node reached from ``node[i]`` in ``steps`` levels by row
        ``X[rows[i]]``, with its value in column ``flipped[i]`` negated
        unless ``flipped`` is None; with ``visited``, the node array of
        every level is appended to it.  A leaf's children are the leaf
        itself, so pairs that reach a shallow leaf stay there for the later
        levels."""
        for _ in range(steps):
            if visited is not None:
                visited.append(node)
            tested = self._feature[node]
            x = X[rows, tested]
            if flipped is not None:
                x = x != (tested == flipped)
            node = np.where(x, self._right[node], self._left[node])
        return node

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Every tree's prediction for every row of X: a C-contiguous
        (rows, trees) array."""
        X = _boolean(X, self.n_features)
        n = len(X)
        out = np.empty((n, self.n_trees))
        for group, trees, rows in self._groups(n):
            leaves = self._descend(X, self._root[trees], rows, self._depth[group].max(),
                                   None)
            out[:, group] = self._value[leaves].reshape(n, group.stop - group.start)
        return out

    def walk(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Route each (tree, row) pair of X once, and read off that route
        everything an influence report needs.

        Returns (predicted, trees, rows, features, effects): ``predicted``
        is the (rows, trees) array of each pair's leaf value, bit for bit
        :meth:`predict_batch`'s.  Each triple (trees[i], rows[i],
        features[i]) names a feature tested on that pair's path, once,
        ordered by row, tree, then the level at which the path first tests
        the feature; no other feature can change the tree's prediction for
        the row.  ``effects[i]`` is f_t(x | x_j = 1) - f_t(x | x_j = 0) for
        t = trees[i], x = X[rows[i]], j = features[i].

        The side of a flip where x_j keeps its value is the path's own leaf.
        The other side leaves the path at the first node that tests j, for
        its other child, and routes on from there reading x_j flipped, so a
        tree that tests j again lower down still reads the flipped value.
        Those first nodes are the splits whose feature no ancestor tests.
        Each group of trees lists its entries by row; one stable sort by
        row merges the groups.
        """
        X = _boolean(X, self.n_features)
        n = len(X)
        predicted = np.empty((n, self.n_trees))
        parts = []
        for group, trees, rows in self._groups(n):
            levels, visited = self._depth[group].max(), []
            leaves = self._descend(X, self._root[trees], rows, levels, None, visited)
            width = group.stop - group.start
            predicted[:, group] = self._value[leaves].reshape(n, width)
            # By pair, so by row and tree, then by path level.  Each path
            # ends at its leaf, which is no first test.
            nodes = np.array(visited + [leaves]).T
            pairs, level = np.nonzero(self._first_test[nodes])
            start = nodes[pairs, level]
            rows, features = rows[pairs], self._feature[start]
            held = X[rows, features]
            # The other child of the first node that tests the feature is at
            # least one level down, so levels - 1 steps reach a leaf from it.
            other = self._descend(
                X, np.where(held, self._left[start], self._right[start]), rows,
                levels - 1, features,
            )
            kept, flipped = self._value[leaves[pairs]], self._value[other]
            parts.append((trees[pairs], rows, features,
                          np.where(held, kept - flipped, flipped - kept)))
        trees, rows, features, effects = map(np.concatenate, zip(*parts))
        order = np.argsort(rows, kind="stable")
        return predicted, trees[order], rows[order], features[order], effects[order]


def _boolean(X, width=None) -> np.ndarray:
    """X as a boolean array: boolean X as it is, and numeric X whose entries
    are all 0 or 1 read as booleans; any other X raises
    ``ValidationError``, as does X that is not 2-d with ``width`` columns,
    when ``width`` is given."""
    X = np.asarray(X)
    if width is not None and (X.ndim != 2 or X.shape[1] != width):
        raise ValidationError(f"attribute matrix has shape {X.shape}, expected (*, {width})")
    if X.dtype == np.bool_:
        return X
    X = X.astype(np.float64, copy=False)
    binary = (X == 0.0) | (X == 1.0)
    if not binary.all():
        raise ValidationError(
            f"features must be 0/1, but X holds {float(X[~binary][0])}"
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


def fit_tree(X: np.ndarray, y: np.ndarray, params: TreeParams) -> RegressionTree:
    """Greedy CART regression over 0/1 features: variance-reduction
    splits, mean-valued leaves; the one-column case of :func:`fit_trees`.

    X is read by :func:`_boolean`.  A split sends the rows where its
    feature is False left, and each node's split is the feature of highest
    gain, ties broken to the lowest feature index.

    Zero-gain splits are still taken while the target varies, so deeper
    trees can recover interactions (e.g. parity) that no single split
    improves on.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValidationError("X must be 2-d with one row per target value")
    return fit_trees(X, y[:, None], params)[0]


def fit_trees(X: np.ndarray, Y: np.ndarray, params: TreeParams) -> list[RegressionTree]:
    """One :func:`fit_tree` tree per column of Y, all grown together, one
    level at a time; each tree is bit-identical to growing it alone.

    A node of depth below ``params.max_depth`` whose targets vary splits
    on the feature of highest gain with at least ``min_leaf`` rows on each
    side, scored by :func:`_binary_split`'s arithmetic; any other node is
    a leaf holding its rows' mean.  Each node's rows stay in ascending
    order, so every sum adds the same numbers in the same order whichever
    search runs.  Nodes are numbered breadth-first per tree: the children
    of a level's splits, left then right, are the next level in order.

    With fewer than ``SPARSE_DENSITY`` of X's cells set, one search per
    level reads only X's ones (:func:`_sparse_splits`); otherwise each node
    scores every column (:func:`_dense_splits`).  Memory: besides X, Y and
    the trees, the grower holds at most about 128 bytes per (tree, row)
    pair and 64 bytes per unit of ``SPLIT_CELLS``, the (node, feature)
    cells and entries that the sparse search scores at once; a single node
    of more cells and entries than that is scored alone.
    """
    X = np.asarray(X)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or len(X) != len(Y) or len(Y) < 1:
        raise ValidationError("X must be 2-d with one row per target value")
    X = _boolean(X)
    n, k = Y.shape
    if not k:
        return []
    if np.count_nonzero(X) < SPARSE_DENSITY * X.size:
        search = _sparse_splits(X)
    else:
        search = _dense_splits(X)
    # The level's nodes' trees, then each (node, row) pair, by node then row.
    tree = np.arange(k)
    node, row = np.repeat(tree, n), np.tile(np.arange(n), k)
    levels = []
    for depth in range(params.max_depth + 1):
        size = np.bincount(node, minlength=len(tree))
        start = np.cumsum(size) - size
        targets = Y[row, tree[node]]
        mean = _segment_means(targets, start, size)
        split = np.full(len(tree), -1)
        if depth < params.max_depth:
            spread = (np.maximum.reduceat(targets, start)
                      - np.minimum.reduceat(targets, start))
            varied = np.flatnonzero(spread != 0.0)
            if len(varied):
                split[varied] = search(Y, tree, row, start, size, mean, varied, params)
        levels.append((tree, split, np.where(split < 0, mean, np.nan)))
        splits = split >= 0
        kept = splits[node]
        node, row = node[kept], row[kept]
        child = 2 * (np.cumsum(splits) - 1)[node] + X[row, split[node]]
        order = np.argsort(child, kind="stable")
        node, row, tree = child[order], row[order], np.repeat(tree[splits], 2)
        if not len(tree):
            break
    trees, feature, value = (np.concatenate(a) for a in zip(*levels))
    order = np.argsort(trees, kind="stable")
    cuts = np.cumsum(np.bincount(trees, minlength=k))[:-1]
    return [
        RegressionTree(f.tolist(), v.tolist(), X.shape[1])
        for f, v in zip(np.split(feature[order], cuts), np.split(value[order], cuts))
    ]


def _segment_means(values, start, size):
    """The mean of each segment ``values[s:s + n]``, bit-identical to that
    slice's ``mean()``: segments of one length are the rows of one 2-D
    array, and numpy sums each row as it sums a 1-D array."""
    mean = np.empty(len(size))
    order = np.argsort(size, kind="stable")
    lengths = size[order]
    for group in np.split(order, np.flatnonzero(np.diff(lengths)) + 1):
        width = size[group[0]]
        block = values[start[group][:, None] + np.arange(width)]
        mean[group] = block.sum(axis=1) / width
    return mean


def _dense_splits(X):
    """The split search that runs :func:`_binary_split` on each node."""

    def search(Y, tree, row, start, size, mean, nodes, params):
        split = np.empty(len(nodes), np.intp)
        for j, i in enumerate(nodes.tolist()):
            rows = row[start[i]:start[i] + size[i]]
            best = _binary_split(X, Y[:, tree[i]], rows, params)
            split[j] = -1 if best is None else best
        return split

    return search


def _sparse_splits(X):
    """The split search that reads only X's ones, for all nodes of a level
    at once, with :func:`_binary_split`'s result at every node.

    A node's column is oriented so that its first row reads 0: where that
    row holds a 0, ``s1`` sums the targets of the column's ones in the
    node's rows, and where it holds a 1, those of its zeros.  A row-wise
    index of X's ones, built once, lists both, and a ``bincount`` keyed by
    (node, feature) adds up each kind.  Each key's entries come in
    ascending row order, so ``s1`` adds what ``_binary_split``'s
    row-by-row column sum adds, in its order, bar zeros.  (With one column
    numpy sums that column pairwise instead, but a lone feature needs no
    gain to win.)  ``n1`` counts each column's ones either way: the gain
    and the ``min_leaf`` test are symmetric in ``n0`` and ``n1``.
    """
    n_features = X.shape[1]
    ones = np.count_nonzero(X, axis=1)
    indptr = np.cumsum(ones) - ones
    indices = np.nonzero(X)[1]

    def row_ones(rows):
        """How many ones each of X[rows] holds, and their features, by row."""
        count = ones[rows]
        offset = np.repeat(indptr[rows] - (np.cumsum(count) - count), count)
        return count, indices[offset + np.arange(len(offset))]

    def search(Y, tree, row, start, size, mean, nodes, params):
        # Chunks of consecutive nodes whose cells and entries, counted from
        # the chunk's first node, stay below SPLIT_CELLS.
        first = row[start[nodes]]
        cost = (n_features + np.add.reduceat(ones[row], start)[nodes]
                + size[nodes] * ones[first])
        chunk = (np.cumsum(cost) - cost) // SPLIT_CELLS
        split = np.empty(len(nodes), np.intp)
        for part in np.split(np.arange(len(nodes)), np.flatnonzero(np.diff(chunk)) + 1):
            ids, m = nodes[part], len(part)
            n = size[ids]
            local = np.repeat(np.arange(m), n)
            pos = np.repeat(start[ids] - (np.cumsum(n) - n), n) + np.arange(len(local))
            rows = row[pos]
            centred = Y[rows, tree[ids][local]] - mean[ids][local]
            base, cells = local * n_features, m * n_features
            count, f = row_ones(rows)
            key = np.repeat(base, count) + f
            n1 = np.bincount(key, minlength=cells)
            s1 = np.bincount(key, np.repeat(centred, count), minlength=cells)
            # Where a node's first row holds a 1, s1 sums the column's zeros.
            count, f = row_ones(first[part])
            held = np.repeat(np.arange(m) * n_features, count) + f
            count, f = row_ones(first[part][local])
            zero = ~X[np.repeat(rows, count), f]
            key = np.repeat(base, count) + f
            weights = np.where(zero, np.repeat(centred, count), 0.0)
            s1[held] = np.bincount(key, weights, minlength=cells)[held]
            n1, s1 = n1.reshape(m, n_features), s1.reshape(m, n_features)
            n0 = n[:, None] - n1
            candidate = (n1 >= params.min_leaf) & (n0 >= params.min_leaf)
            gain = np.full((m, n_features), -np.inf)
            np.divide(s1 * s1 * n[:, None], n0 * n1, out=gain, where=candidate)
            split[part] = np.where(candidate.any(axis=1), gain.argmax(axis=1), -1)
        return split

    return search
