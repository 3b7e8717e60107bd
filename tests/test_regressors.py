import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reclens import regressors
from reclens.errors import SolverError, ValidationError
from reclens.regressors import (
    LINEAR_BLOCK,
    MAX_TREE_DEPTH,
    RegressionTree,
    TreeForest,
    TreeNode,
    TreeParams,
    fit_linear,
    fit_linear_columns,
    fit_tree,
    predict_linear,
)

from conftest import (
    fit_linear_oracle,
    flip_oracle,
    leaf_tree,
    path_oracle,
    predict_tree,
    repeat_tree,
    walk_tree,
)

# The bin count the quantile split search ran with by default.
ORACLE_BINS = 32


def candidate_thresholds_oracle(x: np.ndarray, bins: int) -> np.ndarray:
    """Midpoints between adjacent distinct equal-frequency bin boundaries.

    Boundaries are actual order statistics (plus min and max), so binary
    columns always reduce to the single threshold 0.5 regardless of the
    bin count: the threshold every split of every shadow file holds.
    """
    xs = np.sort(x)
    n = len(xs)
    positions = np.unique(
        np.concatenate(([0], (np.arange(1, bins) * n) // bins, [n - 1]))
    )
    boundaries = np.unique(xs[positions])
    if len(boundaries) < 2:
        return np.empty(0)
    return (boundaries[:-1] + boundaries[1:]) / 2.0


def sse(y: np.ndarray) -> float:
    return float(np.sum((y - y.mean()) ** 2))


def best_split_oracle(X, y, rows, params):
    """(feature, threshold) maximizing variance reduction over quantile
    thresholds, or None: the per-threshold CART search that the one-pass
    binary split replaced.

    Ties break to the lowest feature index, then the lowest threshold
    (guaranteed by ascending iteration with a strict improvement test).
    """
    n = len(rows)
    parent_sse = sse(y[rows])
    best = None
    best_gain = -np.inf
    for feature in range(X.shape[1]):
        col = X[rows, feature]
        for threshold in candidate_thresholds_oracle(col, ORACLE_BINS):
            left = col <= threshold
            n_left = int(left.sum())
            if n_left < params.min_leaf or n - n_left < params.min_leaf:
                continue
            gain = parent_sse - sse(y[rows[left]]) - sse(y[rows[~left]])
            if gain > best_gain + 1e-15:
                best_gain = gain
                best = (feature, float(threshold))
    return best


def grow_oracle(X, y, params) -> RegressionTree:
    """The tree that recursive greedy growth with ``best_split_oracle``
    builds on 0/1 X."""

    def grow(rows, depth):
        targets = y[rows]
        if depth >= params.max_depth or np.ptp(targets) == 0.0:
            return TreeNode(value=float(targets.mean()))
        split = best_split_oracle(X, y, rows, params)
        if split is None:
            return TreeNode(value=float(targets.mean()))
        feature, threshold = split
        go_left = X[rows, feature] <= threshold
        return TreeNode(
            feature=feature,
            left=grow(rows[go_left], depth + 1),
            right=grow(rows[~go_left], depth + 1),
        )

    return RegressionTree(
        root=grow(np.arange(len(y)), 0), params=params, n_features=X.shape[1]
    )


def best_tree_mae_oracle(X, y, depth: int) -> float:
    """Exhaustive search over axis-aligned binary trees up to ``depth``.

    Binary features admit a single meaningful threshold (0.5) per feature,
    so the search space is finite: every assignment of split features to a
    full tree of the given depth, with mean-valued leaves.
    """
    n_features = X.shape[1]

    def best_mae(rows, d):
        if len(rows) == 0:
            return 0.0, 0
        # leaf option
        leaf_err = float(np.abs(y[rows] - y[rows].mean()).sum())
        if d == 0:
            return leaf_err, len(rows)
        best = leaf_err
        for f in range(n_features):
            left = rows[X[rows, f] <= 0.5]
            right = rows[X[rows, f] > 0.5]
            if len(left) == 0 or len(right) == 0:
                continue
            le, _ = best_mae(left, d - 1)
            re, _ = best_mae(right, d - 1)
            best = min(best, le + re)
        return best, len(rows)

    total_abs, n = best_mae(np.arange(len(y)), depth)
    return total_abs / n


def tree_mae(tree, X, y) -> float:
    return float(np.abs(predict_tree(tree, X) - y).mean())


XOR_X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
XOR_Y = np.array([0.0, 1.0, 1.0, 0.0])


class TestFitLinear:
    def test_exact_interpolation(self, rng):
        X = rng.normal(size=(20, 4))
        w_true = rng.normal(size=4)
        y = X @ w_true + 1.7
        w, b = fit_linear(X, y, ridge=1e-12)
        residual = np.linalg.norm(X @ w + b - y)
        assert residual < 1e-8

    def test_zero_design_gives_mean_intercept(self):
        w, b = fit_linear(np.zeros((2, 1)), np.array([2.0, 4.0]), ridge=1e-9)
        assert w[0] == 0.0
        assert b == pytest.approx(3.0, abs=1e-12)

    def test_simple_regression_closed_form(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 2.0])
        w, b = fit_linear(X, y, ridge=0.0)
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_singular_advises_ridge(self):
        with pytest.raises(SolverError, match="ridge > 0"):
            fit_linear(np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]), ridge=0.0)

    def test_growing_ridge_shrinks_weights(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        norms = [
            float(np.linalg.norm(fit_linear(X, y, ridge=r)[0]))
            for r in (1e-3, 1e-1, 10.0, 1e3, 1e5)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-3

    def test_deterministic(self, rng):
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        w1, b1 = fit_linear(X, y, ridge=0.5)
        w2, b2 = fit_linear(X, y, ridge=0.5)
        np.testing.assert_array_equal(w1, w2)
        assert b1 == b2

    def test_dimension_mismatch(self):
        model = fit_linear(np.ones((2, 2)), np.ones(2), ridge=1.0)
        weights, intercepts = stacked([model])
        for X in (np.ones((1, 3)), np.ones(2), np.ones((1, 1, 2))):
            with pytest.raises(ValidationError, match=r"expected \(\*, 2\)"):
                predict_linear(X, weights, intercepts)

    @pytest.mark.parametrize("ridge", [float("inf"), float("nan"), -1.0, "0.1",
                                       True, None])
    def test_ridge_must_be_finite_and_non_negative(self, ridge):
        with pytest.raises(ValidationError, match="ridge must be a finite number"):
            fit_linear(np.eye(3), np.ones(3), ridge=ridge)


def stacked(models):
    """The (features, k) weights and k intercepts of (w, b) fits, as a
    linear shadow holds them."""
    return (np.stack([w for w, _ in models], axis=1),
            np.array([b for _, b in models]))


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3 * LINEAR_BLOCK + 7),
       d=st.integers(1, 400), k=st.integers(1, 24), boolean=st.booleans())
def check_linear_rows_stable(seed, n, d, k, boolean):
    """Every row of a predict_linear batch is bit-identical to that row
    predicted alone, in a permuted batch and in a batch of any size."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, d)) < rng.uniform(0.01, 0.6)
    if not boolean:
        X = X.astype(np.float64)
    weights, intercepts = rng.normal(size=(d, k)), rng.normal(size=k)
    batch = predict_linear(X, weights, intercepts)
    for i in range(n):
        np.testing.assert_array_equal(
            predict_linear(X[i:i + 1], weights, intercepts), batch[i:i + 1]
        )
    order = rng.permutation(n)
    np.testing.assert_array_equal(predict_linear(X[order], weights, intercepts),
                                  batch[order])
    for size in {1, n // 2 + 1, n}:
        chosen = rng.choice(n, size=size)
        np.testing.assert_array_equal(
            predict_linear(X[chosen], weights, intercepts), batch[chosen]
        )


class TestPredictLinear:
    @pytest.mark.parametrize("threads", [None, "1"])
    def test_rows_stable_under_blas_threads(self, tmp_path, threads):
        """The row-stability property, run in a fresh process with
        OPENBLAS_NUM_THREADS unset (BLAS picks its own thread count) and
        set to 1, since the count is fixed when numpy loads."""
        here = Path(__file__).resolve().parent
        env = {name: value for name, value in os.environ.items()
               if name != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
        run = subprocess.run(
            [sys.executable, "-c",
             "import test_regressors; test_regressors.check_linear_rows_stable()"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr[-3000:]

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**16), n=st.integers(0, 2 * LINEAR_BLOCK + 3),
           d=st.integers(0, 30), k=st.integers(1, 6))
    def test_matches_matmul_oracle(self, seed, n, d, k):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d)) < 0.5
        weights, intercepts = rng.normal(size=(d, k)), rng.normal(size=k)
        predicted = predict_linear(X, weights, intercepts)
        assert predicted.shape == (n, k) and predicted.flags.c_contiguous
        np.testing.assert_allclose(predicted, X @ weights + intercepts,
                                   rtol=1e-12, atol=1e-12)


class TestFitLinearColumns:
    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 40), d=st.integers(1, 12),
           k=st.integers(1, 6), binary=st.booleans())
    def test_each_column_bit_identical_to_its_own_fit(self, seed, n, d, k, binary):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        if binary:
            X = (X < 0.5).astype(float)
        Y = rng.normal(size=(n, k))
        weights, intercepts = fit_linear_columns(X, Y, ridge=0.1)
        assert weights.shape == (d, k) and intercepts.shape == (k,)
        assert weights.flags.c_contiguous
        for j in range(k):
            w, b = fit_linear_oracle(X, Y[:, j], 0.1)
            for fit in ((weights[:, j], intercepts[j]),
                        fit_linear(X, Y[:, j], ridge=0.1)):
                np.testing.assert_array_equal(fit[0], w)
                assert fit[1] == b

    def test_singular_advises_ridge(self):
        with pytest.raises(SolverError, match="ridge > 0"):
            fit_linear_columns(np.zeros((3, 2)), np.ones((3, 2)), ridge=0.0)

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (3, 2, 1)])
    def test_targets_must_be_one_row_per_sample(self, shape):
        with pytest.raises(ValidationError, match="one row per target"):
            fit_linear_columns(np.ones((3, 2)), np.ones(shape), ridge=1.0)

    def test_fit_linear_rejects_2d_target(self):
        with pytest.raises(ValidationError, match="one row per target"):
            fit_linear(np.ones((3, 2)), np.ones((3, 1)), ridge=1.0)


class TestFitTree:
    def test_constant_target_is_single_leaf(self):
        X = np.array([[0.0], [1.0], [0.0]])
        tree = fit_tree(X, np.full(3, 2.5), TreeParams(max_depth=4))
        assert tree.root.is_leaf
        assert tree.root.value == 2.5

    def test_single_binary_feature_perfect_split(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        tree = fit_tree(X, y, TreeParams(max_depth=1))
        assert tree_mae(tree, X, y) == 0.0
        assert tree.root.depth() == 1

    def test_xor_against_enumeration_oracle(self):
        assert best_tree_mae_oracle(XOR_X, XOR_Y, 1) == pytest.approx(0.5)
        assert best_tree_mae_oracle(XOR_X, XOR_Y, 2) == 0.0
        shallow = fit_tree(XOR_X, XOR_Y, TreeParams(max_depth=1))
        deep = fit_tree(XOR_X, XOR_Y, TreeParams(max_depth=2))
        assert tree_mae(shallow, XOR_X, XOR_Y) == pytest.approx(0.5)
        assert tree_mae(deep, XOR_X, XOR_Y) == 0.0

    def test_greedy_matches_oracle_on_random_binary_data(self, rng):
        # greedy is not always optimal, but can never beat the oracle
        for _ in range(5):
            X = (rng.random((16, 3)) < 0.5).astype(float)
            y = rng.normal(size=16)
            for depth in (1, 2):
                fitted = fit_tree(X, y, TreeParams(max_depth=depth))
                assert (
                    tree_mae(fitted, X, y)
                    >= best_tree_mae_oracle(X, y, depth) - 1e-12
                )

    def test_depth_monotone_mae(self, rng):
        X = (rng.random((40, 4)) < 0.5).astype(float)
        y = rng.normal(size=40)
        maes = [
            tree_mae(fit_tree(X, y, TreeParams(max_depth=d)), X, y)
            for d in range(6)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(maes, maes[1:]))

    def test_boolean_and_integer_x_fit_the_same_tree(self, rng):
        X = (rng.random((30, 3)) < 0.4).astype(float)
        y = rng.normal(size=30)
        trees = [
            fit_tree(same, y, TreeParams(max_depth=3))
            for same in (X, X == 1.0, X.astype(np.int8), X.astype(np.int64))
        ]
        for other in trees[1:]:
            assert trees[0] == other

    def test_min_leaf_is_keyword_only(self):
        # the old positional order was (max_depth, bins, min_leaf)
        with pytest.raises(TypeError):
            TreeParams(3, 32)

    def test_min_leaf_respected(self, rng):
        X = (rng.random((12, 2)) < 0.5).astype(float)
        y = rng.normal(size=12)
        tree = fit_tree(X, y, TreeParams(max_depth=6, min_leaf=3))

        def check(node, rows):
            if node.is_leaf:
                assert len(rows) >= 3
                return
            left = rows[X[rows, node.feature] == 0.0]
            right = rows[X[rows, node.feature] == 1.0]
            check(node.left, left)
            check(node.right, right)

        check(tree.root, np.arange(12))

    def test_leaf_values_are_training_means(self, rng):
        X = (rng.random((25, 3)) < 0.5).astype(float)
        y = rng.normal(size=25)
        tree = fit_tree(X, y, TreeParams(max_depth=2))

        def check(node, rows):
            if node.is_leaf:
                assert node.value == pytest.approx(y[rows].mean(), abs=1e-12)
                return
            mask = X[rows, node.feature] == 0.0
            check(node.left, rows[mask])
            check(node.right, rows[~mask])

        check(tree.root, np.arange(25))

    def test_tie_breaks_to_lowest_feature_then_threshold(self):
        # both features split y identically; feature 0 must win
        X = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=float)
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(X, y, TreeParams(max_depth=1))
        assert tree.root.feature == 0

    @pytest.mark.parametrize(
        "column, y",
        [
            # subtracting the two child SSEs in either order rounds apart
            ([1, 0, 1, 0], [87.0, 39.1, 43.8, 37.3]),
            # the centred target sums over either side round apart
            ([0, 1, 1], [1.7, 81.3, 91.3]),
        ],
    )
    def test_complement_tie_breaks_to_lowest_feature(self, column, y):
        # column 1 is the complement of column 0: the same partition, whose
        # gain must not depend on which side is counted
        x = np.array(column, dtype=float)
        X = np.column_stack([x, 1.0 - x])
        tree = fit_tree(X, np.array(y), TreeParams(max_depth=1))
        assert tree.root.feature == 0

    def test_deterministic(self, rng):
        X = (rng.random((20, 4)) < 0.5).astype(float)
        y = rng.normal(size=20)
        t1 = fit_tree(X, y, TreeParams(max_depth=3))
        t2 = fit_tree(X, y, TreeParams(max_depth=3))
        assert t1 == t2

    @pytest.mark.parametrize("value", [0.5, 2, -1.0, np.nan])
    def test_non_binary_features_rejected(self, value):
        X = np.array([[0, 1], [1, 0], [0, value]])  # integer X for value 2
        with pytest.raises(ValidationError, match=f"0/1, but X holds {value}"):
            fit_tree(X, np.array([1.0, 2.0, 3.0]), TreeParams(max_depth=2))


@st.composite
def binary_problems(draw):
    """0/1 design with duplicated and complemented columns shuffled in,
    continuous targets, and a random depth and minimum leaf size."""
    n = draw(st.integers(2, 40))
    n_base = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = (rng.random((n, n_base)) < draw(st.floats(0.1, 0.9))).astype(float)
    copies = draw(st.lists(
        st.tuples(st.integers(0, n_base - 1), st.booleans()), max_size=4
    ))
    X = np.column_stack([X] + [1.0 - X[:, j] if flip else X[:, j]
                               for j, flip in copies])
    X = X[:, rng.permutation(X.shape[1])]
    params = TreeParams(
        max_depth=draw(st.integers(0, 5)), min_leaf=draw(st.integers(1, 3))
    )
    return X, rng.normal(size=n), params


class TestBinarySplitAgainstOracle:
    @settings(max_examples=150)
    @given(binary_problems())
    def test_gains_and_predictions_match_quantile_search(self, problem):
        X, y, params = problem
        fast = fit_tree(X, y, params)
        oracle = grow_oracle(X, y, params)
        np.testing.assert_array_equal(predict_tree(fast, X), predict_tree(oracle, X))

        def gain(rows, feature):
            left = X[rows, feature] <= 0.5
            return sse(y[rows]) - sse(y[rows[left]]) - sse(y[rows[~left]])

        def check(node, rows, depth):
            expected = None
            if depth < params.max_depth and np.ptp(y[rows]) > 0.0:
                expected = best_split_oracle(X, y, rows, params)
            if node.is_leaf:
                assert expected is None
                return
            assert expected is not None and expected[1] == 0.5
            assert gain(rows, node.feature) == pytest.approx(
                gain(rows, expected[0]), rel=1e-9
            )
            left = X[rows, node.feature] == 0.0
            check(node.left, rows[left], depth + 1)
            check(node.right, rows[~left], depth + 1)

        check(fast.root, np.arange(len(y)), 0)


class TestTreeStructure:
    @pytest.mark.parametrize(
        "root",
        [
            TreeNode(feature=0, value=None),
            TreeNode(feature=2, left=TreeNode(value=1.0), right=TreeNode(value=2.0)),
            TreeNode(feature=-1, left=TreeNode(value=1.0), right=TreeNode(value=2.0)),
        ],
        ids=["no-children", "feature-past-end", "negative-feature"],
    )
    def test_malformed_node_rejected(self, root):
        with pytest.raises(ValidationError, match="neither a leaf nor a split"):
            RegressionTree(root=root, params=TreeParams(max_depth=1), n_features=2)

    def test_deepest_trees_compare_without_recursion(self):
        """Trees MAX_TREE_DEPTH levels deep compare by their flat arrays;
        their nodes compare by identity."""

        def chain(values):
            # Split j sends the rows with feature j set right, to values[j].
            node = TreeNode(value=values[-1])
            for j in range(len(values) - 2, -1, -1):
                node = TreeNode(feature=j, left=node, right=TreeNode(value=values[j]))
            return RegressionTree(root=node, params=TreeParams(MAX_TREE_DEPTH),
                                  n_features=MAX_TREE_DEPTH)

        values = [float(v) for v in range(MAX_TREE_DEPTH + 1)]
        tree, same = chain(values), chain(values)
        assert tree._depth == MAX_TREE_DEPTH
        assert tree == same and tree.root != same.root
        values[MAX_TREE_DEPTH // 2] = -1.0
        assert tree != chain(values)
        assert leaf_tree(1.0, 2) != leaf_tree(1.0, 3)
        assert leaf_tree(1.0, 2) != leaf_tree(1.0, 2).root


class TestPaths:
    TREE = repeat_tree(4)

    def test_path_features_per_row_once(self):
        X = np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
        predicted, trees, rows, features, effects = TreeForest((self.TREE,)).walk(X)
        np.testing.assert_array_equal(predicted, [[2.0, 4.0]])
        assert trees.tolist() == [0, 0, 0]
        assert rows.tolist() == [0, 0, 1]
        assert features.tolist() == [0, 2, 0]
        # Row 0 flipped to x0 = 1 meets x0 again under the root's right
        # child and must read it as 1 there too: 4.0 - 2.0, not 3.0 - 2.0.
        assert effects.tolist() == [2.0, 1.0, 3.0]

    def test_leaf_has_no_path(self):
        forest = TreeForest((leaf_tree(0.5, 4),))
        predicted, *path = forest.walk(np.ones((3, 4)))
        np.testing.assert_array_equal(predicted, [[0.5, 0.5, 0.5]])
        for part in path:
            assert len(part) == 0

    def test_flip_effect_matches_predict_batch(self, rng):
        X = (rng.random((20, 4)) < 0.5).astype(float)
        tree = fit_tree(X, rng.normal(size=20), TreeParams(max_depth=4))
        _, _, rows, features, effects = TreeForest((tree,)).walk(X)
        assert len(rows)
        flipped = []
        for value in (1.0, 0.0):
            Xf = X[rows].copy()
            Xf[np.arange(len(rows)), features] = value
            flipped.append(predict_tree(tree, Xf))
        np.testing.assert_array_equal(effects, flipped[0] - flipped[1])
        # boolean rows route as their 0.0/1.0 values
        for a, b in zip(TreeForest((tree,)).walk(X == 1.0),
                        TreeForest((tree,)).walk(X)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(predict_tree(tree, X == 1.0),
                                      predict_tree(tree, X))


class TestForest:
    """A forest gives each tree's own predictions, and its walk each tree's
    leaves, path features and flip effects, whatever the group size."""

    @pytest.mark.parametrize("pairs", [1, 27, 65536])
    def test_matches_each_tree(self, rng, monkeypatch, pairs):
        monkeypatch.setattr(regressors, "FOREST_PAIRS", pairs)
        X = (rng.random((9, 5)) < 0.5).astype(float)
        trees = [leaf_tree(0.25, 5)] + [
            fit_tree(X, rng.normal(size=9), TreeParams(max_depth=depth))
            for depth in (1, 3, 2)
        ] + [repeat_tree(5)]
        forest = TreeForest(trees)
        assert [len(g) for g in forest.groups(len(X))] == {
            1: [1, 1, 1, 1, 1], 27: [3, 2], 65536: [5]}[pairs]
        predicted = forest.predict_batch(X)
        assert predicted.flags.c_contiguous
        walked = np.column_stack([[walk_tree(t, x) for x in X] for t in trees])
        np.testing.assert_array_equal(predicted, walked)
        paths = [path_oracle(t, X) for t in trees]
        tree_ids = np.concatenate([np.full(len(r), t) for t, (r, _) in enumerate(paths)])
        expected = [tree_ids,
                    np.concatenate([r for r, _ in paths]),
                    np.concatenate([f for _, f in paths]),
                    np.concatenate([flip_oracle(t, X, r, f)
                                    for t, (r, f) in zip(trees, paths)])]
        for group in (range(5), range(1, 3), range(3, 5)):
            predicted, *got = forest.walk(X, group)
            np.testing.assert_array_equal(predicted, walked[:, group.start:group.stop].T)
            keep = np.isin(tree_ids, list(group))
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b[keep])

    def test_trees_must_share_features(self):
        with pytest.raises(ValidationError):
            TreeForest([leaf_tree(1.0, 2), leaf_tree(1.0, 3)])
        with pytest.raises(ValidationError):
            TreeForest([])

    def test_shape_checked(self):
        forest = TreeForest([leaf_tree(1.0, 2)])
        with pytest.raises(ValidationError, match="expected"):
            forest.predict_batch(np.zeros((3, 4)))
        assert forest.predict_batch(np.zeros((0, 2))).shape == (0, 1)

    @pytest.mark.parametrize("value", [0.5, 2, -1.0, np.nan])
    def test_non_binary_rows_rejected(self, value):
        forest = TreeForest([leaf_tree(1.0, 2)])
        X = np.array([[0, 1], [1, value]])
        for call in (
            lambda: forest.predict_batch(X),
            lambda: forest.walk(X),
            lambda: forest.walk(X, range(1)),
        ):
            with pytest.raises(ValidationError, match=f"0/1, but X holds {value}"):
                call()


class TestPredict:
    def test_constant_tree(self):
        X = np.array([[0.0], [0.0]])
        tree = fit_tree(X, np.array([2.5, 2.5]), TreeParams(max_depth=3))
        assert predict_tree(tree, np.array([[1.0]])).tolist() == [2.5]

    def test_linear_hand_dot(self):
        models = [(np.array([1.0, -1.0]), 0.5), (np.array([2.0, 4.0]), 0.0)]
        rows = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert predict_linear(rows, *stacked(models)).tolist() == [
            [1.5, 2.0], [0.5, 6.0],
        ]

    def test_fitted_xor_tree_routing(self):
        tree = fit_tree(XOR_X, XOR_Y, TreeParams(max_depth=2))
        rows = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert predict_tree(tree, rows).tolist() == [1.0, 0.0]

    def test_batch_matches_scalar(self, rng):
        X = (rng.random((15, 3)) < 0.5).astype(float)
        y = rng.normal(size=15)
        tree = fit_tree(X, y, TreeParams(max_depth=3))
        linear = fit_linear(X, y, ridge=0.1)
        # uneven leaf depths, and a bare leaf
        Xd = rng.random((60, 3)) < 0.5
        yd = np.sin(3 * rng.normal(size=60)) + Xd[:, 0] * Xd[:, 1]
        deep = fit_tree(Xd, yd, TreeParams(max_depth=5, min_leaf=4))

        def leaf_depths(node, depth=0):
            if node.is_leaf:
                return {depth}
            return leaf_depths(node.left, depth + 1) | leaf_depths(node.right, depth + 1)

        assert len(leaf_depths(deep.root)) > 1
        stump = fit_tree(X, y, TreeParams(max_depth=0))
        assert stump.root.is_leaf
        for model, data in (
            (tree, X), (tree, X == 1.0), (deep, Xd), (stump, Xd), (stump, Xd[:0])
        ):
            np.testing.assert_array_equal(
                predict_tree(model, data), [walk_tree(model, row) for row in data]
            )
        # A linear row is the same bits alone as in the batch.
        batch = predict_linear(X, *stacked([linear]))
        for row, predicted in zip(X, batch):
            np.testing.assert_array_equal(
                predict_linear(row[None], *stacked([linear]))[0], predicted
            )

    def test_tree_dimension_error(self):
        tree = fit_tree(XOR_X, XOR_Y, TreeParams(max_depth=1))
        with pytest.raises(ValidationError):
            predict_tree(tree, np.zeros((1, 5)))
