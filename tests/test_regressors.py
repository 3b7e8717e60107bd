import ast
import inspect
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reclens import datamodel, influence, regressors
from reclens.errors import SolverError, ValidationError
from reclens.regressors import (
    MAX_TREE_DEPTH,
    RegressionTree,
    TreeForest,
    TreeParams,
    fit_linear,
    fit_linear_columns,
    fit_tree,
    fit_trees,
    predict_linear,
)
from reclens.shadow import ShadowModel
from reclens.synth import random_metadata

from conftest import (
    chain_tree,
    fit_linear_oracle,
    fit_linear_reference,
    flip_oracle,
    is_split,
    leaf_tree,
    node_children,
    node_rows,
    path_oracle,
    predict_tree,
    random_tree,
    repeat_tree,
    tree_of,
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
    (guaranteed by ascending iteration with a strict improvement test).  A
    gain within 1e-12 of the node's SSE of the best so far ties with it: a
    column and its complement are one partition, whose gain the two child
    SSEs, subtracted in either order, round apart by more than 1e-15.
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
            if gain > best_gain + 1e-12 * parent_sse:
                best_gain = gain
                best = (feature, float(threshold))
    return best


def grow_oracle(X, y, params) -> RegressionTree:
    """The tree that recursive greedy growth with ``best_split_oracle``
    builds on 0/1 X, grown as nested (feature, left, right) tuples."""

    def grow(rows, depth):
        targets = y[rows]
        if depth >= params.max_depth or np.ptp(targets) == 0.0:
            return float(targets.mean())
        split = best_split_oracle(X, y, rows, params)
        if split is None:
            return float(targets.mean())
        feature, threshold = split
        go_left = X[rows, feature] <= threshold
        return (feature, grow(rows[go_left], depth + 1), grow(rows[~go_left], depth + 1))

    return tree_of(grow(np.arange(len(y)), 0), X.shape[1])


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
        # Every 0/1 row of four features, so X and the intercept column
        # have full column rank.
        X = np.array([[int(b) for b in f"{i:04b}"] for i in range(16)], dtype=bool)
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
        # One 0/1 feature: b is the mean target where it is 0, and b + w
        # the mean where it is 1.
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([1.0, 3.0, 4.0, 6.0])
        w, b = fit_linear(X, y, ridge=0.0)
        assert w[0] == pytest.approx(3.0, abs=1e-12)
        assert b == pytest.approx(2.0, abs=1e-12)

    def test_singular_advises_ridge(self):
        with pytest.raises(SolverError, match="ridge > 0"):
            fit_linear(np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]), ridge=0.0)

    def test_growing_ridge_shrinks_weights(self, rng):
        X = rng.random((30, 3)) < 0.5
        y = rng.normal(size=30)
        norms = [
            float(np.linalg.norm(fit_linear(X, y, ridge=r)[0]))
            for r in (1e-3, 1e-1, 10.0, 1e3, 1e5)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-3

    def test_deterministic(self, rng):
        X = rng.random((10, 2)) < 0.5
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

    @pytest.mark.parametrize("value", [0.5, 2, -1.0, np.nan])
    def test_non_binary_features_rejected(self, value):
        """Fit and predict read X as the trees do: 0/1 or boolean, and any
        other X is refused."""
        X = np.array([[0, 1], [1, 0], [0, value]])  # integer X for value 2
        weights, intercepts = stacked([fit_linear(np.eye(3, 2), np.ones(3), 1.0)])
        for call in (
            lambda: fit_linear(X, np.array([1.0, 2.0, 3.0]), ridge=1.0),
            lambda: fit_linear_columns(X, np.ones((3, 2)), ridge=1.0),
            lambda: predict_linear(X, weights, intercepts),
        ):
            with pytest.raises(ValidationError, match=f"0/1, but X holds {value}"):
                call()

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
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 199),
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
    @given(seed=st.integers(0, 2**16), n=st.integers(0, 131),
           d=st.integers(0, 30), k=st.integers(1, 6))
    def test_matches_matmul_oracle(self, seed, n, d, k):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d)) < 0.5
        weights, intercepts = rng.normal(size=(d, k)), rng.normal(size=k)
        predicted = predict_linear(X, weights, intercepts)
        assert predicted.shape == (n, k) and predicted.flags.c_contiguous
        np.testing.assert_allclose(predicted, X @ weights + intercepts,
                                   rtol=1e-12, atol=1e-12)


def pair_count_gram(X, order):
    """The oracle of ``_popcount_gram``: the upper triangle of the Gram
    matrix of the boolean columns ``X[:, order]`` and an intercept column
    of ones, its lower one 0, each (f, g) entry counting the rows' pairs
    of ones in columns f and g by one ``bincount``."""
    n, d = X.shape
    position = np.empty(d + 1, np.intp)
    position[order], position[d] = np.arange(d), d
    ones = np.count_nonzero(X, axis=1)
    unknown = position[np.insert(np.nonzero(X)[1], np.cumsum(ones), d)]
    count = ones + 1
    start = np.concatenate(([0], np.cumsum(count)))
    # Entries from each one to the end of its row, itself included.
    after = np.repeat(start[1:], count) - np.arange(start[-1])
    a = np.repeat(np.arange(start[-1]), after)
    b = a + np.arange(len(a)) - np.repeat(np.cumsum(after) - after, after)
    f, g = unknown[a], unknown[b]
    p = d + 1
    pairs = np.bincount(np.minimum(f, g) * p + np.maximum(f, g), minlength=p * p)
    return pairs.reshape(p, p).astype(np.float64)


class TestFitLinearColumns:
    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 40), d=st.integers(1, 24),
           k=st.integers(1, 6), boolean=st.booleans())
    def test_each_column_bit_identical_to_its_own_fit(self, seed, n, d, k, boolean):
        """Each column has the bits of its own fit_linear call and of the
        scalar-loop reference, and is within 1e-9 of LAPACK's solve: both
        solves are backward stable, and with ridge 0.1 these systems'
        condition numbers stay far below 1e6.  Boolean X and float 0/1 X
        fit alike."""
        rng = np.random.default_rng(seed)
        X = rng.random((n, d)) < rng.uniform(0.05, 0.95)
        if not boolean:
            X = X.astype(float)
        Y = rng.normal(size=(n, k))
        weights, intercepts = fit_linear_columns(X, Y, ridge=0.1)
        assert weights.shape == (d, k) and intercepts.shape == (k,)
        assert weights.flags.c_contiguous
        for j in range(k):
            w, b = fit_linear_reference(X, Y[:, j], 0.1)
            for fit in ((weights[:, j], intercepts[j]),
                        fit_linear(X, Y[:, j], ridge=0.1)):
                np.testing.assert_array_equal(fit[0], w)
                assert fit[1] == b
            w, b = fit_linear_oracle(X, Y[:, j], 0.1)
            np.testing.assert_allclose(weights[:, j], w, rtol=1e-9, atol=1e-9)
            assert intercepts[j] == pytest.approx(b, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 5, 7, 8, 63, 64, 65, 130])
    @pytest.mark.parametrize("boolean", [True, False])
    def test_popcount_gram_is_the_summed_gram(self, monkeypatch, rng, n, boolean):
        """The Gram matrix that fit_linear_columns factors is the same from
        popcounts as from the pair-count oracle, on 0/1 X with all-zero and
        all-one columns, on all-zero, all-one and 1.25%-dense X, at any row
        count; and the fits are the same bits."""
        grams, popcount = [], regressors._popcount_gram

        def checked(X, order):
            G = popcount(X, order)
            grams.append((G.copy(), pair_count_gram(X, order)))
            return G

        monkeypatch.setattr(regressors, "_popcount_gram", checked)
        problems = []
        for _ in range(3):
            X = rng.random((n, 12)) < rng.uniform(0.2, 0.8)
            X[:, 3], X[:, 7] = False, True
            problems.append(X)
        problems += [np.zeros((n, 12), bool), np.ones((n, 12), bool),
                     rng.random((n, 12)) < 0.0125]
        for X in problems:
            X = X if boolean else X.astype(float)
            Y = rng.normal(size=(n, 3))
            grams.clear()
            fit = fit_linear_columns(X, Y, ridge=0.5)
            (G, oracle), = grams
            np.testing.assert_array_equal(G, oracle)
            with monkeypatch.context() as mp:
                mp.setattr(regressors, "_popcount_gram", pair_count_gram)
                for a, b in zip(fit, fit_linear_columns(X, Y, ridge=0.5)):
                    np.testing.assert_array_equal(a, b)

    def test_every_binary_x_takes_popcounts(self, monkeypatch, rng):
        """Dense and sparse 0/1 X, boolean or float, take popcounts; X that
        is not 0/1 is refused before any Gram matrix is formed."""
        calls = []
        popcount = regressors._popcount_gram
        monkeypatch.setattr(regressors, "_popcount_gram",
                            lambda *a: calls.append("popcounts") or popcount(*a))
        dense = rng.random((50, 8)) < 0.5
        sparse = np.zeros((50, 8), dtype=bool)
        sparse[np.arange(3), np.arange(3)] = True
        for X in (dense, dense.astype(float), sparse, sparse.astype(float)):
            calls.clear()
            fit_linear_columns(X, rng.normal(size=(50, 2)), ridge=0.1)
            assert calls == ["popcounts"]
        calls.clear()
        with pytest.raises(ValidationError, match="0/1, but X holds 2.0"):
            fit_linear_columns(dense * 2.0, rng.normal(size=(50, 2)), ridge=0.1)
        assert calls == []

    def test_popcount_memory_stays_within_the_stated_bound(self):
        """On benchmark-sized sparse metadata the popcount Gram matrix
        allocates at most 17 * (features + 1) * ceil(rows / 64) bytes and
        64 KiB of numpy buffers besides G, as ``_popcount_gram`` states."""
        X = np.random.default_rng(4).random((1346, 323)) < 0.0125
        n, d = X.shape
        order = np.argsort(X.sum(axis=0), kind="stable")
        bound = 17 * (d + 1) * -(-n // 64) + (1 << 16) + 8 * (d + 1) ** 2
        tracemalloc.start()
        try:
            G = regressors._popcount_gram(X, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(G, pair_count_gram(X, order))
        assert peak <= bound

    def test_fit_calls_no_blas(self):
        """The linear fit and prediction, and explain's products of factors,
        multiply no matrices and call no np.linalg routine, so neither the
        BLAS thread count nor its CPU kernel can change their bits."""
        banned = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}
        for function in (fit_linear_columns, regressors._popcount_gram,
                         regressors._cholesky, regressors._substitute, predict_linear,
                         influence._influences, influence.explain, datamodel._dot,
                         datamodel.predict_rating, ShadowModel.predict):
            tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
            for node in ast.walk(tree):
                assert not isinstance(node, ast.MatMult), function.__name__
                assert getattr(node, "attr", None) not in banned, function.__name__

    @pytest.mark.parametrize("case", ["duplicated", "complemented", "all-zero"])
    @pytest.mark.parametrize("boolean", [True, False])
    def test_singular_columns_raise_at_ridge_zero(self, rng, case, boolean):
        """At ridge 0, a column that repeats another, one that adds up
        with another to the intercept, and a column of zeros each make the
        normal equations singular.  Rounding leaves many of these random
        problems a last pivot just above 0 rather than 0, and each one
        still raises."""
        for _ in range(20):
            n, d = int(rng.integers(8, 40)), int(rng.integers(2, 8))
            X = rng.random((n, d)) < rng.uniform(0.2, 0.8)
            X[:, -1] = {"duplicated": X[:, 0], "complemented": ~X[:, 0],
                        "all-zero": False}[case]
            X = X if boolean else X.astype(float)
            with pytest.raises(SolverError, match="^normal equations are singular; "
                                                  r"use ridge > 0 to regularize$"):
                fit_linear_columns(X, rng.normal(size=(n, 2)), ridge=0.0)
            with pytest.raises(SolverError):
                fit_linear_reference(X, rng.normal(size=n), 0.0)

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
        assert tree == leaf_tree(2.5, 1)

    def test_single_binary_feature_perfect_split(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        tree = fit_tree(X, y, TreeParams(max_depth=1))
        assert tree_mae(tree, X, y) == 0.0
        assert tree.depth == 1

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
        assert tree.depth > 0
        for split, rows in zip(is_split(tree), node_rows(tree, X)[0]):
            assert split or len(rows) >= 3

    def test_leaf_values_are_training_means(self, rng):
        X = (rng.random((25, 3)) < 0.5).astype(float)
        y = rng.normal(size=25)
        tree = fit_tree(X, y, TreeParams(max_depth=2))
        assert tree.depth > 0
        reached = node_rows(tree, X)[0]
        for split, value, rows in zip(is_split(tree), tree._value, reached):
            if not split:
                assert value == pytest.approx(y[rows].mean(), abs=1e-12)

    def test_tie_breaks_to_lowest_feature_then_threshold(self):
        # both features split y identically; feature 0 must win
        X = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=float)
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(X, y, TreeParams(max_depth=1))
        assert tree._feature[0] == 0

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
        assert tree._feature[0] == 0

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
    """0/1 design of density 1% to 90% with duplicated and complemented
    columns shuffled in, continuous or constant targets, and a random depth
    and minimum leaf size."""
    n = draw(st.integers(2, 40))
    n_base = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = (rng.random((n, n_base)) < draw(st.floats(0.01, 0.9))).astype(float)
    copies = draw(st.lists(
        st.tuples(st.integers(0, n_base - 1), st.booleans()), max_size=4
    ))
    X = np.column_stack([X] + [1.0 - X[:, j] if flip else X[:, j]
                               for j, flip in copies])
    X = X[:, rng.permutation(X.shape[1])]
    params = TreeParams(
        max_depth=draw(st.integers(0, 8)), min_leaf=draw(st.integers(1, 3))
    )
    y = np.full(n, 1.5) if draw(st.integers(0, 3)) == 0 else rng.normal(size=n)
    return X, y, params


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

        for f, split, rows, depth in zip(fast._feature.tolist(), is_split(fast),
                                         *node_rows(fast, X)):
            expected = None
            if depth < params.max_depth and np.ptp(y[rows]) > 0.0:
                expected = best_split_oracle(X, y, rows, params)
            if not split:
                assert expected is None
                continue
            assert expected is not None and expected[1] == 0.5
            assert gain(rows, f) == pytest.approx(gain(rows, expected[0]), rel=1e-9)

    @settings(max_examples=150)
    @given(binary_problems())
    def test_whole_tree_matches_oracle(self, problem):
        """Node for node, the same splits in the same places and the same
        leaf bits as recursive growth with the quantile search."""
        X, y, params = problem
        assert fit_tree(X, y, params) == grow_oracle(X, y, params)


def fit_tree_fifo_oracle(X, y, params) -> RegressionTree:
    """One tree grown node by node, first in first out, with each node's
    split from ``_binary_split``: the per-tree grower that ``fit_trees``
    replaced.  Its queue visits nodes in the order the tree numbers them."""
    X = regressors._boolean(np.asarray(X))
    y = np.asarray(y, dtype=np.float64)
    feature, value, todo = [], [], deque([(np.arange(len(y)), 0)])
    while todo:
        rows, depth = todo.popleft()
        targets, split = y[rows], None
        if depth < params.max_depth and np.ptp(targets) != 0.0:
            split = regressors._binary_split(X, y, rows, params)
        feature.append(-1 if split is None else split)
        value.append(float(targets.mean()) if split is None else np.nan)
        if split is not None:
            go_right = X[rows, split]
            todo += [(rows[~go_right], depth + 1), (rows[go_right], depth + 1)]
    return RegressionTree(feature, value, X.shape[1])


@st.composite
def sparse_designs(draw):
    """A 0/1 design of density 1% to 60%, one to five base columns with
    duplicated and complemented ones shuffled in, and a generator for the
    rest of the problem.  Row 0 holds a single 1 in about a third of the
    designs."""
    n = draw(st.integers(1, 40))
    n_base = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.random((n, n_base)) < draw(st.floats(0.01, 0.6))
    copies = draw(st.lists(
        st.tuples(st.integers(0, n_base - 1), st.booleans()), max_size=4
    ))
    X = np.column_stack([X] + [~X[:, j] if flip else X[:, j] for j, flip in copies])
    X = X[:, rng.permutation(X.shape[1])]
    if draw(st.integers(0, 2)) == 0:
        X[0] = False
        X[0, draw(st.integers(0, X.shape[1] - 1))] = True
    return X, rng


@st.composite
def forest_problems(draw):
    """A design, one to five target columns, each constant one time in
    four, and a depth from 0 to 8 and a minimum leaf of 1 to 3."""
    X, rng = draw(sparse_designs())
    Y = rng.normal(size=(len(X), draw(st.integers(1, 5))))
    for j in range(Y.shape[1]):
        if draw(st.integers(0, 3)) == 0:
            Y[:, j] = 1.5
    params = TreeParams(
        max_depth=draw(st.integers(0, 8)), min_leaf=draw(st.integers(1, 3))
    )
    return X, Y, params


@st.composite
def split_levels(draw):
    """A design, targets for up to four trees, and a level of nodes: each
    a tree and an ascending set of at least two rows, the first node's
    rows starting at row 0.  Also a cap on the cells scored at once."""
    X, rng = draw(sparse_designs())
    Y = rng.normal(size=(len(X), 4))
    Y[:, 3] = 1.5
    nodes = []
    for i in range(draw(st.integers(1, 6))):
        take = rng.random(len(X)) < draw(st.floats(0.2, 1.0))
        take[0] = take[0] or i == 0
        rows = np.flatnonzero(take)
        if len(rows) >= 2:
            nodes.append((draw(st.integers(0, 3)), rows))
    cells = draw(st.sampled_from([1, 7, regressors.SPLIT_CELLS]))
    return X, Y, nodes, TreeParams(min_leaf=draw(st.integers(1, 3))), cells


class TestLevelwiseGrower:
    @settings(max_examples=200)
    @given(split_levels())
    def test_sparse_search_matches_binary_split_per_node(self, level):
        X, Y, nodes, params, cells = level
        if not nodes:
            return
        tree = np.array([t for t, _ in nodes])
        row = np.concatenate([rows for _, rows in nodes])
        size = np.array([len(rows) for _, rows in nodes])
        start = np.cumsum(size) - size
        mean = np.array([Y[rows, t].mean() for t, rows in nodes])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regressors, "SPLIT_CELLS", cells)
            search = regressors._sparse_splits(X)
            found = search(Y, tree, row, start, size, mean, np.arange(len(tree)),
                           params)
        expected = [regressors._binary_split(X, Y[:, t], rows, params)
                    for t, rows in nodes]
        assert found.tolist() == [-1 if e is None else e for e in expected]

    @settings(max_examples=200)
    @given(forest_problems(), st.sampled_from([1, 7, regressors.SPLIT_CELLS]))
    def test_forest_matches_fifo_oracle_with_either_search(self, problem, cells):
        """Both searches, forced on the same input, grow the oracle's trees:
        the same splits in the same places and the same leaf bits."""
        X, Y, params = problem
        expected = [fit_tree_fifo_oracle(X, Y[:, j], params) for j in range(Y.shape[1])]
        for density in (0.0, 1.0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(regressors, "SPARSE_DENSITY", density)
                mp.setattr(regressors, "SPLIT_CELLS", cells)
                assert fit_trees(X, Y, params) == expected

    @pytest.mark.parametrize("density", [0.0, 1.0])
    def test_nodes_of_hundreds_of_rows_match_the_oracle(self, density, rng,
                                                        monkeypatch):
        """Node means over more than 128 rows, where numpy's pairwise sum
        recurses, keep the oracle's bits under both searches."""
        monkeypatch.setattr(regressors, "SPARSE_DENSITY", density)
        X = rng.random((700, 12)) < 0.05
        Y = rng.normal(size=(700, 3)) * np.array([1.0, 1e-3, 1e3])
        params = TreeParams(max_depth=6, min_leaf=2)
        assert fit_trees(X, Y, params) == [
            fit_tree_fifo_oracle(X, y, params) for y in Y.T]

    @pytest.mark.parametrize("density", [0.0, 1.0])
    def test_first_row_with_a_single_one(self, density, monkeypatch):
        """The root's first row holds one 1, in column 1, so that column's
        n1 and s1 count its zeros.  Column 1 is column 0's complement and
        column 2 its copy: one partition three times, and column 0 wins."""
        monkeypatch.setattr(regressors, "SPARSE_DENSITY", density)
        X = np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1],
                      [0, 1, 0, 0]], dtype=bool)
        y = np.array([3.1, -0.7, 2.9, -1.3, 3.3])
        params = TreeParams(max_depth=3)
        tree = fit_tree(X, y, params)
        assert tree == fit_tree_fifo_oracle(X, y, params)
        assert tree._feature[0] == 0

    def test_fit_tree_is_a_forest_of_one(self, rng):
        X = rng.random((30, 6)) < 0.2
        Y = rng.normal(size=(30, 3))
        params = TreeParams(max_depth=4, min_leaf=2)
        assert fit_trees(X, Y, params) == [fit_tree(X, y, params) for y in Y.T]
        assert fit_trees(X, Y[:, :0], params) == []

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 1), (4, 2)])
    def test_targets_must_be_one_row_per_sample(self, shape):
        with pytest.raises(ValidationError, match="one row per target"):
            fit_trees(np.ones((3, 2)), np.ones(shape), TreeParams())
        with pytest.raises(ValidationError, match="one row per target"):
            fit_tree(np.ones((3, 2)), np.ones(shape[:1] + (1,)), TreeParams())

    def test_search_follows_the_share_of_ones(self, monkeypatch):
        """Metadata as sparse as the benchmark's (1.25% ones) takes the
        sparse search, synth's random metadata (about half ones) the dense."""
        calls = []
        for name in ("_sparse_splits", "_dense_splits"):
            search = getattr(regressors, name)
            monkeypatch.setattr(regressors, name, lambda X, name=name, search=search: (
                calls.append(name), search(X))[1])
        sparse = np.random.default_rng(12).random((1346, 323)) < 0.0125
        dense = random_metadata(200, 200, np.random.default_rng(7)).X
        assert sparse.mean() < regressors.SPARSE_DENSITY < 0.4 < dense.mean()
        for X in (sparse, dense):
            fit_trees(X, np.random.default_rng(3).normal(size=(len(X), 2)),
                      TreeParams(max_depth=2))
        assert calls == ["_sparse_splits", "_dense_splits"]

    def test_memory_stays_within_the_stated_bound(self):
        """A rank-50, depth-8 forest on benchmark-sized sparse metadata
        allocates at most 128 bytes per (tree, row) pair and 64 bytes per
        unit of ``SPLIT_CELLS``, as ``fit_trees`` states."""
        rng = np.random.default_rng(21)
        X = rng.random((1346, 323)) < 0.0125
        Y = rng.normal(size=(1346, 50))
        bound = 128 * Y.size + 64 * regressors.SPLIT_CELLS
        tracemalloc.start()
        try:
            trees = fit_trees(X, Y, TreeParams(max_depth=8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(t.depth for t in trees) == 8
        assert peak <= bound


class TestTreeStructure:
    @pytest.mark.parametrize(
        "feature, value, message",
        [
            ([0], [np.nan], "tree node 0 is neither a leaf nor a split on one of 2"),
            ([0, -1], [np.nan, 1.0], "tree node 0 is neither a leaf nor a split"),
            ([2, -1, -1], [0, 1.0, 2.0], "tree node 0 is neither a leaf nor a split"),
            ([-2, -1, -1], [0, 1.0, 2.0], "tree node 0 is neither a leaf nor a split"),
            ([0, True, -1, -1, -1], [0, 0, 1.0, 2.0, 3.0], "tree node 1 is neither"),
            ([0, -1, 1.5, -1, -1], [0, 1.0, 0, 2.0, 3.0], "tree node 2 is neither"),
            ([-1.0], [1.0], "tree node 0 is neither a leaf nor a split"),
            ([0, -1, -1], [0, 1.0, np.inf], "tree node 2 holds leaf value inf, not a"),
            ([-1], [True], "tree node 0 holds leaf value True, not a finite number"),
            ([-1], ["1.0"], "tree node 0 holds leaf value '1.0', not a finite"),
            ([], [], "0 features and 0 values are not one tree"),
            ([-1], [1.0, 2.0], "1 features and 2 values are not one tree"),
            ([-1, -1, -1], [1.0, 2.0, 3.0], "tree node 1 is no split's child"),
            ([-1, 0, -1], [1.0, 0, 2.0], "tree node 1 is no split's child"),
            ([0, -1, -1, -1, -1], [0, 1.0, 2.0, 3.0, 4.0], "node 3 is no split's"),
        ],
        ids=["no-children", "one-child", "feature-past-end", "negative-feature",
             "bool-feature", "float-feature", "float-leaf-mark", "infinite-leaf",
             "bool-leaf", "string-leaf", "empty", "lengths-differ", "leaf-root",
             "split-under-leaf", "extra-leaves"],
    )
    def test_malformed_node_rejected(self, feature, value, message):
        with pytest.raises(ValidationError, match=message):
            RegressionTree(feature, value, 2)

    @pytest.mark.parametrize("width, message", [
        (2.0, "mistyped value for n_features: 2.0 is not an integer"),
        (True, "mistyped value for n_features: True is not an integer"),
        (-1, "n_features must be >= 0, got -1"),
    ], ids=["float", "bool", "negative"])
    def test_width_is_a_whole_number(self, width, message):
        with pytest.raises(ValidationError, match=message):
            RegressionTree([-1], [1.0], width)
        assert RegressionTree([-1], [1.0], 0).n_features == 0

    def test_depth_is_longest_path(self, rng):
        """``depth`` equals a recursive count of splits over the children
        that the breadth-first numbering gives."""

        def depth_oracle(children, i=0):
            if children[i] is None:
                return 0
            return 1 + max(depth_oracle(children, c) for c in children[i])

        for depth in range(6):
            for _ in range(20):
                tree = random_tree(rng, 3, depth)
                assert tree.depth == depth_oracle(node_children(tree)) <= depth

    def test_root_views_the_arrays(self, rng):
        """``root`` and its ``left`` and ``right`` are views of the nodes
        that the numbering gives, with None below a leaf."""
        for _ in range(20):
            tree = random_tree(rng, 3, 4)
            children, views = node_children(tree), [tree.root]
            for view in views:  # views grows while it is walked
                assert view.tree is tree
                kids = children[view.index]
                if kids is None:
                    assert view.left is None and view.right is None
                else:
                    assert (view.left.index, view.right.index) == kids
                    views += [view.left, view.right]
            assert [v.index for v in views] == list(range(len(children)))

    def test_deepest_trees_compare_without_recursion(self):
        """Trees MAX_TREE_DEPTH levels deep compare by their arrays."""
        values = [float(v) for v in range(MAX_TREE_DEPTH + 1)]
        tree, same = (chain_tree(values, MAX_TREE_DEPTH) for _ in range(2))
        assert tree.depth == MAX_TREE_DEPTH
        assert tree == same
        values[MAX_TREE_DEPTH // 2] = -1.0
        assert tree != chain_tree(values, MAX_TREE_DEPTH)
        assert leaf_tree(1.0, 2) != leaf_tree(1.0, 3)
        assert leaf_tree(1.0, 2) != leaf_tree(1.0, 2).root


class TestPaths:
    TREE = repeat_tree(4)

    def test_path_features_per_row_once(self):
        X = np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
        predicted, trees, rows, features, effects = TreeForest((self.TREE,)).walk(X)
        np.testing.assert_array_equal(predicted, [[2.0], [4.0]])
        assert trees.tolist() == [0, 0, 0]
        assert rows.tolist() == [0, 0, 1]
        assert features.tolist() == [0, 2, 0]
        # Row 0 flipped to x0 = 1 meets x0 again under the root's right
        # child and must read it as 1 there too: 4.0 - 2.0, not 3.0 - 2.0.
        assert effects.tolist() == [2.0, 1.0, 3.0]

    def test_leaf_has_no_path(self):
        forest = TreeForest((leaf_tree(0.5, 4),))
        predicted, *path = forest.walk(np.ones((3, 4)))
        np.testing.assert_array_equal(predicted, [[0.5], [0.5], [0.5]])
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
    leaves, path features and flip effects, whatever the group size, in
    (row, tree, path level) order."""

    @pytest.mark.parametrize("pairs", [1, 27, 65536])
    def test_matches_each_tree(self, rng, monkeypatch, pairs):
        monkeypatch.setattr(regressors, "FOREST_PAIRS", pairs)
        X = (rng.random((9, 5)) < 0.5).astype(float)
        # The last tree tests x3 above x1 and x0, so its paths list their
        # features out of index order.
        trees = [leaf_tree(0.25, 5)] + [
            fit_tree(X, rng.normal(size=9), TreeParams(max_depth=depth))
            for depth in (1, 3, 2)
        ] + [repeat_tree(5), tree_of((3, (1, 1.0, 2.0), (0, 3.0, 4.0)), 5)]
        forest = TreeForest(trees)
        assert [g.stop - g.start for g, _, _ in forest._groups(len(X))] == {
            1: [1] * 6, 27: [3, 3], 65536: [6]}[pairs]
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
        rows, features = paths[5]
        assert features[rows == 0].tolist() == [3, 0 if X[0, 3] else 1]
        # The oracle lists tree by tree; the walk lists row by row.
        by_row = np.argsort(expected[1], kind="stable")
        predicted, *got = forest.walk(X)
        np.testing.assert_array_equal(predicted, walked)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b[by_row])

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

        levels = node_rows(deep, Xd)[1]
        assert len({lv for split, lv in zip(is_split(deep), levels) if not split}) > 1
        stump = fit_tree(X, y, TreeParams(max_depth=0))
        assert stump.depth == 0
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
