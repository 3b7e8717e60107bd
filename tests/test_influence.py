import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reclens import influence, regressors
from reclens.datamodel import FactorModel, MetadataMatrix
from reclens.errors import EstimatorMismatchError, ValidationError
from reclens.influence import (
    InfluenceQuery,
    ItemSet,
    SingleItem,
    explain,
    influence_report_svg,
    qii_exact_binary,
    qii_monte_carlo,
    write_svg,
)
from reclens.regressors import (
    TreeForest,
    TreeParams,
    fit_tree,
)
from reclens.shadow import (
    AGREEMENT_BLOCK,
    LinearKind,
    ShadowModel,
    TreeKind,
    measure_agreement,
    train_shadow,
)

from conftest import (
    flip_oracle,
    identity_meta,
    leaf_tree,
    make_meta,
    manual_shadow,
    path_oracle,
    random_tree,
    walk_tree,
)


def qii_enumeration_oracle(rating_fn, x, feature, column_values):
    """Influence by explicit enumeration of the feature's empirical value
    distribution: sum_v P(v) * (m(x) - m(x | feature := v))."""
    column_values = np.asarray(column_values, dtype=float)
    values, counts = np.unique(column_values, return_counts=True)
    probs = counts / counts.sum()
    total = 0.0
    for v, p in zip(values, probs):
        xv = np.array(x, dtype=float)
        xv[feature] = v
        total += p * (rating_fn(np.asarray(x, dtype=float)) - rating_fn(xv))
    return total


def bernoulli_pool(marginal, size=100):
    ones = int(round(marginal * size))
    return np.array([1.0] * ones + [0.0] * (size - ones))


class TestQiiExactBinary:
    def test_constant_model_zero_everywhere(self):
        fn = lambda a: 17.5
        for feature in range(3):
            for marginal in (0.0, 0.25, 1.0):
                x = np.zeros(3)
                assert qii_exact_binary(fn, x, feature, marginal) == 0.0

    def test_single_coordinate_model(self):
        fn = lambda a: a[0]
        assert qii_exact_binary(fn, np.array([1.0]), 0, 0.5) == 0.5

    def test_two_feature_hand_case(self):
        fn = lambda a: 2 * a[0] + a[1]
        x = np.array([1.0, 1.0])
        assert qii_exact_binary(fn, x, 0, 0.25) == pytest.approx(1.5, abs=1e-15)
        assert qii_exact_binary(fn, x, 1, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 9))
            w = rng.normal(size=d)
            fn = lambda a: float(w @ a + 0.3)
            x = (rng.random(d) < 0.5).astype(float)
            for feature in range(d):
                marginal = float(rng.integers(0, 101)) / 100.0
                expected = qii_enumeration_oracle(
                    fn, x, feature, bernoulli_pool(marginal)
                )
                got = qii_exact_binary(fn, x, feature, marginal)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_non_binary_coordinate_redirects(self):
        with pytest.raises(EstimatorMismatchError, match="monte_carlo"):
            qii_exact_binary(lambda a: a[0], np.array([0.5]), 0, 0.5)

    def test_marginal_domain(self):
        with pytest.raises(ValidationError):
            qii_exact_binary(lambda a: a[0], np.array([1.0]), 0, 1.5)

    def test_irrelevant_coordinate_exactly_zero(self, rng):
        fn = lambda a: 3.0 * a[1]
        x = (rng.random(3) < 0.5).astype(float)
        assert qii_exact_binary(fn, x, 0, 0.37) == 0.0
        assert qii_exact_binary(fn, x, 2, 0.8) == 0.0

    def test_scales_with_rating_fn(self, rng):
        w = rng.normal(size=4)
        x = (rng.random(4) < 0.5).astype(float)
        base = qii_exact_binary(lambda a: float(w @ a), x, 2, 0.4)
        scaled = qii_exact_binary(lambda a: 5.0 * float(w @ a), x, 2, 0.4)
        assert scaled == pytest.approx(5.0 * base, rel=1e-15)


class TestQiiMonteCarlo:
    def test_identity_pool_is_exact_zero(self):
        fn = lambda a: a[0] * 2 + 1
        x = np.array([1.0, 0.0])
        pool = np.ones(10)
        assert qii_monte_carlo(fn, x, 0, pool, samples=50, seed=3) == 0.0

    def test_converges_to_exact_value(self):
        fn = lambda a: 2 * a[0] + a[1]
        x = np.array([1.0, 1.0])
        got = qii_monte_carlo(fn, x, 0, bernoulli_pool(0.25), 100_000, seed=7)
        assert got == pytest.approx(1.5, abs=0.02)

    def test_single_sample_is_single_draw(self):
        fn = lambda a: 2 * a[0] + a[1]
        x = np.array([1.0, 1.0])
        pool = bernoulli_pool(0.25)
        seed = 123
        v = pool[np.random.default_rng(seed).integers(0, len(pool), size=1)][0]
        xv = x.copy()
        xv[0] = v
        expected = fn(x) - fn(xv)
        assert qii_monte_carlo(fn, x, 0, pool, samples=1, seed=seed) == expected

    def test_within_three_sigma_of_exact(self, rng):
        # standard error from the pool's value distribution
        w = rng.normal(size=3)
        fn = lambda a: float(w @ a)
        x = np.array([1.0, 0.0, 1.0])
        marginal = 0.3
        pool = bernoulli_pool(marginal)
        n = 4000
        exact = qii_exact_binary(fn, x, 0, marginal)
        diffs = np.array([fn(x) - fn(np.array([v, 0.0, 1.0])) for v in pool])
        sigma = diffs.std() / np.sqrt(n)
        for seed in range(5):
            mc = qii_monte_carlo(fn, x, 0, pool, samples=n, seed=seed)
            assert abs(mc - exact) <= 3 * sigma + 1e-12

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            qii_monte_carlo(lambda a: 0.0, np.array([1.0]), 0, [], 10)


def linear_shadow_three_features():
    """k=1 shadow computing m(a) = 2 a0 + a1 over marginals (0.25, 0.5, 0.5)."""
    meta = make_meta(4, {"fa": {0}, "fb": {0, 1}, "fc": {2, 3}})
    weights = np.array([[2.0], [1.0], [0.0]])
    shadow = manual_shadow((weights, np.zeros(1)), np.array([[1.0], [2.0]]), meta)
    return shadow, meta


class TestExplain:
    def test_only_relevant_feature_scores(self, rng):
        # f_1 splits on feature 2 only; the other predictor is constant
        X = (rng.random((12, 4)) < 0.5).astype(float)
        y = X[:, 2] * 1.5
        tree = fit_tree(X, y, TreeParams(max_depth=1))
        meta = make_meta(12, {
            f"g{j}": set(np.flatnonzero(X[:, j]).tolist()) for j in range(4)
        })
        shadow = manual_shadow([tree, leaf_tree(0.7, 4)],
                               np.array([[1.0, 1.0]]), meta)
        report = explain(
            shadow, meta, InfluenceQuery(0, SingleItem(0)), top_k=4
        )
        values = dict(report.influences)
        for name, value in values.items():
            if name == "g2":
                continue
            assert value == 0.0
        assert report.influences[0][0] == "g2"

    def test_item_set_of_one_equals_single_item(self):
        shadow, meta = linear_shadow_three_features()
        single = explain(shadow, meta, InfluenceQuery(0, SingleItem(1)), top_k=3)
        setq = explain(shadow, meta, InfluenceQuery(0, ItemSet((1,))), top_k=3)
        assert single.influences == setq.influences
        assert single.shadow_rating == setq.shadow_rating

    def test_three_feature_linear_top_two(self):
        shadow, meta = linear_shadow_three_features()
        # item 0 holds fa and fb: x = (1, 1, 0)
        report = explain(shadow, meta, InfluenceQuery(0, SingleItem(0)), top_k=2)
        assert report.influences == (("fa", 1.5), ("fb", 0.5))
        assert report.shadow_rating == pytest.approx(3.0)

    def test_matches_scalar_estimator_per_item(self, rng):
        shadow, meta = linear_shadow_three_features()
        fn = lambda a: shadow.predict(0, a)
        report = explain(shadow, meta, InfluenceQuery(0, SingleItem(2)), top_k=3)
        for name, value in report.influences:
            f = meta.feature_index(name)
            expected = qii_exact_binary(fn, meta.X[2], f, meta.marginals[f])
            assert value == pytest.approx(expected, abs=1e-12)

    def test_aggregate_is_mean_of_per_item(self):
        shadow, meta = linear_shadow_three_features()
        items = (0, 2, 3)
        agg = explain(shadow, meta, InfluenceQuery(1, ItemSet(items)), top_k=3)
        singles = [
            dict(
                explain(shadow, meta, InfluenceQuery(1, SingleItem(i)), top_k=3)
                .influences
            )
            for i in items
        ]
        for name, value in agg.influences:
            assert value == pytest.approx(
                np.mean([s[name] for s in singles]), abs=1e-12
            )

    def test_monte_carlo_estimator_agrees(self):
        shadow, meta = linear_shadow_three_features()
        report = explain(shadow, meta, InfluenceQuery(0, SingleItem(0)), top_k=3)
        fn = lambda a: shadow.predict(0, a)
        for name, value in report.influences:
            f = meta.feature_index(name)
            mc = qii_monte_carlo(
                fn, meta.X[0], f, meta.X[:, f], samples=60_000, seed=5
            )
            assert mc == pytest.approx(value, abs=0.03)

    def test_linear_universe_aggregate_is_exactly_zero(self, rng):
        # The mean over every item of a 0/1 column is its marginal, bit for
        # bit, whatever the item order; a linear flip effect does not
        # depend on the item, so nothing is left to average.
        shadow, meta = linear_shadow_three_features()
        report = explain(
            shadow, meta, InfluenceQuery(1, ItemSet((3, 1, 0, 2))), top_k=3
        )
        assert report.influences == (("fa", 0.0), ("fb", 0.0), ("fc", 0.0))
        n_items, d = 40, 7
        X = (rng.random((n_items, d)) < 0.4).astype(float)
        meta = make_meta(n_items, {
            f"h{j}": set(np.flatnonzero(X[:, j]).tolist()) for j in range(d)
        })
        baseline = FactorModel(
            rank=3, lam=0.0,
            user_factors=rng.normal(size=(2, 3)),
            item_factors=rng.normal(size=(n_items, 3)),
        )
        shadow = train_shadow(baseline, meta, LinearKind(0.1), split=(0.8, 0))
        everything = ItemSet(tuple(rng.permutation(n_items).tolist()))
        report = explain(shadow, meta, InfluenceQuery(0, everything), top_k=d)
        assert [v for _, v in report.influences] == [0.0] * d
        assert all(math.copysign(1.0, v) == 1.0 for _, v in report.influences)
        assert [n for n, _ in report.influences] == sorted(meta.feature_names)

    def test_report_is_full_permutation_sorted_by_magnitude(self, rng):
        n_items, d = 10, 6
        X = (rng.random((n_items, d)) < 0.5).astype(float)
        meta = make_meta(
            n_items, {f"h{j}": set(np.flatnonzero(X[:, j]).tolist())
                      for j in range(d)}
        )
        baseline = FactorModel(
            rank=2, lam=0.0,
            user_factors=rng.normal(size=(3, 2)),
            item_factors=rng.normal(size=(n_items, 2)),
        )
        shadow = train_shadow(
            baseline, meta, TreeKind(TreeParams(max_depth=3)), split=(1.0, 0)
        )
        report = explain(shadow, meta, InfluenceQuery(1, SingleItem(4)), top_k=d)
        names = [n for n, _ in report.influences]
        assert sorted(names) == sorted(meta.feature_names)
        mags = [abs(v) for _, v in report.influences]
        assert all(a >= b - 1e-15 for a, b in zip(mags, mags[1:]))

    def test_influences_scale_with_user_row(self):
        shadow, meta = linear_shadow_three_features()
        # user 1's row is exactly twice user 0's
        r0 = explain(shadow, meta, InfluenceQuery(0, SingleItem(0)), top_k=3)
        r1 = explain(shadow, meta, InfluenceQuery(1, SingleItem(0)), top_k=3)
        v0, v1 = dict(r0.influences), dict(r1.influences)
        for name in v0:
            assert v1[name] == pytest.approx(2.0 * v0[name], abs=1e-12)

    def test_warns_on_items_outside_eval_split(self, rng):
        baseline = FactorModel(
            rank=1, lam=0.0,
            user_factors=rng.random((2, 1)),
            item_factors=rng.random((8, 1)),
        )
        meta = identity_meta(8)
        shadow = train_shadow(
            baseline, meta, TreeKind(TreeParams(max_depth=8)), split=(0.75, 0)
        )
        inside = int(shadow.eval_items[0])
        outside = int(shadow.train_items[0])
        clean = explain(shadow, meta, InfluenceQuery(0, SingleItem(inside)), top_k=2)
        flagged = explain(
            shadow, meta, InfluenceQuery(0, SingleItem(outside)), top_k=2
        )
        assert clean.warnings == ()
        assert any("outside" in w for w in flagged.warnings)

    def test_baseline_rating_only_for_single_item(self, rng):
        baseline = FactorModel(
            rank=1, lam=0.0,
            user_factors=np.array([[2.0]]),
            item_factors=np.array([[1.5], [0.5]]),
        )
        meta = identity_meta(2)
        shadow = train_shadow(
            baseline, meta, TreeKind(TreeParams(max_depth=2)), split=(1.0, 0)
        )
        single = explain(
            shadow, meta, InfluenceQuery(0, SingleItem(0)), top_k=2,
            baseline=baseline,
        )
        assert single.baseline_rating == pytest.approx(3.0)
        agg = explain(
            shadow, meta, InfluenceQuery(0, ItemSet((0, 1))), top_k=2,
            baseline=baseline,
        )
        assert agg.baseline_rating is None

    def test_linear_item_reads_same_bits_everywhere(self, rng):
        """An item's linear factors, and so its ratings, are the same bits in
        explain, in measure_agreement's item blocks and in predict: against
        a baseline whose item factors are the shadow's own, each item
        predicted alone, every agreement error is exactly 0.0."""
        n_items, n_users, rank, d = 2 * AGREEMENT_BLOCK + 37, 4, 5, 40
        X = rng.random((n_items, d)) < 0.3
        meta = make_meta(n_items, {
            f"h{j}": set(np.flatnonzero(X[:, j]).tolist()) for j in range(d)
        })
        item_indices = rng.permutation(n_items + 9)[:n_items]
        baseline = FactorModel(
            rank=rank, lam=0.0,
            user_factors=rng.normal(size=(n_users, rank)),
            item_factors=rng.normal(size=(n_items + 9, rank)),
        )
        shadow = train_shadow(baseline, meta, LinearKind(0.1), split=(0.4, 2),
                              item_indices=item_indices)
        mirrored = baseline.item_factors.copy()
        for row, item in enumerate(item_indices):
            mirrored[item] = shadow.predicted_factors_batch(meta.X[row:row + 1])[0]
        mirror = FactorModel(rank=rank, lam=0.0, user_factors=shadow.user_factors,
                             item_factors=mirrored)
        for item_set in ("eval", "train", "all"):
            report = measure_agreement(shadow, mirror, meta, item_set=item_set)
            assert report.per_factor_mae == (0.0,) * rank
            assert report.observational_mae == report.observational_mse == 0.0
        for row in rng.choice(n_items, size=12, replace=False):
            item = int(item_indices[row])
            for user in range(n_users):
                report = explain(shadow, meta, InfluenceQuery(user, SingleItem(item)),
                                 baseline=mirror)
                assert report.shadow_rating == report.baseline_rating
                assert report.shadow_rating == shadow.predict(user, meta.X[row])

    def test_feature_names_must_match(self):
        shadow, _ = linear_shadow_three_features()
        other = make_meta(4, {"x": {0}, "y": {1}, "z": {2}})
        with pytest.raises(ValidationError):
            explain(shadow, other, InfluenceQuery(0, SingleItem(0)), top_k=1)


def exact_influences_oracle(shadow, meta, user, rows):
    """m(x) - [p m(x|f=1) + (1-p) m(x|f=0)] for every feature, averaged over
    the rows, by two batch predictions per feature."""
    X = meta.X[rows].astype(np.float64)
    u = shadow.user_factors[user]
    base = shadow.predicted_factors_batch(X) @ u
    out = np.empty(meta.n_features)
    for f in range(meta.n_features):
        p = meta.marginals[f]
        x1 = X.copy()
        x1[:, f] = 1.0
        x0 = X.copy()
        x0[:, f] = 0.0
        r1 = shadow.predicted_factors_batch(x1) @ u
        r0 = shadow.predicted_factors_batch(x0) @ u
        out[f] = float(np.mean(base - (p * r1 + (1.0 - p) * r0)))
    return out


def features_on_paths(tree, X):
    """Features tested on the path of any row of X, walking the node objects."""
    found = set()
    for x in X:
        node = tree.root
        while not node.is_leaf:
            found.add(node.feature)
            node = node.right if bool(x[node.feature]) else node.left
    return found


@st.composite
def explain_problems(draw):
    """Random 0/1 metadata, a tree or linear shadow fitted to random item
    factors, and a single-item or item-set query."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_items = draw(st.integers(2, 30))
    d = draw(st.integers(1, 12))
    X = (rng.random((n_items, d)) < draw(st.floats(0.1, 0.9))).astype(float)
    meta = make_meta(n_items, {
        f"f{j:02d}": set(np.flatnonzero(X[:, j]).tolist()) for j in range(d)
    })
    rank = draw(st.integers(1, 3))
    baseline = FactorModel(
        rank=rank, lam=0.0,
        user_factors=rng.normal(size=(2, rank)),
        item_factors=rng.normal(size=(n_items, rank)),
    )
    if draw(st.booleans()):
        kind = LinearKind(ridge=0.1)
    else:
        kind = TreeKind(TreeParams(
            max_depth=draw(st.integers(0, 4)), min_leaf=draw(st.integers(1, 3))
        ))
    shadow = train_shadow(baseline, meta, kind, split=(1.0, 0))
    items = st.integers(0, n_items - 1)
    if draw(st.booleans()):
        scope = SingleItem(draw(items))
    else:
        scope = ItemSet(tuple(draw(st.lists(items, min_size=1, max_size=12))))
    return shadow, meta, InfluenceQuery(draw(st.integers(0, 1)), scope)


class TestExplainAgainstOracle:
    @settings(max_examples=200)
    @given(explain_problems())
    def test_matches_oracle_and_zeros_are_exact(self, problem):
        shadow, meta, query = problem
        scope = query.scope
        items = [scope.item] if isinstance(scope, SingleItem) else scope.items
        rows = np.array(items)
        report = explain(shadow, meta, query, top_k=meta.n_features)
        values = dict(report.influences)
        oracle = exact_influences_oracle(shadow, meta, query.user, rows)
        for f, name in enumerate(meta.feature_names):
            assert abs(values[name] - oracle[f]) <= 1e-12
        if isinstance(shadow.kind, TreeKind):
            movable = set()
            for tree in shadow.forest.trees:
                movable |= features_on_paths(tree, meta.X[rows])
            for f, name in enumerate(meta.feature_names):
                if f not in movable:
                    assert values[name] == 0.0
                    assert math.copysign(1.0, values[name]) == 1.0
        zeros = [name for name, v in report.influences if v == 0.0]
        assert zeros == sorted(zeros)
        assert [n for n, _ in report.influences[len(values) - len(zeros):]] == zeros


def influences_per_tree_oracle(shadow, X, user, marginals):
    """``influence._influences`` for a tree shadow, one factor at a time and
    one row at a time: each tree's path features and flip effects found by
    walking its node objects from the root, added into the result in factor
    order; and the factor predictions by the same walks."""
    u = shadow.user_factors[user]
    out = np.zeros(X.shape[1])
    for j, tree in enumerate(shadow.forest.trees):
        rows, features = path_oracle(tree, X)
        effect = u[j] * flip_oracle(tree, X, rows, features)
        lean = X[rows, features] - marginals[features]
        out += np.bincount(features, lean * effect, minlength=len(out)) / len(X)
    return out, walked_factors(shadow, X)


def walked_factors(shadow, X):
    """``ShadowModel.predicted_factors_batch`` for a tree shadow, by walking
    each tree's node objects for each row."""
    return np.column_stack([
        [walk_tree(tree, x) for x in X] for tree in shadow.forest.trees
    ])


@st.composite
def forest_problems(draw):
    """Random 0/1 metadata, 1-6 factor trees, a single-item or item-set
    query, and a ``FOREST_PAIRS`` that splits the trees into groups.

    Each factor tree is fitted to its own random target with its own depth
    (0 included), or hand-built with splits that may test a feature twice
    on a path, or a single leaf.  An item set may repeat items, and is
    sometimes given each of its items twice."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_items = draw(st.integers(1, 30))
    d = draw(st.integers(1, 12))
    X = (rng.random((n_items, d)) < draw(st.floats(0.1, 0.9))).astype(float)
    meta = make_meta(n_items, {
        f"f{j:02d}": set(np.flatnonzero(X[:, j]).tolist()) for j in range(d)
    })
    rank = draw(st.integers(1, 6))
    trees = []
    for _ in range(rank):
        shape = draw(st.sampled_from(["fitted", "hand-built", "leaf"]))
        depth = draw(st.integers(0, 5))
        if shape == "fitted":
            trees.append(fit_tree(X, rng.normal(size=n_items), TreeParams(
                max_depth=depth, min_leaf=draw(st.integers(1, 3))
            )))
        elif shape == "hand-built":
            trees.append(random_tree(rng, d, depth))
        else:
            trees.append(leaf_tree(float(rng.integers(-2, 3)) / 2, d))
    shadow = manual_shadow(trees, rng.normal(size=(2, rank)), meta)
    items = st.integers(0, n_items - 1)
    if draw(st.booleans()):
        scope = SingleItem(draw(items))
    else:
        chosen = draw(st.lists(items, min_size=1, max_size=12))
        if draw(st.booleans()):
            chosen = chosen + chosen[::-1]
        scope = ItemSet(tuple(chosen))
    pairs = draw(st.sampled_from([1, 2, 3, 7, regressors.FOREST_PAIRS]))
    return shadow, meta, InfluenceQuery(draw(st.integers(0, 1)), scope), pairs


def assert_matches_oracles(shadow, meta, query, pairs):
    """explain, and the shadow's factor predictions, are the same bits with
    the factor trees walked together, ``pairs`` pairs at a time, as with
    each tree walked from its root for each row."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regressors, "FOREST_PAIRS", pairs)
        report = explain(shadow, meta, query, top_k=meta.n_features)
        predicted = shadow.predicted_factors_batch(meta.X)
        mp.setattr(influence, "_influences", influences_per_tree_oracle)
        oracle = explain(shadow, meta, query, top_k=meta.n_features)
    assert report == oracle
    assert report.to_json() == oracle.to_json()  # signed zeros too
    assert predicted.flags.c_contiguous
    np.testing.assert_array_equal(predicted, walked_factors(shadow, meta.X))


class TestForestAgainstPerTreeOracle:
    @settings(max_examples=200)
    @given(forest_problems())
    def test_explain_is_bit_identical(self, problem):
        assert_matches_oracles(*problem)

    def test_many_trees_over_one_feature(self, rng):
        # Twelve factors' terms for one feature are added in factor order;
        # a sum over the factor axis of a (12, 1) array would add them
        # pairwise.
        n_items = 6
        meta = make_meta(n_items, {"f": {0, 2, 3}})
        trees = [random_tree(rng, 1, 1) for _ in range(12)]
        shadow = manual_shadow(trees, rng.normal(size=(2, 12)), meta)
        scopes = [SingleItem(i) for i in range(n_items)] + [
            ItemSet((0, 1)), ItemSet((1, 2, 3, 4, 5)), ItemSet((0, 0, 4)),
        ]
        for user in (0, 1):
            for scope in scopes:
                assert_matches_oracles(
                    shadow, meta, InfluenceQuery(user, scope), regressors.FOREST_PAIRS
                )

    def test_one_walk_per_tree_group(self, rng, monkeypatch):
        # Each group of factor trees is routed once from the roots and has
        # at most one pass for the flipped sides; nothing predicts the
        # factors again.
        n_items, d = 30, 8
        X = (rng.random((n_items, d)) < 0.5).astype(float)
        meta = make_meta(n_items, {
            f"f{j}": set(np.flatnonzero(X[:, j]).tolist()) for j in range(d)
        })
        trees = [fit_tree(X, rng.normal(size=n_items), TreeParams(max_depth=3))
                 for _ in range(5)]
        shadow = manual_shadow(trees, rng.normal(size=(2, 5)), meta)
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for cls, name in ((TreeForest, "_route"), (TreeForest, "_reroute"),
                          (TreeForest, "predict_batch"),
                          (ShadowModel, "predicted_factors_batch")):
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
        for pairs, scope in ((2048, SingleItem(4)), (2048, ItemSet(tuple(range(30)))),
                             (60, ItemSet(tuple(range(30))))):
            monkeypatch.setattr(regressors, "FOREST_PAIRS", pairs)
            groups = len(shadow.forest.groups(len(scope.items)
                                              if isinstance(scope, ItemSet) else 1))
            calls.clear()
            explain(shadow, meta, InfluenceQuery(0, scope), top_k=d)
            assert calls.count("_route") == groups
            assert calls.count("_reroute") <= groups
            assert set(calls) <= {"_route", "_reroute"}
        assert groups == 3


def assert_ranked_as_full_sort(shadow, meta, query, top_k):
    """explain's report is the same JSON as one ranked by sorting every
    feature, zeros included, by descending |influence| then name; and no
    influence is -0.0, which the cached zero pairs would print as 0.0."""
    scope = query.scope
    items = [scope.item] if isinstance(scope, SingleItem) else scope.items
    values, _ = influence._influences(
        shadow, meta.X[shadow.rows_of_items(items)], query.user, meta.marginals
    )
    assert not (np.signbit(values) & (values == 0.0)).any()
    report = explain(shadow, meta, query, top_k=top_k)
    top = np.lexsort((shadow.name_rank, -np.abs(values)))[:top_k]
    full = tuple(zip(shadow.name_array[top].tolist(), values[top].tolist()))
    assert report.to_json() == dataclasses.replace(report, influences=full).to_json()


class TestRankingAgainstFullSort:
    @settings(max_examples=200)
    @given(explain_problems(), st.integers(1, 14))
    def test_linear_and_tree_shadows(self, problem, top_k):
        assert_ranked_as_full_sort(*problem, top_k)

    @settings(max_examples=200)
    @given(forest_problems(), st.integers(1, 14))
    def test_hand_built_forests(self, problem, top_k):
        shadow, meta, query, _ = problem
        assert_ranked_as_full_sort(shadow, meta, query, top_k)

    def test_columns_out_of_name_order(self, rng):
        # Two depth-1 trees move at most two features; the other zeros
        # follow in name order, not in column order.
        names, n_items = ("f3", "f0", "f4", "f1", "f2"), 8
        X = rng.random((n_items, len(names))) < 0.5
        meta = MetadataMatrix.from_columns(
            n_items, names, [np.flatnonzero(column).tolist() for column in X.T]
        )
        trees = [random_tree(rng, len(names), 1) for _ in range(2)]
        shadow = manual_shadow(trees, rng.normal(size=(2, 2)), meta)
        for item in range(n_items):
            for top_k in (1, 3, 5):
                assert_ranked_as_full_sort(
                    shadow, meta, InfluenceQuery(1, SingleItem(item)), top_k
                )


class TestReportSerialization:
    def test_json_round_trip_fields(self):
        shadow, meta = linear_shadow_three_features()
        report = explain(shadow, meta, InfluenceQuery(0, SingleItem(0)), top_k=3)
        doc = json.loads(report.to_json())
        assert doc["user"] == 0
        assert doc["scope"] == {"single_item": 0}
        assert doc["estimator"] == "exact_binary"
        assert doc["influences"][0] == ["fa", 1.5]

    def test_svg_has_one_bar_per_feature(self, tmp_path):
        shadow, meta = linear_shadow_three_features()
        report = explain(shadow, meta, InfluenceQuery(0, SingleItem(0)), top_k=3)
        svg = influence_report_svg(report)
        assert svg.count('class="bar"') == 3
        path = tmp_path / "chart.svg"
        write_svg(report, path)
        assert path.read_text().count("<rect") == 3

    def test_svg_escapes_names(self):
        report_like = explain(
            *_escaped_fixture(), InfluenceQuery(0, SingleItem(0)), top_k=1
        )
        svg = influence_report_svg(report_like)
        assert "&lt;" in svg or "&amp;" in svg


def _escaped_fixture():
    meta = make_meta(2, {"genre=<weird&name>": {0}})
    shadow = manual_shadow([leaf_tree(1.0, 1)], np.ones((1, 1)), meta)
    return shadow, meta
