import json

import numpy as np
import pytest

from reclens.datamodel import FactorModel, predict_rating
from reclens.errors import FormatError, InsufficientDataError, ValidationError
from reclens.influence import InfluenceQuery, SingleItem, explain
from reclens.regressors import (
    MAX_TREE_DEPTH,
    TreeForest,
    TreeParams,
    fit_linear_columns,
)
from reclens import shadow as shadow_module
from reclens.shadow import (
    AGREEMENT_BLOCK,
    LinearKind,
    ShadowModel,
    TreeKind,
    faithfulness,
    latent_agreement,
    load_shadow,
    measure_agreement,
    observational_agreement,
    save_shadow,
    train_shadow,
)

from conftest import (
    identity_meta,
    leaf_tree,
    make_meta,
    manual_shadow,
    shadow_factors,
)


def random_model(rng, n_users, n_items, rank):
    return FactorModel(
        rank=rank, lam=0.0,
        user_factors=rng.random((n_users, rank)),
        item_factors=rng.random((n_items, rank)),
    )


def memorizing_shadow(baseline, meta, item_targets=None, user_factors=None):
    """Deep trees on exclusive per-item features memorize any target matrix
    exactly; used to build shadows with prescribed factor predictions."""
    surrogate = FactorModel(
        rank=baseline.rank,
        lam=0.0,
        user_factors=(
            baseline.user_factors if user_factors is None else user_factors
        ),
        item_factors=(
            baseline.item_factors if item_targets is None else item_targets
        ),
    )
    return train_shadow(
        surrogate,
        meta,
        TreeKind(TreeParams(max_depth=meta.n_items)),
        split=(1.0, 0),
    )


class TestTrainShadow:
    def test_identity_metadata_memorizes_factors(self, rng):
        n_items = 12
        baseline = random_model(rng, 5, n_items, 3)
        meta = identity_meta(n_items)
        shadow = memorizing_shadow(baseline, meta)
        per_factor, mean = latent_agreement(
            shadow, baseline, meta, range(n_items)
        )
        np.testing.assert_allclose(per_factor, 0.0, atol=1e-12)
        assert mean == 0.0

    def test_constant_factor_column(self, rng):
        meta = make_meta(4, {"a": {0, 1}, "b": {2}})
        baseline = FactorModel(
            rank=1, lam=0.0,
            user_factors=rng.random((3, 1)),
            item_factors=np.full((4, 1), 0.7),
        )
        shadow = train_shadow(baseline, meta, LinearKind(ridge=1e-6), split=(1.0, 0))
        np.testing.assert_allclose(shadow.weights[:, 0], 0.0, atol=1e-9)
        assert shadow.intercepts[0] == pytest.approx(0.7, abs=1e-9)
        assert shadow.predicted_factors_batch(np.array([[1.0, 0.0]]))[0, 0] == (
            pytest.approx(0.7)
        )

    def test_recovers_linear_ground_truth(self, rng):
        # item factors are an exact linear function of 3 binary features
        X = np.array([[int(b) for b in f"{i:03b}"] for i in range(8)], dtype=float)
        W = rng.normal(size=(3, 2))
        c = rng.normal(size=2)
        baseline = FactorModel(
            rank=2, lam=0.0,
            user_factors=rng.random((4, 2)),
            item_factors=X @ W + c,
        )
        meta = make_meta(8, {
            "f0": set(np.flatnonzero(X[:, 0]).tolist()),
            "f1": set(np.flatnonzero(X[:, 1]).tolist()),
            "f2": set(np.flatnonzero(X[:, 2]).tolist()),
        })
        shadow = train_shadow(baseline, meta, LinearKind(ridge=1e-10), split=(0.75, 1))
        _, train_mae = latent_agreement(shadow, baseline, meta, shadow.train_items)
        _, eval_mae = latent_agreement(shadow, baseline, meta, shadow.eval_items)
        assert train_mae < 1e-6
        assert eval_mae < 1e-6

    def test_split_partitions_items(self, rng):
        baseline = random_model(rng, 3, 10, 2)
        meta = identity_meta(10)
        shadow = train_shadow(
            baseline, meta, TreeKind(TreeParams(max_depth=2)), split=(0.8, 5)
        )
        train = set(shadow.train_items.tolist())
        ev = set(shadow.eval_items.tolist())
        assert len(train) == 8 and len(ev) == 2
        assert train | ev == set(range(10))
        assert not shadow.eval_is_train

    def test_full_split_reuses_training_items(self, rng):
        baseline = random_model(rng, 3, 6, 2)
        shadow = train_shadow(
            baseline, identity_meta(6), TreeKind(TreeParams(max_depth=1)),
            split=(1.0, 0),
        )
        assert shadow.eval_is_train
        np.testing.assert_array_equal(shadow.train_items, shadow.eval_items)

    def test_too_few_training_items(self, rng):
        baseline = random_model(rng, 3, 3, 2)
        with pytest.raises(InsufficientDataError):
            train_shadow(
                baseline, identity_meta(3), TreeKind(TreeParams(max_depth=1)),
                split=(0.4, 0),
            )

    def test_metadata_must_match_baseline_without_indices(self, rng):
        baseline = random_model(rng, 3, 5, 2)
        with pytest.raises(ValidationError, match="item_indices"):
            train_shadow(
                baseline, identity_meta(4), TreeKind(TreeParams(max_depth=1))
            )

    def test_item_indices_map_rows_to_baseline(self, rng):
        baseline = random_model(rng, 3, 10, 2)
        keep = np.array([1, 4, 7, 8, 9])
        meta = identity_meta(5)
        shadow = train_shadow(
            baseline, meta, TreeKind(TreeParams(max_depth=5)),
            split=(1.0, 0), item_indices=keep,
        )
        assert shadow.rows_of_items([4]).tolist() == [1]
        with pytest.raises(IndexError):
            shadow.rows_of_items([0])
        per_factor, _ = latent_agreement(shadow, baseline, meta, keep)
        np.testing.assert_allclose(per_factor, 0.0, atol=1e-12)


    def test_rows_of_items_one_lookup(self, rng):
        baseline = random_model(rng, 3, 12, 2)
        keep = rng.permutation(12)[:7]
        shadow = train_shadow(
            baseline, identity_meta(7), TreeKind(TreeParams(max_depth=2)),
            split=(0.5, 1), item_indices=keep,
        )
        items = np.concatenate([keep[::-1], keep[:3]])
        np.testing.assert_array_equal(
            shadow.rows_of_items(items), [list(keep).index(i) for i in items]
        )
        np.testing.assert_array_equal(
            shadow.in_eval, np.isin(keep, shadow.eval_items)
        )
        missing = int(np.setdiff1d(np.arange(12), keep)[0])
        with pytest.raises(IndexError, match=(
            f"^item {missing} is not in the shadow model's item universe$"
        )):
            shadow.rows_of_items([keep[0], missing, 99])
        with pytest.raises(IndexError, match=f"^item {missing} is not"):
            shadow.rows_of_items([keep[0], missing, 2**70])

    @pytest.mark.parametrize("ridge", [float("inf"), float("nan"), -0.5, "1",
                                       False])
    def test_linear_kind_ridge_must_be_finite_and_non_negative(self, ridge):
        with pytest.raises(ValidationError, match="ridge must be a finite number"):
            LinearKind(ridge=ridge)

    def test_linear_shadow_stacks_read_only_weights(self, rng, tmp_path):
        """A linear shadow holds the fitted (features, k) weights and k
        intercepts, read-only, float64 and C-ordered, and a saved and loaded
        shadow holds the same bits, so it explains the same bits too."""
        meta = identity_meta(6)
        baseline = random_model(rng, 2, 6, 3)
        shadow = train_shadow(baseline, meta, LinearKind(ridge=0.1), split=(1.0, 0))
        path = tmp_path / "linear.json"
        save_shadow(shadow, path)
        loaded = load_shadow(path)
        fitted = fit_linear_columns(meta.X, baseline.item_factors, 0.1)
        for model in (shadow, loaded):
            assert model.forest is None
            for held, fit in zip((model.weights, model.intercepts), fitted):
                assert held.dtype == np.float64 and held.flags.c_contiguous
                assert not held.flags.writeable
                np.testing.assert_array_equal(held, fit)
                with pytest.raises(ValueError):
                    held[0] = 1.0
        for user in range(2):
            for item in range(6):
                query = InfluenceQuery(user=user, scope=SingleItem(item))
                assert explain(loaded, meta, query, top_k=6) == explain(
                    shadow, meta, query, top_k=6)
        trees = train_shadow(baseline, meta, TreeKind(TreeParams(max_depth=2)),
                             split=(1.0, 0))
        assert trees.weights is None and trees.intercepts is None

    def test_predictor_width_must_match_feature_names(self):
        meta = make_meta(2, {"a": {0}, "b": {1}})
        for factors in ([leaf_tree(1.0, 3), leaf_tree(1.0, 3)],
                        (np.ones((3, 2)), np.zeros(2))):
            with pytest.raises(ValidationError,
                               match="the factors read 3 features, but the "
                                     "shadow names 2"):
                manual_shadow(factors, np.ones((1, 2)), meta)

    def test_fields_must_match_kind(self):
        """A tree shadow holds only a forest, and a linear shadow only its
        weights and intercepts: one finite factor per rank, each reading
        every feature."""
        meta = make_meta(2, {"a": {0}, "b": {1}})
        tree, linear = TreeKind(TreeParams(max_depth=0)), LinearKind(ridge=0.0)
        forest = TreeForest([leaf_tree(1.0, 2)] * 2)
        w, b = np.ones((2, 2)), np.zeros(2)

        def build(kind, **factors):
            return ShadowModel(
                kind=kind, **factors, user_factors=np.ones((1, 2)),
                feature_names=meta.feature_names, item_indices=np.arange(2),
                train_items=np.arange(2), eval_items=np.arange(2),
            )

        build(tree, forest=forest)
        build(linear, weights=w, intercepts=b)
        for kind, factors, message in [
            (tree, {}, "a tree shadow holds a forest and no linear weights"),
            (tree, {"forest": forest.trees}, "a tree shadow holds a forest"),
            (tree, {"forest": forest, "weights": w}, "a tree shadow holds"),
            (tree, {"forest": forest, "intercepts": b}, "a tree shadow holds"),
            (linear, {"weights": w}, "a linear shadow holds weights and "
                                     "intercepts and no forest"),
            (linear, {"forest": forest, "weights": w, "intercepts": b},
             "a linear shadow holds"),
            (linear, {"weights": np.ones(2), "intercepts": b},
             r"weights \(2,\) and intercepts \(2,\) are not \(features, k\)"),
            (linear, {"weights": w, "intercepts": np.zeros(3)},
             r"intercepts \(3,\) are not"),
            (linear, {"weights": np.ones((2, 3)), "intercepts": np.zeros(3)},
             "one predictor per latent factor"),
            (linear, {"weights": np.ones((3, 2)), "intercepts": b},
             "the factors read 3 features"),
            (linear, {"weights": [[1.0, np.inf], [0.0, 0.0]], "intercepts": b},
             "linear shadow weights must be finite"),
            (linear, {"weights": w, "intercepts": [0.0, np.nan]},
             "linear shadow intercepts must be finite"),
        ]:
            with pytest.raises(ValidationError, match=message):
                build(kind, **factors)


class TestShadowPredict:
    def test_exact_parts_compose_to_baseline(self, rng):
        n_items = 9
        baseline = random_model(rng, 4, n_items, 3)
        meta = identity_meta(n_items)
        shadow = memorizing_shadow(baseline, meta)
        for user in range(4):
            for item in range(n_items):
                a = meta.X[item]
                assert shadow.predict(user, a) == pytest.approx(
                    predict_rating(baseline, user, item), abs=1e-12
                )

    def test_zero_user_row(self):
        meta = make_meta(2, {"a": {0}, "b": {1}})
        shadow = manual_shadow(
            [leaf_tree(0.5, 2), leaf_tree(1.0, 2)],
            np.array([[0.0, 0.0]]),
            meta,
        )
        assert shadow.predict(0, np.array([1.0, 1.0])) == 0.0

    def test_hand_weighted_sum(self):
        meta = make_meta(2, {"a": {0}, "b": {1}})
        shadow = manual_shadow(
            [leaf_tree(0.5, 2), leaf_tree(1.0, 2)],
            np.array([[1.0, 2.0]]),
            meta,
        )
        assert shadow.predict(0, np.array([0.0, 1.0])) == 2.5

    def test_linear_in_user_row(self, rng):
        meta = make_meta(3, {"a": {0}, "b": {1, 2}})
        u = rng.normal(size=2)
        shadow = manual_shadow(
            [leaf_tree(0.3, 2), leaf_tree(-1.2, 2)],
            np.vstack([u, 3.0 * u]),
            meta,
        )
        a = np.array([1.0, 0.0])
        assert shadow.predict(1, a) == pytest.approx(3.0 * shadow.predict(0, a),
                                                     rel=1e-12)

    def test_user_out_of_range(self):
        meta = make_meta(1, {"a": {0}})
        shadow = manual_shadow([leaf_tree(1.0, 1)], np.ones((1, 1)), meta)
        with pytest.raises(IndexError):
            shadow.predict(5, np.array([1.0]))

    @pytest.mark.parametrize("kind", ["tree", "linear"])
    def test_equals_row_of_batch(self, rng, kind):
        X = rng.random((12, 4)) < 0.5
        meta = make_meta(12, {
            f"g{j}": set(np.flatnonzero(X[:, j]).tolist()) for j in range(4)
        })
        baseline = random_model(rng, 3, 12, 3)
        shadow_kind = {"tree": TreeKind(TreeParams(max_depth=3)),
                       "linear": LinearKind(ridge=0.1)}[kind]
        trained = train_shadow(baseline, meta, shadow_kind, split=(1.0, 0))
        shadow = manual_shadow(shadow_factors(trained), baseline.user_factors, meta,
                               ridge=0.1)
        batch = shadow.predicted_factors_batch(meta.X)
        for user in range(3):
            for item in range(12):
                expected = float(shadow.user_factors[user] @ batch[item])
                for a in (meta.X[item], meta.X[item].astype(np.float64)):
                    assert shadow.predict(user, a) == expected

    def test_mixed_predictor_families_rejected(self, rng, tmp_path):
        meta = identity_meta(6)
        baseline = random_model(rng, 2, 6, 2)
        trees, linear = (
            train_shadow(baseline, meta, k, split=(1.0, 0))
            for k in (TreeKind(TreeParams(max_depth=3)), LinearKind(ridge=0.1))
        )
        for first, second in ((trees, linear), (linear, trees)):
            path = tmp_path / "shadow.json"
            save_shadow(first, path)
            doc = json.loads(path.read_text())
            save_shadow(second, path)
            doc["predictors"][1] = json.loads(path.read_text())["predictors"][1]
            path.write_text(json.dumps(doc))
            with pytest.raises(FormatError, match="predictor 1 is a "):
                load_shadow(path)

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0])
    def test_non_binary_attribute_vector(self, value):
        meta = make_meta(2, {"a": {0}, "b": {1}})
        shadow = manual_shadow([leaf_tree(1.0, 2)], np.ones((1, 1)), meta)
        with pytest.raises(ValidationError, match=f"0/1, but X holds {value}"):
            shadow.predict(0, np.array([1.0, value]))

    @pytest.mark.parametrize("kind", ["tree", "linear"])
    def test_wrong_length_attribute_vector(self, kind):
        meta = make_meta(2, {"a": {0}, "b": {1}})
        factors = {
            "tree": [leaf_tree(1.0, 2)],
            "linear": (np.ones((2, 1)), np.zeros(1)),
        }[kind]
        shadow = manual_shadow(factors, np.ones((1, 1)), meta)
        for a in (np.ones(1), np.ones(3), np.ones((1, 2))):
            with pytest.raises(ValidationError, match="expected"):
                shadow.predict(0, a)


class TestLatentAgreement:
    def test_single_item_single_factor(self):
        meta = make_meta(1, {"a": {0}})
        baseline = FactorModel(
            rank=1, lam=0.0, user_factors=np.ones((1, 1)),
            item_factors=np.array([[0.9]]),
        )
        shadow = manual_shadow([leaf_tree(0.4, 1)], np.ones((1, 1)), meta)
        per_factor, mean = latent_agreement(shadow, baseline, meta, [0])
        assert per_factor[0] == pytest.approx(0.5, abs=1e-15)
        assert mean == pytest.approx(0.5, abs=1e-15)

    def test_hand_averaging_two_factors(self):
        meta = identity_meta(2)
        baseline = FactorModel(
            rank=2, lam=0.0, user_factors=np.ones((1, 2)),
            item_factors=np.array([[1.2, 4.0], [0.6, 7.0]]),
        )
        # factor 1 predicted with residuals (0.2, 0.4); factor 2 exact
        from reclens.regressors import RegressionTree, TreeNode

        f1 = RegressionTree(
            root=TreeNode(feature=0,
                          left=TreeNode(value=1.0), right=TreeNode(value=1.0)),
            params=TreeParams(max_depth=1), n_features=2,
        )
        f2 = RegressionTree(
            root=TreeNode(feature=0,
                          left=TreeNode(value=7.0), right=TreeNode(value=4.0)),
            params=TreeParams(max_depth=1), n_features=2,
        )
        shadow = manual_shadow([f1, f2], np.ones((1, 2)), meta)
        per_factor, mean = latent_agreement(shadow, baseline, meta, [0, 1])
        np.testing.assert_allclose(per_factor, [0.3, 0.0], atol=1e-15)
        assert mean == pytest.approx(0.15, abs=1e-15)

    def test_empty_items_rejected(self, rng):
        baseline = random_model(rng, 2, 3, 1)
        meta = identity_meta(3)
        shadow = memorizing_shadow(baseline, meta)
        with pytest.raises(ValidationError):
            latent_agreement(shadow, baseline, meta, [])


class TestObservationalAgreement:
    def setup_pair_shadow(self, values, truths):
        """One user with factor 1.0; per-item shadow/baseline ratings given
        directly as leaf values vs item factors."""
        n = len(values)
        meta = identity_meta(n)
        from reclens.regressors import RegressionTree, TreeNode

        def chain(vals):
            # depth-(n-1) caterpillar: item i -> vals[i]
            node = TreeNode(value=float(vals[n - 1]))
            for i in range(n - 2, -1, -1):
                node = TreeNode(
                    feature=i,
                    left=node, right=TreeNode(value=float(vals[i])),
                )
            return node

        tree = RegressionTree(root=chain(values),
                              params=TreeParams(max_depth=max(1, n)), n_features=n)
        baseline = FactorModel(
            rank=1, lam=0.0, user_factors=np.ones((1, 1)),
            item_factors=np.array(truths, dtype=float).reshape(-1, 1),
        )
        shadow = manual_shadow([tree], np.ones((1, 1)), meta)
        return shadow, baseline, meta

    def test_identical_predictions(self, rng):
        baseline = random_model(rng, 3, 5, 2)
        meta = identity_meta(5)
        shadow = memorizing_shadow(baseline, meta)
        pairs = [(u, i) for u in range(3) for i in range(5)]
        assert observational_agreement(shadow, baseline, meta, pairs) == (0.0, 0.0)

    def test_symmetric_residuals(self):
        shadow, baseline, meta = self.setup_pair_shadow([3.0, 5.0], [4.0, 4.0])
        mae, mse = observational_agreement(shadow, baseline, meta, [(0, 0), (0, 1)])
        assert mae == pytest.approx(1.0, abs=1e-15)
        assert mse == pytest.approx(1.0, abs=1e-15)

    def test_hand_computed_mae_mse(self):
        shadow, baseline, meta = self.setup_pair_shadow([3.5, 3.9], [4.0, 4.0])
        mae, mse = observational_agreement(shadow, baseline, meta, [(0, 0), (0, 1)])
        assert mae == pytest.approx(0.3, abs=1e-12)
        assert mse == pytest.approx(0.13, abs=1e-12)

    def test_empty_pairs_rejected(self, rng):
        baseline = random_model(rng, 2, 3, 1)
        meta = identity_meta(3)
        shadow = memorizing_shadow(baseline, meta)
        with pytest.raises(ValidationError):
            observational_agreement(shadow, baseline, meta, [])


class TestFaithfulness:
    def all_pairs(self, n_users, n_items):
        return [(u, i) for u in range(n_users) for i in range(n_items)]

    def test_exact_shadow_has_huge_ratio(self, rng):
        baseline = random_model(rng, 6, 10, 2)
        meta = identity_meta(10)
        shadow = memorizing_shadow(baseline, meta)
        ratio = faithfulness(shadow, baseline, meta, self.all_pairs(6, 10), seed=1)
        assert ratio > 1e6

    def test_random_shadow_ratio_near_one(self, rng):
        # predictions drawn from the same per-factor uniform ranges as the
        # randomization itself: the two error distributions coincide
        n_users, n_items = 25, 40
        baseline = random_model(rng, n_users, n_items, 2)
        meta = identity_meta(n_items)
        lo = baseline.item_factors.min(axis=0)
        hi = baseline.item_factors.max(axis=0)
        Z = lo + rng.random((n_items, 2)) * (hi - lo)
        shadow = memorizing_shadow(baseline, meta, item_targets=Z)
        pairs = self.all_pairs(n_users, n_items)
        assert len(pairs) == 1000
        ratio = faithfulness(shadow, baseline, meta, pairs, seed=11)
        assert 0.5 <= ratio <= 2.0

    def test_half_variance_noise_beats_randomization(self, rng):
        n_users, n_items = 20, 50
        baseline = random_model(rng, n_users, n_items, 2)
        meta = identity_meta(n_items)
        lo = baseline.item_factors.min(axis=0)
        hi = baseline.item_factors.max(axis=0)
        noise_sd = np.sqrt(((hi - lo) ** 2 / 12.0) / 2.0)
        Z = baseline.item_factors + rng.normal(size=(n_items, 2)) * noise_sd
        shadow = memorizing_shadow(baseline, meta, item_targets=Z)
        ratio = faithfulness(
            shadow, baseline, meta, self.all_pairs(n_users, n_items), seed=2
        )
        assert ratio > 1.0

    def test_seeded_reproducibility(self, rng):
        baseline = random_model(rng, 4, 8, 2)
        meta = identity_meta(8)
        shadow = train_shadow(
            baseline, meta, TreeKind(TreeParams(max_depth=2)), split=(1.0, 0)
        )
        pairs = self.all_pairs(4, 8)
        assert faithfulness(shadow, baseline, meta, pairs, seed=9) == faithfulness(
            shadow, baseline, meta, pairs, seed=9
        )


class TestMeasureAgreement:
    def test_report_consistency(self, rng):
        baseline = random_model(rng, 5, 12, 2)
        meta = identity_meta(12)
        shadow = train_shadow(
            baseline, meta, TreeKind(TreeParams(max_depth=3)), split=(0.75, 0)
        )
        report = measure_agreement(shadow, baseline, meta, item_set="eval", seed=0)
        assert report.mean_latent_mae == pytest.approx(
            float(np.mean(report.per_factor_mae)), abs=1e-12
        )
        assert report.observational_mse >= 0.0
        train_report = measure_agreement(shadow, baseline, meta, item_set="train")
        assert train_report.observational_mae <= report.observational_mae + 1e-9

    def test_unknown_item_set(self, rng):
        baseline = random_model(rng, 2, 6, 1)
        meta = identity_meta(6)
        shadow = train_shadow(
            baseline, meta, TreeKind(TreeParams(max_depth=1)), split=(1.0, 0)
        )
        with pytest.raises(ValidationError):
            measure_agreement(shadow, baseline, meta, item_set="bogus")


class TestBlockedAgreement:
    """measure_agreement's item-block sums against the pair-list functions
    on the full users x items grid."""

    def problem(self, rng, n_items, split, kind):
        # a pruned, shuffled item universe over a larger baseline, so that
        # metadata rows, baseline items and eval order all differ
        n_users, n_base, rank = 30, n_items + 15, 3
        baseline = random_model(rng, n_users, n_base, rank)
        item_indices = rng.permutation(n_base)[:n_items]
        meta = make_meta(n_items, {
            f"f{j}": set(np.flatnonzero(rng.random(n_items) < 0.4).tolist())
            for j in range(10)
        })
        shadow = train_shadow(
            baseline, meta, kind, split=split, item_indices=item_indices
        )
        return shadow, baseline, meta

    def assert_matches_oracle(self, shadow, baseline, meta, item_set, seed):
        items = {"eval": shadow.eval_items, "train": shadow.train_items,
                 "all": shadow.item_indices}[item_set]
        pairs = [(u, int(i)) for i in items for u in range(shadow.n_users)]
        report = measure_agreement(
            shadow, baseline, meta, item_set=item_set, seed=seed
        )
        mae, mse = observational_agreement(shadow, baseline, meta, pairs)
        faith = faithfulness(shadow, baseline, meta, pairs, seed=seed)
        assert report.observational_mae == pytest.approx(mae, rel=1e-12)
        assert report.observational_mse == pytest.approx(mse, rel=1e-12)
        assert report.faithfulness == pytest.approx(faith, rel=1e-12)
        per_factor, mean_mae = latent_agreement(shadow, baseline, meta, items)
        assert report.per_factor_mae == tuple(per_factor)
        assert report.mean_latent_mae == mean_mae

    @pytest.mark.parametrize("item_set", ["eval", "train", "all"])
    @pytest.mark.parametrize("kind", [
        LinearKind(ridge=0.1), TreeKind(TreeParams(max_depth=3)),
    ])
    @pytest.mark.parametrize("block", [4, AGREEMENT_BLOCK])
    def test_matches_pair_functions(self, rng, monkeypatch, item_set, kind, block):
        monkeypatch.setattr(shadow_module, "AGREEMENT_BLOCK", block)
        shadow, baseline, meta = self.problem(
            rng, 2 * AGREEMENT_BLOCK + 90, (0.4, 5), kind
        )
        assert len(shadow.eval_items) > AGREEMENT_BLOCK
        self.assert_matches_oracle(shadow, baseline, meta, item_set, seed=3)

    def test_eval_is_train(self, rng, monkeypatch):
        monkeypatch.setattr(shadow_module, "AGREEMENT_BLOCK", 4)
        shadow, baseline, meta = self.problem(
            rng, 21, (1.0, 0), LinearKind(ridge=0.1)
        )
        assert shadow.eval_is_train
        self.assert_matches_oracle(shadow, baseline, meta, "eval", seed=0)
        assert measure_agreement(shadow, baseline, meta, "eval") == (
            measure_agreement(shadow, baseline, meta, "train")
        )


def test_each_distinct_item_is_predicted_once(rng, monkeypatch):
    """Agreement predicts an item's factors once, however many users pair
    with it and however many blocks the items span."""
    monkeypatch.setattr(shadow_module, "AGREEMENT_BLOCK", 4)
    n_items = 14
    baseline = random_model(rng, 5, n_items, 2)
    meta = identity_meta(n_items)
    shadow = train_shadow(
        baseline, meta, TreeKind(TreeParams(max_depth=3)), split=(0.5, 1)
    )
    items = shadow.eval_items
    pairs = [(u, int(i)) for i in items for u in range(shadow.n_users)]
    # identity metadata: one row per item, so rows name the items
    distinct_rows = meta.X[shadow.rows_of_items(np.sort(items))]
    seen = []
    predict = ShadowModel.predicted_factors_batch

    def spy(self, X):
        seen.append(np.array(X))
        return predict(self, X)

    monkeypatch.setattr(ShadowModel, "predicted_factors_batch", spy)
    for run in (
        lambda: measure_agreement(shadow, baseline, meta),
        lambda: observational_agreement(shadow, baseline, meta, pairs),
        lambda: faithfulness(shadow, baseline, meta, pairs),
    ):
        seen.clear()
        run()
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], distinct_rows)


class TestPersistence:
    @pytest.mark.parametrize("kind", [
        TreeKind(TreeParams(max_depth=3, min_leaf=2)),
        LinearKind(ridge=0.25),
    ])
    def test_round_trip_preserves_predictions(self, rng, tmp_path, kind):
        baseline = FactorModel(
            rank=2, lam=0.1,
            user_factors=rng.random((4, 2)),
            item_factors=rng.random((9, 2)),
            user_ids=tuple(f"u{i}" for i in range(4)),
            item_ids=tuple(f"m{i}" for i in range(9)),
        )
        meta = identity_meta(9)
        shadow = train_shadow(baseline, meta, kind, split=(0.8, 3))
        path = tmp_path / "shadow.json"
        save_shadow(shadow, path)
        loaded = load_shadow(path)
        assert loaded.feature_names == shadow.feature_names
        assert loaded.kind == shadow.kind
        assert loaded.eval_is_train == shadow.eval_is_train
        assert loaded.user_ids == shadow.user_ids
        np.testing.assert_array_equal(loaded.train_items, shadow.train_items)
        for item in range(9):
            a = meta.X[item]
            for user in range(4):
                assert loaded.predict(user, a) == shadow.predict(user, a)


    def tree_file(self, rng, tmp_path):
        baseline = random_model(rng, 3, 8, 2)
        shadow = memorizing_shadow(baseline, identity_meta(8))
        path = tmp_path / "shadow.json"
        save_shadow(shadow, path)
        return shadow, path

    def test_tree_file_writes_v1_constants(self, rng, tmp_path):
        _, path = self.tree_file(rng, tmp_path)
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert doc["kind"]["bins"] == 32
        root = doc["predictors"][0]["root"]
        assert doc["predictors"][0]["bins"] == 32 and root["threshold"] == 0.5

    @pytest.mark.parametrize("threshold", [0.3, 1, "0.5", None])
    def test_threshold_other_than_half_rejected(self, rng, tmp_path, threshold):
        _, path = self.tree_file(rng, tmp_path)
        doc = json.loads(path.read_text())
        doc["predictors"][1]["root"]["threshold"] = threshold
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="threshold .* is not 0.5"):
            load_shadow(path)


def test_deepest_tree_round_trips_and_explains(tmp_path):
    """A chain tree of exactly MAX_TREE_DEPTH levels fits, saves, loads and
    explains: each split of identity metadata peels off one item."""
    n_items = MAX_TREE_DEPTH + 1
    meta = identity_meta(n_items)
    baseline = FactorModel(
        rank=1, lam=0.0, user_factors=np.ones((1, 1)),
        item_factors=np.arange(n_items, dtype=np.float64)[:, None],
    )
    shadow = train_shadow(
        baseline, meta, TreeKind(TreeParams(max_depth=MAX_TREE_DEPTH)),
        split=(1.0, 0),
    )
    assert shadow.forest.trees[0].root.depth() == MAX_TREE_DEPTH
    path = tmp_path / "deep.json"
    save_shadow(shadow, path)
    loaded = load_shadow(path)
    assert loaded.forest == shadow.forest
    np.testing.assert_array_equal(
        loaded.predicted_factors_batch(meta.X), baseline.item_factors
    )
    for item in (0, n_items // 2, n_items - 1):
        query = InfluenceQuery(user=0, scope=SingleItem(item))
        assert explain(loaded, meta, query) == explain(shadow, meta, query)


def test_load_shadow_rejects_unknown_version(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"format": "reclens-shadow-model", "version": 99}))
    with pytest.raises(ValidationError, match="version"):
        load_shadow(path)
