import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats as scipy_stats
from scipy.special import stdtr

from reclens import synth
from reclens.datamodel import RatingsMatrix, predict_rating
from reclens.errors import StatsError, ValidationError
from reclens.factorize import AlsConfig
from reclens.influence import InfluenceQuery, InfluenceReport, SingleItem
from reclens.ingest import FeatureFilterSpec
from reclens.regressors import TreeParams
from reclens.shadow import TreeKind
from reclens.synth import (
    ExperimentConfig,
    PreferenceProfile,
    ScoreSample,
    SimConfig,
    cohens_d,
    control_profiles,
    correctness_score,
    direct_encode_model,
    generate_profiles,
    profile_rating,
    random_metadata,
    run_hypothesis_experiment,
    student_t_two_sided,
    simulate_ratings,
    welch_t,
)

from conftest import make_meta


def sim_config(**overrides):
    base = dict(
        n_profiles=2,
        features_per_profile=3,
        n_users=10,
        ratings_per_user=4,
        feature_pool=FeatureFilterSpec.top_k_entropy(6),
        seed=0,
    )
    base.update(overrides)
    return SimConfig(**base)


def simulate_ratings_oracle(profiles, meta, cfg, rng=None):
    """The reference simulation: one :func:`profile_rating` call per rating,
    on the item's feature set."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    item_features = [
        frozenset(np.flatnonzero(meta.X[i]).tolist()) for i in range(meta.n_items)
    ]
    assignment = {}
    users, items, values = [], [], []
    for user in range(cfg.n_users):
        if user < len(profiles):
            p_idx = user
        else:
            p_idx = int(rng.integers(0, len(profiles)))
        assignment[user] = p_idx
        rated = rng.choice(meta.n_items, size=cfg.ratings_per_user, replace=False)
        for item in sorted(int(i) for i in rated):
            users.append(user)
            items.append(item)
            values.append(profile_rating(profiles[p_idx], item_features[item], cfg))
    matrix = RatingsMatrix(
        n_users=cfg.n_users,
        n_items=meta.n_items,
        users=np.array(users, dtype=np.int64),
        items=np.array(items, dtype=np.int64),
        ratings=np.array(values, dtype=np.float64),
        scale=cfg.scale_bounds,
    )
    return matrix, assignment


@st.composite
def simulation_cases(draw):
    """Random metadata, profiles over its features and a simulation config
    whose delta is often large enough to clamp at either scale bound."""
    n_items = draw(st.integers(1, 10))
    n_features = draw(st.integers(1, 8))
    meta = make_meta(n_items, {
        f"f{j}": draw(st.sets(st.integers(0, n_items - 1)))
        for j in range(n_features)
    })
    profiles = []
    for _ in range(draw(st.integers(1, 4))):
        feats = draw(st.lists(st.integers(0, n_features - 1), min_size=1,
                              max_size=n_features, unique=True))
        signs = draw(st.lists(st.booleans(), min_size=len(feats),
                              max_size=len(feats)))
        profiles.append(PreferenceProfile(
            liked=frozenset(f for f, s in zip(feats, signs) if s),
            disliked=frozenset(f for f, s in zip(feats, signs) if not s),
        ))
    cfg = sim_config(
        n_profiles=len(profiles),
        n_users=len(profiles) + draw(st.integers(1, 12)),
        ratings_per_user=draw(
            st.one_of(st.just(n_items), st.integers(1, n_items))
        ),
        base_rating=draw(st.floats(1.0, 5.0)),
        delta=draw(st.floats(-4.0, 4.0)),
    )
    return profiles, meta, cfg, draw(st.integers(0, 2**32 - 1))


def report_from_values(values: dict[str, float]) -> InfluenceReport:
    ranked = tuple(
        sorted(values.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    )
    return InfluenceReport(
        query=InfluenceQuery(0, SingleItem(0)),
        influences=ranked,
        shadow_rating=0.0,
    )


class TestGenerateProfiles:
    def test_forced_full_pool(self):
        cfg = sim_config(n_profiles=5, features_per_profile=4)
        profiles = generate_profiles([3, 5, 9, 11], cfg)
        for p in profiles:
            assert p.features == {3, 5, 9, 11}

    def test_deterministic_for_fixed_seed(self):
        cfg = sim_config(n_profiles=3, features_per_profile=2, seed=77)
        a = generate_profiles(range(8), cfg)
        b = generate_profiles(range(8), cfg)
        assert a == b

    def test_liked_disliked_partition(self, rng):
        cfg = sim_config(n_profiles=50, features_per_profile=4, n_users=51)
        for p in generate_profiles(range(10), cfg, rng=rng):
            assert not (p.liked & p.disliked)
            assert len(p.features) == 4

    def test_feature_frequencies_binomial(self):
        # each of 10 features should appear in about 3/10 of profiles
        cfg = sim_config(n_profiles=10_000, features_per_profile=3, seed=5,
                         n_users=10_001)
        profiles = generate_profiles(range(10), cfg)
        counts = np.zeros(10)
        for p in profiles:
            for f in p.features:
                counts[f] += 1
        p_hit = 3 / 10
        sigma = math.sqrt(p_hit * (1 - p_hit) / len(profiles))
        freq = counts / len(profiles)
        assert np.all(np.abs(freq - p_hit) <= 3 * sigma)

    def test_pool_too_small(self):
        cfg = sim_config(features_per_profile=5)
        with pytest.raises(ValidationError):
            generate_profiles([1, 2], cfg)

    def test_profile_invariants(self):
        with pytest.raises(ValidationError):
            PreferenceProfile(liked=frozenset({1}), disliked=frozenset({1}))
        with pytest.raises(ValidationError):
            PreferenceProfile(liked=frozenset(), disliked=frozenset())


class TestSimulateRatings:
    def three_feature_meta(self):
        return make_meta(6, {"a": {0, 1, 2}, "b": {1, 3}, "c": {2, 4}})

    def test_no_match_gives_base_rating(self):
        cfg = sim_config()
        profile = PreferenceProfile(frozenset({0}), frozenset({1}))
        assert profile_rating(profile, frozenset(), cfg) == cfg.base_rating

    def test_hand_computed_rating(self):
        cfg = sim_config()
        profile = PreferenceProfile(frozenset({0, 1}), frozenset({2}))
        # two liked matches, one disliked: 3 + 2 - 1
        assert profile_rating(profile, frozenset({0, 1, 2}), cfg) == 4.0

    def test_clamped_at_ceiling(self):
        cfg = sim_config()
        profile = PreferenceProfile(frozenset({0, 1, 2, 3}), frozenset())
        assert profile_rating(profile, frozenset({0, 1, 2, 3}), cfg) == 5.0

    def test_ratings_respect_bounds(self, rng):
        meta = random_metadata(30, 8, rng=rng)
        cfg = sim_config(
            n_profiles=3, features_per_profile=5, n_users=20,
            ratings_per_user=10, delta=2.0,
            feature_pool=FeatureFilterSpec.top_k_entropy(8),
        )
        profiles = generate_profiles(range(8), cfg, rng=rng)
        ratings, _ = simulate_ratings(profiles, meta, cfg, rng=rng)
        lo, hi = cfg.scale_bounds
        assert ratings.ratings.min() >= lo
        assert ratings.ratings.max() <= hi
        assert ratings.nnz == 20 * 10

    def test_every_profile_used(self, rng):
        meta = self.three_feature_meta()
        cfg = sim_config(n_profiles=4, features_per_profile=2, n_users=9,
                         ratings_per_user=3,
                         feature_pool=FeatureFilterSpec.top_k_entropy(3))
        profiles = generate_profiles(range(3), cfg, rng=rng)
        _, assignment = simulate_ratings(profiles, meta, cfg, rng=rng)
        assert set(assignment.values()) == set(range(4))
        assert len(assignment) == 9

    def test_too_many_ratings_per_user(self, rng):
        meta = self.three_feature_meta()
        cfg = sim_config(ratings_per_user=7)
        profiles = [PreferenceProfile(frozenset({0}), frozenset())]
        with pytest.raises(ValidationError):
            simulate_ratings(profiles, meta, cfg)

    @given(simulation_cases())
    def test_matches_per_rating_oracle(self, case):
        profiles, meta, cfg, seed = case
        rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        got, got_assignment = simulate_ratings(profiles, meta, cfg, rng=rng)
        want, want_assignment = simulate_ratings_oracle(
            profiles, meta, cfg, rng=oracle_rng
        )
        for name in ("users", "items", "ratings"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got_assignment == want_assignment
        # the generator is left where the oracle leaves it
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_grouped_by_user_in_item_order(self, rng):
        meta = random_metadata(30, 8, rng=rng)
        cfg = sim_config(n_profiles=3, n_users=25, ratings_per_user=9)
        profiles = generate_profiles(range(8), cfg, rng=rng)
        ratings, _ = simulate_ratings(profiles, meta, cfg, rng=rng)
        np.testing.assert_array_equal(ratings.users, np.repeat(np.arange(25), 9))
        assert np.all(np.diff(ratings.items.reshape(25, 9), axis=1) > 0)

    @pytest.mark.parametrize("feature", [-1, 3])
    def test_profile_feature_outside_metadata(self, feature):
        meta = self.three_feature_meta()
        profiles = [PreferenceProfile(frozenset({0}), frozenset({feature}))]
        with pytest.raises(ValidationError, match="outside the 3-feature"):
            simulate_ratings(profiles, meta, sim_config(ratings_per_user=3))

    def test_no_profiles(self):
        meta = self.three_feature_meta()
        with pytest.raises(ValidationError, match="at least one profile"):
            simulate_ratings([], meta, sim_config(ratings_per_user=3))

    def test_reproducible(self):
        meta = self.three_feature_meta()
        cfg = sim_config(ratings_per_user=3, seed=13)
        profiles = generate_profiles(range(3), cfg)
        r1, a1 = simulate_ratings(profiles, meta, cfg)
        r2, a2 = simulate_ratings(profiles, meta, cfg)
        np.testing.assert_array_equal(r1.ratings, r2.ratings)
        assert a1 == a2


class TestCorrectnessScore:
    def test_exact_top_n_scores_one(self):
        report = report_from_values({"a": 0.9, "b": 0.5, "c": 0.1, "d": 0.05})
        assert correctness_score(report, {"a", "b"}) == 1.0

    def test_zero_influence_true_features(self):
        report = report_from_values({"a": 0.0, "b": 0.4, "c": 0.3, "d": 0.0})
        assert correctness_score(report, {"a", "d"}) == 0.0

    def test_hand_computed_ratio(self):
        report = report_from_values({"a": 0.4, "b": 0.2, "c": 0.3, "d": 0.1})
        expected = ((0.4 + 0.1) / 2) / ((0.4 + 0.3) / 2)
        assert expected == pytest.approx(0.7142857142857143, abs=1e-15)
        assert correctness_score(report, {"a", "d"}) == pytest.approx(
            expected, abs=1e-15
        )

    def test_missing_feature_is_integrity_error(self):
        report = report_from_values({"a": 0.4})
        with pytest.raises(ValidationError, match="absent"):
            correctness_score(report, {"zz"})

    def test_empty_true_set_rejected(self):
        report = report_from_values({"a": 0.4})
        with pytest.raises(ValidationError):
            correctness_score(report, set())

    def test_signed_vs_magnitude_ranking(self):
        report = report_from_values({"a": -0.9, "b": 0.5, "c": 0.1})
        # by magnitude, "a" is the most influential feature
        assert correctness_score(report, {"a"}, by_magnitude=True) == 1.0
        # by signed value it is the least
        signed = correctness_score(report, {"a"}, by_magnitude=False)
        assert signed == 0.0

    def test_always_in_unit_interval(self, rng):
        for _ in range(300):
            d = int(rng.integers(2, 9))
            values = {f"f{j}": float(rng.normal()) for j in range(d)}
            report = report_from_values(values)
            n = int(rng.integers(1, d + 1))
            true = set(rng.choice(sorted(values), size=n, replace=False))
            for mode in (True, False):
                s = correctness_score(report, true, by_magnitude=mode)
                assert 0.0 <= s <= 1.0

    def test_one_iff_top_n_under_active_ranking(self, rng):
        for _ in range(200):
            d = int(rng.integers(3, 8))
            values = {f"f{j}": float(rng.normal()) for j in range(d)}
            report = report_from_values(values)
            n = int(rng.integers(1, d))
            true = set(rng.choice(sorted(values), size=n, replace=False))
            for mode in (True, False):
                key = (lambda nm: abs(values[nm])) if mode else (
                    lambda nm: values[nm]
                )
                ranked = sorted(values, key=key, reverse=True)
                top = set(ranked[:n])
                top_mean = float(np.mean([key(nm) for nm in ranked[:n]]))
                s = correctness_score(report, true, by_magnitude=mode)
                if top_mean <= 0.0:
                    # score is defined as 0 once the top-n mean is not positive
                    assert s == 0.0
                elif true == top:
                    assert s == 1.0
                else:
                    assert s < 1.0


class TestControlProfiles:
    def test_semi_random_keep_all_is_identity(self):
        profile = PreferenceProfile(frozenset({1, 2}), frozenset({3}))
        out = control_profiles(profile, range(10), "semi_random", keep_fraction=1.0)
        assert out == profile

    def test_random_disjoint_pool_no_overlap(self):
        profile = PreferenceProfile(frozenset({1, 2}), frozenset({3}))
        out = control_profiles(profile, [10, 11, 12, 13], "random", seed=4)
        assert not (out.features & profile.features)
        assert len(out.features) == 3

    def test_semi_random_keeps_exactly_half(self):
        profile = PreferenceProfile(frozenset({0, 1}), frozenset({2, 3}))
        for seed in range(20):
            out = control_profiles(
                profile, range(20), "semi_random", keep_fraction=0.5, seed=seed
            )
            survivors = out.features & profile.features
            assert len(survivors) == 2
            assert len(out.features) == 4
            # kept features keep their signs
            for f in survivors:
                assert (f in out.liked) == (f in profile.liked)

    def test_semi_random_keeps_at_least_one(self):
        profile = PreferenceProfile(frozenset({5}), frozenset())
        out = control_profiles(profile, range(10), "semi_random",
                               keep_fraction=0.1, seed=0)
        assert 5 in out.features

    def test_pool_too_small(self):
        profile = PreferenceProfile(frozenset({0, 1, 2}), frozenset())
        with pytest.raises(ValidationError):
            control_profiles(profile, [0, 1], "random", seed=0)

    def test_unknown_mode(self):
        profile = PreferenceProfile(frozenset({0}), frozenset())
        with pytest.raises(ValidationError):
            control_profiles(profile, range(5), "shuffled")


class TestDirectEncodeModel:
    def build(self, rng, delta=1.0, base=3.0):
        meta = random_metadata(25, 6, rng=rng)
        cfg = sim_config(
            n_profiles=2, features_per_profile=3, n_users=8, ratings_per_user=10,
            delta=delta, base_rating=base,
            feature_pool=FeatureFilterSpec.top_k_entropy(6),
        )
        profiles = generate_profiles(range(6), cfg, rng=rng)
        ratings, assignment = simulate_ratings(profiles, meta, cfg, rng=rng)
        model = direct_encode_model(
            profiles, assignment, meta, range(6), base_rating=base, delta=delta
        )
        return meta, cfg, profiles, ratings, assignment, model

    def test_predictions_match_unclamped_rule(self, rng):
        meta, cfg, profiles, ratings, assignment, model = self.build(rng)
        item_feats = [
            frozenset(np.flatnonzero(meta.X[i]).tolist())
            for i in range(meta.n_items)
        ]
        for user in range(cfg.n_users):
            profile = profiles[assignment[user]]
            for item in range(meta.n_items):
                raw = (
                    cfg.base_rating
                    + cfg.delta * len(profile.liked & item_feats[item])
                    - cfg.delta * len(profile.disliked & item_feats[item])
                )
                assert predict_rating(model, user, item) == pytest.approx(
                    raw, abs=1e-12
                )

    def test_zero_overlap_predicts_base(self):
        meta = make_meta(2, {"a": {0}, "b": {0}})
        profiles = [PreferenceProfile(frozenset({0}), frozenset({1}))]
        model = direct_encode_model(profiles, {0: 0}, meta, [0, 1],
                                    base_rating=3.0, delta=1.0)
        assert predict_rating(model, 0, 1) == 3.0

    def test_clamped_rating_documented_mismatch(self):
        # item holds three liked features: rule gives 6, stored rating is 5
        meta = make_meta(1, {"a": {0}, "b": {0}, "c": {0}})
        profile = PreferenceProfile(frozenset({0, 1, 2}), frozenset())
        cfg = sim_config(
            n_profiles=1, features_per_profile=3, n_users=2, ratings_per_user=1,
            feature_pool=FeatureFilterSpec.top_k_entropy(3),
        )
        stored = profile_rating(profile, frozenset({0, 1, 2}), cfg)
        assert stored == 5.0
        model = direct_encode_model([profile], {0: 0, 1: 0}, meta, [0, 1, 2])
        assert predict_rating(model, 0, 0) == 6.0


class TestWelchT:
    def test_identical_samples(self):
        t, p = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert p == pytest.approx(1.0, abs=1e-15)

    def test_shifted_sequence_frozen_values(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [2.0, 3.0, 4.0, 5.0, 6.0]
        t, p = welch_t(a, b)
        assert t == pytest.approx(-1.0, abs=1e-12)
        assert p == pytest.approx(0.34659350708733416, abs=1e-12)
        oracle = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(oracle.statistic, abs=1e-12)
        assert p == pytest.approx(oracle.pvalue, abs=1e-12)

    def test_widely_separated_samples(self, rng):
        a = 0.75 + rng.normal(scale=0.01, size=20)
        b = 0.0 + rng.normal(scale=0.01, size=20)
        _, p = welch_t(a, b)
        assert p < 1e-8

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=15),
        st.lists(st.floats(-50, 50), min_size=2, max_size=15),
    )
    def test_antisymmetric_in_swap(self, a, b):
        if np.var(a) == 0.0 and np.var(b) == 0.0:
            return
        t_ab, p_ab = welch_t(a, b)
        t_ba, p_ba = welch_t(b, a)
        assert t_ab == pytest.approx(-t_ba, abs=1e-12)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)

    def test_degenerate_samples(self):
        with pytest.raises(StatsError):
            welch_t([1.0], [1.0, 2.0])
        with pytest.raises(StatsError):
            welch_t([2.0, 2.0], [3.0, 3.0])

    def test_matches_scipy_on_random_pairs(self, rng):
        for _ in range(20):
            a = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 2),
                           size=int(rng.integers(5, 40)))
            b = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 2),
                           size=int(rng.integers(5, 40)))
            t, p = welch_t(a, b)
            oracle = scipy_stats.ttest_ind(a, b, equal_var=False)
            assert t == pytest.approx(oracle.statistic, abs=1e-6)
            assert p == pytest.approx(oracle.pvalue, abs=1e-6)


def student_t_reference(t: float, df: float) -> float:
    """Two-sided Student-t tail from scipy.  At df = 1 it is the Cauchy
    closed form 2 atan(1/|t|) / pi instead: there scipy's ``stdtr`` loses
    digits for small |t| (relative error 3e-9 at t = 1e-8)."""
    if df == 1.0:
        return 2.0 / math.pi * math.atan(1.0 / t) if t else 1.0
    return 2.0 * float(stdtr(df, -t))


def t_where_tail_is(df: float, p: float = 1e-300) -> float:
    """The |t| (to 1e-8 in log10) at which the reference tail falls to p."""
    lo, hi = -8.0, 310.0
    while hi - lo > 1e-8:
        mid = (lo + hi) / 2
        if student_t_reference(10.0**mid, df) >= p:
            lo = mid
        else:
            hi = mid
    return 10.0**lo


class TestStudentTTail:
    @given(
        st.one_of(st.floats(1.0, 1e6), st.integers(1, 10**6).map(float)),
        st.one_of(st.sampled_from([0.0, 1e-8]), st.floats(0.0, 1.0)),
    )
    @example(1.0, 1e-8)
    @example(1e6, 1e-8)
    @example(1.0, 1.0)
    @example(1e6, 1.0)
    @example(2.5, 1.0)
    @example(760383.0790178004, 0.5)
    def test_matches_scipy(self, df, position):
        """|t| runs log-uniformly from 1e-8 to where the tail reaches 1e-300
        (``position`` 0 to 1); 0.0 and 1e-8 are drawn as themselves.  At
        df = 760383.079... the difference of two ``math.lgamma`` values is
        1.6e-9 off ln(Gamma(df/2 + 1/2) / Gamma(df/2))."""
        if position in (0.0, 1e-8):
            t = position
        else:
            t = 10.0 ** (-8.0 + position * (math.log10(t_where_tail_is(df)) + 8.0))
        expected = student_t_reference(t, df)
        if expected >= 1e-300:
            assert student_t_two_sided(t, df) == pytest.approx(expected, rel=1e-9)
            assert student_t_two_sided(-t, df) == student_t_two_sided(t, df)

    @pytest.mark.parametrize("df", [1.0, 2.5, 38.0, 1e6])
    def test_zero_t_is_exactly_one(self, df):
        assert student_t_two_sided(0.0, df) == 1.0

    def test_huge_t_does_not_overflow(self):
        # t^2 overflows a float; the tail is 2 / (pi t) to first order
        assert student_t_two_sided(1e200, 1.0) == pytest.approx(
            2.0 / math.pi * 1e-200, rel=1e-12)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(synth, "_CF_MAX_TERMS", 1)
        with pytest.raises(StatsError, match="did not converge"):
            student_t_two_sided(2.0, 30.0)
        with pytest.raises(StatsError, match="did not converge"):
            welch_t([0.1, 0.5, 0.9, 0.3], [0.6, 0.2, 0.8, 0.7])

    @pytest.mark.parametrize("t, df", [(math.nan, 3.0), (1.0, 0.0), (1.0, math.nan)])
    def test_undefined_inputs_raise(self, t, df):
        with pytest.raises(StatsError):
            student_t_two_sided(t, df)


class TestCohensD:
    def test_equal_means(self):
        assert cohens_d([1.0, 3.0], [3.0, 1.0]) == 0.0

    def test_one_pooled_sigma(self):
        # means differ by exactly the pooled standard deviation
        a = [0.0, 2.0]
        b = [sqrt2 := math.sqrt(2.0), 2.0 + sqrt2]
        assert cohens_d(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_hand_case(self):
        assert cohens_d([0.0, 1.0], [2.0, 3.0]) == pytest.approx(
            -2.8284271247461903, abs=1e-12
        )

    def test_zero_pooled_deviation(self):
        with pytest.raises(StatsError):
            cohens_d([2.0, 2.0], [3.0, 3.0])

    def test_matches_stdlib_oracle(self, rng):
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(4, 25))).tolist()
            b = rng.normal(loc=0.3, size=int(rng.integers(4, 25))).tolist()
            pooled = math.sqrt(
                (
                    (len(a) - 1) * statistics.stdev(a) ** 2
                    + (len(b) - 1) * statistics.stdev(b) ** 2
                )
                / (len(a) + len(b) - 2)
            )
            oracle = (statistics.mean(a) - statistics.mean(b)) / pooled
            assert cohens_d(a, b) == pytest.approx(oracle, abs=1e-6)


class TestRandomMetadata:
    def test_deterministic(self):
        m1 = random_metadata(20, 5, rng=9)
        m2 = random_metadata(20, 5, rng=9)
        np.testing.assert_array_equal(m1.X, m2.X)

    def test_shape_and_names(self):
        meta = random_metadata(12, 11, rng=0)
        assert meta.n_items == 12
        assert meta.n_features == 11
        assert meta.feature_names[1] == "f01"


def fast_experiment_config(**overrides):
    base = dict(
        sim=SimConfig(
            n_profiles=2, features_per_profile=3, n_users=40, ratings_per_user=12,
            feature_pool=FeatureFilterSpec.top_k_entropy(8), seed=0,
        ),
        als=AlsConfig(rank=2, lam=0.1, max_iterations=8),
        shadow_kind=TreeKind(TreeParams(max_depth=4)),
        n_reps=4, users_per_rep=2, n_items=30, n_meta_features=40, seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestHypothesisExperiment:
    def test_reproducible_bit_for_bit(self):
        cfg = fast_experiment_config()
        r1 = run_hypothesis_experiment(cfg)
        r2 = run_hypothesis_experiment(cfg)
        assert r1.to_dict() == r2.to_dict()

    def test_same_result_with_oracle_simulation(self, monkeypatch):
        cfg = fast_experiment_config()
        fast = run_hypothesis_experiment(cfg).to_dict()
        monkeypatch.setattr(synth, "simulate_ratings", simulate_ratings_oracle)
        assert run_hypothesis_experiment(cfg).to_dict() == fast

    def test_thread_count_does_not_change_results(self):
        cfg = fast_experiment_config()
        serial = run_hypothesis_experiment(cfg)
        threaded = run_hypothesis_experiment(replace(cfg, threads=4))
        assert serial.to_dict() == threaded.to_dict()

    def test_sample_accounting(self):
        cfg = fast_experiment_config()
        result = run_hypothesis_experiment(cfg)
        for condition in ("true", "semi_random", "random"):
            scores = result.condition_scores(condition)
            assert len(scores) == cfg.n_reps * cfg.users_per_rep
            assert all(0.0 <= s <= 1.0 for s in scores)

    def test_zero_delta_has_no_signal(self):
        # preferences never touch the ratings, so the true condition cannot
        # beat the random one
        cfg = fast_experiment_config(
            sim=SimConfig(
                n_profiles=2, features_per_profile=3, n_users=40,
                ratings_per_user=12, delta=0.0,
                feature_pool=FeatureFilterSpec.top_k_entropy(8), seed=0,
            ),
            n_reps=20, users_per_rep=1,
        )
        result = run_hypothesis_experiment(cfg)
        diff = abs(result.means["true"] - result.means["random"])
        assert diff < 0.05
        tvr = result.tests["true_vs_random"]
        assert "error" in tvr or tvr["p"] > 0.05

    def test_score_sample_validation(self):
        with pytest.raises(ValidationError):
            ScoreSample(condition="true", user=0, score=1.5)
