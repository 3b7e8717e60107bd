"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS line (run with ``pytest -s`` to see them inline).
A failed assertion marks the criterion failed.
"""

import json
import statistics
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from reclens.cli import SweepGrid, main, run_sweep
from reclens.datamodel import FactorModel, RatingsMatrix
from reclens.factorize import AlsConfig, train_als, training_rmse
from reclens.influence import qii_exact_binary, qii_monte_carlo
from reclens.ingest import FeatureFilterSpec, encode_one_hot, load_metadata, load_ratings
from reclens.regressors import TreeParams
from reclens.shadow import LinearKind, TreeKind, measure_agreement, train_shadow
from reclens.synth import (
    ExperimentConfig,
    SimConfig,
    cohens_d,
    correctness_score,
    random_metadata,
    run_hypothesis_experiment,
    welch_t,
)

from conftest import identity_meta
from test_cli import structured_sweep_fixture, synth_config
from test_influence import qii_enumeration_oracle
from test_synth import report_from_values


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed < self.limit, (
            f"runtime {self.elapsed:.1f}s exceeds {self.limit:.0f}s budget"
        )


def report(criterion: int, detail: str, budget: Budget):
    budget.check()
    print(f"CRITERION {criterion} PASS: {detail} [{budget.elapsed:.1f}s]")


def desk_scale_config(**overrides) -> ExperimentConfig:
    base = dict(
        sim=SimConfig(
            n_profiles=3, features_per_profile=4, n_users=500,
            ratings_per_user=50,
            feature_pool=FeatureFilterSpec.top_k_entropy(15), seed=0,
        ),
        als=AlsConfig(rank=3, lam=0.1, max_iterations=20),
        shadow_kind=TreeKind(TreeParams(max_depth=5)),
        n_reps=20, users_per_rep=1, n_items=200, n_meta_features=200,
        seed=20260808,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_criterion_1_qii_oracle_equivalence(rng):
    budget = Budget(10.0)
    max_diff = 0.0
    checked = 0
    for n_features in range(3, 9):
        meta = random_metadata(40, n_features, rng=rng,
                               marginal_range=(0.2, 0.8))
        baseline = FactorModel(
            rank=2, lam=0.0,
            user_factors=rng.normal(size=(5, 2)),
            item_factors=rng.normal(size=(40, 2)),
        )
        kind = (
            TreeKind(TreeParams(max_depth=3))
            if n_features % 2
            else LinearKind(ridge=0.05)
        )
        shadow = train_shadow(baseline, meta, kind, split=(1.0, 0))
        user = int(rng.integers(0, 5))
        fn = lambda a: shadow.predict(user, a)
        for row in rng.choice(40, size=4, replace=False):
            x = meta.X[row]
            for f in range(n_features):
                pool = meta.X[:, f]
                exact = qii_exact_binary(fn, x, f, meta.marginals[f])
                oracle = qii_enumeration_oracle(fn, x, f, pool)
                max_diff = max(max_diff, abs(exact - oracle))
                checked += 1
                assert exact == pytest.approx(oracle, abs=1e-12)
    # seeded Monte-Carlo agrees with the closed form at 100k samples
    meta = random_metadata(40, 4, rng=rng, marginal_range=(0.2, 0.8))
    baseline = FactorModel(
        rank=2, lam=0.0,
        user_factors=rng.normal(size=(3, 2)),
        item_factors=rng.normal(size=(40, 2)),
    )
    shadow = train_shadow(
        baseline, meta, TreeKind(TreeParams(max_depth=3)), split=(1.0, 0)
    )
    fn = lambda a: shadow.predict(1, a)
    x = meta.X[7]
    mc_diffs = []
    for f in range(4):
        exact = qii_exact_binary(fn, x, f, meta.marginals[f])
        mc = qii_monte_carlo(fn, x, f, meta.X[:, f], 100_000, seed=f + 1)
        mc_diffs.append(abs(mc - exact))
        assert mc == pytest.approx(exact, abs=0.02)
    report(
        1,
        f"{checked} exact-vs-enumeration checks (max diff {max_diff:.2e}), "
        f"monte-carlo within {max(mc_diffs):.4f} of exact",
        budget,
    )


def test_criterion_2_als_on_complete_rank3_matrix(rng):
    budget = Budget(5.0)
    n_users, n_items = 60, 40
    U = np.column_stack([
        np.ones(n_users),
        rng.uniform(-1, 1, size=(n_users, 2)).T.reshape(2, -1).T,
    ])
    V = np.column_stack([
        np.full(n_items, 3.0),
        rng.uniform(-0.9, 0.9, size=(n_items, 2)).T.reshape(2, -1).T,
    ])
    R = U @ V.T
    assert R.min() >= 1.0 and R.max() <= 5.0
    users, items = np.divmod(np.arange(R.size), n_items)
    ratings = RatingsMatrix(
        n_users=n_users, n_items=n_items, users=users, items=items,
        ratings=R.ravel(), scale=(1.0, 5.0),
    )
    history = []
    model = train_als(
        ratings,
        AlsConfig(rank=3, lam=1e-6, max_iterations=30, convergence_tol=0.0),
        on_iteration=lambda it, rmse: history.append(rmse),
    )
    final = training_rmse(model, ratings)
    assert final < 0.05
    assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))
    report(
        2,
        f"training rmse {final:.2e} after {len(history)} iterations, "
        "monotone within 1e-9",
        budget,
    )


def test_criterion_3_shadow_composition_exactness(rng):
    budget = Budget(10.0)
    n_users, n_items = 15, 24
    R = rng.uniform(1.0, 5.0, size=(n_users, n_items))
    users, items = np.divmod(np.arange(R.size), n_items)
    ratings = RatingsMatrix(
        n_users=n_users, n_items=n_items, users=users, items=items,
        ratings=R.ravel(), scale=(1.0, 5.0),
    )
    baseline = train_als(ratings, AlsConfig(rank=4, lam=0.05, max_iterations=10))
    meta = identity_meta(n_items)
    # identity features isolate one item per split, so memorization takes
    # depth n_items - 1; that choice satisfies the depth >= log2(n) floor
    shadow = train_shadow(
        baseline, meta, TreeKind(TreeParams(max_depth=n_items)),
        split=(1.0, 0),
    )
    agreement = measure_agreement(shadow, baseline, meta, item_set="train")
    assert agreement.observational_mae < 0.05
    report(
        3,
        f"observational MAE {agreement.observational_mae:.2e} over "
        f"{n_items} memorized items",
        budget,
    )


def test_criterion_4_synthetic_hypothesis_ordering():
    budget = Budget(180.0)
    result = run_hypothesis_experiment(desk_scale_config())
    means = result.means
    p_true_random = result.tests["true_vs_random"]["p"]
    assert means["true"] > means["semi_random"] > means["random"]
    assert p_true_random < 0.01
    assert means["random"] < 0.10
    report(
        4,
        "means true/semi/random = "
        f"{means['true']:.3f}/{means['semi_random']:.3f}/{means['random']:.3f}, "
        f"welch p(true vs random) = {p_true_random:.2e}",
        budget,
    )


def test_criterion_5_direct_encoding_control():
    budget = Budget(120.0)
    result = run_hypothesis_experiment(desk_scale_config(direct_encode=True))
    assert result.means["true"] >= 0.95
    report(
        5,
        f"direct-encoded true-condition mean {result.means['true']:.3f}",
        budget,
    )


def test_criterion_6_trees_beat_linear_on_interactions(tmp_path, rng):
    budget = Budget(120.0)
    ratings_path, meta_path = structured_sweep_fixture(tmp_path, rng, "parity")
    ratings = load_ratings(ratings_path)
    records = load_metadata(meta_path)
    item_index = {iid: i for i, iid in enumerate(ratings.item_ids)}
    meta = encode_one_hot(records, item_index=item_index, n_items=ratings.n_items)
    grid = SweepGrid(
        ranks=(2,), lambdas=(1e-6,), kinds=("linear", "tree"),
        depths=(2, 3),
    )
    rows = run_sweep(
        ratings, meta, np.arange(ratings.n_items), grid,
        iters=60, split=1.0, seed=0,
    )
    assert all(r["error"] is None for r in rows)
    linear = [r["observational_mae"] for r in rows if r["cell"]["kind"] == "linear"]
    tree = [r["observational_mae"] for r in rows if r["cell"]["kind"] == "tree"]
    assert len(tree) == 2 and len(linear) == 1
    assert max(tree) < min(linear)
    report(
        6,
        f"worst tree cell MAE {max(tree):.3f} < best linear cell MAE "
        f"{min(linear):.3f} on parity preferences",
        budget,
    )


def test_criterion_7_statistics_match_reference_oracles(rng):
    budget = Budget(30.0)
    worst = {"t": 0.0, "p": 0.0, "d": 0.0}
    for _ in range(20):
        a = rng.normal(loc=rng.normal(), scale=rng.uniform(0.3, 2.0),
                       size=int(rng.integers(4, 50)))
        b = rng.normal(loc=rng.normal(), scale=rng.uniform(0.3, 2.0),
                       size=int(rng.integers(4, 50)))
        t, p = welch_t(a, b)
        oracle = scipy_stats.ttest_ind(a, b, equal_var=False)
        d = cohens_d(a, b)
        pooled = np.sqrt(
            ((len(a) - 1) * statistics.stdev(a.tolist()) ** 2
             + (len(b) - 1) * statistics.stdev(b.tolist()) ** 2)
            / (len(a) + len(b) - 2)
        )
        d_oracle = (statistics.mean(a.tolist()) - statistics.mean(b.tolist())) / pooled
        worst["t"] = max(worst["t"], abs(t - oracle.statistic))
        worst["p"] = max(worst["p"], abs(p - oracle.pvalue))
        worst["d"] = max(worst["d"], abs(d - d_oracle))
        assert t == pytest.approx(oracle.statistic, abs=1e-6)
        assert p == pytest.approx(oracle.pvalue, abs=1e-6)
        assert d == pytest.approx(d_oracle, abs=1e-6)
    report(
        7,
        "20 sample pairs: max |dt|={t:.1e}, |dp|={p:.1e}, |dd|={d:.1e}".format(
            **worst
        ),
        budget,
    )


def test_criterion_8_thread_count_determinism(tmp_path, rng, capsys):
    budget = Budget(120.0)
    # sweep outputs
    ratings_path, meta_path = structured_sweep_fixture(tmp_path, rng, "parity")
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "ranks": [2, 3], "lambdas": [0.01], "kinds": ["linear", "tree"],
        "depths": [2], "bins": [2],
    }))
    sweep_outs = []
    for threads in (1, 8):
        out = tmp_path / f"sweep_t{threads}.jsonl"
        code = main([
            "sweep", "--ratings", str(ratings_path), "--metadata", str(meta_path),
            "--grid", str(grid_path), "--split", "1.0", "--iters", "10",
            "--seed", "9", "--threads", str(threads), "--out", str(out),
        ])
        assert code == 0
        sweep_outs.append(out.read_bytes())
    assert sweep_outs[0] == sweep_outs[1]
    # synth outputs
    config = synth_config(tmp_path)
    synth_outs = []
    for threads in (1, 8):
        out = tmp_path / f"synth_t{threads}.json"
        code = main([
            "synth", "--config", str(config), "--seed", "4",
            "--threads", str(threads), "--out", str(out),
        ])
        assert code == 0
        synth_outs.append(out.read_bytes())
    assert synth_outs[0] == synth_outs[1]
    capsys.readouterr()
    report(
        8,
        f"sweep ({len(sweep_outs[0])} bytes) and synth ({len(synth_outs[0])} "
        "bytes) outputs byte-identical across --threads 1 and 8",
        budget,
    )


def test_criterion_9_correctness_score_properties(rng):
    budget = Budget(30.0)
    boundary_hits = 0
    for trial in range(1000):
        d = int(rng.integers(2, 12))
        values = {f"f{j:02d}": float(rng.normal()) for j in range(d)}
        report_obj = report_from_values(values)
        n = int(rng.integers(1, d + 1))
        names = sorted(values)
        if trial % 3 == 0:
            # force the true set to be exactly the top-n by magnitude
            true = set(sorted(names, key=lambda nm: -abs(values[nm]))[:n])
        else:
            true = set(rng.choice(names, size=n, replace=False))
        score = correctness_score(report_obj, true, by_magnitude=True)
        assert 0.0 <= score <= 1.0
        top = set(sorted(names, key=lambda nm: -abs(values[nm]))[:n])
        if true == top:
            assert score == 1.0
            boundary_hits += 1
        else:
            assert score < 1.0
        # signed ranking stays in the unit interval as well
        assert 0.0 <= correctness_score(report_obj, true, by_magnitude=False) <= 1.0
    assert boundary_hits >= 300
    report(
        9,
        f"1000 randomized influence lists in [0, 1]; {boundary_hits} exact "
        "top-n sets scored 1.0",
        budget,
    )
