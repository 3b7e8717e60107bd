import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reclens.cli import SweepGrid, experiment_config_from_dict, main, run_sweep
from reclens.errors import ValidationError
from reclens.factorize import AlsConfig, load_model
from reclens.regressors import MAX_TREE_DEPTH
from reclens.shadow import load_shadow
from reclens.synth import ExperimentConfig, SimConfig

from conftest import fit_linear_oracle, write_metadata_jsonl, write_ratings_csv
from test_influence import influences_per_tree_oracle, walked_factors
from test_factorize import row_groups_buckets_oracle, solve_half_buckets_oracle


def make_identity_fixture(tmp_path, rng, n_users=6, n_items=12):
    """Complete random ratings plus one exclusive metadata feature per item."""
    ratings_path = tmp_path / "ratings.csv"
    meta_path = tmp_path / "meta.jsonl"
    rows = []
    for u in range(n_users):
        for i in range(n_items):
            rows.append((f"u{u}", f"m{i}", round(rng.uniform(1.0, 5.0), 3), 0))
    write_ratings_csv(ratings_path, rows)
    write_metadata_jsonl(
        meta_path, {f"m{i}": {"id": [f"m{i}"]} for i in range(n_items)}
    )
    return ratings_path, meta_path


def structured_sweep_fixture(tmp_path, rng, kind):
    """Complete ratings whose item factors are either linear or parity
    functions of binary metadata features.

    Every item also carries a constant "base" flag so that no derived
    all-items-without-flags column exists to perturb the tree splits.
    """
    if kind == "linear":
        n_feat, n_items = 6, 48
        A = (rng.random((n_items, n_feat)) < 0.5).astype(float)
        parts = [
            0.3 * (A[:, 0] + A[:, 1] - A[:, 2]),
            0.3 * (A[:, 3] - A[:, 4] + A[:, 5]),
        ]
    else:
        # one parity pair (features 0, 1) plus two inert features; a tree of
        # depth 2 recovers the parity exactly, a linear model never can
        n_feat, n_items = 4, 16
        A = np.array(
            [[int(b) for b in f"{i:04b}"] for i in range(16)], dtype=float
        )
        parts = [0.6 * (np.logical_xor(A[:, 0], A[:, 1]) - 0.5)]
    n_users = 20
    I0 = np.column_stack([np.full(n_items, 3.0)] + parts)
    U0 = np.column_stack(
        [np.ones(n_users)]
        + [rng.uniform(-1, 1, n_users) for _ in parts]
    )
    R = U0 @ I0.T
    assert R.min() >= 1.0 and R.max() <= 5.0
    ratings_path = tmp_path / f"{kind}_ratings.csv"
    meta_path = tmp_path / f"{kind}_meta.jsonl"
    rows = [
        (f"u{u}", f"m{i}", repr(float(R[u, i])), 0)
        for u in range(n_users)
        for i in range(n_items)
    ]
    write_ratings_csv(ratings_path, rows)
    write_metadata_jsonl(
        meta_path,
        {
            f"m{i}": {
                "flag": ["base"] + [f"f{j}" for j in range(n_feat) if A[i, j] > 0]
            }
            for i in range(n_items)
        },
    )
    return ratings_path, meta_path


def synth_config(tmp_path, **overrides):
    doc = {
        "sim": {
            "n_profiles": 2, "features_per_profile": 3, "n_users": 30,
            "ratings_per_user": 8,
            "feature_pool": {"kind": "top_k_entropy", "value": 8},
        },
        "als": {"rank": 2, "lambda": 0.1, "max_iterations": 6},
        "shadow": {"kind": "tree", "max_depth": 4, "bins": 8},
        "n_reps": 2, "users_per_rep": 2,
        "n_items": 24, "n_meta_features": 20, "seed": 11,
    }
    doc.update(overrides)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(doc))
    return path


class TestTrain:
    def test_round_trips_model(self, tmp_path, rng, capsys):
        ratings, _ = make_identity_fixture(tmp_path, rng)
        out = tmp_path / "model.json"
        code = main([
            "train", "--ratings", str(ratings), "--rank", "2",
            "--lambda", "0.1", "--iters", "5", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["final_training_rmse"] >= 0.0
        model = load_model(out)
        assert model.rank == 2
        # saving the loaded model reproduces the file byte for byte
        from reclens.factorize import save_model

        second = tmp_path / "model2.json"
        save_model(model, second)
        assert out.read_bytes() == second.read_bytes()

    def test_missing_ratings_file(self, tmp_path, capsys):
        code = main([
            "train", "--ratings", str(tmp_path / "nope.csv"), "--rank", "2",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_rank_zero_fails_validation(self, tmp_path, rng, capsys):
        ratings, _ = make_identity_fixture(tmp_path, rng)
        code = main([
            "train", "--ratings", str(ratings), "--rank", "0",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert "rank" in capsys.readouterr().err

    def test_unset_flags_take_als_config_defaults(self, tmp_path, rng, capsys):
        ratings, _ = make_identity_fixture(tmp_path, rng)
        outputs = []
        for flags in ([], ["--lambda", "0.1", "--iters", "20", "--tol", "1e-4",
                           "--seed", "0"]):
            out = tmp_path / "model.json"
            assert main(["train", "--ratings", str(ratings), "--rank", "2",
                         *flags, "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr()))
        assert outputs[0] == outputs[1]

    def test_negative_seed_is_one_error_line(self, tmp_path, rng, capsys):
        ratings, _ = make_identity_fixture(tmp_path, rng)
        capsys.readouterr()
        code = main([
            "train", "--ratings", str(ratings), "--rank", "2", "--seed", "-1",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: seed must be >= 0"
        ]

    def test_out_of_memory_is_one_error_line(self, tmp_path, rng, monkeypatch,
                                             capsys):
        from reclens import factorize

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        ratings, _ = make_identity_fixture(tmp_path, rng)
        monkeypatch.setattr(factorize, "train_als", exhausted)
        capsys.readouterr()
        assert main(["train", "--ratings", str(ratings), "--rank", "2",
                     "--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: out of memory: Unable to allocate 74.5 GiB for an array"
        ]


@pytest.fixture
def trained_fixture(tmp_path, rng):
    ratings, meta = make_identity_fixture(tmp_path, rng)
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--ratings", str(ratings), "--rank", "2", "--lambda", "0.05",
        "--iters", "10", "--seed", "1", "--out", str(model_path),
    ]) == 0
    return ratings, meta, model_path


class TestShadow:
    def test_identity_metadata_deep_tree_small_mae(
        self, tmp_path, trained_fixture, capsys
    ):
        _, meta, model_path = trained_fixture
        out = tmp_path / "shadow.json"
        code = main([
            "shadow", "--model", str(model_path), "--metadata", str(meta),
            "--kind", "tree", "--depth", "12", "--split", "1.0",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report["observational_mae"] < 0.05
        assert report["measured_on"] == "train-set"
        assert (tmp_path / "shadow.json.report.json").exists()
        shadow = load_shadow(out)
        assert shadow.eval_is_train

    def test_linear_ignores_tree_flags_with_warning(
        self, tmp_path, trained_fixture, capsys
    ):
        _, meta, model_path = trained_fixture
        outputs = []
        for flags in (["--depth", "3"], ["--min-leaf", "5"], []):
            out = tmp_path / "s.json"
            code = main([
                "shadow", "--model", str(model_path), "--metadata", str(meta),
                "--kind", "linear", *flags, "--split", "0.8", "--out", str(out),
            ])
            assert code == 0
            captured = capsys.readouterr()
            warning = ["warning: --depth/--min-leaf are tree-only flags; "
                       "ignored for linear"]
            assert captured.err.splitlines() == (warning if flags else [])
            assert json.loads(captured.out.strip())["measured_on"] == "eval"
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_tree_ignores_ridge_with_warning(self, tmp_path, trained_fixture, capsys):
        _, meta, model_path = trained_fixture
        outputs = []
        for flags in (["--ridge", "7"], []):
            out = tmp_path / "s.json"
            assert main([
                "shadow", "--model", str(model_path), "--metadata", str(meta),
                "--kind", "tree", "--depth", "3", *flags, "--out", str(out),
            ]) == 0
            warning = ["warning: --ridge is a linear-only flag; ignored for tree"]
            assert capsys.readouterr().err.splitlines() == (warning if flags else [])
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_linear_ridge_defaults_to_one_tenth(self, tmp_path, trained_fixture,
                                                capsys):
        _, meta, model_path = trained_fixture
        outputs = []
        for flags in (["--ridge", "0.1"], []):
            out = tmp_path / "s.json"
            assert main([
                "shadow", "--model", str(model_path), "--metadata", str(meta),
                "--kind", "linear", *flags, "--out", str(out),
            ]) == 0
            assert capsys.readouterr().err == ""
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert load_shadow(tmp_path / "s.json").kind.ridge == 0.1
        doc = json.loads((tmp_path / "s.json").read_text())
        assert {p["ridge"] for p in doc["predictors"]} == {0.1}

    def test_depth_beyond_bound_is_one_error_line(self, tmp_path, trained_fixture,
                                                  capsys):
        _, meta, model_path = trained_fixture
        capsys.readouterr()
        assert main([
            "shadow", "--model", str(model_path), "--metadata", str(meta),
            "--depth", str(MAX_TREE_DEPTH + 1), "--out", str(tmp_path / "s.json"),
        ]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: max_depth must be <= {MAX_TREE_DEPTH}, got {MAX_TREE_DEPTH + 1}"
        ]

    def test_bins_flag_removed(self, tmp_path, trained_fixture, capsys):
        _, meta, model_path = trained_fixture
        with pytest.raises(SystemExit) as exc:
            main([
                "shadow", "--model", str(model_path), "--metadata", str(meta),
                "--bins", "8", "--out", str(tmp_path / "s.json"),
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bins 8" in capsys.readouterr().err

    def test_negative_seed_is_one_error_line(self, tmp_path, trained_fixture, capsys):
        _, meta, model_path = trained_fixture
        capsys.readouterr()
        code = main([
            "shadow", "--model", str(model_path), "--metadata", str(meta),
            "--kind", "linear", "--seed", "-1", "--out", str(tmp_path / "s.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0"]


def test_artifacts_match_per_line_ingest_and_per_factor_fits(
    tmp_path, rng, monkeypatch, capsys
):
    """train and a linear shadow write the same bytes whether ratings are
    read by blocks or line by line, and whether the factors share one Gram
    matrix or each forms its own."""
    rows = [(f"u{u}", f"m{i}", int(rng.integers(1, 6)), 0)
            for u in range(9) for i in range(14) if rng.random() < 0.7]
    # Repeated pairs with new ratings: the later rating wins.
    rows += [(u, i, 6 - r, t) for u, i, r, t in rows[:5]]
    write_ratings_csv(tmp_path / "ratings.csv", rows)
    write_metadata_jsonl(tmp_path / "meta.jsonl", {
        f"m{i}": {"genre": [f"g{g}" for g in range(4) if rng.random() < 0.5],
                  "era": [f"e{i % 3}"]}
        for i in range(14)
    })

    def run(out):
        out.mkdir()
        assert main(["train", "--ratings", str(tmp_path / "ratings.csv"),
                     "--rank", "3", "--iters", "6", "--seed", "4",
                     "--out", str(out / "model.json")]) == 0
        assert main(["shadow", "--model", str(out / "model.json"),
                     "--metadata", str(tmp_path / "meta.jsonl"), "--kind", "linear",
                     "--seed", "5", "--out", str(out / "shadow.json")]) == 0
        capsys.readouterr()
        return [(out / name).read_bytes()
                for name in ("model.json", "shadow.json", "shadow.json.report.json")]

    shipped = run(tmp_path / "shipped")
    from reclens import ingest, shadow as shadow_mod

    monkeypatch.setattr(ingest, "load_ratings", ingest._load_ratings_lines)

    def per_factor_fits(X, Y, ridge):
        fits = [fit_linear_oracle(X, Y[:, j], ridge) for j in range(Y.shape[1])]
        return np.stack([w for w, _ in fits], axis=1), np.array([b for _, b in fits])

    monkeypatch.setattr(shadow_mod, "fit_linear_columns", per_factor_fits)
    assert run(tmp_path / "oracles") == shipped


def test_train_matches_bucket_oracle_half_steps(tmp_path, rng, monkeypatch, capsys):
    """train writes the same model bytes and the same per-iteration RMSE
    lines whether each half-step gathers once in bucket order and takes the
    RMSE from the item half-step, or gathers and scatters bucket by bucket
    and recomputes every prediction from the factors."""
    rows = [(f"u{u}", f"m{i}", int(rng.integers(1, 6)), 0)
            for u in range(20) for i in range(30) if rng.random() < 0.3]
    write_ratings_csv(tmp_path / "ratings.csv", rows)

    def run(out):
        out.mkdir()
        runs = []
        for rank in ("3", "12"):
            model = out / f"model{rank}.json"
            assert main(["train", "--ratings", str(tmp_path / "ratings.csv"),
                         "--rank", rank, "--iters", "8", "--seed", "4",
                         "--out", str(model)]) == 0
            runs.append((model.read_bytes(), capsys.readouterr().err))
        return runs

    shipped = run(tmp_path / "shipped")
    from reclens import factorize

    monkeypatch.setattr(factorize, "_row_groups", row_groups_buckets_oracle)
    monkeypatch.setattr(factorize, "_chunk_layout", lambda groups, k: None)
    monkeypatch.setattr(
        factorize, "_solve_half",
        lambda groups, chunks, other, lam, pred=None:
            solve_half_buckets_oracle(groups, other, lam, pred),
    )
    assert run(tmp_path / "oracles") == shipped


def test_tree_shadow_and_reports_match_per_tree_oracles(
    tmp_path, rng, monkeypatch, capsys
):
    """A depth-4 tree shadow, its agreement report, and explain for one item
    and for a user aggregate are the same bytes whether the factor trees
    are routed together or walked one tree and one item at a time."""
    rows = [(f"u{u}", f"m{i}", int(rng.integers(1, 6)), 0)
            for u in range(9) for i in range(16) if rng.random() < 0.8]
    write_ratings_csv(tmp_path / "ratings.csv", rows)
    write_metadata_jsonl(tmp_path / "meta.jsonl", {
        f"m{i}": {"genre": [f"g{g}" for g in range(6) if rng.random() < 0.5],
                  "era": [f"e{i % 3}"]}
        for i in range(16)
    })
    model = str(tmp_path / "model.json")
    assert main(["train", "--ratings", str(tmp_path / "ratings.csv"),
                 "--rank", "4", "--iters", "6", "--seed", "4", "--out", model]) == 0

    def run(out):
        out.mkdir()
        shadow = str(out / "shadow.json")
        assert main(["shadow", "--model", model,
                     "--metadata", str(tmp_path / "meta.jsonl"), "--kind", "tree",
                     "--depth", "4", "--seed", "5", "--out", shadow]) == 0
        capsys.readouterr()
        reports = []
        for scope in (["--item", "m3"], ["--user-aggregate"]):
            assert main(["explain", "--shadow", shadow,
                         "--metadata", str(tmp_path / "meta.jsonl"), "--user", "u2",
                         *scope, "--top-k", "50", "--model", model]) == 0
            reports.append(capsys.readouterr())
        return [(out / name).read_bytes()
                for name in ("shadow.json", "shadow.json.report.json")] + reports

    shipped = run(tmp_path / "shipped")
    from reclens import influence, shadow as shadow_mod

    monkeypatch.setattr(influence, "_influences", influences_per_tree_oracle)
    monkeypatch.setattr(shadow_mod.ShadowModel, "predicted_factors_batch",
                        walked_factors)
    assert run(tmp_path / "oracles") == shipped


    @pytest.mark.parametrize("ridge", ["inf", "nan", "-1"])
    def test_bad_ridge_is_one_error_line(self, tmp_path, trained_fixture, capsys,
                                         ridge):
        _, meta, model_path = trained_fixture
        capsys.readouterr()
        out = tmp_path / "s.json"
        code = main([
            "shadow", "--model", str(model_path), "--metadata", str(meta),
            "--kind", "linear", "--ridge", ridge, "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: ridge must be a finite number >= 0, got {float(ridge)!r}"
        ]
        assert not out.exists()


@pytest.fixture
def shadow_fixture(tmp_path, trained_fixture):
    ratings, meta, model_path = trained_fixture
    shadow_path = tmp_path / "shadow.json"
    assert main([
        "shadow", "--model", str(model_path), "--metadata", str(meta),
        "--kind", "tree", "--depth", "12", "--split", "1.0",
        "--seed", "2", "--out", str(shadow_path),
    ]) == 0
    return meta, model_path, shadow_path


class TestExplain:
    def test_single_item_report(self, tmp_path, shadow_fixture, capsys):
        meta, model_path, shadow_path = shadow_fixture
        capsys.readouterr()
        code = main([
            "explain", "--shadow", str(shadow_path), "--metadata", str(meta),
            "--user", "u1", "--item", "m3", "--top-k", "5",
            "--model", str(model_path),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert len(report["influences"]) == 5
        # the item's own exclusive feature dominates its rating
        assert report["influences"][0][0] == "id=m3"
        assert report["baseline_rating"] is not None

    def test_top_k_beyond_feature_count(self, shadow_fixture, capsys):
        meta, _, shadow_path = shadow_fixture
        capsys.readouterr()
        code = main([
            "explain", "--shadow", str(shadow_path), "--metadata", str(meta),
            "--user", "u0", "--item", "m0", "--top-k", "999",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert len(report["influences"]) == 12

    def test_user_aggregate_scope(self, shadow_fixture, capsys):
        meta, _, shadow_path = shadow_fixture
        capsys.readouterr()
        code = main([
            "explain", "--shadow", str(shadow_path), "--metadata", str(meta),
            "--user", "u2", "--user-aggregate", "--top-k", "3",
        ])
        assert code == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out.strip())
        assert report["user"] == "u2"
        assert report["scope"] == {"user_aggregate": True}
        assert report["baseline_rating"] is None
        # the aggregate spans every item, training items included, by design
        assert report["warnings"] == []
        assert "warning:" not in captured.err

    def test_aggregate_over_a_split_prints_no_warning(
        self, tmp_path, trained_fixture, capsys
    ):
        _, meta, model_path = trained_fixture
        shadow_path = tmp_path / "split_shadow.json"
        assert main([
            "shadow", "--model", str(model_path), "--metadata", str(meta),
            "--kind", "tree", "--depth", "4", "--split", "0.5",
            "--out", str(shadow_path),
        ]) == 0
        shadow = load_shadow(shadow_path)
        train_item = shadow.item_ids[int(shadow.train_items[0])]
        for scope, warned in ((["--user-aggregate"], False),
                              (["--item", train_item], True)):
            capsys.readouterr()
            assert main([
                "explain", "--shadow", str(shadow_path), "--metadata", str(meta),
                "--user", "u1", *scope,
            ]) == 0
            err = capsys.readouterr().err
            assert ("warning:" in err) == warned, err

    def test_report_names_user_and_item_by_id(self, shadow_fixture, capsys):
        meta, model_path, shadow_path = shadow_fixture
        capsys.readouterr()
        assert main([
            "explain", "--shadow", str(shadow_path), "--metadata", str(meta),
            "--user", "u4", "--item", "m7", "--model", str(model_path),
        ]) == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report["user"] == "u4"
        assert report["scope"] == {"single_item": "m7"}

    def test_svg_written(self, tmp_path, shadow_fixture, capsys):
        meta, _, shadow_path = shadow_fixture
        svg_path = tmp_path / "chart.svg"
        code = main([
            "explain", "--shadow", str(shadow_path), "--metadata", str(meta),
            "--user", "u0", "--item", "m1", "--top-k", "4",
            "--svg", str(svg_path),
        ])
        assert code == 0
        content = svg_path.read_text()
        assert content.count('class="bar"') == 4

    def test_unknown_id_lists_nearest(self, shadow_fixture, capsys):
        meta, _, shadow_path = shadow_fixture
        code = main([
            "explain", "--shadow", str(shadow_path), "--metadata", str(meta),
            "--user", "u0", "--item", "m99",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "m99" in err and "nearest" in err

    def test_pruned_item_is_one_error_line(self, tmp_path, trained_fixture, capsys):
        _, meta, model_path = trained_fixture
        # m0 keeps no metadata feature, so the shadow prunes it
        records = [json.loads(line) for line in meta.read_text().splitlines()]
        records[0]["attributes"] = {}
        pruned_meta = tmp_path / "pruned.jsonl"
        pruned_meta.write_text("".join(json.dumps(r) + "\n" for r in records))
        shadow_path = tmp_path / "pruned_shadow.json"
        assert main([
            "shadow", "--model", str(model_path), "--metadata", str(pruned_meta),
            "--kind", "tree", "--depth", "3", "--out", str(shadow_path),
        ]) == 0
        capsys.readouterr()
        code = main([
            "explain", "--shadow", str(shadow_path), "--metadata", str(pruned_meta),
            "--user", "u0", "--item", "m0",
        ])
        assert code == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
        assert "'m0'" in err_lines[0] and "pruned" in err_lines[0]

    def test_item_or_aggregate_required(self, shadow_fixture, capsys):
        meta, _, shadow_path = shadow_fixture
        with pytest.raises(SystemExit) as exc:
            main([
                "explain", "--shadow", str(shadow_path),
                "--metadata", str(meta), "--user", "u0",
            ])
        assert exc.value.code == 2

    def test_item_and_aggregate_exclusive(self, shadow_fixture, capsys):
        meta, _, shadow_path = shadow_fixture
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([
                "explain", "--shadow", str(shadow_path), "--metadata", str(meta),
                "--user", "u0", "--item", "m1", "--user-aggregate",
            ])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument --item" in captured.err


_VALUE_RULE = "; it must be a string, number or boolean, or a list of them"


@pytest.mark.parametrize("record, message", [
    ({"item_id": "m0", "attributes": {"id": None}},
     "attribute 'id' holds null" + _VALUE_RULE),
    ({"item_id": "m0", "attributes": {"id": [["m0"]]}},
     """attribute 'id' holds [["m0"]]""" + _VALUE_RULE),
    ({"item_id": "m0", "attributes": {"id": {"x": 1}}},
     """attribute 'id' holds {"x": 1}""" + _VALUE_RULE),
    ({"item_id": None, "attributes": {"id": ["m0"]}},
     "item_id must be a string or a number, not null"),
])
@pytest.mark.parametrize("command", ["shadow", "explain"])
def test_bad_metadata_value_is_one_error_line(
    tmp_path, shadow_fixture, capsys, record, message, command
):
    """A metadata record whose values are not strings, numbers or booleans
    (or lists of them) ends in exit 1 and one error line naming the line."""
    meta, model_path, shadow_path = shadow_fixture
    lines = meta.read_text().splitlines()
    lines[2] = json.dumps(record)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(line + "\n" for line in lines))
    argv = {
        "shadow": ["shadow", "--model", str(model_path), "--metadata", str(bad),
                   "--out", str(tmp_path / "s.json")],
        "explain": ["explain", "--shadow", str(shadow_path), "--metadata", str(bad),
                    "--user", "u0", "--item", "m1"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {bad}:3: {message}"]
    assert captured.out == ""


def _edit_json(src, dst, edit):
    doc = json.loads(src.read_text())
    edit(doc)
    dst.write_text(json.dumps(doc))
    return dst


class TestBrokenFiles:
    """A damaged model or shadow file ends in exit 1 and one error line
    that names the file."""

    def _assert_one_error(self, capsys, argv, path, detail):
        capsys.readouterr()
        assert main(argv) == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"error: {path}: ")
        assert detail in err_lines[0]

    def test_model_missing_rank(self, tmp_path, shadow_fixture, capsys):
        meta, model_path, _ = shadow_fixture
        bad = _edit_json(model_path, tmp_path / "norank.json",
                         lambda doc: doc.pop("rank"))
        self._assert_one_error(capsys, [
            "shadow", "--model", str(bad), "--metadata", str(meta),
            "--out", str(tmp_path / "s.json"),
        ], bad, "'rank'")

    def test_truncated_model(self, tmp_path, shadow_fixture, capsys):
        meta, model_path, shadow_path = shadow_fixture
        text = model_path.read_text()
        bad = tmp_path / "truncated.json"
        bad.write_text(text[: len(text) // 2])
        self._assert_one_error(capsys, [
            "explain", "--shadow", str(shadow_path), "--metadata", str(meta),
            "--user", "u0", "--item", "m1", "--model", str(bad),
        ], bad, "not valid JSON")

    def test_tree_node_without_threshold(self, tmp_path, shadow_fixture, capsys):
        meta, _, shadow_path = shadow_fixture

        def break_root(doc):
            doc["predictors"][0]["root"] = {"feature": 0}

        bad = _edit_json(shadow_path, tmp_path / "badnode.json", break_root)
        self._assert_one_error(capsys, [
            "explain", "--shadow", str(bad), "--metadata", str(meta),
            "--user", "u0", "--item", "m1",
        ], bad, "'threshold'")

    def test_tree_threshold_not_half(self, tmp_path, shadow_fixture, capsys):
        meta, _, shadow_path = shadow_fixture

        def move_threshold(doc):
            doc["predictors"][0]["root"]["threshold"] = 0.3

        bad = _edit_json(shadow_path, tmp_path / "threshold.json", move_threshold)
        self._assert_one_error(capsys, [
            "explain", "--shadow", str(bad), "--metadata", str(meta),
            "--user", "u0", "--item", "m1",
        ], bad, "tree split threshold 0.3 is not 0.5")

    @pytest.mark.parametrize("edit, detail", [
        ("leaf", "holds leaf value nan, not a finite number"),
        ("feature", "is neither a leaf nor a split on one of"),
    ])
    def test_tree_node_of_wrong_type(self, tmp_path, shadow_fixture, capsys, edit,
                                     detail):
        meta, _, shadow_path = shadow_fixture

        def break_node(doc):
            node = doc["predictors"][0]["root"]
            if edit == "feature":
                node["feature"] = True
                return
            while "value" not in node:
                node = node["left"]
            node["value"] = float("nan")

        bad = _edit_json(shadow_path, tmp_path / "badnode.json", break_node)
        self._assert_one_error(capsys, [
            "explain", "--shadow", str(bad), "--metadata", str(meta),
            "--user", "u0", "--item", "m1",
        ], bad, detail)

    def test_bins_in_shadow_file_ignored(self, tmp_path, shadow_fixture, capsys):
        meta, _, shadow_path = shadow_fixture

        def drop_bins(doc):
            for part in (doc["kind"], *doc["predictors"]):
                del part["bins"]

        def other_bins(doc):
            for part in (doc["kind"], *doc["predictors"]):
                part["bins"] = 8

        outputs = []
        for path in (
            shadow_path,
            _edit_json(shadow_path, tmp_path / "nobins.json", drop_bins),
            _edit_json(shadow_path, tmp_path / "bins8.json", other_bins),
        ):
            capsys.readouterr()
            assert main([
                "explain", "--shadow", str(path), "--metadata", str(meta),
                "--user", "u0", "--user-aggregate", "--top-k", "50",
            ]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("part, detail", [
        ("kind", "shadow kind type 'forest' is neither 'linear' nor 'tree'"),
        ("predictors", "predictor type 'forest' is neither 'linear' nor 'tree'"),
    ])
    def test_unknown_type_in_shadow(self, tmp_path, shadow_fixture, capsys,
                                    part, detail):
        meta, _, shadow_path = shadow_fixture

        def retype(doc):
            for entry in [doc["kind"]] if part == "kind" else doc["predictors"]:
                entry["type"] = "forest"

        bad = _edit_json(shadow_path, tmp_path / "forest.json", retype)
        self._assert_one_error(capsys, [
            "explain", "--shadow", str(bad), "--metadata", str(meta),
            "--user", "u0", "--item", "m1",
        ], bad, detail)

    @pytest.mark.parametrize("where", ["kind", "predictor"])
    @pytest.mark.parametrize("ridge", [float("inf"), float("nan"), -1.0])
    def test_bad_ridge_in_linear_shadow(self, tmp_path, trained_fixture, capsys,
                                        where, ridge):
        _, meta, model_path = trained_fixture
        shadow_path = tmp_path / "linear.json"
        assert main([
            "shadow", "--model", str(model_path), "--metadata", str(meta),
            "--kind", "linear", "--out", str(shadow_path),
        ]) == 0

        def set_ridge(doc):
            (doc["kind"] if where == "kind" else doc["predictors"][1])["ridge"] = ridge

        bad = _edit_json(shadow_path, tmp_path / "bad.json", set_ridge)
        self._assert_one_error(capsys, [
            "explain", "--shadow", str(bad), "--metadata", str(meta),
            "--user", "u0", "--item", "m1",
        ], bad, f"ridge must be a finite number >= 0, got {ridge!r}")

    @pytest.mark.parametrize("field, value, detail", [
        ("ridge", 0.5, "predictor 1 has ridge 0.5, but the kind has 0.1"),
        ("intercept", "0.5", "predictor 1 has intercept '0.5', not a finite number"),
        ("intercept", None, "predictor 1 has intercept None, not a finite number"),
    ])
    def test_linear_predictor_field_rejected(self, tmp_path, trained_fixture,
                                             capsys, field, value, detail):
        """The kind's ridge is the shadow's only ridge, so a predictor that
        names another valid one is a damaged file, as is an intercept that
        is not a number."""
        _, meta, model_path = trained_fixture
        shadow_path = tmp_path / "linear.json"
        assert main([
            "shadow", "--model", str(model_path), "--metadata", str(meta),
            "--kind", "linear", "--out", str(shadow_path),
        ]) == 0
        bad = _edit_json(shadow_path, tmp_path / "bad.json",
                         lambda doc: doc["predictors"][1].update({field: value}))
        self._assert_one_error(capsys, [
            "explain", "--shadow", str(bad), "--metadata", str(meta),
            "--user", "u0", "--item", "m1",
        ], bad, detail)

    def test_infinite_index_in_shadow(self, tmp_path, shadow_fixture, capsys):
        meta, _, shadow_path = shadow_fixture
        bad = tmp_path / "inf.json"
        bad.write_text(shadow_path.read_text().replace(
            '"train_items": [', '"train_items": [1e999, '))
        self._assert_one_error(capsys, [
            "explain", "--shadow", str(bad), "--metadata", str(meta),
            "--user", "u0", "--item", "m1",
        ], bad, "infinity")

    def test_tree_width_differs_from_feature_names(
        self, tmp_path, shadow_fixture, capsys
    ):
        meta, _, shadow_path = shadow_fixture

        def widen(doc):
            doc["predictors"][1]["n_features"] += 1

        bad = _edit_json(shadow_path, tmp_path / "wide.json", widen)
        self._assert_one_error(capsys, [
            "explain", "--shadow", str(bad), "--metadata", str(meta),
            "--user", "u0", "--item", "m1",
        ], bad, "predictor 1 reads 13 features, but the shadow names 12")

    @pytest.mark.parametrize("artifact, key, damage, detail", [
        pytest.param(*case, id="-".join(case[:3])) for case in [
            ("model", "user_ids", "drop_last_5", "1 user ids for 6 user factor rows"),
            ("model", "user_ids", "repeat_first", "user id 'u0' is repeated"),
            ("model", "item_ids", "drop_last_1", "11 item ids for 12 item factor rows"),
            ("shadow", "user_ids", "drop_last_5", "1 user ids for 6 user factor rows"),
            ("shadow", "user_ids", "repeat_first", "user id 'u0' is repeated"),
            ("shadow", "item_ids", "drop_last_1",
             "item index 11 has no item id among 11"),
            ("shadow", "item_ids", "repeat_first", "item id 'm0' is repeated"),
        ]
    ])
    def test_ids_not_matching_factors(
        self, tmp_path, shadow_fixture, capsys, artifact, key, damage, detail
    ):
        meta, model_path, shadow_path = shadow_fixture

        def edit(doc):
            ids = doc[key]
            doc[key] = {
                "drop_last_5": ids[:-5],
                "drop_last_1": ids[:-1],
                "repeat_first": [ids[0], ids[0], *ids[2:]],
            }[damage]

        if artifact == "model":
            bad = _edit_json(model_path, tmp_path / "badids.json", edit)
            argv = ["shadow", "--model", str(bad), "--metadata", str(meta),
                    "--out", str(tmp_path / "s.json")]
        else:
            bad = _edit_json(shadow_path, tmp_path / "badids.json", edit)
            argv = ["explain", "--shadow", str(bad), "--metadata", str(meta),
                    "--user", "u0", "--item", "m1"]
        self._assert_one_error(capsys, argv, bad, detail)

    def test_model_without_item_ids(self, tmp_path, shadow_fixture, capsys):
        meta, model_path, _ = shadow_fixture
        bad = _edit_json(model_path, tmp_path / "noids.json",
                         lambda doc: doc.update(item_ids=None))
        capsys.readouterr()
        assert main(["shadow", "--model", str(bad), "--metadata", str(meta),
                     "--out", str(tmp_path / "s.json")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: model file carries no item ids"
        ]
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("flag", ["--shadow", "--model", "--config", "--grid"])
    def test_deeply_nested_json(
        self, tmp_path, trained_fixture, shadow_fixture, capsys, flag
    ):
        ratings, meta, model_path = trained_fixture
        shadow_path = shadow_fixture[2]
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000)
        explain = ["explain", "--metadata", str(meta), "--user", "u0", "--item", "m1"]
        argv = {
            "--shadow": [*explain, "--shadow", str(deep)],
            "--model": [*explain, "--shadow", str(shadow_path), "--model", str(deep)],
            "--config": ["synth", "--config", str(deep)],
            "--grid": ["sweep", "--ratings", str(ratings), "--metadata", str(meta),
                       "--grid", str(deep)],
        }[flag]
        self._assert_one_error(capsys, argv, deep, "not valid JSON (nested too deeply)")

    def test_ratings_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "r.csv"
        bad.write_bytes(b"userId,movieId,rating\n1,2,\xff\xfe\n")
        self._assert_one_error(capsys, [
            "train", "--ratings", str(bad), "--rank", "2",
            "--out", str(tmp_path / "m.json"),
        ], bad, "not valid UTF-8")

    def test_metadata_not_utf8(self, tmp_path, shadow_fixture, capsys):
        meta, model_path, _ = shadow_fixture
        bad = tmp_path / "meta.jsonl"
        bad.write_bytes(meta.read_bytes() + b'{"item_id": "m1\xff"}\n')
        self._assert_one_error(capsys, [
            "shadow", "--model", str(model_path), "--metadata", str(bad),
            "--out", str(tmp_path / "s.json"),
        ], bad, "not valid UTF-8")

    @pytest.mark.parametrize("flag", ["--shadow", "--model"])
    def test_directory_argument(self, tmp_path, shadow_fixture, capsys, flag):
        meta, _, shadow_path = shadow_fixture
        argv = {"--shadow": str(shadow_path)}
        argv[flag] = str(tmp_path)
        capsys.readouterr()
        code = main([
            "explain", "--metadata", str(meta), "--user", "u0", "--item", "m1",
            *(x for pair in argv.items() for x in pair),
        ])
        assert code == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"error: cannot read {tmp_path}: ")

    def test_unwritable_output(self, tmp_path, shadow_fixture, capsys):
        meta, model_path, _ = shadow_fixture
        capsys.readouterr()
        code = main([
            "shadow", "--model", str(model_path), "--metadata", str(meta),
            "--out", str(tmp_path),
        ])
        assert code == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"error: cannot write {tmp_path}: ")


class TestSweep:
    def test_single_cell_grid(self, tmp_path, rng, capsys):
        ratings, meta = structured_sweep_fixture(tmp_path, rng, "linear")
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "ranks": [3], "lambdas": [1e-6], "kinds": ["tree"],
            "depths": [3], "bins": [8],
        }))
        out = tmp_path / "sweep.jsonl"
        code = main([
            "sweep", "--ratings", str(ratings), "--metadata", str(meta),
            "--grid", str(grid_path), "--split", "1.0", "--iters", "40",
            "--out", str(out),
        ])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["error"] is None
        assert rows[0]["mean_latent_mae"] >= 0.0
        assert rows[0]["observational_mae"] >= 0.0
        table = capsys.readouterr().out
        assert "latent_mae" in table

    def test_unset_iters_and_ridge_take_config_defaults(self, tmp_path, rng,
                                                        capsys):
        ratings, meta = structured_sweep_fixture(tmp_path, rng, "linear")
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "ranks": [2], "kinds": ["linear", "tree"], "depths": [2],
        }))
        outputs = []
        for flags in ([], ["--iters", "20", "--ridge", "0.1"]):
            out = tmp_path / "sweep.jsonl"
            assert main([
                "sweep", "--ratings", str(ratings), "--metadata", str(meta),
                "--grid", str(grid_path), *flags, "--out", str(out),
            ]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0].splitlines()[0])["cell"]["ridge"] == 0.1

    def test_pruned_items_match_library_sweep(self, tmp_path, rng):
        # --min-features 3 prunes the items holding fewer than three flags,
        # so each metadata row must keep its own baseline item index
        ratings, meta = structured_sweep_fixture(tmp_path, rng, "linear")
        from reclens.ingest import (
            FeatureFilterSpec,
            encode_one_hot,
            filter_features,
            load_metadata,
            load_ratings,
            prune_items,
        )

        rm = load_ratings(ratings)
        item_index = {iid: i for i, iid in enumerate(rm.item_ids)}
        enc = encode_one_hot(load_metadata(meta), item_index=item_index,
                             n_items=rm.n_items)
        enc = filter_features(enc, FeatureFilterSpec.entropy_threshold(0.01))
        pruned, mask = prune_items(enc, min_features=3)
        assert 0 < pruned.n_items < rm.n_items
        grid_doc = {"ranks": [2], "lambdas": [0.1], "kinds": ["linear", "tree"],
                    "depths": [2], "bins": [8]}
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid_doc))
        out = tmp_path / "sweep.jsonl"
        assert main([
            "sweep", "--ratings", str(ratings), "--metadata", str(meta),
            "--grid", str(grid_path), "--min-features", "3", "--iters", "5",
            "--out", str(out),
        ]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        expected = run_sweep(rm, pruned, np.flatnonzero(mask),
                             SweepGrid.from_dict(grid_doc), iters=5)
        assert all(row["error"] is None for row in rows)
        assert rows == json.loads(json.dumps(expected))

    def test_linear_ground_truth_favors_linear_cells(self, tmp_path, rng):
        ratings, meta = structured_sweep_fixture(tmp_path, rng, "linear")
        from reclens.ingest import encode_one_hot, load_metadata, load_ratings

        rm = load_ratings(ratings)
        records = load_metadata(meta)
        item_index = {iid: i for i, iid in enumerate(rm.item_ids)}
        enc = encode_one_hot(records, item_index=item_index, n_items=rm.n_items)
        grid = SweepGrid(ranks=(3,), lambdas=(1e-6,), kinds=("linear", "tree"),
                         depths=(3,))
        rows = run_sweep(rm, enc, np.arange(rm.n_items), grid,
                         iters=40, split=1.0, seed=0)
        latent = {r["cell"]["kind"]: r["mean_latent_mae"] for r in rows}
        # the factors are linearly realizable from the features, so the
        # linear shadow tracks them far better than a depth-3 tree can
        assert latent["linear"] < latent["tree"] / 10

    def test_parity_ground_truth_favors_tree_cells(self, tmp_path, rng):
        ratings, meta = structured_sweep_fixture(tmp_path, rng, "parity")
        from reclens.ingest import encode_one_hot, load_metadata, load_ratings

        rm = load_ratings(ratings)
        records = load_metadata(meta)
        item_index = {iid: i for i, iid in enumerate(rm.item_ids)}
        enc = encode_one_hot(records, item_index=item_index, n_items=rm.n_items)
        grid = SweepGrid(ranks=(2,), lambdas=(1e-6,), kinds=("linear", "tree"),
                         depths=(2, 3))
        rows = run_sweep(rm, enc, np.arange(rm.n_items), grid,
                         iters=60, split=1.0, seed=0)
        linear_maes = [
            r["observational_mae"] for r in rows if r["cell"]["kind"] == "linear"
        ]
        tree_maes = [
            r["observational_mae"] for r in rows if r["cell"]["kind"] == "tree"
        ]
        assert max(tree_maes) < min(linear_maes) / 100

    def test_default_grid_includes_reference_cells(self):
        cells = SweepGrid().cells(ridge=0.1)
        keys = {(c["rank"], c["lambda"], c["kind"], c.get("depth")) for c in cells}
        assert len(cells) == len(keys) == 9
        assert (50, 0.1, "tree", 5) in keys
        assert (20, 0.1, "tree", 3) in keys
        assert (12, 0.1, "linear", None) in keys

    def test_cell_failure_recorded_not_fatal(self, tmp_path, rng):
        ratings, meta = structured_sweep_fixture(tmp_path, rng, "linear")
        from reclens.ingest import encode_one_hot, load_metadata, load_ratings

        rm = load_ratings(ratings)
        records = load_metadata(meta)
        item_index = {iid: i for i, iid in enumerate(rm.item_ids)}
        enc = encode_one_hot(records, item_index=item_index, n_items=rm.n_items)
        # a negative depth fails that cell's validation; the other cell runs
        grid = SweepGrid(ranks=(3,), lambdas=(1e-6,), kinds=("tree",),
                         depths=(2, -1))
        rows = run_sweep(rm, enc, np.arange(rm.n_items), grid,
                         iters=5, split=1.0, seed=0)
        errors = {r["cell"]["depth"]: r["error"] for r in rows}
        assert errors[2] is None
        assert errors[-1] is not None and "max_depth" in errors[-1]

    def test_invalid_grid(self):
        with pytest.raises(ValidationError):
            SweepGrid(ranks=())

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"rank": [2]}, "did you mean 'ranks'"),
            ({"ranks": [2], "colour": [1]}, "axes are ranks, lambdas"),
            ({"depths": 3}, "'depths' must be a list"),
            ({"ranks": ["a"]}, "ranks holds 'a', not a number"),
            ([2, 3], "JSON object"),
            ({"depths": [1e9]}, "depths holds 1000000000.0, not an integer"),
            ({"ranks": [2.5]}, "ranks holds 2.5, not an integer"),
        ],
    )
    def test_grid_dict_parsed_strictly(self, doc, message):
        with pytest.raises(ValidationError, match=message):
            SweepGrid.from_dict(doc)

    def test_misspelled_grid_key_is_one_error_line(self, tmp_path, rng, capsys):
        ratings, meta = structured_sweep_fixture(tmp_path, rng, "linear")
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"rank": [2]}))
        code = main([
            "sweep", "--ratings", str(ratings), "--metadata", str(meta),
            "--grid", str(grid_path),
        ])
        assert code == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines == [
            "error: unknown sweep grid key 'rank'; did you mean 'ranks'?"
        ]

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "seed must be >= 0"),
        (["--threads", "0"], "threads must be >= 1"),
        (["--threads", "-2"], "threads must be >= 1"),
        (["--iters", "0"], "iters must be >= 1"),
        (["--split", "0"], "split must be in (0, 1]"),
        (["--split", "1.5"], "split must be in (0, 1]"),
        (["--ridge", "-1"], "ridge must be a finite number >= 0, got -1.0"),
        (["--ridge", "inf"], "ridge must be a finite number >= 0, got inf"),
    ])
    def test_bad_seed_or_threads_is_one_error_line(
        self, tmp_path, rng, capsys, flags, message
    ):
        ratings, meta = structured_sweep_fixture(tmp_path, rng, "linear")
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"ranks": [2], "kinds": ["linear"]}))
        code = main([
            "sweep", "--ratings", str(ratings), "--metadata", str(meta),
            "--grid", str(grid_path), *flags,
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_bins_in_grid_file_ignored(self, tmp_path, rng, capsys):
        ratings, meta = structured_sweep_fixture(tmp_path, rng, "parity")
        outputs = []
        for bins in ({}, {"bins": [2, 8]}):
            grid_path = tmp_path / "grid.json"
            grid_path.write_text(json.dumps({
                "ranks": [2], "lambdas": [1e-3], "kinds": ["linear", "tree"],
                "depths": [2, 3], **bins,
            }))
            out = tmp_path / "sweep.jsonl"
            capsys.readouterr()
            assert main([
                "sweep", "--ratings", str(ratings), "--metadata", str(meta),
                "--grid", str(grid_path), "--iters", "5", "--out", str(out),
            ]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) == 3


class TestSynthCommand:
    def test_runs_and_writes_results(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        out = tmp_path / "result.json"
        code = main(["synth", "--config", str(config), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc["means"]) == {"true", "semi_random", "random"}
        assert len(doc["samples"]) == 3 * 2 * 2
        stdout = capsys.readouterr().out
        assert "condition" in stdout and "true" in stdout

    def test_direct_encode_flag(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        out = tmp_path / "result.json"
        code = main([
            "synth", "--config", str(config), "--direct-encode",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["direct_encode"] is True
        assert doc["means"]["true"] >= 0.9

    def test_bins_in_config_ignored(self, tmp_path, capsys):
        with_bins = synth_config(tmp_path)
        doc = json.loads(with_bins.read_text())
        assert "bins" in doc["shadow"]
        del doc["shadow"]["bins"]
        without = tmp_path / "nobins.json"
        without.write_text(json.dumps(doc))
        outputs = []
        for config in (with_bins, without):
            out = tmp_path / "result.json"
            capsys.readouterr()
            assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
            result = json.loads(out.read_text())
            result.pop("config")  # the config is echoed as given
            outputs.append((result, capsys.readouterr()))
        assert outputs[0] == outputs[1]

    def test_library_warning_is_one_line(self, tmp_path, capsys):
        """A warning raised inside the library, in any worker thread, prints
        once as a ``warning:`` line, and leaves the outputs as they are."""
        config = synth_config(tmp_path, n_meta_features=10)
        _edit_json(config, config,
                   lambda d: d["sim"]["feature_pool"].update(value=100))
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"result{threads}.json"
            capsys.readouterr()
            assert main(["synth", "--config", str(config), "--threads", threads,
                         "--out", str(out)]) == 0
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "warning: top_k_entropy(100) exceeds feature count 10; "
                "keeping all features"
            ]
            outputs.append((out.read_bytes(), captured.out))
        assert outputs[0] == outputs[1]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["synth", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["synth", "--config", str(config), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("sim"), "synth config lacks required key 'sim'"),
            (lambda d: d.update(n_rep=3), "did you mean 'n_reps'?"),
            (lambda d: d["sim"].update(n_user=3), "did you mean 'n_users'?"),
            (lambda d: d["sim"].pop("n_users"), "sim lacks required key 'n_users'"),
            (lambda d: d["sim"]["feature_pool"].update(kinds=1),
             "unknown sim.feature_pool key 'kinds'"),
            (lambda d: d["als"].update(rnak=2), "did you mean 'rank'?"),
            (lambda d: d["als"].update(lam=0.2), "both 'lambda' and 'lam'"),
            (lambda d: d["shadow"].update(ridge=1.0),
             "unknown tree shadow key 'ridge'"),
            (lambda d: d["shadow"].update(kind="forest"),
             "unknown shadow kind 'forest'"),
            (lambda d: d.update(sim=[1]), "sim must be a JSON object"),
            (lambda d: d.update(n_reps="many"), "mistyped value"),
            (lambda d: d.update(n_items="many"), "mistyped value"),
            (lambda d: d.update(n_meta_features=0), "must be >= 1"),
            (lambda d: d.update(seed=-1), "seed must be >= 0"),
            (lambda d: d["sim"].update(seed=0),
             "sim.seed is not read: the top-level 'seed' seeds every repetition"),
            (lambda d: d["als"].update(seed=987),
             "als.seed is not read: the top-level 'seed' seeds every repetition"),
            (lambda d: d["shadow"].update(max_depth=MAX_TREE_DEPTH + 1),
             f"max_depth must be <= {MAX_TREE_DEPTH}"),
        ],
    )
    def test_bad_config_is_one_error_line(self, tmp_path, capsys, edit, message):
        config = synth_config(tmp_path)
        _edit_json(config, config, edit)
        capsys.readouterr()
        assert main(["synth", "--config", str(config)]) == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: ")
        assert message in err_lines[0]

    @pytest.mark.parametrize(
        "section, key, value, expected",
        [
            ("sim", "n_users", 500.5, "an integer"),
            ("sim", "n_profiles", 3.0, "an integer"),
            ("sim", "ratings_per_user", 2.5, "an integer"),
            (None, "n_reps", 2.5, "an integer"),
            (None, "n_items", 200.5, "an integer"),
            (None, "users_per_rep", 1.5, "an integer"),
            ("als", "rank", 2.5, "an integer"),
            ("shadow", "max_depth", 2.5, "an integer"),
            ("sim", "n_users", True, "an integer"),
            ("sim", "base_rating", "x", "a finite number"),
            ("sim", "delta", None, "a finite number"),
            (None, "keep_fraction", "x", "a finite number"),
            (None, "score_by_magnitude", "no", "true or false"),
        ],
    )
    def test_mistyped_value_is_one_error_line(
        self, tmp_path, capsys, section, key, value, expected
    ):
        config = synth_config(tmp_path)
        _edit_json(config, config,
                   lambda d: (d[section] if section else d).update({key: value}))
        capsys.readouterr()
        assert main(["synth", "--config", str(config)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: mistyped value for {key}: {value!r} is not {expected}"
        ]

    @pytest.mark.parametrize("value", [True, float("inf")])
    def test_mistyped_feature_pool_is_one_error_line(self, tmp_path, capsys,
                                                     value):
        config = synth_config(tmp_path)
        _edit_json(config, config,
                   lambda d: d["sim"]["feature_pool"].update(value=value))
        capsys.readouterr()
        assert main(["synth", "--config", str(config)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: mistyped value for top_k_entropy: {value!r} is not a "
            "finite number"
        ]

    def test_config_not_json(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text('{"sim": ')
        capsys.readouterr()
        assert main(["synth", "--config", str(config)]) == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"error: {config}: not valid JSON")

    def test_required_keys_alone_take_type_defaults(self):
        sim = {"n_profiles": 2, "features_per_profile": 3, "n_users": 30,
               "ratings_per_user": 8}
        cfg = experiment_config_from_dict({"sim": sim, "als": {"rank": 2}})
        assert cfg == ExperimentConfig(sim=SimConfig(**sim), als=AlsConfig(rank=2))

    def test_documented_configs_parse(self):
        root = Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text()
        block = re.search(r"```json\n(\{\n  \"sim\".*?)```", readme, re.S)
        docs = [json.loads(block.group(1))]
        tree = ast.parse((root / "perfbench" / "workloads.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign) and node.targets[0].id == "SYNTH_CONFIG":
                docs += ast.literal_eval(node.value).values()
        assert len(docs) == 3
        for doc in docs:
            cfg = experiment_config_from_dict(doc)
            assert cfg.als.lam == doc["als"]["lambda"]
            assert cfg.shadow_kind.params.max_depth == doc["shadow"]["max_depth"]
        linear = dict(docs[0], shadow={"kind": "linear", "ridge": 0.5},
                      als={"rank": 2, "lam": 0.3})
        cfg = experiment_config_from_dict(linear)
        assert cfg.shadow_kind.ridge == 0.5 and cfg.als.lam == 0.3


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """``import reclens.cli`` loads no command's modules: each command
    imports what it runs.  Not even ``reclens synth``, whose Welch tests
    need a Student-t tail, loads scipy."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    unloaded = ["scipy", "reclens.synth", "reclens.influence", "concurrent.futures"]
    code = f"import sys, reclens.cli; print([m in sys.modules for m in {unloaded!r}])"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    assert out.stdout.strip() == str([False] * len(unloaded))

    tree = ast.parse((root / "perfbench" / "workloads.py").read_text())
    configs = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "SYNTH_CONFIG"
    )
    config = tmp_path / "smoke.json"
    config.write_text(json.dumps(ast.literal_eval(configs)["smoke"]))
    code = (
        "import sys, reclens.cli\n"
        f"code = reclens.cli.main(['synth', '--config', {str(config)!r}])\n"
        "print('scipy' in sys.modules, code)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    assert out.stdout.splitlines()[-1] == "False 0"


def test_shadow_command_leaves_numpy_ma_unloaded(trained_fixture, tmp_path):
    """``reclens shadow`` finds distinct items without a plain ``np.unique``,
    which in numpy 2.4 imports ``numpy.ma`` (~9 ms per process)."""
    _, meta, model_path = trained_fixture
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for kind in ("linear", "tree"):
        argv = ["shadow", "--model", str(model_path), "--metadata", str(meta),
                "--kind", kind, "--out", str(tmp_path / f"{kind}.json")]
        code = (
            "import sys, reclens.cli\n"
            f"code = reclens.cli.main({argv!r})\n"
            "print('numpy.ma' in sys.modules, code)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=env,
        )
        assert out.stdout.splitlines()[-1] == "False 0"


# The package's public names, each with the submodule that defines it.
PUBLIC_NAMES = {
    "datamodel": ["FactorModel", "MetadataMatrix", "RatingsMatrix", "predict_rating"],
    "errors": ["EstimatorMismatchError", "FormatError", "InsufficientDataError",
               "ParseError", "ReclensError", "SolverError", "StatsError",
               "ValidationError"],
    "factorize": ["AlsConfig", "load_model", "save_model", "train_als",
                  "training_rmse"],
    "influence": ["InfluenceQuery", "InfluenceReport", "ItemSet", "SingleItem",
                  "explain", "qii_exact_binary", "qii_monte_carlo"],
    "ingest": ["FeatureFilterSpec", "RawItemRecord", "encode_one_hot",
               "feature_entropy", "filter_features", "load_metadata",
               "load_ratings", "prune_items"],
    "regressors": ["RegressionTree", "TreeParams", "fit_linear", "fit_tree"],
    "shadow": ["AgreementReport", "LinearKind", "ShadowModel", "TreeKind",
               "faithfulness", "latent_agreement", "load_shadow",
               "measure_agreement", "observational_agreement", "save_shadow",
               "train_shadow"],
    "synth": ["ExperimentConfig", "PreferenceProfile", "ScoreSample", "SimConfig",
              "cohens_d", "control_profiles", "correctness_score",
              "direct_encode_model", "generate_profiles", "random_metadata",
              "run_hypothesis_experiment", "simulate_ratings", "welch_t"],
}


def test_package_exports_resolve_to_submodule_objects():
    import importlib

    import reclens

    names = [n for group in PUBLIC_NAMES.values() for n in group]
    assert len(names) == 60
    assert sorted(reclens.__all__) == sorted(names)
    assert set(names) <= set(dir(reclens))
    for module, group in PUBLIC_NAMES.items():
        sub = importlib.import_module(f"reclens.{module}")
        assert getattr(reclens, module) is sub
        for name in group:
            assert getattr(reclens, name) is getattr(sub, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        reclens.no_such_name  # noqa: B018 - the access is the test


# ------------------------------------------------------------------ fuzz


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Small valid input files for every CLI file argument, as bytes."""
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    write_ratings_csv(d / "ratings.csv", [
        (f"u{u}", f"m{i}", int(rng.integers(1, 6)), 0)
        for u in range(4) for i in range(5)
    ])
    write_metadata_jsonl(d / "meta.jsonl", {
        f"m{i}": {"genre": ["a", "b"][: 1 + i % 2], "era": [f"e{i % 3}"]}
        for i in range(5)
    })
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["train", "--ratings", str(d / "ratings.csv"), "--rank", "2",
                     "--iters", "3", "--out", str(d / "model.json")]) == 0
        assert main(["shadow", "--model", str(d / "model.json"),
                     "--metadata", str(d / "meta.jsonl"), "--kind", "tree",
                     "--depth", "2", "--out", str(d / "shadow.json")]) == 0
    return {name: (d / name).read_bytes() for name in
            ("ratings.csv", "meta.jsonl", "model.json", "shadow.json")}


# Which command reads each damaged file; {d} is a scratch directory that
# holds the intact files.
FUZZ_COMMANDS = {
    "ratings.csv": ["train", "--ratings", "{d}/ratings.csv", "--rank", "2",
                    "--iters", "3", "--out", "{d}/out.json"],
    "meta.jsonl": ["shadow", "--model", "{d}/model.json", "--metadata",
                   "{d}/meta.jsonl", "--kind", "tree", "--depth", "2",
                   "--out", "{d}/out.json"],
    "model.json": ["shadow", "--model", "{d}/model.json", "--metadata",
                   "{d}/meta.jsonl", "--out", "{d}/out.json"],
    "shadow.json": ["explain", "--shadow", "{d}/shadow.json", "--metadata",
                    "{d}/meta.jsonl", "--user", "u1", "--item", "m2",
                    "--model", "{d}/model.json"],
}

# Values a "token" edit puts in place of a number, name or bracket.
FUZZ_TOKENS = (b"null", b"1e999", b"-1e999", b"NaN", b"[]", b"{}", b"-1",
               b"0", b"1.5", b"true", b'"x"', b"99999999999999999999", b"[1]")
FUZZ_TOKEN = re.compile(rb"-?[0-9][0-9.eE+-]*|[A-Za-z_]\w*|[\[{]")

byte_edits = st.lists(
    st.tuples(st.sampled_from(["truncate", "replace", "insert", "delete", "token"]),
              st.integers(0, 10**6), st.integers(0, 255)),
    min_size=1, max_size=3,
)


def apply_edits(data: bytes, edits) -> bytes:
    for op, at, value in edits:
        at %= len(data) + 1
        if op == "truncate":
            data = data[:at]
        elif op == "replace":
            data = data[:at] + bytes([value]) + data[at + 1:]
        elif op == "insert":
            data = data[:at] + bytes([value]) + data[at:]
        elif op == "delete":
            data = data[:at] + data[at + 1:]
        else:
            tokens = list(FUZZ_TOKEN.finditer(data))
            if tokens:
                m = tokens[at % len(tokens)]
                new = FUZZ_TOKENS[value % len(FUZZ_TOKENS)]
                data = data[:m.start()] + new + data[m.end():]
    return data


@settings(max_examples=100)
@given(target=st.sampled_from(sorted(FUZZ_COMMANDS)), edits=byte_edits)
def test_damaged_input_ends_cleanly(fuzz_inputs, target, edits):
    """A truncated or byte-edited input either still works or ends in exit
    1 with exactly one error line, never a traceback."""
    with tempfile.TemporaryDirectory() as d:
        for name, data in fuzz_inputs.items():
            Path(d, name).write_bytes(data)
        Path(d, target).write_bytes(apply_edits(fuzz_inputs[target], edits))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([arg.format(d=d) for arg in FUZZ_COMMANDS[target]])
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("error:")]
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert len(errors) == 1, err.getvalue()
    else:
        assert errors == []
