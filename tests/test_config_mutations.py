"""Every one-field mutation of a small synth config, of its linear-shadow
variant and of a sweep grid ends in exit 0, or in exit 1 with exactly one
``error:`` line on stderr; no stderr line reaches ``ERROR_WIDTH``
characters, and no exception escapes ``cli.main``.

Each mutation sets one field, a list entry included, to one of
``VALUES``, deletes it, or adds one unknown key, short or 300 characters
long, to one object.  The runs are fixed by the documents below and a
seeded ratings fixture, about 650 of them in all, most ending at the
config check.
"""

import copy
import json

import numpy as np
import pytest

from reclens.cli import main

from conftest import write_metadata_jsonl, write_ratings_csv

# 10**400 is a 401-digit integer; the long string and the ragged rows are
# for the messages that quote a value, which must quote an excerpt of it.
VALUES = [None, True, False, -1, 1.5, 2**70, 10**400, 1e308, float("nan"), "",
          [], {}, "x" * 300, [[1.0], [1.0, 2.0]]]

# An error or warning line, its "error: " and any file path included, is
# shorter.
ERROR_WIDTH = 300

# n_reps: 2**70 asks for more score samples than a tuple can hold, and the
# config check rejects it before any repetition runs.
SYNTH = {
    "sim": {"n_profiles": 2, "features_per_profile": 2, "n_users": 12,
            "ratings_per_user": 5, "base_rating": 3.0, "delta": 1.0,
            "scale_bounds": [1.0, 5.0],
            "feature_pool": {"kind": "top_k_entropy", "value": 6}},
    "als": {"rank": 2, "lambda": 0.1, "max_iterations": 4,
            "convergence_tol": 1e-4},
    "shadow": {"kind": "tree", "max_depth": 2, "min_leaf": 1},
    "n_reps": 1, "users_per_rep": 1, "n_items": 10, "n_meta_features": 8,
    "keep_fraction": 0.5, "direct_encode": False, "score_by_magnitude": True,
    "seed": 3,
}

GRID = {"ranks": [2], "lambdas": [0.1], "kinds": ["linear", "tree"], "depths": [2]}


def _paths(doc, prefix=()):
    """The key path of every field of ``doc``, list entries included, each
    before the fields it holds."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutations(doc, within=()):
    """(label, mutated copy of ``doc``) for every one-field mutation of the
    fields under the key path ``within``."""
    paths = list(_paths(_at(doc, within), within))
    for path in paths:
        label = ".".join(map(str, path))
        for value in VALUES + ["delete"]:
            mutated = copy.deepcopy(doc)
            if value == "delete":
                del _at(mutated, path[:-1])[path[-1]]
            else:
                _at(mutated, path[:-1])[path[-1]] = value
            yield f"{label}={value!r:.24}", mutated
    for path in [within, *(p for p in paths if isinstance(_at(doc, p), dict))]:
        for key in ("extra", "k" * 300):
            mutated = copy.deepcopy(doc)
            _at(mutated, path)[key] = 1
            yield f"{'.'.join(map(str, path))} +{key:.24}", mutated


def broken_contract(argv, capsys):
    """None if ``main(argv)`` exits 0, or 1 with one ``error:`` line, and
    writes no stderr line of ``ERROR_WIDTH`` characters; otherwise what it
    did."""
    capsys.readouterr()
    try:
        code = main(argv)
    except BaseException as exc:  # noqa: BLE001 - any escape breaks it
        return f"raised {type(exc).__name__}: {str(exc)[:200]}"
    err = capsys.readouterr().err.splitlines()
    short = all(len(line) < ERROR_WIDTH for line in err)
    if short and (code == 0 or (code == 1 and len(err) == 1
                                and err[0].startswith("error: "))):
        return None
    return f"exit {code}, stderr {[line[:200] for line in err[:3]]}"


def check_mutations(doc, path, argv, capsys, within=()):
    broken = []
    for label, mutated in mutations(doc, within):
        path.write_text(json.dumps(mutated))
        problem = broken_contract(argv, capsys)
        if problem:
            broken.append(f"{label}: {problem}")
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("kind", ["tree", "linear"])
def test_synth_config_mutations(tmp_path, capsys, kind):
    doc = copy.deepcopy(SYNTH)
    if kind == "linear":
        doc["shadow"] = {"kind": "linear", "ridge": 0.1}
    config = tmp_path / "synth.json"
    argv = ["synth", "--config", str(config)]
    config.write_text(json.dumps(doc))
    assert broken_contract(argv, capsys) is None
    # The linear config differs from the tree config only in its shadow.
    check_mutations(doc, config, argv, capsys,
                    within=("shadow",) if kind == "linear" else ())


def test_sweep_grid_mutations(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = [(f"u{u}", f"m{i}", float(rng.integers(1, 6)), 0)
            for u in range(8) for i in range(10) if rng.random() < 0.8]
    write_ratings_csv(tmp_path / "ratings.csv", rows)
    write_metadata_jsonl(tmp_path / "meta.jsonl", {
        f"m{i}": {"g": [f"g{j}" for j in range(4) if (i >> j) & 1 or j == 3]}
        for i in range(10)
    })
    grid = tmp_path / "grid.json"
    argv = ["sweep", "--ratings", str(tmp_path / "ratings.csv"),
            "--metadata", str(tmp_path / "meta.jsonl"), "--grid", str(grid),
            "--iters", "3"]
    grid.write_text(json.dumps(GRID))
    assert broken_contract(argv, capsys) is None
    check_mutations(GRID, grid, argv, capsys)
