"""Rewrite ``tests/golden.json``: the SHA-256 of every file, stdout and
stderr of a fixed set of CLI runs, with the numpy and OpenBLAS versions
they were made with.

    PYTHONPATH=src python tests/make_golden.py

``tests/test_golden.py`` compares a fresh run against the file and never
rewrites it.  Rewrite it only in a change that alters output bytes on
purpose, and list each changed digest with its reason.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import write_wide_data

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden.json"

# Models, and the ALS runs and agreement reports of shadow, sweep and
# synth, differ between OpenBLAS's CPU kernels, so every child pins one;
# shadow files and explain output do not (tests/test_blas_kernels.py).  No
# output depends on the thread count (tests/test_blas_threads.py), but it
# is pinned too.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell"}

GRID = {"ranks": [8], "kinds": ["linear", "tree"], "depths": [3]}

SYNTH = {
    "sim": {
        "n_profiles": 2, "features_per_profile": 3, "n_users": 30,
        "ratings_per_user": 8,
        "feature_pool": {"kind": "top_k_entropy", "value": 8},
    },
    "als": {"rank": 2, "lambda": 0.1, "max_iterations": 6},
    "shadow": {"kind": "tree", "max_depth": 4},
    "n_reps": 2, "users_per_rep": 2,
    "n_items": 24, "n_meta_features": 20, "seed": 11,
}


def fingerprint() -> dict:
    """The numpy and OpenBLAS versions that the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "openblas": f"{blas['name']} {blas['version']}"}


def commands(data: Path, out: Path) -> list[tuple[str, list[str]]]:
    """Each run's label and arguments: models at ranks 8 and 50, a linear
    and a tree shadow with their reports, both kinds of explain with a
    chart (a single item on either shadow), a two-cell sweep and a
    two-repetition synth."""
    meta = ["--metadata", str(data / "meta.jsonl")]
    return [
        *((f"train-{rank}",
           ["train", "--ratings", str(data / "ratings.csv"), "--rank", rank,
            "--seed", "3", "--out", str(out / f"model{rank}.json")])
          for rank in ("8", "50")),
        ("shadow-linear",
         ["shadow", "--model", str(out / "model8.json"), *meta, "--kind",
          "linear", "--seed", "5", "--out", str(out / "linear.json")]),
        ("shadow-tree",
         ["shadow", "--model", str(out / "model50.json"), *meta, "--kind",
          "tree", "--depth", "4", "--seed", "5", "--out", str(out / "tree.json")]),
        ("explain-item",
         ["explain", "--shadow", str(out / "tree.json"), *meta, "--user", "u7",
          "--item", "m11", "--model", str(out / "model50.json"),
          "--svg", str(out / "item.svg")]),
        ("explain-linear",
         ["explain", "--shadow", str(out / "linear.json"), *meta, "--user", "u7",
          "--item", "m11", "--model", str(out / "model8.json"),
          "--svg", str(out / "linear.svg")]),
        ("explain-aggregate",
         ["explain", "--shadow", str(out / "tree.json"), *meta, "--user", "u7",
          "--user-aggregate", "--top-k", "500",
          "--svg", str(out / "aggregate.svg")]),
        ("sweep",
         ["sweep", "--ratings", str(data / "ratings.csv"), *meta, "--grid",
          str(data / "grid.json"), "--iters", "5", "--out", str(out / "sweep.jsonl")]),
        ("synth",
         ["synth", "--config", str(data / "synth.json"),
          "--out", str(out / "synth.json")]),
    ]


def digests(work: Path) -> dict[str, str]:
    """Run every command in directory ``work`` and return the SHA-256 of
    each input and output file, by its path under ``work``, and of each
    run's stdout and stderr, with ``work`` written as ``WORK``.  A run that
    fails raises ``RuntimeError``."""
    data, out = work / "data", work / "out"
    write_wide_data(data)
    (data / "grid.json").write_text(json.dumps(GRID))
    (data / "synth.json").write_text(json.dumps(SYNTH))
    out.mkdir()
    env = {**os.environ, **BLAS_ENV,
           "PYTHONPATH": str(TESTS.parent / "src")}
    found = {}
    for label, argv in commands(data, out):
        done = subprocess.run([sys.executable, "-m", "reclens.cli", *argv],
                              capture_output=True, env=env)
        if done.returncode != 0:
            raise RuntimeError(f"{label} exited {done.returncode}: "
                               f"{done.stderr.decode(errors='replace')}")
        for stream in ("stdout", "stderr"):
            text = getattr(done, stream).replace(str(work).encode(), b"WORK")
            found[f"{label}.{stream}"] = hashlib.sha256(text).hexdigest()
    for path in sorted([*data.iterdir(), *out.iterdir()]):
        found[path.relative_to(work).as_posix()] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return found


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        doc = {"fingerprint": fingerprint(), "digests": digests(Path(work))}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['digests'])} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
