"""CLI output bytes do not depend on how many threads OpenBLAS runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import write_wide_data

ROOT = Path(__file__).resolve().parent.parent


def cli_outputs(data, out, threads):
    """Run train at ranks 8 and 50, a depth-4 tree and a linear shadow of
    the rank-50 model, explain for one item and one user aggregate on each,
    and a two-cell sweep (a linear and a tree cell), each as its own
    process with ``OPENBLAS_NUM_THREADS=threads``.  Returns every file the
    commands wrote and each one's exit code, stdout and stderr, with ``out``
    replaced by a fixed name."""
    out.mkdir()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": str(ROOT / "src")}
    meta = ["--metadata", str(data / "meta.jsonl")]
    commands = [
        *(["train", "--ratings", str(data / "ratings.csv"), "--rank", rank,
           "--seed", "3", "--out", str(out / f"model{rank}.json")]
          for rank in ("8", "50")),
        ["shadow", "--model", str(out / "model50.json"), *meta, "--kind", "tree",
         "--depth", "4", "--seed", "5", "--out", str(out / "tree.json")],
        ["shadow", "--model", str(out / "model50.json"), *meta, "--kind",
         "linear", "--seed", "5", "--out", str(out / "linear.json")],
        *(command
          for shadow in ("tree", "linear")
          for command in (
              ["explain", "--shadow", str(out / f"{shadow}.json"), *meta,
               "--user", "u7", "--item", "m11", "--model", str(out / "model50.json")],
              ["explain", "--shadow", str(out / f"{shadow}.json"), *meta,
               "--user", "u7", "--user-aggregate", "--top-k", "500"],
          )),
        ["sweep", "--ratings", str(data / "ratings.csv"), *meta, "--grid",
         str(data / "grid.json"), "--iters", "5", "--out", str(out / "sweep.jsonl")],
    ]
    runs = []
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from reclens.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv],
            capture_output=True, text=True, env=env,
        )
        runs.append((argv[0], done.returncode,
                     done.stdout.replace(str(out), "OUT"),
                     done.stderr.replace(str(out), "OUT")))
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return runs, files


def test_cli_bytes_independent_of_blas_threads(tmp_path):
    """Models, a tree and a linear shadow with their reports, both kinds of
    explain on each, and a sweep with a linear cell are the same bytes with
    one and with two OpenBLAS threads, on data with more than 128 features
    after the entropy filter and a rank of 50."""
    data = tmp_path / "data"
    write_wide_data(data)
    (data / "grid.json").write_text(json.dumps(
        {"ranks": [50], "kinds": ["linear", "tree"], "depths": [4]}))

    one = cli_outputs(data, tmp_path / "one", 1)
    runs, files = one
    assert [code for _, code, _, _ in runs] == [0] * len(runs), runs
    assert len(json.loads(files["linear.json"])["feature_names"]) >= 128
    assert len(files) == 7
    rows = [json.loads(line) for line in files["sweep.jsonl"].splitlines()]
    assert [row["cell"]["kind"] for row in rows] == ["linear", "tree"]
    assert [row["error"] for row in rows] == [None, None], rows
    assert cli_outputs(data, tmp_path / "two", 2) == one
