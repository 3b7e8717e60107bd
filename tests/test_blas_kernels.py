"""``explain`` output bytes do not depend on which CPU kernel OpenBLAS runs:
every number it prints comes from the model and shadow files alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_wide_data

ROOT = Path(__file__).resolve().parent.parent

# OPENBLAS_CORETYPE values, with the CPU flags each kernel needs; None
# leaves the choice to OpenBLAS.
KERNELS = {None: (), "Haswell": ("avx2", "fma"), "Sandybridge": ("avx",)}


def cpu_flags() -> set[str]:
    """The flags of the first processor in /proc/cpuinfo; none if it cannot
    be read."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def run_cli(argv, env):
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from reclens.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True, env=env,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return done.stdout


def test_explain_bytes_independent_of_blas_kernel(tmp_path):
    """A rank-50 model, and a tree and a linear shadow of it, are made once;
    single-item explains with the baseline rating and user-aggregate
    explains, each with a chart, print the same stdout and write the same
    SVG under every OpenBLAS kernel that this CPU can run."""
    flags = cpu_flags()
    kernels = [k for k, needs in KERNELS.items() if flags.issuperset(needs)]
    if len(kernels) < 2:
        pytest.skip(f"this CPU runs only the OpenBLAS kernels {kernels}")
    data, out = tmp_path / "data", tmp_path / "out"
    write_wide_data(data)
    out.mkdir()
    base = {name: value for name, value in os.environ.items()
            if name != "OPENBLAS_CORETYPE"}
    base.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    meta = ["--metadata", str(data / "meta.jsonl")]
    model = str(out / "model.json")
    run_cli(["train", "--ratings", str(data / "ratings.csv"), "--rank", "50",
             "--seed", "3", "--out", model], base)
    for kind in ("tree", "linear"):
        run_cli(["shadow", "--model", model, *meta, "--kind", kind, "--depth", "4",
                 "--seed", "5", "--out", str(out / f"{kind}.json")], base)
    queries = [["--item", item, "--model", model] for item in ("m11", "m50", "m100")]
    queries.append(["--user-aggregate", "--top-k", "500"])
    outputs = {}
    for kernel in kernels:
        env = dict(base) if kernel is None else {**base, "OPENBLAS_CORETYPE": kernel}
        found = []
        for kind in ("tree", "linear"):
            for query in queries:
                chart = out / "chart.svg"
                stdout = run_cli(["explain", "--shadow", str(out / f"{kind}.json"),
                                  *meta, "--user", "u7", *query, "--svg", str(chart)],
                                 env)
                found.append((kind, query[:2], stdout, chart.read_bytes()))
        outputs[kernel] = found
    first = outputs[kernels[0]]
    for kernel in kernels[1:]:
        differ = [(kind, query) for (kind, query, *a), (_, _, *b)
                  in zip(first, outputs[kernel]) if a != b]
        assert not differ, f"{kernel} differs from {kernels[0]} on {differ}"
