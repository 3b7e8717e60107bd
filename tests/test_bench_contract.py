"""What the benchmark reads and calls of the program, checked in seconds:
``perfbench/spans.py`` and ``perfbench/workloads.py`` are loaded by their
paths, as they are.  The tracer's function list and tree walk are tried on
the current code, and the in-process workload runs once at its smoke
size."""

import importlib
import importlib.util
import sys
from pathlib import Path

from reclens.regressors import TreeParams, fit_tree

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench(name, monkeypatch=None):
    """``perfbench/<name>.py`` as a module.  With ``monkeypatch`` it is put
    in ``sys.modules`` for the test before it runs, as dataclasses need."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    spans = load_bench("spans")
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"reclens.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"reclens.{layer}.{name}"


def test_tree_shape_walks_a_fitted_tree(rng):
    """``_tree_shape`` walks ``root`` through each node's ``left`` and
    ``right``; it must count the nodes and levels that the tree's own flat
    arrays hold."""
    X = rng.random((40, 6)) < 0.5
    tree = fit_tree(X, rng.normal(size=40), TreeParams(max_depth=4))
    assert tree.root.left is not None and tree.root.right is not None
    assert load_bench("spans")._tree_shape(tree) == (len(tree._value), tree.depth)


def explain_tree_smoke(tmp_path, monkeypatch, plant):
    """One pass of the ``explain-tree`` workload at its smoke size, with the
    program's library calls made in this process."""
    # workloads.py imports its sibling modules by their bare names.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = load_bench("workloads", monkeypatch)
    ctx = workloads.Context(src=BENCH.parent / "src", work=tmp_path, seed=0,
                            seconds=0, traced=False, size="smoke", plant=plant)
    return workloads.explain_tree(ctx)


def test_explain_tree_workload_runs_on_the_library(tmp_path, monkeypatch):
    outcome = explain_tree_smoke(tmp_path, monkeypatch, "none")
    assert outcome.attempted > 0
    assert outcome.failures == [] and outcome.failed_ops == 0


def test_explain_tree_workload_reports_a_planted_fault(tmp_path, monkeypatch):
    """The run above fails on a wrong influence."""
    outcome = explain_tree_smoke(tmp_path, monkeypatch, "influence")
    assert outcome.failed_ops >= 1
