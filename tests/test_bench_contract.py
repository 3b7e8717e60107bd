"""What the benchmark's tracer reads of the program, checked in a second:
``perfbench/spans.py`` is loaded by its path, as it is, and its function
list and tree walk are tried on the current code."""

import importlib
import importlib.util
from pathlib import Path

from reclens.regressors import TreeParams, fit_tree

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    spans = load_spans()
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
    assert load_spans()._tree_shape(tree) == (len(tree._value), tree.depth)
