"""Spans around calls into reclens's public functions, recorded from outside.

The tracer replaces each listed module function by a wrapper, in every
loaded ``reclens`` module that refers to it, so calls that one module
makes into another are seen too.  Spans (name, start, end, parent,
counters) are kept in memory and written once, at the end of a run.
A listed function that the program no longer has stops the install, so
that renaming one is a visible change of the benchmark.  A hook that
fails records its error on the span, and the run counts it as a failure.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

# Layer (module) -> the public functions timed at its boundary.
LAYERS = {
    "ingest": ("load_ratings", "load_metadata", "encode_one_hot",
               "filter_features", "prune_items", "select_features",
               "restrict_items"),
    "factorize": ("train_als", "save_model", "load_model"),
    "regressors": ("fit_tree", "fit_linear"),
    "shadow": ("train_shadow", "measure_agreement", "latent_agreement",
               "observational_agreement", "faithfulness", "save_shadow",
               "load_shadow"),
    "influence": ("explain",),
    "synth": ("run_hypothesis_experiment", "random_metadata",
              "simulate_ratings", "correctness_score"),
    "cli": ("main", "cmd_train", "cmd_shadow", "cmd_explain", "cmd_synth"),
}

# Influences this close to zero, but not zero, are rounding residue.
RESIDUE = 1e-12


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its counter dict for the caller to fill."""
        stack = self._stack()
        attrs: dict = {}
        with self._lock:
            sid = len(self.spans)
            record = {"id": sid, "parent": stack[-1] if stack else None,
                      "name": name, "start": 0.0, "end": 0.0, "attrs": attrs}
            self.spans.append(record)
        stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                if hook is not None and hook[0] is not None:
                    try:
                        args, kwargs = hook[0](attrs, args, kwargs)
                    except Exception as exc:  # noqa: BLE001 - reported by hook_errors
                        attrs["hook_error"] = repr(exc)
                result = fn(*args, **kwargs)
                if hook is not None and hook[1] is not None:
                    try:
                        hook[1](attrs, args, kwargs, result)
                    except Exception as exc:  # noqa: BLE001 - reported by hook_errors
                        attrs["hook_error"] = repr(exc)
                return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> None:
        """Wrap every listed function; raises if one is missing."""
        modules = {layer: importlib.import_module(f"reclens.{layer}") for layer in LAYERS}
        missing = [f"reclens.{layer}.{name}" for layer, names in LAYERS.items()
                   for name in names if not hasattr(modules[layer], name)]
        if missing:
            raise AttributeError(f"{', '.join(missing)} gone; update LAYERS in perfbench/spans.py")
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "reclens" or n.startswith("reclens.")]
        for layer, names in LAYERS.items():
            module = modules[layer]
            for name in names:
                original = getattr(module, name)
                if getattr(original, "__wrapped_by_perfbench__", False):
                    continue
                wrapped = self.wrap(f"{layer}.{name}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)


# ---------------------------------------------------------------- hooks
# (before(attrs, args, kwargs) -> (args, kwargs), after(attrs, args, kwargs, result))


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _before_train_als(attrs, args, kwargs):
    ratings, cfg = _arg(args, kwargs, 0, "ratings"), _arg(args, kwargs, 1, "cfg")
    callback = _arg(args, kwargs, 2, "on_iteration")
    attrs["nnz"] = int(ratings.nnz)
    attrs["rank"] = int(cfg.rank)
    attrs["iteration_ends"] = []

    def stamped(iteration, rmse):
        attrs["iteration_ends"].append(time.perf_counter())
        attrs["final_rmse"] = float(rmse)
        if callback is not None:
            callback(iteration, rmse)

    kwargs = dict(kwargs)
    kwargs["on_iteration"] = stamped
    return tuple(args[:2]), kwargs


def _tree_shape(tree):
    """(nodes, depth) of a fitted tree, from its node objects."""
    root = tree.root
    nodes, depth, todo = 0, 0, [(root, 0)]
    while todo:
        node, d = todo.pop()
        nodes += 1
        depth = max(depth, d)
        if getattr(node, "left", None) is not None:
            todo.append((node.left, d + 1))
            todo.append((node.right, d + 1))
    return nodes, depth


def _after_fit_tree(attrs, args, kwargs, result):
    attrs["nodes"], attrs["depth"] = _tree_shape(result)


def _after_explain(attrs, args, kwargs, result):
    meta, query = _arg(args, kwargs, 1, "meta"), _arg(args, kwargs, 2, "query")
    attrs["scope"] = "item" if hasattr(query.scope, "item") else "set"
    values = [v for _, v in result.influences]
    attrs["features_scored"] = int(meta.n_features)
    attrs["features_listed"] = len(values)
    attrs["features_nonzero"] = sum(1 for v in values if v != 0.0)
    attrs["residue_features"] = sum(1 for v in values if 0.0 < abs(v) <= RESIDUE)


def _after_filter(attrs, args, kwargs, result):
    attrs["features_in"] = int(_arg(args, kwargs, 0, "meta").n_features)
    attrs["features_out"] = int(result.n_features)


def _after_load_ratings(attrs, args, kwargs, result):
    attrs["rows"] = int(result.nnz)


def _after_measure_agreement(attrs, args, kwargs, result):
    shadow = _arg(args, kwargs, 0, "shadow")
    item_set = _arg(args, kwargs, 3, "item_set") or "eval"
    items = {"eval": shadow.eval_items, "train": shadow.train_items,
             "all": shadow.item_indices}[item_set]
    attrs["pairs"] = int(shadow.n_users) * len(items)


def _after_save(attrs, args, kwargs, result):
    attrs["file_bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


HOOKS = {
    "factorize.train_als": (_before_train_als, None),
    "regressors.fit_tree": (None, _after_fit_tree),
    "influence.explain": (None, _after_explain),
    "ingest.filter_features": (None, _after_filter),
    "ingest.load_ratings": (None, _after_load_ratings),
    "shadow.measure_agreement": (None, _after_measure_agreement),
    "shadow.save_shadow": (None, _after_save),
    "factorize.save_model": (None, _after_save),
}


def hook_errors(spans: list[dict]) -> list[str]:
    """One problem per span whose hook failed."""
    return [f"{s['name']} hook: {s['attrs']['hook_error']}"
            for s in spans if "hook_error" in s.get("attrs", {})]


def write_spans(path: Path, spans: list[dict], meta: dict | None = None) -> None:
    """One JSON object per line; an optional first line {"meta": ...}."""
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for s in spans:
            fh.write(json.dumps(s, sort_keys=True) + "\n")


def calibrate_span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    def noop():
        return None

    traced = Tracer().wrap("calibrate.noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - t0 - plain) / calls)


# -------------------------------------------------------------- metrics

PER_LAYER = {
    # name: unit
    "ingest.load_ratings_s": "s",
    "ingest.rows": "count",
    "ingest.load_metadata_s": "s",
    "ingest.encode_filter_prune_s": "s",
    "ingest.select_restrict_s": "s",
    "ingest.features_kept_ratio": "ratio",
    "factorize.train_als_s": "s",
    "factorize.iteration_p50_s": "s",
    "factorize.iterations": "count",
    "factorize.final_rmse": "stars",
    "factorize.outer_product_bytes": "bytes",
    "factorize.save_model_s": "s",
    "factorize.load_model_s": "s",
    "regressors.fit_tree_calls": "count",
    "regressors.fit_tree_p50_s": "s",
    "regressors.fit_tree_total_s": "s",
    "regressors.tree_nodes": "count",
    "regressors.tree_depth_max": "count",
    "regressors.fit_linear_total_s": "s",
    "shadow.train_shadow_self_s": "s",
    "shadow.measure_agreement_s": "s",
    "shadow.agreement_pairs": "count",
    "shadow.latent_agreement_s": "s",
    "shadow.observational_agreement_s": "s",
    "shadow.faithfulness_s": "s",
    "shadow.save_shadow_s": "s",
    "shadow.load_shadow_s": "s",
    "shadow.file_bytes": "bytes",
    "influence.explain_item_s": "s",
    "influence.explain_set_s": "s",
    "influence.features_scored": "count",
    "influence.features_nonzero": "count",
    "influence.useful_ratio": "ratio",
    "influence.residue_features": "count",
    "synth.random_metadata_s": "s",
    "synth.simulate_ratings_s": "s",
    "synth.correctness_score_s": "s",
    "synth.rep_p50_s": "s",
    "cli.import_s": "s",
    "cli.train_rss_mb": "MB",
    "cli.shadow_rss_mb": "MB",
    "cli.explain_rss_mb": "MB",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[dict], cli_runs: list[dict], traced_wall_s: float,
                  span_cost_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    ``cli_runs`` holds one entry per CLI subprocess (command, wall_s,
    rss_mb, import_s, root_s); it is empty for in-process workloads.
    Metrics of a layer the workload does not use are 0.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return float(sum(dur(s) for s in by_name.get(name, [])))

    selfs = self_times(spans)
    m: dict[str, float] = {}
    loads = by_name.get("ingest.load_ratings", [])
    m["ingest.load_ratings_s"] = total("ingest.load_ratings")
    m["ingest.rows"] = float(sum(s["attrs"].get("rows", 0) for s in loads))
    m["ingest.load_metadata_s"] = total("ingest.load_metadata")
    m["ingest.encode_filter_prune_s"] = sum(
        total(f"ingest.{n}") for n in ("encode_one_hot", "filter_features", "prune_items"))
    m["ingest.select_restrict_s"] = total("ingest.select_features") + total("ingest.restrict_items")
    filters = [s["attrs"] for s in by_name.get("ingest.filter_features", [])
               if s["attrs"].get("features_in")]
    m["ingest.features_kept_ratio"] = _median(
        [a["features_out"] / a["features_in"] for a in filters])

    als = by_name.get("factorize.train_als", [])
    steps = []
    for s in als:
        ends = s["attrs"].get("iteration_ends", [])
        steps += [b - a for a, b in zip([s["start"]] + ends[:-1], ends)]
    m["factorize.train_als_s"] = total("factorize.train_als")
    m["factorize.iteration_p50_s"] = _median(steps)
    m["factorize.iterations"] = _median(
        [len(s["attrs"].get("iteration_ends", [])) for s in als])
    m["factorize.final_rmse"] = _median(
        [s["attrs"]["final_rmse"] for s in als if "final_rmse" in s["attrs"]])
    # Computed, not measured: the nnz x k x k outer products ALS stacks.
    m["factorize.outer_product_bytes"] = float(max(
        (s["attrs"]["nnz"] * s["attrs"]["rank"] ** 2 * 8 for s in als), default=0))
    m["factorize.save_model_s"] = total("factorize.save_model")
    m["factorize.load_model_s"] = total("factorize.load_model")

    trees = by_name.get("regressors.fit_tree", [])
    m["regressors.fit_tree_calls"] = float(len(trees))
    m["regressors.fit_tree_p50_s"] = _median([dur(s) for s in trees])
    m["regressors.fit_tree_total_s"] = total("regressors.fit_tree")
    m["regressors.tree_nodes"] = _median([s["attrs"].get("nodes", 0) for s in trees])
    m["regressors.tree_depth_max"] = float(max(
        (s["attrs"].get("depth", 0) for s in trees), default=0))
    m["regressors.fit_linear_total_s"] = total("regressors.fit_linear")

    m["shadow.train_shadow_self_s"] = float(sum(
        selfs[s["id"]] for s in by_name.get("shadow.train_shadow", [])))
    m["shadow.measure_agreement_s"] = total("shadow.measure_agreement")
    m["shadow.agreement_pairs"] = float(sum(
        s["attrs"].get("pairs", 0) for s in by_name.get("shadow.measure_agreement", [])))
    m["shadow.latent_agreement_s"] = total("shadow.latent_agreement")
    m["shadow.observational_agreement_s"] = total("shadow.observational_agreement")
    m["shadow.faithfulness_s"] = total("shadow.faithfulness")
    m["shadow.save_shadow_s"] = total("shadow.save_shadow")
    m["shadow.load_shadow_s"] = total("shadow.load_shadow")
    m["shadow.file_bytes"] = float(max(
        (s["attrs"].get("file_bytes", 0) for s in by_name.get("shadow.save_shadow", [])),
        default=0))

    explains = by_name.get("influence.explain", [])
    items = [s for s in explains if s["attrs"].get("scope") == "item"]
    sets = [s for s in explains if s["attrs"].get("scope") == "set"]
    m["influence.explain_item_s"] = _median([dur(s) for s in items])
    m["influence.explain_set_s"] = _median([dur(s) for s in sets])
    scored = _median([s["attrs"].get("features_scored", 0) for s in explains])
    nonzero = _median([s["attrs"].get("features_nonzero", 0) for s in explains])
    m["influence.features_scored"] = scored
    m["influence.features_nonzero"] = nonzero
    m["influence.useful_ratio"] = nonzero / scored if scored else 0.0
    m["influence.residue_features"] = _median(
        [s["attrs"].get("residue_features", 0) for s in explains])

    m["synth.random_metadata_s"] = total("synth.random_metadata")
    m["synth.simulate_ratings_s"] = total("synth.simulate_ratings")
    m["synth.correctness_score_s"] = total("synth.correctness_score")
    starts = sorted(s["start"] for s in by_name.get("synth.random_metadata", []))
    experiments = by_name.get("synth.run_hypothesis_experiment", [])
    if starts and experiments:
        starts.append(max(s["end"] for s in experiments))
    m["synth.rep_p50_s"] = _median([b - a for a, b in zip(starts, starts[1:])])

    m["cli.import_s"] = _median([r["import_s"] for r in cli_runs])
    for command in ("train", "shadow", "explain"):
        m[f"cli.{command}_rss_mb"] = float(max(
            (r["rss_mb"] for r in cli_runs if r["command"] == command), default=0.0))
    m["cli.overhead_s"] = float(sum(r["wall_s"] - r["root_s"] for r in cli_runs))

    m["trace.overhead_s"] = span_cost_s * len(spans)
    roots = sum(dur(s) for s in spans if s["parent"] is None)
    m["trace.coverage"] = roots / traced_wall_s if traced_wall_s > 0 else 0.0
    if set(m) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metric names drifted: {set(m) ^ set(PER_LAYER)}")
    return {k: (v if math.isfinite(v) else 0.0) for k, v in m.items()}
