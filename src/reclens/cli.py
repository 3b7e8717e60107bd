"""Command-line entry point: train, shadow, explain, sweep, synth.

Every command is deterministic given its flags and seeds; data goes to
files and standard output, diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import MISSING, dataclass, fields
from numbers import Integral, Real
from typing import TYPE_CHECKING

import numpy as np

# Each command imports the modules it runs inside its own body, so a
# process pays only for the command it is: ``train`` never loads the
# shadow, influence or synth modules, only ``sweep``/``synth`` load
# ``concurrent.futures``, and ``difflib`` loads only to word an error.
from .datamodel import MetadataMatrix, read_json, write_json
from .errors import ReclensError, ValidationError, check_seed

if TYPE_CHECKING:
    from .synth import ExperimentConfig


def _eprint(*args):
    print(*args, file=sys.stderr)


def _emit(record: dict):
    print(json.dumps(record, sort_keys=True))


def _write_jsonl(rows, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), *(len(r[c]) for r in rows)) if rows else len(h)
        for c, h in enumerate(headers)
    ]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return "\n".join([fmt(headers)] + [fmt(r) for r in rows])


def _check_keys(doc, what: str, required=(), optional=(), listing="keys"):
    """Reject a config object that is not a JSON object, holds a key outside
    ``required`` + ``optional`` (with a did-you-mean hint), or lacks a
    required key."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object")
    allowed = (*required, *optional)
    for key in doc:
        if key not in allowed:
            from difflib import get_close_matches

            near = get_close_matches(key, allowed, n=1)
            hint = (
                f"; did you mean {near[0]!r}?" if near
                else f"; {listing} are {', '.join(allowed)}"
            )
            raise ValidationError(f"unknown {what} key {key!r}{hint}")
    for key in required:
        if key not in doc:
            raise ValidationError(f"{what} lacks required key {key!r}")
    return doc


def _config_keys(cls, names=None) -> tuple[list[str], list[str]]:
    """The required and the optional keys of a config object for dataclass
    ``cls``, in field order: each field's name, or the keys ``names`` maps
    it to (none for a field no config sets)."""
    keys = ([], [])
    for f in fields(cls):
        optional = f.default is not MISSING or f.default_factory is not MISSING
        keys[optional].extend((names or {}).get(f.name, (f.name,)))
    return keys


def _given(**flags) -> dict:
    """The flags the user set, those that are not None; the config type they
    go to supplies the default of every other field."""
    return {name: value for name, value in flags.items() if value is not None}


def _lookup_id(kind: str, wanted: str, ids: tuple[str, ...] | None) -> int:
    """External id -> dense index, with nearest-id suggestions on miss."""
    if ids is None:
        try:
            return int(wanted)
        except ValueError:
            raise ValidationError(
                f"model carries no {kind} ids; pass a numeric index"
            ) from None
    try:
        return ids.index(wanted)
    except ValueError:
        from difflib import get_close_matches

        near = get_close_matches(wanted, ids, n=5)
        hint = f"; nearest: {', '.join(near)}" if near else ""
        raise ValidationError(f"unknown {kind} id {wanted!r}{hint}") from None


def _prepare_metadata(item_ids, args):
    """Load, encode, filter and prune the metadata against the item
    indexing ``item_ids`` (position = item index); returns (meta,
    item_indices)."""
    from .ingest import (
        FeatureFilterSpec,
        encode_one_hot,
        filter_features,
        load_metadata,
        prune_items,
    )

    records = load_metadata(args.metadata)
    item_index = {iid: i for i, iid in enumerate(item_ids)}
    meta = encode_one_hot(records, item_index=item_index, n_items=len(item_ids))
    meta = filter_features(
        meta, FeatureFilterSpec.entropy_threshold(args.entropy_threshold)
    )
    meta, mask = prune_items(meta, min_features=args.min_features)
    return meta, np.flatnonzero(mask)


def _shadow_kind(args):
    from .regressors import TreeParams
    from .shadow import LinearKind, TreeKind

    if args.kind == "linear":
        if args.depth is not None or args.min_leaf is not None:
            _eprint(
                "warning: --depth/--min-leaf are tree-only flags; ignored for linear"
            )
        return LinearKind(**_given(ridge=args.ridge))
    if args.ridge is not None:
        _eprint("warning: --ridge is a linear-only flag; ignored for tree")
    return TreeKind(TreeParams(**_given(max_depth=args.depth, min_leaf=args.min_leaf)))


# ---------------------------------------------------------------- train


def cmd_train(args) -> int:
    from .factorize import AlsConfig, save_model, train_als
    from .ingest import load_ratings

    cfg = AlsConfig(rank=args.rank, **_given(
        lam=args.lam, max_iterations=args.iters, convergence_tol=args.tol,
        seed=args.seed,
    ))
    ratings = load_ratings(args.ratings, scale=(args.scale_min, args.scale_max))
    last = {}

    def progress(iteration, rmse):
        last["iterations"] = iteration + 1
        last["rmse"] = rmse
        _eprint(f"iteration {iteration + 1}: training rmse {rmse:.6f}")

    model = train_als(ratings, cfg, on_iteration=progress)
    save_model(model, args.out)
    _emit(
        {
            "command": "train",
            "final_training_rmse": last["rmse"],
            "iterations": last["iterations"],
            "model": str(args.out),
        }
    )
    return 0


# --------------------------------------------------------------- shadow


def cmd_shadow(args) -> int:
    from .factorize import load_model
    from .shadow import measure_agreement, save_shadow, train_shadow

    model = load_model(args.model)
    if model.item_ids is None:
        raise ValidationError("model file carries no item ids")
    meta, item_indices = _prepare_metadata(model.item_ids, args)
    kind = _shadow_kind(args)
    shadow = train_shadow(
        model, meta, kind, split=(args.split, args.seed), item_indices=item_indices
    )
    report = measure_agreement(
        shadow, model, meta, item_set=args.measure, seed=args.seed
    )
    save_shadow(shadow, args.out)
    label = args.measure
    if args.measure == "eval" and shadow.eval_is_train:
        label = "train-set"
    doc = {"command": "shadow", "measured_on": label, **report.to_dict()}
    write_json(doc, str(args.out) + ".report.json")
    _emit(doc)
    return 0


# -------------------------------------------------------------- explain


def cmd_explain(args) -> int:
    from .influence import InfluenceQuery, ItemSet, SingleItem, explain, write_svg
    from .ingest import encode_one_hot, load_metadata, restrict_items, select_features
    from .shadow import load_shadow

    shadow = load_shadow(args.shadow)
    records = load_metadata(args.metadata)
    if shadow.item_ids is None:
        raise ValidationError("shadow file carries no item ids")
    item_index = {iid: i for i, iid in enumerate(shadow.item_ids)}
    full = encode_one_hot(
        records, item_index=item_index, n_items=len(shadow.item_ids)
    )
    meta = restrict_items(
        select_features(full, shadow.feature_names), shadow.item_indices
    )
    user = _lookup_id("user", args.user, shadow.user_ids)
    if args.user_aggregate:
        scope = ItemSet(tuple(int(i) for i in shadow.item_indices))
    else:
        item = _lookup_id("item", args.item, shadow.item_ids)
        try:
            shadow.rows_of_items([item])
        except IndexError:
            raise ValidationError(
                f"item {args.item!r} is pruned (it kept no metadata features) "
                "or unknown to the shadow model"
            ) from None
        scope = SingleItem(item)
    query = InfluenceQuery(user=user, scope=scope)
    baseline = None
    if args.model:
        from .factorize import load_model

        baseline = load_model(args.model)
    report = explain(shadow, meta, query, top_k=args.top_k, baseline=baseline)
    for w in report.warnings:
        _eprint(f"warning: {w}")
    # The report names the user and item by the ids given on the command
    # line, not by the shadow's dense indices.
    doc = report.to_dict()
    doc["user"] = shadow.user_ids[user] if shadow.user_ids else str(user)
    doc["scope"] = (
        {"user_aggregate": True} if args.user_aggregate
        else {"single_item": shadow.item_ids[scope.item]}
    )
    _emit(doc)
    if args.svg:
        write_svg(report, args.svg, top=min(args.top_k, 10))
    return 0


# ---------------------------------------------------------------- sweep


@dataclass(frozen=True)
class SweepGrid:
    """Axes of the parameter sweep; depths apply to tree cells only."""

    ranks: tuple[int, ...] = (12, 20, 50)
    lambdas: tuple[float, ...] = (0.1,)
    kinds: tuple[str, ...] = ("linear", "tree")
    depths: tuple[int, ...] = (3, 5)

    def __post_init__(self):
        for name in ("ranks", "lambdas", "kinds", "depths"):
            seq = tuple(getattr(self, name))
            if not seq:
                raise ValidationError(f"sweep grid axis {name} must be non-empty")
            object.__setattr__(self, name, seq)
        for kind in self.kinds:
            if kind not in ("linear", "tree"):
                raise ValidationError(f"unknown shadow kind {kind!r}")
        for name, types in (("ranks", Integral), ("lambdas", Real),
                            ("depths", Integral)):
            for value in getattr(self, name):
                if isinstance(value, bool) or not isinstance(value, types):
                    number = isinstance(value, Real) and not isinstance(value, bool)
                    raise ValidationError(
                        f"sweep grid axis {name} holds {value!r}, not "
                        f"{'an integer' if number else 'a number'}"
                    )

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepGrid":
        """Parse a grid config strictly: every key must name an axis and
        hold a list.  A ``bins`` list is accepted and ignored, because older
        grid files set it and it never changed a tree."""
        _check_keys(doc, "sweep grid", optional=(*_config_keys(cls)[1], "bins"),
                    listing="axes")
        for key, values in doc.items():
            if not isinstance(values, list):
                raise ValidationError(f"sweep grid axis {key!r} must be a list")
        return cls(**{key: tuple(values) for key, values in doc.items()
                      if key != "bins"})

    def cells(self, ridge: float) -> list[dict]:
        out = []
        for rank in self.ranks:
            for lam in self.lambdas:
                for kind in self.kinds:
                    if kind == "linear":
                        out.append(
                            {"rank": rank, "lambda": lam, "kind": "linear",
                             "ridge": ridge}
                        )
                    else:
                        for depth in self.depths:
                            out.append(
                                {"rank": rank, "lambda": lam, "kind": "tree",
                                 "depth": depth}
                            )
        return out


def run_sweep(
    ratings,
    meta: MetadataMatrix,
    item_indices,
    grid: SweepGrid,
    iters: int | None = None,
    split: float = 0.8,
    measure: str = "eval",
    ridge: float | None = None,
    seed: int = 0,
    threads: int = 1,
) -> list[dict]:
    """Train one baseline per (rank, lambda) and one shadow per grid cell;
    report latent and observational agreement for each cell.

    ``iters`` and ``ridge`` default to those of ``AlsConfig`` and
    ``LinearKind``.  Per-cell failures are recorded in the row and the sweep
    continues.  Rows come back in grid order regardless of the worker count.
    """
    from .factorize import AlsConfig, train_als
    from .regressors import TreeParams, check_ridge
    from .shadow import LinearKind, TreeKind, measure_agreement, train_shadow

    iters = AlsConfig.max_iterations if iters is None else iters
    ridge = LinearKind.ridge if ridge is None else ridge
    # The flags every cell shares are checked here, once; a bad grid value
    # fails only its own cells.
    check_seed(seed)
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    if iters < 1:
        raise ValidationError("iters must be >= 1")
    if not 0.0 < split <= 1.0:
        raise ValidationError("split must be in (0, 1]")
    check_ridge(ridge)
    cells = grid.cells(ridge)
    base_keys = sorted({(c["rank"], c["lambda"]) for c in cells})

    def train_base(key):
        rank, lam = key
        als_seed = int(
            np.random.SeedSequence(entropy=(seed, rank, hash(lam) & 0xFFFF)).
            generate_state(1)[0]
        )
        return train_als(
            ratings, AlsConfig(rank=rank, lam=lam, max_iterations=iters,
                               seed=als_seed)
        )

    def safe_base(key):
        try:
            return train_base(key)
        except ReclensError as exc:
            return exc

    def failed(exc):
        return {"mean_latent_mae": None, "observational_mae": None,
                "error": str(exc)}

    def fit_and_measure(cell):
        model = baselines[(cell["rank"], cell["lambda"])]
        if isinstance(model, Exception):
            return failed(model)
        try:
            if cell["kind"] == "linear":
                kind = LinearKind(ridge=cell["ridge"])
            else:
                kind = TreeKind(TreeParams(cell["depth"]))
            shadow = train_shadow(
                model, meta, kind, split=(split, seed), item_indices=item_indices
            )
            report = measure_agreement(shadow, model, meta, item_set=measure,
                                       seed=seed)
            return {
                "mean_latent_mae": report.mean_latent_mae,
                "observational_mae": report.observational_mae,
                "error": None,
            }
        except (ReclensError, np.linalg.LinAlgError) as exc:
            return failed(exc)

    def run_all(run):
        baselines.update(zip(base_keys, run(safe_base, base_keys)))
        return [{"cell": cell, **row}
                for cell, row in zip(cells, run(fit_and_measure, cells))]

    baselines = {}
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return run_all(pool.map)
    return run_all(map)


def _cell_label(cell: dict) -> str:
    if cell["kind"] == "linear":
        return f"rank {cell['rank']}, linear, lambda {cell['lambda']}"
    return (
        f"rank {cell['rank']}, tree, lambda {cell['lambda']}, "
        f"depth {cell['depth']}"
    )


def cmd_sweep(args) -> int:
    from .ingest import load_ratings

    ratings = load_ratings(args.ratings, scale=(args.scale_min, args.scale_max))
    meta, item_indices = _prepare_metadata(ratings.item_ids, args)
    if args.grid:
        grid = SweepGrid.from_dict(read_json(args.grid))
    else:
        grid = SweepGrid()
    rows = run_sweep(
        ratings,
        meta,
        item_indices,
        grid,
        iters=args.iters,
        split=args.split,
        measure=args.measure,
        ridge=args.ridge,
        seed=args.seed,
        threads=args.threads,
    )
    if args.out:
        _write_jsonl(rows, args.out)
    table_rows = [
        [
            _cell_label(r["cell"]),
            "-" if r["mean_latent_mae"] is None else f"{r['mean_latent_mae']:.4f}",
            "-" if r["observational_mae"] is None
            else f"{r['observational_mae']:.4f}",
            r["error"] or "",
        ]
        for r in rows
    ]
    print(_table(["cell", "latent_mae", "observational_mae", "error"], table_rows))
    return 0


# ---------------------------------------------------------------- synth


def cmd_synth(args) -> int:
    from .synth import run_hypothesis_experiment

    doc = read_json(args.config)
    cfg = experiment_config_from_dict(
        doc,
        threads=args.threads,
        seed=args.seed,
        direct_encode=args.direct_encode,
    )
    result = run_hypothesis_experiment(cfg)
    if args.out:
        write_json(
            {"config": doc, "direct_encode": cfg.direct_encode, **result.to_dict()},
            args.out,
        )
    cond_rows = [
        [c, f"{result.means[c]:.4f}", str(len(result.condition_scores(c)))]
        for c in ("true", "semi_random", "random")
    ]
    print(_table(["condition", "mean_score", "n"], cond_rows))
    test_rows = []
    for key, vals in result.tests.items():
        if "error" in vals:
            test_rows.append([key, "-", "-", vals["error"]])
        else:
            test_rows.append(
                [key, f"{vals['t']:.3f}", f"{vals['p']:.3g}",
                 f"{vals['effect_size']:.2f}"]
            )
    print()
    print(_table(["comparison", "t", "p", "effect_size"], test_rows))
    return 0


def experiment_config_from_dict(
    doc: dict,
    threads: int | None = None,
    seed: int | None = None,
    direct_encode: bool | None = None,
) -> ExperimentConfig:
    """Parse a synth config strictly: ``sim`` and ``als`` are required, and
    an unknown key at any level is an error with a did-you-mean hint.  The
    keys of each level are the fields of its config type, whose defaults
    stand for the keys a config leaves out."""
    from .factorize import AlsConfig
    from .ingest import FeatureFilterSpec
    from .regressors import TreeParams
    from .shadow import LinearKind, TreeKind
    from .synth import ExperimentConfig, SimConfig

    top = dict(_check_keys(doc, "synth config", *_config_keys(
        ExperimentConfig, {"shadow_kind": ("shadow",), "threads": ()},
    )))

    def section(name, cls, names=None):
        # A repetition seeds its simulation and its ALS run from the
        # top-level seed, so a seed here would change nothing.
        if isinstance(top[name], dict) and "seed" in top[name]:
            raise ValidationError(
                f"{name}.seed is not read: the top-level 'seed' seeds every "
                "repetition"
            )
        keys = _config_keys(cls, {"seed": (), **(names or {})})
        return dict(_check_keys(top[name], name, *keys))

    sim_doc = section("sim", SimConfig)
    if "feature_pool" in sim_doc:
        _check_keys(sim_doc["feature_pool"], "sim.feature_pool",
                    *_config_keys(FeatureFilterSpec))
    als_doc = section("als", AlsConfig, {"lam": ("lambda", "lam")})
    if "lambda" in als_doc and "lam" in als_doc:
        raise ValidationError("als holds both 'lambda' and 'lam'; keep one")
    shadow_doc = top.pop("shadow", {})
    kind_name = (
        shadow_doc.get("kind", "tree") if isinstance(shadow_doc, dict) else "tree"
    )
    if kind_name not in ("linear", "tree"):
        raise ValidationError(
            f"unknown shadow kind {kind_name!r}; kinds are linear, tree"
        )
    params = LinearKind if kind_name == "linear" else TreeParams
    shadow_keys = ["kind", *_config_keys(params)[1]]
    if params is TreeParams:
        # Accepted and ignored: older configs set it, and it never changed a
        # tree.  Listed after max_depth, where shadow files write it.
        shadow_keys.insert(2, "bins")
    shadow_doc = dict(_check_keys(shadow_doc, f"{kind_name} shadow",
                                  optional=shadow_keys))
    for key in ("kind", "bins"):
        shadow_doc.pop(key, None)
    try:
        if "feature_pool" in sim_doc:
            sim_doc["feature_pool"] = FeatureFilterSpec(**sim_doc["feature_pool"])
        if "scale_bounds" in sim_doc:
            sim_doc["scale_bounds"] = tuple(sim_doc["scale_bounds"])
        if "lambda" in als_doc:
            als_doc["lam"] = als_doc.pop("lambda")
        top["sim"] = SimConfig(**sim_doc)
        top["als"] = AlsConfig(**als_doc)
        top["shadow_kind"] = (LinearKind(**shadow_doc) if params is LinearKind
                              else TreeKind(TreeParams(**shadow_doc)))
        top.update(_given(threads=threads, seed=seed))
        if direct_encode:
            top["direct_encode"] = True
        return ExperimentConfig(**top)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"synth config holds a mistyped value: {exc}") from None


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reclens",
        description="Interpret matrix-factorization recommenders through a "
        "metadata-driven shadow model and feature influence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the baseline factor model")
    p.add_argument("--ratings", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scale-min", type=float, default=1.0)
    p.add_argument("--scale-max", type=float, default=5.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("shadow", help="train and score a shadow model")
    p.add_argument("--model", required=True)
    p.add_argument("--metadata", required=True)
    p.add_argument("--kind", choices=["linear", "tree"], default="tree")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--min-leaf", type=int, default=None)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--measure", choices=["eval", "train", "all"], default="eval")
    p.add_argument("--entropy-threshold", type=float, default=0.01)
    p.add_argument("--min-features", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("explain", help="influence report for a recommendation")
    p.add_argument("--shadow", required=True)
    p.add_argument("--metadata", required=True)
    p.add_argument("--user", required=True)
    scope = p.add_mutually_exclusive_group(required=True)
    scope.add_argument("--item")
    scope.add_argument("--user-aggregate", action="store_true")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--svg")
    p.add_argument("--model", help="optional baseline model for its rating")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("sweep", help="grid over model and shadow parameters")
    p.add_argument("--ratings", required=True)
    p.add_argument("--metadata", required=True)
    p.add_argument("--grid", help="JSON grid config; omit for the built-in grid")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--measure", choices=["eval", "train", "all"], default="eval")
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--entropy-threshold", type=float, default=0.01)
    p.add_argument("--min-features", type=int, default=1)
    p.add_argument("--scale-min", type=float, default=1.0)
    p.add_argument("--scale-max", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="synthetic-preference hypothesis tests")
    p.add_argument("--config", required=True)
    p.add_argument("--direct-encode", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A library warning is one line; the default filters show each one
        # once per place that raises it, whichever thread gets there first.
        with warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_, **__: _eprint(f"warning: {msg}")
            return args.func(args)
    except MemoryError as exc:
        _eprint(f"error: out of memory: {exc}" if str(exc) else "error: out of memory")
        return 1
    except OSError as exc:
        if exc.filename is None:
            _eprint(f"error: {exc}")
            return 1
        outputs = [str(p) for p in (getattr(args, "out", None),
                                    getattr(args, "svg", None)) if p]
        outputs += [p + ".report.json" for p in outputs]
        verb = "write" if str(exc.filename) in outputs else "read"
        _eprint(f"error: cannot {verb} {exc.filename}: {exc.strerror or exc}")
        return 1
    except ReclensError as exc:
        _eprint(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
