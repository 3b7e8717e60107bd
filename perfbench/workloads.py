"""The three benchmark workloads.

Every workload runs a fixed pass of program operations, repeats the pass
until the requested seconds have elapsed (at least once; exactly once
when traced), checks every output, and reports:

* ``metrics``: the end-to-end metrics named in BENCHMARK.json, which every
  workload has (``setup_s``, ``peak_rss_mb``, ``wall_s``);
* ``detail``: the workload's own end-to-end figures (for example
  ``train_s`` or ``explain_item_p90_ms``) with their units and sample counts;
* ``spans`` and ``cli_runs``: the raw material for per-layer metrics when
  the run is traced.

Load is closed-loop from this one process: one operation in flight at a
time.  CLI commands run as child processes of a fresh interpreter; the
environment is passed through unchanged apart from ``PYTHONPATH``, so BLAS
and OpenMP thread settings are whatever the caller set.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from spans import Tracer

BENCH = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170.0
IMPORT_PROBES = 3  # on each side of the passes

# reclens synth config of the paper's validation experiment (acceptance
# criterion 4): 500 users, 200 items, 200 features, rank 3, depth 5, 20 reps.
SYNTH_CONFIG = {
    "full": {
        "sim": {"n_profiles": 3, "features_per_profile": 4, "n_users": 500,
                "ratings_per_user": 50,
                "feature_pool": {"kind": "top_k_entropy", "value": 15}},
        "als": {"rank": 3, "lambda": 0.1, "max_iterations": 20},
        "shadow": {"kind": "tree", "max_depth": 5, "bins": 32},
        "n_reps": 20, "users_per_rep": 1, "n_items": 200, "n_meta_features": 200,
    },
    "smoke": {
        "sim": {"n_profiles": 3, "features_per_profile": 4, "n_users": 150,
                "ratings_per_user": 30,
                "feature_pool": {"kind": "top_k_entropy", "value": 12}},
        "als": {"rank": 3, "lambda": 0.1, "max_iterations": 10},
        "shadow": {"kind": "tree", "max_depth": 4, "bins": 32},
        "n_reps": 10, "users_per_rep": 1, "n_items": 80, "n_meta_features": 60,
    },
}


@dataclass(frozen=True)
class CliShape:
    rank: int
    iters: int
    item_queries: int


@dataclass(frozen=True)
class TreeShape:
    rank: int
    iters: int
    depth: int
    item_queries: int
    set_queries: int
    setups: int


CLI_SHAPE = {"full": CliShape(rank=20, iters=10, item_queries=4),
             "smoke": CliShape(rank=4, iters=3, item_queries=2)}
# At least 100 item queries, so that p90 has ten samples beyond it.
TREE_SHAPE = {"full": TreeShape(rank=12, iters=3, depth=3, item_queries=100,
                                set_queries=8, setups=4),
              "smoke": TreeShape(rank=4, iters=2, depth=3, item_queries=12,
                                 set_queries=2, setups=2)}
# Every tenth item query, and this many set queries, are checked against
# the oracle; set queries on a sample of features (top ones plus random).
ITEM_CHECK_EVERY = 10
SET_CHECKS = 2
SET_CHECK_FEATURES = 4


@dataclass
class Context:
    src: Path
    work: Path
    seed: int
    seconds: float
    traced: bool
    size: str = "full"
    plant: str = "none"  # "influence" or "exit": a planted fault, for the self-test


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    detail: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0
    data: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    cli_runs: list[dict] = field(default_factory=list)
    traced_wall_s: float = 0.0

    def record(self, name: str, problems: list[str]) -> bool:
        """Count one attempted operation; it fails if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed_ops += 1
            self.failures.extend(f"{name}: {p}" for p in problems)
        return not problems


def _median(values) -> float:
    return float(statistics.median(values))


def _p90(values) -> float:
    return float(statistics.quantiles(values, n=10)[-1])


def _repeat(ctx: Context, one_pass) -> None:
    """Run passes until ``ctx.seconds`` have elapsed; one pass when traced."""
    start = time.perf_counter()
    while True:
        one_pass()
        if ctx.traced or time.perf_counter() - start >= ctx.seconds:
            return


# ------------------------------------------------------------ processes


@dataclass
class CliRun:
    command: str
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float
    import_s: float = 0.0
    root_s: float = 0.0
    spans: list[dict] = field(default_factory=list)


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], ctx: Context, label: str) -> tuple[int, str, str, float]:
    """Run one child process to completion; returns (exit code, stdout,
    stderr, wall seconds).  A child that outlives the timeout is killed."""
    out_path = ctx.work / f"{label}.out"
    err_path = ctx.work / f"{label}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ctx.work,
                                env=_child_env(ctx.src))
        # A blocking wait, so that the wall time is not rounded up to a poll.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    return (proc.returncode, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"), wall)


def run_cli(args: list[str], ctx: Context, label: str) -> CliRun:
    """One ``reclens`` command in a fresh interpreter, traced if asked.  Its
    peak RSS is the one the child reports for itself (see cli_child.py);
    0 if it wrote no report."""
    report = ctx.work / f"{label}.report.jsonl"
    argv = [sys.executable, str(BENCH / "cli_child.py"), str(report),
            str(int(ctx.traced)), "--", *args]
    code, out, err, wall = run_child(argv, ctx, label)
    run = CliRun(args[0], code, out, err, wall, 0.0)
    if report.exists():
        lines = [json.loads(x) for x in report.read_text(encoding="utf-8").splitlines()]
        meta = lines[0].get("meta", {}) if lines else {}
        run.rss_mb = float(meta.get("hwm_mb", 0.0))
        run.import_s = float(meta.get("import_s", 0.0))
        run.spans = [x for x in lines if "meta" not in x]
        run.root_s = sum(s["end"] - s["start"] for s in run.spans if s["parent"] is None)
    return run


def import_times(ctx: Context, count: int, label: str) -> list[float]:
    """Seconds of ``import reclens.cli`` in each of ``count`` fresh
    interpreters."""
    code = ("import time; t = time.perf_counter(); import reclens.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for k in range(count):
        rc, out, err, _ = run_child([sys.executable, "-c", code], ctx, f"{label}{k}")
        if rc != 0:
            raise RuntimeError(f"import reclens.cli failed: {err.strip()[-400:]}")
        times.append(float(out.strip()))
    return times


def _repeat_between_import_probes(ctx: Context, outcome: Outcome, one_pass) -> None:
    """Run the passes between two sets of import probes.  ``setup_s`` is the
    median of both sets, so that it covers the same stretch of time as the
    passes; the first probe only fills the bytecode cache."""
    if ctx.traced:
        _repeat(ctx, one_pass)
        return
    before = import_times(ctx, IMPORT_PROBES + 1, "import-before")
    _repeat(ctx, one_pass)
    after = import_times(ctx, IMPORT_PROBES, "import-after")
    outcome.metrics["setup_s"] = _median(before[1:] + after)


def _collect_spans(outcome: Outcome, run: CliRun) -> None:
    """Append a child's spans with ids made unique across children."""
    offset = len(outcome.spans)
    for s in run.spans:
        s = dict(s, id=s["id"] + offset)
        if s["parent"] is not None:
            s["parent"] += offset
        outcome.spans.append(s)
    outcome.cli_runs.append({"command": run.command, "wall_s": run.wall_s,
                             "rss_mb": run.rss_mb, "import_s": run.import_s,
                             "root_s": run.root_s})
    outcome.traced_wall_s += run.wall_s


def _cli_problems(run: CliRun) -> list[str]:
    if run.code != 0:
        return [f"exit code {run.code}: {run.stderr.strip()[-300:]}"]
    return []


def _parse_json(run: CliRun, problems: list[str]):
    try:
        return json.loads(run.stdout)
    except json.JSONDecodeError:
        problems.append("stdout is not one JSON document")
        return None


# ----------------------------------------------------------- synth-desk


def synth_desk(ctx: Context) -> Outcome:
    """``reclens synth`` on the acceptance-criterion-4 configuration."""
    outcome = Outcome()
    config = dict(SYNTH_CONFIG[ctx.size], seed=ctx.seed)
    n_per_condition = config["n_reps"] * config["users_per_rep"]
    outcome.data.update({k: config[k] for k in ("n_reps", "n_items", "n_meta_features")})
    outcome.data["rank"] = config["als"]["rank"]
    outcome.data["max_depth"] = config["shadow"]["max_depth"]
    config_path = ctx.work / "synth.json"
    config_path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    walls, rss = [], [0.0]

    def one_pass():
        k = len(walls)
        out_path = ctx.work / f"synth-out{k}.json"
        cfg = str(config_path)
        if ctx.plant == "exit" and k == 0:
            cfg = str(ctx.work / "missing.json")
        run = run_cli(["synth", "--config", cfg, "--threads", "1", "--out", str(out_path)],
                      ctx, f"synth{k}")
        walls.append(run.wall_s)
        rss.append(run.rss_mb)
        problems = _cli_problems(run)
        if not problems:
            doc = json.loads(out_path.read_text(encoding="utf-8"))
            if ctx.plant == "influence":
                doc["samples"][0]["score"] = 1.5
            problems = checks.check_synth(doc, n_per_condition)
        outcome.record("synth", problems)
        if ctx.traced:
            _collect_spans(outcome, run)

    _repeat_between_import_probes(ctx, outcome, one_pass)
    outcome.metrics["wall_s"] = _median(walls)
    outcome.metrics["peak_rss_mb"] = max(rss)
    outcome.detail["synth_s"] = (_median(walls), "s", len(walls))
    return outcome


# ----------------------------------------------------------- ml100k-cli


def _write_data(ctx: Context, outcome: Outcome) -> tuple[Path, Path]:
    """Generate the input files in a child process, so that the generator's
    memory does not count in this process's peak RSS."""
    data_dir = ctx.work / "data"
    code, out, err, _ = run_child(
        [sys.executable, str(BENCH / "gen_ml100k.py"), "--seed", str(ctx.seed),
         "--out", str(data_dir), "--size", ctx.size], ctx, "gen")
    if code != 0:
        raise RuntimeError(f"data generator failed: {err.strip()[-400:]}")
    outcome.data.update(json.loads(out))
    return data_dir / "ratings.csv", data_dir / "movies.jsonl"


def ml100k_cli(ctx: Context) -> Outcome:
    """train -> shadow --kind linear -> explain --item (a few) -> explain
    --user-aggregate, each as its own CLI process on generated files."""
    from reclens import shadow as shadow_mod

    outcome = Outcome()
    shape = CLI_SHAPE[ctx.size]
    ratings, movies = _write_data(ctx, outcome)
    item_features = checks.read_item_features(movies)
    rss = [0.0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(ctx.seed, 2)))
    passes: list[dict] = []
    model, shadow_path = ctx.work / "model.json", ctx.work / "shadow.json"
    # Every influence is listed, so the whole ranking can be checked.
    top_k = "1000000"

    def cli(args, label, times, key):
        run = run_cli(args, ctx, f"{label}{len(passes)}")
        times.setdefault(key, []).append(run.wall_s)
        rss.append(run.rss_mb)
        if ctx.traced:
            _collect_spans(outcome, run)
        return run

    def one_pass():
        t: dict[str, list[float]] = {}
        seed = str(ctx.seed)
        run = cli(["train", "--ratings", str(ratings), "--rank", str(shape.rank),
                   "--iters", str(shape.iters), "--seed", seed, "--out", str(model)],
                  "train", t, "train")
        problems = _cli_problems(run)
        doc = _parse_json(run, problems) if not problems else None
        if doc is not None:
            problems += checks.check_finite(doc, ["final_training_rmse"])
        if not outcome.record("train", problems):
            outcome.record("shadow", ["not run: train failed"])
            return
        run = cli(["shadow", "--model", str(model), "--metadata", str(movies),
                   "--kind", "linear", "--seed", seed, "--out", str(shadow_path)],
                  "shadow", t, "shadow")
        problems = _cli_problems(run)
        doc = _parse_json(run, problems) if not problems else None
        if doc is not None:
            problems += checks.check_finite(
                doc, ["mean_latent_mae", "observational_mae", "observational_mse",
                      "faithfulness"])
        if not outcome.record("shadow", problems):
            return
        shadow = shadow_mod.load_shadow(shadow_path)
        oracle = checks.Oracle(shadow, item_features)
        users = rng.choice(len(shadow.user_ids), size=shape.item_queries + 1, replace=False)
        items = rng.choice(np.asarray(shadow.eval_items), size=shape.item_queries, replace=False)
        for q, (user, item) in enumerate(zip(users, items)):
            uid = shadow.user_ids[int(user)]
            if ctx.plant == "exit" and q == 0:
                uid = "no-such-user"
            run = cli(["explain", "--shadow", str(shadow_path), "--metadata", str(movies),
                       "--user", uid, "--item", shadow.item_ids[int(item)],
                       "--top-k", top_k], "explain-item", t, "explain_item")
            problems = _cli_problems(run)
            doc = _parse_json(run, problems) if not problems else None
            if doc is not None:
                influences = [tuple(x) for x in doc["influences"]]
                if ctx.plant == "influence" and q == 0:
                    influences[0] = (influences[0][0], influences[0][1] + 1e-6)
                problems += checks.check_influences(
                    oracle, int(user), [int(item)], influences, doc["shadow_rating"])
            outcome.record("explain-item", problems)
        user = int(users[-1])
        run = cli(["explain", "--shadow", str(shadow_path), "--metadata", str(movies),
                   "--user", shadow.user_ids[user], "--user-aggregate", "--top-k", top_k],
                  "explain-user", t, "explain_user")
        problems = _cli_problems(run)
        doc = _parse_json(run, problems) if not problems else None
        if doc is not None:
            influences = [tuple(x) for x in doc["influences"]]
            problems += checks.check_influences(
                oracle, user, oracle.universe, influences, doc["shadow_rating"],
                names_to_check=checks.sampled_names(influences, rng, 2))
        outcome.record("explain-user", problems)
        passes.append(t)

    _repeat_between_import_probes(ctx, outcome, one_pass)
    outcome.metrics["peak_rss_mb"] = max(rss)
    if not passes:
        return outcome

    def first(key):
        return [p[key][0] for p in passes]

    outcome.metrics["wall_s"] = _median([sum(sum(v) for v in p.values()) for p in passes])
    item_walls = [w for p in passes for w in p["explain_item"]]
    outcome.detail.update({
        "train_s": (_median(first("train")), "s", len(passes)),
        "shadow_s": (_median(first("shadow")), "s", len(passes)),
        "explain_cli_item_s": (_median(item_walls), "s", len(item_walls)),
        "explain_cli_user_s": (_median(first("explain_user")), "s", len(passes)),
        "pipeline_s": (_median([p["train"][0] + p["shadow"][0] + p["explain_item"][0]
                                for p in passes]), "s", len(passes)),
    })
    return outcome


# --------------------------------------------------------- explain-tree


def explain_tree(ctx: Context) -> Outcome:
    """In-process library use: build a depth-3 tree shadow, then serve a
    seeded closed loop of single-item and user item-set queries.  The
    set-up is repeated, and timed, between queries of the first pass."""
    import reclens.factorize
    import reclens.influence
    import reclens.ingest
    import reclens.regressors
    import reclens.shadow

    outcome = Outcome()
    shape = TREE_SHAPE[ctx.size]
    ratings_path, movies = _write_data(ctx, outcome)
    item_features = checks.read_item_features(movies)
    # What this process holds before the program does any work: the
    # interpreter, numpy, the reclens imports and the harness's own state.
    outcome.detail["harness_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    tracer = Tracer() if ctx.traced else None
    if tracer is not None:
        tracer.install()
    # Library calls go through the module attributes, so installed spans see them.
    ingest, factorize = reclens.ingest, reclens.factorize
    shadow_mod, influence = reclens.shadow, reclens.influence
    traced_start = time.perf_counter()

    def set_up():
        path = ctx.work / "shadow.json"
        t0 = time.perf_counter()
        ratings = ingest.load_ratings(ratings_path)
        records = ingest.load_metadata(movies)
        index = {iid: i for i, iid in enumerate(ratings.item_ids)}
        meta = ingest.encode_one_hot(records, item_index=index, n_items=ratings.n_items)
        meta = ingest.filter_features(meta, ingest.FeatureFilterSpec.entropy_threshold(0.01))
        meta, mask = ingest.prune_items(meta, min_features=1)
        model = factorize.train_als(ratings, factorize.AlsConfig(
            rank=shape.rank, lam=0.1, max_iterations=shape.iters, seed=ctx.seed))
        fitted = shadow_mod.train_shadow(
            model, meta, shadow_mod.TreeKind(reclens.regressors.TreeParams(max_depth=shape.depth)),
            split=(0.8, ctx.seed), item_indices=np.flatnonzero(mask))
        shadow_mod.save_shadow(fitted, path)
        loaded = shadow_mod.load_shadow(path)
        return time.perf_counter() - t0, ratings, meta, loaded, path.read_bytes()

    setup_s, ratings, meta, shadow, saved = set_up()
    setup_times = [setup_s]

    def repeat_set_up():
        """Time one more set-up; it must save the same shadow file."""
        dt, *_, again = set_up()
        setup_times.append(dt)
        outcome.record("set-up", [] if again == saved else
                       ["repeated set-ups saved different shadow files"])

    oracle = checks.Oracle(shadow, item_features)
    names = list(meta.feature_names)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(ctx.seed, 3)))
    universe = np.asarray(oracle.universe)
    item_q = list(zip(rng.integers(0, shadow.n_users, size=shape.item_queries).tolist(),
                      rng.choice(universe, size=shape.item_queries).tolist()))
    rated: dict[int, list[int]] = {}
    in_universe = set(oracle.universe)
    for u, i in zip(ratings.users.tolist(), ratings.items.tolist()):
        if i in in_universe:
            rated.setdefault(u, []).append(i)
    del ratings  # later set-ups should not count this one's copy in the peak RSS
    set_users = rng.choice(sorted(rated), size=shape.set_queries, replace=False).tolist()
    set_q = [(u, sorted(rated[u])) for u in set_users]
    # The other set-ups are spread over the first pass, so that their
    # median covers the same stretch of time as the queries.
    setups_before = {len(item_q) * k // shape.setups
                     for k in range(1, 1 if ctx.traced else shape.setups)}

    item_lat, set_lat, pass_walls = [], [], []

    def query(user, scope):
        t0 = time.perf_counter()
        report = influence.explain(shadow, meta, influence.InfluenceQuery(user=user, scope=scope),
                                   top_k=len(names))
        return time.perf_counter() - t0, report

    def one_pass():
        first = not pass_walls
        busy = 0.0
        for q, (user, item) in enumerate(item_q):
            if first and q in setups_before:
                repeat_set_up()
            if ctx.plant == "exit" and first and q == 0:
                user = shadow.n_users
            try:
                dt, report = query(user, influence.SingleItem(item))
            except (IndexError, ValueError) as exc:
                outcome.record("explain-item", [f"raised {exc!r}"])
                continue
            item_lat.append(dt)
            busy += dt
            influences = list(report.influences)
            if ctx.plant == "influence" and first and q == 0:
                influences[0] = (influences[0][0], influences[0][1] + 1e-6)
            if first and q % ITEM_CHECK_EVERY == 0:
                problems = checks.check_influences(oracle, user, [item], influences,
                                                   report.shadow_rating)
            else:
                problems = checks.check_ranking(influences, names)
            outcome.record("explain-item", problems)
        for q, (user, items) in enumerate(set_q):
            dt, report = query(user, influence.ItemSet(tuple(items)))
            set_lat.append(dt)
            busy += dt
            influences = list(report.influences)
            if first and q < SET_CHECKS:
                problems = checks.check_influences(
                    oracle, user, items, influences, report.shadow_rating,
                    names_to_check=checks.sampled_names(influences, rng, SET_CHECK_FEATURES))
            else:
                problems = checks.check_ranking(influences, names)
            outcome.record("explain-set", problems)
        pass_walls.append(busy)

    _repeat(ctx, one_pass)
    if tracer is not None:
        outcome.spans = tracer.spans
        outcome.traced_wall_s = time.perf_counter() - traced_start
    outcome.metrics["setup_s"] = _median(setup_times)
    outcome.metrics["wall_s"] = _median(pass_walls)
    outcome.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.detail.update({
        "explain_item_p50_ms": (1e3 * _median(item_lat), "ms", len(item_lat)),
        "explain_item_p90_ms": (1e3 * _p90(item_lat), "ms", len(item_lat)),
        "explain_set_p50_ms": (1e3 * _median(set_lat), "ms", len(set_lat)),
    })
    outcome.data["features"] = len(names)
    return outcome


WORKLOADS = {"synth-desk": synth_desk, "ml100k-cli": ml100k_cli, "explain-tree": explain_tree}
