"""Simulated users with known preferences, explanation scoring, and the
hypothesis tests that validate the whole pipeline end to end.

Each simulated user likes or dislikes a small set of metadata features;
their ratings follow a simple additive rule.  After training the
recommender and its shadow, the aggregate influence report for a user is
scored against the user's true feature set and against semi-random and
fully random control sets.  If the pipeline works, true beats semi-random
beats random.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .datamodel import FactorModel, MetadataMatrix, RatingsMatrix
from .errors import (
    ReclensError,
    StatsError,
    ValidationError,
    check_seed,
    check_types,
    is_finite_real,
)
from .factorize import AlsConfig, train_als
from .influence import InfluenceQuery, InfluenceReport, ItemSet, explain
from .ingest import FeatureFilterSpec, filter_features
from .regressors import TreeParams
from .shadow import ShadowKind, TreeKind, train_shadow


@dataclass(frozen=True)
class PreferenceProfile:
    """Ground-truth liked and disliked feature index sets for one synthetic
    personality."""

    liked: frozenset[int]
    disliked: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "liked", frozenset(int(f) for f in self.liked))
        object.__setattr__(self, "disliked", frozenset(int(f) for f in self.disliked))
        if self.liked & self.disliked:
            raise ValidationError("a feature cannot be both liked and disliked")
        if not (self.liked | self.disliked):
            raise ValidationError("profile must reference at least one feature")

    @property
    def features(self) -> frozenset[int]:
        return self.liked | self.disliked


@dataclass(frozen=True)
class SimConfig:
    n_profiles: int
    features_per_profile: int
    n_users: int
    ratings_per_user: int
    base_rating: float = 3.0
    delta: float = 1.0
    scale_bounds: tuple[float, float] = (1.0, 5.0)
    feature_pool: FeatureFilterSpec = field(
        default_factory=lambda: FeatureFilterSpec.top_k_entropy(15)
    )
    seed: int = 0

    def __post_init__(self):
        counts = ("n_profiles", "features_per_profile", "n_users",
                  "ratings_per_user")
        check_types(self, integers=(*counts, "seed"),
                    reals=("base_rating", "delta"))
        for name in counts:
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.n_users <= self.n_profiles:
            raise ValidationError("n_users must exceed n_profiles")
        check_seed(self.seed)
        lo, hi = self.scale_bounds
        if not (is_finite_real(lo) and is_finite_real(hi)):
            raise ValidationError(
                f"mistyped value for scale_bounds: {self.scale_bounds!r} "
                "is not two finite numbers"
            )
        if not lo < hi:
            raise ValidationError("scale_bounds must satisfy low < high")


@dataclass(frozen=True)
class ScoreSample:
    condition: str
    user: int
    score: float
    rep: int = 0

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"score {self.score} outside [0, 1]")


def generate_profiles(
    pool: Sequence[int], cfg: SimConfig, rng: np.random.Generator | None = None
) -> list[PreferenceProfile]:
    """Each profile picks ``features_per_profile`` distinct pool features
    (seeded) and signs each one liked/disliked with probability 1/2."""
    pool = [int(f) for f in pool]
    if len(pool) < cfg.features_per_profile:
        raise ValidationError(
            f"pool of {len(pool)} features cannot support "
            f"{cfg.features_per_profile} features per profile"
        )
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    profiles = []
    for _ in range(cfg.n_profiles):
        chosen = rng.choice(len(pool), size=cfg.features_per_profile, replace=False)
        signs = rng.random(cfg.features_per_profile) < 0.5
        liked = frozenset(pool[i] for i, s in zip(chosen, signs) if s)
        disliked = frozenset(pool[i] for i, s in zip(chosen, signs) if not s)
        profiles.append(PreferenceProfile(liked=liked, disliked=disliked))
    return profiles


def profile_rating(
    profile: PreferenceProfile, item_features: frozenset[int], cfg: SimConfig
) -> float:
    """The generative rule: base + delta per liked match - delta per
    disliked match, clamped to the scale bounds."""
    raw = (
        cfg.base_rating
        + cfg.delta * len(profile.liked & item_features)
        - cfg.delta * len(profile.disliked & item_features)
    )
    lo, hi = cfg.scale_bounds
    return min(max(raw, lo), hi)


def simulate_ratings(
    profiles: Sequence[PreferenceProfile],
    meta: MetadataMatrix,
    cfg: SimConfig,
    rng: np.random.Generator | None = None,
) -> tuple[RatingsMatrix, dict[int, int]]:
    """Assign profiles to users (round-robin first so every profile is
    used, uniform after) and rate a uniform sample of distinct items per
    user.

    The ratings come back grouped by user, each user's items in ascending
    order.  They follow :func:`profile_rating`, evaluated once per
    (profile, item) pair from the boolean array ``meta.X``; every profile
    feature must index a column of ``meta``.
    """
    if meta.n_items < 1:
        raise ValidationError("metadata must contain at least one item")
    if cfg.ratings_per_user > meta.n_items:
        raise ValidationError(
            f"ratings_per_user {cfg.ratings_per_user} exceeds the "
            f"{meta.n_items}-item universe"
        )
    if not profiles:
        raise ValidationError("at least one profile is required")
    for profile in profiles:
        outside = sorted(f for f in profile.features
                         if not 0 <= f < meta.n_features)
        if outside:
            raise ValidationError(
                f"profile features {outside} lie outside the "
                f"{meta.n_features}-feature metadata"
            )
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n_profiles = len(profiles)
    profile_of_user = np.empty(cfg.n_users, dtype=np.int64)
    rated = np.empty((cfg.n_users, cfg.ratings_per_user), dtype=np.int64)
    for user in range(cfg.n_users):
        if user < n_profiles:
            p_idx = user
        else:
            p_idx = int(rng.integers(0, n_profiles))
        profile_of_user[user] = p_idx
        rated[user] = rng.choice(meta.n_items, size=cfg.ratings_per_user,
                                 replace=False)
    rated.sort(axis=1)
    liked = np.zeros((n_profiles, meta.n_features))
    disliked = np.zeros((n_profiles, meta.n_features))
    for k, profile in enumerate(profiles):
        liked[k, sorted(profile.liked)] = 1.0
        disliked[k, sorted(profile.disliked)] = 1.0
    # match counts are small integers, exact in float64, so this is
    # profile_rating's arithmetic in its order, one (profile, item) cell
    # at a time
    held = meta.X.T
    lo, hi = cfg.scale_bounds
    table = np.minimum(
        np.maximum(
            cfg.base_rating + cfg.delta * (liked @ held)
            - cfg.delta * (disliked @ held),
            lo,
        ),
        hi,
    )
    matrix = RatingsMatrix(
        n_users=cfg.n_users,
        n_items=meta.n_items,
        users=np.repeat(np.arange(cfg.n_users), cfg.ratings_per_user),
        items=rated.ravel(),
        ratings=table[profile_of_user[:, None], rated].ravel(),
        scale=cfg.scale_bounds,
    )
    assignment = dict(enumerate(profile_of_user.tolist()))
    return matrix, assignment


def correctness_score(
    report: InfluenceReport,
    true_features: Iterable[str],
    by_magnitude: bool = True,
) -> float:
    """Mean influence of the true features over the mean of the top-n
    influences (n = number of true features).

    1.0 means the true features are exactly the most influential ones; 0
    means they carry no influence.  ``by_magnitude`` ranks (and values)
    features by |influence|; pass False to rank by signed influence.
    The report must be untruncated (it must cover every feature).
    """
    true_names = sorted(set(true_features))
    if not true_names:
        raise ValidationError("true feature set must be non-empty")
    values = {name: value for name, value in report.influences}
    if len(values) != len(report.influences):
        raise ValidationError("report lists a feature more than once")
    missing = [n for n in true_names if n not in values]
    if missing:
        raise ValidationError(f"true features {missing} absent from the report")
    vals = np.fromiter(values.values(), dtype=np.float64, count=len(values))
    if by_magnitude:
        vals = np.abs(vals)
        chosen = np.array([abs(values[n]) for n in true_names])
    else:
        chosen = np.array([values[n] for n in true_names])
    n = len(true_names)
    top = np.sort(vals)[::-1][:n]
    num = float(np.sort(chosen)[::-1].mean())
    denom = float(top.mean())
    if denom <= 0.0:
        return 0.0
    return max(0.0, min(1.0, num / denom))


def control_profiles(
    profile: PreferenceProfile,
    pool: Sequence[int],
    mode: str = "random",
    keep_fraction: float = 0.5,
    rng: np.random.Generator | None = None,
    seed: int = 0,
) -> PreferenceProfile:
    """Resampled control personalities.

    ``random`` redraws every feature and sign from the pool;
    ``semi_random`` keeps a seeded floor(keep_fraction * n) of the original
    features (at least one) with their signs and replaces the rest with
    features from outside the original profile, so exactly that many
    originals survive.
    """
    if mode not in ("random", "semi_random"):
        raise ValidationError(f"unknown control mode {mode!r}")
    if rng is None:
        rng = np.random.default_rng(seed)
    pool = [int(f) for f in pool]
    original = sorted(profile.features)
    n = len(original)
    if mode == "semi_random":
        n_keep = max(1, math.floor(keep_fraction * n)) if n else 0
        if keep_fraction >= 1.0:
            return profile
        kept_idx = rng.choice(n, size=n_keep, replace=False)
        kept = [original[i] for i in sorted(kept_idx)]
        candidates = [f for f in pool if f not in profile.features]
    else:
        kept = []
        candidates = pool
    n_new = n - len(kept)
    if len(candidates) < n_new:
        raise ValidationError("pool too small to resample the profile")
    drawn_idx = rng.choice(len(candidates), size=n_new, replace=False)
    drawn = [candidates[i] for i in sorted(drawn_idx)]
    signs = rng.random(n_new) < 0.5
    liked = {f for f in kept if f in profile.liked}
    disliked = {f for f in kept if f in profile.disliked}
    for f, s in zip(drawn, signs):
        (liked if s else disliked).add(f)
    return PreferenceProfile(liked=frozenset(liked), disliked=frozenset(disliked))


def direct_encode_model(
    profiles: Sequence[PreferenceProfile],
    assignment: Mapping[int, int],
    meta: MetadataMatrix,
    pool: Sequence[int],
    base_rating: float = 3.0,
    delta: float = 1.0,
) -> FactorModel:
    """A factor model that encodes the generative rule by construction.

    One latent factor per pool feature (item side: the 0/1 indicator)
    plus a constant factor carrying the base rating, so predictions equal
    the unclamped simulation rule exactly.
    """
    pool = [int(f) for f in pool]
    rank = len(pool) + 1
    n_users = max(assignment) + 1
    item_factors = np.zeros((meta.n_items, rank))
    item_factors[:, :-1] = meta.X[:, pool]
    item_factors[:, -1] = 1.0
    user_factors = np.zeros((n_users, rank))
    slot = {f: t for t, f in enumerate(pool)}
    for user, p_idx in assignment.items():
        profile = profiles[p_idx]
        for f in profile.liked:
            if f in slot:
                user_factors[user, slot[f]] = delta
        for f in profile.disliked:
            if f in slot:
                user_factors[user, slot[f]] = -delta
        user_factors[user, -1] = base_rating
    return FactorModel(
        rank=rank, lam=0.0, user_factors=user_factors, item_factors=item_factors
    )


# Continued-fraction terms allowed before the Student-t tail gives up.  No
# df from 1 to 1e10 was seen to need more than 100.
_CF_MAX_TERMS = 1000
# Coefficients B_2k / (2k (2k - 1)) of Stirling's series for ln Gamma.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156)


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - [(z - 1/2) ln z - z + ln(2 pi) / 2], for z >= 10."""
    w = 1.0 / (z * z)
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * w + c
    return total / z


def _log_gamma_half_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a), to full absolute precision: for
    large a the two ``lgamma`` values agree in most of their digits, so the
    difference comes from Stirling's series instead."""
    if a < 10.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
            + _stirling_tail(a + 0.5) - _stirling_tail(a))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) (modified Lentz), which
    converges fast for x < (a + 1) / (a + b + 2); ``StatsError`` if it has
    not settled after ``_CF_MAX_TERMS`` terms."""
    tiny = 1e-300
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    c, h = 1.0, d
    for m in range(1, _CF_MAX_TERMS + 1):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 3e-16:
            return h
    raise StatsError(
        f"Student-t tail did not converge in {_CF_MAX_TERMS} terms "
        f"(a={a}, b={b}, x={x})"
    )


def student_t_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` > 0 degrees of freedom.

    This is I_x(df/2, 1/2), the regularized incomplete beta function at
    x = df / (df + t^2).  x and 1 - x = t^2 / (df + t^2) are formed
    separately from the ratio of |t| and sqrt(df), and their logarithms
    from ``log``/``log1p``, so a tiny |t| keeps its digits in 1 - x and a
    huge |t| does not overflow t^2.  The continued fraction still reads x
    itself, so near the centre the relative error grows as about
    df x 1e-16 (1.2e-10 at df = 1e6).
    """
    t = abs(float(t))
    if math.isnan(t) or not df > 0.0:
        raise StatsError(
            f"Student-t tail needs a number t and df > 0, got t={t}, df={df}"
        )
    if t == 0.0:
        return 1.0
    a, b = 0.5 * df, 0.5
    log_ratio = math.log(t) - 0.5 * math.log(df)  # ln(|t| / sqrt(df))
    if log_ratio <= 0.0:
        s = math.exp(2.0 * log_ratio)  # t^2 / df <= 1
        x, y = 1.0 / (1.0 + s), s / (1.0 + s)
        log_x = -math.log1p(s)
        log_y = 2.0 * log_ratio - math.log1p(s)
    else:
        r = math.exp(-2.0 * log_ratio)  # df / t^2 < 1
        x, y = r / (1.0 + r), 1.0 / (1.0 + r)
        log_x = -2.0 * log_ratio - math.log1p(r)
        log_y = -math.log1p(r)
    # x^a y^b / B(a, b), where ln B(a, 1/2) = ln Gamma(1/2) - ln Gamma(a + 1/2)
    # + ln Gamma(a)
    front = math.exp(a * log_x + b * log_y + _log_gamma_half_ratio(a)
                     - 0.5 * math.log(math.pi))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def welch_t(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Welch's unequal-variance t statistic and two-sided p-value, with
    Welch-Satterthwaite degrees of freedom."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise StatsError("welch_t needs at least 2 values per sample")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        raise StatsError("welch_t needs nonzero variance in at least one sample")
    sa = va / len(a)
    sb = vb / len(b)
    t = (a.mean() - b.mean()) / math.sqrt(sa + sb)
    # scale-invariant Welch-Satterthwaite form: immune to underflow of
    # (sa + sb)^2 when the variances are extremely small
    ra = sa / (sa + sb)
    rb = sb / (sa + sb)
    df = 1.0 / (ra**2 / (len(a) - 1) + rb**2 / (len(b) - 1))
    return float(t), student_t_two_sided(float(t), float(df))


def cohens_d(a: Sequence[float], b: Sequence[float]) -> float:
    """Standardized mean difference with the (n-1)-weighted pooled
    standard deviation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise StatsError("cohens_d needs at least 2 values per sample")
    pooled_var = (
        (len(a) - 1) * a.var(ddof=1) + (len(b) - 1) * b.var(ddof=1)
    ) / (len(a) + len(b) - 2)
    if pooled_var <= 0.0:
        raise StatsError("cohens_d is undefined for zero pooled deviation")
    return float((a.mean() - b.mean()) / math.sqrt(pooled_var))


def random_metadata(
    n_items: int,
    n_features: int,
    rng: np.random.Generator | int = 0,
    marginal_range: tuple[float, float] = (0.05, 0.95),
    prefix: str = "f",
) -> MetadataMatrix:
    """A synthetic item universe: independent binary columns whose
    marginals are drawn uniformly from ``marginal_range``.

    Column j takes one draw for its marginal p, then ``n_items`` uniform
    draws u, and holds the items where u < p; it is written straight into
    the boolean items x features array."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    lo, hi = marginal_range
    width = len(str(n_features - 1)) if n_features > 1 else 1
    X = np.empty((n_items, n_features), dtype=np.bool_)
    for j in range(n_features):
        p = lo + rng.random() * (hi - lo)
        np.less(rng.random(n_items), p, out=X[:, j])
    names = tuple(f"{prefix}{j:0{width}d}" for j in range(n_features))
    return MetadataMatrix(names, X)


CONDITIONS = ("true", "semi_random", "random")


@dataclass(frozen=True)
class ExperimentConfig:
    sim: SimConfig
    als: AlsConfig
    shadow_kind: ShadowKind = field(default_factory=lambda: TreeKind(TreeParams()))
    n_reps: int = 20
    users_per_rep: int = 1
    n_items: int = 200
    n_meta_features: int = 200
    keep_fraction: float = 0.5
    direct_encode: bool = False
    score_by_magnitude: bool = True
    threads: int = 1
    seed: int = 0

    def __post_init__(self):
        check_types(
            self,
            integers=("n_reps", "users_per_rep", "n_items", "n_meta_features",
                      "threads", "seed"),
            reals=("keep_fraction",),
            flags=("direct_encode", "score_by_magnitude"),
        )
        if self.n_reps < 1 or self.users_per_rep < 1:
            raise ValidationError("n_reps and users_per_rep must be >= 1")
        if self.n_items < 1 or self.n_meta_features < 1:
            raise ValidationError("n_items and n_meta_features must be >= 1")
        if self.threads < 1:
            raise ValidationError("threads must be >= 1")
        check_seed(self.seed)


@dataclass(frozen=True)
class HypothesisResult:
    samples: tuple[ScoreSample, ...]
    means: dict[str, float]
    tests: dict[str, dict[str, float]]

    def condition_scores(self, condition: str) -> list[float]:
        return [s.score for s in self.samples if s.condition == condition]

    def to_dict(self) -> dict:
        return {
            "samples": [
                {
                    "condition": s.condition,
                    "rep": s.rep,
                    "user": s.user,
                    "score": s.score,
                }
                for s in self.samples
            ],
            "means": self.means,
            "tests": self.tests,
        }


def _run_repetition(cfg: ExperimentConfig, rep: int, meta: MetadataMatrix | None):
    seeds = np.random.SeedSequence(entropy=(cfg.seed, rep)).spawn(6)
    rngs = [np.random.default_rng(s) for s in seeds]
    if meta is None:
        meta = random_metadata(cfg.n_items, cfg.n_meta_features, rng=rngs[0])
    pool_meta = filter_features(meta, cfg.sim.feature_pool)
    pool = [meta.feature_index(name) for name in pool_meta.feature_names]
    profiles = generate_profiles(pool, cfg.sim, rng=rngs[1])
    ratings, assignment = simulate_ratings(profiles, meta, cfg.sim, rng=rngs[2])
    if cfg.direct_encode:
        model = direct_encode_model(
            profiles, assignment, meta, pool,
            base_rating=cfg.sim.base_rating, delta=cfg.sim.delta,
        )
    else:
        als_seed = int(seeds[3].generate_state(1)[0])
        model = train_als(ratings, replace(cfg.als, seed=als_seed))
    split_seed = int(seeds[4].generate_state(1)[0])
    shadow = train_shadow(model, meta, cfg.shadow_kind, split=(1.0, split_seed))
    control_pool = list(range(meta.n_features))
    eval_rng = rngs[5]
    chosen_users = eval_rng.choice(
        cfg.sim.n_users, size=min(cfg.users_per_rep, cfg.sim.n_users), replace=False
    )
    # simulate_ratings groups the ratings by user in ascending item order,
    # so each user's rated items are one slice
    samples = []
    for user in sorted(int(u) for u in chosen_users):
        profile = profiles[assignment[user]]
        start, stop = np.searchsorted(ratings.users, [user, user + 1])
        query = InfluenceQuery(
            user=user, scope=ItemSet(tuple(ratings.items[start:stop].tolist()))
        )
        report = explain(shadow, meta, query, top_k=meta.n_features)
        semi = control_profiles(
            profile, control_pool, mode="semi_random",
            keep_fraction=cfg.keep_fraction, rng=eval_rng,
        )
        rand = control_profiles(profile, control_pool, mode="random", rng=eval_rng)
        for condition, feats in (
            ("true", profile.features),
            ("semi_random", semi.features),
            ("random", rand.features),
        ):
            names = [meta.feature_names[f] for f in feats]
            score = correctness_score(
                report, names, by_magnitude=cfg.score_by_magnitude
            )
            samples.append(
                ScoreSample(condition=condition, user=user, score=score, rep=rep)
            )
    return samples


def run_hypothesis_experiment(
    cfg: ExperimentConfig, meta: MetadataMatrix | None = None
) -> HypothesisResult:
    """Full pipeline per repetition: simulate, factorize, shadow, explain,
    score against true / semi-random / random feature sets, then Welch
    tests with effect sizes on the condition pairs.

    Repetitions run independently (optionally in a thread pool) and are
    folded in repetition order, so results are reproducible for a fixed
    seed regardless of the thread count.
    """
    def one(rep: int):
        try:
            return _run_repetition(cfg, rep, meta)
        except ReclensError as exc:
            raise ReclensError(f"repetition {rep}: {exc}") from exc

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            per_rep = list(pool.map(one, range(cfg.n_reps)))
    else:
        per_rep = [one(rep) for rep in range(cfg.n_reps)]
    samples = tuple(s for rep_samples in per_rep for s in rep_samples)
    scores = {
        c: [s.score for s in samples if s.condition == c] for c in CONDITIONS
    }
    means = {c: float(np.mean(scores[c])) for c in CONDITIONS}
    tests = {}
    for hi, lo in (
        ("true", "semi_random"),
        ("semi_random", "random"),
        ("true", "random"),
    ):
        key = f"{hi}_vs_{lo}"
        try:
            t, p = welch_t(scores[hi], scores[lo])
            d = cohens_d(scores[hi], scores[lo])
            tests[key] = {"t": t, "p": p, "effect_size": d}
        except StatsError as exc:
            tests[key] = {"error": str(exc)}
    return HypothesisResult(samples=samples, means=means, tests=tests)
