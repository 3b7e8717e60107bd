"""Seeded generator for ratings and item metadata shaped like MovieLens-100k.

Nothing is downloaded: the same seed and size always give byte-identical
files (for a fixed numpy version).  The shape follows the published data
set: 943 users, 1682 items, 100 000 integer ratings from 1 to 5, at least
20 ratings per user, heavy-tailed user and item activity, 19 multi-label
genres and one release decade per item.  A Zipf-distributed tag
vocabulary adds the long tail of sparse features; its counts are fixed by
the size, so the number of features that survive the 0.01-bit entropy
filter does not depend on the seed.

    python3 perfbench/gen_ml100k.py --seed 1 --out DIR [--size smoke]
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# MovieLens-100k genre supports over its 1682 items.
GENRES = {
    "unknown": 2, "Action": 251, "Adventure": 135, "Animation": 42,
    "Children's": 122, "Comedy": 505, "Crime": 109, "Documentary": 50,
    "Drama": 725, "Fantasy": 22, "Film-Noir": 24, "Horror": 92,
    "Musical": 56, "Mystery": 61, "Romance": 247, "Sci-Fi": 101,
    "Thriller": 251, "War": 71, "Western": 27,
}
# Decade supports; the 1990s take every item not listed here.
DECADES = {"1920s": 3, "1930s": 30, "1940s": 40, "1950s": 50, "1960s": 50,
           "1970s": 70, "1980s": 150}
BASE_ITEMS = 1682
# The CLI's default --entropy-threshold, in bits.
ENTROPY_THRESHOLD = 0.01


@dataclass(frozen=True)
class Size:
    n_users: int
    n_items: int
    n_ratings: int
    min_per_user: int
    max_per_user: int
    n_tags: int
    tag_top: float  # support of the most common tag
    tag_exponent: float


SIZES = {
    "full": Size(943, 1682, 100_000, 20, 737, 500, 190.0, 0.8),
    "smoke": Size(60, 120, 2_400, 20, 80, 60, 20.0, 0.8),
}


def tag_supports(size: Size) -> np.ndarray:
    """Zipf supports, at least 1: rank r holds floor(top / r**s) items."""
    ranks = np.arange(1, size.n_tags + 1, dtype=np.float64)
    return np.maximum(1, np.floor(size.tag_top / ranks**size.tag_exponent)).astype(int)


def _entropy_bits(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def _user_counts(size: Size, rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed ratings per user in [min, max], summing to n_ratings."""
    weights = rng.lognormal(mean=0.0, sigma=1.0, size=size.n_users)
    room = size.max_per_user - size.min_per_user
    extra = size.n_ratings - size.min_per_user * size.n_users
    share = extra * weights / weights.sum()
    add = np.minimum(np.floor(share).astype(int), room)
    remainder = share - np.floor(share)
    while add.sum() < extra:
        open_users = np.flatnonzero(add < room)
        best = open_users[np.argsort(-remainder[open_users], kind="stable")]
        for u in best[: extra - add.sum()]:
            add[u] += 1
        remainder[:] = 0.0
    return size.min_per_user + add


def _rated_items(size: Size, counts: np.ndarray, rng: np.random.Generator):
    """Weighted sampling without replacement (Gumbel top-k), item
    popularity Zipf-like; then every unrated item takes a slot from the
    busiest item of a heavy user, so each item has at least one rating."""
    popularity = 1.0 / (rng.permutation(size.n_items) + 50.0)
    keys = np.log(popularity)[None, :] + rng.gumbel(size=(size.n_users, size.n_items))
    chosen = [set(np.argsort(-keys[u], kind="stable")[: counts[u]].tolist())
              for u in range(size.n_users)]
    item_count = np.zeros(size.n_items, dtype=int)
    for items in chosen:
        item_count[list(items)] += 1
    heavy = np.argsort(-counts, kind="stable")
    for t, item in enumerate(np.flatnonzero(item_count == 0)):
        u = int(heavy[t % len(heavy)])
        donor = max(chosen[u], key=lambda i: (item_count[i], i))
        chosen[u].remove(donor)
        chosen[u].add(int(item))
        item_count[donor] -= 1
        item_count[item] += 1
    return [sorted(items) for items in chosen]


def _assign_exact(supports: dict[str, int], n_items: int, rng) -> np.ndarray:
    """Boolean items x labels matrix whose column sums are the supports."""
    out = np.zeros((n_items, len(supports)), dtype=bool)
    for j, count in enumerate(supports.values()):
        out[rng.choice(n_items, size=count, replace=False), j] = True
    return out


def generate(size: Size, seed: int):
    """Returns (ratings rows, metadata records, stats)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 100_000)))
    scale = size.n_items / BASE_ITEMS
    genre_support = {g: max(2, round(c * scale)) for g, c in GENRES.items()}
    genres = _assign_exact(genre_support, size.n_items, rng)
    names = list(GENRES)
    bare = np.flatnonzero(~genres.any(axis=1))
    weights = np.array(list(genre_support.values()), dtype=np.float64)
    genres[bare, rng.choice(len(names), size=len(bare), p=weights / weights.sum())] = True

    decade_support = {d: max(2, round(c * scale)) for d, c in DECADES.items()}
    order = rng.permutation(size.n_items)
    decade = np.full(size.n_items, "1990s", dtype=object)
    start = 0
    for name, count in decade_support.items():
        decade[order[start:start + count]] = name
        start += count

    supports = tag_supports(size)
    tags = [[] for _ in range(size.n_items)]
    for t, count in enumerate(supports):
        for i in rng.choice(size.n_items, size=int(count), replace=False):
            tags[i].append(f"t{t:03d}")

    counts = _user_counts(size, rng)
    rated = _rated_items(size, counts, rng)

    # Ratings: user/item bias plus a user's taste for genres and the 30
    # commonest tags, so the metadata carries real signal for the shadow.
    n_taste_tags = min(30, size.n_tags)
    item_x = np.hstack([
        genres.astype(np.float64),
        np.array([[f"t{t:03d}" in set(tags[i]) for t in range(n_taste_tags)]
                  for i in range(size.n_items)], dtype=np.float64),
    ])
    item_x /= np.sqrt(np.maximum(item_x.sum(axis=1, keepdims=True), 1.0))
    taste = rng.normal(0.0, 0.7, size=(size.n_users, item_x.shape[1]))
    user_bias = rng.normal(0.0, 0.35, size=size.n_users)
    item_bias = rng.normal(0.0, 0.45, size=size.n_items)
    rows = []
    for u in range(size.n_users):
        items = np.array(rated[u])
        score = (3.53 + user_bias[u] + item_bias[items] + item_x[items] @ taste[u]
                 + rng.normal(0.0, 0.6, size=len(items)))
        stars = np.clip(np.rint(score), 1, 5).astype(int)
        stamps = 874_724_710 + rng.integers(0, 18_000_000, size=len(items))
        rows.extend(zip([u + 1] * len(items), (items + 1).tolist(),
                        stars.tolist(), stamps.tolist()))
    rows = [rows[i] for i in rng.permutation(len(rows))]

    records = []
    for i in range(size.n_items):
        attrs = {"genre": [names[j] for j in np.flatnonzero(genres[i])],
                 "decade": [decade[i]]}
        if tags[i]:
            attrs["tag"] = sorted(tags[i])
        records.append({"item_id": str(i + 1), "attributes": attrs})

    supports_by_name: dict[str, int] = {}
    for rec in records:
        for attr, values in rec["attributes"].items():
            for value in values:
                key = f"{attr}={value}"
                supports_by_name[key] = supports_by_name.get(key, 0) + 1
    kept = {k for k, c in supports_by_name.items()
            if _entropy_bits(c / size.n_items) >= ENTROPY_THRESHOLD}
    pruned = sum(
        not any(f"{a}={v}" in kept for a, vs in rec["attributes"].items() for v in vs)
        for rec in records
    )
    stats = {
        "users": size.n_users,
        "items": size.n_items,
        "nnz": len(rows),
        "min_ratings_per_user": int(counts.min()),
        "max_ratings_per_user": int(counts.max()),
        "features_before_filter": len(supports_by_name),
        "features_after_filter": len(kept),
        "items_pruned": int(pruned),
    }
    return rows, records, stats


def write(out_dir: Path, size: Size, seed: int) -> dict:
    """Write ratings.csv and movies.jsonl into out_dir; returns the stats."""
    rows, records, stats = generate(size, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "ratings.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("userId,movieId,rating,timestamp\n")
        fh.writelines(f"{u},{i},{r},{t}\n" for u, i, r, t in rows)
    with open(out_dir / "movies.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    print(json.dumps(write(Path(args.out), SIZES[args.size], args.seed), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
