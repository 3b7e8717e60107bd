"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the operation's
output is correct.  Influence values are compared with the package's
reference estimator ``qii_exact_binary`` evaluated on ``ShadowModel``
predictions, with attribute rows and marginals rebuilt here from the raw
metadata records rather than taken from the program.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Absolute tolerance per feature between a reported influence and the oracle.
TOLERANCE = 1e-9
CONDITIONS = ("true", "semi_random", "random")


def read_item_features(path) -> dict[str, frozenset[str]]:
    """item_id -> the set of ``attribute=value`` names its record holds."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            out[str(rec["item_id"])] = frozenset(
                f"{attr}={value}"
                for attr, values in rec["attributes"].items()
                for value in values
            )
    return out


class Oracle:
    """Reference influences for one shadow model and its item universe."""

    def __init__(self, shadow, item_features: dict[str, frozenset[str]]):
        from reclens.influence import qii_exact_binary

        self.qii = qii_exact_binary
        self.shadow = shadow
        self.names = tuple(shadow.feature_names)
        self.column = {n: j for j, n in enumerate(self.names)}
        universe = [shadow.item_ids[int(i)] for i in shadow.item_indices]
        self.universe = [int(i) for i in shadow.item_indices]
        self.rows = {
            int(i): np.array([1.0 if n in item_features[iid] else 0.0 for n in self.names])
            for i, iid in zip(self.universe, universe)
        }
        X = np.array([self.rows[i] for i in self.universe])
        self.marginals = X.mean(axis=0)

    def influence(self, user: int, items: list[int], name: str) -> float:
        f = self.column[name]
        p = float(self.marginals[f])
        return float(np.mean([
            self.qii(lambda a: self.shadow.predict(user, a), self.rows[i], f, p)
            for i in items
        ]))

    def shadow_rating(self, user: int, items: list[int]) -> float:
        return float(np.mean([self.shadow.predict(user, self.rows[i]) for i in items]))


def check_ranking(influences, names) -> list[str]:
    """Every feature listed once, sorted by descending |value| then name."""
    problems = []
    listed = [n for n, _ in influences]
    if sorted(listed) != sorted(names):
        problems.append(f"report lists {len(listed)} features, expected {len(names)}")
    values = [v for _, v in influences]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        problems.append("non-finite influence value")
        return problems
    keys = [(-abs(v), n) for n, v in influences]
    if keys != sorted(keys):
        problems.append("influences not sorted by |value| with the name tie-break")
    return problems


def check_influences(oracle: Oracle, user: int, items: list[int], influences,
                     shadow_rating: float, names_to_check=None) -> list[str]:
    """Ranking plus oracle agreement on the named features (all by default)."""
    problems = check_ranking(influences, oracle.names)
    if problems:
        return problems
    reported = dict(influences)
    for name in names_to_check if names_to_check is not None else oracle.names:
        want = oracle.influence(user, items, name)
        if abs(reported[name] - want) > TOLERANCE:
            problems.append(f"influence of {name}: reported {reported[name]!r}, oracle {want!r}")
            break
    want = oracle.shadow_rating(user, items)
    if not math.isfinite(shadow_rating) or abs(shadow_rating - want) > TOLERANCE:
        problems.append(f"shadow rating {shadow_rating!r}, oracle {want!r}")
    return problems


def sampled_names(influences, rng: np.random.Generator, k: int) -> list[str]:
    """The top k features by |value| plus k drawn at random from the rest."""
    names = [n for n, _ in influences]
    rest = names[k:]
    picks = rng.choice(len(rest), size=min(k, len(rest)), replace=False) if rest else []
    return names[:k] + [rest[int(i)] for i in picks]


def check_synth(doc: dict, n_per_condition: int) -> list[str]:
    """Scores in [0, 1], every sample present, true > semi_random > random,
    Welch p(true vs random) < 0.01, recomputed independently."""
    from scipy import stats

    problems = []
    scores = {c: [s["score"] for s in doc["samples"] if s["condition"] == c]
              for c in CONDITIONS}
    for c in CONDITIONS:
        if len(scores[c]) != n_per_condition:
            problems.append(f"{c}: {len(scores[c])} samples, expected {n_per_condition}")
        if not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in scores[c]):
            problems.append(f"{c}: score outside [0, 1]")
    if problems:
        return problems
    means = {c: float(np.mean(scores[c])) for c in CONDITIONS}
    for c in CONDITIONS:
        if abs(means[c] - doc["means"][c]) > 1e-12:
            problems.append(f"{c}: reported mean {doc['means'][c]!r}, recomputed {means[c]!r}")
    if not means["true"] > means["semi_random"] > means["random"]:
        problems.append(f"condition means out of order: {means}")
    p = float(stats.ttest_ind(scores["true"], scores["random"], equal_var=False).pvalue)
    reported = doc["tests"]["true_vs_random"].get("p")
    if not p < 0.01:
        problems.append(f"Welch p(true vs random) = {p:.3g}, not below 0.01")
    if reported is None or not math.isclose(reported, p, rel_tol=1e-6, abs_tol=1e-300):
        problems.append(f"reported p {reported!r} differs from the recomputed {p!r}")
    return problems


def check_finite(doc: dict, keys) -> list[str]:
    bad = [k for k in keys
           if not isinstance(doc.get(k), (int, float)) or not math.isfinite(doc[k])]
    return [f"{k} missing or not finite" for k in bad]
