"""Alternating least squares training of the baseline factor model."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .datamodel import FactorModel, RatingsMatrix, load_artifact, write_json
from .errors import SolverError, ValidationError, check_seed, check_types

MODEL_FORMAT = "reclens-factor-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class AlsConfig:
    rank: int
    lam: float
    max_iterations: int = 20
    convergence_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_types(self, integers=("rank", "max_iterations", "seed"),
                    reals=("lam", "convergence_tol"))
        if self.rank < 1:
            raise ValidationError(f"rank must be >= 1, got {self.rank}")
        if self.lam < 0:
            raise ValidationError("lambda must be >= 0")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.convergence_tol < 0:
            raise ValidationError("convergence_tol must be >= 0")
        check_seed(self.seed)


class _RowGroups(NamedTuple):
    """One side's ratings in bucket order, built once by :func:`_row_groups`.

    Rows are ordered by (rating count, row index).  ``counts[p]`` is the
    rating count of the row at bucket position ``p`` and ``position[r]`` is
    the bucket position of row ``r``.  ``other``, ``vals`` and ``source``
    hold every rating's other-side index, value and original position,
    with each row's ratings in one contiguous run.  Each bucket is a
    ``(row_lo, row_hi, count, flat_lo, flat_hi)`` tuple: bucket positions
    ``row_lo:row_hi`` all rate ``count`` entries, held at
    ``flat_lo:flat_hi`` of the flat arrays.
    """

    counts: np.ndarray
    position: np.ndarray
    other: np.ndarray
    vals: np.ndarray
    source: np.ndarray
    buckets: tuple


def _row_groups(n_rows, idx_row, idx_other, vals) -> _RowGroups:
    """The ratings laid out for :func:`_solve_half`, built once per side.

    Rows are sorted by (count, row) and their ratings follow in that order,
    each row's in its original order, so every count bucket is one
    contiguous slice that reshapes to a dense (rows, count) block.  Takes
    O(nnz) memory.
    """
    counts = np.bincount(idx_row, minlength=n_rows)
    perm = np.argsort(counts, kind="stable")
    position = np.empty(n_rows, dtype=np.intp)
    position[perm] = np.arange(n_rows)
    # A stable sort has one result, so the key's dtype sets only its speed:
    # numpy radix-sorts keys of 16 bits or fewer.
    key = position[idx_row].astype(np.min_scalar_type(max(n_rows - 1, 0)))
    source = np.argsort(key, kind="stable")
    counts = counts[perm]
    flat_start = np.concatenate(([0], np.cumsum(counts)))
    values, row_lo = np.unique(counts, return_index=True)
    row_hi = np.append(row_lo[1:], n_rows)
    buckets = tuple(
        (int(lo), int(hi), int(count), int(flat_start[lo]), int(flat_start[hi]))
        for lo, hi, count in zip(row_lo, row_hi, values)
    )
    return _RowGroups(
        counts, position, idx_other[source], vals[source], source, buckets
    )


def _solve_half(groups: _RowGroups, other, lam, pred=None):
    """Solve every row's regularized normal equations.

    Row r's system is ``(F_r^T F_r + lam * n_r * I) x = F_r^T v_r``, where
    F_r holds the other-side factors of the n_r entries row r rated and v_r
    their ratings.  One ``np.take`` gathers the other side's factors for
    every rating in bucket order; each count bucket of :func:`_row_groups`
    is then a (rows, n_r, k) view whose Gram matrices and right-hand sides
    are written in place, so memory stays O(nnz * k + rows * k^2).  One
    batched solve follows.  The diagonal carries lam * n_r (count-weighted
    regularization, ALS-WR), so the k x k systems are positive definite
    whenever lam > 0.

    When ``pred`` is given, it receives every rating's prediction under
    the new factors, in the ratings' original order.
    """
    n_rows, k = len(groups.counts), other.shape[1]
    F = np.take(other, groups.other, axis=0)
    A = np.empty((n_rows, k, k))
    b = np.empty((n_rows, 1, k))
    for r0, r1, count, f0, f1 in groups.buckets:
        Fb = F[f0:f1].reshape(r1 - r0, count, k)
        np.matmul(Fb.transpose(0, 2, 1), Fb, out=A[r0:r1])
        np.matmul(groups.vals[f0:f1].reshape(r1 - r0, 1, count), Fb, out=b[r0:r1])
    A[:, np.arange(k), np.arange(k)] += lam * groups.counts[:, None]
    try:
        x = np.linalg.solve(A, b.reshape(n_rows, k, 1))[..., 0]
    except np.linalg.LinAlgError:
        raise SolverError(
            "singular normal equations during ALS; use lambda > 0"
        ) from None
    if pred is not None:
        flat = np.empty(len(F))
        for r0, r1, count, f0, f1 in groups.buckets:
            np.einsum(
                "rnk,rk->rn", F[f0:f1].reshape(r1 - r0, count, k), x[r0:r1],
                out=flat[f0:f1].reshape(r1 - r0, count),
            )
        pred[groups.source] = flat
    return np.take(x, groups.position, axis=0)


def train_als(
    ratings: RatingsMatrix,
    cfg: AlsConfig,
    on_iteration: Callable[[int, float], None] | None = None,
) -> FactorModel:
    """Alternate exact least-squares half-steps until the training RMSE
    stops improving by ``convergence_tol`` or ``max_iterations`` is hit.

    Item factors start uniform in [0, 1/sqrt(k)) from the seeded generator
    and the user half-step runs first, so results are bit-identical for a
    fixed config.  The item half-step also fills in each rating's
    prediction, from which the iteration's RMSE is taken; the "no ratings"
    checks read the counts of the two row layouts.
    """
    if ratings.nnz < 1:
        raise ValidationError("cannot factorize an empty ratings matrix")
    by_user = _row_groups(
        ratings.n_users, ratings.users, ratings.items, ratings.ratings
    )
    by_item = _row_groups(
        ratings.n_items, ratings.items, ratings.users, ratings.ratings
    )
    for groups, side in ((by_user, "user"), (by_item, "item")):
        unrated = int((groups.counts == 0).sum())
        if unrated:
            raise ValidationError(f"{unrated} {side}(s) have no ratings")
    k = cfg.rank
    rng = np.random.default_rng(cfg.seed)
    item_factors = rng.random((ratings.n_items, k)) / np.sqrt(k)
    user_factors = np.zeros((ratings.n_users, k))
    pred = np.empty(ratings.nnz)
    prev_rmse = np.inf
    for iteration in range(cfg.max_iterations):
        user_factors = _solve_half(by_user, item_factors, cfg.lam)
        item_factors = _solve_half(by_item, user_factors, cfg.lam, pred)
        rmse = float(np.sqrt(np.mean((pred - ratings.ratings) ** 2)))
        if on_iteration is not None:
            on_iteration(iteration, rmse)
        if prev_rmse - rmse < cfg.convergence_tol:
            break
        prev_rmse = rmse
    return FactorModel(
        rank=k,
        lam=cfg.lam,
        user_factors=user_factors,
        item_factors=item_factors,
        user_ids=ratings.user_ids,
        item_ids=ratings.item_ids,
    )


def training_rmse(model: FactorModel, ratings: RatingsMatrix) -> float:
    """Root mean squared error over the observed entries only."""
    if ratings.nnz < 1:
        raise ValidationError("RMSE of an empty ratings matrix is undefined")
    pred = np.einsum(
        "ij,ij->i",
        model.user_factors[ratings.users],
        model.item_factors[ratings.items],
    )
    return float(np.sqrt(np.mean((pred - ratings.ratings) ** 2)))


def save_model(model: FactorModel, path: str | Path) -> None:
    """Write the model as versioned JSON (row-major factor matrices plus the
    external id dictionaries)."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "rank": model.rank,
        "lambda": model.lam,
        "n_users": model.n_users,
        "n_items": model.n_items,
        "user_factors": model.user_factors.tolist(),
        "item_factors": model.item_factors.tolist(),
        "user_ids": list(model.user_ids) if model.user_ids is not None else None,
        "item_ids": list(model.item_ids) if model.item_ids is not None else None,
    }
    write_json(doc, path)


def load_model(path: str | Path) -> FactorModel:
    def build(doc):
        return FactorModel(
            rank=doc["rank"],
            lam=doc["lambda"],
            user_factors=np.array(doc["user_factors"], dtype=np.float64).reshape(
                doc["n_users"], doc["rank"]
            ),
            item_factors=np.array(doc["item_factors"], dtype=np.float64).reshape(
                doc["n_items"], doc["rank"]
            ),
            user_ids=tuple(doc["user_ids"]) if doc.get("user_ids") is not None else None,
            item_ids=tuple(doc["item_ids"]) if doc.get("item_ids") is not None else None,
        )

    return load_artifact(path, MODEL_FORMAT, MODEL_VERSION, build)
