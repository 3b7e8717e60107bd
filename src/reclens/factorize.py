"""Alternating least squares training of the baseline factor model."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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


def _row_groups(n_rows, idx_row, idx_other, vals):
    """The ratings grouped for :func:`_solve_half`, built once per side.

    A stable argsort puts each row's ratings in one contiguous slice.  Rows
    are then bucketed by rating count, so that every bucket is a dense
    (rows, count) block of other-side indices and values.  Returns the
    per-row counts and one ``(rows, other_idx, vals)`` triple per distinct
    count; together they take O(nnz) memory.
    """
    order = np.argsort(idx_row, kind="stable")
    counts = np.bincount(idx_row, minlength=n_rows)
    starts = np.cumsum(counts) - counts
    idx_other, vals = idx_other[order], vals[order]
    buckets = []
    for count in np.unique(counts):
        rows = np.flatnonzero(counts == count)
        at = starts[rows][:, None] + np.arange(count)
        buckets.append((rows, idx_other[at], vals[at]))
    return counts, buckets


def _solve_half(groups, other, lam):
    """Solve every row's regularized normal equations.

    Row r's system is ``(F_r^T F_r + lam * n_r * I) x = F_r^T v_r``, where
    F_r holds the other-side factors of the n_r entries row r rated and v_r
    their ratings.  The Gram matrices are formed one count bucket of
    :func:`_row_groups` at a time as (rows, n_r, k) batched products, so
    memory stays O(nnz * k + rows * k^2); one batched solve follows.  The
    diagonal carries lam * n_r (count-weighted regularization, ALS-WR), so
    the k x k systems are positive definite whenever lam > 0.
    """
    counts, buckets = groups
    n_rows, k = len(counts), other.shape[1]
    A = np.empty((n_rows, k, k))
    b = np.empty((n_rows, k))
    for rows, idx_other, vals in buckets:
        F = other[idx_other]
        A[rows] = np.matmul(F.transpose(0, 2, 1), F)
        b[rows] = np.matmul(vals[:, None, :], F)[:, 0]
    A[:, np.arange(k), np.arange(k)] += lam * counts[:, None]
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise SolverError(
            "singular normal equations during ALS; use lambda > 0"
        ) from None


def train_als(
    ratings: RatingsMatrix,
    cfg: AlsConfig,
    on_iteration: Callable[[int, float], None] | None = None,
) -> FactorModel:
    """Alternate exact least-squares half-steps until the training RMSE
    stops improving by ``convergence_tol`` or ``max_iterations`` is hit.

    Item factors start uniform in [0, 1/sqrt(k)) from the seeded generator
    and the user half-step runs first, so results are bit-identical for a
    fixed config.
    """
    if ratings.nnz < 1:
        raise ValidationError("cannot factorize an empty ratings matrix")
    user_counts = np.bincount(ratings.users, minlength=ratings.n_users)
    item_counts = np.bincount(ratings.items, minlength=ratings.n_items)
    if (user_counts == 0).any():
        raise ValidationError(
            f"{int((user_counts == 0).sum())} user(s) have no ratings"
        )
    if (item_counts == 0).any():
        raise ValidationError(
            f"{int((item_counts == 0).sum())} item(s) have no ratings"
        )
    k = cfg.rank
    rng = np.random.default_rng(cfg.seed)
    item_factors = rng.random((ratings.n_items, k)) / np.sqrt(k)
    user_factors = np.zeros((ratings.n_users, k))
    by_user = _row_groups(
        ratings.n_users, ratings.users, ratings.items, ratings.ratings
    )
    by_item = _row_groups(
        ratings.n_items, ratings.items, ratings.users, ratings.ratings
    )
    prev_rmse = np.inf
    for iteration in range(cfg.max_iterations):
        user_factors = _solve_half(by_user, item_factors, cfg.lam)
        item_factors = _solve_half(by_item, user_factors, cfg.lam)
        pred = np.einsum(
            "ij,ij->i", user_factors[ratings.users], item_factors[ratings.items]
        )
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
