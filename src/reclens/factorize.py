"""Alternating least squares training of the baseline factor model."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .datamodel import (
    FactorModel,
    RatingsMatrix,
    array_from_json,
    load_artifact,
    write_json,
)
from .errors import SolverError, ValidationError, check_seed, check_types, excerpt

MODEL_FORMAT = "reclens-factor-model"
MODEL_VERSION = 1
# Bytes that one chunk of an ALS half-step holds at a time (see
# _solve_half).
ALS_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class AlsConfig:
    rank: int
    lam: float = 0.1
    max_iterations: int = 20
    convergence_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_types(self, integers=("rank", "max_iterations", "seed"),
                    reals=("lam", "convergence_tol"))
        if self.rank < 1:
            raise ValidationError(
                f"rank must be >= 1, got {excerpt(repr(self.rank))}"
            )
        if self.lam < 0:
            raise ValidationError("lambda must be >= 0")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.convergence_tol < 0:
            raise ValidationError("convergence_tol must be >= 0")
        check_seed(self.seed)


class _RowGroups(NamedTuple):
    """One side's ratings in (count, row) order, built once by
    :func:`_row_groups`.

    ``counts[p]`` is the rating count of the row at position ``p``, whose
    ratings start at ``offsets[p]`` of the flat arrays (``offsets`` ends
    with nnz), and ``position[r]`` is the position of row ``r``.
    ``other`` and ``source`` hold every rating's other-side index and
    original position, with each row's ratings in one contiguous run;
    ``vals`` is the ratings' values as given, in their original order, so
    the value at flat position ``f`` is ``vals[source[f]]``.  ``other`` and
    ``source`` are stored in the integer type :func:`_index_dtype` picks,
    so below 2**31 a layout adds 8 bytes per rating to the values it
    shares.
    """

    counts: np.ndarray
    offsets: np.ndarray
    position: np.ndarray
    other: np.ndarray
    vals: np.ndarray
    source: np.ndarray


def _index_dtype(largest: int) -> np.dtype:
    """The integer type of a layout's index arrays whose entries reach
    ``largest``: int32 below 2**31, int64 from there on.  Indices take the
    same values in either, so the type sets only the layout's size."""
    return np.dtype(np.int32 if largest < 2**31 else np.int64)


def _row_groups(n_rows, idx_row, idx_other, vals) -> _RowGroups:
    """The ratings laid out for :func:`_solve_half`, built once per side.

    Rows are sorted by (count, row) and their ratings follow in that order,
    each row's in its original order, so any run of consecutive rows is one
    contiguous slice, and its rows of one count reshape to a dense
    (rows, count) block.  The values are not copied.  Takes O(nnz)
    memory: 8 bytes per rating kept, and about 8 more while it is built.
    """
    counts = np.bincount(idx_row, minlength=n_rows)
    perm = np.argsort(counts, kind="stable")
    position = np.empty(n_rows, dtype=np.intp)
    position[perm] = np.arange(n_rows)
    # A stable sort has one result, so the key's dtype sets only its speed:
    # numpy radix-sorts keys of 16 bits or fewer.
    key = position[idx_row].astype(np.min_scalar_type(max(n_rows - 1, 0)))
    order = np.argsort(key, kind="stable")
    del key
    counts = counts[perm]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    largest_other = int(idx_other.max()) if len(idx_other) else 0
    other = idx_other.astype(_index_dtype(largest_other))[order]
    source = order.astype(_index_dtype(max(len(order) - 1, 0)))
    return _RowGroups(counts, offsets, position, other, vals, source)


def _solve_half(groups: _RowGroups, other, lam, pred=None):
    """Solve every row's regularized normal equations, chunk by chunk.

    Row r's system is ``(F_r^T F_r + lam * n_r * I) x = F_r^T v_r``, where
    F_r holds the other-side factors of the n_r entries row r rated and v_r
    their ratings.  A row rating n entries holds
    8 * (n * (k + 1) + k * (k + 2)) bytes while it is solved: its gathered
    factors and values (whose buffer then takes its predictions), and its
    Gram matrix, right-hand side and solution.  A chunk takes consecutive
    rows, in (count, row) order, while they fit in ``ALS_CHUNK_BYTES``;
    only a row over the cap on its own makes a chunk larger than it.  The
    chunks are solved one at a time by :func:`_solve_chunk`, so memory
    stays O(ALS_CHUNK_BYTES + rows * k + nnz) whatever the rank.  Every row's system is formed and solved on its
    own, so the result does not depend on the chunking, to the last bit.
    The diagonal carries lam * n_r (count-weighted regularization, ALS-WR),
    so the k x k systems are positive definite whenever lam > 0.

    When ``pred`` is given, it receives every rating's prediction under
    the new factors, in the ratings' original order.
    """
    n_rows, k = len(groups.counts), other.shape[1]
    # held[p]: the bytes of the rows before position p.
    held = [0, *np.cumsum(8 * (groups.counts * (k + 1) + k * (k + 2))).tolist()]
    x = np.empty((n_rows, k))
    c0 = 0
    while c0 < n_rows:
        fit = bisect_right(held, held[c0] + ALS_CHUNK_BYTES, c0)
        c1 = max(c0 + 1, fit - 1)
        _solve_chunk(groups, c0, c1, other, lam, x, pred)
        c0 = c1
    return np.take(x, groups.position, axis=0)


def _solve_chunk(groups: _RowGroups, c0, c1, other, lam, x, pred):
    """Rows ``c0:c1`` of :func:`_solve_half`, whose arrays are freed on
    return.

    One ``np.take`` gathers the other side's factors for the rows'
    ratings, and indexing by ``source`` gathers their values; each run of
    rows of one count is then a (rows, n_r, k) view whose Gram matrices and
    right-hand sides are written in place, and one batched solve writes
    rows ``c0:c1`` of ``x`` (in (count, row) order).  ``pred``, when
    given, receives these ratings' predictions.
    """
    k = other.shape[1]
    e0, e1 = int(groups.offsets[c0]), int(groups.offsets[c1])
    F = np.take(other, groups.other[e0:e1], axis=0)
    # Each run of rows of one count, as (r0, r1, count, f0, f1) relative to
    # the chunk.  The counts ascend, so bisecting them as a list finds each
    # run's end, for less than numpy calls cost on so few rows.
    counts, runs, r0, f0 = groups.counts[c0:c1].tolist(), [], 0, 0
    while r0 < c1 - c0:
        r1 = bisect_right(counts, counts[r0], r0)
        f1 = f0 + (r1 - r0) * counts[r0]
        runs.append((r0, r1, counts[r0], f0, f1))
        r0, f0 = r1, f1
    A = np.empty((c1 - c0, k, k))
    b = np.empty((c1 - c0, 1, k))
    vals = groups.vals[groups.source[e0:e1]]
    for r0, r1, count, f0, f1 in runs:
        Fb = F[f0:f1].reshape(r1 - r0, count, k)
        np.matmul(Fb.transpose(0, 2, 1), Fb, out=A[r0:r1])
        np.matmul(vals[f0:f1].reshape(r1 - r0, 1, count), Fb, out=b[r0:r1])
    A[:, np.arange(k), np.arange(k)] += lam * groups.counts[c0:c1, None]
    try:
        x[c0:c1] = np.linalg.solve(A, b.reshape(c1 - c0, k, 1))[..., 0]
    except np.linalg.LinAlgError:
        raise SolverError(
            "singular normal equations during ALS; use lambda > 0"
        ) from None
    if pred is not None:
        # The values are spent, so their buffer takes the predictions.
        for r0, r1, count, f0, f1 in runs:
            np.einsum(
                "rnk,rk->rn", F[f0:f1].reshape(r1 - r0, count, k),
                x[c0 + r0:c0 + r1], out=vals[f0:f1].reshape(r1 - r0, count),
            )
        pred[groups.source[e0:e1]] = vals


def train_als(
    ratings: RatingsMatrix,
    cfg: AlsConfig,
    on_iteration: Callable[[int, float], None] | None = None,
) -> FactorModel:
    """Alternate exact least-squares half-steps until the training RMSE
    stops improving by ``convergence_tol`` or ``max_iterations`` is hit.

    Item factors start uniform in [0, 1/sqrt(k)) from the seeded generator
    and the user half-step runs first, so results are bit-identical for a
    fixed config.  Each side's row layout is built once, before the first
    iteration.  The item half-step also fills in each rating's prediction,
    from which the iteration's RMSE is taken; the "no ratings" checks read
    the counts of the two row layouts.  A rank above min(users, items) is
    refused before anything is allocated.
    """
    if ratings.nnz < 1:
        raise ValidationError("cannot factorize an empty ratings matrix")
    if cfg.rank > min(ratings.n_users, ratings.n_items):
        raise ValidationError(
            f"rank {excerpt(repr(cfg.rank))} exceeds min(users, items) = "
            f"min({ratings.n_users}, {ratings.n_items})"
        )
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
        # The next item half-step writes every prediction again, so the
        # squared residuals can take their place.
        pred -= ratings.ratings
        rmse = float(np.sqrt(np.mean(np.square(pred, out=pred))))
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
    """Root mean squared error over the observed entries only.

    The predictions are taken in blocks of ratings whose two gathered
    factor blocks fit in ``ALS_CHUNK_BYTES``, so memory stays O(nnz) above
    the cap whatever the rank.
    """
    if ratings.nnz < 1:
        raise ValidationError("RMSE of an empty ratings matrix is undefined")
    block = max(1, ALS_CHUNK_BYTES // (16 * model.rank))
    pred = np.empty(ratings.nnz)
    for start in range(0, ratings.nnz, block):
        stop = start + block
        np.einsum(
            "ij,ij->i",
            model.user_factors[ratings.users[start:stop]],
            model.item_factors[ratings.items[start:stop]],
            out=pred[start:stop],
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
        "user_factors": model.user_factors,
        "item_factors": model.item_factors,
        "user_ids": list(model.user_ids) if model.user_ids is not None else None,
        "item_ids": list(model.item_ids) if model.item_ids is not None else None,
    }
    write_json(doc, path)


def load_model(path: str | Path) -> FactorModel:
    def build(doc):
        return FactorModel(
            rank=doc["rank"],
            lam=doc["lambda"],
            user_factors=array_from_json(doc["user_factors"], "user_factors").reshape(
                doc["n_users"], doc["rank"]
            ),
            item_factors=array_from_json(doc["item_factors"], "item_factors").reshape(
                doc["n_items"], doc["rank"]
            ),
            user_ids=tuple(doc["user_ids"]) if doc.get("user_ids") is not None else None,
            item_ids=tuple(doc["item_ids"]) if doc.get("item_ids") is not None else None,
        )

    return load_artifact(path, MODEL_FORMAT, MODEL_VERSION, build)
