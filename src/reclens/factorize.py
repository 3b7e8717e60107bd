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
# Bytes that one chunk of an ALS half-step holds at a time (see
# _chunk_layout).
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
    contiguous slice that reshapes to a dense (rows, count) block, and so
    is every run of consecutive buckets that :func:`_chunk_layout` makes a
    chunk.  Takes O(nnz) memory.
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


def _chunk_layout(groups: _RowGroups, k: int) -> tuple:
    """Consecutive bucket positions cut into the chunks that
    :func:`_solve_half` solves one at a time, for rank ``k``.

    A row rating n entries holds 8 * (n * (k + 1) + k * (k + 2)) bytes
    while its chunk is solved: its gathered factors and predictions, and
    its Gram matrix, right-hand side and solution.  Chunks are filled in
    bucket order, with whole count buckets while they fit in
    ``ALS_CHUNK_BYTES``; a bucket larger than that is cut into runs of rows
    that each fit, and only a row larger than the cap on its own makes a
    chunk over it.  Each chunk is a ``(row_lo, row_hi, flat_lo, flat_hi,
    pieces)`` tuple over bucket positions and the flat arrays, and each of
    its pieces is a bucket's ``(row_lo, row_hi, count, flat_lo, flat_hi)``
    relative to the chunk.
    """
    runs, held = [], 0
    for r0, r1, count, f0, _ in groups.buckets:
        row_bytes = 8 * (count * (k + 1) + k * (k + 2))
        step = max(1, ALS_CHUNK_BYTES // row_bytes)
        for lo in range(r0, r1, step):
            hi = min(lo + step, r1)
            if not runs or held + (hi - lo) * row_bytes > ALS_CHUNK_BYTES:
                runs.append([])
                held = 0
            runs[-1].append((lo, hi, count, f0 + (lo - r0) * count,
                             f0 + (hi - r0) * count))
            held += (hi - lo) * row_bytes
    chunks = []
    for run in runs:
        c0, e0, c1, e1 = run[0][0], run[0][3], run[-1][1], run[-1][4]
        chunks.append((c0, c1, e0, e1, tuple(
            (r0 - c0, r1 - c0, count, f0 - e0, f1 - e0)
            for r0, r1, count, f0, f1 in run
        )))
    return tuple(chunks)


def _solve_half(groups: _RowGroups, chunks, other, lam, pred=None):
    """Solve every row's regularized normal equations, chunk by chunk.

    Row r's system is ``(F_r^T F_r + lam * n_r * I) x = F_r^T v_r``, where
    F_r holds the other-side factors of the n_r entries row r rated and v_r
    their ratings.  The chunks of :func:`_chunk_layout` are solved one at a
    time, in bucket order, by :func:`_solve_chunk`, so memory stays
    O(ALS_CHUNK_BYTES + rows * k + nnz) whatever the rank.  Every row's
    system is formed and solved on its own, so the result does not depend
    on the chunking, to the last bit.  The diagonal carries lam * n_r
    (count-weighted regularization, ALS-WR), so the k x k systems are
    positive definite whenever lam > 0.

    When ``pred`` is given, it receives every rating's prediction under
    the new factors, in the ratings' original order.
    """
    x = np.empty((len(groups.counts), other.shape[1]))
    for chunk in chunks:
        _solve_chunk(groups, chunk, other, lam, x, pred)
    return np.take(x, groups.position, axis=0)


def _solve_chunk(groups: _RowGroups, chunk, other, lam, x, pred):
    """One chunk of :func:`_solve_half`, whose arrays are freed on return.

    One ``np.take`` gathers the other side's factors for the chunk's
    ratings; each of its pieces is then a (rows, n_r, k) view whose Gram
    matrices and right-hand sides are written in place, and one batched
    solve writes the chunk's rows of ``x`` (in bucket order).  ``pred``,
    when given, receives the chunk's ratings' predictions.
    """
    c0, c1, e0, e1, pieces = chunk
    k = other.shape[1]
    F = np.take(other, groups.other[e0:e1], axis=0)
    A = np.empty((c1 - c0, k, k))
    b = np.empty((c1 - c0, 1, k))
    for r0, r1, count, f0, f1 in pieces:
        Fb = F[f0:f1].reshape(r1 - r0, count, k)
        np.matmul(Fb.transpose(0, 2, 1), Fb, out=A[r0:r1])
        np.matmul(groups.vals[e0 + f0:e0 + f1].reshape(r1 - r0, 1, count), Fb,
                  out=b[r0:r1])
    A[:, np.arange(k), np.arange(k)] += lam * groups.counts[c0:c1, None]
    try:
        x[c0:c1] = np.linalg.solve(A, b.reshape(c1 - c0, k, 1))[..., 0]
    except np.linalg.LinAlgError:
        raise SolverError(
            "singular normal equations during ALS; use lambda > 0"
        ) from None
    if pred is not None:
        flat = np.empty(e1 - e0)
        for r0, r1, count, f0, f1 in pieces:
            np.einsum(
                "rnk,rk->rn", F[f0:f1].reshape(r1 - r0, count, k),
                x[c0 + r0:c0 + r1], out=flat[f0:f1].reshape(r1 - r0, count),
            )
        pred[groups.source[e0:e1]] = flat


def train_als(
    ratings: RatingsMatrix,
    cfg: AlsConfig,
    on_iteration: Callable[[int, float], None] | None = None,
) -> FactorModel:
    """Alternate exact least-squares half-steps until the training RMSE
    stops improving by ``convergence_tol`` or ``max_iterations`` is hit.

    Item factors start uniform in [0, 1/sqrt(k)) from the seeded generator
    and the user half-step runs first, so results are bit-identical for a
    fixed config.  Each side's row layout and its chunks are built once,
    before the first iteration, since the rank is fixed for the run.  The
    item half-step also fills in each rating's prediction, from which the
    iteration's RMSE is taken; the "no ratings" checks read the counts of
    the two row layouts.
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
    user_chunks = _chunk_layout(by_user, k)
    item_chunks = _chunk_layout(by_item, k)
    rng = np.random.default_rng(cfg.seed)
    item_factors = rng.random((ratings.n_items, k)) / np.sqrt(k)
    user_factors = np.zeros((ratings.n_users, k))
    pred = np.empty(ratings.nnz)
    prev_rmse = np.inf
    for iteration in range(cfg.max_iterations):
        user_factors = _solve_half(by_user, user_chunks, item_factors, cfg.lam)
        item_factors = _solve_half(
            by_item, item_chunks, user_factors, cfg.lam, pred
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
