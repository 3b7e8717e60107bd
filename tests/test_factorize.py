import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reclens.datamodel import RatingsMatrix, predict_rating
from reclens import factorize
from reclens.errors import SolverError, ValidationError
from reclens.factorize import (
    AlsConfig,
    _row_groups,
    _solve_half,
    load_model,
    save_model,
    train_als,
    training_rmse,
)

from conftest import complete_low_rank_ratings


def complete_matrix_ratings(R, scale):
    n_users, n_items = R.shape
    users, items = np.divmod(np.arange(R.size), n_items)
    return RatingsMatrix(
        n_users=n_users, n_items=n_items,
        users=users, items=items, ratings=R.ravel(), scale=scale,
    )


def best_rank_k_rmse_oracle(R, k) -> float:
    """Spectral truncation: the best possible rank-k fit of a complete
    matrix (independent route via SVD)."""
    u, s, vt = np.linalg.svd(R, full_matrices=False)
    approx = (u[:, :k] * s[:k]) @ vt[:k]
    return float(np.sqrt(np.mean((R - approx) ** 2)))


def solve_half_oracle(n_rows, idx_row, idx_other, vals, other, lam, k):
    """One ALS half-step the direct way: stack all nnz outer products
    F_e F_e^T and scatter-add them into each row's normal equations."""
    F = other[idx_other]
    A = np.zeros((n_rows, k, k))
    b = np.zeros((n_rows, k))
    np.add.at(A, idx_row, F[:, :, None] * F[:, None, :])
    np.add.at(b, idx_row, F * vals[:, None])
    counts = np.bincount(idx_row, minlength=n_rows)
    A[:, np.arange(k), np.arange(k)] += lam * counts[:, None]
    return np.linalg.solve(A, b[..., None])[..., 0]


def count_runs(groups):
    """``(r0, r1, count, f0, f1)`` of each run of rows of one rating count
    in the layout of ``_row_groups``, whose counts ascend: positions
    ``r0:r1`` rate ``count`` entries each, held at ``f0:f1`` of the flat
    arrays."""
    for count in np.unique(groups.counts):
        r0, r1 = np.searchsorted(groups.counts, [count, count + 1])
        yield r0, r1, int(count), groups.offsets[r0], groups.offsets[r1]


def solve_half_whole_oracle(groups, other, lam, pred=None):
    """One ALS half-step over the whole side at once, on the layout of
    ``_row_groups``: one ``np.take`` of the other side's factors for every
    rating, every row's Gram matrix and right-hand side written in place
    from views of it, then one batched solve.  Holds O(nnz * k + rows * k^2)
    floats."""
    n_rows, k = len(groups.counts), other.shape[1]
    F = np.take(other, groups.other, axis=0)
    vals = groups.vals[groups.source]
    A = np.empty((n_rows, k, k))
    b = np.empty((n_rows, 1, k))
    for r0, r1, count, f0, f1 in count_runs(groups):
        Fb = F[f0:f1].reshape(r1 - r0, count, k)
        np.matmul(Fb.transpose(0, 2, 1), Fb, out=A[r0:r1])
        np.matmul(vals[f0:f1].reshape(r1 - r0, 1, count), Fb, out=b[r0:r1])
    A[:, np.arange(k), np.arange(k)] += lam * groups.counts[:, None]
    try:
        x = np.linalg.solve(A, b.reshape(n_rows, k, 1))[..., 0]
    except np.linalg.LinAlgError:
        raise SolverError(
            "singular normal equations during ALS; use lambda > 0"
        ) from None
    if pred is not None:
        flat = np.empty(len(F))
        for r0, r1, count, f0, f1 in count_runs(groups):
            np.einsum(
                "rnk,rk->rn", F[f0:f1].reshape(r1 - r0, count, k), x[r0:r1],
                out=flat[f0:f1].reshape(r1 - r0, count),
            )
        pred[groups.source] = flat
    return np.take(x, groups.position, axis=0)


class BucketGroups(NamedTuple):
    counts: np.ndarray
    buckets: list
    idx_row: np.ndarray
    idx_other: np.ndarray


def row_groups_buckets_oracle(n_rows, idx_row, idx_other, vals):
    """The ratings grouped by a stable argsort on the row index, then one
    gathered (rows, count) block of other-side indices and values per
    distinct rating count."""
    order = np.argsort(idx_row, kind="stable")
    counts = np.bincount(idx_row, minlength=n_rows)
    starts = np.cumsum(counts) - counts
    sorted_other, sorted_vals = idx_other[order], vals[order]
    buckets = []
    for count in np.unique(counts):
        rows = np.flatnonzero(counts == count)
        at = starts[rows][:, None] + np.arange(count)
        buckets.append((rows, sorted_other[at], sorted_vals[at]))
    return BucketGroups(counts, buckets, idx_row, idx_other)


def solve_half_buckets_oracle(groups, other, lam, pred=None):
    """One ALS half-step bucket by bucket: a fancy-index gather of the other
    side's factors and a scattered write of the Gram matrices per bucket,
    then one batched solve.  ``pred`` receives other[idx_other] . x[idx_row]
    from two fresh nnz x k gathers; for the item half-step that is
    U[users] . V[items], the per-rating prediction of ``training_rmse``."""
    n_rows, k = len(groups.counts), other.shape[1]
    A = np.empty((n_rows, k, k))
    b = np.empty((n_rows, k))
    for rows, idx_other, vals in groups.buckets:
        F = other[idx_other]
        A[rows] = np.matmul(F.transpose(0, 2, 1), F)
        b[rows] = np.matmul(vals[:, None, :], F)[:, 0]
    A[:, np.arange(k), np.arange(k)] += lam * groups.counts[:, None]
    try:
        x = np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise SolverError(
            "singular normal equations during ALS; use lambda > 0"
        ) from None
    if pred is not None:
        pred[:] = np.einsum("ij,ij->i", other[groups.idx_other], x[groups.idx_row])
    return x


@st.composite
def sparse_triplets(draw):
    """Random (user, item, rating) triplets that rate every user and every
    item at least once; with few extra entries, most rows on both sides
    hold a single rating.  Also draws a rank, lambda and a generator for
    the fixed factors of a half-step."""
    n_users = draw(st.integers(1, 12))
    n_items = draw(st.integers(1, 12))
    k = draw(st.integers(1, 8))
    lam = draw(st.floats(0.01, 10.0))
    extra = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cover = max(n_users, n_items)
    users = np.concatenate(
        [rng.permutation(cover) % n_users, rng.integers(0, n_users, extra)]
    )
    items = np.concatenate(
        [rng.permutation(cover) % n_items, rng.integers(0, n_items, extra)]
    )
    order = rng.permutation(len(users))
    vals = rng.uniform(1.0, 5.0, len(users))
    return users[order], items[order], vals, n_users, n_items, k, lam, rng


@st.composite
def half_step_problems(draw):
    """Random sparse (row, other, value) triplets in which every row has at
    least one entry; with few extra entries most rows have exactly one."""
    n_rows = draw(st.integers(1, 12))
    n_other = draw(st.integers(1, 10))
    k = draw(st.integers(1, 8))
    extra = draw(st.integers(0, 40))
    lam = draw(st.floats(0.01, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx_row = rng.permutation(
        np.concatenate([np.arange(n_rows), rng.integers(0, n_rows, extra)])
    )
    idx_other = rng.integers(0, n_other, len(idx_row))
    vals = rng.uniform(1.0, 5.0, len(idx_row))
    other = rng.normal(size=(n_other, k))
    return n_rows, idx_row, idx_other, vals, other, lam, k


class TestSolveHalf:
    @settings(max_examples=150)
    @given(half_step_problems())
    def test_matches_outer_product_oracle(self, problem):
        n_rows, idx_row, idx_other, vals, other, lam, k = problem
        groups = _row_groups(n_rows, idx_row, idx_other, vals)
        got = _solve_half(groups, other, lam)
        want = solve_half_oracle(*problem)
        assert got.shape == want.shape == (n_rows, k)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @settings(max_examples=150)
    @given(sparse_triplets())
    def test_bit_identical_to_bucket_oracle(self, triplets):
        users, items, vals, n_users, n_items, k, lam, rng = triplets
        for n_rows, idx_row, idx_other, n_other in (
            (n_users, users, items, n_items),
            (n_items, items, users, n_users),
        ):
            other = rng.normal(size=(n_other, k))
            got_pred, want_pred = np.full(len(vals), np.nan), np.empty(len(vals))
            got = _solve_half(
                _row_groups(n_rows, idx_row, idx_other, vals), other, lam, got_pred
            )
            want = solve_half_buckets_oracle(
                row_groups_buckets_oracle(n_rows, idx_row, idx_other, vals),
                other, lam, want_pred,
            )
            assert np.array_equal(got, want)
            assert np.array_equal(got_pred, want_pred)

    def test_unrated_row_is_singular(self):
        groups = _row_groups(2, np.array([0]), np.array([0]), np.array([3.0]))
        with pytest.raises(SolverError, match="lambda > 0"):
            _solve_half(groups, np.ones((1, 2)), 0.1)


@st.composite
def uneven_triplets(draw):
    """Random ratings with uneven rating counts on both sides: each user
    rates a drawn number of items, with replacement, from one to forty, and
    every item is rated at least once.  Also draws a rank from 1 to 6, a
    lambda, a generator for the fixed factors, and a chunk cap between a
    fifth and four times the bytes of the largest row of either side."""
    n_users = draw(st.integers(1, 15))
    n_items = draw(st.integers(1, 15))
    k = draw(st.integers(1, 6))
    lam = draw(st.floats(0.01, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.choice([1, 1, 2, 3, 5, 8, 20, 40], n_users)
    users = np.concatenate(
        [np.repeat(np.arange(n_users), counts), rng.integers(0, n_users, n_items)]
    )
    items = np.concatenate(
        [rng.integers(0, n_items, counts.sum()), rng.permutation(n_items)]
    )
    order = rng.permutation(len(users))
    vals = rng.uniform(1.0, 5.0, len(users))
    largest = max(np.bincount(users).max(), np.bincount(items).max())
    cap = int(draw(st.floats(0.2, 4.0)) * 8 * (largest * (k + 1) + k * (k + 2)))
    return users[order], items[order], vals, n_users, n_items, k, lam, rng, cap


def solve_in_chunks(groups, other, lam, pred, cap, chunks):
    """``_solve_half`` under a chunk cap of ``cap`` bytes; ``chunks``
    receives the ``(c0, c1)`` row ranges it hands to ``_solve_chunk``, in
    order, even when the solve raises."""
    solve_chunk = factorize._solve_chunk

    def spy(groups, c0, c1, *rest):
        chunks.append((c0, c1))
        return solve_chunk(groups, c0, c1, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorize, "ALS_CHUNK_BYTES", cap)
        mp.setattr(factorize, "_solve_chunk", spy)
        return _solve_half(groups, other, lam, pred)


def check_layout(groups, chunks, k, cap):
    """Assert that ``chunks`` are contiguous row ranges that cover every
    row and every rating once, in order; that each stays within the cap
    unless it is one row; and that each takes rows while they fit, so the
    next row would overflow it.  Returns which of "several chunks", "cut
    count run" and "over-cap row" occur."""
    counts, offsets = groups.counts, groups.offsets
    assert np.array_equal(np.diff(offsets), counts)
    row_bytes = 8 * (counts * (k + 1) + k * (k + 2))
    kinds = {"several chunks"} if len(chunks) > 1 else set()
    at, ratings = 0, []
    for c0, c1 in chunks:
        assert c0 == at and c1 > c0
        held = row_bytes[c0:c1].sum()
        if held > cap:
            assert c1 - c0 == 1
            kinds.add("over-cap row")
        if c1 < len(counts):
            assert held + row_bytes[c1] > cap
        if c0 > 0 and counts[c0 - 1] == counts[c0]:
            kinds.add("cut count run")
        ratings.append(groups.source[offsets[c0]:offsets[c1]])
        at = c1
    assert at == len(counts)
    assert np.array_equal(np.sort(np.concatenate(ratings)),
                          np.arange(len(groups.vals)))
    return kinds


def chunked_and_whole(n_rows, idx_row, idx_other, vals, other, lam, cap):
    """``(x, pred)`` of one half-step solved in chunks under ``cap``, and of
    the whole-half oracle; plus the chunks solved and their kinds."""
    groups = _row_groups(n_rows, idx_row, idx_other, vals)
    got_pred, want_pred = np.full(len(vals), np.nan), np.full(len(vals), np.nan)
    chunks = []
    got = solve_in_chunks(groups, other, lam, got_pred, cap, chunks)
    kinds = check_layout(groups, chunks, other.shape[1], cap)
    want = solve_half_whole_oracle(groups, other, lam, want_pred)
    return (got, got_pred), (want, want_pred), chunks, kinds


class TestChunkedSolveHalf:
    @settings(max_examples=200)
    @given(uneven_triplets())
    def test_bit_identical_to_whole_half_oracle(self, triplets):
        users, items, vals, n_users, n_items, k, lam, rng, cap = triplets
        for n_rows, idx_row, idx_other, n_other in (
            (n_users, users, items, n_items),
            (n_items, items, users, n_users),
        ):
            other = rng.normal(size=(n_other, k))
            (got, got_pred), (want, want_pred), _, _ = chunked_and_whole(
                n_rows, idx_row, idx_other, vals, other, lam, cap
            )
            assert np.array_equal(got, want)
            assert np.array_equal(got_pred, want_pred)

    @staticmethod
    def eight_rows(rng, cap):
        # At rank 2 a row of count n holds 24 * n + 64 bytes: six rows of
        # one rating (88 bytes each), a row of two (112 bytes) and a row of
        # fifty (1264 bytes).
        idx_row = np.concatenate([np.arange(6), np.full(50, 6), [7, 7]])
        idx_other = rng.integers(0, 4, len(idx_row))
        vals = rng.uniform(1.0, 5.0, len(idx_row))
        return chunked_and_whole(
            8, idx_row, idx_other, vals, rng.normal(size=(4, 2)), 0.5, cap
        )

    def test_every_kind_of_chunk(self, rng):
        # Under a 200-byte cap the rows of one rating are cut into runs of
        # two, the row of two is a chunk of its own, and the row of fifty
        # is a chunk over the cap.
        (got, got_pred), (want, want_pred), chunks, kinds = self.eight_rows(
            rng, 200
        )
        assert chunks == [(0, 2), (2, 4), (4, 6), (6, 7), (7, 8)]
        assert kinds == {"several chunks", "cut count run", "over-cap row"}
        assert np.array_equal(got, want)
        assert np.array_equal(got_pred, want_pred)

    @pytest.mark.parametrize("cap, want_chunks", [
        (1, [(p, p + 1) for p in range(8)]),  # below any one row
        (1 << 20, [(0, 8)]),                  # above the whole side
    ])
    def test_cap_extremes(self, rng, cap, want_chunks):
        (got, got_pred), (want, want_pred), chunks, _ = self.eight_rows(rng, cap)
        assert chunks == want_chunks
        assert np.array_equal(got, want)
        assert np.array_equal(got_pred, want_pred)

    def test_singular_row_in_later_chunk(self):
        # Rows 0-5 rate items 0 and 1, whose factors span the plane; row 6
        # rates item 0 three times, so with lam = 0 its Gram matrix
        # diag(3, 0) is singular.  Under a 250-byte cap rows 0-5 (112 bytes
        # each) make three chunks, and row 6, the last bucket, the fourth.
        idx_row = np.concatenate([np.repeat(np.arange(6), 2), [6, 6, 6]])
        idx_other = np.concatenate([np.tile([0, 1], 6), [0, 0, 0]])
        vals = np.linspace(1.0, 5.0, len(idx_row))
        other = np.array([[1.0, 0.0], [0.0, 1.0]])
        groups = _row_groups(7, idx_row, idx_other, vals)
        with pytest.raises(SolverError) as want:
            solve_half_whole_oracle(groups, other, 0.0)
        chunks = []
        with pytest.raises(SolverError) as got:
            solve_in_chunks(groups, other, 0.0, np.empty(len(vals)), 250, chunks)
        assert len(chunks) == 4 and chunks[-1] == (6, 7)
        assert str(got.value) == str(want.value)
        assert "use lambda > 0" in str(got.value)

    def test_peak_memory_within_cap(self):
        # One half-step holds its outputs (the bucket-order result, its
        # take into row order, and the predictions) and one chunk: under a
        # 64 KiB cap that is far below the whole-half oracle's 1.4 MB of
        # gathered factors, so the bound fails against the oracle.
        rng = np.random.default_rng(5)
        n_rows, n_other, k = 300, 400, 6
        idx_row = rng.permutation(
            np.repeat(np.arange(n_rows), rng.integers(20, 180, n_rows))
        )
        idx_other = rng.integers(0, n_other, len(idx_row))
        vals = rng.uniform(1.0, 5.0, len(idx_row))
        other = rng.normal(size=(n_other, k))
        groups = _row_groups(n_rows, idx_row, idx_other, vals)
        cap = 1 << 16

        def traced(solve):
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                pred = np.empty(len(vals))
                x = solve(pred)
                return tracemalloc.get_traced_memory()[1] - start, x, pred
            finally:
                if not tracing:
                    tracemalloc.stop()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(factorize, "ALS_CHUNK_BYTES", cap)
            peak, x, pred = traced(lambda p: _solve_half(groups, other, 0.1, p))
        bound = cap + 2 * x.nbytes + pred.nbytes + (16 << 10)
        assert peak <= bound
        oracle_peak, want, want_pred = traced(
            lambda p: solve_half_whole_oracle(groups, other, 0.1, p)
        )
        assert oracle_peak > bound
        assert np.array_equal(x, want) and np.array_equal(pred, want_pred)


class TestRowGroupsLayout:
    @staticmethod
    def problem(rng, nnz=20_000, n_rows=300, n_other=500):
        idx_row = rng.integers(0, n_rows, nnz)
        idx_other = rng.integers(0, n_other, nnz)
        return n_rows, idx_row, idx_other, rng.uniform(1.0, 5.0, nnz)

    def test_at_most_sixteen_bytes_per_rating(self, rng):
        """A rating's other-side index, value and original position take at
        most 16 bytes: two int32 indices, and its float64 value shared with
        the array given, not copied."""
        n_rows, idx_row, idx_other, vals = self.problem(rng)
        groups = _row_groups(n_rows, idx_row, idx_other, vals)
        assert groups.vals is vals
        assert groups.other.nbytes + groups.source.nbytes == 8 * len(vals)
        per_rating = groups.other.nbytes + groups.vals.nbytes + groups.source.nbytes
        assert per_rating <= 16 * len(vals)

    @pytest.mark.parametrize("largest, want", [
        (0, np.int32), (2**31 - 1, np.int32), (2**31, np.int64), (2**40, np.int64),
    ])
    def test_index_dtype_is_int32_below_two_to_the_31(self, largest, want):
        assert factorize._index_dtype(largest) == np.dtype(want)

    def test_int64_layout_solves_the_same(self, rng, monkeypatch):
        """A layout whose indices are int64, as above 2**31, gives the same
        solution and predictions, to the last bit, as the int32 one."""
        n_rows, idx_row, idx_other, vals = self.problem(rng)
        other = rng.normal(size=(500, 4))
        narrow = _row_groups(n_rows, idx_row, idx_other, vals)
        monkeypatch.setattr(factorize, "_index_dtype", lambda largest: np.dtype(np.int64))
        wide = _row_groups(n_rows, idx_row, idx_other, vals)
        assert (narrow.other.dtype, wide.other.dtype) == (np.int32, np.int64)
        assert (narrow.source.dtype, wide.source.dtype) == (np.int32, np.int64)
        p32, p64 = np.empty(len(vals)), np.empty(len(vals))
        x32 = _solve_half(narrow, other, 0.1, p32)
        x64 = _solve_half(wide, other, 0.1, p64)
        assert np.array_equal(x32, x64) and np.array_equal(p32, p64)


class TestTrainAls:
    def test_single_cell(self):
        rm = RatingsMatrix(1, 1, [0], [0], [4.0])
        model = train_als(rm, AlsConfig(rank=1, lam=1e-9, max_iterations=5))
        assert predict_rating(model, 0, 0) == pytest.approx(4.0, abs=1e-6)

    def test_exact_rank_one_product(self):
        s, t = (1.0, 2.0), (1.0, 3.0)
        rm = RatingsMatrix(2, 2, [0, 0, 1, 1], [0, 1, 0, 1],
                           [s[u] * t[i] for u in range(2) for i in range(2)],
                           scale=(1.0, 6.0))
        model = train_als(
            rm, AlsConfig(rank=1, lam=1e-9, max_iterations=50, convergence_tol=0.0)
        )
        assert training_rmse(model, rm) < 1e-6

    def test_beats_spectral_oracle_margin(self, rng):
        R = rng.uniform(1.0, 5.0, size=(4, 4))
        rm = complete_matrix_ratings(R, scale=(1.0, 5.0))
        model = train_als(
            rm, AlsConfig(rank=2, lam=1e-6, max_iterations=200, convergence_tol=1e-12)
        )
        assert training_rmse(model, rm) <= best_rank_k_rmse_oracle(R, 2) + 1e-3

    def test_rmse_monotone_over_iterations(self, rng):
        # raw RMSE is monotone (to slack) while regularization is small;
        # at larger lambda only the regularized objective is monotone and
        # the stopping rule halts at the first non-improving iteration
        rm, _ = complete_low_rank_ratings(12, 9, 3, rng)
        history = []
        train_als(
            rm,
            AlsConfig(rank=2, lam=1e-6, max_iterations=25, convergence_tol=0.0),
            on_iteration=lambda it, rmse: history.append(rmse),
        )
        assert len(history) >= 5
        assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize("rank", [1, 3, 8])
    def test_reported_rmse_is_training_rmse(self, rng, rank):
        # the RMSE taken from the item half-step's predictions is the one
        # recomputed from the finished model, to the last bit
        entries = [(u, i, float(rng.integers(1, 6)))
                   for u in range(15) for i in range(11)
                   if (u + i) % 4 == 0 or rng.random() < 0.3]
        rm = RatingsMatrix(15, 11, *zip(*entries))
        for j in range(1, 6):
            history = []
            model = train_als(
                rm,
                AlsConfig(rank=rank, lam=1e-3, max_iterations=j, convergence_tol=0.0),
                on_iteration=lambda it, rmse: history.append(rmse),
            )
            assert len(history) == j
            assert history[-1] == training_rmse(model, rm)

    def test_stops_when_improvement_below_tol(self, rng):
        rm, _ = complete_low_rank_ratings(12, 9, 3, rng)
        history = []
        train_als(
            rm,
            AlsConfig(rank=2, lam=1e-2, max_iterations=40, convergence_tol=1e-4),
            on_iteration=lambda it, rmse: history.append(rmse),
        )
        assert len(history) < 40
        assert history[-2] - history[-1] < 1e-4
        # every earlier step improved by at least the tolerance
        assert all(a - b >= 1e-4 for a, b in zip(history[:-2], history[1:-1]))

    def test_unregularized_exact_fit_when_rank_suffices(self, rng):
        rm, _ = complete_low_rank_ratings(10, 8, 2, rng)
        model = train_als(
            rm, AlsConfig(rank=2, lam=0.0, max_iterations=60, convergence_tol=0.0)
        )
        assert training_rmse(model, rm) < 1e-6

    def test_doubling_lambda_never_improves_rmse(self, rng):
        rm, _ = complete_low_rank_ratings(10, 8, 3, rng)
        lams = [1e-4 * 2**j for j in range(8)]
        rmses = [
            training_rmse(
                train_als(rm, AlsConfig(rank=2, lam=lam, max_iterations=15, seed=3)),
                rm,
            )
            for lam in lams
        ]
        assert all(b >= a - 1e-12 for a, b in zip(rmses, rmses[1:]))

    def test_bit_identical_reruns(self, rng):
        rm, _ = complete_low_rank_ratings(8, 6, 2, rng)
        cfg = AlsConfig(rank=2, lam=0.01, max_iterations=7, seed=42)
        m1 = train_als(rm, cfg)
        m2 = train_als(rm, cfg)
        np.testing.assert_array_equal(m1.user_factors, m2.user_factors)
        np.testing.assert_array_equal(m1.item_factors, m2.item_factors)

    def test_seed_changes_initialization(self, rng):
        rm, _ = complete_low_rank_ratings(8, 6, 2, rng)
        m1 = train_als(rm, AlsConfig(rank=2, lam=0.01, max_iterations=1, seed=1))
        m2 = train_als(rm, AlsConfig(rank=2, lam=0.01, max_iterations=1, seed=2))
        assert not np.array_equal(m1.item_factors, m2.item_factors)

    def test_empty_ratings_rejected(self):
        rm = RatingsMatrix(0, 0, [], [], [])
        with pytest.raises(ValidationError):
            train_als(rm, AlsConfig(rank=1, lam=0.1))

    def test_uncovered_user_rejected(self):
        rm = RatingsMatrix(2, 1, [0], [0], [3.0])
        with pytest.raises(ValidationError, match="no ratings"):
            train_als(rm, AlsConfig(rank=1, lam=0.1))

    def test_singular_at_zero_lambda_advises(self):
        # one rating per user cannot pin down two factors without a penalty
        rm = RatingsMatrix(2, 2, [0, 1], [0, 1], [3.0, 4.0])
        with pytest.raises(SolverError, match="lambda > 0"):
            train_als(rm, AlsConfig(rank=2, lam=0.0, max_iterations=3))

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            AlsConfig(rank=0, lam=0.1)
        with pytest.raises(ValidationError):
            AlsConfig(rank=1, lam=-0.1)


class TestTrainingRmse:
    def make_model(self, user_rows, item_rows):
        from reclens.datamodel import FactorModel

        return FactorModel(
            rank=len(user_rows[0]), lam=0.0,
            user_factors=np.array(user_rows, dtype=float),
            item_factors=np.array(item_rows, dtype=float),
        )

    def test_exact_model_zero(self):
        model = self.make_model([[2.0]], [[2.0]])
        rm = RatingsMatrix(1, 1, [0], [0], [4.0])
        assert training_rmse(model, rm) == 0.0

    def test_single_residual(self):
        model = self.make_model([[1.0]], [[3.0]])
        rm = RatingsMatrix(1, 1, [0], [0], [4.0])
        assert training_rmse(model, rm) == 1.0

    def test_symmetric_residuals(self):
        # predictions (3, 3) against ratings (4, 2): residuals +1 and -1
        model = self.make_model([[1.0]], [[3.0], [3.0]])
        rm = RatingsMatrix(1, 2, [0, 0], [0, 1], [4.0, 2.0])
        assert training_rmse(model, rm) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=100)
    @given(sparse_triplets(), st.integers(1, 40))
    def test_blocks_bit_identical_to_one_gather(self, triplets, block):
        from reclens.datamodel import FactorModel

        users, items, vals, n_users, n_items, k, lam, rng = triplets
        _, first = np.unique(users * n_items + items, return_index=True)
        rm = RatingsMatrix(n_users=n_users, n_items=n_items, users=users[first],
                           items=items[first], ratings=vals[first])
        model = FactorModel(rank=k, lam=lam,
                            user_factors=rng.normal(size=(n_users, k)),
                            item_factors=rng.normal(size=(n_items, k)))
        pred = np.einsum("ij,ij->i", model.user_factors[rm.users],
                         model.item_factors[rm.items])
        want = float(np.sqrt(np.mean((pred - rm.ratings) ** 2)))
        with pytest.MonkeyPatch.context() as mp:
            # blocks of ``block`` ratings: two k-float rows each
            mp.setattr(factorize, "ALS_CHUNK_BYTES", 16 * k * block)
            assert training_rmse(model, rm) == want

    def test_empty_rejected(self):
        model = self.make_model([[1.0]], [[1.0]])
        rm = RatingsMatrix(1, 1, [], [], [])
        with pytest.raises(ValidationError):
            training_rmse(model, rm)


class TestPersistence:
    def test_round_trip_is_lossless(self, rng, tmp_path):
        rm, _ = complete_low_rank_ratings(6, 5, 2, rng)
        rm = RatingsMatrix(
            n_users=rm.n_users, n_items=rm.n_items, users=rm.users,
            items=rm.items, ratings=rm.ratings, scale=rm.scale,
            user_ids=tuple(f"u{i}" for i in range(6)),
            item_ids=tuple(f"m{i}" for i in range(5)),
        )
        model = train_als(rm, AlsConfig(rank=2, lam=0.01, max_iterations=5))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.user_factors, model.user_factors)
        np.testing.assert_array_equal(loaded.item_factors, model.item_factors)
        assert loaded.rank == model.rank
        assert loaded.lam == model.lam
        assert loaded.user_ids == model.user_ids
        assert loaded.item_ids == model.item_ids

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValidationError):
            load_model(path)


def test_load_model_rejects_unknown_version(tmp_path):
    import json

    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format": "reclens-factor-model", "version": 99}))
    with pytest.raises(ValidationError, match="version"):
        load_model(path)
