"""Kernels, Gram matrices, and empirical mean embeddings.

An embedding is kept in dual form throughout: a kernel plus a weighted
sample set. Every RKHS quantity (inner products, squared distances)
reduces to a Gram computation over the stored samples, so all algebra is
exact up to floating point.

Reductions avoid BLAS on purpose: distances accumulate over feature axes
in a fixed order, and one engine, `_block_row_sums`, computes every
kernel block of an inner product <a, b>. It weights a block's columns by
b's weights and sums each row pairwise over one column segment per
column embedding; the entry is then sum_i w_i r_i, pairwise again. A
self product, whose segment's columns are the row embedding's own
samples, uses only the strictly lower triangle of its symmetric Gram:
row i is summed as a full row with exact zeros from column i on, and
the diagonal, exactly 1, enters as sum_i w_i (w_i + 2 r_i). The
summation tree depends only on the shapes, so repeated runs give
bit-identical results on any machine. The engine has two callers:

- `inner` sums one segment over cache-sized row blocks, split by work
  across one worker thread per usable CPU, each with its own buffers; a
  self product runs `_triangle_blocks`, which compute only the parts of
  each row's pairwise summation tree that hold the triangle. Neither the
  block height nor the number of workers affects any bit.
- `embedding_gram`, when its stacked rows times stacked columns fit in
  one block, runs one block per row embedding against the stacked
  columns, one segment each, so every entry has the bits of `inner`
  without an `inner` call. A larger Gram calls `inner` once per entry.

The bandwidth median, `median_pairwise_distance`, comes in two parts so
that a caller can keep the costly one: `distance_run` sorts one pool's
distinct-row distances with their pair counts, and `median_of_runs`
searches float64 bit patterns over any list of such runs, 64 probes a
round with one `searchsorted` per run, in about 11 rounds. The median of
a union of pools is the same bits whether each run is built fresh or
kept from an earlier call.

`eval_kernel`, `gram`, `mmd2` and `median_pairwise_distance` are off the
path of the main commands; they stay public because `distreg oracle`
calls them (its `gram` and `median` suites).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

GAUSSIAN = "gaussian"
LAPLACE = "laplace"
_FAMILIES = (GAUSSIAN, LAPLACE)

__all__ = [
    "GAUSSIAN",
    "LAPLACE",
    "KernelConfig",
    "SampleSet",
    "Embedding",
    "eval_kernel",
    "gram",
    "embed",
    "inner",
    "embedding_gram",
    "mmd2",
    "DistanceRun",
    "distance_run",
    "median_of_runs",
    "median_pairwise_distance",
    "rho_from_median",
    "combine",
    "pairwise_distances",
]


@dataclass(frozen=True)
class KernelConfig:
    """Kernel family and bandwidth rho.

    gaussian: k(x, y) = exp(-rho * ||x - y||^2)   (squared Euclidean, no 1/2 factor)
    laplace:  k(x, y) = exp(-rho * ||x - y||_1)
    """

    family: str
    rho: float

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {_FAMILIES}"
            )
        rho = float(self.rho)
        if not np.isfinite(rho) or rho <= 0.0:
            raise ValueError(f"kernel bandwidth rho must be positive and finite, got {self.rho}")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """A finite set of D-dimensional real vectors from one distribution.

    Stored as an immutable (n, dim) float64 array; 1-d input is treated
    as n scalar samples.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("samples must be a non-empty (n, dim) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def dim(self) -> int:
        return int(self.samples.shape[1])

    def __len__(self) -> int:
        return int(self.samples.shape[0])


@dataclass(frozen=True, eq=False)
class Embedding:
    """Empirical mean embedding sum_i weights[i] * k(samples[i], .).

    Uniform weights (from `embed`) represent a probability embedding.
    Arbitrary signed weights arise as outputs of the linear regression
    operators and are allowed.
    """

    kernel: KernelConfig
    sample_set: SampleSet
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != len(self.sample_set):
            raise ValueError(
                f"got {w.shape[0]} weights for {len(self.sample_set)} samples"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.sample_set.dim


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, SampleSet):
        return x.samples
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def _dists(
    X: np.ndarray,
    Y: np.ndarray,
    family: str,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """(len(X), len(Y)) matrix of squared Euclidean (gaussian) or l1 distances.

    Accumulates one feature axis at a time; fixed order, no BLAS. Writes
    into `out`, and uses `tmp` for each further axis, when they are given.
    """
    if out is None:
        out = np.empty((X.shape[0], Y.shape[0]))
    if tmp is None and X.shape[1] > 1:
        tmp = np.empty_like(out)
    fold = np.square if family == GAUSSIAN else np.abs
    np.subtract(X[:, 0, None], Y[None, :, 0], out=out)
    fold(out, out=out)
    for d in range(1, X.shape[1]):
        np.subtract(X[:, d, None], Y[None, :, d], out=tmp)
        fold(tmp, out=tmp)
        out += tmp
    return out


def _kernel_matrix(
    k: KernelConfig,
    X: np.ndarray,
    Y: np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    out = _dists(X, Y, k.family, out, tmp)
    np.multiply(out, -k.rho, out=out)
    np.exp(out, out=out)
    return out


# elements per row block of the inner-product reduction: 1 MiB of float64, so
# the block and its per-axis scratch stay in a core's 2 MiB L2 cache
_BLOCK_ELEMS = 1 << 17


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _aligned_empty(size: int) -> np.ndarray:
    """Uninitialised float64 vector of `size` elements starting on a 64-byte boundary."""
    raw = np.empty(size + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + size]


def _pairwise_widths(n: int) -> list[int]:
    """Prefix lengths on the left edge of numpy's pairwise summation tree for n values.

    numpy sums n > 128 values as the sum of the first n2 and of the other
    n - n2, with n2 = n // 2 rounded down to a multiple of 8, and recurses
    into each part. A row of n values whose entries from index p on are
    exact zeros therefore sums, bit for bit, to the sum of its first c
    values for every listed c >= p: each right part cut off adds exactly 0.
    """
    widths = [n]
    while n > 128:
        n = n // 2 - n // 2 % 8
        widths.append(n)
    return widths


def _triangle_blocks(n: int) -> list[tuple[int, int, int, int]]:
    """Row blocks (i0, i1, cols, width) of the strictly lower triangle of an n x n matrix.

    Row i holds columns j < i. A block computes columns [0, cols) of rows
    i0..i1 - 1 and sums each row over `width` values: the shortest of
    `_pairwise_widths(n)` that holds column i1 - 2. cols = min(i1, width),
    one column more than the rows need where that fits, so that the only
    block of a small triangle, and the last block of a large one, compute
    whole, contiguous rows. A block takes the most rows that keep rows x
    width within `_BLOCK_ELEMS`, and at least one. It also takes at most
    i0 // 4 rows, or the rows a full-width block holds if that is more,
    because it computes, and wastes, the upper half of its last rows x
    rows columns.
    """
    widths = _pairwise_widths(n)[::-1]
    blocks = []
    i0 = 0
    while i0 < n:
        most = max(_BLOCK_ELEMS // n, i0 // 4)
        # rows i <= c may be summed over c values
        i1 = max(i0 + 1, *(min(c + 1, n, i0 + most, i0 + _BLOCK_ELEMS // c) for c in widths))
        width = next(c for c in widths if c >= i1 - 1)
        blocks.append((i0, i1, min(i1, width), width))
        i0 = i1
    return blocks


@functools.lru_cache(maxsize=32)
def _diagonal_mask(rows: int, cols: int) -> np.ndarray:
    """Read-only (rows, cols) mask of the entries (r, q) with q >= r.

    Over columns i0.. of a block of rows i0.., it marks the entries of
    columns j >= i in row i.
    """
    mask = np.arange(cols) >= np.arange(rows)[:, None]
    mask.flags.writeable = False
    return mask


# numpy's default ufunc buffer, in elements
_NUMPY_BUFSIZE = 8192


class _SmallUfuncBuffer:
    """Context manager: its body runs with a 128-element ufunc buffer if its
    arrays hold more than `_NUMPY_BUFSIZE` elements (`size`), else with
    numpy's default.

    With the default, numpy (2.4 measured) runs a broadcast operation on
    rows shorter than about 2,700 columns, or an operation on a view into
    wider rows, 3-4x slower; arrays that fit in the default buffer gain
    nothing. The buffer size changes no value; numpy keeps it per thread
    (a context variable), and the old size is restored on exit. A class,
    not a generator, because a `with` over it costs about 0.4 us instead
    of 1.8 us; every `inner`, one-block `embedding_gram` and
    `pairwise_distances` call enters it, over a thousand times in a
    `distreg evaluate` of the criterion-8 grid.
    """

    __slots__ = ("size", "old")

    def __init__(self, size: int) -> None:
        self.size = size

    def __enter__(self) -> None:
        self.old = np.setbufsize(128) if self.size > _NUMPY_BUFSIZE else None

    def __exit__(self, *exc) -> None:
        if self.old is not None:
            np.setbufsize(self.old)


# np.sum without its Python wrapper: the same reduction, bit for bit
_add = np.add.reduce


def _block_row_sums(
    k: KernelConfig,
    X: np.ndarray,
    Y: np.ndarray,
    wb: np.ndarray,
    blocks: Sequence[tuple[int, int, int, int]],
    segments: Sequence[tuple[int, int, bool]],
    row_sums: np.ndarray,
) -> None:
    """Fill row_sums[s, i0:i1] for each block (i0, i1, cols, width), in order,
    and each column segment s = (c0, c1, own).

    The block's rows get wb_j k(X_i, Y_j) in columns j < cols and exact
    zeros from there up to `width`. Row i of segment s sums its columns
    c0..min(c1, width) - 1 pairwise; an `own` segment, whose columns are
    the samples of the row embedding itself, first zeroes them from column
    c0 + i on. One block buffer and one per-axis scratch buffer of its
    own, 64-byte aligned when they are larger than numpy's ufunc buffer,
    are reused by every block of the run.
    """
    size = max((i1 - i0) * width for i0, i1, _, width in blocks)
    # blocks that fit in numpy's default ufunc buffer gain nothing from aligned buffers
    empty = _aligned_empty if size > _NUMPY_BUFSIZE else np.empty
    buf = empty(size)
    tmp = None
    if X.shape[1] > 1:
        tmp = empty(max((i1 - i0) * cols for i0, i1, cols, _ in blocks))
    with _SmallUfuncBuffer(size):
        for i0, i1, cols, width in blocks:
            h = i1 - i0
            rows = buf[: h * width].reshape(h, width)
            block = rows[:, :cols]
            scratch = None if tmp is None else tmp[: h * cols].reshape(h, cols)
            _kernel_matrix(k, X[i0:i1], Y[:cols], block, scratch)
            np.multiply(block, wb[:cols], out=block)
            rows[:, cols:] = 0.0
            for s, (c0, c1, own) in enumerate(segments):
                if own:
                    end = min(c1, cols)
                    np.copyto(rows[:, c0 + i0 : end], 0.0, where=_diagonal_mask(h, end - c0 - i0))
                _add(rows[:, c0 : min(c1, width)], axis=1, out=row_sums[s, i0:i1])


def _row_sums(
    k: KernelConfig,
    X: np.ndarray,
    Y: np.ndarray,
    wb: np.ndarray,
    blocks: list[tuple[int, int, int, int]],
    segments: list[tuple[int, int, bool]],
) -> np.ndarray:
    """Row sums of `_block_row_sums`, one row per segment, split across the usable CPUs.

    The blocks are cut into one contiguous run per worker, w = min(usable
    CPUs, blocks), by work: laid end to end, a block goes to the run of
    the w equal parts its middle falls in. A block's work counts two units
    per computed kernel value and one per summed value, about what each
    costs. The calling thread computes the first run and a pool of w - 1
    threads, joined before this returns, the others; numpy releases the
    GIL inside each block's ufuncs. Each row is summed within one block,
    so w changes no bit. A single block asks for no CPU count.
    """
    row_sums = np.empty((len(segments), X.shape[0]))
    workers = min(_usable_cpus(), len(blocks)) if len(blocks) > 1 else 1
    if workers == 1:
        _block_row_sums(k, X, Y, wb, blocks, segments, row_sums)
        return row_sums
    work = [(i1 - i0) * (2 * cols + width) for i0, i1, cols, width in blocks]
    total = sum(work)
    runs = [[] for _ in range(workers)]
    done = 0
    for block, units in zip(blocks, work):
        runs[(2 * done + units) * workers // (2 * total)].append(block)
        done += units
    # the first and the last block always land in different runs
    runs = [run for run in runs if run]
    # imported here: with the `logging` it loads it holds about 0.6 MB of RSS,
    # which a process whose reductions each fit one block (a `distreg
    # evaluate` on the criterion-8 grid, for one) need not pay
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(runs) - 1) as pool:
        futures = [
            pool.submit(_block_row_sums, k, X, Y, wb, run, segments, row_sums)
            for run in runs[1:]
        ]
        _block_row_sums(k, X, Y, wb, runs[0], segments, row_sums)
        for future in futures:
            future.result()
    return row_sums


def _entry(w: np.ndarray, r: np.ndarray, own: bool) -> float:
    """<a, b> from a's weights w and its row sums r against b, reduced pairwise.

    sum_i w_i r_i; for a self product, whose row sums leave out the
    diagonal k(x, x) = exp(-0) = 1 of both families and every column
    after it, sum_i w_i (w_i + 2 r_i).
    """
    return float(_add(w * (w + 2.0 * r) if own else w * r))


def eval_kernel(k: KernelConfig, x, y) -> float:
    """Evaluate k(x, y) for two vectors. Result lies in (0, 1]."""
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    yv = np.asarray(y, dtype=np.float64).reshape(-1)
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise ValueError("kernel inputs must be finite")
    return float(_kernel_matrix(k, xv[None, :], yv[None, :])[0, 0])


def gram(k: KernelConfig, X, Y) -> np.ndarray:
    """Kernel matrix with entry (i, j) = k(X_i, Y_j)."""
    Xm, Ym = _as_matrix(X), _as_matrix(Y)
    if Xm.shape[1] != Ym.shape[1]:
        raise ValueError(f"dimension mismatch: {Xm.shape[1]} vs {Ym.shape[1]}")
    return _kernel_matrix(k, Xm, Ym)


def embed(k: KernelConfig, X: SampleSet) -> Embedding:
    """Empirical mean embedding of a sample set (uniform weights 1/n)."""
    n = len(X)
    return Embedding(kernel=k, sample_set=X, weights=np.full(n, 1.0 / n))


def _check_compatible(a: Embedding, b: Embedding) -> None:
    if a.kernel != b.kernel:
        raise ValueError(f"kernel mismatch: {a.kernel} vs {b.kernel}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def inner(a: Embedding, b: Embedding) -> float:
    """RKHS inner product <a, b> = w_a^T G w_b over the two sample sets.

    One column segment over all of b's samples, in row blocks of about
    `_BLOCK_ELEMS` values split across worker threads (`_row_sums`). A
    self product, `inner(a, a)` on one object, computes only the strictly
    lower triangle of its symmetric Gram, in `_triangle_blocks`; its bits
    may differ in the last places from `inner(a, b)` with b an equal copy.
    """
    _check_compatible(a, b)
    n, m, own = len(a.weights), len(b.weights), a is b
    if own:
        blocks = _triangle_blocks(n)
    else:
        height = min(n, max(1, _BLOCK_ELEMS // m))
        blocks = [(i0, min(i0 + height, n), m, m) for i0 in range(0, n, height)]
    X, Y = a.sample_set.samples, b.sample_set.samples
    r = _row_sums(a.kernel, X, Y, b.weights, blocks, [(0, m, own)])
    return _entry(a.weights, r[0], own)


def embedding_gram(
    rows: Sequence[Embedding], cols: Sequence[Embedding] | None = None
) -> np.ndarray:
    """Matrix of <rows_i, cols_j>; without `cols`, the symmetric Gram of `rows`.

    Every entry has the bits of `inner(rows_i, cols_j)`, a self product
    (rows_i is cols_j) included; the symmetric Gram computes the entries
    with j >= i and mirrors them. When the stacked rows times the stacked
    columns fit in one `_BLOCK_ELEMS` block, each row embedding is one
    block against the stacked samples of its columns (j >= i when
    symmetric), with one column segment per column embedding, and no
    `inner` call is made. A larger Gram makes one call to the module-level
    `inner` per entry, which splits each product into row blocks and
    across threads.
    """
    symmetric = cols is None
    rows = tuple(rows)
    cols = rows if symmetric else tuple(cols)
    G = np.zeros((len(rows), len(cols)))
    if not rows or not cols:
        return G
    stacked = sum(len(e.weights) for e in rows) * sum(len(e.weights) for e in cols)
    if stacked > _BLOCK_ELEMS:
        for i, a in enumerate(rows):
            for j in range(i if symmetric else 0, len(cols)):
                G[i, j] = inner(a, cols[j])
                if symmetric:
                    G[j, i] = G[i, j]
        return G
    for e in rows if symmetric else (*rows, *cols):
        _check_compatible(rows[0], e)
    Y = np.concatenate([e.sample_set.samples for e in cols])
    wy = np.concatenate([e.weights for e in cols])
    starts = np.cumsum([0, *(len(e.weights) for e in cols)]).tolist()
    for i, a in enumerate(rows):
        j0 = i if symmetric else 0
        c0, span = starts[j0], starts[-1] - starts[j0]
        js = range(j0, len(cols))
        segments = [(starts[j] - c0, starts[j + 1] - c0, cols[j] is a) for j in js]
        block = [(0, len(a.weights), span, span)]
        r = _row_sums(a.kernel, a.sample_set.samples, Y[c0:], wy[c0:], block, segments)
        for j, (_, _, own), r_j in zip(js, segments, r):
            G[i, j] = _entry(a.weights, r_j, own)
            if symmetric:
                G[j, i] = G[i, j]
    return G


def mmd2(a: Embedding, b: Embedding) -> float:
    """Squared RKHS distance ||a - b||^2; tiny negative rounding is clamped to 0."""
    v = inner(a, a) - 2.0 * inner(a, b) + inner(b, b)
    if v < 0.0:
        if v < -1e-10:
            raise ValueError(f"mmd2 came out significantly negative ({v}); inputs inconsistent")
        v = 0.0
    return v


def _upper_triangle(n: int) -> np.ndarray:
    """Mask of the (i, j), i < j, entries of an n x n matrix; row-major order."""
    return np.arange(n)[:, None] < np.arange(n)[None, :]


def pairwise_distances(X, family: str = GAUSSIAN) -> np.ndarray:
    """Condensed vector of pairwise distances (i < j).

    Euclidean for the gaussian family, l1 for laplace — the metrics the
    respective kernels are built on.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    Xm = _as_matrix(X)
    with _SmallUfuncBuffer(Xm.shape[0] ** 2):
        D = _dists(Xm, Xm, family)[_upper_triangle(Xm.shape[0])]
    if family == GAUSSIAN:
        np.sqrt(D, out=D)
    return D


def subsample_rows(X: np.ndarray, cap: int = 1000) -> np.ndarray:
    """Deterministic row subsample: every ceil(n/cap)-th row, at most cap rows."""
    n = X.shape[0]
    if n <= cap:
        return X
    stride = -(-n // cap)
    return X[::stride][:cap]


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X's distinct rows, in lexicographic order, and as int32 how often each occurs.

    One `np.lexsort` and a compare of adjacent rows; `np.unique(axis=0)`
    gives the same rows and counts in another order, several times slower.
    """
    X = X[np.lexsort(X.T[::-1])]
    first = np.ones(X.shape[0], dtype=bool)
    first[1:] = (X[1:] != X[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return X[starts], np.diff(starts, append=X.shape[0]).astype(np.int32)


# bit patterns that one bisection round of `median_of_runs` probes
_PROBES = 64


@dataclass(frozen=True, eq=False)
class DistanceRun:
    """One pool's within-pool pairwise distances, as `median_of_runs` counts them.

    `dists` holds the distances between the pool's distinct rows, sorted
    ascending; `upto[i]` is how many of the pool's pairs the first i of them
    stand for (int32, `upto[0]` = 0); `zeros` counts the pairs of equal rows,
    whose distance is exactly 0.
    """

    dists: np.ndarray
    upto: np.ndarray
    zeros: int

    @property
    def pairs(self) -> int:
        return self.zeros + int(self.upto[-1])


def distance_run(pool, family: str = GAUSSIAN) -> DistanceRun:
    """The `DistanceRun` of one pool, after `subsample_rows`.

    The pool collapses to its distinct rows with their counts c, and one
    `pairwise_distances` call on the distinct rows gives every distance:
    a pair of distinct rows u, v stands for c_u * c_v equal distances, and
    each row for c (c - 1) / 2 exact zeros. Equal rows give bit-identical
    distances, so the multiset is exactly that of `pairwise_distances` on
    the subsampled pool.
    """
    rows, counts = _distinct_rows(subsample_rows(_as_matrix(pool)))
    dists = pairwise_distances(rows, family)
    # int32 holds every count: a pool has at most C(1000, 2) pairs after subsample_rows
    pairs = np.multiply.outer(counts, counts)[_upper_triangle(rows.shape[0])]
    order = dists.argsort()
    upto = np.zeros(order.size + 1, dtype=np.int32)
    np.cumsum(pairs[order], dtype=np.int32, out=upto[1:])
    dists = dists[order]
    # read-only: a caller may keep a run and share it between calls
    dists.flags.writeable = upto.flags.writeable = False
    return DistanceRun(dists, upto, int((counts * (counts - 1)).sum()) // 2)


def median_of_runs(runs: Sequence[DistanceRun]) -> float:
    """Median of the union of the runs' distances, each counted as often as its run says.

    The count of distances <= t is the zeros plus one `np.searchsorted`
    per run; the k-th smallest is the least t with a count above k. It is
    found over float64 bit patterns, which sort as non-negative floats do,
    in rounds that each count at up to 64 evenly spaced patterns of the
    remaining range with one `searchsorted` per run, so about 11 rounds
    span the 2**63 patterns. The counts are sums, so neither the order of
    the runs nor where each was built changes any bit.
    """
    zeros = sum(run.zeros for run in runs)
    total = sum(run.pairs for run in runs)
    if total == 0:
        raise ValueError("median pairwise distance needs a pool of at least 2 samples")

    def kth(k: int) -> float:  # 0-based
        # the answer's bit pattern lies in [lo, hi]; hi, that of inf, counts every distance
        lo, hi = 0, 0x7FF0000000000000
        while lo < hi:
            stride = -(-(hi - lo) // _PROBES)
            probes = np.arange(lo + stride - 1, hi, stride, dtype=np.int64)
            t = probes.view(np.float64)
            count = np.full(probes.size, zeros, dtype=np.int64)
            for run in runs:
                count += run.upto[run.dists.searchsorted(t, "right")]
            above = count > k
            i = int(above.argmax()) if above.any() else probes.size
            if i < probes.size:  # the first probe counting above k
                hi = int(probes[i])
            if i > 0:  # the probe before it counts k or fewer
                lo = int(probes[i - 1]) + 1
        return float(np.int64(lo).view(np.float64))

    upper = kth(total // 2)
    return upper if total % 2 else float(np.mean([kth(total // 2 - 1), upper]))


def median_pairwise_distance(pools: Sequence, family: str = GAUSSIAN) -> float:
    """Median of the union of each pool's within-pool pairwise distances.

    Equal to `np.median` over the concatenated `pairwise_distances` of
    every pool, after `subsample_rows`, but that vector is never built:
    it is `median_of_runs` over each pool's `distance_run`.
    """
    return median_of_runs([distance_run(pool, family) for pool in pools])


def rho_from_median(m: float, family: str) -> float:
    """Median-heuristic bandwidth for median distance m > 0.

    gaussian: rho = 1 / (2 m^2) with m a Euclidean distance;
    laplace:  rho = 1 / m with m an l1 distance.
    A median of 0, which holds when at least half of the pairwise
    distances are zero (not only when every sample is the same), is refused,
    and so is one that is not finite (distances past the float range).
    """
    if not np.isfinite(m):
        raise ValueError(f"median pairwise distance is {m}, not finite; pass an explicit rho")
    if m <= 0.0:
        raise ValueError(
            "median pairwise distance is zero (at least half of the pairwise distances "
            "are zero); pass an explicit rho"
        )
    if family == GAUSSIAN:
        return 1.0 / (2.0 * m * m)
    return 1.0 / m


def combine(embeddings: Sequence[Embedding], coeffs) -> Embedding:
    """Linear combination sum_i coeffs[i] * embeddings[i].

    Represented exactly by concatenating sample sets and scaling weights;
    the result may have signed, non-normalized weights.
    """
    if len(embeddings) == 0:
        raise ValueError("need at least one embedding")
    c = np.asarray(coeffs, dtype=np.float64).reshape(-1)
    if c.shape[0] != len(embeddings):
        raise ValueError(f"got {c.shape[0]} coefficients for {len(embeddings)} embeddings")
    first = embeddings[0]
    for e in embeddings[1:]:
        _check_compatible(first, e)
    samples = np.vstack([e.sample_set.samples for e in embeddings])
    weights = np.concatenate([c[i] * e.weights for i, e in enumerate(embeddings)])
    return Embedding(kernel=first.kernel, sample_set=SampleSet(samples), weights=weights)
