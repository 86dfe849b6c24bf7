"""Kernel, Gram, and mean-embedding tests."""

import concurrent.futures
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from distreg import (
    GAUSSIAN,
    LAPLACE,
    KernelConfig,
    SampleSet,
    combine,
    embed,
    embedding_gram,
    eval_kernel,
    gram,
    inner,
    mmd2,
)
from distreg import kernels
from distreg.oracles import _double_sum_inner as double_sum_inner
from distreg.kernels import (
    Embedding,
    _dists,
    distance_run,
    median_of_runs,
    median_pairwise_distance,
    pairwise_distances,
    rho_from_median,
)

from util import gaussian_set, reference_median, reference_rho

K_G = KernelConfig(GAUSSIAN, 0.25)
K_L = KernelConfig(LAPLACE, 0.5)


class TestEvalKernel:
    def test_zero_distance_is_one(self):
        x = [0.3, -1.2, 4.0]
        assert eval_kernel(KernelConfig(GAUSSIAN, 1.0), x, x) == 1.0

    def test_gaussian_closed_form(self):
        assert eval_kernel(K_G, [0.0], [2.0]) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_laplace_closed_form(self):
        assert eval_kernel(K_L, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            eval_kernel(K_G, [0.0], [0.0, 1.0])

    def test_non_finite_input(self):
        with pytest.raises(ValueError, match="finite"):
            eval_kernel(K_G, [np.nan], [0.0])

    def test_range_and_equality_case(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.normal(size=2, scale=5), rng.normal(size=2, scale=5)
            v = eval_kernel(K_G, [x[0]], [y[0]])
            assert 0.0 < v <= 1.0
            assert (v == 1.0) == (x[0] == y[0])

    def test_bad_kernel_config(self):
        with pytest.raises(ValueError):
            KernelConfig("cauchy", 1.0)
        with pytest.raises(ValueError):
            KernelConfig(GAUSSIAN, 0.0)
        with pytest.raises(ValueError):
            KernelConfig(GAUSSIAN, -2.0)


class TestGram:
    def test_single_self_similarity(self):
        X = SampleSet(np.array([[1.5]]))
        assert gram(K_G, X, X).tolist() == [[1.0]]

    def test_closed_form_row(self):
        X = SampleSet(np.array([[0.0]]))
        Y = SampleSet(np.array([[0.0], [2.0]]))
        G = gram(K_G, X, Y)
        assert G[0, 0] == 1.0
        assert G[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_random_gram_psd(self):
        # eigen-solve oracle: a Gram matrix must be PSD up to rounding
        rng = np.random.default_rng(1)
        X = SampleSet(rng.normal(size=(3, 2)))
        G = gram(K_G, X, X)
        assert np.min(np.linalg.eigvalsh(G)) >= -1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        X = SampleSet(rng.normal(size=(8, 3)))
        G = gram(K_L, X, X)
        assert np.max(np.abs(G - G.T)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            gram(K_G, SampleSet(np.zeros((2, 1))), SampleSet(np.zeros((2, 2))))


class TestSampleSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(np.zeros((0, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([[np.inf]]))

    def test_1d_promoted(self):
        s = SampleSet(np.array([1.0, 2.0, 3.0]))
        assert s.dim == 1 and len(s) == 3

    def test_immutable(self):
        s = SampleSet(np.array([[1.0]]))
        with pytest.raises(ValueError):
            s.samples[0, 0] = 2.0


class TestEmbed:
    def test_uniform_weights(self):
        e = embed(K_G, SampleSet(np.zeros((4, 1))))
        assert e.weights.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_singleton_weight(self):
        e = embed(K_G, SampleSet(np.zeros((1, 1))))
        assert e.weights.tolist() == [1.0]

    def test_self_inner_equals_gram_mean(self):
        # double-sum oracle: <mu, mu> is the mean of the full Gram matrix
        rng = np.random.default_rng(3)
        X = SampleSet(rng.normal(size=(6, 2)))
        e = embed(K_G, X)
        assert inner(e, e) == pytest.approx(float(np.mean(gram(K_G, X, X))), abs=1e-12)


class TestInner:
    def test_singleton_pair_reduces_to_kernel(self):
        a = embed(K_G, SampleSet(np.array([[0.7]])))
        b = embed(K_G, SampleSet(np.array([[-0.2]])))
        assert inner(a, b) == pytest.approx(eval_kernel(K_G, [0.7], [-0.2]), abs=1e-15)

    def test_two_sample_average_of_four(self):
        xs = [[0.0], [1.0]]
        ys = [[0.5], [2.0]]
        a = embed(K_G, SampleSet(np.array(xs)))
        b = embed(K_G, SampleSet(np.array(ys)))
        expected = np.mean([eval_kernel(K_G, x, y) for x in xs for y in ys])
        assert inner(a, b) == pytest.approx(expected, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = embed(K_L, gaussian_set(rng, 0.0, 5, 2))
        b = embed(K_L, gaussian_set(rng, 1.0, 7, 2))
        assert inner(a, b) == pytest.approx(inner(b, a), rel=1e-12)

    def test_bilinear_in_weights(self):
        rng = np.random.default_rng(5)
        a = embed(K_G, gaussian_set(rng, 0.0, 4))
        b = embed(K_G, gaussian_set(rng, 1.0, 3))
        scaled = combine([a], [2.5])
        assert inner(scaled, b) == pytest.approx(2.5 * inner(a, b), rel=1e-12)

    def test_kernel_mismatch(self):
        a = embed(K_G, SampleSet(np.zeros((2, 1))))
        b = embed(K_L, SampleSet(np.zeros((2, 1))))
        with pytest.raises(ValueError, match="kernel"):
            inner(a, b)

    def test_double_sum_oracle(self):
        rng = np.random.default_rng(6)
        a = embed(K_G, gaussian_set(rng, 0.0, 5, 2))
        b = embed(K_G, gaussian_set(rng, 2.0, 4, 2))
        assert inner(a, b) == pytest.approx(double_sum_inner(K_G, a, b), abs=1e-13)


# (n, m) with the default 2**16-element block: m above the budget (one row per
# block), n not a multiple of the block height, m < 8 over several blocks, and
# calls that one block covers
BLOCK_SHAPES = [(3, 70_000), (500, 300), (14_000, 5), (10, 3), (7, 9)]


def signed_pair(seed, family, n, m, dim):
    """Two embeddings with normal samples and signed normal weights."""
    rng = np.random.default_rng(seed)
    k = KernelConfig(family, 0.3)
    X, Y = rng.normal(size=(n, dim)), rng.normal(size=(m, dim))
    return Embedding(k, SampleSet(X), rng.normal(size=n)), Embedding(k, SampleSet(Y), rng.normal(size=m))


def full_gram_reduction(a, b):
    """<a, b> from the whole Gram, summed row by row and then over the rows, as inner() sums."""
    G = gram(a.kernel, a.sample_set, b.sample_set)
    return float(np.sum(a.weights * np.sum(G * b.weights, axis=1)))


class TestInnerBitIdentity:
    """inner() sums each weighted Gram row pairwise over all of its columns, then
    the weighted row sums, whatever the height of the row blocks it computes and
    however many workers share them."""

    @pytest.mark.parametrize("family", [GAUSSIAN, LAPLACE])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n, m", BLOCK_SHAPES)
    def test_equals_full_gram_reduction(self, monkeypatch, family, dim, n, m):
        a, b = signed_pair([n, m, dim], family, n, m, dim)
        want = full_gram_reduction(a, b)
        assert inner(a, b) == want
        for elems in (kernels._BLOCK_ELEMS, 1, 7, 1000, 2**20):
            monkeypatch.setattr(kernels, "_BLOCK_ELEMS", elems)
            # 8 workers is more than the blocks of several of these calls
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
                assert inner(a, b) == want


def triangle_reference(a):
    """<a, a> from the whole Gram: each row's weighted entries left of the diagonal,
    exact zeros in the rest of the row, summed over all n columns as r_i; then
    sum_i w_i (w_i + 2 r_i)."""
    G = gram(a.kernel, a.sample_set, a.sample_set)
    w = a.weights
    r = np.sum(np.tril(G * w, -1), axis=1)
    return float(np.sum(w * (w + 2.0 * r)))


# one row; 7 values, which numpy sums in order; 129, one past the 128 values at
# which its pairwise sum starts to split, so 2 widths of the summation tree; 3
# and 4 widths; and, at 700, several blocks at the default block size
SELF_SIZES = [1, 7, 129, 300, 700]


class TestInnerSelfProduct:
    """inner(a, a) sums the strictly lower triangle of the symmetric Gram, whatever
    the height of the row blocks it computes and however many workers share them."""

    @pytest.mark.parametrize("family", [GAUSSIAN, LAPLACE])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", SELF_SIZES)
    def test_equals_triangle_reference(self, monkeypatch, family, dim, n):
        a, _ = signed_pair([n, dim], family, n, 1, dim)
        want = triangle_reference(a)
        assert inner(a, a) == want
        for elems in (kernels._BLOCK_ELEMS, 1, 7, 1000, 2**20):
            monkeypatch.setattr(kernels, "_BLOCK_ELEMS", elems)
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
                assert inner(a, a) == want

    @pytest.mark.parametrize("family", [GAUSSIAN, LAPLACE])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "signed"])
    @pytest.mark.parametrize("n", [7, 300, 700])
    def test_agrees_with_an_equal_copy(self, family, uniform, n):
        a, _ = signed_pair([n, 3], family, n, 1, 2)
        if uniform:
            a = embed(a.kernel, a.sample_set)
        copy = Embedding(a.kernel, SampleSet(a.sample_set.samples), a.weights)
        assert copy is not a
        got, full = inner(a, a), inner(a, copy)
        assert got == pytest.approx(full, rel=1e-12, abs=0.0)

    def test_mirror_entries_are_not_computed(self, monkeypatch):
        n = 2000
        a, _ = signed_pair(5, GAUSSIAN, n, 1, 1)
        computed = []

        def counting(kc, X, Y, out=None, tmp=None, _kernel_matrix=kernels._kernel_matrix):
            computed.append(X.shape[0] * Y.shape[0])
            return _kernel_matrix(kc, X, Y, out, tmp)

        monkeypatch.setattr(kernels, "_kernel_matrix", counting)
        inner(a, a)
        # the strictly lower triangle, plus the upper half of each block's last
        # rows x rows columns; the full Gram is n * n
        assert n * (n - 1) // 2 <= sum(computed) < 0.55 * n * n


class BlockFault(Exception):
    pass


def race(monkeypatch, a, b):
    """inner(a, b) five times with one row per block, so that 16 threads race
    through the blocks while the interpreter switches threads as often as it can."""
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", 1)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return [inner(a, b) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)


class TestInnerWorkers:
    """The worker threads of one inner() call are joined before it returns."""

    @pytest.mark.parametrize(
        "bad_row, product",
        [(3, "cross"), (190, "cross"), (3, "self"), (190, "self")],
        ids=["caller-run", "last-worker-run", "self-caller-run", "self-last-worker-run"],
    )
    def test_error_in_a_run_is_raised_and_threads_joined(self, monkeypatch, bad_row, product):
        # cross: 200 rows, 10 per block: 20 blocks in runs of 7, 6 and 7 blocks over
        # 3 workers; self: the triangle of the same 200 rows in 76 blocks of 1 to 5
        # rows, in runs of 29, 26 and 21 blocks
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", 10 * 50)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 3)
        k = KernelConfig(GAUSSIAN, 0.3)
        a = embed(k, SampleSet(np.arange(200.0)))
        b = a if product == "self" else embed(k, SampleSet(np.linspace(0.0, 1.0, 50)))

        def faulty(kc, X, Y, out=None, tmp=None, _kernel_matrix=kernels._kernel_matrix):
            if X[0, 0] <= bad_row <= X[-1, 0]:
                raise BlockFault(f"block holding row {bad_row}")
            return _kernel_matrix(kc, X, Y, out, tmp)

        monkeypatch.setattr(kernels, "_kernel_matrix", faulty)
        before = threading.active_count()
        with pytest.raises(BlockFault, match=f"row {bad_row}$"):
            inner(a, b)
        assert threading.active_count() == before

    def test_more_workers_than_cores_under_fast_thread_switching(self, monkeypatch):
        a, b = signed_pair(16, GAUSSIAN, 500, 300, 2)
        assert race(monkeypatch, a, b) == [full_gram_reduction(a, b)] * 5

    def test_self_product_more_workers_than_cores_under_fast_thread_switching(self, monkeypatch):
        a, _ = signed_pair(16, GAUSSIAN, 500, 300, 2)
        assert race(monkeypatch, a, a) == [triangle_reference(a)] * 5

    @pytest.mark.parametrize(
        "n, cpus, product",
        [(10, 8, "cross"), (14_000, 1, "cross"), (10, 8, "self"), (700, 1, "self")],
        ids=["one-block", "one-cpu", "self-one-block", "self-one-cpu"],
    )
    def test_starts_no_thread(self, monkeypatch, n, cpus, product):
        def no_threads(*args, **kwargs):
            raise AssertionError("started a thread")

        monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
        monkeypatch.setattr(threading, "Thread", no_threads)
        a, b = signed_pair(n, LAPLACE, n, 5, 2)
        if product == "self":
            assert inner(a, a) == triangle_reference(a)
        else:
            assert inner(a, b) == full_gram_reduction(a, b)


def entrywise_gram(rows, cols=None):
    """embedding_gram by one `inner` call per entry: (i, j), i <= j, mirrored when
    `cols` is None, else every <rows_i, cols_j>."""
    n = len(rows)
    if cols is None:
        want = [[inner(rows[min(i, j)], rows[max(i, j)]) for j in range(n)] for i in range(n)]
        return np.array(want, dtype=np.float64).reshape(n, n)
    want = [[inner(a, b) for b in cols] for a in rows]
    return np.array(want, dtype=np.float64).reshape(n, len(cols))


def counting_inner(monkeypatch) -> list[tuple]:
    """Rebind the module-level `inner` of `kernels` to a wrapper that records each call."""
    calls = []

    def counting(a, b, _inner=kernels.inner):
        calls.append((a, b))
        return _inner(a, b)

    monkeypatch.setattr(kernels, "inner", counting)
    return calls


# stacked row and column sample counts on either side of one block: 362**2 and
# 256 * 512 = 2**17 fit, 363**2 and 256 * 513 do not
ONE_BLOCK = {"symmetric": ([300, 62], None), "cols": ([256], [256, 256])}
ABOVE_ONE_BLOCK = {"symmetric": ([300, 63], None), "cols": ([256], [256, 257])}


def gram_stack(sizes, col_sizes):
    rng = np.random.default_rng(sum(sizes))
    rows = [embed(K_L, gaussian_set(rng, 0.1 * n, n, 2)) for n in sizes]
    if col_sizes is None:
        return rows, None
    return rows, [embed(K_L, gaussian_set(rng, 0.5, n, 2)) for n in col_sizes]


class TestEmbeddingGramCalls:
    @pytest.mark.parametrize("case", ABOVE_ONE_BLOCK)
    def test_one_module_level_inner_call_per_entry_above_one_block(self, monkeypatch, case):
        sizes, col_sizes = ABOVE_ONE_BLOCK[case]
        rows, cols = gram_stack(sizes, col_sizes)
        assert sum(sizes) * sum(col_sizes or sizes) > kernels._BLOCK_ELEMS
        want = entrywise_gram(rows, cols)
        calls = counting_inner(monkeypatch)
        G = embedding_gram(rows, cols)
        if cols is None:
            entries = [(rows[i], rows[j]) for i in range(len(rows)) for j in range(i, len(rows))]
        else:
            entries = [(a, b) for a in rows for b in cols]
        assert len(calls) == len(entries)
        assert all(a is x and b is y for (a, b), (x, y) in zip(calls, entries))
        assert G.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ONE_BLOCK)
    def test_no_inner_call_within_one_block(self, monkeypatch, case):
        sizes, col_sizes = ONE_BLOCK[case]
        rows, cols = gram_stack(sizes, col_sizes)
        assert sum(sizes) * sum(col_sizes or sizes) <= kernels._BLOCK_ELEMS
        want = entrywise_gram(rows, cols)
        calls = counting_inner(monkeypatch)
        G = embedding_gram(rows, cols)
        assert calls == []
        assert G.tobytes() == want.tobytes()

    def test_mismatched_kernel_or_dimension_refused(self):
        rng = np.random.default_rng(3)
        a = embed(K_G, gaussian_set(rng, 0.0, 4))
        with pytest.raises(ValueError, match="kernel mismatch"):
            embedding_gram([a], [embed(K_L, gaussian_set(rng, 0.0, 4))])
        with pytest.raises(ValueError, match="dimension mismatch"):
            embedding_gram([a, embed(K_G, gaussian_set(rng, 0.0, 4, 2))])


# component sizes around numpy's summation boundaries: summed in order up to 8
# values, pairwise from 9, split at 129; 300 takes a stack past one block
GRAM_SIZES = [1, 7, 8, 128, 129, 300]


@st.composite
def gram_stacks(draw):
    """Rows and columns for `embedding_gram` under one kernel and dimension.

    Components of `GRAM_SIZES` samples with uniform or signed weights; maybe a
    signed `combine` of two rows, and the first row again off the diagonal;
    columns drawn from the rows (the same objects) and fresh. The stacks fall on
    either side of one block, and `rows` may be empty.
    """
    family = draw(st.sampled_from([GAUSSIAN, LAPLACE]))
    k = KernelConfig(family, draw(st.sampled_from([0.05, 0.7, 40.0])))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def component(n):
        x = SampleSet(rng.normal(scale=2.0, size=(n, dim)))
        return embed(k, x) if draw(st.booleans()) else Embedding(k, x, rng.normal(size=n))

    rows = [component(n) for n in draw(st.lists(st.sampled_from(GRAM_SIZES), max_size=4))]
    if len(rows) >= 2 and draw(st.booleans()):
        rows.append(combine(rows[:2], [1.5, -0.25]))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(1, len(rows))), rows[0])
    picks = draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=3)) if rows else []
    cols = [rows[i] for i in picks]
    cols += [component(n) for n in draw(st.lists(st.sampled_from(GRAM_SIZES), max_size=2))]
    return rows, cols


class TestEmbeddingGram:
    @pytest.mark.parametrize("k", [K_G, K_L], ids=["gaussian", "laplace"])
    def test_bits_match_entrywise_inner(self, k):
        rng = np.random.default_rng(12)
        es = [embed(k, gaussian_set(rng, 0.3 * i, 3 + i, 2)) for i in range(5)]
        es.append(combine(es[:2], [1.5, -0.25]))
        assert embedding_gram(es).tobytes() == entrywise_gram(es).tobytes()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(stack=gram_stacks())
    def test_bits_match_entrywise_inner_on_any_stack(self, stack):
        rows, cols = stack
        assert embedding_gram(rows).tobytes() == entrywise_gram(rows).tobytes()
        assert embedding_gram(rows, cols).tobytes() == entrywise_gram(rows, cols).tobytes()

    def test_empty_rows(self):
        e = embed(K_G, SampleSet(np.zeros((2, 1))))
        assert embedding_gram([]).shape == (0, 0)
        assert embedding_gram([], [e, e]).shape == (0, 2)
        assert embedding_gram([e], []).shape == (1, 0)


class TestMMD2:
    def test_identity_is_exact_zero(self):
        rng = np.random.default_rng(7)
        a = embed(K_G, gaussian_set(rng, 0.0, 10))
        assert mmd2(a, a) == 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_identity_is_exact_zero_over_several_blocks(self, monkeypatch, workers):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
        a, _ = signed_pair(11, LAPLACE, 700, 1, 2)
        assert mmd2(a, a) == 0.0

    def test_singleton_closed_form(self):
        a = embed(K_G, SampleSet(np.array([[0.0]])))
        b = embed(K_G, SampleSet(np.array([[2.0]])))
        expected = 2.0 - 2.0 * eval_kernel(K_G, [0.0], [2.0])
        assert mmd2(a, b) == pytest.approx(expected, abs=1e-14)

    def test_separated_distributions_have_larger_mmd(self):
        # Monte-Carlo oracle, fixed seed
        rng = np.random.default_rng(8)
        k = KernelConfig(GAUSSIAN, 0.5)
        a = embed(k, gaussian_set(rng, 0.0, 500))
        b = embed(k, gaussian_set(rng, 5.0, 500))
        a2 = embed(k, gaussian_set(rng, 0.0, 500))
        assert mmd2(a, b) > mmd2(a, a2)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = embed(K_G, gaussian_set(rng, 0.0, 6))
            b = embed(K_G, gaussian_set(rng, 0.1, 6))
            assert mmd2(a, b) >= 0.0


@st.composite
def embeddings(draw, count):
    """`count` uniform embeddings under one kernel, on sample sets of one dimension."""
    k = draw(st.sampled_from([K_G, K_L, KernelConfig(GAUSSIAN, 3.0)]))
    dim = draw(st.integers(1, 3))
    rows = st.tuples(st.integers(1, 8), st.just(dim))
    coords = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-5.0, 5.0)
    sets = [draw(hnp.arrays(np.float64, rows, elements=coords)) for _ in range(count)]
    return [embed(k, SampleSet(x)) for x in sets]


class TestEmbeddingAlgebraProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        es=embeddings(4),
        coeffs=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    )
    def test_combine_is_linear_in_the_inner_product(self, es, coeffs):
        *parts, t = es
        c = combine(parts, coeffs)
        assert c.weights.tolist() == [x * w for x, e in zip(coeffs, parts) for w in e.weights]
        want = sum(x * inner(e, t) for x, e in zip(coeffs, parts))
        # every inner product of uniform embeddings lies in (0, 1]
        assert abs(inner(c, t) - want) <= 1e-12 * (1.0 + sum(abs(x) for x in coeffs))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(es=embeddings(2), shift=st.sampled_from([0.0, 1e-9, 1e-3]))
    def test_mmd2_nonnegative_and_symmetric(self, es, shift):
        a, b = es
        # the same rows reversed (and shifted): the three inner products sum in other
        # orders, so the unclamped difference often rounds below zero
        near = embed(a.kernel, SampleSet(a.sample_set.samples[::-1] + shift))
        for x, y in ((a, b), (a, near), (a, a)):
            d = mmd2(x, y)
            assert d >= 0.0
            assert d == pytest.approx(mmd2(y, x), abs=1e-12)
        assert mmd2(a, a) == 0.0


class TestMedianHeuristic:
    def test_single_pair(self):
        X = SampleSet(np.array([[0.0], [2.0]]))
        m = median_pairwise_distance([X.samples])
        assert rho_from_median(m, GAUSSIAN) == pytest.approx(0.125)

    def test_three_points_hand_enumeration(self):
        # pairwise distances {1, 1, 2}, median 1 -> rho = 0.5
        X = SampleSet(np.array([[0.0], [1.0], [2.0]]))
        m = median_pairwise_distance([X.samples])
        assert rho_from_median(m, GAUSSIAN) == pytest.approx(0.5)

    def test_degenerate_input(self):
        X = SampleSet(np.array([[1.0], [1.0], [1.0]]))
        with pytest.raises(ValueError, match="rho"):
            rho_from_median(median_pairwise_distance([X.samples]), GAUSSIAN)

    def test_laplace_uses_l1(self):
        # l1 distances {2, 2, 4}, median 2 -> rho = 0.5
        X = SampleSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        m = median_pairwise_distance([X.samples], LAPLACE)
        assert rho_from_median(m, LAPLACE) == pytest.approx(0.5)

    def test_subsampling_is_deterministic(self):
        rng = np.random.default_rng(10)
        X = SampleSet(rng.normal(size=(2500, 1)))
        rho = rho_from_median(median_pairwise_distance([X.samples]), GAUSSIAN)
        assert rho == rho_from_median(median_pairwise_distance([X.samples]), GAUSSIAN)


# few distinct coordinates, so rows repeat often; 0.1, 0.2 and 0.3 make inexact sums
COORDS = st.sampled_from([0.0, 1.0, -2.5, 0.1, 0.2, 0.3, 7.0]) | st.floats(-1e3, 1e3)


@st.composite
def pool_lists(draw):
    """1-4 pools of 3+ rows; a pool is sometimes cycled past 1000 rows (the subsample path)."""
    pools = []
    for _ in range(draw(st.integers(1, 4))):
        dim = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(COORDS, min_size=dim, max_size=dim), min_size=3, max_size=25))
        n = draw(st.sampled_from([len(rows), len(rows), len(rows), 1001, 1777]))
        pools.append(np.resize(np.array(rows, dtype=np.float64), (n, dim)))
    return pools


def ex(*rows_per_pool):
    return [np.array(rows, dtype=np.float64) for rows in rows_per_pool]


ZERO_MEDIAN = r"median pairwise distance is zero \(at least half of the pairwise distances are zero\)"


class TestMedianPairwiseDistance:
    """The distinct-row weighted median against every distance and np.median, compared with ==."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pools=pool_lists(), family=st.sampled_from([GAUSSIAN, LAPLACE]))
    @example(pools=ex([[0.0], [1.0], [3.0]]), family=GAUSSIAN)  # 3 pairs: odd total
    @example(pools=ex([[0.0], [1.0], [3.0], [7.0]]), family=LAPLACE)  # 6 pairs, middle two differ
    @example(pools=ex([[0.0], [0.0], [1.0], [1.0]], [[2.0], [2.0], [2.0]]), family=GAUSSIAN)
    @example(pools=ex([[0.0, 0.1], [0.0, 0.1], [0.2, 0.3], [0.0, 0.1], [5.0, 0.1]]), family=LAPLACE)
    @example(  # cycled past the subsample cap, many duplicates
        pools=[np.resize(np.array([[0.0, 1.0], [2.0, 0.5], [0.1, 0.2], [0.3, 0.0]]), (1507, 2))],
        family=GAUSSIAN,
    )
    @example(pools=ex([[0.3, 0.3]] * 5), family=GAUSSIAN)  # all identical
    @example(pools=ex([[0.3]] * 4, [[1.0], [2.0], [1.0]]), family=LAPLACE)  # median zero
    @example(pools=ex([[0.3]] * 4 + [[1.0]]), family=GAUSSIAN)  # median zero, samples differ
    def test_matches_concatenated_median(self, pools, family):
        want = reference_median(pools, family)
        m = median_pairwise_distance(pools, family)
        assert m == want
        if want > 0.0:
            rho = reference_rho(want, family)
            assert rho_from_median(m, family) == rho
        else:
            with pytest.raises(ValueError, match=ZERO_MEDIAN):
                rho_from_median(m, family)
        if len(pools) == 1:
            X = SampleSet(pools[0])
            if want > 0.0:
                assert rho_from_median(median_pairwise_distance([X.samples], family), family) == rho
            else:
                with pytest.raises(ValueError, match=ZERO_MEDIAN):
                    rho_from_median(median_pairwise_distance([X.samples], family), family)

    def test_one_distance_call_per_pool_on_distinct_rows(self, monkeypatch):
        calls = []

        def counting(X, family=GAUSSIAN):
            calls.append(len(X))
            return pairwise_distances(X, family)

        monkeypatch.setattr(kernels, "pairwise_distances", counting)
        pools = ex([[0.0], [0.0], [1.0], [2.0], [1.0]], [[5.0], [6.0], [7.0]])
        assert median_pairwise_distance(pools) == reference_median(pools, GAUSSIAN)
        assert calls == [3, 3]

    @pytest.mark.parametrize("pools", [[], ex([[1.0]]), ex([[1.0]], [[2.0, 3.0]])])
    def test_needs_a_pair(self, pools):
        with pytest.raises(ValueError, match="at least 2 samples"):
            median_pairwise_distance(pools)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pools=pool_lists(), family=st.sampled_from([GAUSSIAN, LAPLACE]), data=st.data())
    def test_kept_runs_give_the_median_of_any_subset(self, pools, family, data):
        # as the folds of one evaluation do: each pool's run built once, then
        # combined over overlapping subsets, each in its own order
        runs = [distance_run(pool, family) for pool in pools]
        subset = st.permutations(range(len(pools))).flatmap(
            lambda order: st.integers(1, len(order)).map(lambda k: order[:k])
        )
        for picks in data.draw(st.lists(subset, min_size=1, max_size=4)):
            got = median_of_runs([runs[i] for i in picks])
            want = median_pairwise_distance([pools[i] for i in picks], family)
            assert got.hex() == want.hex(), picks

    def test_run_counts_every_pair(self):
        # distinct rows 0 (twice), 1 (twice) and 3: distances 1, 2 and 3 for 4, 2 and 2 pairs
        run = distance_run(np.array([[0.0], [0.0], [1.0], [3.0], [1.0]]))
        assert run.dists.tolist() == [1.0, 2.0, 3.0]
        assert run.upto.dtype == np.int32 and run.upto.tolist() == [0, 4, 6, 8]
        assert run.zeros == 2 and run.pairs == 10


class TestPairwiseDistances:
    @pytest.mark.parametrize("family", [GAUSSIAN, LAPLACE])
    @pytest.mark.parametrize("n", [2, 3, 301])
    def test_bytes_match_triu_indices_reference(self, family, n):
        X = np.random.default_rng(n).normal(scale=20.0, size=(n, 2))
        full = _dists(X, X, family)
        if family == GAUSSIAN:
            full = np.sqrt(full)
        ref = full[np.triu_indices(n, k=1)]
        got = pairwise_distances(X, family)
        assert got.shape == (n * (n - 1) // 2,) and got.tobytes() == ref.tobytes()


class TestCombine:
    def test_weight_concatenation(self):
        a = embed(K_G, SampleSet(np.array([[0.0], [1.0]])))
        b = embed(K_G, SampleSet(np.array([[2.0]])))
        c = combine([a, b], [0.4, 0.6])
        assert c.weights.tolist() == [0.2, 0.2, 0.6]
        assert len(c.sample_set) == 3

    def test_inner_is_linear_over_combination(self):
        rng = np.random.default_rng(11)
        a = embed(K_G, gaussian_set(rng, 0.0, 4))
        b = embed(K_G, gaussian_set(rng, 1.0, 5))
        t = embed(K_G, gaussian_set(rng, 0.5, 3))
        c = combine([a, b], [2.0, -0.5])
        assert inner(c, t) == pytest.approx(2.0 * inner(a, t) - 0.5 * inner(b, t), rel=1e-12)


def test_embedding_convergence_trend():
    """Two independent size-n samples of N(0,1): mmd2 decreases with n (20-seed median)."""
    k = KernelConfig(GAUSSIAN, 0.5)
    sizes = [50, 200, 800, 3200]
    medians = []
    for n in sizes:
        vals = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            a = embed(k, gaussian_set(rng, 0.0, n))
            b = embed(k, gaussian_set(rng, 0.0, n))
            vals.append(mmd2(a, b))
        medians.append(float(np.median(vals)))
    assert all(m2 < m1 for m1, m2 in zip(medians, medians[1:])), medians
