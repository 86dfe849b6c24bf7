"""Brute-force self-checks runnable from the CLI.

Each suite re-derives a quantity by the dumbest available method (nested
double sums, exhaustive grid search, hand-worked BFS answers, one scalar
call per random draw) and compares it against the fast implementation. Everything is seeded, so
output is identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data_io, kernels, simplex_qp
from .kernels import (
    GAUSSIAN,
    LAPLACE,
    KernelConfig,
    SampleSet,
    embed,
    eval_kernel,
    gram,
    inner,
    mmd2,
)
from .network import Graph, bfs_distance, disrupted_adjacency

__all__ = ["OracleCase", "run_suite", "SUITES"]


@dataclass(frozen=True)
class OracleCase:
    name: str
    passed: bool
    detail: str


def _double_sum_inner(k: KernelConfig, a, b) -> float:
    total = 0.0
    for i, x in enumerate(a.sample_set.samples):
        for j, y in enumerate(b.sample_set.samples):
            total += a.weights[i] * b.weights[j] * eval_kernel(k, x, y)
    return total


def _gram_suite() -> list[OracleCase]:
    rng = np.random.default_rng(20240601)
    cases = []
    for idx, family in enumerate([GAUSSIAN, LAPLACE]):
        k = KernelConfig(family=family, rho=0.7)
        for trial in range(3):
            a = embed(k, SampleSet(rng.normal(size=(4 + trial, 2))))
            b = embed(k, SampleSet(rng.normal(size=(3 + trial, 2))))
            fast = inner(a, b)
            slow = _double_sum_inner(k, a, b)
            ok = abs(fast - slow) <= 1e-12
            cases.append(
                OracleCase(
                    name=f"gram/double-sum-{family}-{trial}",
                    passed=ok,
                    detail=f"fast={fast:.15f} slow={slow:.15f}",
                )
            )
            fast = inner(a, a)
            slow = _double_sum_inner(k, a, a)
            cases.append(
                OracleCase(
                    name=f"gram/self-{family}-{trial}",
                    passed=abs(fast - slow) <= 1e-12,
                    detail=f"fast={fast:.15f} slow={slow:.15f}",
                )
            )
            m_fast = mmd2(a, b)
            m_slow = (
                _double_sum_inner(k, a, a)
                - 2.0 * _double_sum_inner(k, a, b)
                + _double_sum_inner(k, b, b)
            )
            ok = abs(m_fast - max(m_slow, 0.0)) <= 1e-12
            cases.append(
                OracleCase(
                    name=f"gram/mmd2-{family}-{trial}",
                    passed=ok,
                    detail=f"fast={m_fast:.15f} slow={m_slow:.15f}",
                )
            )
    # more columns than one row block holds, so every block is a single row; a
    # double sum is too slow at this size, so the full Gram is the reference
    rng = np.random.default_rng(20240603)
    m = kernels._BLOCK_ELEMS + 1000
    for family in (GAUSSIAN, LAPLACE):
        k = KernelConfig(family=family, rho=0.7)
        a = embed(k, SampleSet(rng.normal(size=(3, 2))))
        b = embed(k, SampleSet(rng.normal(size=(m, 2))))
        fast = inner(a, b)
        full = float(a.weights @ gram(k, a.sample_set, b.sample_set) @ b.weights)
        cases.append(
            OracleCase(
                name=f"gram/wide-{family}-m{m}",
                passed=abs(fast - full) <= 1e-12,
                detail=f"fast={fast:.15f} full={full:.15f}",
            )
        )
    # 65 rows per block over 1000 columns: 9 blocks, the last one 16 rows, so each
    # of two workers takes several blocks and one of them a tail that is not full
    m = 1000
    rows = kernels._BLOCK_ELEMS // m
    n = 8 * rows + rows // 4
    for family in (GAUSSIAN, LAPLACE):
        k = KernelConfig(family=family, rho=0.7)
        a = embed(k, SampleSet(rng.normal(size=(n, 2))))
        b = embed(k, SampleSet(rng.normal(size=(m, 2))))
        fast = inner(a, b)
        full = float(a.weights @ gram(k, a.sample_set, b.sample_set) @ b.weights)
        cases.append(
            OracleCase(
                name=f"gram/tall-{family}-n{n}",
                passed=abs(fast - full) <= 1e-12,
                detail=f"fast={fast:.15f} full={full:.15f}",
            )
        )
    # a self product over about nine budgets of entries: the lower triangle, over
    # several summation widths, in blocks that two workers split between them
    n = 3 * math.isqrt(kernels._BLOCK_ELEMS)
    for family in (GAUSSIAN, LAPLACE):
        k = KernelConfig(family=family, rho=0.7)
        a = embed(k, SampleSet(rng.normal(size=(n, 2))))
        fast = inner(a, a)
        full = float(a.weights @ gram(k, a.sample_set, a.sample_set) @ a.weights)
        cases.append(
            OracleCase(
                name=f"gram/self-tall-{family}-n{n}",
                passed=abs(fast - full) <= 1e-12,
                detail=f"fast={fast:.15f} full={full:.15f}",
            )
        )
    return cases


def _simplex_grid(n: int, step: float) -> np.ndarray:
    ticks = int(round(1.0 / step))
    if n == 2:
        pts = [(i / ticks, 1.0 - i / ticks) for i in range(ticks + 1)]
    elif n == 3:
        pts = [
            (i / ticks, j / ticks, (ticks - i - j) / ticks)
            for i in range(ticks + 1)
            for j in range(ticks + 1 - i)
        ]
    else:
        raise ValueError("grid oracle only covers n in {2, 3}")
    return np.array(pts)


def _support_enumeration_min(G: np.ndarray, b: np.ndarray) -> float:
    """Simplex QP optimum by trying every support.

    For each nonempty support S, the stationary point of the objective on
    {theta_S . 1 = 1} solves a (|S|+1)-square KKT system; the optimum is the
    best of those points that are nonnegative.
    """
    n = b.shape[0]
    best = np.inf
    for mask in range(1, 2**n):
        S = [i for i in range(n) if mask >> i & 1]
        k = len(S)
        K = np.zeros((k + 1, k + 1))
        K[:k, :k] = 2.0 * G[np.ix_(S, S)]
        K[:k, k] = 1.0
        K[k, :k] = 1.0
        sol = np.linalg.solve(K, np.append(2.0 * b[S], 1.0))
        if np.min(sol[:k]) < 0.0:
            continue
        theta = np.zeros(n)
        theta[S] = sol[:k]
        best = min(best, float(theta @ G @ theta - 2.0 * b @ theta))
    return best


def _qp_suite() -> list[OracleCase]:
    rng = np.random.default_rng(20240602)
    cases = []
    for trial in range(10):
        n = 2 if trial < 6 else 3
        A = rng.normal(size=(n, n))
        G = A.T @ A
        G = (G + G.T) / 2.0
        b = rng.normal(size=n)
        sol = simplex_qp.solve(simplex_qp.SimplexQPProblem(G=G, b=b))
        grid = _simplex_grid(n, 0.01)
        grid_objs = np.einsum("ki,ij,kj->k", grid, G, grid) - 2.0 * grid @ b
        gap = sol.objective - float(np.min(grid_objs))
        ok = gap <= 1e-6 and sol.kkt_residual <= 1e-8
        cases.append(
            OracleCase(
                name=f"qp/grid-n{n}-{trial}",
                passed=ok,
                detail=f"gap={gap:.3e} kkt={sol.kkt_residual:.3e}",
            )
        )
    # ill-conditioned Grams, eigenvalues spanning 1 .. 1e-7 like those of
    # near-duplicate basis components, with the target near a sparse mixture
    for trial in range(10):
        n = 4 + trial % 5
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        G = (Q * np.geomspace(1.0, 1e-7, n)) @ Q.T
        G = (G + G.T) / 2.0
        w = rng.random(n) * (rng.random(n) >= 0.3)
        w = w / np.sum(w) if np.sum(w) > 0 else np.full(n, 1.0 / n)
        b = G @ w + 1e-3 * rng.normal(size=n)
        sol = simplex_qp.solve(simplex_qp.SimplexQPProblem(G=G, b=b))
        gap = sol.objective - _support_enumeration_min(G, b)
        ok = abs(gap) <= 1e-9 and sol.kkt_residual <= 1e-8
        cases.append(
            OracleCase(
                name=f"qp/support-enum-n{n}-{trial}",
                passed=ok,
                detail=f"gap={gap:.3e} kkt={sol.kkt_residual:.3e} iterations={sol.iterations}",
            )
        )
    return cases


def _bfs_suite() -> list[OracleCase]:
    cases = []
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    got = bfs_distance(path3, 0)
    cases.append(
        OracleCase(
            name="bfs/path-0-1-2",
            passed=bool(np.array_equal(got, [0.0, 1.0, 2.0])),
            detail=f"dist={got.tolist()}",
        )
    )
    isolated = Graph.from_edges(3, [(0, 1)])
    got = bfs_distance(isolated, 2)
    cases.append(
        OracleCase(
            name="bfs/isolated-node",
            passed=bool(got[2] == 0.0 and np.all(np.isinf(got[[0, 1]]))),
            detail=f"dist={got.tolist()}",
        )
    )
    cycle4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    got = bfs_distance(cycle4, 0)
    cases.append(
        OracleCase(
            name="bfs/4-cycle-opposite",
            passed=bool(got[2] == 2.0),
            detail=f"dist(0,2)={got[2]}",
        )
    )
    disrupted = disrupted_adjacency(cycle4, [1])
    got = bfs_distance(disrupted, 0)
    cases.append(
        OracleCase(
            name="bfs/4-cycle-roi-1-detour",
            passed=bool(got[2] == 2.0 and got[3] == 1.0 and np.isinf(got[1])),
            detail=f"dist={got.tolist()}",
        )
    )
    return cases


def _journey_times_by_call(rng: np.random.Generator, count: int, t_min: int, t_max: int):
    """The generator's journey times one scalar call at a time: t_exit, then t_entry <= t_exit."""
    times = np.empty((count, 2), dtype=np.int64)
    for row in times:
        row[1] = rng.integers(t_min, t_max + 1)
        row[0] = rng.integers(t_min, row[1] + 1)
    return times


# (t_min, t_max, journeys) of the draws suite: ranges of one and two values,
# small ones, the criterion-8 day, both sides of the widest range drawn from
# words, the range below that with the largest rejection bound (65,175
# values; the suite's seed redoes a t_entry draw, and after the pending half
# a t_exit draw too), and ranges that numpy draws from 32-bit words without
# rejection or from 64-bit draws
_DRAW_CASES = [
    (0, 0, 300),
    (0, 1, 3000),
    (5, 6, 3000),
    (0, 3, 3000),
    (10, 30, 3000),
    (0, 239, 3000),
    (0, 2**16 - 1, 3000),
    (0, 2**16, 300),
    (0, 65_174, 42_000),
    (3, 2**20, 300),
    (0, 2**31, 300),
    (0, 2**32 - 2, 300),
    (0, 2**32 - 1, 300),
    (0, 2**33, 300),
]


def _draws_suite() -> list[OracleCase]:
    """The generator's journey times and its state after them, against one call per draw.

    Each case starts after a Poisson draw, as a generated day does, and
    once more after a scalar draw that leaves half of a 64-bit word pending.
    """
    cases = []
    for t_min, t_max, count in _DRAW_CASES:
        for pending in (False, True):
            fast, slow = np.random.default_rng(20240604), np.random.default_rng(20240604)
            for rng in (fast, slow):
                rng.poisson(2.0, size=7)
                if pending:
                    rng.integers(0, 10)
            got = data_io._journey_times(fast, count, t_min, t_max)
            want = _journey_times_by_call(slow, count, t_min, t_max)
            same_times = bool(np.array_equal(got, want))
            same_state = fast.bit_generator.state == slow.bit_generator.state
            cases.append(
                OracleCase(
                    name=f"draws/{t_min}-{t_max}-n{count}" + ("-pending" if pending else ""),
                    passed=same_times and same_state,
                    detail=f"times equal={same_times} state equal={same_state}",
                )
            )
    return cases


SUITES = {
    "gram": _gram_suite,
    "qp": _qp_suite,
    "bfs": _bfs_suite,
    "draws": _draws_suite,
}


def run_suite(name: str) -> list[OracleCase]:
    if name == "all":
        return [case for suite in SUITES.values() for case in suite()]
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
