"""Brute-force self-checks runnable from the CLI.

Each suite re-derives a quantity by the dumbest available method (nested
double sums, exhaustive grid search, hand-worked BFS answers and pairwise
detour scores, one scalar call per random draw, a median over every
pairwise distance) and compares it against the fast implementation.
Everything is seeded, so output is identical across runs. The pure
references that tests share (`training_objective`, `detour_score`,
`feasible`, `reference_median`) live here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import data_io, kernels, simplex_qp
from .kernels import (
    GAUSSIAN,
    LAPLACE,
    KernelConfig,
    SampleSet,
    combine,
    distance_run,
    embed,
    embedding_gram,
    eval_kernel,
    gram,
    inner,
    median_of_runs,
    median_pairwise_distance,
    mmd2,
    pairwise_distances,
    subsample_rows,
)
from .network import Graph, _check_node, bfs_distance, disrupted_adjacency, feasible_origins
from .regression import TrainingPairs, _normal_equations
from .simplex_qp import misfit

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


def training_objective(pairs: TrainingPairs, coeffs) -> float:
    """sum_k || mu_P(k) - sum_i coeffs[i] mu_Qi(k) ||^2 for any coefficient vector."""
    c = np.asarray(coeffs, dtype=np.float64).reshape(-1)
    if c.shape[0] != pairs.arity:
        raise ValueError(f"expected {pairs.arity} coefficients, got {c.shape[0]}")
    # sum_k <P_k, P_k> - 2 c^T b + c^T G c on the normal equations
    G, b = _normal_equations(pairs)
    return misfit(G, b, c, sum(inner(out, out) for out in pairs.outputs))


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
    # small Grams, filled from one kernel block per row: a signed combination, and
    # the first embedding again off the diagonal, whose entries are self products
    rng = np.random.default_rng(20240604)
    for family in (GAUSSIAN, LAPLACE):
        k = KernelConfig(family=family, rho=0.7)
        rows = [embed(k, SampleSet(rng.normal(size=(3 + i, 2)))) for i in range(3)]
        rows += [combine(rows[:2], [1.5, -0.25]), rows[0]]
        cols = (rows[1], embed(k, SampleSet(rng.normal(size=(5, 2)))))
        for name, G, pairs in (
            ("symmetric", embedding_gram(rows), [(a, b) for a in rows for b in rows]),
            ("cols", embedding_gram(rows, cols), [(a, b) for a in rows for b in cols]),
        ):
            slow = np.array([_double_sum_inner(k, a, b) for a, b in pairs]).reshape(G.shape)
            err = float(np.max(np.abs(G - slow)))
            cases.append(
                OracleCase(
                    name=f"gram/embedding-gram-{family}-{name}",
                    passed=err <= 1e-12,
                    detail=f"shape={G.shape} max_abs_err={err:.3e}",
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


def detour_score(g: Graph, g_disrupted: Graph, o: int, d: int) -> float:
    """Relative path lengthening caused by a disruption, for one origin-destination pair.

    1 - dist_A(o, d) / dist_disrupted(o, d), in [0, 1]: 0 when the path is
    unchanged, 1 when the pair is disconnected under the disrupted adjacency.
    """
    _check_node(g, o, "origin")
    _check_node(g, d, "destination")
    if o == d:
        raise ValueError("origin and destination must differ")
    if g.n_nodes != g_disrupted.n_nodes:
        raise ValueError("graphs must have the same node count")
    dist_nat = float(bfs_distance(g, o)[d])
    if not np.isfinite(dist_nat):
        raise ValueError(f"nodes {o} and {d} are disconnected in the natural graph")
    dist_dis = float(bfs_distance(g_disrupted, o)[d])
    if not np.isfinite(dist_dis):
        return 1.0
    return 1.0 - dist_nat / dist_dis


def feasible(o: int, d: int, g: Graph, g_disrupted: Graph, xi: float) -> bool:
    """True iff the detour score is at most xi (path not lengthened beyond the threshold)."""
    if not xi > 0:
        raise ValueError(f"xi must be positive, got {xi}")
    return detour_score(g, g_disrupted, o, d) <= xi


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
    # feasible_origins against the pairwise rule on random graphs, disconnected
    # ones included, for every destination and several thresholds
    rng = np.random.default_rng(20240605)
    for trial in range(8):
        n = int(rng.integers(5, 13))
        upper = np.triu(rng.random((n, n)) < 0.3, k=1)
        g = Graph((upper | upper.T).astype(np.int8))
        roi = rng.choice(n, size=int(rng.integers(1, 3)), replace=False).tolist()
        g_dis = disrupted_adjacency(g, roi)
        wrong = []
        for d in range(n):
            connected = np.isfinite(bfs_distance(g, d))
            for xi in (0.2, 1.0 / 3.0, 0.5, 1.0):
                mask = feasible_origins(g, g_dis, d, xi)
                for o in range(n):
                    # the destination itself is feasible, a natural disconnection is not
                    want = o == d or (bool(connected[o]) and feasible(o, d, g, g_dis, xi))
                    if mask[o] != want:
                        wrong.append((o, d, xi))
        cases.append(
            OracleCase(
                name=f"bfs/feasible-origins-n{n}-{trial}",
                passed=not wrong,
                detail=f"roi={roi} wrong (o, d, xi)={wrong}",
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


def _same_state(a, b) -> bool:
    """Whether two bit generator states are equal; their values may be arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


def _draws_suite() -> list[OracleCase]:
    """The generator's journey times and its state after them, against one call per draw.

    Each case runs under four of numpy's bit generators. It starts after a
    Poisson draw, as a generated day does, and once more after a scalar
    draw, which leaves half of a 64-bit word pending where there is one.
    """
    cases = []
    bit_generators = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)
    for bit_generator, (t_min, t_max, count), pending in itertools.product(
        bit_generators, _DRAW_CASES, (False, True)
    ):
        fast, slow = (np.random.Generator(bit_generator(20240604)) for _ in range(2))
        for rng in (fast, slow):
            rng.poisson(2.0, size=7)
            if pending:
                rng.integers(0, 10)
        got = data_io._journey_times(fast, count, t_min, t_max)
        want = _journey_times_by_call(slow, count, t_min, t_max)
        same_times = bool(np.array_equal(got, want))
        same_state = _same_state(fast.bit_generator.state, slow.bit_generator.state)
        name = f"draws/{bit_generator.__name__}/{t_min}-{t_max}-n{count}"
        cases.append(
            OracleCase(
                name=name + ("-pending" if pending else ""),
                passed=same_times and same_state,
                detail=f"times equal={same_times} state equal={same_state}",
            )
        )
    return cases


def reference_median(pools, family: str) -> float:
    """The pooled median taken the long way: every within-pool distance, then np.median."""
    return float(
        np.median(np.concatenate([pairwise_distances(subsample_rows(p), family) for p in pools]))
    )


def _median_suite() -> list[OracleCase]:
    """The bandwidth median against `reference_median`, fresh and from kept runs."""
    rng = np.random.default_rng(20240606)
    pool_sets = {
        "odd-21": [rng.normal(size=(7, 2))],
        "even-10+6": [rng.normal(size=(5, 1)), rng.normal(size=(4, 3))],
        # 37 rounded rows cycled to 1,777: subsampled to 889 rows with repeats
        "cycled-1777": [np.resize(np.round(rng.normal(size=(37, 2)), 1), (1777, 2))],
        "identical": [np.full((6, 3), 0.3)],
        # distances {1, 1, 2} and {3, 3, 6}: the middle two, 2 and 3, in different pools
        "split-middle": [np.array([[0.0], [1.0], [2.0]]), np.array([[0.0], [3.0], [6.0]])],
    }
    cases = []
    for label, pools in pool_sets.items():
        for family in (GAUSSIAN, LAPLACE):
            fast = median_pairwise_distance(pools, family)
            slow = reference_median(pools, family)
            cases.append(
                OracleCase(
                    name=f"median/{label}-{family}",
                    passed=fast == slow,
                    detail=f"fast={fast!r} slow={slow!r}",
                )
            )
    # runs kept across calls, as the folds of one evaluation keep them: each pool's
    # run built once, then combined over overlapping subsets in the folds' orders
    pools = [p for ps in pool_sets.values() for p in ps]
    subsets = [(1, 2, 3, 4, 5), (0, 2, 3, 6), (6, 5, 0, 1), (3, 0), (2, 6, 4, 1, 0, 5)]
    for family in (GAUSSIAN, LAPLACE):
        runs = [distance_run(p, family) for p in pools]
        for subset in subsets:
            fast = median_of_runs([runs[i] for i in subset])
            slow = reference_median([pools[i] for i in subset], family)
            cases.append(
                OracleCase(
                    name=f"median/kept-runs-{'.'.join(map(str, subset))}-{family}",
                    passed=fast == slow,
                    detail=f"fast={fast!r} slow={slow!r}",
                )
            )
    return cases


SUITES = {
    "gram": _gram_suite,
    "qp": _qp_suite,
    "bfs": _bfs_suite,
    "draws": _draws_suite,
    "median": _median_suite,
}


def run_suite(name: str) -> list[OracleCase]:
    if name == "all":
        return [case for suite in SUITES.values() for case in suite()]
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
