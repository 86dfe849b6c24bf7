"""Shared helpers for the test suite: synthetic draws and brute-force references
(the oracles that `distreg oracle` also runs are imported from `distreg.oracles`)."""

from __future__ import annotations

import numpy as np

from distreg import GAUSSIAN, DayCounts, KernelConfig, SampleSet, embed
from distreg.oracles import reference_median  # re-exported: the tests import it from here


def dataset_days(ds) -> dict[int, DayCounts]:
    """A generated dataset's journey columns aggregated per day, as `load_dataset` does."""
    return {
        day: DayCounts(day=day, origin=cols[:, 0], destination=cols[:, 1], t_exit=cols[:, 3])
        for day, cols in ds.journeys.items()
    }


def gaussian_set(rng: np.random.Generator, mean: float, n: int, dim: int = 1) -> SampleSet:
    return SampleSet(rng.normal(loc=mean, scale=1.0, size=(n, dim)))


def mixture_set(
    rng: np.random.Generator, means: list[float], weights: list[float], n: int
) -> SampleSet:
    comp = rng.choice(len(means), size=n, p=weights)
    return SampleSet(rng.normal(loc=np.array(means)[comp], scale=1.0)[:, None])


def quadratic_objective(G: np.ndarray, b: np.ndarray, theta: np.ndarray) -> float:
    return float(theta @ G @ theta - 2.0 * b @ theta)


def compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer compositions of `total` into `parts` parts."""
    if parts == 1:
        return np.array([[total]])
    out = []
    for first in range(total + 1):
        rest = compositions(total - first, parts - 1)
        out.append(np.hstack([np.full((rest.shape[0], 1), first), rest]))
    return np.vstack(out)


def reference_rho(m: float, family: str) -> float:
    return 1.0 / (2.0 * m * m) if family == GAUSSIAN else 1.0 / m


def projected_operator_error(kernel: KernelConfig, qs, ps) -> float:
    """Operator error restricted to the span of the training embeddings.

    || Pi_P (L_true - L_hat) Pi_Q || for identity ground truth, computed
    purely from the Gram matrices of the empirical embeddings (max
    generalized eigenvalue of the residual quadratic form).
    """
    from distreg import inner

    q_emb = [embed(kernel, q) for q in qs]
    p_emb = [embed(kernel, p) for p in ps]
    K_n = len(qs)
    m_qq = np.array([[inner(a, b) for b in q_emb] for a in q_emb])
    m_pp = np.array([[inner(a, b) for b in p_emb] for a in p_emb])
    m_pq = np.array([[inner(a, b) for b in q_emb] for a in p_emb])
    jitter = 1e-12 * np.eye(K_n)
    inv_pp = np.linalg.inv(m_pp + jitter)
    S = m_pq.T @ inv_pp @ m_pq - m_pq - m_pq.T + m_pp
    S = (S + S.T) / 2.0
    L = np.linalg.cholesky(m_qq + jitter)
    Linv = np.linalg.inv(L)
    M = Linv @ S @ Linv.T
    lam = float(np.max(np.linalg.eigvalsh((M + M.T) / 2.0)))
    return float(np.sqrt(max(lam, 0.0)))
