"""Approximate sampling from a predicted mean embedding.

Rather than herding one point at a time, the target embedding is fitted
once against a basis of sampleable distributions by a simplex QP, and
draws then come from the fitted mixture (`sample_from_mixture(basis,
theta, ...)`). Basis components here are empirical sample sets, and a
`Basis` embeds each one itself, so drawing from a component, bootstrap
resampling with replacement, draws from the distribution it was fitted
against. The fit residual is the RKHS misfit `simplex_qp.misfit`, the
solver's own objective plus <target, target>.

Randomness uses the counter-based Philox generator keyed by the caller's
seed, so any draw is reproducible from (seed, draw index) alone.

`expectation_gap` is off the path of the main commands; it stays public
because acceptance criterion 4 measures the sampler's accuracy with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import Embedding, KernelConfig, SampleSet, embed, embedding_gram, inner
from .simplex_qp import SimplexQPProblem, misfit, simplex_point, solve

__all__ = [
    "Basis",
    "FittedMixture",
    "fit_mixture_weights",
    "sample_from_mixture",
    "expectation_gap",
]


@dataclass(frozen=True, eq=False)
class Basis:
    """Sampleable basis: component sample sets, their embeddings, and labels.

    Each embedding is `embed(kernel, component)`, built here, so the basis
    draws from exactly the sample sets it is fitted against. Labels default
    to c0, c1, ...
    """

    kernel: KernelConfig
    components: tuple[SampleSet, ...]
    labels: tuple[str, ...] | None = None
    embeddings: tuple[Embedding, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        components = tuple(self.components)
        if len(components) == 0:
            raise ValueError("a basis needs at least one component")
        if self.labels is None:
            labels = tuple(f"c{i}" for i in range(len(components)))
        else:
            labels = tuple(str(s) for s in self.labels)
        if len(labels) != len(components):
            raise ValueError(f"got {len(labels)} labels for {len(components)} components")
        if any(c.dim != components[0].dim for c in components):
            raise ValueError("all basis components must share one dimension")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "embeddings", tuple(embed(self.kernel, c) for c in components))

    def __len__(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim


@dataclass(frozen=True, eq=False)
class FittedMixture:
    """Simplex weights over a basis plus the RKHS misfit of the target."""

    basis: Basis
    theta: np.ndarray
    fit_residual: float

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
        if theta.shape[0] != len(self.basis):
            raise ValueError(f"theta length {theta.shape[0]} != basis size {len(self.basis)}")
        object.__setattr__(self, "theta", simplex_point(theta, "theta"))


def fit_mixture_weights(target: Embedding, basis: Basis) -> FittedMixture:
    """Project the target embedding onto the convex hull of the basis embeddings.

    Solves min_theta || target - sum_i theta_i mu_i ||^2 over the simplex;
    the reported fit_residual is the RKHS norm of the misfit.
    """
    if target.kernel != basis.kernel:
        raise ValueError("target and basis kernels differ")
    if target.dim != basis.dim:
        raise ValueError(f"target dim {target.dim} != basis dim {basis.dim}")
    G = embedding_gram(basis.embeddings)
    b = embedding_gram(basis.embeddings, (target,))[:, 0]
    sol = solve(SimplexQPProblem(G=G, b=b))
    res2 = misfit(G, b, sol.theta, inner(target, target))
    return FittedMixture(basis=basis, theta=sol.theta, fit_residual=math.sqrt(max(res2, 0.0)))


def sample_from_mixture(basis: Basis, theta, n: int, seed: int) -> SampleSet:
    """Draw n points: pick a component by inverse CDF, then bootstrap one of its samples."""
    if n < 1:
        raise ValueError(f"need n >= 1 draws, got {n}")
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.shape[0] != len(basis):
        raise ValueError("theta length does not match basis size")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n, 2))
    cdf = np.cumsum(theta)
    cdf[-1] = max(cdf[-1], 1.0)  # guard the top against rounding below 1
    comp_idx = np.searchsorted(cdf, u[:, 0], side="right")
    comp_idx = np.minimum(comp_idx, len(basis) - 1)
    sizes = np.array([len(c) for c in basis.components])
    starts = np.cumsum(sizes) - sizes
    size = sizes[comp_idx]
    j = np.minimum((u[:, 1] * size).astype(np.int64), size - 1)
    stacked = np.vstack([c.samples for c in basis.components])
    return SampleSet(stacked[starts[comp_idx] + j])


def expectation_gap(
    f: Embedding,
    target_samples: SampleSet,
    mixture_samples: SampleSet,
) -> float:
    """|empirical mean of f over target set - empirical mean over mixture set|.

    The test function is given in RKHS form as a finite kernel expansion
    f = sum_j c_j k(p_j, .), i.e. an Embedding with arbitrary weights;
    its empirical mean over a sample set is then an embedding inner
    product.
    """
    k = f.kernel
    m_target = inner(f, embed(k, target_samples))
    m_mixture = inner(f, embed(k, mixture_samples))
    return abs(m_target - m_mixture)
