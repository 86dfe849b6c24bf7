"""Approximate sampling from a predicted mean embedding.

Rather than herding one point at a time, the target embedding is fitted
once against a basis of sampleable distributions by a simplex QP, and
draws then come from the fitted mixture. Basis components here are
empirical sample sets, so drawing from a component means bootstrap
resampling with replacement.

Randomness uses the counter-based Philox generator keyed by the caller's
seed, so any draw is reproducible from (seed, draw index) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import Embedding, KernelConfig, SampleSet, embed, embedding_gram, inner
from .simplex_qp import SimplexQPProblem, simplex_point, solve

__all__ = [
    "Basis",
    "FittedMixture",
    "fit_mixture_weights",
    "sample_mixture",
    "sample_from_mixture",
    "expectation_gap",
]


@dataclass(frozen=True)
class Basis:
    """Sampleable basis: component sample sets, their embeddings, and labels."""

    components: tuple[SampleSet, ...]
    embeddings: tuple[Embedding, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        components = tuple(self.components)
        embeddings = tuple(self.embeddings)
        labels = tuple(str(s) for s in self.labels)
        if not (len(components) == len(embeddings) == len(labels)) or len(components) == 0:
            raise ValueError("components, embeddings and labels must have equal nonzero length")
        kernel = embeddings[0].kernel
        dim = components[0].dim
        for comp, emb in zip(components, embeddings):
            if emb.kernel != kernel:
                raise ValueError("all basis embeddings must share one kernel")
            if comp.dim != dim or emb.dim != dim:
                raise ValueError("all basis components must share one dimension")
            if len(emb.sample_set) != len(comp):
                raise ValueError("each embedding must be built from its component sample set")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "embeddings", embeddings)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_components(
        cls,
        kernel: KernelConfig,
        components: Sequence[SampleSet],
        labels: Sequence[str] | None = None,
    ) -> "Basis":
        components = tuple(components)
        if labels is None:
            labels = tuple(f"c{i}" for i in range(len(components)))
        return cls(
            components=components,
            embeddings=tuple(embed(kernel, c) for c in components),
            labels=tuple(labels),
        )

    def __len__(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def kernel(self) -> KernelConfig:
        return self.embeddings[0].kernel


@dataclass(frozen=True)
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
    b = np.array([inner(e, target) for e in basis.embeddings])
    sol = solve(SimplexQPProblem(G=G, b=b))
    theta = sol.theta
    quad = float(np.sum(theta * np.sum(G * theta[None, :], axis=1)))
    res2 = inner(target, target) - 2.0 * float(np.sum(b * theta)) + quad
    return FittedMixture(basis=basis, theta=theta, fit_residual=math.sqrt(max(res2, 0.0)))


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


def sample_mixture(m: FittedMixture, n: int, seed: int) -> SampleSet:
    """Draw n points from a fitted mixture; deterministic given the seed."""
    return sample_from_mixture(m.basis, m.theta, n, seed)


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
