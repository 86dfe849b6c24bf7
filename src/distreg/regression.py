"""Regression models between mean embeddings.

Four model classes over input/output embedding pairs:

- non-parametric: the unrestricted linear operator acting on the span of
  the training input embeddings;
- one-parameter: a scalar multiple of the identity operator;
- mixture of embeddings: an unconstrained linear combination of I input
  embeddings;
- mixture of distributions: the same combination constrained to the
  probability simplex, solved as a simplex QP.

All fitting reduces to small Gram systems built from embedding inner
products. Empirical Gram matrices are often near-singular, so every
inversion takes a ridge term; passing ridge=None picks a tiny default
scaled by the matrix trace, while ridge=0 demands full rank and raises
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import Embedding, KernelConfig, combine, embedding_gram, inner
from .simplex_qp import SimplexQPProblem, simplex_point, solve

__all__ = [
    "SingularGramError",
    "TrainingPairs",
    "NonParametricOperator",
    "OneParameterModel",
    "MixtureEmbeddingModel",
    "MixtureDistributionModel",
    "fit_nonparametric",
    "apply_nonparametric",
    "fit_one_parameter",
    "fit_mixture_embeddings",
    "fit_mixture_distributions",
    "predict_embedding",
]


class SingularGramError(np.linalg.LinAlgError):
    """Gram system is rank deficient and no ridge was allowed."""


@dataclass(frozen=True, eq=False)
class TrainingPairs:
    """K input tuples (each of I embeddings) matched with K output embeddings.

    All embeddings share one kernel configuration. Dimensions must agree
    within each pair; they may differ across pairs (each pair can live on
    its own output space, as with per-disruption ROI sizes).
    """

    inputs: tuple[tuple[Embedding, ...], ...]
    outputs: tuple[Embedding, ...]

    def __post_init__(self) -> None:
        inputs = tuple(tuple(t) for t in self.inputs)
        outputs = tuple(self.outputs)
        if len(inputs) != len(outputs) or len(inputs) < 1:
            raise ValueError(
                f"need matching non-empty inputs/outputs, got {len(inputs)} and {len(outputs)}"
            )
        arity = len(inputs[0])
        if arity < 1:
            raise ValueError("input tuples must have at least one embedding")
        kernel = outputs[0].kernel
        for k, (tup, out) in enumerate(zip(inputs, outputs)):
            if len(tup) != arity:
                raise ValueError(f"pair {k} has {len(tup)} inputs, expected {arity}")
            for e in tup:
                if e.kernel != kernel:
                    raise ValueError(f"pair {k}: all embeddings must share one kernel")
                if e.dim != out.dim:
                    raise ValueError(
                        f"pair {k}: input dim {e.dim} != output dim {out.dim}"
                    )
            if out.kernel != kernel:
                raise ValueError(f"pair {k}: output kernel differs")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @property
    def n_pairs(self) -> int:
        return len(self.outputs)

    @property
    def arity(self) -> int:
        return len(self.inputs[0])

    @property
    def kernel(self) -> KernelConfig:
        return self.outputs[0].kernel


@dataclass(frozen=True, eq=False)
class NonParametricOperator:
    """Fitted unrestricted operator; coeff is the inverse regularized input Gram."""

    train_inputs: tuple[Embedding, ...]
    train_outputs: tuple[Embedding, ...]
    coeff: np.ndarray
    ridge: float


@dataclass(frozen=True)
class OneParameterModel:
    alpha: float


@dataclass(frozen=True, eq=False)
class MixtureEmbeddingModel:
    alpha: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.alpha, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(a)):
            raise ValueError("alpha must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "alpha", a)

    @property
    def arity(self) -> int:
        return int(self.alpha.shape[0])


@dataclass(frozen=True, eq=False)
class MixtureDistributionModel:
    w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", simplex_point(self.w, "w"))

    @property
    def arity(self) -> int:
        return int(self.w.shape[0])


def _resolve_ridge(G: np.ndarray, ridge: float | None) -> float:
    if ridge is None:
        return 1e-8 * float(np.trace(G)) / G.shape[0]
    if ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    return float(ridge)


def _check_rank(G: np.ndarray, what: str) -> None:
    eigs = np.linalg.eigvalsh(G)
    if eigs[-1] <= 0 or eigs[0] <= 1e-12 * eigs[-1]:
        raise SingularGramError(
            f"{what} is singular (eigenvalues {eigs[0]:.3e} .. {eigs[-1]:.3e}); "
            "pass ridge > 0 to regularize"
        )


def fit_nonparametric(pairs: TrainingPairs, ridge: float | None = 0.0) -> NonParametricOperator:
    """Least-squares operator from input to output embeddings (arity must be 1).

    Interpolates the training pairs exactly when the input Gram is well
    conditioned and ridge is 0.
    """
    if pairs.arity != 1:
        raise ValueError(f"non-parametric model takes single-input pairs, got arity {pairs.arity}")
    G = embedding_gram([tup[0] for tup in pairs.inputs])
    r = _resolve_ridge(G, ridge)
    if r == 0.0:
        _check_rank(G, "input embedding Gram")
    coeff = np.linalg.inv(G + r * np.eye(G.shape[0]))
    return NonParametricOperator(
        train_inputs=tuple(tup[0] for tup in pairs.inputs),
        train_outputs=pairs.outputs,
        coeff=coeff,
        ridge=r,
    )


def apply_nonparametric(op: NonParametricOperator, q: Embedding) -> Embedding:
    """Apply the fitted operator: sum_k c_k mu_P(k) with c = coeff @ <mu_Q(k), q>."""
    v = embedding_gram(op.train_inputs, (q,))[:, 0]
    c = np.sum(op.coeff * v[None, :], axis=1)
    return combine(op.train_outputs, c)


def fit_one_parameter(pairs: TrainingPairs) -> OneParameterModel:
    """Scalar model alpha = trace(m_PQ) / trace(m_QQ) over the diagonal pair blocks."""
    if pairs.arity != 1:
        raise ValueError(f"one-parameter model takes single-input pairs, got arity {pairs.arity}")
    t_pq = 0.0
    t_qq = 0.0
    for tup, out in zip(pairs.inputs, pairs.outputs):
        q = tup[0]
        t_pq += inner(out, q)
        t_qq += inner(q, q)
    if t_qq <= 0.0:
        raise ValueError(f"trace of the input Gram is not positive ({t_qq})")
    return OneParameterModel(alpha=t_pq / t_qq)


def _normal_equations(pairs: TrainingPairs) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate sum_k M_Q(k)^T M_Q(k) and sum_k M_Q(k)^T mu_P(k)."""
    I = pairs.arity
    G = np.zeros((I, I))
    b = np.zeros(I)
    for tup, out in zip(pairs.inputs, pairs.outputs):
        G += embedding_gram(tup)
        b += embedding_gram(tup, (out,))[:, 0]
    return G, b


def fit_mixture_embeddings(
    pairs: TrainingPairs, ridge: float | None = 0.0
) -> MixtureEmbeddingModel:
    """Unconstrained least-squares coefficients over the I input embeddings."""
    G, b = _normal_equations(pairs)
    r = _resolve_ridge(G, ridge)
    if r == 0.0:
        _check_rank(G, "stacked input Gram")
    alpha = np.linalg.solve(G + r * np.eye(G.shape[0]), b)
    return MixtureEmbeddingModel(alpha=alpha)


def fit_mixture_distributions(pairs: TrainingPairs) -> MixtureDistributionModel:
    """Simplex-constrained mixture weights on the same normal-equation quadratic."""
    G, b = _normal_equations(pairs)
    sol = solve(SimplexQPProblem(G=G, b=b))
    return MixtureDistributionModel(w=sol.theta)


def predict_embedding(
    model: MixtureEmbeddingModel | MixtureDistributionModel,
    inputs: Sequence[Embedding],
) -> Embedding:
    """Combine I input embeddings with the fitted coefficients."""
    coeffs = model.alpha if isinstance(model, MixtureEmbeddingModel) else model.w
    if len(inputs) != coeffs.shape[0]:
        raise ValueError(f"model expects {coeffs.shape[0]} inputs, got {len(inputs)}")
    return combine(inputs, coeffs)
