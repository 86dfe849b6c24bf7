"""Deterministic solver for min theta^T G theta - 2 b^T theta on the probability simplex.

Accelerated projected gradient (FISTA) with a 1/L step, L estimated by
power iteration, and a restart that keeps the objective monotone. Sizes
here are small (mixture weights, at most a few hundred components), so a
first-order method with a projection-based KKT certificate is fast enough
and easy to audit; the acceleration matters for the ill-conditioned Grams
of near-duplicate basis components, where the plain 1/L step needs tens
of thousands of iterations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimplexQPProblem",
    "SimplexQPSolution",
    "SimplexQPError",
    "misfit",
    "project_simplex",
    "simplex_point",
    "solve",
]

_SYM_TOL = 1e-10
_EIG_TOL = 1e-8
# A momentum step may raise the objective by this much relative to 1 + |f|
# before it counts as uphill. Near the minimum the change per step falls
# below the rounding noise of evaluating f; restarting on that noise drops
# the momentum over and over and stalls the method at the plain-step rate.
_RESTART_SLACK = 1e-15


class SimplexQPError(RuntimeError):
    """Solver did not converge; carries the last iterate and KKT residual."""

    def __init__(self, message: str, theta: np.ndarray, kkt_residual: float, iterations: int):
        super().__init__(message)
        self.theta = theta
        self.kkt_residual = kkt_residual
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class SimplexQPProblem:
    """Quadratic form data: G symmetric PSD (n, n), b an n-vector.

    Eigenvalues in [-1e-8, 0) are tolerated and clamped by adding 1e-8*I;
    anything more negative is rejected as an input error.
    """

    G: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        G = np.asarray(self.G, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError(f"G must be square, got shape {G.shape}")
        if G.shape[0] != b.shape[0]:
            raise ValueError(f"G is {G.shape[0]}x{G.shape[0]} but b has length {b.shape[0]}")
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(b))):
            raise ValueError("G and b must be finite")
        if np.max(np.abs(G - G.T), initial=0.0) > _SYM_TOL:
            raise ValueError(f"G must be symmetric within {_SYM_TOL}")
        min_eig = float(np.linalg.eigvalsh(G)[0])
        if min_eig < -_EIG_TOL:
            raise ValueError(f"G has eigenvalue {min_eig} < -{_EIG_TOL}; not PSD")
        if min_eig < 0.0:
            G = G + _EIG_TOL * np.eye(G.shape[0])
        G = G.copy()
        G.flags.writeable = False
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return int(self.b.shape[0])


@dataclass(frozen=True, eq=False)
class SimplexQPSolution:
    theta: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", simplex_point(self.theta, "solution"))


def simplex_point(x, name: str) -> np.ndarray:
    """`x` as a read-only float64 vector on the probability simplex.

    Entries may fall below 0 by 1e-12 and the mass may miss 1 by 1e-9
    (solver rounding); the entries below 0 are then clamped to 0.
    """
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    if np.min(v) < -1e-12:
        raise ValueError(f"{name} must lie on the probability simplex: entry {np.min(v)} < 0")
    if abs(float(np.sum(v)) - 1.0) > 1e-9:
        raise ValueError(f"{name} must lie on the probability simplex: mass {np.sum(v)} != 1")
    v = np.maximum(v, 0.0)
    v.flags.writeable = False
    return v


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of v onto {theta >= 0, 1^T theta = 1}.

    Sort-and-threshold algorithm; ties are broken by a stable
    descending-value-then-index sort, so output is deterministic.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    n = v.shape[0]
    if n < 1:
        raise ValueError("cannot project an empty vector")
    if not np.isfinite(v).all():
        raise ValueError("cannot project non-finite input")
    # the solver projects thousands of small vectors per evaluate, so this
    # calls the array methods directly rather than numpy's Python wrappers
    u = v[(-v).argsort(kind="stable")]
    css = u.cumsum()
    k = int(((u - (css - 1.0) / _ramp(n)) > 0.0).nonzero()[0][-1])  # index 0 always qualifies
    tau = (float(css[k]) - 1.0) / (k + 1.0)
    return np.maximum(v - tau, 0.0)


@functools.lru_cache(maxsize=64)
def _ramp(n: int) -> np.ndarray:
    """Read-only float64 vector 1, 2, ..., n."""
    j = np.arange(1, n + 1, dtype=np.float64)
    j.flags.writeable = False
    return j


# np.sum forwards to this, bit for bit, after about 1.4 us of argument
# handling (numpy 2.4), which the QP's thousands of small sums per evaluate
# would pay each time
_add = np.add.reduce


def _matvec(G: np.ndarray, v: np.ndarray) -> np.ndarray:
    # row-wise pairwise reduction instead of BLAS, for reproducibility
    return _add(G * v, axis=1)


def misfit(G: np.ndarray, b: np.ndarray, theta: np.ndarray, pp: float) -> float:
    """pp - 2 b^T theta + theta^T G theta, every sum pairwise and without BLAS.

    With G the Gram of embeddings mu_i, b_i = <mu_i, P> and pp = <P, P>,
    this is || P - sum_i theta_i mu_i ||^2; with pp = 0 it is the solver's
    objective.
    """
    return pp - 2.0 * float(_add(b * theta)) + float(_add(theta * _matvec(G, theta)))


def _lambda_max_power(G: np.ndarray, iterations: int = 100) -> float:
    n = G.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    lam = 0.0
    for _ in range(iterations):
        w = _matvec(G, v)
        # math.sqrt, like np.sqrt, is correctly rounded
        norm = math.sqrt(float(_add(w * w)))
        if norm <= 0.0:
            return lam
        v = w / norm
        lam = float(_add(v * _matvec(G, v)))
    return lam


def solve(p: SimplexQPProblem, tol: float = 1e-10, max_iter: int = 50000) -> SimplexQPSolution:
    """Accelerated projected-gradient minimization of theta^T G theta - 2 b^T theta on the simplex.

    FISTA (Beck & Teboulle 2009) with a monotone function-value restart
    (O'Donoghue & Candes 2015): starts from the uniform vector and steps by
    1/L with L = 2 * lambda_max(G) (power iteration, 100 rounds, fixed start
    1/sqrt(n)) from an extrapolated point. When that momentum step would
    raise the objective beyond rounding noise, the momentum is dropped and
    the plain 1/L step is taken from the last accepted iterate instead, so
    the accepted objective does not increase. Stops when a step moves its
    base point by at most `tol`. The returned kkt_residual is
    || theta - project(theta - grad f(theta)) ||, zero exactly at a minimizer.
    """
    G, b = p.G, p.b
    n = p.n
    lam = _lambda_max_power(G)
    L = 2.0 * lam
    if L <= 1e-12:
        # objective is (numerically) linear; a huge step jumps straight to a vertex
        L = 1e-12
    b2 = 2.0 * b

    def step(v: np.ndarray) -> np.ndarray:
        return project_simplex(v - (2.0 * _matvec(G, v) - b2) / L)

    theta = np.full(n, 1.0 / n)
    obj = misfit(G, b, theta, 0.0)
    y = theta
    t = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        base = y
        theta_new = step(base)
        obj_new = misfit(G, b, theta_new, 0.0)
        if obj_new > obj + _RESTART_SLACK * (1.0 + abs(obj)) and base is not theta:
            # restart: the momentum step went uphill, take the plain step instead
            base = theta
            theta_new = step(base)
            obj_new = misfit(G, b, theta_new, 0.0)
            t = 1.0
        if __debug__:
            assert obj_new <= obj + 1e-9 * (1.0 + abs(obj)), (
                f"objective increased at iteration {it}: {obj} -> {obj_new}"
            )
        moved = theta_new - base
        disp = math.sqrt(float(_add(moved * moved)))
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = theta_new + ((t - 1.0) / t_new) * (theta_new - theta) if t > 1.0 else theta_new
        theta, obj, t = theta_new, obj_new, t_new
        if disp <= tol:
            converged = True
            break
    grad = 2.0 * _matvec(G, theta) - b2
    gap = theta - project_simplex(theta - grad)
    kkt = math.sqrt(float(_add(gap * gap)))
    if not converged:
        raise SimplexQPError(
            f"accelerated projected gradient did not converge in {max_iter} iterations "
            f"(kkt residual {kkt:.3e})",
            theta=theta,
            kkt_residual=kkt,
            iterations=it,
        )
    return SimplexQPSolution(
        theta=theta,
        objective=obj,
        kkt_residual=kkt,
        iterations=it,
    )
