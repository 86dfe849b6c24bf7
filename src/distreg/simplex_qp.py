"""Deterministic solver for min theta^T G theta - 2 b^T theta on the probability simplex.

An active-set (Wolfe) solver: the nearest point of the convex hull of the
basis embeddings, found exactly in a finite number of cycles, each of which
solves one small KKT system on the current support. Sizes here are small
(mixture weights, at most a few hundred components, with solutions on a
few), so the (|F|+1)-square systems are solved by a Gaussian elimination in
elementwise numpy, with no LAPACK or BLAS, and the solution's bits do not
depend on the linear-algebra build. Every solution carries a
projection-based KKT certificate.
"""

from __future__ import annotations

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
    u = v[(-v).argsort(kind="stable")]
    css = u.cumsum()
    ramp = np.arange(1, n + 1, dtype=np.float64)
    k = int(((u - (css - 1.0) / ramp) > 0.0).nonzero()[0][-1])  # index 0 always qualifies
    tau = (float(css[k]) - 1.0) / (k + 1.0)
    return np.maximum(v - tau, 0.0)


# np.sum without its Python wrapper: the same reduction, bit for bit
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


def _kkt_system(G: np.ndarray, b: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """Solve [2 G_FF, 1; 1^T, 0] z = [2 b_F; 1] for z = (x, nu), or find its null direction.

    Gaussian elimination with partial pivoting (first row on ties) in
    elementwise numpy and pairwise sums, with no LAPACK or BLAS, so the
    bits of z do not depend on the linear-algebra build. Returns (z, False)
    for the solution. When a pivot is exactly 0 the system is singular and
    this returns (z, True) with z != 0 and the matrix times z equal to 0:
    the objective is then linear along z's x part on {theta_F . 1 = 1}.
    Returns None on a non-finite pivot.
    """
    k = F.shape[0]
    A = np.empty((k + 1, k + 2))
    A[:k, :k] = 2.0 * G[F[:, None], F]
    A[:k, k] = 1.0
    A[k, :k] = 1.0
    A[k, k] = 0.0
    A[:k, k + 1] = 2.0 * b[F]
    A[k, k + 1] = 1.0
    z = np.zeros(k + 1)
    rhs, top = A[:, k + 1], k + 1
    for c in range(k + 1):
        p = c + int(abs(A[c:, c]).argmax())
        if p != c:
            A[[c, p]] = A[[p, c]]
        pivot = float(A[c, c])
        if not math.isfinite(pivot):
            return None
        if pivot == 0.0:
            # column c is 0 from row c down: z_c = 1, and rows above fix z_0 .. z_{c-1}
            z[c] = 1.0
            rhs, top = np.zeros(k + 1), c
            break
        A[c + 1 :, c:] -= (A[c + 1 :, c] / pivot)[:, None] * A[c, c:]
    for i in range(top - 1, -1, -1):
        z[i] = (rhs[i] - float(_add(A[i, i + 1 : k + 1] * z[i + 1 :]))) / A[i, i]
    return z, top <= k


def _kkt_residual(G: np.ndarray, b: np.ndarray, theta: np.ndarray) -> float:
    step = theta - (2.0 * _matvec(G, theta) - 2.0 * b)
    if not np.isfinite(step).all():
        return math.inf
    gap = theta - project_simplex(step)
    return math.sqrt(float(_add(gap * gap)))


def solve(p: SimplexQPProblem, tol: float = 1e-10, max_iter: int = 50000) -> SimplexQPSolution:
    """Minimize theta^T G theta - 2 b^T theta on the simplex with an active-set (Wolfe) solver.

    The primal active-set method in Gram form, which is Wolfe's (1976)
    min-norm-point algorithm. It starts at the vertex that minimizes
    G_ii - 2 b_i (lowest index on ties) with support F = {i}. A major cycle
    solves the KKT system of the objective on {theta_F . 1 = 1}; when every
    entry of its solution x is positive, theta = x, and with the multipliers
    m = 2 G theta - 2 b + nu the method stops if min_{i not in F} m_i >=
    -tol * (1 + |nu|), or else adds the most negative index (lowest on
    ties) to F. When some entry of x is not positive, a minor cycle steps
    from theta toward x until the first entry reaches 0 (lowest index on
    ties) and drops it from F. A singular system, which needs b outside the
    range of G, gives a direction along which the objective falls linearly;
    the minor cycle then follows it to the first zero. `iterations` counts
    both kinds of cycle. The returned kkt_residual is
    || theta - project(theta - grad f(theta)) ||, zero exactly at a minimizer.
    """
    G, b = p.G, p.b
    n = p.n
    k = int((G.diagonal() - 2.0 * b).argmin())
    on = np.zeros(n, dtype=bool)
    on[k] = True
    theta = np.zeros(n)
    theta[k] = 1.0
    obj = math.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        F = on.nonzero()[0]
        system = _kkt_system(G, b, F)
        if system is None:
            kkt = _kkt_residual(G, b, theta)
            raise SimplexQPError(
                f"non-finite pivot in the KKT system at cycle {it} (kkt residual {kkt:.3e})",
                theta=theta,
                kkt_residual=kkt,
                iterations=it,
            )
        z, singular = system
        x, nu = z[:-1], float(z[-1])
        t = theta[F]
        if singular:
            slope = float(_add((2.0 * _matvec(G, theta) - 2.0 * b)[F] * x))
            v = x if slope <= 0.0 else -x
            hit = v < 0.0
        elif (x > 0.0).all():
            theta = np.zeros(n)
            theta[F] = x
            if __debug__:
                obj_new = misfit(G, b, theta, 0.0)
                assert obj_new <= obj + 1e-9 * (1.0 + abs(obj_new)), (
                    f"objective increased at cycle {it}: {obj} -> {obj_new}"
                )
                obj = obj_new
            m = 2.0 * _matvec(G, theta) - 2.0 * b + nu
            m[F] = math.inf
            j = int(m.argmin())
            if m[j] >= -tol * (1.0 + abs(nu)):
                converged = True
                break
            on[j] = True
            continue
        else:
            v = x - t
            hit = x <= 0.0
        # minor cycle: theta_F >= 0, so each hit entry reaches 0 at the step
        # ratio t / -v (0 when t = v = 0), at most 1 toward x and unbounded
        # along a null direction, which always has a negative entry
        w = -v
        ratio = np.where(hit, t / np.where(w > 0.0, w, 1.0), math.inf)
        r = int(ratio.argmin())
        theta[F] = t + ratio[r] * v
        theta[F[r]] = 0.0
        on[F[r]] = False
    kkt = _kkt_residual(G, b, theta)
    if not converged:
        raise SimplexQPError(
            f"active-set solver did not converge in {max_iter} cycles (kkt residual {kkt:.3e})",
            theta=theta,
            kkt_residual=kkt,
            iterations=it,
        )
    return SimplexQPSolution(
        theta=theta,
        objective=misfit(G, b, theta, 0.0),
        kkt_residual=kkt,
        iterations=it,
    )
