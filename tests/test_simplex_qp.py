"""Projection and simplex-QP solver tests, mostly against brute-force oracles."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distreg import Basis, FittedMixture, KernelConfig, MixtureDistributionModel, SampleSet
from distreg.oracles import _simplex_grid as simplex_grid
from distreg.simplex_qp import (
    SimplexQPError,
    SimplexQPProblem,
    SimplexQPSolution,
    project_simplex,
    solve,
)

from util import quadratic_objective


def blas_free_problems() -> list[tuple[np.ndarray, np.ndarray]]:
    """Twenty (G, b) problems shaped like the `qp` oracle suite's, from uniform
    draws, elementwise products and `np.add.reduce` only: ten random Grams of
    size 2 or 3, then ten of size 4 to 8 with eigenvalues 1 .. 1e-7 and the
    target near a sparse mixture."""
    rng = np.random.default_rng(20240602)
    problems = []
    for trial in range(10):
        n = 2 if trial < 6 else 3
        A = rng.random((n, n)) - 0.5
        G = np.add.reduce(A[:, :, None] * A[:, None, :], axis=0)  # A.T @ A
        problems.append((G, rng.random(n) - 0.5))
    for trial in range(10):
        n = 4 + trial % 5
        v = rng.random(n) - 0.5
        # a Householder reflection: orthogonal, without a QR factorisation
        Q = np.eye(n) - (2.0 / np.add.reduce(v * v)) * (v[:, None] * v[None, :])
        eig = np.array([float(f"1e-{round(7 * k / (n - 1))}") for k in range(n)])
        G = np.add.reduce((Q * eig)[:, None, :] * Q[None, :, :], axis=2)  # Q diag(eig) Q.T
        G = (G + G.T) / 2.0
        w = rng.random(n) * (rng.random(n) >= 0.3)
        w = w / np.add.reduce(w) if w.any() else np.full(n, 1.0 / n)
        b = np.add.reduce(G * w, axis=1) + 1e-3 * (rng.random(n) - 0.5)
        problems.append((G, b))
    return problems


class TestProjectSimplex:
    def test_already_feasible(self):
        assert project_simplex([0.5, 0.5]).tolist() == [0.5, 0.5]

    def test_vertex(self):
        assert project_simplex([2.0, 0.0]).tolist() == [1.0, 0.0]

    def test_symmetric_shift(self):
        # KKT by hand: shift both coordinates down by 0.1
        out = project_simplex([0.6, 0.6])
        assert out == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_kkt_conditions_random(self):
        # optimality oracle: active coordinates share one shift, inactive lie below it
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.normal(size=rng.integers(1, 9), scale=3.0)
            out = project_simplex(v)
            assert np.all(out >= 0.0)
            assert np.sum(out) == pytest.approx(1.0, abs=1e-9)
            active = out > 0
            taus = v[active] - out[active]
            tau = taus[0]
            assert np.max(np.abs(taus - tau)) <= 1e-9
            assert np.all(v[~active] <= tau + 1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        v=st.lists(
            st.sampled_from([0.0, 0.5, 1.0, -1.0]) | st.floats(-1e3, 1e3), min_size=1, max_size=12
        )
    )
    def test_kkt_conditions_property(self, v):
        # theta = max(v - tau, 0) on the simplex: one shift tau for the support,
        # every coordinate outside it at or below tau
        v = np.array(v)
        out = project_simplex(v)
        tol = 1e-9 * (1.0 + np.max(np.abs(v)))
        assert np.all(out >= 0.0)
        assert abs(np.sum(out) - 1.0) <= tol
        active = out > 0.0
        assert np.any(active)
        taus = v[active] - out[active]
        tau = taus[0]
        assert np.max(np.abs(taus - tau)) <= tol
        assert np.all(v[~active] <= tau + tol)

    def test_single_coordinate(self):
        assert project_simplex([-3.0]).tolist() == [1.0]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            project_simplex([np.nan, 0.0])


BASIS2 = Basis(
    KernelConfig("gaussian", 1.0), [SampleSet(np.array([[0.0]])), SampleSet(np.array([[1.0]]))]
)
# the three holders of a point on the simplex, each built from a 2-vector
SIMPLEX_HOLDERS = {
    "solution": lambda t: SimplexQPSolution(
        theta=t, objective=0.0, kkt_residual=0.0, iterations=1
    ).theta,
    "w": lambda t: MixtureDistributionModel(w=t).w,
    "theta": lambda t: FittedMixture(basis=BASIS2, theta=t, fit_residual=0.0).theta,
}


class TestSimplexPoint:
    @pytest.mark.parametrize("name", sorted(SIMPLEX_HOLDERS))
    @pytest.mark.parametrize(
        "theta, why", [([0.7, 0.7], "mass"), ([1.5, -0.5], "entry"), ([1.0 + 2e-9, 0.0], "mass")]
    )
    def test_one_rule_for_every_holder(self, name, theta, why):
        with pytest.raises(ValueError, match=f"{name} must lie on the probability simplex: {why}"):
            SIMPLEX_HOLDERS[name](np.array(theta))

    @pytest.mark.parametrize("name", sorted(SIMPLEX_HOLDERS))
    def test_rounding_is_clamped_in_a_read_only_copy(self, name):
        t = np.array([-1e-13, 1.0 + 5e-10])
        got = SIMPLEX_HOLDERS[name](t)
        assert got.tolist() == [0.0, 1.0 + 5e-10] and not got.flags.writeable
        assert t[0] == -1e-13


class TestProblemValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            SimplexQPProblem(G=np.array([[1.0, 0.5], [0.0, 1.0]]), b=np.zeros(2))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            SimplexQPProblem(G=np.array([[1.0, 0.0], [0.0, -1.0]]), b=np.zeros(2))

    def test_tiny_negative_eigenvalue_clamped(self):
        G = np.array([[1.0, 0.0], [0.0, -5e-9]])
        p = SimplexQPProblem(G=G, b=np.zeros(2))
        assert np.min(np.linalg.eigvalsh(p.G)) >= -1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SimplexQPProblem(G=np.eye(3), b=np.zeros(2))


class TestSolve:
    def test_analytic_two_dim(self):
        # objective on the segment theta=(t, 1-t): 2t^2 - 4t + 1, minimized at t=1
        sol = solve(SimplexQPProblem(G=np.eye(2), b=np.array([1.0, 0.0])))
        assert sol.theta == pytest.approx([1.0, 0.0], abs=1e-9)
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)

    def test_symmetric_case(self):
        sol = solve(SimplexQPProblem(G=np.eye(2), b=np.array([0.5, 0.5])))
        assert sol.theta == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_random_psd_vs_grid_oracle(self):
        rng = np.random.default_rng(1)
        grid = simplex_grid(3, 0.01)
        for _ in range(10):
            A = rng.normal(size=(3, 3))
            G = (A.T @ A + (A.T @ A).T) / 2.0
            b = rng.normal(size=3)
            sol = solve(SimplexQPProblem(G=G, b=b))
            grid_best = min(quadratic_objective(G, b, t) for t in grid)
            assert sol.objective <= grid_best + 1e-8
            assert sol.kkt_residual <= 1e-8

    def test_scaling_invariance(self):
        # argmin unchanged under G -> cG, b -> cb
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3))
        G = A.T @ A
        G = (G + G.T) / 2.0
        b = rng.normal(size=3)
        sol1 = solve(SimplexQPProblem(G=G, b=b))
        sol7 = solve(SimplexQPProblem(G=7.0 * G, b=7.0 * b))
        assert sol7.theta == pytest.approx(sol1.theta, abs=1e-7)
        assert sol7.objective == pytest.approx(7.0 * sol1.objective, rel=1e-7)

    def test_feasibility_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            A = rng.normal(size=(n, n))
            G = (A.T @ A + A @ A.T) / 2.0
            G = (G + G.T) / 2.0
            sol = solve(SimplexQPProblem(G=G, b=rng.normal(size=n)))
            assert np.min(sol.theta) >= -1e-12
            assert abs(float(np.sum(sol.theta)) - 1.0) <= 1e-9

    def test_single_component(self):
        sol = solve(SimplexQPProblem(G=np.array([[2.0]]), b=np.array([5.0])))
        assert sol.theta.tolist() == [1.0]
        assert sol.objective == pytest.approx(2.0 - 10.0)

    def test_zero_matrix_linear_objective(self):
        sol = solve(SimplexQPProblem(G=np.zeros((3, 3)), b=np.array([0.1, 0.9, 0.3])))
        assert sol.theta == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)

    def test_ill_conditioned_grams_converge_fast(self):
        # eigenvalues spanning 1 .. 1e-7, like the Grams of near-duplicate basis
        # components, with the target near a sparse mixture; a fixed-step
        # projected gradient needs about 100,000 iterations on these 20 problems,
        # so the bound fails if the acceleration is lost
        rng = np.random.default_rng(5)
        total = 0
        for trial in range(20):
            n = 4 + trial % 5
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            G = (Q * np.geomspace(1.0, 1e-7, n)) @ Q.T
            G = (G + G.T) / 2.0
            w = rng.random(n) * (rng.random(n) >= 0.3)
            w = w / np.sum(w) if np.sum(w) > 0 else np.full(n, 1.0 / n)
            sol = solve(SimplexQPProblem(G=G, b=G @ w + 1e-3 * rng.normal(size=n)))
            assert sol.kkt_residual <= 1e-8
            total += sol.iterations
        assert total <= 10_000

    def test_problems_solve_to_recorded_bits(self):
        # sha256 of 20 problems' G and b bytes, and of their solutions' theta
        # bytes, with the iteration counts, as recorded before the solver called
        # numpy's ufuncs directly: the same arithmetic in the same order gives the
        # same bits. The problems are built without BLAS or LAPACK, whose last
        # bits can vary with the machine, so only the solver is pinned.
        problems, solutions = hashlib.sha256(), hashlib.sha256()
        iterations = []
        for G, b in blas_free_problems():
            problems.update(G.tobytes() + b.tobytes())
            sol = solve(SimplexQPProblem(G=G, b=b))
            solutions.update(sol.theta.tobytes())
            iterations.append(sol.iterations)
        assert problems.hexdigest() == (
            "a653701997ef14f0b3cb7965b1f07f7cc00cce52c22d9d9ed6e57eb6a9ca6703"
        )
        assert solutions.hexdigest() == (
            "322fe063cd0f68e8bd7094ad1abcc2703152565c14b9ffe36e1d11d7c69b5a9a"
        )
        assert iterations == [
            2, 11, 11, 4, 4, 4, 4, 25, 11, 2, 292, 48, 223, 188, 590, 379, 275, 151, 148, 666
        ]

    def test_max_iter_error_carries_diagnostics(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(4, 4))
        G = A.T @ A
        G = (G + G.T) / 2.0
        with pytest.raises(SimplexQPError) as err:
            solve(SimplexQPProblem(G=G, b=rng.normal(size=4)), tol=0.0, max_iter=3)
        assert err.value.iterations == 3
        assert err.value.theta.shape == (4,)
        assert np.isfinite(err.value.kkt_residual)

    def test_solution_invariant_validation(self):
        with pytest.raises(ValueError):
            SimplexQPSolution(
                theta=np.array([0.7, 0.7]), objective=0.0, kkt_residual=0.0, iterations=1
            )
        with pytest.raises(ValueError):
            SimplexQPSolution(
                theta=np.array([1.5, -0.5]), objective=0.0, kkt_residual=0.0, iterations=1
            )
