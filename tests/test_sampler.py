"""Basis fitting and mean-embedding sampling tests."""

import numpy as np
import pytest

from distreg import (
    GAUSSIAN,
    KernelConfig,
    SampleSet,
    combine,
    embed,
    inner,
    mmd2,
)
from distreg.sampler import (
    Basis,
    FittedMixture,
    expectation_gap,
    fit_mixture_weights,
    sample_from_mixture,
)

from util import gaussian_set

K = KernelConfig(GAUSSIAN, 0.5)


def two_component_basis(rng, n=300, means=(0.0, 4.0)):
    return Basis(K, [gaussian_set(rng, m, n) for m in means])


class TestBasis:
    def test_from_components_defaults(self):
        rng = np.random.default_rng(0)
        basis = two_component_basis(rng)
        assert len(basis) == 2
        assert basis.labels == ("c0", "c1")

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        c1, c2 = gaussian_set(rng, 0.0, 5), gaussian_set(rng, 1.0, 5)
        with pytest.raises(ValueError, match="got 1 labels for 2 components"):
            Basis(K, (c1, c2), labels=("a",))
        with pytest.raises(ValueError, match="at least one component"):
            Basis(K, ())

    def test_mixed_dimensions_rejected(self):
        rng = np.random.default_rng(2)
        c1, c2 = gaussian_set(rng, 0.0, 5), gaussian_set(rng, 1.0, 5, dim=2)
        with pytest.raises(ValueError, match="one dimension"):
            Basis(K, (c1, c2))

    def test_embeddings_are_built_from_the_components(self):
        # an embedding of any other set (say 9s) would let a 9s target fit with a
        # near-zero residual while the draws came from the zeros
        zeros, other = SampleSet(np.zeros((5, 1))), gaussian_set(np.random.default_rng(3), 4.0, 7)
        basis = Basis(K, [zeros, other], labels=["zeros", "other"])
        assert basis.kernel == K and basis.labels == ("zeros", "other")
        for comp, emb in zip(basis.components, basis.embeddings):
            assert emb.sample_set is comp
            assert emb.kernel == K
            assert np.array_equal(emb.weights, np.full(len(comp), 1.0 / len(comp)))
        assert basis.components[0] is zeros and basis.components[1] is other
        nines = SampleSet(np.full((5, 1), 9.0))
        fm = fit_mixture_weights(embed(K, nines), basis)
        assert fm.fit_residual > 0.5


class TestFitMixtureWeights:
    def test_exact_component_representation(self):
        rng = np.random.default_rng(3)
        basis = two_component_basis(rng)
        fm = fit_mixture_weights(basis.embeddings[1], basis)
        assert fm.theta == pytest.approx([0.0, 1.0], abs=1e-6)
        assert fm.fit_residual <= 1e-6

    def test_exact_convex_representation(self):
        rng = np.random.default_rng(4)
        basis = two_component_basis(rng)
        target = combine(list(basis.embeddings), [0.5, 0.5])
        fm = fit_mixture_weights(target, basis)
        assert fm.theta == pytest.approx([0.5, 0.5], abs=1e-6)
        assert fm.fit_residual <= 1e-6

    def test_off_span_target_has_positive_residual(self):
        rng = np.random.default_rng(5)
        basis = two_component_basis(rng)
        target = embed(K, gaussian_set(rng, 12.0, 300))
        fm = fit_mixture_weights(target, basis)
        assert fm.fit_residual > 0.1

    def test_residual_matches_rkhs_distance(self):
        rng = np.random.default_rng(6)
        basis = two_component_basis(rng, n=100)
        target = embed(K, gaussian_set(rng, 1.0, 80))
        fm = fit_mixture_weights(target, basis)
        direct = np.sqrt(mmd2(combine(list(basis.embeddings), fm.theta), target))
        assert fm.fit_residual == pytest.approx(direct, rel=1e-6, abs=1e-9)

    def test_kernel_mismatch(self):
        rng = np.random.default_rng(7)
        basis = two_component_basis(rng, n=20)
        target = embed(KernelConfig(GAUSSIAN, 0.9), gaussian_set(rng, 0.0, 20))
        with pytest.raises(ValueError, match="kernel"):
            fit_mixture_weights(target, basis)

    def test_theta_always_feasible(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            basis = Basis(
                K, [gaussian_set(rng, m, 50) for m in rng.normal(scale=4, size=4)]
            )
            target = embed(K, gaussian_set(rng, rng.normal(scale=4), 50))
            fm = fit_mixture_weights(target, basis)
            assert np.min(fm.theta) >= -1e-12
            assert float(np.sum(fm.theta)) == pytest.approx(1.0, abs=1e-9)
            assert fm.fit_residual >= 0.0


class TestSampleMixture:
    def test_degenerate_mixture_uses_single_component(self):
        rng = np.random.default_rng(9)
        basis = two_component_basis(rng, n=40)
        fm = FittedMixture(basis=basis, theta=np.array([1.0, 0.0]), fit_residual=0.0)
        out = sample_from_mixture(fm.basis, fm.theta, 200, seed=11)
        comp0 = set(map(float, basis.components[0].samples[:, 0]))
        assert all(float(v) in comp0 for v in out.samples[:, 0])

    def test_component_fraction_concentrates(self):
        # binomial concentration at n=10000, fixed seed
        rng = np.random.default_rng(10)
        basis = Basis(
            K, [gaussian_set(rng, 0.0, 50), gaussian_set(rng, 100.0, 50)]
        )
        fm = FittedMixture(basis=basis, theta=np.array([0.3, 0.7]), fit_residual=0.0)
        out = sample_from_mixture(fm.basis, fm.theta, 10000, seed=12)
        frac0 = float(np.mean(out.samples[:, 0] < 50.0))
        assert abs(frac0 - 0.3) <= 0.02

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        basis = two_component_basis(rng, n=30)
        fm = FittedMixture(basis=basis, theta=np.array([0.4, 0.6]), fit_residual=0.0)
        a = sample_from_mixture(fm.basis, fm.theta, 100, seed=5)
        b = sample_from_mixture(fm.basis, fm.theta, 100, seed=5)
        c = sample_from_mixture(fm.basis, fm.theta, 100, seed=6)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_bootstrap_convergence_to_mixture_embedding(self):
        # empirical embedding of draws approaches the fitted combination
        rng = np.random.default_rng(12)
        basis = two_component_basis(rng, n=400)
        theta = np.array([0.25, 0.75])
        fm = FittedMixture(basis=basis, theta=theta, fit_residual=0.0)
        exact = combine(list(basis.embeddings), theta)
        gaps = []
        for n in (100, 400, 1600):
            draws = sample_from_mixture(fm.basis, fm.theta, n, seed=13)
            gaps.append(mmd2(embed(K, draws), exact))
        assert gaps[2] < gaps[0]

    def test_matches_per_draw_loop(self):
        # reference: pick each draw's component by inverse CDF, then its row, one draw at a time
        def loop_reference(basis, theta, n, seed):
            u = np.random.Generator(np.random.Philox(key=seed)).random((n, 2))
            cdf = np.cumsum(theta)
            cdf[-1] = max(cdf[-1], 1.0)
            out = np.empty((n, basis.dim))
            for i in range(n):
                c = min(int(np.searchsorted(cdf, u[i, 0], side="right")), len(basis) - 1)
                samples = basis.components[c].samples
                out[i] = samples[min(int(u[i, 1] * samples.shape[0]), samples.shape[0] - 1)]
            return out

        rng = np.random.default_rng(14)
        for trial in range(20):
            dim = int(rng.integers(1, 4))
            sizes = rng.integers(1, 30, size=int(rng.integers(1, 7)))
            basis = Basis(
                K, [SampleSet(rng.normal(size=(int(m), dim))) for m in sizes]
            )
            theta = rng.random(len(basis)) * (rng.random(len(basis)) < 0.7)
            theta = theta / theta.sum() if theta.sum() > 0 else np.full(len(basis), 1.0 / len(basis))
            n = int(rng.integers(1, 300))
            got = sample_from_mixture(basis, theta, n, seed=trial)
            assert np.array_equal(got.samples, loop_reference(basis, theta, n, trial))

    def test_n_must_be_positive(self):
        rng = np.random.default_rng(13)
        basis = two_component_basis(rng, n=10)
        fm = FittedMixture(basis=basis, theta=np.array([0.5, 0.5]), fit_residual=0.0)
        with pytest.raises(ValueError, match="n >= 1"):
            sample_from_mixture(fm.basis, fm.theta, 0, seed=1)


def random_rkhs_function(rng, kernel, n_atoms=10, scale=3.0):
    """Random kernel expansion normalized to unit RKHS norm."""
    pts = SampleSet(rng.normal(scale=scale, size=(n_atoms, 1)))
    coeffs = rng.normal(size=n_atoms)
    from distreg.kernels import Embedding

    f = Embedding(kernel=kernel, sample_set=pts, weights=coeffs)
    norm = np.sqrt(inner(f, f))
    return Embedding(kernel=kernel, sample_set=pts, weights=coeffs / norm)


class TestExpectationGap:
    def test_identical_sets_give_zero(self):
        rng = np.random.default_rng(14)
        f = random_rkhs_function(rng, K)
        s = gaussian_set(rng, 0.0, 50)
        assert expectation_gap(f, s, s) == 0.0

    def test_off_span_gap_bounded_away_from_zero(self):
        # target far outside the basis span keeps a persistent gap;
        # a unit atom near the target sees the mismatch directly
        rng = np.random.default_rng(15)
        basis = two_component_basis(rng, n=500, means=(0.0, 4.0))
        target_samples = gaussian_set(rng, 20.0, 2000)
        fm = fit_mixture_weights(embed(K, target_samples), basis)
        assert fm.fit_residual > 0.5
        draws = sample_from_mixture(fm.basis, fm.theta, 2000, seed=16)
        from distreg.kernels import Embedding

        f_near = Embedding(
            kernel=K, sample_set=SampleSet(np.array([[20.0]])), weights=np.array([1.0])
        )
        assert expectation_gap(f_near, target_samples, draws) > 0.1

    def test_lemma6_style_bound(self):
        # gap <= ||f|| * (fit residual + estimation terms), all computable here
        rng = np.random.default_rng(17)
        basis = two_component_basis(rng, n=400)
        target_truth = gaussian_set(rng, 1.0, 4000)  # big proxy for the target law
        target_emp = SampleSet(target_truth.samples[:400])
        t_emb = embed(K, SampleSet(target_emp.samples))
        fm = fit_mixture_weights(t_emb, basis)
        draws = sample_from_mixture(fm.basis, fm.theta, 400, seed=18)
        mixture_exact = combine(list(basis.embeddings), fm.theta)
        for seed in range(5):
            f = random_rkhs_function(np.random.default_rng(100 + seed), K)
            gap = expectation_gap(f, target_emp, draws)
            f_norm = np.sqrt(inner(f, f))
            bound = f_norm * (
                fm.fit_residual
                + np.sqrt(mmd2(t_emb, embed(K, target_truth)))
                + np.sqrt(mmd2(embed(K, draws), mixture_exact))
            )
            assert gap <= bound + 1e-6
