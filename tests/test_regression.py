"""Tests for the four embedding regression model classes."""

import numpy as np
import pytest

from distreg import (
    GAUSSIAN,
    LAPLACE,
    KernelConfig,
    SampleSet,
    combine,
    embed,
    eval_kernel,
    inner,
    mmd2,
)
from distreg.regression import (
    MixtureDistributionModel,
    MixtureEmbeddingModel,
    SingularGramError,
    TrainingPairs,
    _normal_equations,
    apply_nonparametric,
    fit_mixture_distributions,
    fit_mixture_embeddings,
    fit_nonparametric,
    fit_one_parameter,
    predict_embedding,
)
from distreg.oracles import training_objective

from util import gaussian_set, mixture_set, projected_operator_error

K = KernelConfig(GAUSSIAN, 0.5)


def single_input_pairs(kernel, qs, ps):
    return TrainingPairs(
        inputs=tuple((embed(kernel, q),) for q in qs),
        outputs=tuple(embed(kernel, p) for p in ps),
    )


def normal_equations_for(pairs):
    I = pairs.arity
    G = np.zeros((I, I))
    b = np.zeros(I)
    for tup, out in zip(pairs.inputs, pairs.outputs):
        for i in range(I):
            b[i] += inner(tup[i], out)
            for j in range(I):
                G[i, j] += inner(tup[i], tup[j])
    return (G + G.T) / 2.0, b


class TestTrainingPairs:
    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        q = embed(K, gaussian_set(rng, 0.0, 5))
        p = embed(K, gaussian_set(rng, 0.0, 5))
        with pytest.raises(ValueError, match="matching"):
            TrainingPairs(inputs=((q,),), outputs=())
        with pytest.raises(ValueError, match="inputs"):
            TrainingPairs(inputs=((q,), (q, q)), outputs=(p, p))

    def test_kernel_mismatch(self):
        rng = np.random.default_rng(1)
        q = embed(K, gaussian_set(rng, 0.0, 5))
        p = embed(KernelConfig(GAUSSIAN, 0.9), gaussian_set(rng, 0.0, 5))
        with pytest.raises(ValueError, match="kernel"):
            TrainingPairs(inputs=((q,),), outputs=(p,))

    def test_dims_can_differ_across_pairs(self):
        rng = np.random.default_rng(2)
        q1 = embed(K, gaussian_set(rng, 0.0, 4, dim=1))
        p1 = embed(K, gaussian_set(rng, 0.0, 4, dim=1))
        q2 = embed(K, gaussian_set(rng, 0.0, 4, dim=2))
        p2 = embed(K, gaussian_set(rng, 0.0, 4, dim=2))
        pairs = TrainingPairs(inputs=((q1,), (q2,)), outputs=(p1, p2))
        assert pairs.n_pairs == 2


class TestNonParametric:
    def test_identity_on_span_k1(self):
        rng = np.random.default_rng(3)
        s = gaussian_set(rng, 0.0, 10)
        pairs = single_input_pairs(K, [s], [s])
        op = fit_nonparametric(pairs, ridge=0.0)
        out = apply_nonparametric(op, pairs.inputs[0][0])
        assert mmd2(out, pairs.outputs[0]) <= 1e-16

    def test_interpolation_k2(self):
        rng = np.random.default_rng(4)
        qs = [gaussian_set(rng, 0.0, 40), gaussian_set(rng, 6.0, 40)]
        ps = [gaussian_set(rng, 1.0, 40), gaussian_set(rng, 7.0, 40)]
        pairs = single_input_pairs(K, qs, ps)
        op = fit_nonparametric(pairs, ridge=0.0)
        p_emb = list(pairs.outputs)
        m_pp = np.array([[inner(a, b) for b in p_emb] for a in p_emb])
        for k in range(2):
            out = apply_nonparametric(op, pairs.inputs[k][0])
            assert mmd2(out, pairs.outputs[k]) <= 1e-14
            # RKHS residual computed in coefficient space (no cancellation):
            # apply() reproduces the k-th output iff its coefficients are e_k
            v = np.array([inner(e, pairs.inputs[k][0]) for e in op.train_inputs])
            c = op.coeff @ v
            d = c - np.eye(2)[k]
            assert np.sqrt(max(float(d @ m_pp @ d), 0.0)) <= 1e-8

    def test_duplicated_inputs_rejected(self):
        rng = np.random.default_rng(5)
        q = gaussian_set(rng, 0.0, 10)
        pairs = single_input_pairs(K, [q, q], [gaussian_set(rng, 0.0, 5), gaussian_set(rng, 1.0, 5)])
        with pytest.raises(SingularGramError, match="ridge"):
            fit_nonparametric(pairs, ridge=0.0)

    def test_ridge_allows_duplicates(self):
        rng = np.random.default_rng(6)
        q = gaussian_set(rng, 0.0, 10)
        pairs = single_input_pairs(K, [q, q], [gaussian_set(rng, 0.0, 5), gaussian_set(rng, 1.0, 5)])
        op = fit_nonparametric(pairs, ridge=1e-6)
        assert np.all(np.isfinite(op.coeff))

    def test_coefficient_norm_bound(self):
        # ||c|| <= ||coeff||_op ||v|| with the operator norm from an SVD oracle
        rng = np.random.default_rng(7)
        qs = [gaussian_set(rng, m, 20) for m in (0.0, 3.0, 6.0)]
        ps = [gaussian_set(rng, m + 1.0, 20) for m in (0.0, 3.0, 6.0)]
        pairs = single_input_pairs(K, qs, ps)
        op = fit_nonparametric(pairs, ridge=0.0)
        far = embed(K, SampleSet(np.array([[40.0]])))
        v = np.array([inner(e, far) for e in op.train_inputs])
        out = apply_nonparametric(op, far)
        c = out.weights.reshape(3, -1).sum(axis=1)  # uniform outputs: weights fold back per pair
        assert np.linalg.norm(c) <= np.linalg.svd(op.coeff, compute_uv=False)[0] * np.linalg.norm(v) + 1e-12

    def test_linearity_over_weight_concatenation(self):
        rng = np.random.default_rng(8)
        qs = [gaussian_set(rng, 0.0, 15), gaussian_set(rng, 4.0, 15)]
        ps = [gaussian_set(rng, 1.0, 15), gaussian_set(rng, 5.0, 15)]
        pairs = single_input_pairs(K, qs, ps)
        op = fit_nonparametric(pairs, ridge=0.0)
        q1 = embed(K, gaussian_set(rng, 2.0, 8))
        q2 = embed(K, gaussian_set(rng, 3.0, 8))
        lhs = apply_nonparametric(op, combine([q1, q2], [1.0, 1.0]))
        rhs = combine([apply_nonparametric(op, q1), apply_nonparametric(op, q2)], [1.0, 1.0])
        assert mmd2(lhs, rhs) <= 1e-14

    def test_arity_must_be_one(self):
        rng = np.random.default_rng(9)
        q = embed(K, gaussian_set(rng, 0.0, 5))
        p = embed(K, gaussian_set(rng, 0.0, 5))
        pairs = TrainingPairs(inputs=((q, q),), outputs=(p,))
        with pytest.raises(ValueError, match="arity"):
            fit_nonparametric(pairs)


class TestOneParameter:
    def test_identity_datasets_give_one(self):
        rng = np.random.default_rng(10)
        sets = [gaussian_set(rng, m, 12) for m in (0.0, 2.0, 4.0)]
        pairs = single_input_pairs(K, sets, sets)
        assert fit_one_parameter(pairs).alpha == 1.0

    def test_singleton_closed_form(self):
        p = SampleSet(np.array([[0.4]]))
        q = SampleSet(np.array([[1.3]]))
        pairs = single_input_pairs(K, [q], [p])
        expected = eval_kernel(K, [0.4], [1.3])  # k(q, q) = 1
        assert fit_one_parameter(pairs).alpha == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_alpha_one(self):
        # disjoint resamples of the same distribution; 20-seed median
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            qs = [gaussian_set(rng, m, 2000) for m in (0.0, 3.0)]
            ps = [gaussian_set(rng, m, 2000) for m in (0.0, 3.0)]
            pairs = single_input_pairs(K, qs, ps)
            errs.append(abs(fit_one_parameter(pairs).alpha - 1.0))
        assert float(np.median(errs)) <= 0.05


class TestMixtureEmbeddings:
    def test_scalar_case_matches_one_parameter(self):
        rng = np.random.default_rng(11)
        q = gaussian_set(rng, 0.0, 30)
        p = gaussian_set(rng, 0.5, 30)
        pairs = single_input_pairs(K, [q], [p])
        a1 = fit_mixture_embeddings(pairs, ridge=0.0).alpha[0]
        a2 = fit_one_parameter(pairs).alpha
        assert a1 == pytest.approx(a2, rel=1e-12)

    def test_normal_equation_stationarity(self):
        rng = np.random.default_rng(12)
        inputs = []
        outputs = []
        for _ in range(4):
            tup = tuple(embed(K, gaussian_set(rng, m, 25)) for m in (0.0, 2.0, 5.0))
            inputs.append(tup)
            outputs.append(embed(K, gaussian_set(rng, 1.0, 25)))
        pairs = TrainingPairs(inputs=tuple(inputs), outputs=tuple(outputs))
        model = fit_mixture_embeddings(pairs, ridge=0.0)
        G, b = normal_equations_for(pairs)
        assert np.max(np.abs(b - G @ model.alpha)) <= 1e-8

    def test_normal_equations_bits_match_upper_triangle_loop(self):
        rng = np.random.default_rng(14)
        pairs = TrainingPairs(
            inputs=tuple(
                tuple(embed(K, gaussian_set(rng, m + k, 6 + k)) for m in (0.0, 1.0, 3.0))
                for k in range(3)
            ),
            outputs=tuple(embed(K, gaussian_set(rng, 1.0, 4)) for _ in range(3)),
        )
        G_want, b_want = np.zeros((3, 3)), np.zeros(3)
        for tup, out in zip(pairs.inputs, pairs.outputs):
            for i in range(3):
                b_want[i] += inner(tup[i], out)
                for j in range(i, 3):
                    v = inner(tup[i], tup[j])
                    G_want[i, j] += v
                    if j > i:
                        G_want[j, i] += v
        G, b = _normal_equations(pairs)
        assert G.tobytes() == G_want.tobytes() and b.tobytes() == b_want.tobytes()

    def test_two_gaussian_recovery_sanity(self):
        # reduced-size version of the recovery experiment (full size in acceptance)
        errs = []
        for seed in range(5):
            rng = np.random.default_rng(3000 + seed)
            n = 1500
            q1, q2 = gaussian_set(rng, 0.0, n), gaussian_set(rng, 6.0, n)
            p = mixture_set(rng, [0.0, 6.0], [0.5, 0.5], n)
            pairs = TrainingPairs(
                inputs=((embed(K, q1), embed(K, q2)),), outputs=(embed(K, p),)
            )
            model = fit_mixture_embeddings(pairs, ridge=0.0)
            errs.append(np.max(np.abs(model.alpha - 0.5)))
        assert float(np.median(errs)) <= 0.1

    def test_rank_deficiency_rejected(self):
        rng = np.random.default_rng(13)
        q = embed(K, gaussian_set(rng, 0.0, 10))
        p = embed(K, gaussian_set(rng, 0.0, 10))
        pairs = TrainingPairs(inputs=((q, q),), outputs=(p,))
        with pytest.raises(SingularGramError):
            fit_mixture_embeddings(pairs, ridge=0.0)


class TestMixtureDistributions:
    def test_singleton_simplex(self):
        rng = np.random.default_rng(14)
        pairs = TrainingPairs(
            inputs=((embed(K, gaussian_set(rng, 0.0, 10)),),),
            outputs=(embed(K, gaussian_set(rng, 1.0, 10)),),
        )
        assert fit_mixture_distributions(pairs).w.tolist() == [1.0]

    def test_two_gaussian_recovery_sanity(self):
        errs = []
        for seed in range(5):
            rng = np.random.default_rng(4000 + seed)
            n = 1500
            q1, q2 = gaussian_set(rng, 0.0, n), gaussian_set(rng, 6.0, n)
            p = mixture_set(rng, [0.0, 6.0], [0.5, 0.5], n)
            pairs = TrainingPairs(
                inputs=((embed(K, q1), embed(K, q2)),), outputs=(embed(K, p),)
            )
            model = fit_mixture_distributions(pairs)
            errs.append(np.max(np.abs(model.w - 0.5)))
        assert float(np.median(errs)) <= 0.1

    def test_grid_oracle_random_instance(self):
        rng = np.random.default_rng(15)
        inputs = []
        outputs = []
        for _ in range(3):
            tup = tuple(embed(K, gaussian_set(rng, m, 20)) for m in (0.0, 4.0))
            inputs.append(tup)
            outputs.append(embed(K, gaussian_set(rng, 1.5, 20)))
        pairs = TrainingPairs(inputs=tuple(inputs), outputs=tuple(outputs))
        model = fit_mixture_distributions(pairs)
        G, b = normal_equations_for(pairs)
        obj = lambda w: float(w @ G @ w - 2.0 * b @ w)
        grid_best = min(obj(np.array([t, 1.0 - t])) for t in np.arange(0.0, 1.0001, 0.001))
        assert obj(model.w) <= grid_best + 1e-6

    def test_constrained_geq_unconstrained_residual(self):
        rng = np.random.default_rng(16)
        inputs = []
        outputs = []
        for _ in range(3):
            tup = tuple(embed(K, gaussian_set(rng, m, 30)) for m in (0.0, 3.0))
            inputs.append(tup)
            outputs.append(embed(K, gaussian_set(rng, -2.0, 30)))
        pairs = TrainingPairs(inputs=tuple(inputs), outputs=tuple(outputs))
        free = fit_mixture_embeddings(pairs, ridge=0.0)
        constrained = fit_mixture_distributions(pairs)
        assert training_objective(pairs, constrained.w) >= training_objective(pairs, free.alpha) - 1e-12

    def test_simplex_feasible(self):
        rng = np.random.default_rng(17)
        tup = tuple(embed(K, gaussian_set(rng, m, 15)) for m in (0.0, 2.0, 4.0))
        pairs = TrainingPairs(inputs=(tup,), outputs=(embed(K, gaussian_set(rng, 1.0, 15)),))
        w = fit_mixture_distributions(pairs).w
        assert np.min(w) >= -1e-12 and abs(float(np.sum(w)) - 1.0) <= 1e-9


def training_objective_loop(pairs, c):
    """The objective as a triple loop over embedding inner products (reference)."""
    total = 0.0
    for tup, out in zip(pairs.inputs, pairs.outputs):
        total += inner(out, out)
        for i in range(pairs.arity):
            total -= 2.0 * c[i] * inner(tup[i], out)
            for j in range(pairs.arity):
                total += c[i] * c[j] * inner(tup[i], tup[j])
    return total


class TestTrainingObjective:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_inner_product_loop(self, seed):
        rng = np.random.default_rng([22, seed])
        kernel = KernelConfig((GAUSSIAN, LAPLACE)[seed % 2], float(rng.uniform(0.1, 2.0)))
        arity, n_pairs = int(rng.integers(1, 6)), int(rng.integers(1, 5))

        def draw(dim):
            n = int(rng.integers(1, 15))
            return embed(kernel, gaussian_set(rng, rng.normal(0.0, 2.0), n, dim))

        inputs, outputs = [], []
        for _ in range(n_pairs):
            dim = int(rng.integers(1, 4))  # pairs may live on different output spaces
            inputs.append(tuple(draw(dim) for _ in range(arity)))
            outputs.append(draw(dim))
        pairs = TrainingPairs(inputs=tuple(inputs), outputs=tuple(outputs))
        c = rng.normal(0.0, 1.0, arity)
        assert training_objective(pairs, c) == pytest.approx(
            training_objective_loop(pairs, c), rel=1e-12, abs=0.0
        )

    def test_coefficient_count_checked(self):
        rng = np.random.default_rng(23)
        e = embed(K, gaussian_set(rng, 0.0, 5))
        pairs = TrainingPairs(inputs=((e,),), outputs=(e,))
        with pytest.raises(ValueError, match="expected 1 coefficients"):
            training_objective(pairs, [0.5, 0.5])


class TestPredictEmbedding:
    def test_passthrough_first_input(self):
        rng = np.random.default_rng(18)
        inputs = [embed(K, gaussian_set(rng, m, 10)) for m in (0.0, 2.0, 4.0)]
        model = MixtureEmbeddingModel(alpha=np.array([1.0, 0.0, 0.0]))
        out = predict_embedding(model, inputs)
        assert mmd2(out, inputs[0]) == 0.0

    def test_distribution_model_output_is_probability(self):
        rng = np.random.default_rng(19)
        inputs = [embed(K, gaussian_set(rng, m, 10)) for m in (0.0, 2.0)]
        model = MixtureDistributionModel(w=np.array([0.3, 0.7]))
        out = predict_embedding(model, inputs)
        assert float(np.sum(out.weights)) == pytest.approx(1.0, abs=1e-12)
        assert np.min(out.weights) >= 0.0

    def test_mmd2_matches_expanded_quadratic(self):
        # double-sum oracle through the inner-product expansion
        rng = np.random.default_rng(20)
        inputs = [embed(K, gaussian_set(rng, m, 12)) for m in (0.0, 3.0)]
        target = embed(K, gaussian_set(rng, 1.0, 9))
        alpha = np.array([0.4, 0.8])
        out = predict_embedding(MixtureEmbeddingModel(alpha=alpha), inputs)
        expanded = inner(target, target)
        for i in range(2):
            expanded -= 2.0 * alpha[i] * inner(inputs[i], target)
            for j in range(2):
                expanded += alpha[i] * alpha[j] * inner(inputs[i], inputs[j])
        assert mmd2(out, target) == pytest.approx(expanded, rel=1e-10, abs=1e-12)

    def test_arity_mismatch(self):
        rng = np.random.default_rng(21)
        inputs = [embed(K, gaussian_set(rng, 0.0, 5))]
        model = MixtureEmbeddingModel(alpha=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="inputs"):
            predict_embedding(model, inputs)


class TestConsistencyTrends:
    def test_lemma1_projected_error_decreases(self):
        # identity ground truth: P(k) and Q(k) resample the same distribution
        sizes = [50, 200, 800]
        medians = []
        for n in sizes:
            vals = []
            for seed in range(10):
                rng = np.random.default_rng(5000 + seed)
                qs = [gaussian_set(rng, m, n) for m in (0.0, 3.0, 6.0)]
                ps = [gaussian_set(rng, m, n) for m in (0.0, 3.0, 6.0)]
                vals.append(projected_operator_error(K, qs, ps))
            medians.append(float(np.median(vals)))
        slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
        print(f"lemma1 projected-error medians {medians}, log-log slope {slope:.2f}")
        assert medians[1] <= medians[0] and medians[2] <= medians[1]

    def test_lemma2_alpha_error_decreases(self):
        sizes = [100, 400, 1600]
        medians = []
        for n in sizes:
            errs = []
            for seed in range(10):
                rng = np.random.default_rng(6000 + seed)
                qs = [gaussian_set(rng, m, n) for m in (0.0, 3.0)]
                ps = [gaussian_set(rng, m, n) for m in (0.0, 3.0)]
                errs.append(abs(fit_one_parameter(single_input_pairs(K, qs, ps)).alpha - 1.0))
            medians.append(float(np.median(errs)))
        slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
        print(f"lemma2 medians {medians}, log-log slope {slope:.2f}")
        assert medians[1] <= medians[0] and medians[2] <= medians[1]

    def test_lemma3_and_4_error_decreases(self):
        sizes = [100, 400, 1600]
        med_alpha = []
        med_w = []
        for n in sizes:
            errs_a = []
            errs_w = []
            for seed in range(10):
                rng = np.random.default_rng(7000 + seed)
                q1, q2 = gaussian_set(rng, 0.0, n), gaussian_set(rng, 6.0, n)
                p = mixture_set(rng, [0.0, 6.0], [0.5, 0.5], n)
                pairs = TrainingPairs(
                    inputs=((embed(K, q1), embed(K, q2)),), outputs=(embed(K, p),)
                )
                errs_a.append(
                    float(np.linalg.norm(fit_mixture_embeddings(pairs, ridge=0.0).alpha - 0.5))
                )
                errs_w.append(float(np.linalg.norm(fit_mixture_distributions(pairs).w - 0.5)))
            med_alpha.append(float(np.median(errs_a)))
            med_w.append(float(np.median(errs_w)))
        print(f"lemma3 medians {med_alpha}; lemma4 medians {med_w}")
        assert med_alpha[1] <= med_alpha[0] and med_alpha[2] <= med_alpha[1]
        assert med_w[1] <= med_w[0] and med_w[2] <= med_w[1]
