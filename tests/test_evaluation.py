"""Scoring, KDE likelihoods, k-fold protocol, and model-comparison tests."""

import math
import sys

import numpy as np
import pytest

from distreg import GAUSSIAN, KernelConfig, evaluation, kernels, pipeline
from distreg.data_io import SyntheticScenario, generate_synthetic
from distreg.evaluation import (
    kde_log_density,
    kfold,
    nll,
    observable_score,
    random_model,
    run_evaluation,
    score_disruptions,
    select_top,
    severity_score,
    silverman_h,
    squared_error,
    uniform_simplex,
)
from distreg.network import Disruption
from distreg.pipeline import (
    DayCounts,
    InterferenceConfig,
    input_variable_samples,
    natural_pool,
    resolve_rho,
    roi_exit_vector,
)
from distreg.sampler import Basis

from util import dataset_days, gaussian_set


class TestObservableScore:
    def test_equal_rows_zero(self):
        rows = np.array([[1.0, 2.0], [3.0, 0.0]])
        assert observable_score(rows, rows) == 0.0

    def test_zero_infeasible_rows_give_one(self):
        rows = np.array([[1.0, 2.0], [3.0, 0.0]])
        assert observable_score(rows, np.zeros_like(rows)) == 1.0

    def test_hand_arithmetic(self):
        x1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        x2 = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert observable_score(x1, x2) == pytest.approx(0.5)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="feasible"):
            observable_score(np.zeros((2, 2)), np.ones((2, 2)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        x1 = rng.random((4, 3)) + 0.1
        x2 = rng.random((4, 3))
        assert observable_score(7.0 * x1, 7.0 * x2) == pytest.approx(
            observable_score(x1, x2), rel=1e-12
        )


def dc_from(day, entries):
    """DayCounts from a {(origin, destination, t_exit): count} dict."""
    rows = np.array([(*key, c) for key, c in entries.items()], dtype=np.int64).reshape(-1, 4)
    return DayCounts(day, *rows.T)


class TestSeverityScore:
    Z = Disruption(day=5, t_start=10, t_end=20, roi=(0, 1))

    def test_equal_to_means_zero(self):
        dc = dc_from(5, {(2, 0, 15): 10, (2, 1, 15): 10})
        assert severity_score(roi_exit_vector(dc, self.Z), np.array([10.0, 10.0])) == 0.0

    def test_all_zero_observed_gives_one(self):
        dc = dc_from(5, {})
        assert severity_score(roi_exit_vector(dc, self.Z), np.array([10.0, 10.0])) == 1.0

    def test_hand_arithmetic(self):
        dc = dc_from(5, {(2, 0, 15): 5, (2, 1, 15): 10})
        observed = roi_exit_vector(dc, self.Z)
        assert severity_score(observed, np.array([10.0, 10.0])) == pytest.approx(0.125)

    def test_zero_denominator(self):
        dc = dc_from(5, {})
        with pytest.raises(ValueError, match="natural means"):
            severity_score(roi_exit_vector(dc, self.Z), np.zeros(2))

    def test_scale_invariance(self):
        dc1 = dc_from(5, {(2, 0, 15): 5, (2, 1, 15): 10})
        dc3 = dc_from(5, {(2, 0, 15): 15, (2, 1, 15): 30})
        mean = np.array([10.0, 10.0])
        assert severity_score(roi_exit_vector(dc3, self.Z), 3.0 * mean) == pytest.approx(
            severity_score(roi_exit_vector(dc1, self.Z), mean), rel=1e-12
        )


class TestSelectTop:
    def test_all_selected_when_n_is_count(self):
        scores = [(0, 1.0), (1, 2.0), (2, 3.0)]
        assert select_top(scores, 3) == {0, 1, 2}

    def test_distinct_scores_take_largest(self):
        scores = [(0, 1.0), (1, 5.0), (2, 3.0)]
        assert select_top(scores, 2) == {1, 2}

    def test_ties_break_by_id_ascending(self):
        scores = [(3, 1.0), (1, 1.0), (2, 1.0)]
        assert select_top(scores, 2) == {1, 2}

    def test_n_too_large(self):
        with pytest.raises(ValueError, match="select"):
            select_top([(0, 1.0)], 2)


class TestKFold:
    def test_twenty_into_ten_folds_of_two(self):
        folds = kfold(list(range(20)), 10, seed=0)
        assert len(folds) == 10
        assert all(len(test) == 2 for _, test in folds)

    def test_partition(self):
        ids = [3, 5, 7, 9, 11]
        folds = kfold(ids, 2, seed=1)
        tests = [t for _, test in folds for t in test]
        assert sorted(tests) == ids
        for train, test in folds:
            assert set(train) | set(test) == set(ids)
            assert not set(train) & set(test)

    def test_deterministic(self):
        assert kfold(list(range(9)), 3, seed=4) == kfold(list(range(9)), 3, seed=4)
        assert kfold(list(range(9)), 3, seed=4) != kfold(list(range(9)), 3, seed=5)

    def test_too_many_folds(self):
        with pytest.raises(ValueError, match="folds"):
            kfold([1, 2], 3, seed=0)


class TestKdeLogDensity:
    def test_single_sample_peak_value(self):
        h = 2.0
        got = kde_log_density(np.array([[1.5]]), h, np.array([1.5]))
        assert got[0] == pytest.approx(0.5 * math.log(h / math.pi), abs=1e-12)

    def test_symmetry_around_sample(self):
        h = 0.7
        lo = kde_log_density(np.array([[1.0]]), h, np.array([0.3]))
        hi = kde_log_density(np.array([[1.0]]), h, np.array([1.7]))
        assert lo[0] == pytest.approx(hi[0], abs=1e-12)

    def test_marginal_integrates_to_one(self):
        # quadrature oracle over a wide grid
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(40, 2)) * np.array([1.0, 3.0])
        h = silverman_h(samples)
        ys = np.linspace(-25.0, 25.0, 4001)
        for j in range(2):
            dens = np.array(
                [
                    math.exp(kde_log_density(samples[:, [j]], h[j], np.array([y]))[0])
                    for y in ys
                ]
            )
            integral = float(np.trapezoid(dens, ys))
            assert abs(integral - 1.0) <= 1e-3

    def test_h_validation(self):
        with pytest.raises(ValueError, match="h"):
            kde_log_density(np.array([[0.0]]), 0.0, np.array([0.0]))


class TestNLL:
    def test_peak_density_one(self):
        # single sample, h = pi: density sqrt(h/pi) = 1, NLL 0
        assert nll(np.array([[2.0]]), np.array([2.0]), math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_far_observation_large_nll(self):
        assert nll(np.array([[0.0]]), np.array([50.0]), 1.0) > 1000.0

    def test_matches_direct_recomputation(self):
        # independent reimplementation oracle without the max-shift trick
        rng = np.random.default_rng(2)
        samples = rng.normal(size=(25, 3))
        y = rng.normal(size=3)
        h = 0.8
        direct = 0.0
        for j in range(3):
            s = float(np.sum(np.exp(-h * (y[j] - samples[:, j]) ** 2)))
            direct -= math.log(s * math.sqrt(h / math.pi) / 25.0)
        assert nll(samples, y, h) == pytest.approx(direct, rel=1e-12)


class TestSquaredError:
    def test_exact_mean_is_zero(self):
        samples = np.array([[1.0, 3.0], [3.0, 1.0]])
        assert squared_error(samples, np.array([2.0, 2.0])) == 0.0

    def test_hand_arithmetic(self):
        samples = np.zeros((4, 2))
        assert squared_error(samples, np.array([3.0, 4.0])) == pytest.approx(1.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        samples = rng.random((6, 2)) + 0.5
        obs = np.array([1.0, 2.0])
        assert squared_error(5.0 * samples, 5.0 * obs) == pytest.approx(
            squared_error(samples, obs), rel=1e-12
        )

    def test_zero_observed_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            squared_error(np.ones((2, 2)), np.zeros(2))


class TestSilvermanH:
    def test_positive_and_per_coordinate(self):
        rng = np.random.default_rng(4)
        samples = rng.normal(size=(50, 2)) * np.array([1.0, 10.0])
        h = silverman_h(samples)
        assert h.shape == (2,) and np.all(h > 0)
        assert h[0] > h[1]  # wider data, smaller precision

    def test_degenerate_column_falls_back(self):
        h = silverman_h(np.zeros((5, 1)))
        assert h[0] == pytest.approx(0.5)  # sigma falls back to 1


def small_dataset(seed=0, phi=0.8, n_disruptions=4):
    scenario = SyntheticScenario(
        topology="grid",
        n_nodes=12,
        days=10,
        n_disruptions=n_disruptions,
        phi=phi,
        rate_low=0.5,
        rate_high=1.2,
        window_min=80,
        window_max=140,
        seed=seed,
    )
    ds = generate_synthetic(scenario)
    return ds, dataset_days(ds)


CRITERION_9 = SyntheticScenario(
    topology="grid", n_nodes=12, days=10, n_disruptions=4, phi=0.8,
    rate_low=0.8, rate_high=1.6, window_min=80, window_max=140, seed=11,
)


def counted(monkeypatch, original) -> list[tuple]:
    """Rebind `original` in every distreg module that binds it, so no call escapes
    the count, with a wrapper that records each call's positional arguments."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] == "distreg":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestBaselineAndRandomModels:
    def test_baseline_equals_x3_rows(self):
        # scoring keeps each disruption's X3 bit for bit, and evaluation scores
        # the baseline model on those rows
        ds, days = small_dataset()
        cfg = InterferenceConfig()
        naturals = natural_pool(days, ds.disruptions)
        scores, records = run_evaluation(
            days, ds.disruptions, ds.graph, cfg, out_dir=None,
            n_folds=2, top_n=20, seed=0, n_samples=40,
        )
        assert len(scores) == len(ds.disruptions)
        for rec in scores:
            z = rec.observation.disruption
            _, _, x3, _, _ = input_variable_samples(naturals, z, ds.graph, cfg)
            assert rec.natural.samples.shape == x3.samples.shape == (len(naturals), len(z.roi))
            assert rec.natural.samples.tobytes() == x3.samples.tobytes()
        assert records
        natural = {rec.disruption_id: rec.natural for rec in scores}
        observed = {rec.disruption_id: rec.observation.exit_vector for rec in scores}
        for r in records:
            base, obs = natural[r.disruption_id], observed[r.disruption_id]
            assert r.baseline_nll == nll(base, obs, silverman_h(base))
            assert r.baseline_se == squared_error(base, obs)

    def test_random_model_single_component(self):
        rng = np.random.default_rng(5)
        k = KernelConfig(GAUSSIAN, 0.5)
        comp = gaussian_set(rng, 0.0, 30)
        basis = Basis(k, [comp])
        out = random_model(basis, seed=9, n=50)
        allowed = set(map(float, comp.samples[:, 0]))
        assert all(float(v) in allowed for v in out.samples[:, 0])

    def test_random_model_deterministic(self):
        rng = np.random.default_rng(6)
        k = KernelConfig(GAUSSIAN, 0.5)
        basis = Basis(k, [gaussian_set(rng, m, 20) for m in (0.0, 5.0)])
        a = random_model(basis, seed=3, n=40)
        b = random_model(basis, seed=3, n=40)
        assert np.array_equal(a.samples, b.samples)

    def test_uniform_simplex_moments(self):
        # flat Dirichlet moment oracle: each coordinate has mean 1/n
        n = 5
        thetas = np.stack(
            [
                uniform_simplex(n, np.random.Generator(np.random.Philox(key=seed)))
                for seed in range(10000)
            ]
        )
        assert np.max(np.abs(thetas.mean(axis=0) - 1.0 / n)) <= 0.01
        assert np.min(thetas) >= 0.0
        assert np.allclose(thetas.sum(axis=1), 1.0)


class TestScoreDisruptions:
    def test_selection_flags_and_determinism(self):
        ds, days = small_dataset()
        cfg = InterferenceConfig()
        r1 = score_disruptions(days, ds.disruptions, ds.graph, cfg, top_n=2)
        r2 = score_disruptions(days, ds.disruptions, ds.graph, cfg, top_n=2)
        assert r1 == r2
        assert sum(rec.selected for rec in r1) == 2
        assert all(rec.observable >= 0 and rec.severity >= 0 for rec in r1)


class TestRunEvaluation:
    def test_protocol_and_determinism(self, tmp_path):
        ds, days = small_dataset()
        cfg = InterferenceConfig()
        scores, records = run_evaluation(
            days, ds.disruptions, ds.graph, cfg, out_dir=tmp_path,
            n_folds=2, top_n=20, seed=0, n_samples=60,
        )
        assert len(scores) == len(ds.disruptions)
        evaluated = [r.disruption_id for r in records]
        assert evaluated == sorted(evaluated)
        assert set(evaluated) == {r.disruption_id for r in scores if r.selected}
        assert (tmp_path / "scores.csv").exists()
        assert (tmp_path / "metrics.csv").exists()
        assert any(p.name.startswith("density_") for p in tmp_path.iterdir())

        _, records2 = run_evaluation(
            days, ds.disruptions, ds.graph, cfg, out_dir=None,
            n_folds=2, top_n=20, seed=0, n_samples=60,
        )
        assert records == records2

    def test_error_isolation_skips_bad_disruption(self, capsys):
        ds, days = small_dataset()
        bad = Disruption(day=99, t_start=10, t_end=50, roi=(0, 1))
        disruptions = list(ds.disruptions) + [bad]
        cfg = InterferenceConfig()
        scores, records = run_evaluation(
            days, disruptions, ds.graph, cfg, out_dir=None,
            n_folds=2, top_n=20, seed=0, n_samples=40,
        )
        err = capsys.readouterr().err
        assert "skipping disruption 4" in err
        assert {r.disruption_id for r in records} <= {0, 1, 2, 3}

    def test_rho_mode_global(self):
        ds, days = small_dataset()
        cfg = InterferenceConfig()
        _, records = run_evaluation(
            days, ds.disruptions, ds.graph, cfg, out_dir=None,
            n_folds=2, top_n=20, seed=0, n_samples=40, rho_mode="global",
        )
        assert len(records) >= 3

    @pytest.mark.parametrize("rho_mode", ["per-fold", "global"])
    def test_features_built_once_per_step(self, monkeypatch, rho_mode):
        # Each step builds a disruption's features once and derives its basis
        # and ROI totals from X3: scoring, then (per fold or globally) the
        # rho pool, then train per training disruption and predict per test one.
        ds = generate_synthetic(CRITERION_9)
        days = dataset_days(ds)
        calls = counted(monkeypatch, pipeline.input_variable_samples)
        scores, records = run_evaluation(
            days, ds.disruptions, ds.graph, InterferenceConfig(), out_dir=None,
            n_folds=2, top_n=20, seed=0, n_samples=50, rho_mode=rho_mode,
        )
        assert len(records) == len(ds.disruptions)
        z = ds.disruptions
        selected = sorted(r.disruption_id for r in scores if r.selected)
        expected = list(z)
        if rho_mode == "global":
            expected += [z[k] for k in selected]
        for train_ids, test_ids in kfold(selected, 2, 0):
            if rho_mode == "per-fold":
                expected += [z[k] for k in train_ids]
            expected += [z[k] for k in train_ids] + [z[k] for k in test_ids]
        assert [args[1] for args in calls] == expected

    @pytest.mark.parametrize("rho_mode", ["per-fold", "global"])
    def test_observations_and_bandwidths_computed_once(self, monkeypatch, tmp_path, rho_mode):
        # scoring scans each disruption day once for its ROI exit vector, and
        # evaluation reuses it; each evaluated disruption gets one bandwidth per
        # sample model, shared by its NLL and its density grids
        ds = generate_synthetic(CRITERION_9)
        scans = counted(monkeypatch, pipeline.roi_exit_vector)
        bandwidths = counted(monkeypatch, evaluation.silverman_h)
        nlls = counted(monkeypatch, evaluation.nll)
        scores, records = run_evaluation(
            dataset_days(ds), ds.disruptions, ds.graph, InterferenceConfig(), out_dir=tmp_path,
            n_folds=2, top_n=20, seed=0, n_samples=50, rho_mode=rho_mode,
        )
        assert len(scores) == len(records) == len(ds.disruptions)
        assert [args[1] for args in scans] == ds.disruptions
        assert len(bandwidths) == len(nlls) == 3 * len(records)
        assert len(list(tmp_path.glob("density_*.csv"))) == sum(len(z.roi) for z in ds.disruptions)

    def test_per_fold_rho_builds_each_pool_once(self, monkeypatch):
        # with 3 folds every selected disruption trains in two of them; its pool
        # distances are built in the first and kept for the second
        ds = generate_synthetic(CRITERION_9)
        days = dataset_days(ds)
        cfg = InterferenceConfig()
        distances = counted(monkeypatch, kernels.pairwise_distances)
        trained = counted(monkeypatch, pipeline.train)
        scores, records = run_evaluation(
            days, ds.disruptions, ds.graph, cfg, out_dir=None,
            n_folds=3, top_n=20, seed=0, n_samples=50,
        )
        selected = [r for r in scores if r.selected]
        assert len(records) == len(selected) == len(ds.disruptions)
        assert len(distances) == len(selected)
        assert len(trained) == 3
        natural_days = natural_pool(days, ds.disruptions)
        for _, train_obs, _, fold_cfg in trained:
            assert fold_cfg.rho == resolve_rho(natural_days, train_obs, ds.graph, cfg)

    @pytest.mark.parametrize("rho_mode", ["per-fold", "global"])
    def test_train_builds_each_disruption_features_once(self, monkeypatch, rho_mode):
        # with 3 folds every selected disruption trains in two of them; train builds
        # its X1..X5 in the first and keeps them for the second, and every fold's
        # model is the one a train without a memo fits
        ds = generate_synthetic(CRITERION_9)
        features = counted(monkeypatch, pipeline.input_variable_samples)
        fits = []

        def training(*args, _train=pipeline.train, **kwargs):
            before = len(features)
            model = _train(*args, **kwargs)
            fits.append((args, [call[1] for call in features[before:]], model))
            return model

        monkeypatch.setattr(evaluation, "train", training)
        scores, records = run_evaluation(
            dataset_days(ds), ds.disruptions, ds.graph, InterferenceConfig(), out_dir=None,
            n_folds=3, top_n=20, seed=0, n_samples=50, rho_mode=rho_mode,
        )
        selected = [r.observation.disruption for r in scores if r.selected]
        assert len(records) == len(selected) == len(ds.disruptions)
        assert len(fits) == 3
        built = [z for _, zs, _ in fits for z in zs]
        assert sorted(built, key=ds.disruptions.index) == selected
        for args, _, model in fits:
            assert pipeline.train(*args).alpha.tobytes() == model.alpha.tobytes()

    @pytest.mark.parametrize("n_folds", [2, 3])
    def test_natural_days_scanned_once_per_feature_build(self, monkeypatch, n_folds):
        # X3 comes out of every feature build and the baseline is scoring's X3, so
        # the window scan runs once per `input_variable_samples` call plus once per
        # scored disruption day (its observed exit vector), never again for X3
        ds = generate_synthetic(CRITERION_9)
        features = counted(monkeypatch, pipeline.input_variable_samples)
        scans = counted(monkeypatch, pipeline._window_scan)
        scores, records = run_evaluation(
            dataset_days(ds), ds.disruptions, ds.graph, InterferenceConfig(), out_dir=None,
            n_folds=n_folds, top_n=20, seed=0, n_samples=50,
        )
        assert len(scores) == len(records) == len(ds.disruptions)
        assert len(scans) == len(features) + len(scores)

    @pytest.mark.parametrize("n_folds", [1, 0])
    def test_fewer_than_two_folds_refused_before_scoring(self, monkeypatch, n_folds):
        ds, days = small_dataset()
        scored = counted(monkeypatch, evaluation.score_disruptions)
        with pytest.raises(ValueError, match=f"need at least 2 folds, got {n_folds}"):
            run_evaluation(days, ds.disruptions, ds.graph, InterferenceConfig(), n_folds=n_folds)
        assert scored == []

    def test_unknown_rho_mode(self):
        ds, days = small_dataset()
        with pytest.raises(ValueError, match="rho_mode"):
            run_evaluation(
                days, ds.disruptions, ds.graph, InterferenceConfig(), rho_mode="sometimes"
            )
