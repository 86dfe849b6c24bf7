"""Feature-pipeline tests: aggregation, input variables, training, basis, prediction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distreg import GAUSSIAN, LAPLACE, SampleSet, embed
from distreg.network import Disruption, Graph, disrupted_adjacency, feasible_origins
from distreg.pipeline import (
    DayCounts,
    _window_scan,
    InterferenceConfig,
    PerturbedObservation,
    build_basis,
    input_variable_samples,
    predict,
    resolve_rho,
    roi_exit_vector,
    train,
)
from distreg.oracles import training_objective
from distreg.regression import MixtureEmbeddingModel, TrainingPairs
from util import compositions, reference_median, reference_rho

# 5 nodes, two routes between 0 and 2 (0-1-2 and 0-3-4-2)
G5 = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)])


def day_counts(day, quads):
    """DayCounts from (origin, destination, t_exit, count) rows; repeated keys add up."""
    o, d, t, c = np.array(quads, dtype=np.int64).reshape(-1, 4).T
    return DayCounts(day=day, origin=o, destination=d, t_exit=t, count=c)


def as_dict(dc):
    """The day's counts as {(origin, destination, t_exit): count}."""
    keys = zip(dc.origin.tolist(), dc.destination.tolist(), dc.t_exit.tolist())
    return dict(zip(keys, dc.count.tolist()))


def hand_days(n_days=4, scale=1):
    """Deterministic traffic: exits at stations 1 and 2 inside and outside [20, 60]."""
    days = []
    for day in range(n_days):
        days.append(
            day_counts(
                day,
                [
                    (0, 1, 30, (2 + day) * scale),   # into station 1, in window
                    (1, 1, 40, 1 * scale),           # same-station journey at 1
                    (3, 2, 50, (3 + day) * scale),   # into station 2, in window
                    (2, 2, 25, 1 * scale),           # same-station journey at 2
                    (0, 2, 90, 5 * scale),           # outside window
                    (4, 0, 35, 2 * scale),           # not an ROI station
                ],
            )
        )
    return days


Z = Disruption(day=9, t_start=20, t_end=60, roi=(1, 2))
CFG = InterferenceConfig()


def aggregate(rows):
    """Day 0's (origin, destination, t_entry, t_exit) rows counted as `load_dataset` does."""
    cols = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return DayCounts(day=0, origin=cols[:, 0], destination=cols[:, 1], t_exit=cols[:, 3])


class TestAggregateDay:
    """DayCounts over one day's journey columns."""

    def test_empty(self):
        dc = aggregate([])
        assert as_dict(dc) == {} and dc.total == 0

    def test_multiplicity(self):
        dc = aggregate([(0, 1, 5, 10)] * 3)
        assert as_dict(dc) == {(0, 1, 10): 3}

    def test_total_matches_row_count(self):
        dc = aggregate([(0, 1, 5, 10), (0, 1, 5, 10), (2, 3, 0, 7), (4, 0, 1, 99), (1, 1, 2, 2)])
        assert dc.total == 5


class TestDayCounts:
    def test_aggregated_and_sorted_by_destination_exit_origin(self):
        dc = day_counts(0, [(3, 1, 9, 1), (0, 2, 5, 2), (2, 1, 9, 1), (3, 1, 9, 4), (1, 1, 4, 1)])
        assert dc.destination.tolist() == [1, 1, 1, 2]
        assert dc.t_exit.tolist() == [4, 9, 9, 5]
        assert dc.origin.tolist() == [1, 2, 3, 0]
        assert dc.count.tolist() == [1, 1, 5, 2]
        assert dc.total == 9 and type(dc.total) is int

    def test_one_journey_per_row_by_default(self):
        dc = DayCounts(day=0, origin=[0, 0, 1], destination=[1, 1, 1], t_exit=[5, 5, 5])
        assert as_dict(dc) == {(0, 1, 5): 2, (1, 1, 5): 1}

    def test_columns_are_read_only_int64(self):
        dc = day_counts(0, [(0, 1, 5, 2)])
        for col in (dc.origin, dc.destination, dc.t_exit, dc.count):
            assert col.dtype == np.int64
            with pytest.raises(ValueError):
                col[0] = 7

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            DayCounts(day=0, origin=[0, 1], destination=[1], t_exit=[5])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            day_counts(0, [(0, 1, 5, -1)])


class TestRoiExitVector:
    def test_nothing_in_window_is_zero(self):
        dc = day_counts(9, [(0, 1, 90, 4)])
        assert roi_exit_vector(dc, Z).tolist() == [0, 0]

    def test_unit_mass(self):
        dc = day_counts(9, [(0, 2, 30, 1)])
        assert roi_exit_vector(dc, Z).tolist() == [0, 1]

    def test_window_additivity(self):
        dc = day_counts(9, [(0, 1, t, 1) for t in range(15, 70, 5)])
        za = Disruption(day=9, t_start=20, t_end=40, roi=(1, 2))
        zb = Disruption(day=9, t_start=41, t_end=60, roi=(1, 2))
        whole = roi_exit_vector(dc, Z)
        assert (roi_exit_vector(dc, za) + roi_exit_vector(dc, zb)).tolist() == whole.tolist()

    def test_day_mismatch(self):
        dc = day_counts(3, [(0, 1, 30, 1)])
        with pytest.raises(ValueError, match="day"):
            roi_exit_vector(dc, Z)


class TestInputVariableSamples:
    def test_partition_and_shapes(self):
        days = hand_days()
        x1, x2, x3, x4, x5 = input_variable_samples(days, Z, G5, CFG)
        for s in (x1, x2, x3, x4, x5):
            assert len(s) == len(days) and s.dim == 2
        assert np.array_equal(x1.samples + x2.samples, x3.samples)

    def test_x3_values_hand_checked(self):
        days = hand_days()
        _, _, x3, _, _ = input_variable_samples(days, Z, G5, CFG)
        # day d: station 1 gets (2+d) from node 0 plus 1 self; station 2 gets (3+d) plus 1 self
        for d in range(4):
            assert x3.samples[d].tolist() == [3 + d, 4 + d]

    def test_only_same_station_traffic_is_feasible(self):
        # ROI stations are isolated in the disrupted graph, so X1 is the self traffic
        days = hand_days()
        x1, _, _, _, _ = input_variable_samples(days, Z, G5, CFG)
        assert np.all(x1.samples == 1.0)

    def test_x4_rows_constant_and_equal_to_column_means(self):
        days = hand_days()
        _, _, x3, x4, _ = input_variable_samples(days, Z, G5, CFG)
        means = np.mean(x3.samples, axis=0)
        assert np.all(x4.samples == means[None, :])
        assert np.all(x4.samples == x4.samples[0])

    def test_x5_mean_broadcast(self):
        days = hand_days()
        _, _, x3, _, x5 = input_variable_samples(days, Z, G5, CFG)
        expected = np.mean(x3.samples, axis=1, keepdims=True)
        assert np.allclose(x5.samples, np.tile(expected, (1, 2)))

    def test_singleton_roi_x5_equals_x3(self):
        days = hand_days()
        z1 = Disruption(day=9, t_start=20, t_end=60, roi=(1,))
        _, _, x3, _, x5 = input_variable_samples(days, z1, G5, CFG)
        assert np.array_equal(x3.samples, x5.samples)

    def test_disruption_day_must_be_excluded(self):
        days = hand_days() + [day_counts(9, [(0, 1, 30, 1)])]
        with pytest.raises(ValueError, match="exclude"):
            input_variable_samples(days, Z, G5, CFG)

    def test_empty_days_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            input_variable_samples([], Z, G5, CFG)

    def test_homogeneity_in_counts(self):
        ones = input_variable_samples(hand_days(scale=1), Z, G5, CFG)
        twos = input_variable_samples(hand_days(scale=2), Z, G5, CFG)
        for a, b in zip(ones, twos):
            assert np.array_equal(2.0 * a.samples, b.samples)


# 7 stations: a path 0-1-2-3, a triangle 4-5-6 hung on 3. xi = 0.25 makes every
# other origin of an ROI station infeasible and xi = 1 every connected one
# feasible, so the two draw both mask shapes
G7 = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)])


def dict_walk(raw_days, z, masks):
    """Reference: walk every (o, d, t, count) row of every day; (X1, X2, X3) sums."""
    pos = {station: j for j, station in enumerate(z.roi)}
    x1, x2, x3 = (np.zeros((len(raw_days), len(z.roi))) for _ in range(3))
    for row, quads in enumerate(raw_days):
        for o, d, t, c in quads:
            j = pos.get(d)
            if j is not None and z.t_start <= t <= z.t_end:
                x3[row, j] += c
                if masks[j, o]:
                    x1[row, j] += c
                else:
                    x2[row, j] += c
    return x1, x2, x3


QUAD = st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 9), st.integers(0, 4)
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    raw_days=st.lists(st.lists(QUAD, max_size=12), min_size=1, max_size=4),
    roi=st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True),
    window=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    xi=st.sampled_from([0.25, 1.0]),
)
@example(raw_days=[[], []], roi=[2], window=(0, 9), xi=0.25)  # empty days
@example(  # an ROI station with no exits; exits exactly at t_start and t_end
    raw_days=[[(0, 1, 3, 2), (5, 1, 6, 1), (1, 1, 2, 4), (4, 1, 7, 3)]],
    roi=[1, 3], window=(3, 6), xi=1.0,
)
@example(  # ROI in unsorted order
    raw_days=[[(0, 5, 4, 1), (6, 2, 4, 2), (2, 2, 5, 1)], [(5, 5, 0, 3)]],
    roi=[5, 0, 2], window=(0, 5), xi=1.0,
)
def test_window_scan_matches_dict_walk(raw_days, roi, window, xi):
    z = Disruption(day=len(raw_days), t_start=min(window), t_end=max(window), roi=tuple(roi))
    cfg = InterferenceConfig(xi=xi)
    g_dis = disrupted_adjacency(G7, z.roi)
    masks = np.stack([feasible_origins(G7, g_dis, s, cfg.xi) for s in z.roi])
    ref = dict_walk(raw_days, z, masks)

    days = [day_counts(day, quads) for day, quads in enumerate(raw_days)]
    x1, x2, x3, _, _ = input_variable_samples(days, z, G7, cfg)
    for got, want in zip((x1, x2, x3), ref):
        assert np.array_equal(got.samples, want)
    for row, quads in enumerate(raw_days):
        vec = roi_exit_vector(day_counts(z.day, quads), z)
        assert vec.dtype == np.int64 and vec.tolist() == ref[2][row].tolist()


def full_mask_scan(days, z):
    """Reference for `_window_scan`: one boolean mask over every row of every day."""
    cells, origins, counts = [], [], []
    for row, dc in enumerate(days):
        j = np.array([z.roi.index(d) if d in z.roi else -1 for d in dc.destination.tolist()])
        keep = (j >= 0) & (dc.t_exit >= z.t_start) & (dc.t_exit <= z.t_end)
        cells.append(row * len(z.roi) + j[keep].astype(np.int64))
        origins.append(dc.origin[keep])
        counts.append(dc.count[keep])
    return tuple(np.concatenate(cols) for cols in (cells, origins, counts))


# station ids up to 10**6, sparse, so an ROI station is often absent from a day
STATION = st.sampled_from([0, 1, 2, 5, 9, 999_999, 10**6])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    raw_days=st.lists(
        st.lists(
            st.tuples(st.integers(0, 9), STATION, st.integers(0, 9), st.integers(0, 3)),
            max_size=10,
        ),
        min_size=1,
        max_size=4,
    ),
    roi=st.lists(STATION, min_size=1, max_size=3, unique=True),
    window=st.tuples(st.integers(0, 9), st.integers(0, 9)),
)
@example(raw_days=[[], [], []], roi=[5], window=(0, 9))  # every day empty
@example(  # the ROI at the largest id, the second day without it
    raw_days=[[(1, 10**6, 4, 2), (3, 0, 4, 1), (2, 10**6, 9, 1)], [(0, 5, 3, 1)]],
    roi=[10**6], window=(4, 9),
)
@example(  # ROI ends of the id range, unsorted, with stations between them
    raw_days=[[(0, 10**6, 1, 1), (1, 9, 1, 1), (2, 0, 1, 1), (3, 999_999, 1, 1)]],
    roi=[10**6, 0], window=(0, 1),
)
def test_window_scan_matches_full_mask(raw_days, roi, window):
    z = Disruption(day=99, t_start=min(window), t_end=max(window), roi=tuple(roi))
    days = [day_counts(day, quads) for day, quads in enumerate(raw_days)]
    got, want = _window_scan(days, z), full_mask_scan(days, z)
    for a, b in zip(got, want):
        assert a.dtype == np.int64 and a.tolist() == b.tolist()


def test_window_scan_memory_grows_with_the_roi_not_its_id_span():
    # an ROI at both ends of a million station ids: a lookup table over the
    # span would take 8 MB
    z = Disruption(day=99, t_start=0, t_end=9, roi=(0, 10**6))
    days = [day_counts(d, [(1, 0, 3, 2), (2, 5, 4, 1), (3, 10**6, 5, 1)]) for d in range(3)]
    _window_scan(days, z)  # first call outside the trace: numpy's own one-time allocations
    tracemalloc.start()
    try:
        cell, origin, count = _window_scan(days, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert cell.tolist() == [0, 1, 2, 3, 4, 5] and count.tolist() == [2, 1] * 3


def observations_for(days, zs):
    """Disruption-day observations synthesized from a hand rule."""
    obs = []
    for z in zs:
        dc = day_counts(z.day, [(0, 1, 30, 1), (3, 2, 50, 1)])
        obs.append(PerturbedObservation.from_day_counts(dc, z))
    return obs


class TestTrain:
    def test_deterministic(self):
        days = hand_days(6)
        zs = [
            Disruption(day=10, t_start=20, t_end=60, roi=(1, 2)),
            Disruption(day=11, t_start=10, t_end=50, roi=(3, 4)),
        ]
        cfg = InterferenceConfig(rho=0.05)
        m1 = train(days, observations_for(days, zs), G5, cfg)
        m2 = train(days, observations_for(days, zs), G5, cfg)
        assert np.array_equal(m1.alpha, m2.alpha)

    def test_optimum_beats_selecting_x3(self):
        days = hand_days(6)
        z = Disruption(day=10, t_start=20, t_end=60, roi=(1, 2))
        obs = observations_for(days, [z])
        cfg = InterferenceConfig(rho=0.05)
        model = train(days, obs, G5, cfg)
        kernel = cfg.kernel()
        sets = input_variable_samples(days, z, G5, cfg)
        pairs = TrainingPairs(
            inputs=(tuple(embed(kernel, s) for s in sets),),
            outputs=(embed(kernel, SampleSet(obs[0].exit_vector[None, :])),),
        )
        e3 = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        assert training_objective(pairs, model.alpha) <= training_objective(pairs, e3) + 1e-12

    def test_unresolved_rho_rejected(self):
        days = hand_days()
        z = Disruption(day=10, t_start=20, t_end=60, roi=(1, 2))
        with pytest.raises(ValueError, match="rho"):
            train(days, observations_for(days, [z]), G5, InterferenceConfig())

    def test_needs_observations(self):
        with pytest.raises(ValueError, match="at least one"):
            train(hand_days(), [], G5, InterferenceConfig(rho=0.05))


class TestResolveRho:
    def test_positive_and_deterministic(self):
        days = hand_days(6)
        zs = [Disruption(day=10, t_start=20, t_end=60, roi=(1, 2))]
        obs = observations_for(days, zs)
        r1 = resolve_rho(days, obs, G5, CFG)
        r2 = resolve_rho(days, obs, G5, CFG)
        assert r1 == r2 > 0.0

    @pytest.mark.parametrize("family", [GAUSSIAN, LAPLACE])
    def test_pool_is_inputs_observation_and_basis_rows(self, family):
        # each disruption's pool, built by hand: X1..X5 rows, the observed
        # vector, then the rows of every basis component
        days = hand_days(6)
        zs = [
            Disruption(day=10, t_start=20, t_end=60, roi=(1, 2)),
            Disruption(day=11, t_start=10, t_end=50, roi=(2,)),
        ]
        obs = [
            PerturbedObservation.from_day_counts(day_counts(z.day, quads), z)
            for z, quads in zip(zs, [[(0, 1, 30, 9), (3, 2, 50, 4)], [(3, 2, 40, 7)]])
        ]
        cfg = InterferenceConfig(kernel_family=family)
        parts = []
        for o in obs:
            z = o.disruption
            sets = input_variable_samples(days, z, G5, cfg)
            inputs = np.vstack([s.samples for s in sets])
            basis = build_basis(sets[2], z, cfg.with_rho(1.0))  # rho does not move the rows
            rows = np.vstack([c.samples for c in basis.components])
            parts.append((inputs, o.exit_vector[None, :], rows))
        pools = [np.vstack(p) for p in parts]
        want = reference_median(pools, family)
        # leaving out the observations or the basis rows moves the median
        assert reference_median([np.vstack((x, b)) for x, _, b in parts], family) != want
        assert reference_median([np.vstack((x, v)) for x, v, _ in parts], family) != want
        assert resolve_rho(days, obs, G5, cfg) == reference_rho(want, family)

    def test_degenerate_traffic_rejected(self):
        # no ROI traffic at all: the basis (and hence the pooled scale) is degenerate
        days = [day_counts(d, [(0, 3, 30, 1)]) for d in range(3)]
        zs = [Disruption(day=10, t_start=20, t_end=60, roi=(1,))]
        obs = [
            PerturbedObservation.from_day_counts(day_counts(10, [(0, 3, 30, 1)]), zs[0])
        ]
        with pytest.raises(ValueError, match="traffic"):
            resolve_rho(days, obs, G5, CFG)


# X3 rows handed to `build_basis`: 4 natural days at the 2 ROI stations of Z
X3 = SampleSet(np.array([[2.0, 5.0], [3.0, 0.0], [4.0, 7.0], [0.0, 1.0]]))


class TestBuildBasis:
    def test_lambda_one_is_unscaled_marginal(self):
        basis = build_basis(X3, Z, InterferenceConfig(rho=0.05))
        assert np.array_equal(basis.components[0].samples[:, 0], X3.samples[:, 0])
        assert np.all(basis.components[0].samples[:, 1] == 0.0)

    def test_lambda_range_arithmetic(self):
        cfg = InterferenceConfig(rho=0.05)
        basis = build_basis(X3, Z, cfg)
        totals = X3.samples
        mean_max = float(np.max(np.mean(totals, axis=0)))
        # compare top-level against lambda_1 on the same station marginal
        lam_top = basis.components[-2].samples[:, 0] / np.where(totals[:, 0] == 0, 1, totals[:, 0])
        lam_top = float(lam_top[totals[:, 0] > 0][0])
        assert lam_top - 1.0 == pytest.approx(cfg.rescale_span * mean_max, rel=1e-12)

    def test_component_count_and_support(self):
        basis = build_basis(X3, Z, InterferenceConfig(rho=0.05, rescale_levels=3))
        assert len(basis) == 3 * 2
        for comp in basis.components:
            assert np.max(np.count_nonzero(comp.samples, axis=1)) <= 1

    def test_labels_carry_level_and_station(self):
        basis = build_basis(X3, Z, InterferenceConfig(rho=0.05, rescale_levels=2))
        assert basis.labels == ("r1_station1", "r1_station2", "r2_station1", "r2_station2")

    def test_zero_traffic_rejected(self):
        with pytest.raises(ValueError, match="traffic"):
            build_basis(SampleSet(np.zeros((3, 2))), Z, InterferenceConfig(rho=0.05))


class TestPredict:
    def test_theta_feasible_and_deterministic(self):
        days = hand_days(6)
        zs = [Disruption(day=10, t_start=20, t_end=60, roi=(1, 2))]
        cfg = InterferenceConfig(rho=0.05)
        model = train(days, observations_for(days, zs), G5, cfg)
        z_new = Disruption(day=77, t_start=20, t_end=60, roi=(1, 2))
        fm1, s1 = predict(model, days, z_new, G5, cfg, n_samples=50, seed=3)
        fm2, s2 = predict(model, days, z_new, G5, cfg, n_samples=50, seed=3)
        assert np.min(fm1.theta) >= -1e-12
        assert float(np.sum(fm1.theta)) == pytest.approx(1.0, abs=1e-9)
        assert np.array_equal(fm1.theta, fm2.theta)
        assert np.array_equal(s1.samples, s2.samples)

    def test_grid_oracle_small_basis(self):
        # model alpha = e3 makes the prediction the X3 embedding; basis 3x2 = 6 components
        days = hand_days(5)
        cfg = InterferenceConfig(rho=0.05, rescale_levels=3)
        model = MixtureEmbeddingModel(alpha=np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        z_new = Disruption(day=77, t_start=20, t_end=60, roi=(1, 2))
        fm, _ = predict(model, days, z_new, G5, cfg, n_samples=10, seed=0)

        kernel = cfg.kernel()
        sets = input_variable_samples(days, z_new, G5, cfg)
        target = embed(kernel, sets[2])
        basis = build_basis(sets[2], z_new, cfg)
        assert [c.samples.tobytes() for c in fm.basis.components] == [
            c.samples.tobytes() for c in basis.components
        ]
        from distreg.kernels import inner

        G = np.array([[inner(a, b) for b in basis.embeddings] for a in basis.embeddings])
        b = np.array([inner(e, target) for e in basis.embeddings])
        obj = lambda t: float(t @ G @ t - 2.0 * b @ t)
        grid = compositions(20, 6) / 20.0
        grid_best = min(obj(t) for t in grid)
        assert obj(fm.theta) <= grid_best + 1e-6
