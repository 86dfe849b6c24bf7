"""Loader/writer validation and synthetic-generator tests."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distreg.data_io import (
    SyntheticScenario,
    config_from_dict,
    config_to_dict,
    generate_synthetic,
    load_dataset,
    load_disruptions,
    load_graph,
    load_ground_truth,
    load_journeys,
    load_journeys_dir,
    load_scenario,
    parse_config,
    write_config,
    write_dataset,
)
from distreg.network import Disruption
from distreg.pipeline import (
    DayCounts,
    InterferenceConfig,
    JourneyRecord,
    aggregate_day,
    roi_exit_vector,
)


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


class TestLoadJourneys:
    def test_empty_file_with_header(self, tmp_path):
        p = write(tmp_path / "journeys_day3.csv", "origin,destination,t_entry,t_exit\n")
        assert load_journeys(p) == {}

    def test_direct_parse_day_from_filename(self, tmp_path):
        p = write(
            tmp_path / "journeys_day3.csv",
            "origin,destination,t_entry,t_exit\n3,7,510,530\n",
        )
        assert load_journeys(p) == {3: [JourneyRecord(3, 7, 510, 530)]}

    def test_day_column_accepted(self, tmp_path):
        p = write(
            tmp_path / "journeys.csv",
            "day,origin,destination,t_entry,t_exit\n0,1,2,5,6\n2,0,1,7,9\n",
        )
        out = load_journeys(p)
        assert set(out) == {0, 2}

    def test_reversed_times_rejected_with_line(self, tmp_path):
        p = write(
            tmp_path / "journeys_day0.csv",
            "origin,destination,t_entry,t_exit\n1,2,5,6\n1,2,30,10\n",
        )
        with pytest.raises(ValueError, match="line 3"):
            load_journeys(p)

    def test_bad_integer_named(self, tmp_path):
        p = write(
            tmp_path / "journeys_day0.csv",
            "origin,destination,t_entry,t_exit\n1,x,5,6\n",
        )
        with pytest.raises(ValueError, match="destination"):
            load_journeys(p)

    def test_negative_rejected(self, tmp_path):
        p = write(
            tmp_path / "journeys_day0.csv",
            "origin,destination,t_entry,t_exit\n-1,2,5,6\n",
        )
        with pytest.raises(ValueError, match="negative"):
            load_journeys(p)

    def test_missing_columns(self, tmp_path):
        p = write(tmp_path / "journeys_day0.csv", "origin,destination\n1,2\n")
        with pytest.raises(ValueError, match="missing"):
            load_journeys(p)

    def test_short_row_reads_as_blank_fields(self, tmp_path):
        p = write(
            tmp_path / "journeys_day0.csv",
            "origin,destination,t_entry,t_exit\n1,2,5,6\n1,2\n",
        )
        with pytest.raises(ValueError, match=r"line 3: bad integer t_entry=''"):
            load_journeys(p)

    def test_day_column_rows_grouped_in_file_order(self, tmp_path):
        p = write(
            tmp_path / "journeys.csv",
            "t_exit,day,origin,destination,t_entry\n9,2,0,1,7\n6,0,1,2,5\n8,2,3,4,1\n",
        )
        assert load_journeys(p) == {
            2: [JourneyRecord(0, 1, 7, 9), JourneyRecord(3, 4, 1, 8)],
            0: [JourneyRecord(1, 2, 5, 6)],
        }

    def test_no_day_anywhere(self, tmp_path):
        p = write(tmp_path / "journeys.csv", "origin,destination,t_entry,t_exit\n1,2,5,6\n")
        with pytest.raises(ValueError, match="day"):
            load_journeys(p)


class TestLoadDisruptions:
    def test_direct_parse(self, tmp_path):
        p = write(tmp_path / "disruptions.csv", "day,t_start,t_end,roi\n2,540,600,5;6\n")
        assert load_disruptions(p) == [Disruption(day=2, t_start=540, t_end=600, roi=(5, 6))]

    def test_duplicate_roi_rejected(self, tmp_path):
        p = write(tmp_path / "disruptions.csv", "day,t_start,t_end,roi\n2,540,600,5;5\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_disruptions(p)

    def test_paper_scale_file_loads(self, tmp_path):
        rows = "\n".join(f"{d % 35},100,200,{d};{d + 1}" for d in range(72))
        p = write(tmp_path / "disruptions.csv", "day,t_start,t_end,roi\n" + rows + "\n")
        assert len(load_disruptions(p)) == 72


class TestLoadGraph:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "graph.csv", "u,v\n0,1\n1,2\n")
        g = load_graph(p)
        assert g.n_nodes == 3 and g.edges() == [(0, 1), (1, 2)]

    def test_self_edge_rejected(self, tmp_path):
        p = write(tmp_path / "graph.csv", "u,v\n1,1\n")
        with pytest.raises(ValueError, match="self edge"):
            load_graph(p)

    def test_duplicate_edge_rejected(self, tmp_path):
        p = write(tmp_path / "graph.csv", "u,v\n0,1\n1,0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_graph(p)


class TestScenario:
    def test_load_and_validate(self, tmp_path):
        p = write(
            tmp_path / "s.json",
            '{"topology": "path", "n_nodes": 5, "days": 3, "n_disruptions": 1, "phi": 0.5}',
        )
        s = load_scenario(p)
        assert s.topology == "path" and s.n_nodes == 5

    def test_unknown_keys_rejected(self, tmp_path):
        p = write(tmp_path / "s.json", '{"topology": "path", "frobnicate": 1}')
        with pytest.raises(ValueError, match="frobnicate"):
            load_scenario(p)

    def test_invalid_topology(self):
        with pytest.raises(ValueError, match="topology"):
            SyntheticScenario(topology="torus", n_nodes=5, days=3, n_disruptions=1, phi=0.5)

    def test_invalid_phi(self):
        with pytest.raises(ValueError, match="phi"):
            SyntheticScenario(topology="path", n_nodes=5, days=3, n_disruptions=1, phi=1.5)


SCENARIO = SyntheticScenario(
    topology="grid",
    n_nodes=12,
    days=6,
    n_disruptions=2,
    phi=0.5,
    rate_low=0.3,
    rate_high=1.0,
    window_min=60,
    window_max=120,
    seed=7,
)


class TestGenerateSynthetic:
    def test_shapes_and_day_layout(self):
        ds = generate_synthetic(SCENARIO)
        assert sorted(ds.journeys) == list(range(8))  # 6 natural + 2 perturbed days
        assert [z.day for z in ds.disruptions] == [6, 7]
        assert len(ds.ground_truth) == 2
        assert all(r.scale == 0.5 for r in ds.ground_truth)

    def test_conservation_under_phi(self):
        # same seed, different phi: identical journeys except re-destined ones
        from dataclasses import replace

        ds0 = generate_synthetic(replace(SCENARIO, phi=0.0))
        ds1 = generate_synthetic(replace(SCENARIO, phi=1.0))
        for day in ds0.journeys:
            a, b = ds0.journeys[day], ds1.journeys[day]
            assert len(a) == len(b)
            for ja, jb in zip(a, b):
                assert (ja.origin, ja.t_entry, ja.t_exit) == (jb.origin, jb.t_entry, jb.t_exit)

    def test_phi_zero_perturbed_day_within_natural_spread(self):
        from dataclasses import replace

        ds = generate_synthetic(replace(SCENARIO, phi=0.0))
        z = ds.disruptions[0]
        days = {
            d: aggregate_day(r, d, SCENARIO.n_nodes, ds.t_window)
            for d, r in ds.journeys.items()
        }
        naturals = np.stack(
            [roi_exit_vector(day_forced(days[d], z.day), z) for d in range(6)]
        )
        observed = roi_exit_vector(days[z.day], z)
        lo = naturals.min(axis=0) - 3 * naturals.std(axis=0) - 3
        hi = naturals.max(axis=0) + 3 * naturals.std(axis=0) + 3
        assert np.all(observed >= lo) and np.all(observed <= hi)

    def test_phi_one_zeroes_roi_exits(self):
        from dataclasses import replace

        ds = generate_synthetic(replace(SCENARIO, phi=1.0))
        for z, truth in zip(ds.disruptions, ds.ground_truth):
            days = aggregate_day(ds.journeys[z.day], z.day, SCENARIO.n_nodes, ds.t_window)
            assert truth.scale == 0.0
            assert np.all(roi_exit_vector(days, z) == 0)

    def test_rerouted_exits_stay_out_of_roi(self):
        from dataclasses import replace

        ds = generate_synthetic(replace(SCENARIO, phi=1.0))
        for z in ds.disruptions:
            roi = set(z.roi)
            for j in ds.journeys[z.day]:
                if z.t_start <= j.t_exit <= z.t_end:
                    assert j.destination not in roi

    def test_disconnected_graph_rejected(self):
        s = SyntheticScenario(
            topology="erdos-renyi",
            n_nodes=30,
            days=3,
            n_disruptions=1,
            phi=0.5,
            er_p=0.01,
            seed=1,
        )
        with pytest.raises(ValueError, match="disconnected"):
            generate_synthetic(s)


def day_forced(dc, day):
    """A copy of a DayCounts that poses as another day (test helper for window sums)."""
    return DayCounts(day, dc.origin, dc.destination, dc.t_exit, dc.count)


class TestRoundTrip:
    def test_write_then_load_reproduces_structures(self, tmp_path):
        ds = generate_synthetic(SCENARIO)
        write_dataset(ds, tmp_path, config=InterferenceConfig(seed=SCENARIO.seed))
        journeys = load_journeys_dir(tmp_path)
        assert journeys == ds.journeys
        graph = load_graph(tmp_path / "graph.csv")
        assert np.array_equal(graph.adjacency, ds.graph.adjacency)
        assert load_disruptions(tmp_path / "disruptions.csv") == ds.disruptions
        assert load_ground_truth(tmp_path / "ground_truth.csv") == ds.ground_truth

    def test_same_seed_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_dataset(generate_synthetic(SCENARIO), d1)
        write_dataset(generate_synthetic(SCENARIO), d2)

        def digest(root):
            out = {}
            for p in sorted(root.iterdir()):
                out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
            return out

        assert digest(d1) == digest(d2)

    def test_load_dataset_bundle(self, tmp_path):
        ds = generate_synthetic(SCENARIO)
        write_dataset(ds, tmp_path)
        bundle = load_dataset(tmp_path)
        assert bundle.graph.n_nodes == SCENARIO.n_nodes
        assert sorted(bundle.days) == sorted(ds.journeys)
        assert bundle.disruptions == ds.disruptions
        assert bundle.t_window[0] == 0
        assert bundle.t_window[1] >= max(z.t_end for z in ds.disruptions)


    def test_load_dataset_matches_aggregated_records(self, tmp_path):
        ds = generate_synthetic(SCENARIO)
        write_dataset(ds, tmp_path)
        bundle = load_dataset(tmp_path)
        for day, recs in ds.journeys.items():
            want = aggregate_day(recs, day, SCENARIO.n_nodes, bundle.t_window)
            got = bundle.days[day]
            assert got.day == day
            for name in ("origin", "destination", "t_exit", "count"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_load_dataset_station_out_of_range_names_file_and_line(self, tmp_path):
        write_dataset(generate_synthetic(SCENARIO), tmp_path)
        path = tmp_path / "journeys_day1.csv"
        path.write_text(path.read_text() + f"0,{SCENARIO.n_nodes},1,2\n")
        n_lines = len(path.read_text().splitlines())
        with pytest.raises(ValueError, match=f"journeys_day1.csv line {n_lines}: station ids"):
            load_dataset(tmp_path)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = InterferenceConfig(
            xi=0.3, rescale_levels=4, rescale_span=1.25, rho=0.01, ridge=1e-7, seed=5
        )
        p = tmp_path / "config.txt"
        write_config(p, cfg)
        assert parse_config(p) == cfg

    def test_auto_values(self, tmp_path):
        p = write(tmp_path / "c.txt", "kernel.rho = auto\nridge = auto\n")
        cfg = parse_config(p)
        assert cfg.rho is None and cfg.ridge is None

    def test_comments_and_blanks(self, tmp_path):
        p = write(tmp_path / "c.txt", "# a comment\n\nxi = 0.4\n")
        assert parse_config(p).xi == 0.4

    def test_unknown_key_rejected(self, tmp_path):
        p = write(tmp_path / "c.txt", "xl = 0.4\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = write(tmp_path / "c.txt", "xi = 0.4\nxi = 0.5\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_config(p)

    def test_bad_value_rejected(self, tmp_path):
        p = write(tmp_path / "c.txt", "xi = often\n")
        with pytest.raises(ValueError):
            parse_config(p)


def positive_floats():
    return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


CONFIGS = st.builds(
    InterferenceConfig,
    xi=positive_floats(),
    rescale_levels=st.integers(min_value=2, max_value=1000),
    rescale_span=st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    kernel_family=st.sampled_from(["gaussian", "laplace"]),
    rho=st.none() | positive_floats(),
    ridge=st.none() | positive_floats(),
    g_convention=st.sampled_from(["inverted", "paper"]),
    x5_mode=st.sampled_from(["mean", "sum"]),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)

# config.txt as written before the `beta` and `I` knobs were removed
OLD_CONFIG_TXT = """\
kernel.family = gaussian
kernel.rho = 0.01
xi = 0.3
beta = 2.0
I = 5
R = 4
c = 1.25
ridge = 1e-07
g_convention = inverted
x5_mode = mean
seed = 5
"""


class TestConfigSchema:
    @settings(
        max_examples=150,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cfg=CONFIGS)
    def test_file_and_json_round_trips(self, tmp_path, cfg):
        p = tmp_path / "config.txt"
        write_config(p, cfg)
        assert parse_config(p) == cfg
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_old_file_parses_equal_to_new_file(self, tmp_path):
        old = write(tmp_path / "old.txt", OLD_CONFIG_TXT)
        cfg = parse_config(old)
        new = tmp_path / "new.txt"
        write_config(new, cfg)
        dropped = [ln for ln in OLD_CONFIG_TXT.splitlines() if ln.split(" = ")[0] not in ("beta", "I")]
        assert new.read_text() == "\n".join(dropped) + "\n"
        assert len(dropped) == 9
        assert parse_config(new) == cfg == InterferenceConfig(
            xi=0.3, rescale_levels=4, rescale_span=1.25, rho=0.01, ridge=1e-7, seed=5
        )

    def test_input_count_other_than_five_rejected_with_line(self, tmp_path):
        p = write(tmp_path / "c.txt", "xi = 0.3\nI = 3\n")
        with pytest.raises(ValueError, match="c.txt line 2: I = 3"):
            parse_config(p)

    @pytest.mark.parametrize("line", ["R = 2.5", "xi = auto", "seed = auto"])
    def test_bad_value_names_key_and_line(self, tmp_path, line):
        p = write(tmp_path / "c.txt", f"# header\n{line}\n")
        key, value = line.split(" = ")
        with pytest.raises(ValueError, match=f"c.txt line 2: bad {key} value '{value}'"):
            parse_config(p)

    def test_dict_ignores_unknown_keys(self):
        raw = {**config_to_dict(InterferenceConfig(rho=0.5)), "beta": 1.0, "I": 5}
        assert config_from_dict(raw) == InterferenceConfig(rho=0.5)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("xi", "abc"),
            ("xi", True),
            ("xi", None),
            ("R", None),
            ("R", 5.0),
            ("seed", False),
            ("kernel.family", 1),
            ("x5_mode", None),
            ("kernel.rho", "auto"),
            ("ridge", [1e-8]),
        ],
    )
    def test_dict_type_checked(self, key, value):
        raw = {**config_to_dict(InterferenceConfig()), key: value}
        with pytest.raises(ValueError, match=f"model config {key!r} must be"):
            config_from_dict(raw)

    def test_dict_missing_key_rejected(self):
        raw = config_to_dict(InterferenceConfig())
        del raw["c"]
        with pytest.raises(ValueError, match="missing 'c'"):
            config_from_dict(raw)
