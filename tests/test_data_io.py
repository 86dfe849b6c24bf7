"""Loader/writer validation and synthetic-generator tests."""

import hashlib
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from distreg import data_io, oracles
from distreg.cli import main as cli_main
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
from distreg.pipeline import DayCounts, InterferenceConfig, roi_exit_vector
from util import dataset_days


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def as_lists(journeys):
    """Per-day journey columns as row lists, after checking their int64 (rows, 4) layout."""
    for cols in journeys.values():
        assert cols.dtype == np.int64 and cols.ndim == 2 and cols.shape[1] == 4
    return {day: cols.tolist() for day, cols in journeys.items()}


JOURNEYS_HEADER = "origin,destination,t_entry,t_exit\n"

# journey row that breaks one rule (for 5 nodes) -> the message that names it
ROW_FAULTS = {
    "negative": ("1,-2,5,6", "negative id or time"),
    "reversed": ("1,2,9,3", "t_exit 3 earlier than t_entry 9"),
    "out-of-range": ("1,5,5,6", "station ids (1, 5) out of range for 5 nodes"),
    # values beyond int64 are checked too
    "negative-beyond-int64": (f"{-10**30},2,5,6", "negative id or time"),
    "reversed-beyond-int64": (f"1,2,{10**30},6", f"t_exit 6 earlier than t_entry {10**30}"),
    "out-of-range-beyond-int64": (
        f"1,{10**30},5,6", f"station ids (1, {10**30}) out of range for 5 nodes"
    ),
    "beyond-int64": (f"0,1,5,{10**20 - 1}", f"t_exit={10**20 - 1} exceeds int64"),
}

# a file with the faulty row at {row} -> its name and the faulty row's line
FAULT_LAYOUTS = {
    "after-blank-lines": (
        "journeys_day0.csv", JOURNEYS_HEADER + "1,2,5,6\n\n\n{row}\n2,3,0,1\n", 5
    ),
    "second-day-of-day-column": (
        "journeys.csv",
        "day," + JOURNEYS_HEADER + "0,1,2,5,6\n\n0,2,3,1,2\n1,1,2,5,6\n\n1,{row}\n0,0,1,2,3\n",
        7,
    ),
    "before-bad-integer": ("journeys_day0.csv", JOURNEYS_HEADER + "1,2,5,6\n{row}\n1,x,5,6\n", 3),
}


class TestLoadJourneys:
    def test_empty_file_with_header(self, tmp_path):
        p = write(tmp_path / "journeys_day3.csv", "origin,destination,t_entry,t_exit\n")
        assert load_journeys(p) == {}

    def test_direct_parse_day_from_filename(self, tmp_path):
        p = write(
            tmp_path / "journeys_day3.csv",
            "origin,destination,t_entry,t_exit\n3,7,510,530\n",
        )
        assert as_lists(load_journeys(p)) == {3: [[3, 7, 510, 530]]}

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

    @pytest.mark.parametrize("extra", ["99", ""])
    def test_long_row_refused(self, tmp_path, extra):
        # one row too many fields: numpy's reader refuses the file, and the loop names the row
        p = write(
            tmp_path / "journeys_day3.csv",
            f"origin,destination,t_entry,t_exit\n1,2,5,6\n1,2,3,4,{extra}\n",
        )
        assert data_io._journeys_by_loadtxt(p, None) is None
        with pytest.raises(ValueError, match=r"^journeys_day3.csv line 3: 5 fields, header has 4$"):
            load_journeys(p)

    def test_every_row_long_refused(self, tmp_path):
        p = write(tmp_path / "journeys_day3.csv", "origin,destination,t_entry,t_exit\n1,2,3,4,99\n")
        assert data_io._journeys_by_loadtxt(p, None) is None
        with pytest.raises(ValueError, match=r"^journeys_day3.csv line 2: 5 fields, header has 4$"):
            load_journeys(p)

    def test_earlier_bad_row_named_before_a_long_row(self, tmp_path):
        p = write(
            tmp_path / "journeys_day0.csv",
            "origin,destination,t_entry,t_exit\n-1,2,5,6\n1,2,3,4,99\n",
        )
        with pytest.raises(ValueError, match=r"line 2: negative"):
            load_journeys(p)

    def test_day_column_rows_grouped_in_file_order(self, tmp_path):
        p = write(
            tmp_path / "journeys.csv",
            "t_exit,day,origin,destination,t_entry\n9,2,0,1,7\n6,0,1,2,5\n8,2,3,4,1\n",
        )
        assert as_lists(load_journeys(p)) == {2: [[0, 1, 7, 9], [3, 4, 1, 8]], 0: [[1, 2, 5, 6]]}

    def test_no_day_anywhere(self, tmp_path):
        p = write(tmp_path / "journeys.csv", "origin,destination,t_entry,t_exit\n1,2,5,6\n")
        with pytest.raises(ValueError, match="day"):
            load_journeys(p)

    @pytest.mark.parametrize("layout", sorted(FAULT_LAYOUTS))
    @pytest.mark.parametrize("case", sorted(ROW_FAULTS))
    def test_first_fault_named_by_its_file_line(self, tmp_path, case, layout):
        row, message = ROW_FAULTS[case]
        name, text, line = FAULT_LAYOUTS[layout]
        p = write(tmp_path / name, text.format(row=row))
        with pytest.raises(ValueError, match=f"^{name} line {line}: {re.escape(message)}$"):
            load_journeys(p, n_nodes=5)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("origin,destination,t_entry,t_exit\n0,1,{big},{big}\n", "line 2: t_entry={big}"),
            ("day,origin,destination,t_entry,t_exit\n{big},0,1,5,6\n", "line 2: day={big}"),
            ("day,origin,destination,t_entry,t_exit\n{small},0,1,5,6\n", "line 2: day={small}"),
        ],
        ids=["both-times", "day", "negative-day"],
    )
    def test_value_beyond_int64_named_with_line_and_key(self, tmp_path, text, message):
        bounds = dict(big=2**63, small=-(2**63) - 1)
        p = write(tmp_path / "journeys_day0.csv", text.format(**bounds))
        want = f"^journeys_day0.csv {message.format(**bounds)} exceeds int64$"
        with pytest.raises(ValueError, match=want):
            load_journeys(p)

    def test_stray_quote_named_by_its_first_line_and_clipped(self, tmp_path):
        # the quote opens a field that runs to the end of the file
        rows = "".join(f"{i % 5},{(i + 1) % 5},5,6\n" for i in range(1000))
        p = write(tmp_path / "journeys_day0.csv", JOURNEYS_HEADER + "1,2,5,6\n" * 3 + '"' + rows)
        with pytest.raises(ValueError) as info:
            load_journeys(p, n_nodes=5)
        field = rows.strip()
        assert str(info.value) == (
            f"journeys_day0.csv line 5: bad integer origin={field[:40]!r}... "
            f"({len(field)} characters)"
        )

    def test_int64_bounds_load(self, tmp_path):
        top = 2**63 - 1
        p = write(
            tmp_path / "journeys.csv",
            f"day,origin,destination,t_entry,t_exit\n{-(2**63)},0,1,{top},{top}\n",
        )
        assert as_lists(load_journeys(p)) == {-(2**63): [[0, 1, top, top]]}


# a journey field both int() and np.loadtxt read: digits with an optional sign and padding
PLAIN_FIELD = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "", "", " ", "\t", "\xa0", "\x0c"]),
    st.sampled_from(["", "", "", "+", "-", "0"]),
    st.integers(0, 40),
    st.sampled_from(["", "", "", " ", "\x85"]),
)
# fields the two may read differently
ODD_FIELD = st.one_of(
    st.integers(-(2**64), 2**64).map(str),
    st.sampled_from(
        ["", " ", "1_000", "\uff11", '"4"', "5#", "#", "1.0", "2.7", "-0.5", "1.", "1e3", "0x1",
         "- 1", "+-1",
         "9223372036854775807", "9223372036854775808", "-9223372036854775809"]
    ),
    st.text(alphabet=' ",#_+-0129\t\r\n\x0b\x0c\xa0\x85\u2028\uff11', max_size=6),
)


def journey_line(fields: list[str], odd: str, at: int) -> str:
    return ",".join([*fields[:at], odd, *fields[at + 1 :]])


JOURNEY_LINE = st.one_of(
    st.lists(PLAIN_FIELD, min_size=4, max_size=4).map(",".join),
    st.builds(
        journey_line, st.lists(PLAIN_FIELD, min_size=4, max_size=4), ODD_FIELD, st.integers(0, 3)
    ),
    st.lists(PLAIN_FIELD, min_size=3, max_size=5).map(",".join),
    st.sampled_from(["", " ", "\t", "\x0c", "#", "#1,2,3,4"]),
)
JOURNEY_BODY = st.lists(
    st.tuples(JOURNEY_LINE, st.sampled_from(["\n", "\n", "\r\n", "\r"])), max_size=6
).map(lambda lines: "".join(line + end for line, end in lines))


@pytest.fixture(scope="module")
def journeys_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "journeys_day3.csv"


def refusal(read, *args):
    """read(*args), or the text of the ValueError it raised."""
    try:
        return read(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.sampled_from(
        ["origin,destination,t_entry,t_exit\n", "origin,destination,t_entry,t_exit\r\n",
         "origin,destination,t_entry,t_exit\r", "t_exit,origin,destination,t_entry\n"]
    ),
    body=JOURNEY_BODY,
    n_nodes=st.none() | st.integers(1, 40),
)
@example(header="origin,destination,t_entry,t_exit\n", body="1,2,3,4\n\n5,6,7,8\r\n", n_nodes=None)
@example(header="origin,destination,t_entry,t_exit\n", body="1,2,3\n4,5,6\n", n_nodes=None)
@example(header="origin,destination,t_entry,t_exit\n", body="1,2,3,4 #\n", n_nodes=None)
@example(header="origin,destination,t_entry,t_exit\n", body="2.7,2,3,4\n", n_nodes=None)
@example(header="origin,destination,t_entry,t_exit\n", body="\n\r\n", n_nodes=None)
@example(header="origin,destination,t_entry,t_exit\n", body="1,2,3,4\x0c5,6,7,8\n", n_nodes=None)
def test_loadtxt_path_reads_a_subset_of_what_the_loop_reads(journeys_path, header, body, n_nodes):
    """The C-parsed path returns a table only where the csv loop returns the same
    one, and warns of nothing; load_journeys answers as the loop does: same
    table or same error. No warning filter is set, as in the CLI."""
    journeys_path.write_text(header + body, newline="")
    loop = refusal(data_io._journeys_by_csv, journeys_path, n_nodes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fast = data_io._journeys_by_loadtxt(journeys_path, n_nodes)
    assert not caught, [str(w.message) for w in caught]
    if fast is not None:
        assert not isinstance(loop, str), loop
        assert as_lists(fast) == as_lists(loop)
    got = refusal(load_journeys, journeys_path, n_nodes)
    if isinstance(loop, str):
        assert got == loop
    else:
        assert as_lists(got) == as_lists(loop)


JOURNEY_HEADER = "origin,destination,t_entry,t_exit"


@pytest.mark.parametrize("field", ["2.7", "1.0", "1e3", "-0.5"])
def test_float_field_refused_as_the_loop_refuses_it(tmp_path, field):
    # a float in an int64 column goes to the csv loop, which refuses it; no warning
    # filter is set, as in the CLI, where numpy's warnings are hidden
    p = write(tmp_path / "journeys_day3.csv", f"{JOURNEY_HEADER}\n0,1,2,3\n{field},2,3,4\n")
    assert data_io._journeys_by_loadtxt(p, None) is None
    with pytest.raises(ValueError, match=re.escape(f"line 3: bad integer origin={field!r}")):
        load_journeys(p)


def test_loadtxt_float_as_integer_warning_sends_the_file_to_the_loop(tmp_path, monkeypatch):
    # older numpy reads "2.7" into an int64 column as 2, warning only that this is deprecated
    def truncating_loadtxt(*args, **kwargs):
        warnings.warn(
            "loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning
        )
        return np.array([[0, 1, 2, 3], [2, 2, 3, 4]], dtype=np.int64)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    p = write(tmp_path / "journeys_day3.csv", f"{JOURNEY_HEADER}\n0,1,2,3\n2.7,2,3,4\n")
    assert data_io._journeys_by_loadtxt(p, None) is None
    with pytest.raises(ValueError, match=re.escape("line 3: bad integer origin='2.7'")):
        load_journeys(p)


class TestLoadDisruptions:
    def test_direct_parse(self, tmp_path):
        p = write(tmp_path / "disruptions.csv", "day,t_start,t_end,roi\n2,540,600,5;6\n")
        assert load_disruptions(p) == [Disruption(day=2, t_start=540, t_end=600, roi=(5, 6))]

    def test_duplicate_roi_rejected(self, tmp_path):
        p = write(tmp_path / "disruptions.csv", "day,t_start,t_end,roi\n2,540,600,5;5\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_disruptions(p)

    def test_bad_integer_named_once(self, tmp_path):
        p = write(tmp_path / "disruptions.csv", "day,t_start,t_end,roi\nten,540,600,5;6\n")
        with pytest.raises(ValueError, match=r"^disruptions.csv line 2: bad integer day='ten'$"):
            load_disruptions(p)

    def test_stray_quote_named_by_its_first_line_and_clipped(self, tmp_path):
        rows = "".join(f"{d},100,200,{d};{d + 1}\n" for d in range(50))
        p = write(tmp_path / "disruptions.csv", "day,t_start,t_end,roi\n" + '"' + rows)
        with pytest.raises(ValueError) as info:
            load_disruptions(p)
        message = str(info.value)
        assert message.startswith("disruptions.csv line 2: bad integer day='0,100,200,0;1\\n")
        assert message.endswith(f"... ({len(rows.strip())} characters)") and len(message) < 120

    def test_paper_scale_file_loads(self, tmp_path):
        rows = "\n".join(f"{d % 35},100,200,{d};{d + 1}" for d in range(72))
        p = write(tmp_path / "disruptions.csv", "day,t_start,t_end,roi\n" + rows + "\n")
        assert len(load_disruptions(p)) == 72


class TestLoadGroundTruth:
    @pytest.mark.parametrize(
        "row, key",
        [("1,abc,0.2", "phi"), ("1,0.8", "scale"), ("1,nan,0.2", "phi")],
        ids=["not-a-number", "short-row", "nan"],
    )
    def test_bad_number_names_file_line_and_key(self, tmp_path, row, key):
        p = write(tmp_path / "ground_truth.csv", f"disruption_id,phi,scale\n0,0.8,0.2\n{row}\n")
        with pytest.raises(ValueError, match=f"ground_truth.csv line 3: bad number {key}="):
            load_ground_truth(p)

    @pytest.mark.parametrize(
        "row, key",
        [
            ("1,1.5,-0.5", "phi"),
            ("1,-0.25,1.25", "phi"),
            ("1,0.8,0.3", "scale"),
            ("1,0.8,0.2000000001", "scale"),
            ("0,0.5,0.5", "disruption_id"),
        ],
        ids=["phi-above-one", "phi-below-zero", "scale-not-one-minus-phi", "scale-off-by-1e-10",
             "repeated-id"],
    )
    def test_bad_value_names_file_line_and_key(self, tmp_path, row, key):
        p = write(tmp_path / "ground_truth.csv", f"disruption_id,phi,scale\n0,0.8,0.2\n{row}\n")
        with pytest.raises(ValueError, match=f"ground_truth.csv line 3: .*{key}="):
            load_ground_truth(p)

    def test_hand_written_scale_loads(self, tmp_path):
        # 1.0 - 0.8 is 0.19999999999999996, not 0.2: the scale check has a tolerance
        p = write(tmp_path / "ground_truth.csv", "disruption_id,phi,scale\n0,0.8,0.2\n1,0,1\n")
        assert [(r.disruption_id, r.phi, r.scale) for r in load_ground_truth(p)] == [
            (0, 0.8, 0.2), (1, 0.0, 1.0)
        ]


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

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match=r"scenario 'seed' must be in \[0, 2\*\*128\)"):
            SyntheticScenario(
                topology="path", n_nodes=5, days=3, n_disruptions=1, phi=0.5, seed=seed
            )

    def test_seed_bounds_accepted(self):
        for seed in (0, 2**128 - 1):
            s = SyntheticScenario(
                topology="path", n_nodes=5, days=3, n_disruptions=1, phi=0.5, seed=seed
            )
            assert s.seed == seed

    def test_load_error_names_file(self, tmp_path):
        p = write(
            tmp_path / "s.json",
            '{"topology": "path", "n_nodes": 5, "days": 3, "n_disruptions": 1, "phi": 0.5,'
            ' "seed": -1}',
        )
        with pytest.raises(ValueError, match="s.json: bad scenario: scenario 'seed'"):
            load_scenario(p)


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
            assert a.shape == b.shape
            # origin, t_entry, t_exit
            assert np.array_equal(a[:, [0, 2, 3]], b[:, [0, 2, 3]])

    def test_phi_zero_perturbed_day_within_natural_spread(self):
        from dataclasses import replace

        ds = generate_synthetic(replace(SCENARIO, phi=0.0))
        z = ds.disruptions[0]
        days = dataset_days(ds)
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
        days = dataset_days(ds)
        for z, truth in zip(ds.disruptions, ds.ground_truth):
            assert truth.scale == 0.0
            assert np.all(roi_exit_vector(days[z.day], z) == 0)

    def test_rerouted_exits_stay_out_of_roi(self):
        from dataclasses import replace

        ds = generate_synthetic(replace(SCENARIO, phi=1.0))
        for z in ds.disruptions:
            _, destination, _, t_exit = ds.journeys[z.day].T
            in_window = (z.t_start <= t_exit) & (t_exit <= z.t_end)
            assert in_window.any()
            assert not np.isin(destination[in_window], z.roi).any()

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


# draws a generator may have made before a day's journey times; a scalar
# `integers` call leaves the high half of its 64-bit draw pending
PRE_DRAWS = {
    "poisson": lambda rng: rng.poisson(2.0, size=3),
    "integers": lambda rng: rng.integers(0, 10),
    "random": lambda rng: rng.random(),
}


def after_same_draws(pre_draws, pending_word=None, seed=0):
    """Two generators with one seed, each after the same `PRE_DRAWS`;
    `pending_word` then leaves that 32-bit word pending."""
    pair = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        for draw in pre_draws:
            PRE_DRAWS[draw](rng)
        if pending_word is not None:
            state = {**rng.bit_generator.state, "has_uint32": 1, "uinteger": pending_word}
            rng.bit_generator.state = state
        pair.append(rng)
    return pair


def assert_same_draws(t_min, t_max, count, fast, slow):
    """`_journey_times` on `fast` gives the table that one scalar call per draw
    gives on `slow`, and leaves the generator in the same state."""
    got = data_io._journey_times(fast, count, t_min, t_max)
    want = oracles._journey_times_by_call(slow, count, t_min, t_max)
    assert got.dtype == np.int64 and got.shape == (count, 2)
    assert np.array_equal(got, want)
    assert fast.bit_generator.state == slow.bit_generator.state
    for rng_draw in (
        lambda rng: rng.integers(0, 1000),
        lambda rng: rng.random(),
        lambda rng: rng.poisson(3.0, size=4).tolist(),
    ):
        assert rng_draw(fast) == rng_draw(slow)


# (t_min, t_max): zero range, one more value, small, the criterion-8 day, both
# sides of the widest range drawn from words (2**16 values), and ranges that
# numpy draws from 32-bit words without rejection or from 64-bit draws
DRAW_RANGES = {
    "zero": (7, 7),
    "r1": (0, 1),
    "small": (10, 30),
    "day": (0, 239),
    "widest-words": (5, 5 + 2**16 - 1),
    "first-scalar": (5, 5 + 2**16),
    "second-scalar": (5, 5 + 2**16 + 1),
    "unbounded-words": (0, 2**32 - 1),
    "64-bit": (0, 2**33),
}


class TestJourneyTimes:
    @pytest.mark.parametrize("pending", [False, True], ids=["no-pending", "pending"])
    @pytest.mark.parametrize("case", sorted(DRAW_RANGES))
    def test_matches_one_call_per_draw(self, case, pending):
        t_min, t_max = DRAW_RANGES[case]
        for count in (0, 1, 2, 7, 2000):
            pre = ["poisson", "integers"] if pending else ["poisson"]
            assert_same_draws(t_min, t_max, count, *after_same_draws(pre, seed=count))

    @pytest.fixture
    def scalar_calls(self, monkeypatch):
        """The journey counts `_journey_times` hands to its call-by-call path."""
        calls = []
        one_by_one = data_io._scalar_journey_times
        monkeypatch.setattr(
            data_io,
            "_scalar_journey_times",
            lambda *args: calls.append(args[1]) or one_by_one(*args),
        )
        return calls

    @pytest.mark.parametrize(
        "seed, pre, count",
        [(0, ["poisson"], 7000), (0, ["poisson", "integers"], 7000), (4, ["poisson"], 20000)],
        ids=["exit", "exit-pending", "entry"],
    )
    def test_redone_draws(self, scalar_calls, seed, pre, count):
        # 65,175 values: the largest rejection bound below 2**16 values. Seed 0
        # redoes 2 and 3 t_exit draws in 7,000 journeys, seed 4 two t_entry draws;
        # each such journey is drawn call by call
        assert_same_draws(0, 65_174, count, *after_same_draws(pre, seed=seed))
        assert scalar_calls and set(scalar_calls) == {1}

    @pytest.mark.parametrize(
        "t_max, count, redone", [(65_174, 50, [1]), (1, 1, []), (1, 6, [])], ids=str
    )
    def test_pending_word_zero(self, scalar_calls, t_max, count, redone):
        # word 0 draws t_exit == t_min, so a journey may read the pending half
        # alone; it is below the rejection bound of every range that has one,
        # such as 65,175 values (2 values have none)
        assert_same_draws(0, t_max, count, *after_same_draws(["poisson"], pending_word=0))
        assert scalar_calls == redone

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        t_min=st.integers(min_value=0, max_value=2**40),
        r=st.one_of(
            st.integers(min_value=0, max_value=300),
            st.integers(min_value=2**16 - 2, max_value=2**16 + 2),
            st.integers(min_value=0, max_value=2**34),
        ),
        count=st.integers(min_value=0, max_value=300),
        pre=st.lists(st.sampled_from(sorted(PRE_DRAWS)), max_size=4),
        pending_word=st.none() | st.integers(min_value=0, max_value=2**32 - 1),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_any_range_and_start(self, t_min, r, count, pre, pending_word, seed):
        assert_same_draws(t_min, t_min + r, count, *after_same_draws(pre, pending_word, seed))

    @staticmethod
    def simulate(out, **window):
        """`distreg simulate` of a 4-station path with these time-window fields into out."""
        scenario = dict(topology="path", n_nodes=4, days=2, n_disruptions=1, phi=0.5, **window)
        path = write(out.parent / "scenario.json", json.dumps(scenario))
        return cli_main(["simulate", "--scenario", str(path), "--out", str(out)])

    def test_wide_range_simulates(self, tmp_path):
        assert self.simulate(tmp_path / "out", t_max=2**32) == 0
        t_exit = load_journeys(tmp_path / "out" / "journeys_day0.csv")[0][:, 3]
        assert t_exit.max() > 2**31

    @pytest.mark.parametrize(
        "window, message",
        [
            (dict(t_max=2**70), "high is out of bounds for int64"),
            (dict(t_min=2**70, t_max=2**70, window_min=1, window_max=1), "out of bounds for int64"),
        ],
        ids=["t_max", "t_min-and-t_max"],
    )
    def test_beyond_int64_exit_2(self, tmp_path, capsys, window, message):
        assert self.simulate(tmp_path / "out", **window) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def day_forced(dc, day):
    """A copy of a DayCounts that poses as another day (test helper for window sums)."""
    return DayCounts(day, dc.origin, dc.destination, dc.t_exit, dc.count)


# sha256 of every file `distreg simulate` writes, recorded before the generator
# was vectorised, so any shift in its draw stream shows. The cycle's short day
# makes zero-range t_entry draws (t_exit == t_min) common; they draw nothing.
GOLDEN_SCENARIOS = {
    "grid": (
        dict(
            topology="grid", n_nodes=12, days=4, n_disruptions=2,
            phi=0.8, window_min=80, window_max=140, seed=42,
        ),
        {
            "config.txt": "1f12680421bdd7bf6e471f42cb4a6e3bfe33d4dee256a25eaa1cd9bcf7800864",
            "disruptions.csv": "4ad89f35201971b0b18a4a6a049b846a31a29cce848f9b8226a418db0b7068cc",
            "graph.csv": "2a3e72851aadd9aa5c28185179d6934f51c9d3b43612a07936efc9941b96433a",
            "ground_truth.csv": "6ad94e879830794ab11a600eeb028a889235d33c15ebcef3622b4fbe00901eb6",
            "journeys_day0.csv": "cbab1adcd9a1195c4e24ffb30f63a2dc2b59e4843b085b34847f4114745dc6cf",
            "journeys_day1.csv": "1028c8f426067ca534d1dac1494d425b530a0749a7a109ced7b7f732be336d34",
            "journeys_day2.csv": "3daf184cbb2dc95ff5c102ec9c94191a608be531e3df92aa7e8b6c437e2ca5f1",
            "journeys_day3.csv": "33791589354657ba771206fb4973502c28eac03050385e19301fbdde69d9781a",
            "journeys_day4.csv": "5f0cf4b4b7f8209218dfb305820669e07aa9edb0233010e00f1f1e169c6b7a9a",
            "journeys_day5.csv": "ee429cf3eaca0dfff6a4c8924f5a75e3a5159fbbb75706bbb0fa5aacd0d09991",
        },
    ),
    "erdos-renyi": (
        dict(
            topology="erdos-renyi", n_nodes=10, er_p=0.4, days=3,
            n_disruptions=2, roi_links=2, phi=0.5, seed=3,
        ),
        {
            "config.txt": "93a3b6d8cce3a16989600e649a2c4e464e9f63ca291d3bd6ce216bdec36b406e",
            "disruptions.csv": "cc42858b938e1453ebc08737fe4688d235ebc4fc4bb5a558f8812dce0e21e661",
            "graph.csv": "35fedfa9d0c2dedcc8922c763ed6cd2a7518311eee73c5c865308109971b28ed",
            "ground_truth.csv": "bcec314ce35e981b8bc759b7f6c272353a2e87cb51aa367ef3726eaf36709bce",
            "journeys_day0.csv": "004aa47a820ed3469df45af119187a97b251a2d46ac1bc3bddd25b9f75ea767d",
            "journeys_day1.csv": "f727726ff9f7c6cecf44ca381c006137bb1cfc209e30ce7bf3f38b760cf22007",
            "journeys_day2.csv": "d429cfd922c2fc963fa2ae8205112cdb40b8b4db98211e916bc6c0d5b0ea5b97",
            "journeys_day3.csv": "ccc11986eeac64ffe5a8dfbd99b6cf7dfde836950c950061524e1f4ca88f53a9",
            "journeys_day4.csv": "609fd2c9ee69b8220cdcf6b1a5cd60514b0a30d103a694e479cc0d17ca0e0cf9",
        },
    ),
    "path": (
        dict(
            topology="path", n_nodes=6, days=3,
            n_disruptions=2, phi=1.0, seed=5,
        ),
        {
            "config.txt": "54218b6f33e334181e8052b7cda2debb14f2bcc1921ed42e7fbc6d4daf1e6831",
            "disruptions.csv": "802c0543692223975a9a05c83761c8075013a8d14b13de005a4542b7ffa49486",
            "graph.csv": "8903cc457c199a7617b969c3dca05511f35c7ee01a2e602df637e728bf683ae0",
            "ground_truth.csv": "342ee9b978d4109d6cd2236b555e3669702439570f6ece127c077f6bf8e7ecad",
            "journeys_day0.csv": "c366a73771f47e87ecc4f7029dc1ac63a27624046ba31cfc5209f77c2bdcade6",
            "journeys_day1.csv": "36c5695d28d49ea340c180b031661e9bdfc503b3b59c3d0b811c8cc557f6936c",
            "journeys_day2.csv": "928f78d18e508357e92a1aaeaa122da81dbc7af7d9687b8c75054f0e2cfd3873",
            "journeys_day3.csv": "51b074a1d8877693980f27b7f9baa9ade31e3e8e38166e91212839189e449eb2",
            "journeys_day4.csv": "b644ee58933313e40dc0b7c6886a8e9486acaf30c12db9ec99e5080e8a546c93",
        },
    ),
    "cycle": (
        dict(
            topology="cycle", n_nodes=7, days=3, n_disruptions=2, phi=0.6,
            t_max=20, window_min=1, window_max=10, seed=9,
        ),
        {
            "config.txt": "16a6c059f858c38d2be162dbc4fa1c82109f244c85f730854be4336dc8476101",
            "disruptions.csv": "ca48e75ba84b5e2ab8c45f504e363ece2d56d89ec86b052b03280a971af85897",
            "graph.csv": "cdfa743ee5db69e54e610deccc27d2f6d5f6a237885e0ab3dabb31b2a22ce4b0",
            "ground_truth.csv": "052a2f2d331022d41e7bfd178f73066872500eb0f0a4989247bebf91e569d372",
            "journeys_day0.csv": "99f477f36131da99c355d18927fce52feb1cba4087d8f546299088d1c35c6e1f",
            "journeys_day1.csv": "b3aa8a06b0b7232a1431570600dc2050de9ee5c7649449f19c4f08f483601759",
            "journeys_day2.csv": "d8dd80a7317f76db32047d5e79b1c18d86353f527ad56122d0e748e58814ed2e",
            "journeys_day3.csv": "394d4533137ea33a753871f53583b26775a87ae172fa09522bdf08c199057577",
            "journeys_day4.csv": "bda2dc8f3e9303fd5aceabccb65411b44543f4c20c38970fbfbb04da8a3babbc",
        },
    ),
}


# sha256 of every file `score`, `train`, `predict` and `evaluate` write on the
# criterion-9 grid, recorded before the CSV writers were merged into
# `data_io.write_csv`, so any change in float formatting or CSV dialect shows
# (numpy 2.4, x86-64). `train/model.json`, `predict/theta.csv` and
# `predict/prediction.json` were re-recorded when self inner products began to
# sum one triangle of the Gram: their floats moved in the last digits.
# `predict/theta.csv` was re-recorded again when the simplex QP became an
# active-set method: theta moved by 1e-8 at the same objective.
CLI_SCENARIO = dict(
    topology="grid", n_nodes=12, days=10, n_disruptions=4, phi=0.8, rate_low=0.8,
    rate_high=1.6, window_min=80, window_max=140, seed=11,
)
CLI_DIGESTS = {
    "evaluate/density_0_5.csv": "c4ca9ed4a58501051a0f5c7858e607cb33bb2745320463c679a2962d79814625",
    "evaluate/density_0_6.csv": "6c4c46b14769fe85847fae62b7cd3f8b8f072331683d7e59c01620bc8711d267",
    "evaluate/density_1_8.csv": "b1ccc9bc89e1f9892236dc5d8b0e3456762dfc0ea2615ca1fa48333b54b35a42",
    "evaluate/density_1_9.csv": "62d7b6b29da7cd1bc28e460f5af5722053799b4edf32c3a67e76a57b433f27f6",
    "evaluate/density_2_5.csv": "8b8e91439d2cb26c34ec611d68caf6d776db8bb4c8b36e98fe4576800dcd3cfd",
    "evaluate/density_2_6.csv": "0020d89f26bf31b954a3939936d59cb097f6f157b33b1b5579d5af40d9f3ea44",
    "evaluate/density_3_8.csv": "343a40b0785d9f64c8c0b597c0479fc7c2516fba0390e27706355ab88664d8a4",
    "evaluate/density_3_9.csv": "b4f70788551ddb71491893c5d38a70ae9c18261c5b0cf30a7a3bd209980aaad2",
    "evaluate/metrics.csv": "54b534fcec7ba22262f27362a4f99a2abe1b36c42417e8623a0c202b8bbf3ae2",
    "evaluate/scores.csv": "4f8ad1875bbd622ae8ab055e9b6b3f7da0f4c402b8eb8b0bdfa4b414d4681d41",
    "predict/prediction.json": "b3e9986932baafe68bd3607d0af96fef5f8e1f643271007570ee80452bf97946",
    "predict/samples.csv": "20ac6f911a43f858c97bb55dd0a900e9c3da846f80ec17facf7504345590f33d",
    "predict/theta.csv": "66aa29dbd209355cb7c87d8115dd2be570b2059a667175c2d944e855683277d3",
    "score/scores.csv": "4f8ad1875bbd622ae8ab055e9b6b3f7da0f4c402b8eb8b0bdfa4b414d4681d41",
    "train/model.json": "ac34a833b5d70df6aa6e41568367b35239f7c85f89010b73e27e985a5ad998f8",
}


def test_cli_outputs_match_recorded_digests(tmp_path):
    data = tmp_path / "data"
    scenario = write(tmp_path / "scenario.json", json.dumps(CLI_SCENARIO))
    assert cli_main(["simulate", "--scenario", str(scenario), "--out", str(data)]) == 0
    out = tmp_path / "out"
    commands = [
        ["score", "--data", str(data), "--out", str(out / "score" / "scores.csv")],
        ["train", "--data", str(data), "--out", str(out / "train")],
        [
            "predict", "--data", str(data), "--model", str(out / "train" / "model.json"),
            "--disruption", "99,60,180,1;2", "--n-samples", "30", "--seed", "5",
            "--out", str(out / "predict"),
        ],
        [
            "evaluate", "--data", str(data), "--folds", "2", "--seed", "0",
            "--n-samples", "50", "--out", str(out / "evaluate"),
        ],
    ]
    for argv in commands:
        assert cli_main(argv) == 0, argv[0]
    got = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file()
    }
    assert got == CLI_DIGESTS


SMALL_SCENARIOS = st.builds(
    SyntheticScenario,
    topology=st.sampled_from(["path", "cycle", "grid"]),
    n_nodes=st.integers(min_value=4, max_value=9),
    days=st.integers(min_value=2, max_value=4),
    n_disruptions=st.integers(min_value=1, max_value=3),
    phi=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestRoundTrip:
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(s=SMALL_SCENARIOS)
    @example(s=SCENARIO)
    def test_written_dataset_loads_back_equal(self, s):
        ds = generate_synthetic(s)
        with tempfile.TemporaryDirectory() as tmp:  # fresh per example: no stale journeys files
            out = Path(tmp)
            write_dataset(ds, out)
            bundle = load_dataset(out)
            assert np.array_equal(bundle.graph.adjacency, ds.graph.adjacency)
            assert bundle.disruptions == ds.disruptions
            assert sorted(bundle.days) == sorted(ds.journeys)
            assert as_lists(load_journeys_dir(out)) == as_lists(ds.journeys)
            assert load_ground_truth(out / "ground_truth.csv") == ds.ground_truth

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

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_written_bytes_match_recorded_digests(self, tmp_path, name):
        kwargs, want = GOLDEN_SCENARIOS[name]
        s = SyntheticScenario(**kwargs)
        write_dataset(generate_synthetic(s), tmp_path, config=InterferenceConfig(seed=s.seed))
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == want

    def test_load_dataset_bundle(self, tmp_path):
        ds = generate_synthetic(SCENARIO)
        write_dataset(ds, tmp_path)
        bundle = load_dataset(tmp_path)
        assert bundle.graph.n_nodes == SCENARIO.n_nodes
        assert sorted(bundle.days) == sorted(ds.journeys)
        assert bundle.disruptions == ds.disruptions
        assert bundle.t_window[0] == 0
        assert bundle.t_window[1] >= max(z.t_end for z in ds.disruptions)


    def test_load_dataset_matches_aggregated_columns(self, tmp_path):
        ds = generate_synthetic(SCENARIO)
        write_dataset(ds, tmp_path)
        bundle = load_dataset(tmp_path)
        for day, cols in ds.journeys.items():
            want = DayCounts(day=day, origin=cols[:, 0], destination=cols[:, 1], t_exit=cols[:, 3])
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
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)

# config.txt as written before the `beta`, `I`, `g_convention` and `x5_mode`
# knobs were retired
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
        retired = ("beta", "I", "g_convention", "x5_mode")
        dropped = [ln for ln in OLD_CONFIG_TXT.splitlines() if ln.split(" = ")[0] not in retired]
        assert new.read_text() == "\n".join(dropped) + "\n"
        assert len(dropped) == 7
        assert parse_config(new) == cfg == InterferenceConfig(
            xi=0.3, rescale_levels=4, rescale_span=1.25, rho=0.01, ridge=1e-7, seed=5
        )

    def test_input_count_other_than_five_rejected_with_line(self, tmp_path):
        p = write(tmp_path / "c.txt", "xi = 0.3\nI = 3\n")
        with pytest.raises(ValueError, match="c.txt line 2: I = 3"):
            parse_config(p)

    @pytest.mark.parametrize(
        "line",
        ["R = 2.5", "xi = auto", "seed = auto", "c = inf", "kernel.rho = inf", "ridge = inf"],
    )
    def test_bad_value_names_key_and_line(self, tmp_path, line):
        p = write(tmp_path / "c.txt", f"# header\n{line}\n")
        key, value = line.split(" = ")
        with pytest.raises(ValueError, match=f"c.txt line 2: bad {key} value '{value}'"):
            parse_config(p)

    @pytest.mark.parametrize(
        "key, value",
        [("g_convention", "paper"), ("x5_mode", "sum"), ("x5_mode", None), ("I", 3)],
    )
    def test_dict_retired_value_rejected(self, key, value):
        raw = {**config_to_dict(InterferenceConfig()), key: value}
        with pytest.raises(ValueError, match=f"model config {key!r}: {key} = {value}: retired key"):
            config_from_dict(raw)

    def test_dict_ignores_unknown_keys(self):
        retired = {"beta": 1.0, "I": 5, "g_convention": "inverted", "x5_mode": "mean"}
        raw = {**config_to_dict(InterferenceConfig(rho=0.5)), **retired}
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
            ("kernel.family", None),
            ("kernel.rho", "auto"),
            ("ridge", [1e-8]),
        ],
    )
    def test_dict_type_checked(self, key, value):
        raw = {**config_to_dict(InterferenceConfig()), key: value}
        with pytest.raises(ValueError, match=f"model config {key!r} must be"):
            config_from_dict(raw)

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, True, "0"])
    def test_seed_checked(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            InterferenceConfig(seed=seed)
        assert InterferenceConfig(seed=2**128 - 1).seed == 2**128 - 1

    def test_dict_missing_key_rejected(self):
        raw = config_to_dict(InterferenceConfig())
        del raw["c"]
        with pytest.raises(ValueError, match="missing 'c'"):
            config_from_dict(raw)
