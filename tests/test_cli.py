"""Command-line interface tests: exit codes, outputs, determinism, input immutability."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import distreg
from distreg import oracles
from distreg.cli import main

SCENARIO_JSON = {
    "topology": "grid",
    "n_nodes": 12,
    "days": 10,
    "n_disruptions": 4,
    "phi": 0.8,
    "rate_low": 0.8,
    "rate_high": 1.6,
    "window_min": 80,
    "window_max": 140,
    "seed": 11,
}


def dir_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO_JSON))
    data = root / "data"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(data)]) == 0
    return root, scenario, data


class TestSimulate:
    def test_files_created(self, dataset):
        _, _, data = dataset
        names = {p.name for p in data.iterdir()}
        assert {"graph.csv", "disruptions.csv", "ground_truth.csv", "config.txt"} <= names
        assert any(n.startswith("journeys_day") for n in names)

    def test_same_seed_identical_directories(self, dataset, tmp_path):
        root, scenario, data = dataset
        again = tmp_path / "again"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(again)]) == 0
        assert dir_digest(data) == dir_digest(again)

    def test_invalid_topology_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SCENARIO_JSON, "topology": "moebius"}))
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "topology" in capsys.readouterr().err

    def test_missing_scenario_exit_2(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_stale_journeys_of_a_longer_scenario_exit_2(self, dataset, tmp_path, capsys):
        _, scenario, data = dataset
        shorter = tmp_path / "shorter.json"
        shorter.write_text(json.dumps({**SCENARIO_JSON, "days": 5, "n_disruptions": 2}))
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert main(["simulate", "--scenario", str(shorter), "--out", str(fresh)]) == 0
        def names(root):
            return {p.name for p in root.glob("journeys*.csv")}

        stale = sorted(names(data) - names(fresh))
        assert stale
        shutil.copytree(data, out)
        before = dir_digest(out)
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(shorter), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{out / stale[0]}: journeys file not part of this dataset ({len(stale)} such" in err
        assert "Traceback" not in err
        assert dir_digest(out) == before  # nothing written, nothing deleted
        # the same scenario again overwrites its own files
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert dir_digest(out) == before

    def test_roi_without_open_neighbour_exit_2(self, tmp_path, capsys):
        # a 2-station path: its one link closes both stations, so a moved journey has no target
        scenario = tmp_path / "scenario.json"
        spec = {"topology": "path", "n_nodes": 2, "days": 2, "n_disruptions": 1, "phi": 0.5}
        scenario.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ROI (0, 1) has no open adjacent station to reroute to" in err
        assert "Traceback" not in err and not out.exists()


class TestScore:
    def test_writes_scores_and_selects_all_when_top_large(self, dataset, tmp_path):
        _, _, data = dataset
        out = tmp_path / "scores.csv"
        assert main(["score", "--data", str(data), "--out", str(out), "--top", "20"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["selected"] == "1" for r in rows)

    def test_top_selection_subset(self, dataset, tmp_path):
        _, _, data = dataset
        out = tmp_path / "scores.csv"
        assert main(["score", "--data", str(data), "--out", str(out), "--top", "2"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert sum(r["selected"] == "1" for r in rows) == 2

    def test_deterministic_output(self, dataset, tmp_path):
        _, _, data = dataset
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["score", "--data", str(data), "--out", str(a)])
        main(["score", "--data", str(data), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestTrainPredict:
    def test_train_writes_model(self, dataset, tmp_path):
        _, _, data = dataset
        out = tmp_path / "model"
        assert main(["train", "--data", str(data), "--out", str(out)]) == 0
        raw = json.loads((out / "model.json").read_text())
        assert len(raw["alpha"]) == 5
        assert raw["config"]["kernel.rho"] > 0

    def test_predict_theta_on_simplex(self, dataset, tmp_path):
        _, _, data = dataset
        model_dir = tmp_path / "model"
        main(["train", "--data", str(data), "--out", str(model_dir)])
        pred = tmp_path / "pred"
        rc = main(
            [
                "predict",
                "--data", str(data),
                "--model", str(model_dir / "model.json"),
                "--out", str(pred),
                "--disruption", "99,60,180,1;2",
                "--n-samples", "40",
                "--seed", "3",
            ]
        )
        assert rc == 0
        with open(pred / "theta.csv") as fh:
            rows = list(csv.DictReader(fh))
        total = sum(float(r["theta"]) for r in rows)
        assert abs(total - 1.0) <= 1e-9
        assert all(float(r["theta"]) >= 0.0 for r in rows)
        summary = json.loads((pred / "prediction.json").read_text())
        assert summary["fit_residual"] >= 0.0
        with open(pred / "samples.csv") as fh:
            sample_rows = list(csv.DictReader(fh))
        assert len(sample_rows) == 40

    def test_predict_deterministic(self, dataset, tmp_path):
        _, _, data = dataset
        model_dir = tmp_path / "model"
        main(["train", "--data", str(data), "--out", str(model_dir)])
        args = [
            "predict",
            "--data", str(data),
            "--model", str(model_dir / "model.json"),
            "--disruption", "99,60,180,4;5",
            "--n-samples", "25",
            "--seed", "8",
        ]
        main(args + ["--out", str(tmp_path / "p1")])
        main(args + ["--out", str(tmp_path / "p2")])
        assert dir_digest(tmp_path / "p1") == dir_digest(tmp_path / "p2")


class TestEvaluate:
    def test_full_protocol_and_input_immutability(self, dataset, tmp_path):
        _, _, data = dataset
        before = dir_digest(data)
        out = tmp_path / "eval"
        rc = main(
            [
                "evaluate",
                "--data", str(data),
                "--out", str(out),
                "--folds", "2",
                "--seed", "0",
                "--n-samples", "60",
            ]
        )
        assert rc == 0
        assert dir_digest(data) == before
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["id"] for r in rows} == {"0", "1", "2", "3"}

    def test_byte_identical_reruns(self, dataset, tmp_path):
        _, _, data = dataset
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["evaluate", "--data", str(data), "--folds", "2", "--seed", "1", "--n-samples", "40"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert dir_digest(a) == dir_digest(b)

    def test_too_many_folds_exit_2(self, dataset, tmp_path, capsys):
        _, _, data = dataset
        rc = main(
            ["evaluate", "--data", str(data), "--out", str(tmp_path / "x"), "--folds", "9"]
        )
        assert rc == 2
        assert "folds" in capsys.readouterr().err


def test_simulate_and_evaluate_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma costs about 12 ms of each process; np.percentile and
    # np.setdiff1d import it (through np.unique), as np.isin does on some
    # inputs, and a fresh interpreter shows whether any of them ran
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO_JSON))
    data, out = tmp_path / "data", tmp_path / "eval"
    code = (
        "import sys\n"
        "from distreg.cli import main\n"
        f"assert main(['simulate', '--scenario', {str(scenario)!r}, '--out', {str(data)!r}]) == 0\n"
        "print('after simulate:', 'numpy.ma' in sys.modules)\n"
        f"assert main(['evaluate', '--data', {str(data)!r}, '--out', {str(out)!r},"
        " '--folds', '2', '--seed', '0', '--n-samples', '40']) == 0\n"
        "print('after evaluate:', 'numpy.ma' in sys.modules)\n"
    )
    path = [str(Path(distreg.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("after ")]
    assert lines == ["after simulate: False", "after evaluate: False"]


class TestMalformedJourneys:
    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,2,5", "bad integer t_exit=''"),  # short row
            ("1,,5,6", "bad integer destination=''"),  # blank field
            ("1,12,5,6", "station ids (1, 12) out of range for 12 nodes"),
        ],
        ids=["short-row", "blank-field", "station-out-of-range"],
    )
    def test_evaluate_exit_2_names_file_and_line(self, dataset, tmp_path, capsys, row, message):
        _, _, data = dataset
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        path = bad / "journeys_day0.csv"
        lines = path.read_text().splitlines()
        lines[4] = row
        path.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--data", str(bad), "--out", str(tmp_path / "out"), "--folds", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"journeys_day0.csv line 5: {message}" in err
        assert "Traceback" not in err

    def test_score_refuses_a_float_field_under_the_written_header(self, dataset, tmp_path, capsys):
        # the file numpy's C reader would take, but for one float in an int64 column
        _, _, data = dataset
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        path = bad / "journeys_day0.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "origin,destination,t_entry,t_exit"
        lines[1] = "2.7,2,3,4"
        path.write_text("\n".join(lines) + "\n")
        rc, err = run_cli(["score", "--data", str(bad), "--out", str(tmp_path / "s.csv")], capsys)
        assert rc == 2
        assert err == "error: journeys_day0.csv line 2: bad integer origin='2.7'\n"

    @pytest.mark.parametrize(
        "name, line, row, fields",
        [
            ("journeys_day0.csv", 2, "1,2,3,4,99", "5 fields, header has 4"),
            ("graph.csv", 2, "0,1,7", "3 fields, header has 2"),
            ("disruptions.csv", 2, None, "5 fields, header has 4"),
        ],
        ids=["journeys", "graph", "disruptions"],
    )
    def test_score_refuses_a_row_longer_than_the_header(
        self, dataset, tmp_path, capsys, name, line, row, fields
    ):
        _, _, data = dataset
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        path = bad / name
        lines = path.read_text().splitlines()
        lines[line - 1] = row or lines[line - 1] + ",x"
        path.write_text("\n".join(lines) + "\n")
        rc, err = run_cli(["score", "--data", str(bad), "--out", str(tmp_path / "s.csv")], capsys)
        assert rc == 2
        assert err == f"error: {name} line {line}: {fields}\n"


class TestOracle:
    def test_all_suites_pass(self, capsys):
        # the one run of every suite's cases; each case is named `<suite>/...`
        assert main(["oracle", "--suite", "all"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        for bit_generator in ("PCG64", "MT19937", "Philox", "SFC64"):
            assert f"PASS draws/{bit_generator}/0-239-n3000-pending" in out
        suites = {line.split()[1].split("/")[0] for line in out.splitlines()}
        assert suites == set(oracles.SUITES)

    def test_individual_suites(self, monkeypatch, capsys):
        # dispatch by name, on cheap stand-ins: the real suites run once, in the test above
        failing = "bfs"
        lines = {}
        for name in oracles.SUITES:
            case = oracles.OracleCase(f"{name}/stub", name != failing, "stub")
            monkeypatch.setitem(oracles.SUITES, name, lambda case=case: [case])
            lines[name] = f"{'FAIL' if name == failing else 'PASS'} {name}/stub (stub)"
        for name, line in lines.items():
            capsys.readouterr()
            assert main(["oracle", "--suite", name]) == int(name == failing)
            assert capsys.readouterr().out == line + "\n"
        assert main(["oracle", "--suite", "all"]) == 1
        assert capsys.readouterr().out.splitlines() == list(lines.values())

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["oracle", "--suite", "nonsense"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_key_error_inside_a_suite_is_not_an_unknown_suite(self, monkeypatch, capsys):
        def suite():
            raise KeyError("has_uint32")

        monkeypatch.setitem(oracles.SUITES, "draws", suite)
        assert main(["oracle", "--suite", "draws"]) == 2
        err = capsys.readouterr().err
        assert "has_uint32" in err and "unknown oracle suite" not in err

    def test_run_as_module(self):
        # `python -m distreg.cli` is the same CLI as the `distreg` script
        path = [str(Path(distreg.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        argv = [sys.executable, "-m", "distreg.cli", "oracle", "--suite", "nonsense"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "unknown oracle suite 'nonsense'" in proc.stderr

    def test_deterministic_stdout(self, capsys):
        main(["oracle", "--suite", "qp"])
        first = capsys.readouterr().out
        main(["oracle", "--suite", "qp"])
        assert capsys.readouterr().out == first


class TestEvaluateNoEffectScenario:
    def test_phi_zero_model_matches_baseline_nll(self, tmp_path):
        """phi=0 means no perturbation: model and baseline NLL agree up to the
        structural penalty of the coordinate-split mixture.

        Each sampled mixture point is supported on one ROI coordinate, so
        roughly half the per-coordinate mass sits at zero and the density
        at natural-level exits loses about a factor 2 per coordinate:
        an expected gap of 2*log 2 ~ 1.4 nats, plus bandwidth widening.
        The band below allows +-1.5 nats around that derived offset.
        """
        scenario = tmp_path / "phi0.json"
        scenario.write_text(json.dumps({**SCENARIO_JSON, "phi": 0.0, "seed": 22}))
        data = tmp_path / "data"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(data)]) == 0
        out = tmp_path / "eval"
        assert main(
            ["evaluate", "--data", str(data), "--out", str(out), "--folds", "2", "--seed", "0"]
        ) == 0
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        gaps = [float(r["model_nll"]) - float(r["baseline_nll"]) for r in rows]
        med = sorted(gaps)[len(gaps) // 2]
        offset = 2.0 * 0.6931471805599453
        assert -1.5 <= med <= offset + 1.5, f"median NLL gap {med} outside the no-effect band"


class TestNumericalFailureExitCode:
    def test_singular_gram_exit_3(self, tmp_path, capsys):
        # singleton ROI makes X3 == X5, so the ridge=0 input Gram is singular
        (tmp_path / "graph.csv").write_text("u,v\n0,1\n1,2\n")
        rows = ["day,origin,destination,t_entry,t_exit"]
        for day in range(4):
            for i in range(3 + day):
                rows.append(f"{day},0,1,10,{20 + i}")
            rows.append(f"{day},2,1,10,30")
        rows.append("9,0,1,10,25")
        (tmp_path / "journeys.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "disruptions.csv").write_text("day,t_start,t_end,roi\n9,15,40,1\n")
        (tmp_path / "config.txt").write_text("ridge = 0\n")
        rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


class TestConfigHandling:
    def test_bad_config_exit_2(self, dataset, tmp_path, capsys):
        _, _, data = dataset
        cfg = tmp_path / "bad.txt"
        cfg.write_text("frobnicate = 1\n")
        rc = main(
            ["score", "--data", str(data), "--out", str(tmp_path / "s.csv"), "--config", str(cfg)]
        )
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, key",
        [("kernel.family = foo", "kernel.family"), ("ridge = -1", "ridge")],
        ids=["family", "ridge"],
    )
    def test_invalid_value_exit_2_names_file_line_and_key(
        self, dataset, tmp_path, capsys, line, key
    ):
        _, _, data = dataset
        cfg = tmp_path / "bad.txt"
        cfg.write_text(f"xi = 0.25\n{line}\n")
        out = tmp_path / "s.csv"
        rc = main(["score", "--data", str(data), "--out", str(out), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert f"bad.txt line 2: bad {key} value" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_overflowing_basis_levels_exit_2_naming_c(self, dataset, tmp_path, capsys, command):
        # C (R - 1) overflows, so lambda_1 = 1 + 0 inf is NaN: the refusal must
        # come from the basis and name c, before any distance turns NaN
        _, _, data = dataset
        shutil.copytree(data, tmp_path / "data")
        config = tmp_path / "data" / "config.txt"
        text = config.read_text()
        assert "\nc = 1.5\n" in text
        config.write_text(text.replace("\nc = 1.5\n", "\nc = 1e308\n"))
        argv = [command, "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
        argv += ["--folds", "2"] if command == "evaluate" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, err = run_cli(argv, capsys)
        assert rc == 2 and "Traceback" not in err
        assert err.startswith("error: basis levels overflow: c = 1e+308 with R = 5")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestNoNaturalDays:
    @pytest.fixture
    def all_disrupted(self, dataset, tmp_path):
        """The CLI dataset with a disruption on every one of its days."""
        _, _, data = dataset
        shutil.copytree(data, tmp_path / "data")
        days = [int(p.stem.removeprefix("journeys_day")) for p in data.glob("journeys_day*.csv")]
        rows = "".join(f"{day},60,180,1;2\n" for day in sorted(days))
        (tmp_path / "data" / "disruptions.csv").write_text("day,t_start,t_end,roi\n" + rows)
        return tmp_path / "data"

    def test_train_and_predict_exit_2(self, all_disrupted, trained, tmp_path, capsys):
        _, model = trained
        commands = [
            ["train", "--data", str(all_disrupted), "--out", str(tmp_path / "m")],
            predict_args(all_disrupted, model, tmp_path / "p"),
            ["score", "--data", str(all_disrupted), "--out", str(tmp_path / "s.csv")],
            ["evaluate", "--data", str(all_disrupted), "--out", str(tmp_path / "e")],
        ]
        for argv in commands:
            capsys.readouterr()
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert "no natural days remain after excluding disruption days" in err, argv[0]
            assert "Traceback" not in err


class TestNoDisruptions:
    def test_train_exit_2(self, dataset, tmp_path, capsys):
        _, _, data = dataset
        shutil.copytree(data, tmp_path / "data")
        (tmp_path / "data" / "disruptions.csv").write_text("day,t_start,t_end,roi\n")
        capsys.readouterr()
        assert main(["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert "need at least one observed disruption" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m").exists()

    def test_train_names_the_disruption_without_journeys(self, dataset, tmp_path, capsys):
        _, _, data = dataset
        shutil.copytree(data, tmp_path / "data")
        listed = (data / "disruptions.csv").read_text()
        (tmp_path / "data" / "disruptions.csv").write_text(listed + "99,60,180,1;2\n")
        line = len(listed.splitlines()) + 1
        argv = ["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "m")]
        rc, err = run_cli(argv, capsys)
        assert rc == 2 and "Traceback" not in err
        assert err == f"error: disruptions.csv line {line}: no journey data for disruption day 99\n"
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize(
        "rows, message",
        [("", "0 listed, 0 scored"), ("99,60,180,1;2\n", "1 listed, 0 scored")],
        ids=["header-only", "day-without-journeys"],
    )
    def test_evaluate_says_why(self, dataset, tmp_path, capsys, rows, message):
        _, _, data = dataset
        shutil.copytree(data, tmp_path / "data")
        (tmp_path / "data" / "disruptions.csv").write_text(DISRUPTIONS_HEADER + rows)
        out = tmp_path / "out"
        rc, err = run_cli(["evaluate", "--data", str(tmp_path / "data"), "--out", str(out)], capsys)
        assert rc == 2 and "Traceback" not in err
        assert f"error: no disruption to evaluate: {message}, none selected (top 20)" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    _, _, data = dataset
    model_dir = tmp_path_factory.mktemp("trained")
    assert main(["train", "--data", str(data), "--out", str(model_dir)]) == 0
    return data, model_dir / "model.json"


def predict_args(data: Path, model: Path, out: Path) -> list:
    return [
        "predict",
        "--data", str(data),
        "--model", str(model),
        "--out", str(out),
        "--disruption", "99,60,180,1;2",
        "--n-samples", "30",
        "--seed", "4",
    ]


class TestModelFile:
    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda raw: raw["config"].update(xi="abc"), "'xi'"),
            (lambda raw: raw["config"].update(R=None), "'R'"),
            (lambda raw: raw.update(config=[]), '"config"'),
            (lambda raw: raw.update(alpha=[1.0, "2"]), '"alpha"'),
            (lambda raw: [raw], "JSON object"),
            (lambda raw: raw["config"].update({"kernel.family": "foo"}), "'kernel.family'"),
            (lambda raw: raw["config"].update(ridge=-1), "'ridge'"),
        ],
        ids=[
            "xi-string", "R-null", "config-list", "alpha-string", "top-level-list",
            "family-unknown", "ridge-negative",
        ],
    )
    def test_malformed_model_exit_2(self, trained, tmp_path, capsys, edit, named):
        data, model = trained
        raw = json.loads(model.read_text())
        edited = edit(raw)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(raw if edited is None else edited))
        capsys.readouterr()
        assert main(predict_args(data, bad, tmp_path / "pred")) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "section, key, value, message, tail",
        [
            (
                None, "alpha", [0.5] * 20_000 + ["x"],
                'model "alpha" must be a list of numbers, got ', "",
            ),
            (None, "config", [0.5] * 20_000, 'model "config" must be a JSON object, got ', ""),
            ("config", "xi", ["x"] * 20_000, "model config 'xi' must be a number, got ", ""),
            (
                "config", "I", [5] * 20_000,
                "model config 'I': I = ", ": retired key, only I = 5 is accepted",
            ),
        ],
        ids=["alpha", "config", "xi", "retired-I"],
    )
    def test_long_value_echo_clipped(
        self, trained, tmp_path, capsys, section, key, value, message, tail
    ):
        # a long value is echoed as its first 40 characters and its length, as a CSV field is
        data, model = trained
        raw = json.loads(model.read_text())
        (raw if section is None else raw[section])[key] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(raw))
        rc, err = run_cli(predict_args(data, bad, tmp_path / "p"), capsys)
        assert rc == 2 and not (tmp_path / "p").exists()
        text = repr(value)
        clipped = f"{text[:40]}... ({len(text)} characters)"
        assert err == f"error: model.json: {message}{clipped}{tail}\n"

    def test_old_format_model_and_config_load(self, trained, tmp_path, capsys):
        data, model = trained
        main(predict_args(data, model, tmp_path / "new"))
        raw = json.loads(model.read_text())
        raw["config"].update({"beta": 1.0, "I": 5})
        old_model = tmp_path / "old_model.json"
        old_model.write_text(json.dumps(raw))
        assert main(predict_args(data, old_model, tmp_path / "old")) == 0
        assert dir_digest(tmp_path / "old") == dir_digest(tmp_path / "new")

        old_config = tmp_path / "config.txt"
        lines = (data / "config.txt").read_text().splitlines()
        old_config.write_text("\n".join(lines[:3] + ["beta = 1.0", "I = 5"] + lines[3:]) + "\n")
        train = ["train", "--data", str(data), "--config", str(old_config)]
        assert main(train + ["--out", str(tmp_path / "m")]) == 0
        assert (tmp_path / "m" / "model.json").read_bytes() == model.read_bytes()

    def test_predict_has_no_config_option(self, trained, tmp_path, capsys):
        data, model = trained
        main(predict_args(data, model, tmp_path / "plain"))
        config = tmp_path / "config.txt"
        config.write_text("R = 3\n")
        rc, err = run_cli(predict_args(data, model, tmp_path / "p") + ["--config", str(config)], capsys)
        assert rc == 2 and "unrecognized arguments: --config" in err
        assert not (tmp_path / "p").exists()
        # predict reads the model's stored config, never the data directory's config.txt
        other = tmp_path / "data"
        shutil.copytree(data, other)
        (other / "config.txt").write_text("R = 3\n")
        assert main(predict_args(other, model, tmp_path / "other")) == 0
        assert dir_digest(tmp_path / "other") == dir_digest(tmp_path / "plain")


def run_cli(argv: list, capsys) -> tuple[int, str]:
    """main's exit code and stderr; argparse refuses a bad argument with SystemExit."""
    capsys.readouterr()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, capsys.readouterr().err


DISRUPTIONS_HEADER = "day,t_start,t_end,roi\n"

# file of the CLI dataset replaced -> its new text and what the error must say
BAD_DATASET_FILES = {
    "graph-self-edge": ("graph.csv", "u,v\n0,1\n3,3\n", "graph.csv line 3: self edge (3, 3)"),
    "graph-not-an-integer": ("graph.csv", "u,v\n0,1.5\n", "graph.csv line 2: bad integer v='1.5'"),
    "graph-duplicate-edge": ("graph.csv", "u,v\n0,1\n1,0\n", "graph.csv line 3: duplicate edge"),
    "graph-no-header": ("graph.csv", "0,1\n1,2\n", "graph.csv: missing required columns"),
    "graph-empty": ("graph.csv", "u,v\n", "graph.csv: empty edge list"),
    "disruptions-bad-roi": (
        "disruptions.csv", DISRUPTIONS_HEADER + "10,60,180,1;x\n", "disruptions.csv line 2: bad roi"
    ),
    "disruptions-empty-roi": (
        "disruptions.csv", DISRUPTIONS_HEADER + "10,60,180,\n", "line 2: roi must be non-empty"
    ),
    "disruptions-window-reversed": (
        "disruptions.csv", DISRUPTIONS_HEADER + "10,180,60,1\n", "line 2: t_start 180 exceeds"
    ),
    "disruptions-roi-out-of-range": (
        "disruptions.csv", DISRUPTIONS_HEADER + "10,60,180,1;12\n", "roi station 12 out of range"
    ),
    # found against the graph and the observation window after loading, still named by line
    "disruptions-roi-out-of-range-line": (
        "disruptions.csv",
        DISRUPTIONS_HEADER + "10,60,180,1;2\n\n11,60,180,1;12\n",
        "error: disruptions.csv line 4: roi station 12 out of range for 12 nodes",
    ),
    "disruptions-window-before-observation": (
        "disruptions.csv",
        DISRUPTIONS_HEADER + "10,-5,60,1\n",
        "error: disruptions.csv line 2: disruption window [-5, 60] outside observation window",
    ),
    "disruptions-day-not-an-integer": (
        "disruptions.csv", DISRUPTIONS_HEADER + "ten,60,180,1\n", "line 2: bad integer day='ten'"
    ),
    "config-c-inf": ("config.txt", "xi = 0.25\nc = inf\n", "config.txt line 2: bad c value 'inf'"),
    "config-rho-inf": ("config.txt", "kernel.rho = inf\n", "config.txt line 1: bad kernel.rho"),
    "config-ridge-inf": ("config.txt", "ridge = inf\n", "config.txt line 1: bad ridge value"),
    "config-g-convention-paper": (
        "config.txt",
        "xi = 0.25\ng_convention = paper\n",
        "config.txt line 2: g_convention = paper: retired key, only g_convention = inverted"
        " is accepted; xi = 1 builds the same features as paper",
    ),
    "config-x5-mode-sum": (
        "config.txt", "x5_mode = sum\n", "config.txt line 1: x5_mode = sum: retired key"
    ),
    "config-not-key-value": ("config.txt", "xi 0.25\n", "config.txt line 1: expected `key = value`"),
    "config-seed-negative": (
        "config.txt", "seed = -1\n", "config.txt line 1: bad seed value '-1': seed must be in"
    ),
    "config-seed-too-big": (
        "config.txt", f"seed = {2**128}\n", "config.txt line 1: bad seed value '340282366920"
    ),
    # R * |ROI| basis components of this size are hundreds of TiB: the one allocation fails at once
    "config-R-beyond-memory": (
        "config.txt", "R = 1000000000000\n", "no memory for the basis of R = 1000000000000"
    ),
    "journeys-beyond-int64": (
        "journeys_day0.csv",
        "origin,destination,t_entry,t_exit\n0,1,5,6\n0,1,5,99999999999999999999\n",
        "journeys_day0.csv line 3: t_exit=99999999999999999999 exceeds int64",
    ),
}

# scenario.json fields replaced -> the key the error must name
BAD_SCENARIO_FIELDS = {
    "n_nodes-fraction": ({"n_nodes": 12.5}, "'n_nodes'"),
    "days-fraction": ({"days": 4.5}, "'days'"),
    "seed-fraction": ({"seed": 1.5}, "'seed'"),
    "seed-bool": ({"seed": True}, "'seed'"),
    "seed-negative": ({"seed": -1}, "scenario.json: bad scenario: scenario 'seed' must be in"),
    "seed-too-big": ({"seed": 2**128}, "scenario 'seed' must be in [0, 2**128)"),
    "t_max-fraction": ({"t_max": 100.5}, "'t_max'"),
    "er_p-string": ({"er_p": "x"}, "'er_p'"),
    "rate_high-overflow": ({"rate_high": 1e400}, "'rate_high'"),  # json.dumps writes Infinity
    "phi-null": ({"phi": None}, "'phi'"),
    "topology-number": ({"topology": 3}, "'topology'"),
    "unknown-key": ({"nodes": 12}, "unknown scenario keys: ['nodes']"),
}


# a malformed `predict --disruption` spec (12 stations) -> what the error must say
BAD_DISRUPTION_SPECS = {
    "bad-integer": ("99,x,180,1;2", "error: --disruption: bad integer t_start='x'"),
    "bad-roi-token": ("99,60,180,1;a", "error: --disruption: bad roi list '1;a'"),
    "empty-roi": ("99,60,180,", "error: --disruption: roi must be non-empty"),
    "two-fields": ("99,60", "error: --disruption: disruption spec must be `day,t_start,t_end,"),
    "duplicate-station": ("99,60,180,2;2", "error: --disruption: roi has duplicate stations"),
    "window-reversed": ("99,180,60,1", "error: --disruption: t_start 180 exceeds t_end 60"),
    "station-out-of-range": (
        "99,60,180,1;12", "error: --disruption: roi station 12 out of range for 12 nodes"
    ),
}


class TestMalformedInput:
    """Every malformed input file or argument exits 2 with a message, never a traceback."""

    @pytest.mark.parametrize("case", sorted(BAD_DISRUPTION_SPECS))
    def test_disruption_spec(self, trained, tmp_path, capsys, case):
        spec, message = BAD_DISRUPTION_SPECS[case]
        data, model = trained
        argv = predict_args(data, model, tmp_path / "p")
        argv[argv.index("--disruption") + 1] = spec
        rc, err = run_cli(argv, capsys)
        assert rc == 2 and "Traceback" not in err
        assert message in err and not (tmp_path / "p").exists()

    @pytest.mark.parametrize("case", sorted(BAD_DATASET_FILES))
    def test_dataset_file(self, dataset, tmp_path, capsys, case):
        name, text, message = BAD_DATASET_FILES[case]
        _, _, data = dataset
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        (bad / name).write_text(text)
        argv = ["evaluate", "--data", str(bad), "--out", str(tmp_path / "out"), "--folds", "2"]
        rc, err = run_cli(argv + ["--n-samples", "20"], capsys)
        assert rc == 2 and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("case", sorted(BAD_SCENARIO_FIELDS))
    def test_scenario_file(self, tmp_path, capsys, case):
        fields, message = BAD_SCENARIO_FIELDS[case]
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO_JSON, **fields}))
        out = tmp_path / "out"
        rc, err = run_cli(["simulate", "--scenario", str(bad), "--out", str(out)], capsys)
        assert rc == 2 and "Traceback" not in err
        assert message in err and not out.exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json", ""], ids=["list", "broken", "empty"])
    def test_scenario_not_a_json_object(self, tmp_path, capsys, text):
        bad = tmp_path / "scenario.json"
        bad.write_text(text)
        rc, err = run_cli(["simulate", "--scenario", str(bad), "--out", str(tmp_path)], capsys)
        assert rc == 2 and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("score", ["--top", "-1"], "--top: must be at least 0, got -1"),
            ("evaluate", ["--top", "-3"], "--top: must be at least 0, got -3"),
            ("evaluate", ["--n-samples", "0"], "--n-samples: must be at least 1, got 0"),
            ("evaluate", ["--folds", "0"], "--folds: must be at least 2, got 0"),
            ("evaluate", ["--folds", "1"], "--folds: must be at least 2, got 1"),
            ("evaluate", ["--folds", "two"], "--folds: invalid int value: 'two'"),
        ],
        ids=[
            "score-top", "evaluate-top", "evaluate-n-samples", "evaluate-folds",
            "evaluate-one-fold", "folds-text",
        ],
    )
    def test_count_argument(self, dataset, tmp_path, capsys, command, extra, message):
        _, _, data = dataset
        out = tmp_path / ("scores.csv" if command == "score" else "out")
        rc, err = run_cli([command, "--data", str(data), "--out", str(out)] + extra, capsys)
        assert rc == 2 and "Traceback" not in err
        assert message in err and not out.exists()

    @pytest.mark.parametrize("command", ["score", "evaluate"])
    def test_negative_top_refused_before_loading_data(self, tmp_path, capsys, command):
        # the data directory does not exist: a refusal that names --top was made
        # before any file was read
        out = tmp_path / "out"
        argv = [command, "--data", str(tmp_path / "missing"), "--out", str(out), "--top", "-1"]
        rc, err = run_cli(argv, capsys)
        assert rc == 2 and "--top: must be at least 0, got -1" in err
        assert "missing" not in err and not out.exists()

    def test_predict_n_samples_zero(self, trained, tmp_path, capsys):
        data, model = trained
        argv = predict_args(data, model, tmp_path / "p")
        argv[argv.index("--n-samples") + 1] = "0"
        rc, err = run_cli(argv, capsys)
        assert rc == 2 and "--n-samples: must be at least 1, got 0" in err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_n_samples_beyond_memory(self, trained, tmp_path, capsys, command):
        # 2**56 draws of even one float64 coordinate are 512 PiB, more than an
        # x86-64 address space holds, so the allocation fails at once
        data, model = trained
        out = tmp_path / "out"
        if command == "predict":
            argv = predict_args(data, model, out)
            argv[argv.index("--n-samples") + 1] = str(2**56)
        else:
            argv = ["evaluate", "--data", str(data), "--out", str(out), "--folds", "2"]
            argv += ["--n-samples", str(2**56)]
        rc, err = run_cli(argv, capsys)
        assert rc == 2 and "Traceback" not in err
        assert err.startswith("error: Unable to allocate") and not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("g_convention", "paper", "xi = 1 builds the same features as paper"),
            ("x5_mode", "sum", "only x5_mode = mean is accepted"),
            ("I", 3, "only I = 5 is accepted"),
        ],
        ids=["g_convention-paper", "x5_mode-sum", "I-3"],
    )
    def test_model_retired_key(self, trained, tmp_path, capsys, key, value, message):
        data, model = trained
        raw = json.loads(model.read_text())
        raw["config"][key] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(raw))
        rc, err = run_cli(predict_args(data, bad, tmp_path / "p"), capsys)
        assert rc == 2 and "Traceback" not in err
        assert f"model config {key!r}: {key} = {value}: retired key" in err and message in err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize(
        "value", [-1, 2**128, 1.5, "3"], ids=["negative", "too-big", "fraction", "string"]
    )
    def test_model_seed(self, trained, tmp_path, capsys, value):
        data, model = trained
        raw = json.loads(model.read_text())
        raw["config"]["seed"] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(raw))
        rc, err = run_cli(predict_args(data, bad, tmp_path / "p"), capsys)
        assert rc == 2 and "Traceback" not in err
        assert "model.json: model config 'seed'" in err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("command", ["simulate", "predict", "evaluate"])
    @pytest.mark.parametrize(
        "value, message",
        [
            ("-1", "must be in [0, 2**128), got -1"),
            (str(2**128), f"must be in [0, 2**128), got {2**128}"),
            ("x", "invalid int value: 'x'"),
        ],
        ids=["negative", "too-big", "text"],
    )
    def test_seed_option(self, trained, tmp_path, capsys, command, value, message):
        data, model = trained
        out = tmp_path / "out"
        if command == "simulate":
            scenario = tmp_path / "scenario.json"
            scenario.write_text(json.dumps(SCENARIO_JSON))
            argv = ["simulate", "--scenario", str(scenario), "--out", str(out), "--seed", value]
        elif command == "predict":
            argv = predict_args(data, model, out)
            argv[argv.index("--seed") + 1] = value
        else:
            argv = ["evaluate", "--data", str(data), "--out", str(out), "--seed", value]
        rc, err = run_cli(argv, capsys)
        assert rc == 2 and "Traceback" not in err
        assert f"argument --seed: {message}" in err and not out.exists()
