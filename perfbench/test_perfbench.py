"""Smoke test of the benchmark itself on tiny inputs.

Runs the real measurement code on the 12-node criterion-9 grid and on small
criterion-1 fits. Checks that every named metric is printed with its unit,
that the output checks pass, and that the traced counters repeat exactly and
equal values derived by hand from the workload's shape.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

CRITERION_9 = run.CVWorkload(
    scenario={
        "topology": "grid", "n_nodes": 12, "days": 10, "n_disruptions": 4, "phi": 0.8,
        "rate_low": 0.8, "rate_high": 1.6, "window_min": 80, "window_max": 140, "seed": 11,
    },
    folds=2,
    n_samples=50,
)
PROTOCOL_SEED = 0
SMALL_EMBED = run.EmbedWorkload(n=300, datasets=2)
TIME_UNITS = {"s", "1/s"}


@pytest.fixture(scope="module", autouse=True)
def work_dir(tmp_path_factory):
    """Keeps the work files and spans of these runs out of the checkout."""
    saved, run.WORK = run.WORK, tmp_path_factory.mktemp("perfbench")
    yield run.WORK
    run.WORK = saved


def named_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def counters(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] not in TIME_UNITS}


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert named_units("end_to_end") == run.END_TO_END
    assert named_units("per_layer") == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def test_cv_end_to_end_metrics_and_checks():
    result, report = run.measure(CRITERION_9, PROTOCOL_SEED, 0.1, False, "smoke-cv")
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] == run.CV_SETUP_REPS + len(report["ops"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(report["output_sha256"]) == {"scores.csv", "metrics.csv"}


@pytest.fixture(scope="module")
def traced_cv():
    return [run.measure(CRITERION_9, PROTOCOL_SEED, 0.1, True, "smoke-cv") for _ in range(2)]


def test_cv_traced_counters_repeat(traced_cv):
    (first, _), (second, _) = traced_cv
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == run.PER_LAYER
    assert counters(first["metrics"]) == counters(second["metrics"])


def test_cv_traced_counters_by_hand(traced_cv, tmp_path):
    (result, report), _ = traced_cv
    m = {k: v["value"] for k, v in result["metrics"].items()}
    w, sc = CRITERION_9, CRITERION_9.scenario
    counts = report["counts"]
    n_dis, selected, evaluated = sc["n_disruptions"], counts["selected"], counts["evaluated"]
    assert counts["disruptions"] == n_dis == evaluated

    # the dataset the traced run loaded, regenerated here
    data = tmp_path / "data"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(sc))
    subprocess.run(
        [sys.executable, *map(str, run.simulate_args(scenario, data))],
        env=run.child_env(), check=True, capture_output=True,
    )
    rows = 0
    for path in data.glob("journeys_day*.csv"):
        with open(path, newline="") as fh:
            rows += sum(1 for _ in csv.DictReader(fh))
    assert m["data_io.journey_rows"] == rows
    assert m["data_io.bytes_written"] == sum(p.stat().st_size for p in data.iterdir())

    # features: every disruption once when scoring; per fold the training disruptions
    # twice (resolve_rho, train); every selected disruption once in predict
    trained = selected * (w.folds - 1)
    assert m["pipeline.input_variable_samples.calls"] == n_dis + 2 * trained + selected
    assert m["pipeline.feature_recompute_ratio"] == m["pipeline.input_variable_samples.calls"] / n_dis
    assert m["kernels.pairwise_distances.calls"] == trained
    # each ROI is one closed link, i.e. two stations, each needing one mask
    assert m["network.feasible_origins.calls"] == 2 * m["pipeline.input_variable_samples.calls"]
    # connectivity check + all-pairs BFS on the natural and on each disrupted graph,
    # then two BFS per feasibility mask
    n = sc["n_nodes"]
    assert m["network.bfs_distance.calls"] == 1 + n * (1 + n_dis) + 2 * m["network.feasible_origins.calls"]
    # one basis projection per prediction; model and random samples per prediction
    assert m["simplex_qp.solve.calls"] == selected
    assert m["sampler.sample_from_mixture.calls"] == 2 * selected
    assert m["sampler.draws"] == 2 * selected * w.n_samples
    assert m["evaluation.nll.calls"] == 3 * evaluated
    assert m["simplex_qp.kkt_max"] <= run.MAX_KKT
    assert m["evaluation.skipped_score"] == n_dis - counts["scored"]


def test_embed_end_to_end_metrics_and_checks():
    result, report = run.measure(SMALL_EMBED, 1, 0.2, False, "smoke-embed")
    assert result["correct"], report["problems"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(report["setup_s"]) == run.EMBED_SETUP_REPS


def test_embed_traced_counters():
    runs = [run.measure(SMALL_EMBED, 1, 0.2, True, "smoke-embed")[0] for _ in range(2)]
    assert all(r["correct"] for r in runs)
    assert counters(runs[0]["metrics"]) == counters(runs[1]["metrics"])
    m = {k: v["value"] for k, v in runs[0]["metrics"].items()}
    fits, n = SMALL_EMBED.datasets, SMALL_EMBED.n
    # per fit: 2 input-output products and 3 input-input products, each over N x N points
    assert m["kernels.inner.calls"] == 5 * fits
    assert m["kernels.kernel_evals"] == 5 * n * n * fits
    assert m["simplex_qp.solve.calls"] == fits
    assert m["regression.fit_mixture_distributions.s"] > 0
    assert m["network.bfs_distance.calls"] == 0 and m["cli.main.s"] == 0


def test_refuses_to_run_without_distreg_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid30-cv", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
