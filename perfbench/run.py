"""distreg benchmark: two fixed workloads, timed end to end and per module from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid30-cv --seed 1 --seconds 55 --trace 0

--trace 0 times the public CLI (`distreg simulate`, `distreg evaluate`) and the
library fit as separate processes and prints the end-to-end metrics.
--trace 1 drives the same work in one process with every public distreg
function rebound to a span-recording wrapper (perfbench/tracer.py) and prints
the per-layer metrics. The line before the last is a JSON report with every
repeat's timing, quartiles, output digests, skip accounting and the
environment; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Work files go to .perfbench/ in the checkout and are removed at the end,
except the spans of traced runs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# what the `distreg` console script runs
DISTREG = ("-c", "from distreg.cli import entry; entry()")


@dataclass(frozen=True)
class CVWorkload:
    """`distreg simulate` on a scenario, then the k-fold `distreg evaluate` protocol."""

    scenario: dict
    folds: int = 10
    n_samples: int = 400

    def evaluate_args(self, seed: int) -> list[str]:
        return [
            "--folds", str(self.folds),
            "--top", str(TOP),
            "--n-samples", str(self.n_samples),
            "--seed", str(seed),
        ]


@dataclass(frozen=True)
class EmbedWorkload:
    """Criterion-1 fits: `fit_mixture_distributions` on a 0.3/0.7 two-Gaussian mixture."""

    n: int
    datasets: int


TOP = 20
# a CV set-up is one `distreg simulate` process of well under a second, mostly
# interpreter start-up, so it takes several repeats for a steady median
CV_SETUP_REPS = 9
# every disruption must be evaluated, and the model must beat the random and
# baseline predictions this often
MIN_NLL_WIN_SHARE = 0.6
MIN_SE_WIN_SHARE = 0.5
# an embed set-up takes milliseconds, with page faults and first-call costs in
# some repeats; many repeats keep its median steady
EMBED_SETUP_REPS = 31
MAX_SUP_ERROR = 0.05
MAX_KKT = 1e-8

# The dataset is fixed (the scenario seed is that of criterion 8); the
# benchmark's --seed is the protocol seed of `distreg evaluate` (fold split and
# sampling) and the draw seed of the embed fits.
WORKLOADS = {
    # criterion 8: dense traffic on a small graph; the simplex QP dominates evaluate
    "grid30-cv": CVWorkload(
        scenario={
            "topology": "grid", "n_nodes": 30, "days": 30, "n_disruptions": 12, "phi": 0.8,
            "rate_low": 0.5, "rate_high": 1.2, "window_min": 80, "window_max": 140, "seed": 42,
        },
    ),
    # criterion 1: a few 5000x5000 kernel reductions per fit; no I/O, network or pipeline
    "embed-n5000": EmbedWorkload(n=5000, datasets=4),
}

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "predictions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "completed_share": "ratio",
}

PER_LAYER = {
    "data_io.generate_synthetic.self_s": "s",
    "data_io.write_dataset.s": "s",
    "data_io.bytes_written": "bytes",
    "data_io.load_dataset.s": "s",
    "data_io.journey_rows": "count",
    "network.bfs_distance.calls": "count",
    "network.bfs_distance.s": "s",
    "network.feasible_origins.calls": "count",
    "network.feasible_origins.s": "s",
    "pipeline.input_variable_samples.calls": "count",
    "pipeline.input_variable_samples.s": "s",
    "pipeline.feature_recompute_ratio": "ratio",
    "pipeline.resolve_rho.s": "s",
    "pipeline.train.s": "s",
    "pipeline.predict.s": "s",
    "pipeline.build_basis.s": "s",
    "kernels.inner.calls": "count",
    "kernels.inner.s": "s",
    "kernels.kernel_evals": "count",
    "kernels.evals_per_s": "1/s",
    "kernels.pairwise_distances.calls": "count",
    "kernels.pairwise_distances.s": "s",
    "regression.fit_mixture_embeddings.s": "s",
    "regression.fit_mixture_distributions.s": "s",
    "regression.weight_sup_error": "1",
    "simplex_qp.solve.calls": "count",
    "simplex_qp.solve.s": "s",
    "simplex_qp.iterations": "count",
    "simplex_qp.iterations_max": "count",
    "simplex_qp.kkt_max": "1",
    "sampler.fit_mixture_weights.self_s": "s",
    "sampler.sample_from_mixture.calls": "count",
    "sampler.sample_from_mixture.s": "s",
    "sampler.draws": "count",
    "evaluation.score_disruptions.s": "s",
    "evaluation.run_evaluation.self_s": "s",
    "evaluation.silverman_h.s": "s",
    "evaluation.nll.calls": "count",
    "evaluation.nll.s": "s",
    "evaluation.skipped_score": "count",
    "evaluation.skipped_eval": "count",
    "evaluation.skip_share": "ratio",
    "evaluation.nll_win_share": "ratio",
    "evaluation.se_win_share": "ratio",
    "cli.main.s": "s",
    "cli.trace_overhead_s": "s",
}


def machine_probe() -> float:
    """Seconds for a fixed pure-Python loop, timed beside each repeat; never used to scale a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - start


def another_op(elapsed: float, seconds: float, last_op_s: float | None) -> bool:
    """Closed loop: start the next operation if one is expected to end within the window."""
    return last_op_s is None or elapsed + last_op_s <= seconds


@dataclass
class Child:
    seconds: float
    cpu_s: float
    returncode: int
    peak_rss_mb: float
    stdout: str


@dataclass
class Run:
    """Operations attempted in one benchmark run, and what their checks found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONOPTIMIZE", "PYTHONHOME")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_child(args: list, work: Path, tag: str) -> Child:
    """Run `python3 args...` in the checkout root; wall time and peak RSS of that process alone."""
    with open(work / f"{tag}.out", "w+b") as out, open(work / f"{tag}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *map(str, args)],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    cpu_s = usage.ru_utime + usage.ru_stime
    return Child(seconds, cpu_s, proc.returncode, usage.ru_maxrss / 1024.0, stdout)


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_dir(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_evaluation(data: Path, out: Path) -> tuple[dict, list[str]]:
    """Skip accounting and output checks of one `distreg evaluate`, read from its files.

    distreg reports skipped disruptions only on stderr, so they are counted
    here: disruptions.csv against scores.csv, selected rows against metrics.csv.
    """
    problems = []
    try:
        n_disruptions = len(read_rows(data / "disruptions.csv"))
        scores = read_rows(out / "scores.csv")
        metrics = read_rows(out / "metrics.csv")
        scored = [int(r["id"]) for r in scores]
        selected = {int(r["id"]) for r in scores if r["selected"] == "1"}
        evaluated = [int(r["id"]) for r in metrics]
        values = [float(r[k]) for r in scores for k in ("observable", "severity")]
        values += [float(v) for r in metrics for k, v in r.items() if k not in ("id", "fold")]
        nll_wins = sum(float(r["model_nll"]) < float(r["random_nll"]) for r in metrics)
        se_wins = sum(float(r["model_se"]) < float(r["baseline_se"]) for r in metrics)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return {}, [f"unreadable output: {type(exc).__name__}: {exc}"]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite value in scores.csv or metrics.csv")
    if len(set(scored)) != len(scored) or not set(scored) <= set(range(n_disruptions)):
        problems.append("scores.csv ids are not distinct disruption ids")
    if len(selected) != min(TOP, len(scored)):
        problems.append(f"{len(selected)} selected, expected {min(TOP, len(scored))}")
    if len(set(evaluated)) != len(evaluated) or not set(evaluated) <= selected:
        problems.append("metrics.csv ids are not distinct selected ids")
    if not evaluated:
        problems.append("no disruption was evaluated")
    counts = {
        "disruptions": n_disruptions,
        "scored": len(scored),
        "selected": len(selected),
        "evaluated": len(evaluated),
        "skipped_score": n_disruptions - len(scored),
        "skipped_eval": len(selected) - len(evaluated),
        "nll_win_share": nll_wins / max(len(evaluated), 1),
        "se_win_share": se_wins / max(len(evaluated), 1),
    }
    if counts["evaluated"] != n_disruptions:
        problems.append(f"{counts['evaluated']} of {n_disruptions} disruptions evaluated")
    if counts["nll_win_share"] < MIN_NLL_WIN_SHARE:
        problems.append(f"NLL win share {counts['nll_win_share']:.3f} < {MIN_NLL_WIN_SHARE}")
    if counts["se_win_share"] < MIN_SE_WIN_SHARE:
        problems.append(f"SE win share {counts['se_win_share']:.3f} < {MIN_SE_WIN_SHARE}")
    return counts, problems


def completed_share(counts: dict) -> float:
    """Disruptions not skipped at the score and evaluate stages, over those attempted there."""
    attempted = counts["disruptions"] + counts["selected"]
    return (counts["scored"] + counts["evaluated"]) / attempted


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def simulate_args(scenario: Path, out: Path) -> list:
    return [*DISTREG, "simulate", "--scenario", scenario, "--out", out]


def measure_cv(w: CVWorkload, seed: int, seconds: float, work: Path, run: Run) -> dict:
    """Set-ups and `distreg evaluate` operations, alternating.

    The machine's speed drifts within a run, so the set-ups are spread
    between the operations: both medians then sample the whole run rather than
    one stretch of it. The window counts operation time only.
    """
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(w.scenario))
    setup_s, dataset_digests = [], []

    def set_up() -> None:
        i = len(dataset_digests)
        data = work / f"data{i}"
        c = run_child(simulate_args(scenario, data), work, f"simulate{i}")
        digest = sha256_dir(data) if c.returncode == 0 else None
        problems = [] if c.returncode == 0 else [f"exit code {c.returncode}"]
        if dataset_digests and digest != dataset_digests[0]:
            problems.append("dataset differs from the first set-up")
        if run.record(f"simulate {i}", problems):
            setup_s.append(c.seconds)
        dataset_digests.append(digest)
        if i > 0:
            shutil.rmtree(data, ignore_errors=True)

    set_up()
    data = work / "data0"
    ops, first_digests, elapsed = [], None, 0.0
    while another_op(elapsed, seconds, ops[-1]["seconds"] if ops else None):
        tag = f"evaluate{len(ops)}"
        out = work / tag
        probe_s = machine_probe()
        c = run_child([*DISTREG, "evaluate", "--data", data, "--out", out, *w.evaluate_args(seed)], work, tag)
        elapsed += c.seconds
        if c.returncode == 0:
            counts, problems = check_evaluation(data, out)
        else:
            counts, problems = {}, [f"exit code {c.returncode}"]
        digests = {n: sha256_file(out / n) for n in ("scores.csv", "metrics.csv") if (out / n).exists()}
        first_digests = first_digests or digests
        if digests != first_digests:
            problems.append("scores.csv/metrics.csv differ from the first repeat")
        ok = run.record(tag, problems)
        ops.append(
            {"ok": ok, "seconds": c.seconds, "cpu_s": c.cpu_s, "peak_rss_mb": c.peak_rss_mb,
             "probe_s": probe_s, "counts": counts}
        )
        shutil.rmtree(out, ignore_errors=True)
        if len(dataset_digests) < CV_SETUP_REPS:
            set_up()
    while len(dataset_digests) < CV_SETUP_REPS:
        set_up()

    good = [op for op in ops if op["ok"]] or ops
    counts = next((op["counts"] for op in good if op["counts"]), None)
    run.report.update(
        setup_s=setup_s,
        dataset_sha256=dataset_digests[0],
        output_sha256=first_digests,
        ops=[{k: v for k, v in op.items() if k != "counts"} for op in ops],
        op_s=quartiles([op["seconds"] for op in good]),
        counts=counts,
    )
    return {
        "setup_s": statistics.median(setup_s) if setup_s else 0.0,
        "op_s": statistics.median(op["seconds"] for op in good),
        "predictions_per_s": statistics.median(
            op["counts"].get("evaluated", 0) / op["seconds"] for op in good
        ),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in good),
        "completed_share": completed_share(counts) if counts else 0.0,
    }


def sup_error(weights: list[float]) -> float:
    return max(abs(a - b) for a, b in zip(weights, (0.3, 0.7)))


def check_fit(fit: dict, reference: dict) -> list[str]:
    """A fit must succeed, recover the 0.3/0.7 weights, and repeat bit for bit on its dataset."""
    if fit["error"] is not None:
        return [fit["error"]]
    problems = []
    if sup_error(fit["w"]) > MAX_SUP_ERROR:
        problems.append(f"sup-error {sup_error(fit['w']):.4f} > {MAX_SUP_ERROR}")
    if reference.setdefault(fit["dataset"], fit["w"]) != fit["w"]:
        problems.append("weights differ from the first fit of the same dataset")
    return problems


def embed_args(w: EmbedWorkload, mode: str, seed: int) -> list:
    return [HERE / "inproc.py", mode, "--seed", seed, "--n", w.n, "--datasets", w.datasets]


def measure_embed(w: EmbedWorkload, seed: int, seconds: float, work: Path, run: Run) -> dict:
    c = run_child(
        [*embed_args(w, "embed", seed), "--setup-reps", EMBED_SETUP_REPS, "--seconds", seconds], work, "embed"
    )
    if c.returncode != 0:
        run.record("embed worker", [f"exit code {c.returncode}"])
        return dict.fromkeys(END_TO_END, 0.0)
    result = last_json_line(c.stdout)
    reference: dict = {}
    fits = result["fits"]
    for i, fit in enumerate(fits):
        fit["ok"] = run.record(f"fit {i}", check_fit(fit, reference))
    good = [f for f in fits if f["ok"]] or fits
    run.report.update(
        setup_s=result["setup_s"],
        ops=fits,
        op_s=quartiles([f["seconds"] for f in good]),
        weight_sup_error=statistics.median(map(sup_error, reference.values())) if reference else None,
    )
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "op_s": statistics.median(f["seconds"] for f in good),
        "predictions_per_s": statistics.median(1.0 / f["seconds"] for f in good),
        "peak_rss_mb": c.peak_rss_mb,
        "completed_share": sum(f["w"] is not None for f in fits) / len(fits),
    }


def measure_traced(
    w: CVWorkload | EmbedWorkload, seed: int, work: Path, run: Run, spans: Path
) -> dict:
    """Per-layer metrics from one traced in-process run, checked like an untraced one."""
    layers = dict.fromkeys(PER_LAYER, 0.0)
    if isinstance(w, CVWorkload):
        scenario = work / "scenario.json"
        scenario.write_text(json.dumps(w.scenario))
        data, untraced_out, traced_out = work / "data", work / "untraced", work / "traced"
        args = [
            HERE / "inproc.py", "trace-cv", "--scenario", scenario, "--data", data,
            "--untraced-out", untraced_out, "--traced-out", traced_out, "--spans", spans,
            "--", *w.evaluate_args(seed),
        ]
    else:
        args = [*embed_args(w, "trace-embed", seed), "--spans", spans]
    c = run_child(args, work, "traced")
    if not run.record("traced run", [] if c.returncode == 0 else [f"exit code {c.returncode}"]):
        return layers
    result = last_json_line(c.stdout)
    layers.update((k, v) for k, v in result["metrics"].items() if k in PER_LAYER)
    untraced_s = sum(r["seconds"] for r in result["untraced"])
    traced_s = sum(r["seconds"] for r in result["traced"])
    layers["cli.trace_overhead_s"] = traced_s - untraced_s
    kkt = layers["simplex_qp.kkt_max"]
    run.record("traced QP solves", [] if kkt <= MAX_KKT else [f"KKT residual {kkt:.3e} > {MAX_KKT}"])

    if isinstance(w, CVWorkload):
        commands = ("simulate", "untraced evaluate", "traced evaluate")
        for name, rc in zip(commands, result["cli_returncodes"]):
            run.record(name, [] if rc == 0 else [f"exit code {rc}"])
        counts, problems = check_evaluation(data, traced_out)
        digests = {
            name: [sha256_file(d / name) for d in (untraced_out, traced_out) if (d / name).exists()]
            for name in ("scores.csv", "metrics.csv")
        }
        if any(len(set(v)) != 1 or len(v) != 2 for v in digests.values()):
            problems.append("traced outputs differ from untraced outputs")
        run.record("traced outputs", problems)
        if counts:
            layers.update(
                {
                    "evaluation.skipped_score": counts["skipped_score"],
                    "evaluation.skipped_eval": counts["skipped_eval"],
                    "evaluation.skip_share": 1.0 - completed_share(counts),
                    "evaluation.nll_win_share": counts["nll_win_share"],
                    "evaluation.se_win_share": counts["se_win_share"],
                }
            )
        run.report.update(counts=counts, output_sha256={k: v[0] for k, v in digests.items() if v})
    else:
        reference: dict = {}
        for i, fit in enumerate(result["untraced"] + result["traced"]):
            run.record(f"fit {i}", check_fit(dict(fit, dataset=i % w.datasets), reference))
        if reference:
            layers["regression.weight_sup_error"] = statistics.median(map(sup_error, reference.values()))
    run.report.update(untraced_s=untraced_s, traced_s=traced_s, spans=os.path.relpath(spans, ROOT))
    return layers


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return r.stdout.strip() or None


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_inherited": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads_child": 1,
        "git_commit": git_commit(),
    }


def measure(
    w: CVWorkload | EmbedWorkload, seed: int, seconds: float, trace: bool, tag: str
) -> tuple[dict, dict]:
    """One benchmark run: (result, report). The result's metrics are END_TO_END or PER_LAYER."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{tag}-seed{seed}-trace{int(trace)}-", dir=WORK))
    run = Run(report={"workload": tag, "seed": seed, "seconds": seconds, "trace": int(trace)})
    run.report["environment"] = environment()
    try:
        # byte-compile once so no timed process pays for it
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "distreg")],
            capture_output=True,
            timeout=120,
        )
        if trace:
            spans = WORK / f"spans-{tag}-seed{seed}.jsonl"
            values, units = measure_traced(w, seed, work, run, spans), PER_LAYER
        elif isinstance(w, CVWorkload):
            values, units = measure_cv(w, seed, seconds, work, run), END_TO_END
        else:
            values, units = measure_embed(w, seed, seconds, work, run), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, value in values.items():
        if not math.isfinite(value):
            run.record(f"metric {name}", [f"non-finite value {value}"])
            values[name] = 0.0
    run.report["problems"] = run.problems
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, run.report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "distreg" / "cli.py").is_file():
        print(f"perfbench: no distreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not __debug__:
        print("perfbench: run without -O, so distreg's QP assertion stays on", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result, report = measure(workload, args.seed, args.seconds, bool(args.trace), args.workload)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
