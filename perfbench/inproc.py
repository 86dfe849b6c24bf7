"""Child-process work for perfbench/run.py: criterion-1 embed fits and traced CLI runs.

run.py starts this file with PYTHONPATH pointing at the checkout's src/ and
every BLAS pool limited to one thread. It prints one JSON object as the last
line of stdout.

    inproc.py embed       --seed S --n N --datasets F --setup-reps K --seconds R
    inproc.py trace-embed --seed S --n N --datasets F --spans PATH
    inproc.py trace-cv    --scenario JSON --data DIR --untraced-out DIR
                          --traced-out DIR --spans PATH -- EVALUATE-ARGS...
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from distreg import GAUSSIAN, KernelConfig, SampleSet, TrainingPairs, cli, embed, regression
from run import another_op, machine_probe
from tracer import Tracer

KERNEL = KernelConfig(GAUSSIAN, 0.5)
MEANS = np.array([0.0, 5.0])
WEIGHTS = (0.3, 0.7)


def draw_pairs(seed: int, index: int, n: int) -> TrainingPairs:
    """Criterion-1 data: unit Gaussians at 0 and 5 as inputs, their 0.3/0.7 mixture as output."""
    rng = np.random.default_rng([seed, index])
    q1 = SampleSet(rng.normal(MEANS[0], 1.0, (n, 1)))
    q2 = SampleSet(rng.normal(MEANS[1], 1.0, (n, 1)))
    comp = rng.choice(2, size=n, p=WEIGHTS)
    p = SampleSet(rng.normal(MEANS[comp], 1.0)[:, None])
    return TrainingPairs(
        inputs=((embed(KERNEL, q1), embed(KERNEL, q2)),), outputs=(embed(KERNEL, p),)
    )


def timed_fit(pairs: TrainingPairs) -> dict:
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        # looked up on the module at call time, so a traced run sees its wrapper
        w = [float(x) for x in regression.fit_mixture_distributions(pairs).w]
        error = None
    except (ValueError, RuntimeError) as exc:  # SimplexQPError, SingularGramError
        w, error = None, f"{type(exc).__name__}: {exc}"
    seconds, cpu_s = time.perf_counter() - start, time.process_time() - start_cpu
    return {"seconds": seconds, "cpu_s": cpu_s, "w": w, "error": error}


def cmd_embed(a: argparse.Namespace) -> dict:
    setup_s = []
    for _ in range(a.setup_reps):
        start = time.perf_counter()
        data = [draw_pairs(a.seed, i, a.n) for i in range(a.datasets)]
        setup_s.append(time.perf_counter() - start)
    fits = []
    start = time.perf_counter()
    while another_op(time.perf_counter() - start, a.seconds, fits[-1]["seconds"] if fits else None):
        index = len(fits) % a.datasets
        probe_s = machine_probe()
        fits.append({"dataset": index, "probe_s": probe_s, **timed_fit(data[index])})
    return {"setup_s": setup_s, "fits": fits}


def cmd_trace_embed(a: argparse.Namespace) -> dict:
    data = [draw_pairs(a.seed, i, a.n) for i in range(a.datasets)]
    untraced = [timed_fit(pairs) for pairs in data]
    tracer = Tracer()
    with tracer.active("fit"):
        traced = [timed_fit(pairs) for pairs in data]
    tracer.write_spans(a.spans)
    return {"metrics": tracer.metrics(), "untraced": untraced, "traced": traced}


def cmd_trace_cv(a: argparse.Namespace) -> dict:
    tracer = Tracer()
    with tracer.active("simulate"):
        rc_simulate = cli.main(["simulate", "--scenario", a.scenario, "--out", a.data])
    start = time.perf_counter()
    rc_untraced = cli.main(["evaluate", "--data", a.data, "--out", a.untraced_out, *a.evaluate])
    untraced_s = time.perf_counter() - start
    with tracer.active("evaluate"):
        start = time.perf_counter()
        rc_traced = cli.main(["evaluate", "--data", a.data, "--out", a.traced_out, *a.evaluate])
        traced_s = time.perf_counter() - start
    tracer.write_spans(a.spans)
    return {
        "metrics": tracer.metrics(),
        "untraced": [{"seconds": untraced_s}],
        "traced": [{"seconds": traced_s}],
        "cli_returncodes": [rc_simulate, rc_untraced, rc_traced],
    }


def main() -> None:
    parser = argparse.ArgumentParser(prog="inproc.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("embed", "trace-embed"):
        p = sub.add_parser(mode)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--datasets", type=int, required=True)
        if mode == "embed":
            p.add_argument("--setup-reps", type=int, required=True)
            p.add_argument("--seconds", type=float, required=True)
        else:
            p.add_argument("--spans", required=True)
    p = sub.add_parser("trace-cv")
    for name in ("--scenario", "--data", "--untraced-out", "--traced-out", "--spans"):
        p.add_argument(name, required=True)
    p.add_argument("evaluate", nargs="*")
    a = parser.parse_args()
    handler = {"embed": cmd_embed, "trace-embed": cmd_trace_embed, "trace-cv": cmd_trace_cv}
    print(json.dumps(handler[a.mode](a)))


if __name__ == "__main__":
    main()
