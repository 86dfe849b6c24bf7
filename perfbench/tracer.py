"""Span tracer that times distreg's public functions from outside the program.

`Tracer.active(op)` rebinds every function named in TRACED with a timing
wrapper, in its defining module and in every distreg module that imported it
by name (for example `data_io.bfs_distance`, `evaluation.predict`), and
restores the originals on exit. Each call records a span
(id, parent, name, start, end, op) in memory; a few wrappers also add counts
read from the call's arguments or result. Nothing under src/ is modified.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# layer (module of src/distreg) -> public functions timed in that layer
TRACED = {
    "data_io": ("generate_synthetic", "write_dataset", "load_dataset"),
    "network": ("bfs_distance", "feasible_origins"),
    "pipeline": ("input_variable_samples", "resolve_rho", "train", "predict", "build_basis"),
    "kernels": ("inner", "pairwise_distances"),
    "regression": ("fit_mixture_embeddings", "fit_mixture_distributions"),
    "simplex_qp": ("solve",),
    "sampler": ("fit_mixture_weights", "sample_from_mixture"),
    "evaluation": ("score_disruptions", "run_evaluation", "silverman_h", "nll"),
    "cli": ("main",),
}

COUNTERS = (
    "data_io.bytes_written",
    "data_io.journey_rows",
    "kernels.kernel_evals",
    "simplex_qp.iterations",
    "simplex_qp.iterations_max",
    "simplex_qp.kkt_max",
    "sampler.draws",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_write_dataset(t: "Tracer", args, kwargs, result, exc) -> None:
    out = Path(_arg(args, kwargs, 1, "out_dir"))
    t.counts["data_io.bytes_written"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def _count_load_dataset(t: "Tracer", args, kwargs, result, exc) -> None:
    if result is not None:
        t.counts["data_io.journey_rows"] += sum(dc.total for dc in result.days.values())


def _count_features(t: "Tracer", args, kwargs, result, exc) -> None:
    t.featurised.add(_arg(args, kwargs, 1, "z"))


def _count_inner(t: "Tracer", args, kwargs, result, exc) -> None:
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    t.counts["kernels.kernel_evals"] += a.weights.shape[0] * b.weights.shape[0]


def _count_solve(t: "Tracer", args, kwargs, result, exc) -> None:
    # a SimplexQPError carries the same two fields as a solution
    source = result if result is not None else exc
    if not hasattr(source, "iterations"):
        return
    iterations, kkt = source.iterations, source.kkt_residual
    t.counts["simplex_qp.iterations"] += iterations
    t.counts["simplex_qp.iterations_max"] = max(t.counts["simplex_qp.iterations_max"], iterations)
    t.counts["simplex_qp.kkt_max"] = max(t.counts["simplex_qp.kkt_max"], kkt)


def _count_draws(t: "Tracer", args, kwargs, result, exc) -> None:
    t.counts["sampler.draws"] += _arg(args, kwargs, 2, "n")


_HOOKS = {
    "data_io.write_dataset": _count_write_dataset,
    "data_io.load_dataset": _count_load_dataset,
    "pipeline.input_variable_samples": _count_features,
    "kernels.inner": _count_inner,
    "simplex_qp.solve": _count_solve,
    "sampler.sample_from_mixture": _count_draws,
}


class Tracer:
    """Collects spans and counts for the calls made while `active` is entered."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, str]] = []
        self.counts: dict[str, float] = {name: 0 for name in COUNTERS}
        self.featurised: set = set()
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._op = ""

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(self, args, kwargs, None, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, self._op))
            if hook is not None:
                hook(self, args, kwargs, result, None)
            return result

        return wrapper

    @contextmanager
    def active(self, op: str):
        """Trace every call made inside the block, labelling its spans with `op`."""
        import distreg.cli  # noqa: F401  (loads every distreg module the CLI uses)

        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "distreg"]
        rebound = []
        for layer, names in TRACED.items():
            home = sys.modules[f"distreg.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            rebound.append((module, attr, original))
        self._op = op
        try:
            yield self
        finally:
            for module, attr, original in reversed(rebound):
                setattr(module, attr, original)

    def metrics(self) -> dict[str, float]:
        """calls, inclusive seconds (.s) and self seconds (.self_s) per traced function, plus counts."""
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, end, _ in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            if parent is not None:
                covered[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end, _ in self.spans:
            own[name] += (end - start) - covered[sid]
        out: dict[str, float] = {}
        for layer, names in TRACED.items():
            for fname in names:
                key = f"{layer}.{fname}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.s"] = inclusive[key]
                out[f"{key}.self_s"] = own[key]
        out.update(self.counts)
        inner_s = out["kernels.inner.s"]
        out["kernels.evals_per_s"] = out["kernels.kernel_evals"] / inner_s if inner_s > 0 else 0.0
        n_features = out["pipeline.input_variable_samples.calls"]
        out["pipeline.feature_recompute_ratio"] = (
            n_features / len(self.featurised) if self.featurised else 0.0
        )
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, op in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "op": op}
                    )
                    + "\n"
                )
