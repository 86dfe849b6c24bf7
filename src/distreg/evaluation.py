"""Disruption scoring, model comparison, k-fold protocol, and figure-data export.

Evaluation compares three per-disruption sample models — the fitted
mixture, the natural-regime baseline (X3), and a uniformly random mixture —
on negative log-likelihood of the observed exit vector (entry-wise
Gaussian KDE marginals) and on relative squared error of the mean.
Every reported number is out of sample: a disruption is only evaluated
by the fold that excluded it from training.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data_io import fmt_float, write_csv
from .kernels import SampleSet, _as_matrix
from .network import Disruption, Graph
from .pipeline import (
    InterferenceConfig,
    DayCounts,
    PerturbedObservation,
    input_variable_samples,
    natural_pool,
    predict,
    resolve_rho,
    train,
)
from .sampler import sample_from_mixture
from .simplex_qp import SimplexQPError

__all__ = [
    "ScoreRecord",
    "EvalRecord",
    "observable_score",
    "severity_score",
    "select_top",
    "kfold",
    "kde_log_density",
    "silverman_h",
    "nll",
    "squared_error",
    "random_model",
    "uniform_simplex",
    "run_evaluation",
    "write_scores_csv",
    "write_metrics_csv",
]


@dataclass(frozen=True)
class ScoreRecord:
    disruption_id: int
    observable: float
    severity: float
    selected: bool
    # the disruption day's ROI exit vector the severity was scored on
    observation: PerturbedObservation = field(compare=False, repr=False)
    # X3, the natural rows whose mean the severity was scored against: the baseline model
    natural: SampleSet = field(compare=False, repr=False)


@dataclass(frozen=True)
class EvalRecord:
    disruption_id: int
    fold: int
    model_nll: float
    baseline_nll: float
    random_nll: float
    model_se: float
    baseline_se: float
    random_se: float


def observable_score(x1_rows, x2_rows) -> float:
    """sum_day ||x1 - x2||^2 / sum_day ||x1||^2 over natural days."""
    a = np.asarray(x1_rows, dtype=np.float64)
    b = np.asarray(x2_rows, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    num = float(np.sum((a - b) ** 2))
    den = float(np.sum(a**2))
    if den <= 0.0:
        raise ValueError("observable score undefined: feasible-path rows are all zero")
    return num / den


def severity_score(observed, natural_mean) -> float:
    """Relative squared deviation of disruption-day ROI totals from their natural means."""
    mean = np.asarray(natural_mean, dtype=np.float64).reshape(-1)
    observed = np.asarray(observed, dtype=np.float64).reshape(-1)
    if mean.shape[0] != observed.shape[0]:
        raise ValueError(f"natural mean length {mean.shape[0]} != |ROI| {observed.shape[0]}")
    den = float(np.sum(mean**2))
    if den <= 0.0:
        raise ValueError("severity undefined: natural means are all zero")
    return float(np.sum((mean - observed) ** 2)) / den


def select_top(scores: Sequence[tuple[int, float]], n: int) -> set[int]:
    """Ids of the n highest-scoring disruptions; ties broken by id ascending."""
    if not 0 <= n <= len(scores):
        raise ValueError(f"cannot select top {n} from {len(scores)} scores")
    ranked = sorted(scores, key=lambda item: (-item[1], item[0]))
    return {disruption_id for disruption_id, _ in ranked[:n]}


def kfold(selected: Sequence[int], k: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """Deterministic seeded split into k near-equal folds of (train, test) ids."""
    ids = sorted(selected)
    if k > len(ids) or k < 1:
        raise ValueError(f"cannot make {k} folds from {len(ids)} items")
    rng = np.random.Generator(np.random.Philox(key=seed))
    perm = rng.permutation(len(ids))
    shuffled = [ids[i] for i in perm]
    base, extra = divmod(len(ids), k)
    folds = []
    start = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        test = sorted(shuffled[start : start + size])
        train_ids = sorted(set(ids) - set(test))
        folds.append((train_ids, test))
        start += size
    return folds


def _linear_quantile(s: np.ndarray, q: float) -> float:
    """np.quantile(s, q) of a sorted vector without NaN, bit for bit, by numpy's linear method.

    numpy finds s at the virtual index (n - 1) q, takes the last entry from
    n - 1 on, and interpolates between the two neighbours a, b with weight
    g as a + (b - a) g below g = 0.5 and b - (b - a)(1 - g) from there.
    Calling np.percentile instead imports numpy.ma, about 12 ms of each
    process. (A NaN column gives silverman_h sigma = 1 through its NaN
    standard deviation, whatever its quartiles.)
    """
    n = s.shape[0]
    v = (n - 1) * q
    i = math.floor(v) if v < n - 1 else -1
    a, b = float(s[i]), float(s[i + 1 if i >= 0 else -1])
    g = v - i
    return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g


def silverman_h(samples) -> np.ndarray:
    """Per-coordinate KDE precision h = 1 / (2 sigma^2), sigma by Silverman's rule.

    Degenerate coordinates (zero spread) fall back to sigma = 1 so the
    density stays proper.
    """
    arr = _as_matrix(samples)
    n = arr.shape[0]
    h = np.empty(arr.shape[1])
    for j in range(arr.shape[1]):
        col = arr[:, j]
        std = float(np.std(col, ddof=1)) if n > 1 else 0.0
        ordered = np.sort(col)
        iqr = _linear_quantile(ordered, 0.75) - _linear_quantile(ordered, 0.25)
        sigma = 0.9 * min(std, iqr / 1.34 if iqr > 0 else np.inf) * n ** (-0.2)
        if not sigma > 0:
            sigma = 1.0
        h[j] = 1.0 / (2.0 * sigma * sigma)
    return h


def kde_log_density(samples, h, y) -> np.ndarray:
    """Per-coordinate log density log( sqrt(h/pi)/N * sum_i exp(-h (y_j - s_ij)^2) ).

    h may be a scalar or a per-coordinate vector; summation is stabilized
    by the usual max shift. Each marginal integrates to 1.
    """
    arr = _as_matrix(samples)
    yv = np.asarray(y, dtype=np.float64).reshape(-1)
    if yv.shape[0] != arr.shape[1]:
        raise ValueError(f"point has dim {yv.shape[0]}, samples have dim {arr.shape[1]}")
    hv = np.broadcast_to(np.asarray(h, dtype=np.float64), (arr.shape[1],))
    if np.any(hv <= 0):
        raise ValueError("h must be positive")
    n = arr.shape[0]
    out = np.empty(arr.shape[1])
    for j in range(arr.shape[1]):
        (m,), (total,) = _shifted_kernel_sums(arr[:, j], hv[j], yv[j : j + 1])
        out[j] = m + math.log(float(total)) + 0.5 * math.log(hv[j] / math.pi) - math.log(n)
    return out


def _shifted_kernel_sums(col: np.ndarray, h: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each point y_g: m_g = max_i a_gi and sum_i exp(a_gi - m_g), a_gi = -h (y_g - col_i)^2.

    One (points, samples) buffer, updated in place; each row is summed
    pairwise, so a point's sums do not depend on the other points.
    """
    a = y[:, None] - col[None, :]
    np.square(a, out=a)
    np.multiply(a, -h, out=a)
    m = np.max(a, axis=1)
    np.subtract(a, m[:, None], out=a)
    np.exp(a, out=a)
    return m, np.sum(a, axis=1)


def nll(model_samples, observed, h) -> float:
    """Negative log-likelihood of the observed vector under entry-wise KDE marginals."""
    return -float(np.sum(kde_log_density(model_samples, h, observed)))


def squared_error(model_samples, observed) -> float:
    """|| mean(model samples) - observed ||^2 / ||observed||^2."""
    arr = _as_matrix(model_samples)
    obs = np.asarray(observed, dtype=np.float64).reshape(-1)
    den = float(np.sum(obs**2))
    if den <= 0.0:
        raise ValueError("squared error undefined for a zero observed vector")
    mean = np.mean(arr, axis=0)
    return float(np.sum((mean - obs) ** 2)) / den


def uniform_simplex(n: int, rng: np.random.Generator) -> np.ndarray:
    """Flat Dirichlet draw via normalized exponential spacings."""
    u = rng.random(n)
    e = -np.log1p(-u)
    return e / float(np.sum(e))


def random_model(basis, seed: int, n: int) -> SampleSet:
    """Samples from the basis under uniformly random simplex weights."""
    theta_seed, sample_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    )
    rng = np.random.Generator(np.random.Philox(key=theta_seed))
    theta = uniform_simplex(len(basis), rng)
    return sample_from_mixture(basis, theta, n, sample_seed)


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def score_disruptions(
    days: Mapping[int, DayCounts],
    disruptions: Sequence[Disruption],
    g: Graph,
    cfg: InterferenceConfig,
    top_n: int,
) -> list[ScoreRecord]:
    """Observable and severity scores for every disruption, with top-n selection flags.

    Disruptions whose scores are undefined (no feasible traffic, missing
    disruption-day data) are reported on stderr and dropped. Each record
    keeps the disruption's observed exit vector and its X3 rows.
    """
    natural_days = natural_pool(days, disruptions)
    scored: list[tuple[int, float, float, PerturbedObservation, SampleSet]] = []
    for k, z in enumerate(disruptions):
        try:
            if z.day not in days:
                raise ValueError(f"no journey data for disruption day {z.day}")
            x1, x2, x3, _, _ = input_variable_samples(natural_days, z, g, cfg)
            obs_score = observable_score(x1.samples, x2.samples)
            obs = PerturbedObservation.from_day_counts(days[z.day], z)
            sev = severity_score(obs.exit_vector, np.mean(x3.samples, axis=0))
        except ValueError as exc:
            print(f"score: skipping disruption {k}: {exc}", file=sys.stderr)
            continue
        scored.append((k, obs_score, sev, obs, x3))
    selected = select_top([(k, s) for k, s, *_ in scored], min(top_n, len(scored)))
    return [
        ScoreRecord(k, s, sev, k in selected, observation=obs, natural=x3)
        for k, s, sev, obs, x3 in scored
    ]


def run_evaluation(
    days: Mapping[int, DayCounts],
    disruptions: Sequence[Disruption],
    g: Graph,
    cfg: InterferenceConfig,
    out_dir: Path | str | None = None,
    n_folds: int = 10,
    top_n: int = 20,
    seed: int = 0,
    n_samples: int = 400,
    rho_mode: str = "per-fold",
) -> tuple[list[ScoreRecord], list[EvalRecord]]:
    """Full protocol: score, select, k-fold train/predict, compare models, export.

    A test disruption's natural baseline model is the X3 that scoring
    kept (`ScoreRecord.natural`). Fewer than 2 folds, which leave no
    training disruption, are refused before any scoring.

    rho_mode picks where an unresolved bandwidth is fitted: "per-fold"
    (training disruptions of each fold; the usual discipline) or
    "global" (all selected disruptions once, as the paper did for speed).
    Each disruption's bandwidth pool distances and its training inputs
    X1..X5 are built by the first fold that trains it and kept for the
    rest of the run, which holds the natural days, graph and config fixed
    (one memo for `pipeline.resolve_rho` and one for `pipeline.train`).
    One failing disruption is reported and skipped without aborting the
    run.
    """
    if rho_mode not in ("per-fold", "global"):
        raise ValueError(f"unknown rho_mode {rho_mode!r}")
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")
    natural_days = natural_pool(days, disruptions)
    scores = score_disruptions(days, disruptions, g, cfg, top_n)
    selected = {r.disruption_id: r for r in scores if r.selected}
    selected_ids = sorted(selected)
    if not selected_ids:
        raise ValueError(
            f"no disruption to evaluate: {len(disruptions)} listed, {len(scores)} scored, "
            f"none selected (top {top_n})"
        )
    folds = kfold(selected_ids, n_folds, seed)

    cfg_global = cfg
    if cfg.rho is None and rho_mode == "global":
        cfg_global = cfg.with_rho(
            resolve_rho(natural_days, [selected[k].observation for k in selected_ids], g, cfg)
        )

    # each selected disruption's pool distances and training inputs, built by the
    # first fold that trains it
    rho_memo: dict = {}
    train_memo: dict = {}
    records: list[EvalRecord] = []
    density_grids: list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]] = []
    for fold_id, (train_ids, test_ids) in enumerate(folds):
        assert not set(train_ids) & set(test_ids), "train/test folds overlap"
        train_obs = [selected[k].observation for k in train_ids]
        fold_cfg = cfg_global
        if fold_cfg.rho is None:
            fold_cfg = cfg.with_rho(resolve_rho(natural_days, train_obs, g, cfg, memo=rho_memo))
        model = train(natural_days, train_obs, g, fold_cfg, memo=train_memo)
        for k in test_ids:
            assert k not in train_ids, "out-of-sample discipline violated"
            z = disruptions[k]
            obs_vec = selected[k].observation.exit_vector
            baseline_samples = selected[k].natural
            try:
                mixture, model_samples = predict(
                    model,
                    natural_days,
                    z,
                    g,
                    fold_cfg,
                    n_samples,
                    _derived_seed(seed, fold_id, k, 0),
                )
                random_samples = random_model(
                    mixture.basis, _derived_seed(seed, fold_id, k, 1), n_samples
                )
                h_model, h_base = silverman_h(model_samples), silverman_h(baseline_samples)
                rec = EvalRecord(
                    disruption_id=k,
                    fold=fold_id,
                    model_nll=nll(model_samples, obs_vec, h_model),
                    baseline_nll=nll(baseline_samples, obs_vec, h_base),
                    random_nll=nll(random_samples, obs_vec, silverman_h(random_samples)),
                    model_se=squared_error(model_samples, obs_vec),
                    baseline_se=squared_error(baseline_samples, obs_vec),
                    random_se=squared_error(random_samples, obs_vec),
                )
            except (ValueError, SimplexQPError) as exc:
                print(f"evaluate: skipping disruption {k}: {exc}", file=sys.stderr)
                continue
            records.append(rec)
            for j, station in enumerate(z.roi):
                grid_hi = 1.1 * max(
                    float(np.max(model_samples.samples[:, j])),
                    float(np.max(baseline_samples.samples[:, j])),
                    float(obs_vec[j]),
                    1.0,
                )
                y = np.linspace(0.0, grid_hi, 201)
                p_model = _marginal_density(model_samples.samples[:, j], h_model[j], y)
                p_base = _marginal_density(baseline_samples.samples[:, j], h_base[j], y)
                density_grids.append((k, station, y, p_model, p_base))
    records.sort(key=lambda r: r.disruption_id)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_scores_csv(out / "scores.csv", scores)
        write_metrics_csv(out / "metrics.csv", records)
        for k, station, y, p_model, p_base in density_grids:
            _write_density_csv(out / f"density_{k}_{station}.csv", y, p_model, p_base)
    return scores, records


def _marginal_density(col: np.ndarray, h: float, y_grid: np.ndarray) -> np.ndarray:
    """KDE of one sample coordinate with precision h, on a grid."""
    m, sums = _shifted_kernel_sums(col, h, y_grid)
    scale = math.sqrt(h / math.pi)
    n = col.shape[0]
    # the per-point tail stays in scalar math, in this order, so every
    # density value is bit-identical to summing one grid point at a time
    return np.array([math.exp(mi) * si * scale / n for mi, si in zip(m.tolist(), sums.tolist())])


def write_scores_csv(path: Path, scores: Sequence[ScoreRecord]) -> None:
    rows = (
        [r.disruption_id, fmt_float(r.observable), fmt_float(r.severity), int(r.selected)]
        for r in sorted(scores, key=lambda r: r.disruption_id)
    )
    write_csv(path, ["id", "observable", "severity", "selected"], rows)


_METRICS = ("model_nll", "baseline_nll", "random_nll", "model_se", "baseline_se", "random_se")


def write_metrics_csv(path: Path, records: Sequence[EvalRecord]) -> None:
    rows = (
        [r.disruption_id, r.fold, *(fmt_float(getattr(r, m)) for m in _METRICS)] for r in records
    )
    write_csv(path, ["id", "fold", *_METRICS], rows)


def _write_density_csv(path: Path, y: np.ndarray, p_model: np.ndarray, p_base: np.ndarray) -> None:
    # lists of Python floats: iterating the arrays would box each value as an np.float64
    columns = zip(y.tolist(), p_model.tolist(), p_base.tolist())
    rows = ([fmt_float(yi), fmt_float(pm), fmt_float(pb)] for yi, pm, pb in columns)
    write_csv(path, ["y", "p_model", "p_baseline"], rows)
