"""End-to-end disruption pipeline: journey aggregation, input features, training, prediction.

For each disruption z = (day, window, ROI) the natural-regime days are
turned into five per-day input realizations over the ROI stations:

  X1  exits arriving from origins whose path to the station stays feasible
      under the disrupted adjacency,
  X2  exits from infeasible origins (X1 + X2 == X3 exactly),
  X3  total exits,
  X4  the across-day mean of X3, repeated on every row,
  X5  the ROI-wide total divided by |ROI|, broadcast to all stations.

Feasibility is the detour score 1 - dist_natural / dist_disrupted
against the threshold xi. Under the disrupted adjacency every ROI station
is isolated, so its score is 1 for every other connected origin: those
origins are all infeasible when xi < 1 and all feasible when xi >= 1.
Journeys that both start and end at the station count as feasible, which
keeps X1 nonzero wherever same-station traffic exists.

The method is three steps, one function each: `resolve_rho` picks the
kernel bandwidth by the median heuristic, `train` fits a
mixture-of-embeddings model from the five input embeddings to the single
observed disruption-day exit vector, and `predict` combines new inputs
with the fitted coefficients and projects the result onto a basis of
rescaled natural marginals for sampling. Each step builds the features of
the disruptions it needs from the natural days other than the
disruption's own. X3, the natural ROI window totals, is the one source of
a disruption's natural rows: `build_basis` rescales it into the sampling
basis, and `evaluation.score_disruptions` keeps it as the baseline model.
`resolve_rho` can keep each disruption's sorted pool distances in a
caller's memo, and `train` each disruption's X1..X5 in another, so that
the folds of one evaluation build every pool and every training input
once.

A day's journeys arrive as `DayCounts`, counted from the int64 columns
origin, destination and t_exit that `data_io.load_journeys` reads and
checks. Exit-count tensors stay sparse: a day is four int64 columns (origin,
destination, exit minute, count) with one row per distinct key, never a
dense array. Every feature is a window sum over those columns, taken by
one vectorised scan (`_window_scan`) and binned into (day, ROI station)
cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .kernels import (
    GAUSSIAN,
    LAPLACE,
    DistanceRun,
    KernelConfig,
    SampleSet,
    distance_run,
    embed,
    median_of_runs,
    rho_from_median,
)
from .network import Disruption, Graph, disrupted_adjacency, feasible_origins
from .regression import (
    MixtureEmbeddingModel, TrainingPairs, fit_mixture_embeddings, predict_embedding
)
from .sampler import Basis, FittedMixture, fit_mixture_weights, sample_from_mixture

__all__ = [
    "DayCounts",
    "InterferenceConfig",
    "PerturbedObservation",
    "roi_exit_vector",
    "natural_pool",
    "input_variable_samples",
    "resolve_rho",
    "train",
    "build_basis",
    "predict",
    "N_TUBE_INPUTS",
]

N_TUBE_INPUTS = 5


@dataclass(frozen=True, eq=False)
class DayCounts:
    """One day's exit counts as four read-only int64 columns.

    Row k says that `count[k]` journeys from station `origin[k]` to station
    `destination[k]` left the network at minute `t_exit[k]`. The constructor
    aggregates: rows that share an (origin, destination, t_exit) key are
    summed into one (`count` defaults to one journey per row), and the rows
    are sorted by (destination, t_exit, origin), so each station's exits form
    one contiguous run ordered by exit minute. The four columns are the
    rows of one (4, rows) table.
    """

    day: int
    origin: np.ndarray
    destination: np.ndarray
    t_exit: np.ndarray
    count: np.ndarray | None = None

    def __post_init__(self) -> None:
        o, d, t = (
            np.asarray(a, dtype=np.int64).reshape(-1)
            for a in (self.origin, self.destination, self.t_exit)
        )
        if self.count is None:
            c = np.ones_like(o)
        else:
            c = np.asarray(self.count, dtype=np.int64).reshape(-1)
        if not o.size == d.size == t.size == c.size:
            raise ValueError(
                f"column lengths differ: origin {o.size}, destination {d.size}, "
                f"t_exit {t.size}, count {c.size}"
            )
        if np.any(c < 0):
            raise ValueError("exit counts must be nonnegative")
        order = np.lexsort((o, t, d))
        o, d, t, c = o[order], d[order], t[order], c[order]
        first = np.ones(o.size, dtype=bool)
        first[1:] = (d[1:] != d[:-1]) | (t[1:] != t[:-1]) | (o[1:] != o[:-1])
        starts = np.flatnonzero(first)
        # one table, so that `_window_scan` takes a day's four columns in one slice
        table = np.empty((4, starts.size), dtype=np.int64)
        table[0], table[1], table[2] = o[starts], d[starts], t[starts]
        table[3] = np.add.reduceat(c, starts) if starts.size else c
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)
        for name, col in zip(("origin", "destination", "t_exit", "count"), table):
            object.__setattr__(self, name, col)
        object.__setattr__(self, "day", int(self.day))

    @property
    def total(self) -> int:
        return int(self.count.sum())


# the fold split (`kfold`) and the mixture draws (`sample_from_mixture`) key a
# Philox generator with the seed, and a Philox key has 128 bits; scenario seeds
# (which seed PCG64 through a SeedSequence) share the range so that one rule
# holds for every seed
SEED_BITS = 128
SEED_BOUND = 2**SEED_BITS


def seed_error(value) -> str | None:
    """Why `value` is not a seed (an int in [0, SEED_BOUND)), or None if it is one."""
    if isinstance(value, bool) or not isinstance(value, int):
        return f"must be an integer, got {value!r}"
    if not 0 <= value < SEED_BOUND:
        return f"must be in [0, 2**{SEED_BITS}), got {value}"
    return None


@dataclass(frozen=True)
class InterferenceConfig:
    """Pipeline knobs.

    xi, the feasibility threshold on the detour score, splits X3 into X1
    and X2 (see the module docstring for X1..X5);
    rescale_levels (R) and rescale_span (c) shape the sampling basis;
    kernel_family and rho give the one kernel of regression and basis fit;
    ridge regularises the training Gram; seed is `evaluate`'s default seed.
    rho=None means "resolve by the median heuristic" (see resolve_rho);
    ridge=None picks the trace-scaled default of the regression module.

    `data_io.CONFIG_FIELDS` maps each field to its key in `config.txt` and
    `model.json`, and each field's value type is read off its default
    (None stands for an optional float, written `auto`).
    """

    xi: float = 0.25
    rescale_levels: int = 5
    rescale_span: float = 1.5
    kernel_family: str = GAUSSIAN
    rho: float | None = None
    ridge: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.xi > 0:
            raise ValueError(f"xi must be positive, got {self.xi}")
        if self.rescale_levels < 2:
            raise ValueError(f"need rescale_levels >= 2, got {self.rescale_levels}")
        if not 1 < self.rescale_span < math.inf:
            raise ValueError(f"need finite rescale_span > 1, got {self.rescale_span}")
        if self.kernel_family not in (GAUSSIAN, LAPLACE):
            raise ValueError(f"unknown kernel family {self.kernel_family!r}")
        if self.rho is not None and not 0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite or None, got {self.rho}")
        if self.ridge is not None and not 0 <= self.ridge < math.inf:
            raise ValueError(f"ridge must be nonnegative and finite or None, got {self.ridge}")
        if (error := seed_error(self.seed)) is not None:
            raise ValueError(f"seed {error}")

    def kernel(self) -> KernelConfig:
        if self.rho is None:
            raise ValueError("rho is unresolved; call resolve_rho first or set it explicitly")
        return KernelConfig(family=self.kernel_family, rho=self.rho)

    def with_rho(self, rho: float) -> "InterferenceConfig":
        return replace(self, rho=float(rho))


@dataclass(frozen=True, eq=False)
class PerturbedObservation:
    """A disruption together with its observed ROI exit vector (a single realization)."""

    disruption: Disruption
    exit_vector: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.exit_vector, dtype=np.float64).reshape(-1)
        if v.shape[0] != len(self.disruption.roi):
            raise ValueError(
                f"exit vector length {v.shape[0]} != |ROI| {len(self.disruption.roi)}"
            )
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("exit vector must be finite and nonnegative")
        v.flags.writeable = False
        object.__setattr__(self, "exit_vector", v)

    @classmethod
    def from_day_counts(cls, dc: DayCounts, z: Disruption) -> "PerturbedObservation":
        return cls(disruption=z, exit_vector=roi_exit_vector(dc, z))


def _window_scan(
    days: Sequence[DayCounts], z: Disruption
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every exit at an ROI station inside z's window, over the given days.

    Returns (cell, origin, count) columns with cell = day row * |ROI| + the
    station's index in z.roi. A day's ROI stations all lie in one slice of
    its destination-sorted rows, found by a single searchsorted. The rows
    inside the window are then looked up in the sorted ROI, so the lookup
    takes memory by |ROI|, never by the span of its station ids.
    """
    roi = np.asarray(z.roi, dtype=np.int64)
    by_id = roi.argsort()
    roi = roi[by_id]
    bounds = np.array((roi[0], roi[-1] + 1))
    sizes, parts = [], []
    for dc in days:
        a, b = dc.destination.searchsorted(bounds).tolist()
        sizes.append(b - a)
        parts.append(dc._table[:, a:b])
    origin, dest, t, count = np.concatenate(parts, axis=1)
    rows = ((t >= z.t_start) & (t <= z.t_end)).nonzero()[0]
    dest = dest[rows]
    # every dest lies in [roi[0], roi[-1]], so its insertion point indexes roi
    at = roi.searchsorted(dest)
    hit = roi[at] == dest
    rows = rows[hit]
    cell = np.repeat(np.arange(len(days)), sizes)[rows] * roi.size + by_id[at[hit]]
    return cell, origin[rows], count[rows]


def _cell_totals(cell: np.ndarray, count: np.ndarray, n_days: int, m: int) -> np.ndarray:
    """(n_days, m) float64 sums of `count` per cell; integer sums, so exact in any order."""
    return np.bincount(cell, weights=count, minlength=n_days * m).reshape(n_days, m)


def roi_exit_vector(dc: DayCounts, z: Disruption) -> np.ndarray:
    """Exits at each ROI station summed over all origins and the disruption window."""
    if dc.day != z.day:
        raise ValueError(f"day mismatch: counts are for day {dc.day}, disruption is day {z.day}")
    cell, _, count = _window_scan([dc], z)
    return _cell_totals(cell, count, 1, len(z.roi))[0].astype(np.int64)


def natural_pool(
    days: Mapping[int, DayCounts], disruptions: Sequence[Disruption]
) -> list[DayCounts]:
    """Days that belong to no disruption, in day order: the uncontaminated natural regime."""
    disrupted = {z.day for z in disruptions}
    pool = [days[d] for d in sorted(days) if d not in disrupted]
    if not pool:
        raise ValueError("no natural days remain after excluding disruption days")
    return pool


def _sorted_natural_days(natural_days: Sequence[DayCounts], z: Disruption) -> list[DayCounts]:
    days = sorted(natural_days, key=lambda dc: dc.day)
    if any(dc.day == z.day for dc in days):
        raise ValueError(f"natural days must exclude the disruption day {z.day}")
    if len(days) == 0:
        raise ValueError("need at least one natural day")
    if len({dc.day for dc in days}) != len(days):
        raise ValueError("natural days contain duplicate day indices")
    return days


def input_variable_samples(
    natural_days: Sequence[DayCounts],
    z: Disruption,
    g: Graph,
    cfg: InterferenceConfig,
) -> tuple[SampleSet, SampleSet, SampleSet, SampleSet, SampleSet]:
    """Per-day realizations of the five input variables X1..X5 for one disruption.

    Each returned SampleSet has one row per natural day and dimension |ROI|.
    """
    days = _sorted_natural_days(natural_days, z)
    g_dis = disrupted_adjacency(g, z.roi)
    masks = np.stack([feasible_origins(g, g_dis, station, cfg.xi) for station in z.roi])
    m = len(z.roi)
    n = len(days)
    cell, origin, count = _window_scan(days, z)
    feasible = masks[cell % m, origin]
    x3 = _cell_totals(cell, count, n, m)
    x1 = _cell_totals(cell[feasible], count[feasible], n, m)
    x2 = x3 - x1
    col_means = np.mean(x3, axis=0)
    x4 = np.tile(col_means, (n, 1))
    roi_means = np.sum(x3, axis=1) / m
    x5 = np.tile(roi_means[:, None], (1, m))
    return (SampleSet(x1), SampleSet(x2), SampleSet(x3), SampleSet(x4), SampleSet(x5))


def _inputs(
    natural_days: Sequence[DayCounts], z: Disruption, g: Graph, cfg: InterferenceConfig
) -> tuple[SampleSet, SampleSet, SampleSet, SampleSet, SampleSet]:
    """X1..X5 for one disruption, computed from the natural days other than its own."""
    return input_variable_samples([dc for dc in natural_days if dc.day != z.day], z, g, cfg)


def resolve_rho(
    natural_days: Sequence[DayCounts],
    observations: Sequence[PerturbedObservation],
    g: Graph,
    cfg: InterferenceConfig,
    *,
    memo: dict[PerturbedObservation, DistanceRun] | None = None,
) -> float:
    """Median-heuristic bandwidth pooled across disruptions.

    The one kernel serves both the regression fit and the projection of
    predictions onto the rescaled-marginal basis, so the pool mixes, per
    disruption, the input rows, the observed exit vector, and the basis
    rows; the median is taken over the union of within-disruption
    pairwise distances (dimensions differ across disruptions, distances
    pool fine). It is the exact weighted median over each pool's distinct
    rows (`kernels.median_of_runs`), found without building the pooled
    distance vector.

    `memo` maps an observation (the object itself: observations compare
    by identity) to its pool's sorted distances (`kernels.distance_run`);
    a pool is built only for an observation missing from it, and added.
    An entry depends on the natural days, the graph and every field of
    `cfg` but rho, so a memo is valid only for calls that pass the same
    three; `evaluation.run_evaluation` keeps one for the folds of one run.
    The median, and so rho, is the same bits with or without a memo.
    """
    if len(observations) == 0:
        raise ValueError("need at least one observed disruption")
    memo = {} if memo is None else memo
    for obs in observations:
        if obs not in memo:
            memo[obs] = distance_run(_rho_pool(natural_days, obs, g, cfg), cfg.kernel_family)
    m = median_of_runs([memo[obs] for obs in observations])
    return rho_from_median(m, cfg.kernel_family)


def _rho_pool(
    natural_days: Sequence[DayCounts], obs: PerturbedObservation, g: Graph, cfg: InterferenceConfig
) -> np.ndarray:
    """One disruption's rows of the bandwidth pool: X1..X5, the observed vector, the basis rows."""
    x = _inputs(natural_days, obs.disruption, g, cfg)
    blocks, _ = _basis_rows(x[2].samples, obs.disruption, cfg)
    return np.vstack([*(s.samples for s in x), obs.exit_vector[None, :], *blocks])


def train(
    natural_days: Sequence[DayCounts],
    observations: Sequence[PerturbedObservation],
    g: Graph,
    cfg: InterferenceConfig,
    *,
    memo: dict[PerturbedObservation, tuple[SampleSet, ...]] | None = None,
) -> MixtureEmbeddingModel:
    """Fit the mixture-of-embeddings model over all observed disruptions.

    Every observed exit vector is a single realization, so each output
    embedding is the lone kernel atom at that vector. The natural days
    passed in are filtered per disruption so a disruption never sees its
    own day.

    `memo` maps an observation (the object itself) to its inputs X1..X5,
    which do not depend on rho; they are built only for an observation
    missing from it, and added. As with `resolve_rho`'s memo, an entry is
    valid only for calls that pass the same natural days, graph and config
    but rho; `evaluation.run_evaluation` keeps one for the folds of one
    run. The model is the same bits with or without a memo.
    """
    if len(observations) == 0:
        raise ValueError("need at least one observed disruption")
    kernel = cfg.kernel()
    memo = {} if memo is None else memo
    for obs in observations:
        if obs not in memo:
            memo[obs] = _inputs(natural_days, obs.disruption, g, cfg)
    inputs = tuple(tuple(embed(kernel, s) for s in memo[obs]) for obs in observations)
    outputs = tuple(embed(kernel, SampleSet(obs.exit_vector[None, :])) for obs in observations)
    return fit_mixture_embeddings(TrainingPairs(inputs=inputs, outputs=outputs), ridge=cfg.ridge)


def _basis_rows(
    totals: np.ndarray,
    z: Disruption,
    cfg: InterferenceConfig,
) -> tuple[list[np.ndarray], list[str]]:
    """Sample rows of each rescaled-marginal basis component, one block per label."""
    n_days, m = totals.shape
    mean_max = float(np.max(np.mean(totals, axis=0)))
    if mean_max <= 0.0:
        raise ValueError("no natural traffic at any ROI station; basis would be degenerate")
    R = cfg.rescale_levels
    C = cfg.rescale_span * mean_max / (R - 1)
    # the largest basis value; when C (R - 1) overflows, lambda_1 = 1 + 0 inf is NaN too
    if not math.isfinite((1.0 + (R - 1) * C) * float(np.max(totals))):
        raise ValueError(
            f"basis levels overflow: c = {cfg.rescale_span!r} with R = {R} and largest mean "
            f"ROI total {mean_max!r} scales ROI totals past the float range; use a smaller c"
        )
    # one allocation, so an R too large for memory fails here, before any work
    try:
        blocks = np.zeros((R * m, n_days, m))
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise MemoryError(f"no memory for the basis of R = {R} rescale levels: {exc}") from exc
    labels = []
    for r in range(1, R + 1):
        lam = 1.0 + (r - 1) * C
        for j, station in enumerate(z.roi):
            blocks[(r - 1) * m + j, :, j] = lam * totals[:, j]
            labels.append(f"r{r}_station{station}")
    return list(blocks), labels


def build_basis(x3: SampleSet, z_new: Disruption, cfg: InterferenceConfig) -> Basis:
    """Rescaled-marginal basis for the output space of a new disruption.

    `x3` is the disruption's X3, one row of ROI window totals per natural
    day (`input_variable_samples(...)[2]`). Component (r, j) holds, per
    natural day, the ROI-station-j total scaled by lambda_r and placed on
    coordinate j (all other coordinates zero), for r = 1..R with
    lambda_r = 1 + (r - 1) C and C = c * max_j mean-total / (R - 1).
    """
    blocks, labels = _basis_rows(x3.samples, z_new, cfg)
    return Basis(cfg.kernel(), [SampleSet(rows) for rows in blocks], labels)


def predict(
    model: MixtureEmbeddingModel,
    natural_days: Sequence[DayCounts],
    z_new: Disruption,
    g: Graph,
    cfg: InterferenceConfig,
    n_samples: int,
    seed: int,
) -> tuple[FittedMixture, SampleSet]:
    """Predict the perturbed exit distribution for a new disruption and sample from it."""
    if model.arity != N_TUBE_INPUTS:
        raise ValueError(f"model has arity {model.arity}, expected {N_TUBE_INPUTS}")
    kernel = cfg.kernel()
    x = _inputs(natural_days, z_new, g, cfg)
    predicted = predict_embedding(model, [embed(kernel, s) for s in x])
    basis = build_basis(x[2], z_new, cfg)
    mixture = fit_mixture_weights(predicted, basis)
    return mixture, sample_from_mixture(basis, mixture.theta, n_samples, seed)
