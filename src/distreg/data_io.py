"""File ingestion/validation and synthetic data generation.

All files are UTF-8 CSV with headers; ids, counts and minutes are
integers. The synthetic generator replaces the proprietary journey data:
it draws per-OD Poisson journey counts for natural days and produces
perturbed days by re-destining a known fraction of the journeys affected
by each disruption, so the perturbed ROI-exit distribution is a known
rescaling of the natural one and recovery can be tested sharply.

A day's journeys have one form throughout: an int64 (rows, 4) array with
columns origin, destination, t_entry, t_exit. The generator builds it,
`write_dataset` writes it as `journeys_day<N>.csv`, `load_journeys` reads
it back and checks every row in one vectorised pass, and `load_dataset`
counts each day into a `pipeline.DayCounts`. A journeys file with exactly
the header `write_dataset` writes is parsed by numpy's C reader
(`np.loadtxt`); every other file, and every file that reader refuses or
that holds a bad row, is read by the `csv` loop, which words every error.
The module also reads and writes `config.txt` and `model.json` (the
trained alpha with its config).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .network import Disruption, Graph, bfs_distance, disrupted_adjacency
from .pipeline import N_TUBE_INPUTS, DayCounts, InterferenceConfig, seed_error
from .regression import MixtureEmbeddingModel

__all__ = [
    "SyntheticScenario",
    "SyntheticDataset",
    "GroundTruthRecord",
    "generate_synthetic",
    "fmt_float",
    "write_csv",
    "write_dataset",
    "load_scenario",
    "load_journeys",
    "load_journeys_dir",
    "parse_disruption",
    "load_disruptions",
    "load_graph",
    "load_ground_truth",
    "load_dataset",
    "CONFIG_FIELDS",
    "RETIRED_KEYS",
    "parse_config",
    "write_config",
    "config_to_dict",
    "config_from_dict",
    "write_model",
    "load_model",
    "DatasetBundle",
]

_TOPOLOGIES = ("path", "cycle", "grid", "erdos-renyi")
_JOURNEY_FIELDS = ("origin", "destination", "t_entry", "t_exit")
_DISRUPTION_FIELDS = ("day", "t_start", "t_end", "roi")


@dataclass(frozen=True)
class SyntheticScenario:
    """Generator settings: graph shape, demand rates, and disruption ground truth."""

    topology: str
    n_nodes: int
    days: int
    n_disruptions: int
    phi: float
    er_p: float = 0.3
    roi_links: int = 1
    rate_low: float = 0.5
    rate_high: float = 2.0
    t_min: int = 0
    t_max: int = 239
    window_min: int = 45
    window_max: int = 120
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "str":
                ok, expected = isinstance(value, str), "a string"
            elif f.type == "int":
                ok, expected = isinstance(value, int) and not isinstance(value, bool), "an integer"
            else:  # an int compares with a float exactly, so a huge one cannot overflow
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
                ok, expected = ok and abs(value) <= sys.float_info.max, "a finite number"
            if not ok:
                raise ValueError(f"scenario {f.name!r} must be {expected}, got {value!r}")
        if (error := seed_error(self.seed)) is not None:
            raise ValueError(f"scenario 'seed' {error}")
        if self.topology not in _TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; expected one of {_TOPOLOGIES}")
        if self.n_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n_nodes}")
        if self.days < 2:
            raise ValueError(f"need at least 2 days, got {self.days}")
        if self.n_disruptions < 1:
            raise ValueError(f"need at least 1 disruption, got {self.n_disruptions}")
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError(f"phi must be in [0, 1], got {self.phi}")
        if self.rate_low < 0 or self.rate_high < self.rate_low:
            raise ValueError(f"invalid rate range [{self.rate_low}, {self.rate_high}]")
        if self.roi_links < 1:
            raise ValueError(f"need roi_links >= 1, got {self.roi_links}")
        if not (0 <= self.t_min <= self.t_max):
            raise ValueError(f"invalid time window [{self.t_min}, {self.t_max}]")
        if not (1 <= self.window_min <= self.window_max <= self.t_max - self.t_min + 1):
            raise ValueError(
                f"invalid disruption window bounds [{self.window_min}, {self.window_max}]"
            )


@dataclass(frozen=True)
class GroundTruthRecord:
    """Per-disruption generation truth: reroute fraction and implied ROI-exit scale."""

    disruption_id: int
    phi: float
    scale: float


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    """A generated dataset; each day's journeys are an int64 (rows, 4) array
    of origin, destination, t_entry, t_exit (the layout of `load_journeys`)."""

    graph: Graph
    journeys: dict[int, np.ndarray]
    disruptions: list[Disruption]
    ground_truth: list[GroundTruthRecord]
    t_window: tuple[int, int]


@dataclass(frozen=True, eq=False)
class DatasetBundle:
    """Loaded on-disk dataset, with journeys aggregated per day.

    `sources[i]` names where `disruptions[i]` was read, as
    `disruptions.csv line N`, for errors found after loading.
    """

    graph: Graph
    days: dict[int, DayCounts]
    disruptions: list[Disruption]
    t_window: tuple[int, int]
    sources: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.sources) != len(self.disruptions):
            raise ValueError(
                f"sources must name each of the {len(self.disruptions)} disruptions, "
                f"got {len(self.sources)}"
            )


def _build_graph(s: SyntheticScenario, rng: np.random.Generator) -> Graph:
    n = s.n_nodes
    edges: list[tuple[int, int]] = []
    if s.topology == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif s.topology == "cycle":
        edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    elif s.topology == "grid":
        rows = max(1, int(np.floor(np.sqrt(n))))
        cols = -(-n // rows)
        for i in range(n):
            r, c = divmod(i, cols)
            if c + 1 < cols and i + 1 < n:
                edges.append((i, i + 1))
            if (r + 1) * cols + c < n:
                edges.append((i, (r + 1) * cols + c))
    else:  # erdos-renyi
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < s.er_p:
                    edges.append((i, j))
    g = Graph.from_edges(n, edges)
    if np.any(~np.isfinite(bfs_distance(g, 0))):
        raise ValueError(
            f"{s.topology} graph with {n} nodes is disconnected; demand pairs would be unreachable"
        )
    return g


def _natural_day_journeys(
    rng: np.random.Generator, rates: np.ndarray, t_min: int, t_max: int
) -> np.ndarray:
    counts = rng.poisson(rates)
    origins, destinations = np.nonzero(counts)  # row-major, matching draw order
    per_pair = counts[origins, destinations]
    # one (t_exit, t_entry <= t_exit) scalar draw pair per journey, in row order,
    # read off the generator's words in one pass (see `_journey_times`)
    times = _journey_times(rng, int(per_pair.sum()), t_min, t_max)
    journeys = np.empty((len(times), 4), dtype=np.int64)
    journeys[:, 0] = np.repeat(origins, per_pair)
    journeys[:, 1] = np.repeat(destinations, per_pair)
    journeys[:, 2:] = times
    return journeys


# widest t_exit range (t_max - t_min + 1 values) drawn from the generator's
# words in one pass; a wider one redraws too often, so it is drawn call by call
_WORD_RANGE = 1 << 16
_LOW32 = np.uint64(0xFFFFFFFF)


def _journey_times(rng: np.random.Generator, count: int, t_min: int, t_max: int) -> np.ndarray:
    """(count, 2) int64 table of (t_entry, t_exit), drawn as `_scalar_journey_times` draws it.

    Each journey is the scalar pair t_exit = rng.integers(t_min, t_max + 1),
    then t_entry = rng.integers(t_min, t_exit + 1), in row order. This
    reproduces that stream, and leaves `rng` in the state it would, for
    any numpy bit generator: for a range r < 2**32 - 1, numpy takes 32-bit
    words, the draws of `rng.integers(0, 2**32, dtype=np.uint32)`, and maps
    a word w to (w * (r + 1)) >> 32, drawing again while the low 32 bits of
    the product are below (2**32 - (r + 1)) % (r + 1) (Lemire 2019). A zero
    range draws no word, so a journey with t_exit == t_min takes one word
    and any other two; the journeys' first words follow from that rule
    without a look-ahead. The words up to the first journey that would
    draw again are read in one vectorised pass; that journey is drawn
    call by call, and the pass resumes after it. A range of `_WORD_RANGE`
    values or more is drawn call by call throughout, and so is a t_max
    beyond int64, which numpy refuses with its own message.
    """
    if t_max - t_min >= _WORD_RANGE or t_max >= 2**63:
        return _scalar_journey_times(rng, count, t_min, t_max)
    times = np.full((count, 2), t_min, dtype=np.int64)
    done = 0 if t_max > t_min else count  # a zero range draws nothing
    while done < count:
        done += _journey_words_pass(rng, times[done:], t_min, t_max - t_min)
        if done < count:
            times[done] = _scalar_journey_times(rng, 1, t_min, t_max)
            done += 1
    return times


def _scalar_journey_times(
    rng: np.random.Generator, count: int, t_min: int, t_max: int
) -> np.ndarray:
    """(count, 2) int64 table of one scalar (t_exit, t_entry <= t_exit) draw pair per row."""
    integers = rng.integers
    times = []
    for _ in range(count):
        t_exit = int(integers(t_min, t_max + 1))
        times.append((int(integers(t_min, t_exit + 1)), t_exit))
    return np.array(times, dtype=np.int64).reshape(-1, 2)


def _journey_words_pass(rng: np.random.Generator, times: np.ndarray, t_min: int, r: int) -> int:
    """Fill the leading rows of `times` from the generator's 32-bit words, up to
    the first journey whose draw would be redone; return how many were filled.

    `rng` is left as the scalar draws of those journeys would leave it.
    """
    saved = rng.bit_generator.state
    # two words per journey at most
    words = rng.integers(0, 1 << 32, size=2 * len(times), dtype=np.uint32).astype(np.uint64)

    span = np.uint64(r + 1)
    exit_m = words * span  # every word read as a t_exit draw; below 2**48
    # t_exit == t_min: the next word starts a journey
    zero = exit_m <= _LOW32
    position = np.arange(len(words))
    reset = np.zeros(len(words), dtype=np.int64)
    reset[1:][zero[:-1]] = position[1:][zero[:-1]]
    starts = np.flatnonzero((position - np.maximum.accumulate(reset)) % 2 == 0)[: len(times)]

    m = exit_m[starts]
    exit_off = m >> np.uint64(32)
    # the word after each start read as its t_entry draw; at t_exit == t_min its
    # range is 0, so the product stays below 2**32 and its rejection bound is 0
    entry_span = exit_off + np.uint64(1)
    entry_m = words[starts + 1] * entry_span  # the n-th start is at most word 2n - 2
    redraw = (m & _LOW32) < (np.uint64(1 << 32) - span) % span
    redraw |= (entry_m & _LOW32) < (np.uint64(1 << 32) - entry_span) % entry_span
    done = int(np.argmax(redraw)) if redraw.any() else len(starts)
    times[:done, 0] = entry_m[:done] >> np.uint64(32)
    times[:done, 1] = exit_off[:done]
    times[:done] += t_min

    # draw again only the words those journeys read, so numpy keeps any unread half itself
    used = int(starts[done - 1]) + 1 + bool(exit_off[done - 1]) if done else 0
    rng.bit_generator.state = saved
    rng.integers(0, 1 << 32, size=used, dtype=np.uint32)
    return done


def generate_synthetic(s: SyntheticScenario) -> SyntheticDataset:
    """Generate natural days, disruptions, perturbed days, and the ground truth.

    Perturbed day rule: a journey is affected when its origin or
    destination is in the ROI or when the disruption strictly lengthens
    its shortest path; an affected journey exiting inside the disruption
    window is re-destined, with probability phi, to the nearest open
    ROI-adjacent station. Journeys are never created or destroyed, so
    per-day totals are conserved and ROI window exits scale by (1 - phi)
    in expectation.
    """
    rng = np.random.default_rng(s.seed)
    g = _build_graph(s, rng)
    n = s.n_nodes
    rates = rng.uniform(s.rate_low, s.rate_high, (n, n))

    journeys: dict[int, np.ndarray] = {}
    for day in range(s.days):
        journeys[day] = _natural_day_journeys(rng, rates, s.t_min, s.t_max)

    all_edges = g.edges()
    if s.roi_links > len(all_edges):
        raise ValueError(f"roi_links {s.roi_links} exceeds edge count {len(all_edges)}")
    dist_nat = np.stack([bfs_distance(g, v) for v in range(n)])

    disruptions: list[Disruption] = []
    ground_truth: list[GroundTruthRecord] = []
    for k in range(s.n_disruptions):
        day = s.days + k
        picked = rng.choice(len(all_edges), size=s.roi_links, replace=False)
        roi = tuple(sorted({v for i in picked for v in all_edges[int(i)]}))
        t_start = int(rng.integers(s.t_min, s.t_max - s.window_min + 2))
        duration = int(rng.integers(s.window_min, s.window_max + 1))
        t_end = min(t_start + duration - 1, s.t_max)
        z = Disruption(day=day, t_start=t_start, t_end=t_end, roi=roi)
        disruptions.append(z)

        g_dis = disrupted_adjacency(g, roi)
        dist_dis = np.stack([bfs_distance(g_dis, v) for v in range(n)])
        journeys[day] = perturbed = _natural_day_journeys(rng, rates, s.t_min, s.t_max)
        o, d, t_exit = perturbed[:, 0], perturbed[:, 1], perturbed[:, 3]
        affected = np.isin(o, roi) | np.isin(d, roi) | (dist_dis[o, d] > dist_nat[o, d])
        in_window = (t_start <= t_exit) & (t_exit <= t_end)
        # one phi draw per affected in-window journey, in row order
        candidates = np.flatnonzero(affected & in_window)
        moved = candidates[rng.random(candidates.size) < s.phi]
        # to the open ROI-adjacent station nearest the destination, the lowest id on ties
        if moved.size:
            opens = np.setdiff1d(np.flatnonzero(g.adjacency[list(roi)].any(axis=0)), roi)
            if not opens.size:
                raise ValueError(f"ROI {roi} has no open adjacent station to reroute to")
            perturbed[moved, 1] = opens[np.argmin(dist_nat[np.ix_(d[moved], opens)], axis=1)]
        ground_truth.append(GroundTruthRecord(disruption_id=k, phi=s.phi, scale=1.0 - s.phi))

    return SyntheticDataset(
        graph=g,
        journeys=journeys,
        disruptions=disruptions,
        ground_truth=ground_truth,
        t_window=(s.t_min, s.t_max),
    )


# ---------------------------------------------------------------------------
# writers


def fmt_float(x) -> str:
    """A float as text in every file distreg writes: the shortest repr that reads back exactly."""
    return repr(float(x))


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write `header`, then `rows`, as CSV lines ending in "\n": the one dialect of
    every CSV file distreg writes. Cells go out as given, so callers format
    floats with `fmt_float`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset(
    ds: SyntheticDataset, out_dir: Path | str, config: InterferenceConfig | None = None
) -> None:
    """Write the dataset's CSV files (and config.txt if given) into out_dir.

    `load_dataset` reads every journeys*.csv in a directory, so a journeys
    file this dataset would not overwrite, say from an earlier and longer
    scenario, is refused with a ValueError before anything is written;
    nothing is deleted.
    """
    out = Path(out_dir)
    names = {f"journeys_day{day}.csv" for day in ds.journeys}
    stale = sorted(p.name for p in out.glob("journeys*.csv") if p.name not in names)
    if stale:
        raise ValueError(
            f"{out / stale[0]}: journeys file not part of this dataset ({len(stale)} such in "
            f"{out}); load_dataset would read it, so remove it or write to another directory"
        )
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "graph.csv", ["u", "v"], ds.graph.edges())
    for day in sorted(ds.journeys):
        write_csv(out / f"journeys_day{day}.csv", _JOURNEY_FIELDS, ds.journeys[day].tolist())
    write_csv(
        out / "disruptions.csv",
        _DISRUPTION_FIELDS,
        ([z.day, z.t_start, z.t_end, ";".join(str(r) for r in z.roi)] for z in ds.disruptions),
    )
    write_csv(
        out / "ground_truth.csv",
        ["disruption_id", "phi", "scale"],
        ([r.disruption_id, fmt_float(r.phi), fmt_float(r.scale)] for r in ds.ground_truth),
    )
    if config is not None:
        write_config(out / "config.txt", config)


# ---------------------------------------------------------------------------
# loaders


@contextmanager
def _open_csv(path: Path, required: Sequence[str]) -> Iterator[tuple[list[str], Iterator]]:
    """Open a CSV file and yield its header, checked to name every required
    column, and its non-blank rows as (line, fields), where line is the one
    the row starts on (a quoted field may span lines)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise ValueError(f"{path.name}: missing required columns {missing} (header {header})")
        yield header, _numbered_rows(reader)


def _numbered_rows(reader) -> Iterator[tuple[int, list[str]]]:
    end = reader.line_num
    for row in reader:
        start, end = end + 1, reader.line_num
        if row:
            yield start, row


def _read_rows(path: Path, required: Sequence[str]) -> list[tuple[str, dict[str, str]]]:
    """Every non-blank row as (where, {column: text}), where names the file and line."""
    with _open_csv(path, required) as (header, rows):
        located = []
        for line, row in rows:
            where = f"{path.name} line {line}"
            located.append((where, _fields(header, row, where)))
        return located


def _fields(header: list[str], row: list[str], where: str) -> dict[str, str]:
    """A row as {column: text}; a row with more fields than the header is refused.
    A short row's missing fields are absent, and read as blank."""
    if len(row) > len(header):
        raise ValueError(f"{where}: {len(row)} fields, header has {len(header)}")
    return dict(zip(header, row))


_ECHO_CHARS = 40


def _echo(raw: str) -> str:
    """A field's text for an error message, cut after 40 characters: a stray quote
    can make one field of the rest of a file."""
    if len(raw) <= _ECHO_CHARS:
        return repr(raw)
    return f"{raw[:_ECHO_CHARS]!r}... ({len(raw)} characters)"


def _clip(text: str) -> str:
    """`text` for an error message, cut after 40 characters like `_echo`'s field:
    a model.json value can be a list of any length."""
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


def _int_field(row: dict[str, str], key: str, where: str) -> int:
    raw = (row.get(key) or "").strip()
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{where}: bad integer {key}={_echo(raw)}") from None


def _float_field(row: dict[str, str], key: str, where: str) -> float:
    raw = (row.get(key) or "").strip()
    try:
        value = float(raw)
    except ValueError:
        value = math.nan  # refused below, with the text as read
    if not math.isfinite(value):
        raise ValueError(f"{where}: bad number {key}={_echo(raw)}")
    return value


def load_journeys(path: Path | str, n_nodes: int | None = None) -> dict[int, np.ndarray]:
    """Read one journeys CSV: per day, an int64 (rows, 4) array in file order.

    The columns are origin, destination, t_entry, t_exit; the day comes
    from a `day` column or else the filename's last number. A file that
    `write_dataset` could have written is parsed by numpy's C reader
    (`_journeys_by_loadtxt`); any other file, and any file with a bad row,
    goes through the `csv` loop (`_journeys_by_csv`), which alone words the
    errors: the first bad row is named by file and the line it starts on.
    """
    path = Path(path)
    journeys = _journeys_by_loadtxt(path, n_nodes)
    return _journeys_by_csv(path, n_nodes) if journeys is None else journeys


_JOURNEY_HEADER = ",".join(_JOURNEY_FIELDS)


def _journeys_by_loadtxt(path: Path, n_nodes: int | None) -> dict[int, np.ndarray] | None:
    """`load_journeys` of a file whose header is exactly `origin,destination,t_entry,t_exit`,
    by `np.loadtxt`, or None where `_journeys_by_csv` must read it instead.

    None for any other header, a filename without a day number, text that
    does not decode, no data rows (`np.loadtxt` would warn), anything
    `np.loadtxt` refuses, a table not 4 columns wide (rows all 3 fields
    long load as 3 columns) and a row that fails a journey check. Every
    table returned is the one `_journeys_by_csv` reads: where `np.loadtxt`
    reads a field as an int64, `int()` reads it as the same number. Older
    numpy reads a float field such as `2.7` into an int64 column by
    truncation, with only a DeprecationWarning; that warning is raised here,
    so the file goes to the loop, which refuses the field. With
    `comments=None`, `#` is part of a field, which both refuse. Quotes,
    `1_000`, fullwidth digits, values beyond int64 and whitespace-only
    lines all reach the loop.
    """
    days = re.findall(r"(\d+)", path.stem)
    if not days:
        return None
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:  # the loop reports it for the line it reads
        return None
    header, _, rows = text.partition("\n")
    if header.removesuffix("\r") != _JOURNEY_HEADER or not rows.strip("\r\n"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # "integer via a float"
            table = np.loadtxt(
                io.StringIO(rows), dtype=np.int64, delimiter=",", ndmin=2, comments=None
            )
    except (ValueError, DeprecationWarning):
        return None
    if table.shape[1] != len(_JOURNEY_FIELDS) or _faulty_journeys(table, n_nodes).any():
        return None
    return {int(days[-1]): table}


def _journeys_by_csv(path: Path, n_nodes: int | None) -> dict[int, np.ndarray]:
    """`load_journeys` by the `csv` module: each row parsed as it is read, then
    all checked in one pass (`_check_journeys`)."""
    with _open_csv(path, _JOURNEY_FIELDS) as (header, records):
        has_day = "day" in header
        if not has_day:
            matches = re.findall(r"(\d+)", path.stem)
            if not matches:
                raise ValueError(f"{path.name}: no `day` column and no day number in the filename")
            day_from_name = int(matches[-1])
        names = ("day", *_JOURNEY_FIELDS) if has_day else _JOURNEY_FIELDS
        column = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
        idx = [column[name] for name in names]
        rows: list[list[int]] = []
        lines: list[int] = []
        for line, row in records:
            try:
                if len(row) > len(header):
                    raise ValueError("too many fields")  # worded by `_fields` below
                rows.append([int(row[i]) for i in idx])
            except (ValueError, IndexError):  # name the first bad field (a short row's are blank)
                _check_journeys(path, rows, lines, n_nodes, len(names))  # an earlier fault first
                where = f"{path.name} line {line}"
                by_name = _fields(header, row, where)
                rows.append([_int_field(by_name, name, where) for name in names])
            lines.append(line)
    table = _check_journeys(path, rows, lines, n_nodes, len(names))
    cols = table[:, -4:]
    if not has_day:
        return {day_from_name: cols} if len(cols) else {}
    day_col = table[:, 0]
    return {day: cols[day_col == day] for day in dict.fromkeys(day_col.tolist())}


def _check_journeys(
    path: Path, rows: list[list[int]], lines: list[int], n_nodes: int | None, width: int
) -> np.ndarray:
    """The parsed rows as a (rows, width) int64 table, once every row passes the journey checks.

    A row is refused for a negative id or time, t_exit before t_entry, a
    station id not below `n_nodes` (when given), or a value outside int64;
    the first such row is named by the file line it starts on, `lines[k]`
    for `rows[k]`.
    """
    try:
        table = np.array(rows, dtype=np.int64).reshape(-1, width)
    except OverflowError:  # check as Python ints, then refuse what int64 cannot hold
        table = np.array(rows, dtype=object).reshape(-1, width)
    bad = _faulty_journeys(table, n_nodes)
    if bad.any():
        k = int(np.argmax(bad))
        names = ("day", *_JOURNEY_FIELDS)[-width:]
        row = dict(zip(names, table[k].tolist()))
        raise _bad_journey(row, n_nodes, f"{path.name} line {lines[k]}")
    return table.astype(np.int64, copy=False)


def _faulty_journeys(table: np.ndarray, n_nodes: int | None) -> np.ndarray:
    """Which rows of a journey table, int64 or of Python ints, fail a journey check."""
    o, d, te, tx = table[:, -4:].T
    bad = (o < 0) | (d < 0) | (te < 0) | (tx < te)
    if n_nodes is not None:
        bad |= (o >= n_nodes) | (d >= n_nodes)
    if table.dtype == object:
        bad |= ((table < -(2**63)) | (table >= 2**63)).any(axis=1)
    return bad


def _bad_journey(row: dict[str, int], n_nodes: int | None, where: str) -> ValueError:
    """The error for a parsed journey row that failed a check, in the order they are made."""
    o, d, te, tx = (row[name] for name in _JOURNEY_FIELDS)
    if o < 0 or d < 0 or te < 0:
        return ValueError(f"{where}: negative id or time")
    if tx < te:
        return ValueError(f"{where}: t_exit {tx} earlier than t_entry {te}")
    if n_nodes is not None and max(o, d) >= n_nodes:
        return ValueError(f"{where}: station ids ({o}, {d}) out of range for {n_nodes} nodes")
    key, value = next((key, v) for key, v in row.items() if not -(2**63) <= v < 2**63)
    return ValueError(f"{where}: {key}={value} exceeds int64")


def load_journeys_dir(data_dir: Path | str, n_nodes: int | None = None) -> dict[int, np.ndarray]:
    """load_journeys over every journeys*.csv of a directory, in name order."""
    data_dir = Path(data_dir)
    files = sorted(data_dir.glob("journeys*.csv"))
    if not files:
        raise ValueError(f"no journeys*.csv files in {data_dir}")
    parts: dict[int, list[np.ndarray]] = {}
    for f in files:
        for day, cols in load_journeys(f, n_nodes).items():
            parts.setdefault(day, []).append(cols)
    return {day: np.concatenate(p) for day, p in parts.items()}


def parse_disruption(row: dict[str, str], where: str) -> Disruption:
    """One disruption from the text of its day, t_start, t_end and roi (`a;b;...`)
    fields, as in a disruptions.csv row; every fault is prefixed with `where`."""
    roi_raw = (row.get("roi") or "").strip()
    try:
        roi = tuple(int(tok) for tok in roi_raw.split(";") if tok != "")
    except ValueError:
        raise ValueError(f"{where}: bad roi list {_echo(roi_raw)}") from None
    day, t_start, t_end = (_int_field(row, key, where) for key in _DISRUPTION_FIELDS[:3])
    try:
        return Disruption(day=day, t_start=t_start, t_end=t_end, roi=roi)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_disruptions(path: Path | str) -> list[Disruption]:
    return [z for _, z in _located_disruptions(Path(path))]


def _located_disruptions(path: Path) -> list[tuple[str, Disruption]]:
    """Each disruption of a disruptions.csv with where it was read (`disruptions.csv line N`)."""
    rows = _read_rows(path, _DISRUPTION_FIELDS)
    return [(where, parse_disruption(row, where)) for where, row in rows]


def load_graph(path: Path | str) -> Graph:
    """Edge-list CSV (`u,v` header). Node count is max id + 1; self/duplicate edges rejected."""
    path = Path(path)
    edges: set[tuple[int, int]] = set()  # as (lower id, higher id)
    for where, row in _read_rows(path, ["u", "v"]):
        u, v = (_int_field(row, name, where) for name in ("u", "v"))
        if u < 0 or v < 0:
            raise ValueError(f"{where}: negative node id")
        if u == v:
            raise ValueError(f"{where}: self edge ({u}, {v})")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise ValueError(f"{where}: duplicate edge ({u}, {v})")
        edges.add(key)
    if not edges:
        raise ValueError(f"{path.name}: empty edge list")
    return Graph.from_edges(max(v for _, v in edges) + 1, edges)


def load_ground_truth(path: Path | str) -> list[GroundTruthRecord]:
    """Ground-truth CSV as the generator writes it: one row per disruption id,
    phi in [0, 1] and scale = 1 - phi (within 1e-12, so `0.8,0.2` loads)."""
    out = []
    seen = set()
    for where, row in _read_rows(Path(path), ["disruption_id", "phi", "scale"]):
        k = _int_field(row, "disruption_id", where)
        phi, scale = _float_field(row, "phi", where), _float_field(row, "scale", where)
        if k in seen:
            raise ValueError(f"{where}: duplicate disruption_id={k}")
        if not 0.0 <= phi <= 1.0:
            raise ValueError(f"{where}: phi={phi!r} is outside [0, 1]")
        if abs(scale - (1.0 - phi)) > 1e-12:
            raise ValueError(f"{where}: scale={scale!r} is not 1 - phi = {1.0 - phi!r}")
        seen.add(k)
        out.append(GroundTruthRecord(disruption_id=k, phi=phi, scale=scale))
    return out


def load_scenario(path: Path | str) -> SyntheticScenario:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("scenario file must hold a JSON object")
    known = set(SyntheticScenario.__dataclass_fields__)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown scenario keys: {unknown}")
    try:
        return SyntheticScenario(**raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{Path(path).name}: bad scenario: {exc}") from None


def load_dataset(data_dir: Path | str) -> DatasetBundle:
    """Load graph + journeys + disruptions from a directory and aggregate per day.

    The observation window is inferred: it starts at 0 and ends at the
    latest journey exit or disruption end seen in the data.
    """
    data_dir = Path(data_dir)
    graph = load_graph(data_dir / "graph.csv")
    journeys = load_journeys_dir(data_dir, graph.n_nodes)
    disruptions_path = data_dir / "disruptions.csv"
    located = _located_disruptions(disruptions_path) if disruptions_path.exists() else []
    disruptions = [z for _, z in located]
    t_hi = max(
        [0, *(int(cols[:, 3].max()) for cols in journeys.values()), *(z.t_end for z in disruptions)]
    )
    t_window = (0, t_hi)
    days = {
        day: DayCounts(day=day, origin=cols[:, 0], destination=cols[:, 1], t_exit=cols[:, 3])
        for day, cols in sorted(journeys.items())
    }
    for where, z in located:
        try:
            z.validate_against(graph.n_nodes, *t_window)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return DatasetBundle(
        graph=graph,
        days=days,
        disruptions=disruptions,
        t_window=t_window,
        sources=tuple(where for where, _ in located),
    )


# ---------------------------------------------------------------------------
# config and model files


# file key (config.txt and the "config" object of model.json) -> InterferenceConfig
# field, in the order write_config writes them
CONFIG_FIELDS = {
    "kernel.family": "kernel_family",
    "kernel.rho": "rho",
    "xi": "xi",
    "R": "rescale_levels",
    "c": "rescale_span",
    "ridge": "ridge",
    "seed": "seed",
}

# keys of earlier versions -> the one value still accepted (None: any value).
# A config.txt line or model.json entry with that value is skipped; any other
# value is refused, since this version would build something else from it.
RETIRED_KEYS = {"beta": None, "I": N_TUBE_INPUTS, "g_convention": "inverted", "x5_mode": "mean"}
# a refused (key, value) whose features this version builds from other settings
_RETIRED_EQUIVALENTS = {("g_convention", "paper"): "xi = 1"}


def _field_type(field: str) -> tuple[type, bool]:
    """A field's value type and whether it may be None (`auto`), read off its default."""
    default = InterferenceConfig.__dataclass_fields__[field].default
    return (float, True) if default is None else (type(default), False)


def _field_error(field: str, value) -> str | None:
    """InterferenceConfig's objection to one field's value, if any (its checks are per field)."""
    try:
        InterferenceConfig(**{field: value})
    except ValueError as exc:
        return str(exc)
    return None


def _retired_error(key: str, value) -> str | None:
    """Why a retired key's value is refused, or None if it is the one still accepted."""
    accepted = RETIRED_KEYS[key]
    if accepted is None or value in (accepted, str(accepted)):
        return None
    error = f"{key} = {_clip(str(value))}: retired key, only {key} = {accepted} is accepted"
    equivalent = _RETIRED_EQUIVALENTS.get((key, str(value)))
    if equivalent is not None:
        error += f"; {equivalent} builds the same features as {value}"
    return error


def write_config(path: Path | str, cfg: InterferenceConfig) -> None:
    lines = (f"{key} = {'auto' if v is None else v}" for key, v in config_to_dict(cfg).items())
    Path(path).write_text("\n".join(lines) + "\n")


def parse_config(path: Path | str) -> InterferenceConfig:
    """Flat key-value config: `key = value` lines, `#` comments, `auto` for rho/ridge.

    Files of earlier versions still load: a line of a retired key (see
    RETIRED_KEYS) holding its accepted value is skipped.
    """
    path = Path(path)
    seen: set[str] = set()
    values: dict[str, object] = {}
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{path.name} line {ln}"
        if "=" not in stripped:
            raise ValueError(f"{where}: expected `key = value`, got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_FIELDS and key not in RETIRED_KEYS:
            raise ValueError(f"{where}: unknown config key {key!r}")
        if key in seen:
            raise ValueError(f"{where}: duplicate config key {key!r}")
        seen.add(key)
        if key in RETIRED_KEYS:
            error = _retired_error(key, value)
            if error is not None:
                raise ValueError(f"{where}: {error}")
            continue
        field = CONFIG_FIELDS[key]
        kind, optional = _field_type(field)
        try:
            values[field] = None if optional and value == "auto" else kind(value)
        except ValueError:
            raise ValueError(f"{where}: bad {key} value {value!r}") from None
        error = _field_error(field, values[field])
        if error is not None:
            raise ValueError(f"{where}: bad {key} value {value!r}: {error}")
    return InterferenceConfig(**values)


_JSON_TYPES = {float: "a number", int: "an integer", str: "a string"}


def config_to_dict(cfg: InterferenceConfig) -> dict:
    """The "config" object of model.json: every file key, with null for `auto`."""
    return {key: getattr(cfg, field) for key, field in CONFIG_FIELDS.items()}


def config_from_dict(raw: dict) -> InterferenceConfig:
    """Inverse of config_to_dict; every key must be present with a value of its JSON type.

    A retired key (see RETIRED_KEYS) must hold its accepted value; other
    keys outside the table are ignored.
    """
    for key in RETIRED_KEYS:
        error = _retired_error(key, raw[key]) if key in raw else None
        if error is not None:
            raise ValueError(f"model config {key!r}: {error}")
    values = {}
    for key, field in CONFIG_FIELDS.items():
        if key not in raw:
            raise ValueError(f"model config is missing {key!r}")
        value = raw[key]
        kind, optional = _field_type(field)
        numbers = (int, float) if kind is float else kind
        if value is None and optional:
            values[field] = None
        elif isinstance(value, numbers) and not isinstance(value, bool):
            values[field] = kind(value)
        else:
            expected = _JSON_TYPES[kind] + (" or null" if optional else "")
            raise ValueError(f"model config {key!r} must be {expected}, got {_clip(repr(value))}")
        error = _field_error(field, values[field])
        if error is not None:
            raise ValueError(f"model config {key!r}: {error}")
    return InterferenceConfig(**values)


def write_model(path: Path | str, model: MixtureEmbeddingModel, cfg: InterferenceConfig) -> None:
    """model.json: the trained alpha and the config it was trained with (`config_to_dict`)."""
    raw = {"alpha": [float(a) for a in model.alpha], "config": config_to_dict(cfg)}
    Path(path).write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")


def load_model(path: Path | str) -> tuple[MixtureEmbeddingModel, InterferenceConfig]:
    """Inverse of write_model; every fault is prefixed with the file name."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"model file must hold a JSON object, got {type(raw).__name__}")
        config, alpha = raw.get("config"), raw.get("alpha")
        if not isinstance(config, dict):
            raise ValueError(f"model \"config\" must be a JSON object, got {_clip(repr(config))}")
        if not isinstance(alpha, list) or any(type(a) not in (int, float) for a in alpha):
            raise ValueError(f"model \"alpha\" must be a list of numbers, got {_clip(repr(alpha))}")
        return MixtureEmbeddingModel(alpha=np.array(alpha)), config_from_dict(config)
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None
