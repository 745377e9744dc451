"""Demand series, closeness/period/trend windowing, and synthetic cities.

On-disk format is deliberately plain: one CSV per matrix plus a JSON manifest
that names the files, the grid shape, and the train/val/test target-index
ranges.  The synthetic generator replaces the proprietary ride-hailing data
with a seeded, fully reproducible city whose temporal drift is controllable.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import (
    RelationGraph,
    build_neighborhood,
    build_poi_similarity,
    build_road_connectivity,
)
from .jsonio import checked, prefixed, read_json

MINUTES_PER_DAY = 1440

# input window layout: three most recent intervals, same time yesterday,
# same time last week
WINDOW_OFFSETS = ("t-1", "t-2", "t-3", "t-P", "t-W")

# target-index ranges a manifest names, in time order
SPLIT_NAMES = ("train", "val", "test")


def intervals_per_day(interval_minutes: int) -> int:
    """The one rule for an interval length: a positive number of minutes that
    divides a day.  Returns the intervals per day."""
    if interval_minutes < 1 or MINUTES_PER_DAY % interval_minutes:
        raise ValueError(f"interval_minutes must be positive and divide a day of "
                         f"{MINUTES_PER_DAY} minutes, got {interval_minutes!r}")
    return MINUTES_PER_DAY // interval_minutes


@dataclass
class DemandSeries:
    """Nonnegative |V| x T observation matrix with interval metadata."""

    values: np.ndarray
    interval_minutes: int = 30

    def __post_init__(self):
        # every sample reads its window from these values, so the series
        # keeps its own read-only copy
        self.values = np.array(self.values, dtype=float)
        self.values.setflags(write=False)
        if self.values.ndim != 2:
            raise ValueError(f"demand must be |V| x T, got shape {self.values.shape}")
        intervals_per_day(self.interval_minutes)
        valid = (self.values >= 0.0) & (self.values < np.inf)  # NaN fails both
        if not valid.all():
            row, col = np.argwhere(~valid)[0]
            raise ValueError(f"demand values must be finite and nonnegative, "
                             f"row {row} holds {float(self.values[row, col])!r}")
        if self.values.shape[1] < self.week_intervals:
            raise ValueError(
                f"series of {self.values.shape[1]} intervals is shorter than one week "
                f"({self.week_intervals} intervals)"
            )

    @property
    def vertex_count(self) -> int:
        return self.values.shape[0]

    @property
    def day_intervals(self) -> int:
        return intervals_per_day(self.interval_minutes)

    @property
    def week_intervals(self) -> int:
        return 7 * self.day_intervals


@dataclass(frozen=True)
class Sample:
    """One training example: the target interval ``target_index`` of a
    series.  Its input window and target are read from the series whenever
    they are used, so a sample copies no demand value."""

    series: DemandSeries
    target_index: int

    def __post_init__(self):
        # the window reads a week back; an earlier index would wrap around
        week, total = self.series.week_intervals, self.series.values.shape[1]
        if not week <= self.target_index < total:
            raise ValueError(f"target index {self.target_index} has no sample "
                             f"(valid range [{week}, {total - 1}])")

    @property
    def input(self) -> np.ndarray:
        """(V, 5) window gathered from the series on each read, columns
        ordered per WINDOW_OFFSETS."""
        t, day = self.target_index, self.series.day_intervals
        return self.series.values[:, (t - 1, t - 2, t - 3, t - day, t - 7 * day)]

    @property
    def target(self) -> np.ndarray:
        """(V, 1) read-only view of the target interval."""
        return self.series.values[:, self.target_index : self.target_index + 1]


def make_windows(series: DemandSeries) -> list:
    """One sample per target index from the first index with a full week of
    history; inputs only ever look backward."""
    week = series.week_intervals
    total = series.values.shape[1]
    if total <= week:
        raise ValueError(
            f"need more than {week} intervals to window with trend, got {total}"
        )
    return [Sample(series, t) for t in range(week, total)]


def split_dataset(samples, train_range, val_range, test_range):
    """Partition samples by target index into three ordered, disjoint
    half-open ranges [lo, hi)."""
    ranges = [tuple(train_range), tuple(val_range), tuple(test_range)]
    for lo, hi in ranges:
        if lo > hi:
            raise ValueError(f"range [{lo}, {hi}) is inverted")
    for (_, prev_hi), (next_lo, _) in zip(ranges, ranges[1:]):
        if next_lo < prev_hi:
            raise ValueError(f"ranges overlap or are out of order: {ranges}")
    buckets = ([], [], [])
    for sample in samples:
        for bucket, (lo, hi) in zip(buckets, ranges):
            if lo <= sample.target_index < hi:
                bucket.append(sample)
                break
    return buckets


@dataclass(frozen=True)
class SynthConfig:
    """Deterministic synthetic-city recipe: same config, bit-identical data."""

    grid_rows: int
    grid_cols: int
    weeks: int
    poi_categories: int = 13
    drift_rate: float = 0.0
    noise_scale: float = 0.0
    seed: int = 0
    interval_minutes: int = 30

    def __post_init__(self):
        # each message begins with its field's name
        for name in ("grid_rows", "grid_cols", "poi_categories"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.weeks < 2:
            raise ValueError(f"weeks must be >= 2 to window with trend, got {self.weeks!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        for name in ("drift_rate", "noise_scale"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails it too
                raise ValueError(f"{name} must be nonnegative and finite, "
                                 f"got {getattr(self, name)!r}")
        intervals_per_day(self.interval_minutes)


@dataclass
class Dataset:
    """In-memory bundle: the three modality graphs plus demand and raw inputs."""

    graphs: list
    series: DemandSeries
    poi: np.ndarray
    road_conn: np.ndarray
    grid_rows: int
    grid_cols: int
    splits: dict | None = None


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Seeded city: grid neighborhood, POI category mixtures, long-range road
    links, and demand built from per-region daily/weekly sinusoids with
    POI-driven amplitude, spatial smoothing over the graphs, optional noise,
    and a linear drift that makes train and test weeks diverge."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.grid_rows * cfg.grid_cols
    day = intervals_per_day(cfg.interval_minutes)
    week = 7 * day
    total = cfg.weeks * week

    dominant = rng.integers(0, cfg.poi_categories, n)
    poi = rng.uniform(0.0, 0.4, (n, cfg.poi_categories))
    poi[np.arange(n), dominant] += 1.0 + rng.uniform(0.0, 1.0, n)

    rows, cols = np.divmod(np.arange(n), cfg.grid_cols)
    chebyshev = np.maximum(
        np.abs(rows[:, None] - rows[None, :]), np.abs(cols[:, None] - cols[None, :])
    )
    far_i, far_j = np.nonzero(np.triu(chebyshev >= 3, k=1))
    conn = np.zeros((n, n))
    if far_i.size:
        picked = rng.choice(far_i.size, size=min(far_i.size, max(1, n // 2)), replace=False)
        conn[far_i[picked], far_j[picked]] = 1.0
        conn = np.maximum(conn, conn.T)

    neighborhood = build_neighborhood(cfg.grid_rows, cfg.grid_cols)
    poi_graph = build_poi_similarity(poi)
    road_graph = build_road_connectivity(conn, neighborhood)

    # One-week pattern per region, tiled across weeks so the noiseless,
    # drift-free signal is exactly periodic.
    slot = np.arange(week)
    time_of_day = (slot % day) / day
    week_position = slot / week
    phase = 2.0 * np.pi * dominant / cfg.poi_categories + rng.normal(0.0, 0.1, n)
    weekly_phase = rng.uniform(0.0, 2.0 * np.pi, n)
    amplitude = 2.0 + 2.0 * poi.sum(axis=1)
    pattern = amplitude[:, None] * (
        1.0
        + 0.45 * np.sin(2.0 * np.pi * time_of_day[None, :] + phase[:, None])
        + 0.25 * np.sin(2.0 * np.pi * week_position[None, :] + weekly_phase[:, None])
    )

    mix = neighborhood.adjacency + poi_graph.adjacency + road_graph.adjacency
    row_sums = mix.sum(axis=1)
    safe = np.where(row_sums > 0.0, row_sums, 1.0)
    pattern = 0.6 * pattern + 0.4 * (mix / safe[:, None]) @ pattern

    demand = np.tile(pattern, cfg.weeks)
    if cfg.drift_rate > 0.0:
        demand = demand + cfg.drift_rate * (np.arange(total) / week)[None, :]
    if cfg.noise_scale > 0.0:
        demand = demand + cfg.noise_scale * rng.normal(size=(n, total))
    demand = np.maximum(demand, 0.0)

    series = DemandSeries(demand, cfg.interval_minutes)
    return Dataset(
        [neighborhood, poi_graph, road_graph],
        series,
        poi,
        conn,
        cfg.grid_rows,
        cfg.grid_cols,
    )


# ---------------------------------------------------------------------------
# on-disk format

def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt="%.9g")


def _read_matrix(path: Path) -> np.ndarray:
    if not path.exists():
        raise ValueError(f"{path}: file not found")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty files are handled below
            matrix = np.loadtxt(path, delimiter=",", ndmin=2)
    except Exception as exc:
        raise ValueError(f"{path}: cannot parse CSV ({exc})") from exc
    if matrix.size == 0:
        raise ValueError(f"{path}: file is empty")
    return matrix


def save_dataset(dataset: Dataset, out_dir, splits: dict) -> Path:
    """Write demand/poi/road CSVs plus the manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_matrix(out / "demand.csv", dataset.series.values)
    _write_matrix(out / "poi.csv", dataset.poi)
    _write_matrix(out / "road.csv", dataset.road_conn)
    manifest = {
        "vertex_count": dataset.series.vertex_count,
        "interval_minutes": dataset.series.interval_minutes,
        "demand_csv": "demand.csv",
        "poi_csv": "poi.csv",
        "road_csv": "road.csv",
        "grid_rows": dataset.grid_rows,
        "grid_cols": dataset.grid_cols,
        "splits": splits,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def default_splits(cfg: SynthConfig, val_weeks: int = 1, test_weeks: int = 1) -> dict:
    """Week-aligned target-index ranges: test takes the last ``test_weeks``
    weeks, validation the ``val_weeks`` before it, training the rest.  Each
    error message begins with the name of the field at fault."""
    for name, weeks, least in (("val_weeks", val_weeks, 1), ("test_weeks", test_weeks, 0)):
        if weeks < least:
            raise ValueError(f"{name} must be >= {least}, got {weeks!r}")
    week = 7 * intervals_per_day(cfg.interval_minutes)
    total = cfg.weeks * week
    test_lo = total - test_weeks * week
    val_lo = test_lo - val_weeks * week
    if val_lo <= week:
        raise ValueError(f"weeks must be more than 1 + val_weeks + test_weeks = "
                         f"{1 + val_weeks + test_weeks} to carve out training, validation "
                         f"and test splits, got {cfg.weeks!r}")
    return {"train": [week, val_lo], "val": [val_lo, test_lo], "test": [test_lo, total]}


_MANIFEST_SCHEMA = {
    "vertex_count": int,
    "interval_minutes": int,
    "grid_rows": int,
    "grid_cols": int,
    "demand_csv": str,
    "poi_csv": str,
    "road_csv": str,
    "splits": {name: [int] for name in SPLIT_NAMES},
}


def load_dataset(manifest_path) -> Dataset:
    """Read and validate a dataset; errors name the offending file."""
    manifest_path = Path(manifest_path)
    manifest = checked(read_json(manifest_path), _MANIFEST_SCHEMA, str(manifest_path))
    base = manifest_path.parent
    n = manifest["vertex_count"]
    for name in ("grid_rows", "grid_cols"):
        if manifest[name] < 1:
            raise ValueError(f"{manifest_path}.{name} must be >= 1, got {manifest[name]!r}")
    if manifest["grid_rows"] * manifest["grid_cols"] != n:
        raise ValueError(f"{manifest_path}: grid dims do not multiply to vertex_count {n}")
    prefixed(f"{manifest_path}.", intervals_per_day, manifest["interval_minutes"])

    demand_path = base / manifest["demand_csv"]
    demand = _read_matrix(demand_path)
    if demand.shape[0] != n:
        raise ValueError(f"{demand_path}: expected {n} rows, got {demand.shape[0]}")
    series = prefixed(f"{demand_path}: ", DemandSeries, demand, manifest["interval_minutes"])

    poi_path = base / manifest["poi_csv"]
    poi = _read_matrix(poi_path)
    if poi.shape[0] != n:
        raise ValueError(f"{poi_path}: expected {n} rows, got {poi.shape[0]}")
    road_path = base / manifest["road_csv"]
    road = _read_matrix(road_path)

    neighborhood = build_neighborhood(manifest["grid_rows"], manifest["grid_cols"])
    graphs = [neighborhood, prefixed(f"{poi_path}: ", build_poi_similarity, poi),
              prefixed(f"{road_path}: ", build_road_connectivity, road, neighborhood)]
    return Dataset(graphs, series, poi, road, manifest["grid_rows"], manifest["grid_cols"],
                   _checked_splits(manifest["splits"], series, manifest_path))


def _checked_splits(splits, series: DemandSeries, manifest_path: Path) -> dict:
    """The manifest's train/val/test target-index ranges, each a pair of
    integers with 0 <= lo <= hi <= T, in that order and disjoint; train and
    val must each hold a target with a week of history (an empty test split
    is allowed)."""
    week, total = series.week_intervals, series.values.shape[1]
    for name, bounds in splits.items():
        if not (len(bounds) == 2 and 0 <= bounds[0] <= bounds[1] <= total):
            raise ValueError(f"{manifest_path}.splits.{name} must be a pair of integers "
                             f"[lo, hi] with 0 <= lo <= hi <= {total}, got {bounds!r}")
        if name != "test" and max(bounds[0], week) >= bounds[1]:
            raise ValueError(f"{manifest_path}.splits.{name} must hold a target index in "
                             f"[{week}, {total}), which has a week of history; got {bounds!r}")
    # splitting no samples makes split_dataset's order check, at load
    prefixed(f"{manifest_path}.splits: ", split_dataset, [], *splits.values())
    return splits
