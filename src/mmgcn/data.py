"""Demand series, closeness/period/trend windowing, and synthetic cities.

On-disk format is deliberately plain: one CSV per matrix plus a JSON manifest
that names the files, the grid shape, and the train/val/test target-index
ranges.  The synthetic generator replaces the proprietary ride-hailing data
with a seeded, fully reproducible city whose temporal drift is controllable.
"""

from __future__ import annotations

import json
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

MINUTES_PER_DAY = 1440

# input window layout: three most recent intervals, same time yesterday,
# same time last week
WINDOW_OFFSETS = ("t-1", "t-2", "t-3", "t-P", "t-W")

# target-index ranges a manifest names, in time order
SPLIT_NAMES = ("train", "val", "test")


@dataclass
class DemandSeries:
    """Nonnegative |V| x T observation matrix with interval metadata."""

    values: np.ndarray
    interval_minutes: int = 30

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError(f"demand must be |V| x T, got shape {self.values.shape}")
        if self.interval_minutes < 1 or MINUTES_PER_DAY % self.interval_minutes != 0:
            raise ValueError(f"interval {self.interval_minutes} min must divide a day")
        if not np.isfinite(self.values).all():
            raise ValueError("demand contains non-finite values")
        if (self.values < 0).any():
            raise ValueError("demand values must be nonnegative")
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
        return MINUTES_PER_DAY // self.interval_minutes

    @property
    def week_intervals(self) -> int:
        return 7 * self.day_intervals


@dataclass(frozen=True)
class Sample:
    """One training example: 5-slot input window and next-interval target."""

    input: np.ndarray  # (V, 5), columns ordered per WINDOW_OFFSETS
    target: np.ndarray  # (V, 1)
    target_index: int


def window_at(series: DemandSeries, t: int) -> Sample:
    """The sample whose target is interval ``t``; its input reads only earlier
    intervals, so ``t`` needs a full week of history."""
    values, day = series.values, series.day_intervals
    week, total = 7 * day, values.shape[1]
    if not week <= t < total:
        raise ValueError(f"target index {t} has no sample (valid range [{week}, {total - 1}])")
    return Sample(values[:, (t - 1, t - 2, t - 3, t - day, t - week)], values[:, t : t + 1], t)


def make_windows(series: DemandSeries) -> list:
    """One sample per target index from the first index with a full week of
    history; inputs only ever look backward."""
    week = series.week_intervals
    total = series.values.shape[1]
    if total <= week:
        raise ValueError(
            f"need more than {week} intervals to window with trend, got {total}"
        )
    return [window_at(series, t) for t in range(week, total)]


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
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid dimensions must be positive")
        if self.weeks < 2:
            raise ValueError("at least 2 weeks are needed to window with trend")
        if self.poi_categories < 1:
            raise ValueError("poi_categories must be positive")
        if self.drift_rate < 0 or self.noise_scale < 0:
            raise ValueError("drift_rate and noise_scale must be nonnegative")


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
    day = MINUTES_PER_DAY // cfg.interval_minutes
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
    weeks, validation the ``val_weeks`` before it, training the rest."""
    week = 7 * (MINUTES_PER_DAY // cfg.interval_minutes)
    total = cfg.weeks * week
    test_lo = total - test_weeks * week
    val_lo = test_lo - val_weeks * week
    if val_lo <= week:
        raise ValueError("not enough weeks to carve out validation and test splits")
    return {"train": [week, val_lo], "val": [val_lo, test_lo], "test": [test_lo, total]}


# JSON type of every manifest field but ``splits``, which _checked_splits reads
_MANIFEST_TYPES = {
    "vertex_count": int,
    "interval_minutes": int,
    "grid_rows": int,
    "grid_cols": int,
    "demand_csv": str,
    "poi_csv": str,
    "road_csv": str,
}


def load_dataset(manifest_path) -> Dataset:
    """Read and validate a dataset; errors name the offending file."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ValueError(f"{manifest_path}: manifest not found")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{manifest_path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: manifest must be a JSON object")
    missing = {*_MANIFEST_TYPES, "splits"} - manifest.keys()
    if missing:
        raise ValueError(f"{manifest_path}: missing manifest fields {sorted(missing)}")
    for name, kind in _MANIFEST_TYPES.items():
        value = manifest[name]
        if type(value) is not kind:  # a JSON boolean is never an integer
            raise ValueError(f"{manifest_path}: {name} must be "
                             f"{'an integer' if kind is int else 'a string'}, got {value!r}")
    base = manifest_path.parent
    n = manifest["vertex_count"]
    if manifest["grid_rows"] * manifest["grid_cols"] != n:
        raise ValueError(f"{manifest_path}: grid dims do not multiply to vertex_count {n}")

    demand = _read_matrix(base / manifest["demand_csv"])
    if demand.shape[0] != n:
        raise ValueError(
            f"{base / manifest['demand_csv']}: expected {n} rows, got {demand.shape[0]}"
        )
    splits = _checked_splits(manifest["splits"], demand.shape[1], manifest_path)
    negative = np.nonzero((demand < 0).any(axis=1))[0]
    if negative.size:
        raise ValueError(
            f"{base / manifest['demand_csv']}: negative demand in row {negative[0]}"
        )

    poi = _read_matrix(base / manifest["poi_csv"])
    if poi.shape[0] != n:
        raise ValueError(f"{base / manifest['poi_csv']}: expected {n} rows, got {poi.shape[0]}")

    road = _read_matrix(base / manifest["road_csv"])
    if road.shape != (n, n):
        raise ValueError(
            f"{base / manifest['road_csv']}: expected {n}x{n}, got {road.shape}"
        )
    asym = np.nonzero(road != road.T)
    if asym[0].size:
        raise ValueError(
            f"{base / manifest['road_csv']}: asymmetric at row {asym[0][0]}, col {asym[1][0]}"
        )

    neighborhood = build_neighborhood(manifest["grid_rows"], manifest["grid_cols"])
    try:
        poi_graph = build_poi_similarity(poi)
    except ValueError as exc:
        raise ValueError(f"{base / manifest['poi_csv']}: {exc}") from exc
    try:
        road_graph = build_road_connectivity(road, neighborhood)
    except ValueError as exc:
        raise ValueError(f"{base / manifest['road_csv']}: {exc}") from exc
    graphs = [neighborhood, poi_graph, road_graph]
    series = DemandSeries(demand, manifest["interval_minutes"])
    return Dataset(graphs, series, poi, road, manifest["grid_rows"], manifest["grid_cols"],
                   splits)


def _checked_splits(splits, total: int, manifest_path: Path) -> dict:
    """The manifest's train/val/test target-index ranges, each a pair of
    integers with 0 <= lo <= hi <= ``total``, and no other split."""
    if not isinstance(splits, dict):
        raise ValueError(f"{manifest_path}: splits must be a JSON object, got {splits!r}")
    unknown = sorted(set(splits) - set(SPLIT_NAMES))
    if unknown:
        raise ValueError(f"{manifest_path}: unknown split splits.{unknown[0]}")
    for name in SPLIT_NAMES:
        bounds = splits.get(name)
        if not (isinstance(bounds, list) and len(bounds) == 2
                and all(type(b) is int for b in bounds) and 0 <= bounds[0] <= bounds[1] <= total):
            raise ValueError(f"{manifest_path}: splits.{name} must be a pair of integers "
                             f"[lo, hi] with 0 <= lo <= hi <= {total}, got {bounds!r}")
    return {name: splits[name] for name in SPLIT_NAMES}
