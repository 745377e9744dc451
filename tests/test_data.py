import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgcn import data as D
from mmgcn import metrics as M
from mmgcn.jsonio import checked, read_json


def constant_series(vertices=2, intervals=400, value=1.0, interval_minutes=30):
    return D.DemandSeries(np.full((vertices, intervals), value), interval_minutes)


class TestDemandSeries:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            D.DemandSeries(np.full((1, 400), -1.0))

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="week"):
            D.DemandSeries(np.ones((1, 100)))

    def test_rejects_uneven_interval(self):
        with pytest.raises(ValueError, match="divide"):
            D.DemandSeries(np.ones((1, 10000)), interval_minutes=7)

    def test_interval_arithmetic(self):
        series = constant_series()
        assert series.day_intervals == 48
        assert series.week_intervals == 336

    def test_keeps_a_read_only_copy(self):
        values = np.ones((2, 400))
        series = D.DemandSeries(values)
        assert not series.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            series.values[0, 0] = 2.0
        values[0, 0] = 2.0  # the caller's array stays writable and apart
        assert series.values[0, 0] == 1.0


class TestMakeWindows:
    def test_window_geometry_30min(self):
        series = constant_series(intervals=340)
        samples = D.make_windows(series)
        assert samples[0].target_index == 336  # first index with a full week behind
        assert len(samples) == 340 - 336

    def test_boundary_single_sample(self):
        series = constant_series(intervals=337)
        samples = D.make_windows(series)
        assert len(samples) == 1
        assert samples[0].target_index == 336

    def test_constant_series_windows(self):
        series = constant_series(intervals=400, value=3.0)
        for sample in D.make_windows(series):
            np.testing.assert_array_equal(sample.input, np.full((2, 5), 3.0))
            np.testing.assert_array_equal(sample.target, np.full((2, 1), 3.0))

    def test_column_order(self):
        vals = np.arange(400, dtype=float)[None, :]
        series = D.DemandSeries(vals)
        sample = D.make_windows(series)[0]
        t = sample.target_index
        np.testing.assert_array_equal(
            sample.input[0], [t - 1, t - 2, t - 3, t - 48, t - 336]
        )

    def test_never_reads_future(self):
        # values equal their own index, so window values reveal the indices read
        series = D.DemandSeries(np.arange(500, dtype=float)[None, :])
        for sample in D.make_windows(series):
            assert sample.input.max() < sample.target_index

    def test_too_short(self):
        with pytest.raises(ValueError, match="window"):
            D.make_windows(constant_series(intervals=336))

    @settings(max_examples=25, deadline=None)
    @given(vertices=st.integers(1, 4), weeks=st.integers(2, 3),
           interval_minutes=st.sampled_from([15, 30, 60, 180, 480, 1440]),
           seed=st.integers(0, 2**32 - 1))
    def test_every_sample_reads_its_lags_from_the_series(self, vertices, weeks,
                                                         interval_minutes, seed):
        day = D.intervals_per_day(interval_minutes)
        values = np.random.default_rng(seed).uniform(0.0, 10.0, (vertices, weeks * 7 * day))
        series = D.DemandSeries(values, interval_minutes)
        lags = dict(zip(D.WINDOW_OFFSETS, (1, 2, 3, day, 7 * day)))
        samples = D.make_windows(series)
        assert [s.target_index for s in samples] == list(range(7 * day, values.shape[1]))
        for sample in samples:  # the first and the last index among them
            t = sample.target_index
            assert sample.series is series
            window = sample.input
            assert window.shape == (vertices, len(D.WINDOW_OFFSETS))
            for slot, name in enumerate(D.WINDOW_OFFSETS):
                np.testing.assert_array_equal(window[:, slot], values[:, t - lags[name]])
            np.testing.assert_array_equal(sample.target, values[:, t : t + 1])

    def test_copies_no_window(self):
        # a 16x16, 4-week city has 1008 windows; a (V, 5) copy of each is 10.3 MB
        series = D.generate_synthetic(D.SynthConfig(16, 16, weeks=4, seed=2)).series
        tracemalloc.start()
        try:
            samples = D.make_windows(series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        copies = len(samples) * series.vertex_count * len(D.WINDOW_OFFSETS) * 8
        assert len(samples) == 1008
        assert peak < copies / 20


class TestWindowAt:
    # values encode their own (vertex, interval), so equal windows read the same cells
    SERIES = D.DemandSeries(np.arange(3 * 400, dtype=float).reshape(3, 400))

    def test_agrees_with_make_windows(self):
        samples = D.make_windows(self.SERIES)
        assert [s.target_index for s in samples] == list(range(336, 400))
        for sample in samples:
            one = D.Sample(self.SERIES, sample.target_index)
            assert one.target_index == sample.target_index
            assert np.array_equal(one.input, sample.input)
            assert np.array_equal(one.target, sample.target)

    @pytest.mark.parametrize("t", [335, 400])
    def test_rejects_index_without_sample(self, t):
        with pytest.raises(ValueError, match=rf"target index {t} has no sample "
                                             r"\(valid range \[336, 399\]\)"):
            D.Sample(self.SERIES, t)


class TestSplitDataset:
    def _samples(self, n=10, start=336):
        series = constant_series(intervals=start + n)
        return D.make_windows(series)

    def test_partition_sizes(self):
        samples = self._samples(10)
        train, val, test = D.split_dataset(samples, (336, 342), (342, 344), (344, 346))
        assert [len(train), len(val), len(test)] == [6, 2, 2]
        assert {s.target_index for s in train} == set(range(336, 342))

    def test_empty_test_range(self):
        samples = self._samples(4)
        _, _, test = D.split_dataset(samples, (336, 339), (339, 340), (340, 340))
        assert test == []

    def test_full_cover_sums(self):
        samples = self._samples(9)
        parts = D.split_dataset(samples, (336, 340), (340, 343), (343, 345))
        assert sum(len(p) for p in parts) == len(samples)

    def test_rejects_overlap(self):
        samples = self._samples(6)
        with pytest.raises(ValueError, match="overlap"):
            D.split_dataset(samples, (336, 340), (339, 341), (341, 342))


@pytest.mark.parametrize("weeks,field", [((0,), "val_weeks"), ((1, -1), "test_weeks")])
def test_default_splits_rejects_too_few_weeks(weeks, field):
    # a split the loader would reject is never written: validation needs a week
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        D.default_splits(D.SynthConfig(3, 3, weeks=4), *weeks)


class TestGenerateSynthetic:
    def test_deterministic(self):
        cfg = D.SynthConfig(3, 3, weeks=2, drift_rate=0.5, noise_scale=0.3, seed=42)
        a = D.generate_synthetic(cfg)
        b = D.generate_synthetic(cfg)
        np.testing.assert_array_equal(a.series.values, b.series.values)
        np.testing.assert_array_equal(a.poi, b.poi)
        np.testing.assert_array_equal(a.road_conn, b.road_conn)

    def test_noiseless_weeks_identical(self):
        cfg = D.SynthConfig(3, 3, weeks=3, seed=1)
        ds = D.generate_synthetic(cfg)
        week = ds.series.week_intervals
        np.testing.assert_array_equal(
            ds.series.values[:, :week], ds.series.values[:, week : 2 * week]
        )

    def test_drift_raises_kl(self):
        cfg = D.SynthConfig(3, 3, weeks=6, drift_rate=2.0, seed=3)
        ds = D.generate_synthetic(cfg)
        week = ds.series.week_intervals
        kls = M.kl_temporal_drift(
            ds.series.values[:, 2 * week : 3 * week],
            ds.series.values[:, 3 * week :],
            30,
        )
        assert all(b >= a for a, b in zip(kls, kls[1:]))
        assert kls[-1] > 0.0

    def test_three_valid_graphs(self):
        ds = D.generate_synthetic(D.SynthConfig(4, 4, weeks=2, seed=9))
        assert [g.modality_id for g in ds.graphs] == [
            "neighborhood", "poi_similarity", "road_connectivity",
        ]
        # road links never duplicate neighborhood edges
        overlap = (ds.graphs[0].adjacency > 0) & (ds.graphs[2].adjacency > 0)
        assert not overlap.any()

    def test_nonnegative_demand(self):
        ds = D.generate_synthetic(D.SynthConfig(3, 3, weeks=2, noise_scale=5.0, seed=2))
        assert (ds.series.values >= 0).all()


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        cfg = D.SynthConfig(3, 3, weeks=4, drift_rate=1.0, noise_scale=0.4, seed=11)
        ds = D.generate_synthetic(cfg)
        splits = D.default_splits(cfg)
        manifest = D.save_dataset(ds, tmp_path, splits)
        loaded = D.load_dataset(manifest)
        np.testing.assert_allclose(
            loaded.series.values, ds.series.values, rtol=1e-8, atol=1e-7
        )
        np.testing.assert_allclose(loaded.poi, ds.poi, rtol=1e-8)
        np.testing.assert_array_equal(loaded.road_conn, ds.road_conn)
        assert loaded.splits == splits
        for got, want in zip(loaded.graphs, ds.graphs):
            assert got.modality_id == want.modality_id
            np.testing.assert_allclose(got.adjacency, want.adjacency, atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_round_trip_at_random_shapes(self, data, tmp_path_factory):
        cfg = D.SynthConfig(
            data.draw(st.integers(1, 4), label="grid_rows"),
            data.draw(st.integers(1, 4), label="grid_cols"),
            weeks=data.draw(st.integers(2, 3), label="weeks"),
            poi_categories=data.draw(st.integers(1, 4), label="poi_categories"),
            drift_rate=data.draw(st.floats(0.0, 3.0), label="drift_rate"),
            noise_scale=data.draw(st.floats(0.0, 2.0), label="noise_scale"),
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
            interval_minutes=data.draw(st.sampled_from([60, 120, 240]), label="interval"),
        )
        ds = D.generate_synthetic(cfg)
        # ordered, disjoint ranges, with any gaps between them; train and val
        # each hold a target with a week of history, train may start before
        # it, and test may be empty
        bound = st.integers(ds.series.week_intervals, ds.series.values.shape[1])
        cuts = sorted(data.draw(st.lists(bound, min_size=6, max_size=6, unique=True),
                                label="cuts"))
        cuts[0] = data.draw(st.integers(0, cuts[0]), label="train_lo")
        cuts[5] = data.draw(st.integers(cuts[4], cuts[5]), label="test_hi")
        splits = {name: cuts[2 * i : 2 * i + 2] for i, name in enumerate(D.SPLIT_NAMES)}
        first = tmp_path_factory.mktemp("written")
        manifest = D.save_dataset(ds, first, splits)
        document = read_json(manifest)
        assert checked(document, D._MANIFEST_SCHEMA, "manifest") == document
        loaded = D.load_dataset(manifest)
        assert loaded.splits == splits
        # the CSVs hold each value to 9 significant digits, and read back exactly that
        for got, written in ((loaded.series.values, ds.series.values), (loaded.poi, ds.poi),
                             (loaded.road_conn, ds.road_conn)):
            np.testing.assert_array_equal(got, np.char.mod("%.9g", written).astype(float))
        second = tmp_path_factory.mktemp("rewritten")
        D.save_dataset(loaded, second, loaded.splits)
        for name in ("manifest.json", "demand.csv", "poi.csv", "road.csv"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            D.load_dataset(tmp_path / "nope.json")

    def test_vertex_mismatch_names_file(self, tmp_path):
        cfg = D.SynthConfig(2, 2, weeks=3, seed=0)
        ds = D.generate_synthetic(cfg)
        manifest = D.save_dataset(ds, tmp_path, D.default_splits(cfg, 1, 0))
        payload = json.loads(manifest.read_text())
        payload["vertex_count"] = 5
        payload["grid_rows"], payload["grid_cols"] = 1, 5
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="demand.csv"):
            D.load_dataset(manifest)

    def test_empty_demand_file(self, tmp_path):
        cfg = D.SynthConfig(2, 2, weeks=3, seed=0)
        ds = D.generate_synthetic(cfg)
        manifest = D.save_dataset(ds, tmp_path, D.default_splits(cfg, 1, 0))
        (tmp_path / "demand.csv").write_text("")
        with pytest.raises(ValueError, match="demand.csv"):
            D.load_dataset(manifest)

    def test_negative_demand_names_row(self, tmp_path):
        cfg = D.SynthConfig(2, 2, weeks=3, seed=0)
        ds = D.generate_synthetic(cfg)
        manifest = D.save_dataset(ds, tmp_path, D.default_splits(cfg, 1, 0))
        values = ds.series.values.copy()
        values[1, 3] = 7.0
        text = "\n".join(
            ",".join("%.9g" % v for v in row) for row in values
        ).replace("7", "-7", 1)
        (tmp_path / "demand.csv").write_text(text + "\n")
        with pytest.raises(ValueError, match="row"):
            D.load_dataset(manifest)

    @pytest.mark.parametrize("bad,shown", [(float("nan"), "nan"), (float("inf"), "inf"),
                                           (-2.0, "-2.0")])
    def test_bad_demand_names_file_and_row(self, tmp_path, bad, shown):
        cfg = D.SynthConfig(2, 2, weeks=3, seed=0)
        ds = D.generate_synthetic(cfg)
        values = ds.series.values.copy()  # the series' own values are read-only
        values[2, 5] = bad
        ds.series.values = values
        manifest = D.save_dataset(ds, tmp_path, D.default_splits(cfg, 1, 0))
        with pytest.raises(ValueError) as err:
            D.load_dataset(manifest)
        assert str(err.value) == (f"{tmp_path / 'demand.csv'}: demand values must be finite "
                                  f"and nonnegative, row 2 holds {shown}")

    def test_asymmetric_road_rejected(self, tmp_path):
        cfg = D.SynthConfig(3, 3, weeks=3, seed=4)
        ds = D.generate_synthetic(cfg)
        manifest = D.save_dataset(ds, tmp_path, D.default_splits(cfg, 1, 0))
        road = ds.road_conn.copy()
        i, j = np.nonzero(road)
        if i.size == 0:
            road[0, 5] = 1.0
        else:
            road[i[0], j[0]] = 0.0
        np.savetxt(tmp_path / "road.csv", road, delimiter=",", fmt="%.9g")
        with pytest.raises(ValueError, match="road.csv"):
            D.load_dataset(manifest)
