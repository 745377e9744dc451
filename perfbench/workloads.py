"""The three benchmark workloads: set-up, timed requests and correctness gates.

Every workload runs in a fresh process on a synthetic city that
``generate_synthetic`` builds from the workload seed.  Each request is timed
with tracing off, then checked; a request that raises or fails a check counts
as failed.  In a traced run every second request is traced, so the untraced
ones give the tracing overhead, and a few single-layer timings are taken at
the end with tracing off.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mmgcn import cli
from mmgcn import data as D
from mmgcn import graphs as G
from mmgcn import layers as L
from mmgcn import training as T
from mmgcn.regularization import RegularizerConfig

# The seed picks one of this many cities, so that every seed has a recorded
# reference in references.json.
REFERENCE_SEEDS = 32
# final_val_rmse must match the recorded reference to this relative error.
# Reordering floating-point sums moves it by about 1e-15.
RMSE_RTOL = 1e-9
# Batched and single-window predictions agree to this relative error.
PREDICT_RTOL = 1e-9
# The CLI writes predictions with "%.9g": 9 significant digits.
CSV_RTOL = 1e-8
# The set-up runs at least SETUP_REPS times and until SETUP_SECONDS have
# passed (at most SETUP_MAX_REPS times); setup_s is the median.
SETUP_REPS, SETUP_SECONDS, SETUP_MAX_REPS = 5, 1.0, 25
LOW_LAYER, HIGH_LAYER = 1, 2  # GGCN 32->64 and MRGCN 64->32 in the full stack

# Layer widths and polynomial degree; the tiny scale only proves that the
# harness and its gates run.
SCALES = {
    "full": {"dims": [32, 64, 32, 1], "degree": 4},
    "tiny": {"dims": [4, 8, 4, 1], "degree": 2},
}


class GateFailure(Exception):
    """An output failed a correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


@dataclass
class Run:
    """State of one benchmark run: options, counters and collected timings."""

    workload: str
    seed: int
    seconds: float
    tracer: object | None
    tiny: bool
    work: Path
    references: dict
    attempted: int = 0
    failed: int = 0
    timings: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def member(self) -> int:
        return self.seed % REFERENCE_SEEDS

    @property
    def scale(self) -> dict:
        return SCALES["tiny" if self.tiny else "full"]

    def reference(self) -> float:
        table = self.references.get(self.workload, {}).get("tiny" if self.tiny else "full", {})
        require(str(self.member) in table,
                f"no reference final_val_rmse recorded for {self.workload} seed {self.member}")
        return table[str(self.member)]

    def attempt(self, fn):
        """Run one checked operation; count it, and count it failed if it raises."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # one failed request must not stop the measurement
            self.failed += 1
            traceback.print_exc()
            return None

    def record(self, kind: str, seconds: float) -> None:
        self.timings.setdefault(kind, []).append(seconds)

    def traced(self, index: int) -> bool:
        return self.tracer is not None and index % 2 == 1

    def request(self, index: int, kind: str, windows_used: int = 0):
        if self.traced(index):
            return self.tracer.request(kind, windows_used)
        return contextlib.nullcontext()


def quiet_dispatch(argv) -> int:
    """``cli.dispatch`` with its progress lines kept off the benchmark output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.dispatch(argv)


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def setup_reps(run: Run, fn, check=None):
    """Run the set-up repeatedly into fresh directories, checking each result
    with ``check`` if given; returns the last result."""
    total = 0.0
    rep = 0
    while rep < SETUP_REPS or (total < SETUP_SECONDS and rep < SETUP_MAX_REPS):
        elapsed, result = timed(lambda: fn(run.work / f"setup{rep}"))
        run.record("setup", elapsed)
        total += elapsed
        if check is not None:
            run.attempt(lambda: check(result))
        rep += 1
    return result


def stack(samples) -> np.ndarray:
    return np.stack([s.input for s in samples])


def same_rmse(value: float, reference: float) -> bool:
    return bool(np.isfinite(value)) and abs(value - reference) <= RMSE_RTOL * abs(reference)


def check_batch_agrees(params, bases, samples) -> None:
    """predict_batches must agree with per-window network_forward."""
    batched = L.predict_batches(samples, bases, params)
    single = np.stack([L.network_forward(s.input, bases, params)[:, 0] for s in samples])
    require(np.isfinite(batched).all(), "non-finite batched prediction")
    require(np.allclose(batched, single, rtol=PREDICT_RTOL,
                        atol=PREDICT_RTOL * np.abs(single).max()),
            "predict_batches disagrees with network_forward")


def time_predict1(run: Run, params, bases, samples, budget: float) -> None:
    """A burst of single-window ``network_forward`` calls, at least 10."""
    deadline = time.perf_counter() + budget
    count = 0
    while count < 10 or time.perf_counter() < deadline:
        window = samples[count % len(samples)].input

        def one():
            elapsed, pred = timed(lambda: L.network_forward(window, bases, params))
            require(np.isfinite(pred).all(), "non-finite single-window prediction")
            return elapsed

        elapsed = run.attempt(one)
        if elapsed is not None:
            run.record("predict1", elapsed)
        count += 1


def train_requests(run: Run, one, bases, samples):
    """Timed training requests for ``run.seconds``; ``one(index)`` returns
    (seconds, trained params).  Each request is followed by single-window
    predictions on its model for a tenth of its time, so both timings sample
    the whole run.  Returns the last trained params."""
    params = None
    deadline = time.perf_counter() + run.seconds
    index = 0
    while index < 1 or time.perf_counter() < deadline:
        outcome = run.attempt(lambda: one(index))
        if outcome is not None:
            elapsed, params = outcome
            run.record("train_traced" if run.traced(index) else "train", elapsed)
            time_predict1(run, params, bases, samples, 0.1 * elapsed)
        index += 1
    return params


def layer_timings(run: Run, params, bases, reg, samples) -> dict:
    """Untraced single-layer timings on fixed inputs: one 32-window batch
    through batch_loss with and without gradients, and one window through the
    GGCN 32->64 and MRGCN 64->32 layers."""
    batch = samples[:32]
    x, y = stack(batch), np.stack([s.target[:, 0] for s in batch])
    hidden = L.network_forward_hidden(x[:1], bases, params)[1]
    low_in = [h[0] for h in hidden[LOW_LAYER - 1]]
    high_in = [h[0] for h in hidden[HIGH_LAYER - 1]]
    low_act = params.config.layer_specs[LOW_LAYER].activation
    high_act = params.config.layer_specs[HIGH_LAYER].activation
    calls = {
        "forward": lambda: L.batch_loss(x, y, bases, params, reg, with_grads=False),
        "forward_backward": lambda: L.batch_loss(x, y, bases, params, reg, with_grads=True),
        "ggcn": lambda: L.ggcn_forward(low_in, bases, params.layers[LOW_LAYER], low_act),
        "mrgcn": lambda: L.mrgcn_forward(high_in, bases, params.layers[HIGH_LAYER], high_act),
    }
    ms = {}
    for name, fn in calls.items():
        times = []
        deadline = time.perf_counter() + 0.05 * run.seconds
        while len(times) < 3 or (len(times) < 30 and time.perf_counter() < deadline):
            times.append(timed(fn)[0])
        ms[name] = 1e3 * statistics.median(times)
    return {
        "layers.forward_ms": ms["forward"],
        "layers.backward_ms": ms["forward_backward"] - ms["forward"],
        "layers.ggcn_forward.ms": ms["ggcn"],
        "layers.mrgcn_forward.ms": ms["mrgcn"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# desk_train: the acceptance-6 city through `mmgcn train`

DESK_EPOCHS = 1


def _synth(out: Path, rows: int, cols: int, weeks: int, seed: int, test_weeks: int = 1):
    config = write_json(out / "synth.json", {
        "grid_rows": rows, "grid_cols": cols, "weeks": weeks, "seed": seed,
        "drift_rate": 1.5, "noise_scale": 0.5, "val_weeks": 1, "test_weeks": test_weeks,
    })
    require(quiet_dispatch(["synth", "--config", str(config), "--out", str(out / "data")]) == 0,
            "mmgcn synth failed")
    return out / "data" / "manifest.json"


def _run_config(out: Path, run: Run, variant: str, batch_size: int, epochs: int) -> Path:
    return write_json(out / "run.json", {
        "manifest": "data/manifest.json",
        "variant": variant,
        "network": {"output_dims": run.scale["dims"], "cheb_degree": run.scale["degree"]},
        "train": {"learning_rate": 1e-2, "batch_size": batch_size, "max_epochs": epochs,
                  "patience": epochs + 1, "seed": 0},
    })


def _desk_setup(run: Run, out: Path) -> Path:
    rows, weeks = (3, 4) if run.tiny else (6, 8)
    out.mkdir(parents=True)
    _synth(out, rows, rows, weeks, run.member)
    return _run_config(out, run, "GGCN_plus_MRGCN_2S", 512 if run.tiny else 32, DESK_EPOCHS)


def _history_val(path: Path) -> list:
    rows = path.read_text().splitlines()[1:]
    return [float(row.split(",")[2]) for row in rows]


def desk_train(run: Run) -> dict:
    config = setup_reps(run, lambda out: _desk_setup(run, out))
    out = config.parent / "out"
    dataset = D.load_dataset(config.parent / "data" / "manifest.json")
    samples = D.make_windows(dataset.series)
    train_s, val_s, _ = D.split_dataset(samples, *(dataset.splits[k]
                                                   for k in ("train", "val", "test")))
    bases = G.graph_bases(dataset.graphs, run.scale["degree"])
    argv = ["train", "--config", str(config), "--out", str(out)]
    reference = run.reference()

    def one(index):
        with run.request(index, "train", len(train_s) + len(val_s)):
            elapsed, code = timed(lambda: quiet_dispatch(argv))
        require(code == 0, f"mmgcn train exited {code}")
        history = _history_val(out / "history.csv")
        require(len(history) == DESK_EPOCHS, "history.csv has the wrong epoch count")
        require(same_rmse(history[-1], reference),
                f"final_val_rmse {history[-1]!r} differs from reference {reference!r}")
        state = T.load_checkpoint(out)
        require(state.best_val_rmse == min(history),
                "checkpoint best_val_rmse disagrees with history")
        return elapsed, state.params

    params = train_requests(run, one, bases, val_s)
    run.details["final_val_rmse"] = reference
    run.attempt(lambda: check_batch_agrees(params, bases, val_s[:32]))
    return {"windows": len(train_s) * DESK_EPOCHS,
            "layer_args": (params, bases, RegularizerConfig(), train_s)}


# ---------------------------------------------------------------------------
# city256_train: training.train on fixed slices of a 16x16 city

CITY_TRAIN, CITY_VAL = 96, 32


def _city_setup(run: Run):
    side, weeks = (3, 2) if run.tiny else (16, 4)
    cfg = D.SynthConfig(side, side, weeks, drift_rate=1.5, noise_scale=0.5, seed=run.member)
    dataset = D.generate_synthetic(cfg)
    samples = D.make_windows(dataset.series)
    train, val = (samples[:32], samples[32:48]) if run.tiny else (
        samples[:CITY_TRAIN], samples[dataset.series.week_intervals:][:CITY_VAL])
    specs = L.make_layer_specs([L.GGCN, L.GGCN, L.MRGCN, L.MRGCN], len(D.WINDOW_OFFSETS),
                               run.scale["dims"])
    net = L.NetworkConfig(3, run.scale["degree"], specs)
    cfg = T.TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=1, patience=2, seed=0,
                        reg=RegularizerConfig(frozen_modes=()))
    return dataset, {"train": train, "val": val}, net, cfg


def city256_train(run: Run) -> dict:
    dataset, splits, net, cfg = setup_reps(run, lambda out: _city_setup(run))
    bases = G.graph_bases(dataset.graphs, net.cheb_degree)
    reference = run.reference()

    def one(index):
        with run.request(index, "train"):
            elapsed, result = timed(lambda: T.train(splits, dataset.graphs, net, cfg))
        val = result.history[-1].val_rmse
        require(same_rmse(val, reference),
                f"final_val_rmse {val!r} differs from reference {reference!r}")
        return elapsed, result.state.params

    params = train_requests(run, one, bases, splits["val"])
    run.details["final_val_rmse"] = reference
    run.attempt(lambda: check_batch_agrees(params, bases, splits["val"][:8]))
    return {"windows": len(splits["train"]),
            "layer_args": (params, bases, cfg.reg, splits["train"])}


# ---------------------------------------------------------------------------
# serve_predict: one closed-loop client on a desk-scale checkpoint

POOL = 256
CLI_PER_CYCLE, FORWARD_PER_CYCLE = 3, 8


def _serve_setup(run: Run, out: Path) -> Path:
    rows, weeks, test_weeks = (3, 4, 1) if run.tiny else (6, 8, 5)
    out.mkdir(parents=True)
    # Five test weeks leave one training week, so the set-up fit stays short.
    _synth(out, rows, rows, weeks, run.member, test_weeks)
    config = _run_config(out, run, "GGCN_plus_MRGCN_2S", 512 if run.tiny else 32, 1)
    require(quiet_dispatch(["train", "--config", str(config), "--out", str(out / "out")]) == 0,
            "mmgcn train failed")
    return config


def serve_predict(run: Run) -> dict:
    reference = run.reference()

    def check(config: Path) -> None:
        best = T.load_checkpoint(config.parent / "out").best_val_rmse
        require(same_rmse(best, reference),
                f"set-up best_val_rmse {best!r} differs from {reference!r}")

    config = setup_reps(run, lambda out: _serve_setup(run, out), check)
    run.details["final_val_rmse"] = reference
    out = config.parent / "out"
    dataset = D.load_dataset(config.parent / "data" / "manifest.json")
    samples = D.make_windows(dataset.series)
    state = T.load_checkpoint(out)
    params = state.params
    bases = G.graph_bases(dataset.graphs, params.config.cheb_degree)
    pool_size = min(POOL, len(samples))
    offset = (run.seed * 7919) % len(samples)
    pool = [samples[(offset + i) % len(samples)] for i in range(pool_size)]
    expected = np.stack([L.network_forward(s.input, bases, params)[:, 0] for s in pool])
    atol = PREDICT_RTOL * np.abs(expected).max()

    def cli_predict(position: int) -> float:
        sample = samples[position % len(samples)]
        argv = ["predict", "--config", str(config), "--out", str(out),
                "--index", str(sample.target_index)]
        elapsed, code = timed(lambda: quiet_dispatch(argv))
        require(code == 0, f"mmgcn predict exited {code}")
        written = np.loadtxt(out / f"prediction_{sample.target_index}.csv", ndmin=1)
        direct = L.network_forward(sample.input, bases, params)[:, 0]
        require(np.allclose(written, direct, rtol=CSV_RTOL, atol=0.0),
                "prediction CSV differs from network_forward")
        return elapsed

    def forward(j: int) -> float:
        elapsed, pred = timed(lambda: L.network_forward(pool[j].input, bases, params))
        require(np.allclose(pred[:, 0], expected[j], rtol=PREDICT_RTOL, atol=atol),
                "network_forward is not reproducible")
        return elapsed

    def batch() -> float:
        elapsed, preds = timed(lambda: L.predict_batches(pool, bases, params))
        require(np.isfinite(preds).all(), "non-finite batched prediction")
        require(np.allclose(preds, expected, rtol=PREDICT_RTOL, atol=atol),
                "predict_batches disagrees with network_forward")
        return elapsed

    def requests(cycle: int, position: int) -> list:
        done = []
        for k in range(CLI_PER_CYCLE):
            done.append(("cli_predict", run.attempt(lambda: cli_predict(position + k))))
        for j in range(FORWARD_PER_CYCLE):
            done.append(("predict1", run.attempt(
                lambda: forward((cycle * FORWARD_PER_CYCLE + j) % pool_size))))
        done.append(("predict_batch", run.attempt(batch)))
        return done

    deadline = time.perf_counter() + run.seconds
    cycle = 0
    while cycle < 1 or time.perf_counter() < deadline:
        start = time.perf_counter()
        with run.request(cycle, "cycle", CLI_PER_CYCLE):
            done = requests(cycle, offset + CLI_PER_CYCLE * cycle)
        run.record("cycle_traced" if run.traced(cycle) else "cycle", time.perf_counter() - start)
        if not run.traced(cycle):
            for kind, elapsed in done:
                if elapsed is not None:
                    run.record(kind, elapsed)
        cycle += 1
    layer_args = (params, bases, RegularizerConfig(), samples)
    return {"windows": pool_size, "layer_args": layer_args}


def reference_value(run: Run) -> float:
    """Set the workload up once and run one request; returns the final
    validation RMSE that ``references.json`` records for ``run.member``."""
    if run.workload == "desk_train":
        config = _desk_setup(run, run.work / "reference")
        argv = ["train", "--config", str(config), "--out", str(config.parent / "out")]
        require(quiet_dispatch(argv) == 0, "mmgcn train failed")
        return _history_val(config.parent / "out" / "history.csv")[-1]
    if run.workload == "city256_train":
        dataset, splits, net, cfg = _city_setup(run)
        return T.train(splits, dataset.graphs, net, cfg).history[-1].val_rmse
    config = _serve_setup(run, run.work / "reference")
    return T.load_checkpoint(config.parent / "out").best_val_rmse


WORKLOADS = {"desk_train": desk_train, "city256_train": city256_train,
             "serve_predict": serve_predict}
