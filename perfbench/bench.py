"""Workloads, set-up, timed loops and correctness checks of the ssmgraph benchmark.

The benchmark is a closed loop with one caller: each workload runs alone in
its own process and drives ``ssmgraph`` only through public functions.

Training workloads time ``train_loop`` epochs, each including its two
validation passes, and report training records per second. The evaluation
workload times ``collect_outputs`` + ``select_thresholds`` + ``build_report``
passes and reports evaluated records per second. Either loop runs until
``seconds`` have passed (and for at least three epochs or passes); the first
fifth of them is dropped as warm-up and the median over the rest is reported.

With tracing on, half the time runs untraced and half traced (see
``tracing.py``); the throughput difference is reported as the overhead.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from ssmgraph import data, fftconv, train
from ssmgraph import model as mdl
from ssmgraph.config import OptimConfig, parse_model_config, preset
from ssmgraph.graphlearn import num_intervals
from ssmgraph.tensor import Tensor, no_grad

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

SETUP_REPEATS = 3
CHECK_RECORDS = 2
# float32 encoder outputs and logits must match a float64 copy of the same
# weights within 2**10 float32 epsilons (~1.2e-4) relative to max(1, |value|);
# the logit error is ~1e-6 on every workload.
F32_TOL = 2.0 ** 10 * float(np.finfo(np.float32).eps)
# The spans directly inside a training step must cover it to within this share.
COVERAGE_TOL = 0.05
# Timed loops run until the time is spent, and for at least this many epochs
# or passes, so that two remain once the first is dropped as warm-up.
MIN_ROUNDS = 3
MAX_EPOCHS = 10 ** 6


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "train": timed train_loop epochs; "eval": timed evaluation passes
    model: dict         # the "model" section of a run config
    t_len: int
    batch: int
    n_main: int         # training records ("train") or evaluated records ("eval")
    n_val: int = 0      # validation records ("train")
    lr: float = 1e-3


def _preset_model(name: str, **gsl) -> dict:
    model = preset(name)["model"]
    model["gsl"].update(gsl)
    return model


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "tusz-long": Workload(
        "tusz-long", "train", _preset_model("tusz-like", r=500),
        t_len=1000, batch=2, n_main=4, n_val=2, lr=8e-4),
    "graph-dense": Workload(
        "graph-dense", "train",
        {"n_sensors": 64, "input_dim": 1, "d_model": 32, "s4_depth": 1,
         "bidirectional": False, "dropout": 0.1,
         "gsl": {"r": 4, "knn_k": 2, "epsilon": 0.6, "kappa": 0.1, "heads": 4},
         "reg": {"alpha": 0.05, "beta": 0.05, "gamma": 0.05},
         "pool": {"graph_pool": "max", "temporal_pool": "mean"},
         "n_classes": 1, "task": "binary", "dtype": "float32"},
        t_len=128, batch=4, n_main=16, n_val=4),
    "icbeb-eval": Workload(
        "icbeb-eval", "eval", _preset_model("icbeb-like"),
        t_len=500, batch=8, n_main=16),
}

# The traced run of the evaluation workload also trains briefly, so that
# per-step layer metrics exist on every workload: batch 2 keeps the tape small.
EVAL_FIT_BATCH = 2
EVAL_FIT_RECORDS = 4


class Tally:
    """Operations attempted and failed: training steps, eval batches, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def add(self, count: int, failed: int = 0, why: str = "") -> None:
        self.attempted += count
        self.failed += failed
        if failed:
            self.failures.append(why)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.add(1, 0 if ok else 1, f"check failed: {name} {detail}".rstrip())


# -- inputs ---------------------------------------------------------------------


def _padded_multilabel(w: Workload, seed: int) -> data.Dataset:
    """Correlation-task signals cut to true lengths in [T/2, T] and zero-padded,
    with multilabel targets drawn from the seed. Record 0 keeps length T."""
    n_classes = w.model["n_classes"]
    base = data.generate(data.DatasetSpec(kind="correlation", n_sensors=w.model["n_sensors"],
                                          t_len=w.t_len, size=w.n_main, seed=seed))
    rng = np.random.default_rng([seed, 1])
    lengths = rng.integers(w.t_len // 2, w.t_len, size=w.n_main)
    lengths[0] = w.t_len
    labels = (rng.random((w.n_main, n_classes)) < 0.3).astype(np.int64)
    records = []
    for rec, length, y in zip(base.records, lengths, labels):
        x = rec.x.copy()
        x[:, length:] = 0.0
        records.append(data.SignalRecord(x=x, y=y, mask=np.arange(w.t_len) < length,
                                         true_length=int(length), record_id=rec.record_id))
    return data.Dataset(records=records, task="multilabel", n_classes=n_classes)


def make_datasets(w: Workload, seed: int) -> list:
    """[train, val] for training workloads, [eval] for the evaluation workload."""
    if w.kind == "eval":
        return [_padded_multilabel(w, seed)]
    n = w.n_main + w.n_val
    full = data.generate(data.DatasetSpec(kind="correlation", n_sensors=w.model["n_sensors"],
                                          t_len=w.t_len, size=n, seed=seed))
    return data.stratified_split(full, [w.n_main / n, w.n_val / n], seed=seed)


@dataclasses.dataclass
class Setup:
    datasets: list          # read back from BSG1
    built: mdl.SsmGraphModel
    model: mdl.SsmGraphModel  # read back from the GS4M checkpoint
    load_bsg1_s: float
    load_checkpoint_s: float


def setup(w: Workload, seed: int, workdir: Path) -> Setup:
    """Generate the inputs and build the model, then round-trip both through
    their file formats, as ``gen-data`` / ``train`` / ``eval`` users do."""
    loaded = []
    load_bsg1_s = 0.0
    for i, ds in enumerate(make_datasets(w, seed)):
        path = workdir / f"part{i}.bsg1"
        data.save_bsg1(ds, path)
        start = time.perf_counter()
        loaded.append(data.load_bsg1(path))
        load_bsg1_s += time.perf_counter() - start
    built = mdl.build_model(parse_model_config(w.model), seed)
    path = workdir / "model.gs4m"
    mdl.save_checkpoint(built, path)
    start = time.perf_counter()
    model, _ = mdl.load_checkpoint(path)
    load_checkpoint_s = time.perf_counter() - start
    return Setup(loaded, built, model, load_bsg1_s, load_checkpoint_s)


def clone(model: mdl.SsmGraphModel, dtype: str) -> mdl.SsmGraphModel:
    """A model with the same weights, held in ``dtype``."""
    copy = mdl.SsmGraphModel(dataclasses.replace(model.cfg, dtype=dtype),
                             np.random.default_rng(0))
    params = dict(copy.named_parameters())
    for name, p in model.named_parameters():
        params[name].data[...] = p.data
    return copy


# -- timed loops ----------------------------------------------------------------


class _TimeUp(Exception):
    """Raised from train_loop's per-epoch log hook once the time budget is spent."""


def _finite_fields(line: str) -> bool:
    """False if any numeric key=value field of a log line is NaN or infinite."""
    for token in line.split():
        try:
            value = float(token.partition("=")[2])
        except ValueError:
            continue
        if not math.isfinite(value):
            return False
    return True


def fit(model, train_ds, val_ds, batch: int, lr: float, seconds: float, seed: int,
        tally: Tally, tracer, min_epochs: int = MIN_ROUNDS) -> list[tuple[float, float]]:
    """``train_loop`` until ``seconds`` have passed and ``min_epochs`` are done.

    The epoch count is set far beyond what the time allows, with patience
    equal to it, so early stopping never ends the loop; the log hook ends it
    at an epoch boundary. Returns each epoch's (start, end) window.
    """
    per_epoch = math.ceil(len(train_ds) / batch)
    cfg = OptimConfig(lr=lr, batch_size=batch, epochs=MAX_EPOCHS, warmup_epochs=0,
                      patience=MAX_EPOCHS)
    stamps = [time.perf_counter()]
    lines = []

    def log(line: str) -> None:
        stamps.append(time.perf_counter())
        lines.append(line)
        if len(lines) >= min_epochs and stamps[-1] - stamps[0] >= seconds:
            raise _TimeUp

    try:
        with tracer.span(tracing.LOOP):
            train.train_loop(model, train_ds, val_ds, cfg, seed, log=log)
    except _TimeUp:
        pass
    except Exception:  # the failure is reported with the result, not raised
        tally.add(per_epoch, per_epoch, "train_loop raised:\n" + traceback.format_exc())
    tally.add(per_epoch * len(lines))
    tally.check("every epoch's losses are finite", all(map(_finite_fields, lines)))
    return list(zip(stamps[:-1], stamps[1:]))


def evaluate(model, ds, batch: int, tally: Tally, tracer):
    """One evaluation pass; returns (outputs or None, start, end)."""
    n_batches = math.ceil(len(ds) / batch)
    start = time.perf_counter()
    try:
        with tracer.span(tracing.EVAL):
            outputs = train.collect_outputs(model, ds, batch)
            with tracer.span("metrics.select_thresholds"):
                thresholds = train.select_thresholds(model, outputs)
            with tracer.span("metrics.build_report"):
                train.build_report(model, outputs, thresholds)
    except Exception:
        tally.add(n_batches, n_batches, "evaluation raised:\n" + traceback.format_exc())
        return None, start, time.perf_counter()
    end = time.perf_counter()
    finite = [bool(np.all(np.isfinite(outputs.scores[i:i + batch])))
              for i in range(0, len(ds), batch)]
    tally.add(n_batches, finite.count(False), "non-finite scores in an eval batch")
    return outputs, start, end


def eval_passes(model, ds, batch: int, seconds: float, tally: Tally, tracer,
                min_passes: int = MIN_ROUNDS):
    """Evaluation passes until ``seconds`` have passed and ``min_passes`` are done.
    Returns (windows, last outputs)."""
    windows, outputs = [], None
    begin = time.perf_counter()
    while len(windows) < min_passes or time.perf_counter() - begin < seconds:
        outputs, start, end = evaluate(model, ds, batch, tally, tracer)
        if outputs is None:
            break
        windows.append((start, end))
    return windows, outputs


def throughput(records: int, windows, tracer=None) -> float:
    """Median records/s over the windows after warm-up (the first fifth, at
    least one), less the replay time inside each window when traced."""
    rates = []
    for start, end in windows[max(1, len(windows) // 5):]:
        busy = end - start - (tracer.replay_seconds(start, end) if tracer else 0.0)
        rates.append(records / busy)
    return statistics.median(rates) if rates else 0.0


# -- checks --------------------------------------------------------------------


def _rel_err(low, high) -> float:
    return float(np.max(np.abs(np.asarray(low, np.float64) - high) / np.maximum(1.0, np.abs(high))))


def run_checks(w: Workload, s: Setup, eval_outputs, tally: Tally) -> None:
    ds = s.datasets[-1]
    records = ds.records[:CHECK_RECORDS]
    x32, y, mask = data.collate(records, dtype=np.float32)
    x64, _, _ = data.collate(records, dtype=np.float64)
    copy = clone(s.model, "float64")
    try:
        with no_grad():
            out32 = s.model.forward(x32, mask=mask)
            loss = s.model.total_loss(out32, y).item()
            out64 = copy.forward(x64, mask=mask)
            h32 = s.model.encoder.encode(Tensor(x32), mask=mask).data
            h64 = copy.encoder.encode(Tensor(x64), mask=mask).data
    except Exception:
        tally.add(1, 1, "check forward raised:\n" + traceback.format_exc())
        return
    tally.check("check-batch loss is finite", bool(np.isfinite(loss)))
    pairs = [("encoder output", h32, h64)]
    # kNN top-k and kappa pruning are discontinuous: at a near-tie the two
    # dtypes may keep different edges, and then graphs and logits rightly differ
    if np.array_equal(out32.graphs == 0, out64.graphs == 0):
        pairs += [("learned graphs", out32.graphs, out64.graphs),
                  ("logits", out32.logits.data, out64.logits.data)]
    else:
        tally.notes.append("float32 and float64 kept different edges at a near-tie; "
                           "graphs and logits not compared")
    for name, low, high in pairs:
        err = _rel_err(low, high)
        tally.check(f"float32 {name} match the float64 copy", err <= F32_TOL,
                    f"(relative error {err:.3g} > {F32_TOL:.3g})")
    graphs = [out32.graphs]
    if eval_outputs is not None:
        graphs.append(np.stack(eval_outputs.graphs))
    for g in graphs:
        tally.check("adjacency is symmetric", bool(np.array_equal(g, np.swapaxes(g, -1, -2))))
        tally.check("adjacency lies in [0, 1]", bool(np.all((g >= 0.0) & (g <= 1.0))))
    if w.kind == "eval":
        first = data.Dataset(records=ds.records[:w.batch], task=ds.task, n_classes=ds.n_classes)
        ok = False
        if eval_outputs is not None:
            ref = train.collect_outputs(s.built, first, w.batch).scores
            ok = bool(np.array_equal(ref, eval_outputs.scores[:len(ref)]))
        tally.check("reloaded-checkpoint scores equal in-process scores", ok)


# -- provenance -----------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    cfg = parse_model_config(w.model)
    return {
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "GS4_THREADS"},
        "fft_workers": fftconv.FFT_WORKERS,
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "shapes": {"B": w.batch, "N": cfg.n_sensors, "T": w.t_len, "r": cfg.gsl.r,
                   "n_d": num_intervals(w.t_len, cfg.gsl.r),
                   "D": cfg.d_model, "depth": cfg.s4_depth, "bidirectional": cfg.bidirectional,
                   "task": cfg.task, "n_classes": cfg.n_classes,
                   "records": w.n_main, "val_records": w.n_val},
        "dtype": cfg.dtype,
    }


# -- one run ---------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(w: Workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """One benchmark run. Returns {correct, attempted, failed, metrics, failures}
    with metrics as plain numbers; run.py attaches the declared units."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    tally = Tally()
    try:
        reps, loads = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            s = setup(w, seed, workdir)
            reps.append(time.perf_counter() - start)
            loads.append((s.load_bsg1_s, s.load_checkpoint_s))
        null = tracing.NullTracer()
        if trace:
            metrics, eval_outputs, tracer = _traced(w, s, seed, seconds, tally)
            metrics["data.load_bsg1_s"] = statistics.median(t[0] for t in loads)
            metrics["model.load_checkpoint_s"] = statistics.median(t[1] for t in loads)
            write_trace(w, seed, tracer, metrics)
        else:
            if w.kind == "train":
                train_ds, val_ds = s.datasets
                windows = fit(s.model, train_ds, val_ds, w.batch, w.lr, seconds, seed, tally, null)
                eval_outputs = None
            else:
                windows, eval_outputs = eval_passes(s.model, s.datasets[0], w.batch, seconds,
                                                    tally, null)
            metrics = {"setup_s": import_s + statistics.median(reps),
                       "records_per_s": throughput(w.n_main, windows),
                       "peak_rss_mb": peak_rss_mb()}
        run_checks(w, s, eval_outputs, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": tally.failed == 0, "attempted": max(1, tally.attempted),
            "failed": tally.failed, "metrics": metrics, "failures": tally.failures,
            "notes": tally.notes}


def _traced(w: Workload, s: Setup, seed: int, seconds: float, tally: Tally):
    """Untraced then traced halves; per-layer metrics from the traced half."""
    half = seconds / 2.0
    tracer = tracing.Tracer()
    null = tracing.NullTracer()
    eval_outputs = None
    if w.kind == "train":
        model, (train_ds, val_ds) = s.model, s.datasets
        plain = fit(model, train_ds, val_ds, w.batch, w.lr, half, seed, tally, null)
        tracer.install(model)
        try:
            traced = fit(model, train_ds, val_ds, w.batch, w.lr, half, seed + 1, tally, tracer,
                         min_epochs=2)
            evaluate(model, val_ds, w.batch, tally, tracer)
        finally:
            tracer.uninstall()
        main = tracing.STEP
    else:
        ds = s.datasets[0]
        plain, _ = eval_passes(s.model, ds, w.batch, half, tally, null)
        tracer.install(s.model)
        try:
            traced, eval_outputs = eval_passes(s.model, ds, w.batch, half, tally, tracer,
                                               min_passes=2)
        finally:
            tracer.uninstall()
        # a short training run on a copy, so per-step metrics exist here too
        learner = clone(s.model, s.model.cfg.dtype)
        fit_ds = data.Dataset(records=ds.records[:EVAL_FIT_RECORDS], task=ds.task,
                              n_classes=ds.n_classes)
        val_ds = data.Dataset(records=ds.records[EVAL_FIT_RECORDS:2 * EVAL_FIT_RECORDS],
                              task=ds.task, n_classes=ds.n_classes)
        tracer.install(learner)
        try:
            fit(learner, fit_ds, val_ds, EVAL_FIT_BATCH, w.lr, 0.0, seed, tally, tracer,
                min_epochs=1)
        finally:
            tracer.uninstall()
        main = tracing.EVAL
    metrics = tracer.summary(main)
    untraced = throughput(w.n_main, plain)
    traced_rate = throughput(w.n_main, traced, tracer)
    metrics["trace.overhead"] = 1.0 - traced_rate / untraced if untraced and traced_rate else 0.0
    cfg = s.model.cfg
    metrics["graphlearn.gsl_macs"] = mdl.gsl_mac_estimate(cfg.n_sensors, cfg.d_model,
                                                          w.t_len, cfg.gsl.r)
    coverage = metrics["trace.coverage"]
    tally.check("trace spans cover train.step", abs(1.0 - coverage) <= COVERAGE_TOL,
                f"(coverage {coverage:.4f})")
    return metrics, eval_outputs, tracer


def write_trace(w: Workload, seed: int, tracer: tracing.Tracer, metrics: dict) -> Path:
    """All spans of the traced run, written once at the end."""
    path = OUT_DIR / f"trace-{w.name}-seed{seed}.json"
    payload = {"workload": w.name, "seed": seed, "metrics": metrics,
               "fft_lengths": sorted(tracer.fft_lengths), "spans": tracer.dump()}
    path.write_text(json.dumps(payload, default=float))
    return path
