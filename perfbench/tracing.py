"""Spans and counts for the benchmark's traced run.

The program has no tracing of its own yet, so spans are recorded from the
benchmark's side: for the traced phase only, module functions and methods
that ``ssmgraph`` calls internally are replaced by wrappers that time the
call and pass arguments and results through untouched. Spans stay in
memory; the caller writes them out once, at exit.

Backward time per stage cannot be split out of one tape replay, so it is
measured by replaying the stage: after each optimizer step, the stage is
run again on detached leaf copies of its inputs (same dropout draws), and
that replay's backward is timed, seeded with the gradient the full step
left on the stage output. Parameter gradients are zeroed afterwards, which
changes nothing, because the training loop zeroes them before each backward.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
import types

import numpy as np

from ssmgraph import fftconv, graphlearn, s4, train
from ssmgraph import model as mdl
from ssmgraph.optim import AdamW
from ssmgraph.tensor import Tape, Tensor

STEP = "train.step"
LOOP = "train.loop"
EVAL = "eval.pass"
REPLAY = "trace.replay"

# stage forward span -> span of its replayed backward
BACKWARD_OF = {
    "s4.encode.fwd": "s4.encode.bwd",
    "graphlearn.build_graphs.fwd": "graphlearn.bwd",
    "graphlearn.reg_loss.fwd": "graphlearn.bwd",
    "gnn.gin.fwd": "gnn.gin.bwd",
}

# spans reported per model forward of the workload's main loop
FORWARD_STAGES = (
    "s4.encode.fwd", "s4.layers.0.fwd", "s4.materialize_kernel", "fftconv.conv1d_fft",
    "graphlearn.pool.fwd", "graphlearn.build_graphs.fwd", "graphlearn.attention",
    "graphlearn.knn", "graphlearn.finalize", "graphlearn.reg_loss.fwd", "gnn.gin.fwd",
    "gnn.readout_head",
)
STEP_STAGES = ("model.loss", "tensor.backward", "optim.step")
STEP_CHILDREN = ("data.collate", "model.forward") + STEP_STAGES


class NullTracer:
    """Stands in for :class:`Tracer` when tracing is off."""

    def span(self, name):
        return contextlib.nullcontext()


class _FftLengthProbe:
    """Stands in for ``scipy.fft`` inside ``fftconv``; records each transform length."""

    def __init__(self, module, lengths: set):
        self._module = module
        self._lengths = lengths

    def __getattr__(self, name):
        fn = getattr(self._module, name)
        lengths = self._lengths

        @functools.wraps(fn)
        def call(*args, **kwargs):
            n = kwargs.get("n", args[1] if len(args) > 1 else None)
            if n is not None:
                lengths.add(int(n))
            return fn(*args, **kwargs)

        return call


def _leaf(value):
    if isinstance(value, Tensor):
        return Tensor(value.data.copy(), requires_grad=value.requires_grad)
    return value


def _distinct_nbytes(arrays) -> int:
    seen = {}
    for arr in arrays:
        seen[id(arr)] = arr.nbytes
    return sum(seen.values())


class Tracer:
    """In-memory spans: ``[name, start, end, parent index or -1]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = {
            "tensor.tape_ops": [], "tensor.tape_bytes": [], "tensor.grad_bytes": []}
        self.fft_lengths: set[int] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._captured: dict[str, tuple] = {}
        self._loss: Tensor | None = None
        self._backward = Tensor.backward

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        now = time.perf_counter()
        while self._stack:  # spans left open by an exception end here too
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == idx:
                return

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _in_step(self) -> bool:
        return any(self.spans[i][0] == STEP for i in self._stack)

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        on_instance = not isinstance(owner, (type, types.ModuleType))
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original, on_instance))

    def _timed(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def _captured_stage(self, name: str):
        """Times a stage and, inside a training step, keeps what a replay needs."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rng = kwargs.get("rng")
                state = rng.bit_generator.state if rng is not None else None
                with self.span(name):
                    out = fn(*args, **kwargs)
                if self._in_step():
                    self._captured[name] = (fn, args, kwargs, out, state)
                return out
            return wrapper
        return make

    def _collate(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._current() == LOOP:  # train_loop's own batch: a training step starts
                self.open(STEP)
            with self.span("data.collate"):
                return fn(*args, **kwargs)
        return wrapper

    def _total_loss(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span("model.loss"):
                loss = fn(*args, **kwargs)
            if self._in_step():
                self._loss = loss
            return loss
        return wrapper

    def _optim_step(self, fn):
        @functools.wraps(fn)
        def wrapper(opt, *args, **kwargs):
            with self.span("optim.step"):
                result = fn(opt, *args, **kwargs)
            if self._current() == STEP:
                self.close(self._stack[-1])
                with self.span(REPLAY):
                    self._after_step(opt)
            return result
        return wrapper

    def install(self, model) -> None:
        """Wrap the calls one model's training and evaluation make."""
        timed = self._timed
        self._patch(train, "collate", self._collate)
        self._patch(train, "validation_loss", timed("train.validation_loss"))
        self._patch(train, "collect_outputs", timed("train.collect_outputs"))
        self._patch(mdl, "interval_mean_pool", timed("graphlearn.pool.fwd"))
        self._patch(mdl, "reg_loss_total", self._captured_stage("graphlearn.reg_loss.fwd"))
        self._patch(mdl, "temporal_graph_readout", timed("gnn.readout_head"))
        self._patch(s4, "materialize_kernel", timed("s4.materialize_kernel"))
        self._patch(s4, "conv1d_fft", timed("fftconv.conv1d_fft"))
        self._patch(graphlearn, "attention_adjacency", timed("graphlearn.attention"))
        self._patch(graphlearn, "knn_graph_cosine", timed("graphlearn.knn"))
        self._patch(graphlearn, "finalize_adjacency", timed("graphlearn.finalize"))
        self._patch(fftconv, "sfft", lambda module: _FftLengthProbe(module, self.fft_lengths))
        self._patch(Tensor, "backward", timed("tensor.backward"))
        self._patch(AdamW, "step", self._optim_step)
        self._patch(model, "forward", timed("model.forward"))
        self._patch(model, "total_loss", self._total_loss)
        self._patch(model.encoder, "encode", self._captured_stage("s4.encode.fwd"))
        for i, layer in enumerate(model.encoder.layers):
            self._patch(layer, "forward", timed(f"s4.layers.{i}.fwd"))
        if model.gsl is not None:
            self._patch(model.gsl, "build_graphs",
                        self._captured_stage("graphlearn.build_graphs.fwd"))
        if model.gin is not None:
            self._patch(model.gin, "forward", self._captured_stage("gnn.gin.fwd"))
        self._patch(model.head, "forward", timed("gnn.readout_head"))

    def uninstall(self) -> None:
        for owner, attr, original, on_instance in reversed(self._patches):
            if on_instance:
                delattr(owner, attr)  # the class attribute shows through again
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self._captured.clear()
        self._loss = None

    # -- per-step work, outside the step span ----------------------------------

    def _after_step(self, opt) -> None:
        loss, self._loss = self._loss, None
        captured, self._captured = self._captured, {}
        if loss is not None:
            ops = Tape.trace(loss).ops
            self.counts["tensor.tape_ops"].append(len(ops))
            self.counts["tensor.tape_bytes"].append(sum(op.out.data.nbytes for op in ops))
            self.counts["tensor.grad_bytes"].append(
                _distinct_nbytes(op.out.grad for op in ops if op.out.grad is not None))
        seeds = {name: entry[3].grad for name, entry in captured.items()}
        if loss is not None:
            for op in ops:  # the step is done with them; frees memory for the replays
                op.out.grad = None
        for name, (fn, args, kwargs, _, state) in captured.items():
            if seeds[name] is None:
                continue
            args = tuple(_leaf(a) for a in args)
            kwargs = {k: _leaf(v) for k, v in kwargs.items()}
            if state is not None:
                rng = np.random.Generator(type(kwargs["rng"].bit_generator)())
                rng.bit_generator.state = state
                kwargs["rng"] = rng
            replayed = fn(*args, **kwargs)
            with self.span(BACKWARD_OF[name]):
                self._backward(replayed, seeds[name])
        opt.zero_grad()

    # -- summaries -------------------------------------------------------------

    def _ancestors(self, idx: int):
        parent = self.spans[idx][3]
        while parent != -1:
            yield parent
            parent = self.spans[parent][3]

    def _has_ancestor(self, idx: int, name: str) -> bool:
        return any(self.spans[a][0] == name for a in self._ancestors(idx))

    def _select(self, name: str, within: str) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and s[2] is not None and self._has_ancestor(i, within)]

    def _nested_totals(self, units: list[int]) -> list[dict]:
        """Per unit span: total seconds and call count of every span nested in it."""
        index = {u: n for n, u in enumerate(units)}
        totals = [{} for _ in units]
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            for a in self._ancestors(i):
                if a in index:
                    seconds, calls = totals[index[a]].get(name, (0.0, 0))
                    totals[index[a]][name] = (seconds + end - start, calls + 1)
        return totals

    def _duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def summary(self, main: str) -> dict:
        """Per-layer medians. ``main`` is the span holding the workload's main
        loop: STEP for training workloads, EVAL for evaluation workloads."""
        def median(values):
            values = list(values)
            return statistics.median(values) if values else 0.0

        def count(values):  # a count stays a whole number
            values = list(values)
            return statistics.median_low(values) if values else 0

        steps = self._select(STEP, LOOP)
        step_totals = self._nested_totals(steps)
        forwards = self._select("model.forward", main)
        forward_totals = self._nested_totals(forwards)
        replays = self._nested_totals(self._select(REPLAY, LOOP))
        out = {
            "train.step_s": median(self._duration(i) for i in steps),
            "data.collate_s": median(self._duration(i) for i in self._select("data.collate", main)),
            "model.forward_s": median(self._duration(i) for i in forwards),
            "fftconv.calls": count(t.get("fftconv.conv1d_fft", (0, 0))[1] for t in forward_totals),
            "fftconv.fft_len": max(self.fft_lengths, default=0),
        }
        for name in STEP_STAGES:
            out[name + "_s"] = median(t.get(name, (0.0, 0))[0] for t in step_totals)
        for name in FORWARD_STAGES:
            out[name + "_s"] = median(t.get(name, (0.0, 0))[0] for t in forward_totals)
        for name in sorted(set(BACKWARD_OF.values())):
            out[name + "_s"] = median(t.get(name, (0.0, 0))[0] for t in replays)
        for name, values in self.counts.items():
            out[name] = count(values)
        for name in ("train.validation_loss", "train.collect_outputs"):
            out[name + "_s"] = median(self._duration(i) for i in self._select(name, LOOP))
        evals = self._select("train.collect_outputs", EVAL)
        out["train.collect_outputs.batch_s"] = median(
            self._duration(i) / max(1, t.get("model.forward", (0, 0))[1])
            for i, t in zip(evals, self._nested_totals(evals)))
        for name in ("metrics.select_thresholds", "metrics.build_report"):
            out[name + "_s"] = median(self._duration(i) for i in self._select(name, EVAL))
        out["trace.coverage"] = median(
            sum(t.get(name, (0.0, 0))[0] for name in STEP_CHILDREN) / self._duration(i)
            for i, t in zip(steps, step_totals))
        return out

    def replay_seconds(self, start: float, end: float) -> float:
        """Replay time inside a wall-clock window, to take out of traced throughput."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == REPLAY and s[2] is not None and start <= s[1] and s[2] <= end)

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
