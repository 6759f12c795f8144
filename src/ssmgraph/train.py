"""Training loop with undersampling, early stopping and best-epoch selection,
and the evaluation steps it shares with the CLI: outputs, thresholds, reports.

Each epoch's validation report is the one source of the selection metric;
the best epoch's thresholds and report are returned with its parameters."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import OptimConfig
from .data import Dataset, collate, stack_labels, undersample_majority
from .graphlearn import FULL_INTERVAL
from .metrics import binary_report, multiclass_report, multilabel_report, threshold_select
from .model import ModelConfig, SsmGraphModel
from .optim import AdamW, DivergenceError, cosine_warmup_lr


@dataclass
class EvalOutputs:
    scores: np.ndarray          # (n,) binary or (n, C)
    labels: np.ndarray
    graphs: list                # per-record (n_d, N, N)
    record_ids: list
    total_loss: float           # batch-weighted mean of model.total_loss


# model-selection metric per task, read from the validation report
SELECTION_KEYS = {"binary": "auroc", "multiclass": "macro_f1", "multilabel": "macro_auroc"}


@dataclass
class TrainResult:
    history: list               # rows: (epoch, lr, train_loss, val_loss, val_metric)
    best_epoch: int             # the epoch whose parameters were restored
    best_metric: float          # its validation_metric
    thresholds: list            # select_thresholds on its validation outputs
    report: dict                # build_report of its validation outputs
    stopped_early: bool

    def history_csv(self) -> str:
        buf = io.StringIO()
        buf.write("epoch,lr,train_loss,val_loss,val_metric\n")
        for row in self.history:
            buf.write("{},{:.10g},{:.10g},{:.10g},{:.10g}\n".format(*row))
        return buf.getvalue()


def _batches(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield range(start, min(start + batch_size, n))


def collect_outputs(model: SsmGraphModel, dataset: Dataset, batch_size: int = 32) -> EvalOutputs:
    """Deterministic forward over a dataset, gradient-free: scores, graphs
    and the loss all come from the same logits."""
    scores = []
    graphs = []
    ids = []
    total = 0.0
    with T.no_grad():
        for idx in _batches(len(dataset), batch_size):
            records = [dataset.records[i] for i in idx]
            x, y, mask = collate(records, dtype=model.cfg.np_dtype)
            out = model.forward(x, mask=mask)
            total += model.total_loss(out, y).item() * len(records)
            s = model.scores(out.logits.data)
            scores.append(s[:, 0] if model.cfg.task == "binary" else s)
            graphs.extend(out.graphs[i] for i in range(len(records)))
            ids.extend(r.record_id for r in records)
    return EvalOutputs(scores=np.concatenate(scores, axis=0),
                       labels=stack_labels(dataset.records),
                       graphs=graphs, record_ids=ids, total_loss=total / len(dataset))


def check_dataset(cfg: ModelConfig, dataset: Dataset, name: str, scored: bool = False) -> None:
    """Reject a dataset the model cannot run on, the message led by ``name``
    (a file or a config field): no records; a sensor count or input width
    other than the model's, or a length the interval r does not divide; a
    class index outside the model's classes, or a multi-hot vector of the
    wrong width; and, if ``scored``, a binary split of one class, on which
    AUROC and AUPRC are undefined."""
    if not len(dataset):
        raise ValueError(f"{name}: dataset has no records")
    n_classes = 2 if cfg.task == "binary" else cfg.n_classes
    for rec in dataset.records:
        n_sensors, t_len, width = rec.x.shape
        if (n_sensors, width) != (cfg.n_sensors, cfg.input_dim):
            raise T.ShapeError(f"{name}: record {rec.record_id}: {n_sensors} sensors of input "
                               f"width {width} do not fit a model of {cfg.n_sensors} sensors "
                               f"of input width {cfg.input_dim}")
        if cfg.gsl.r != FULL_INTERVAL and t_len % cfg.gsl.r:
            raise T.ShapeError(f"{name}: record {rec.record_id}: length {t_len} is not "
                               f"divisible by the model's interval r={cfg.gsl.r}")
        y = np.asarray(rec.y)
        if cfg.task == "multilabel":
            ok = y.shape == (n_classes,) and bool(np.isin(y, (0, 1)).all())
        else:
            ok = y.ndim == 0 and 0 <= y < n_classes
        if not ok:
            raise ValueError(f"{name}: record {rec.record_id}: label {rec.y} does not fit a "
                             f"{cfg.task} model with {n_classes} classes")
    if scored and cfg.task == "binary" and len({int(rec.y) for rec in dataset.records}) < 2:
        raise ValueError(f"{name}: every record has label {int(dataset.records[0].y)}; scoring "
                         f"a binary model needs both classes")


def validation_metric(task: str, report: dict) -> float:
    """Model-selection metric: the report's AUROC (binary), macro-F1
    (multiclass) or macro-AUROC (multilabel; 0 when no class has both
    labels)."""
    value = report[SELECTION_KEYS[task]]
    return 0.0 if value is None else value


def validation_loss(model: SsmGraphModel, dataset: Dataset, batch_size: int) -> float:
    """The validation loss alone; ``train_loop`` reads it from the
    ``collect_outputs`` pass it already makes."""
    return collect_outputs(model, dataset, batch_size).total_loss


def _sigmoid_columns(outputs: EvalOutputs) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels of a sigmoid task as (n, C) columns; binary has C = 1."""
    n = len(outputs.labels)
    return outputs.scores.reshape(n, -1), outputs.labels.reshape(n, -1)


def select_thresholds(model: SsmGraphModel, outputs: EvalOutputs):
    """F1-maximizing cutoff per sigmoid column (one for binary); none for
    multiclass, which predicts the argmax."""
    if model.cfg.task == "multiclass":
        return []
    scores, labels = _sigmoid_columns(outputs)
    return [threshold_select(scores[:, c], labels[:, c]) for c in range(scores.shape[1])]


def build_report(model: SsmGraphModel, outputs: EvalOutputs, thresholds) -> dict:
    task = model.cfg.task
    if task == "binary":
        return binary_report(outputs.scores, outputs.labels, thresholds[0])
    if task == "multiclass":
        return multiclass_report(outputs.scores, outputs.labels, model.cfg.n_classes)
    return multilabel_report(outputs.scores, outputs.labels, thresholds)


def predictions_correct(model: SsmGraphModel, outputs: EvalOutputs, thresholds) -> np.ndarray:
    """Per record: the argmax is the class (multiclass), or every sigmoid
    column's cutoff decision matches its label."""
    if model.cfg.task == "multiclass":
        return outputs.scores.argmax(axis=-1) == outputs.labels
    scores, labels = _sigmoid_columns(outputs)
    return np.all((scores >= np.asarray(thresholds)) == (labels == 1), axis=-1)


def train_loop(model: SsmGraphModel, train_ds: Dataset, val_ds: Dataset,
               cfg: OptimConfig, seed: int, log=None) -> TrainResult:
    """Shuffled mini-batch epochs with optional majority-class undersampling.

    Early-stops when validation loss has not decreased for ``cfg.patience``
    consecutive epochs. The best parameters (by ``validation_metric``) are
    restored into ``model`` before returning, with that epoch's thresholds
    and report. Raises DivergenceError on NaN loss.

    Across steps only the parameters, their gradients and the optimizer's
    moments stay alive: each step's graph is released before the next forward
    and before validation, and each epoch's validation outputs before the
    next epoch trains. The best epoch's thresholds, report and a copy of its
    parameters are kept.
    """
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ValueError("train and validation datasets must be non-empty")
    ss = np.random.SeedSequence(seed)
    shuffle_rng, dropout_rng, balance_rng = (np.random.default_rng(c) for c in ss.spawn(3))
    optimizer = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay,
                      beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    history = []
    best_metric = -np.inf
    best_epoch = 0
    best_val_loss = np.inf
    stall = 0
    stopped_early = False
    for epoch in range(1, cfg.epochs + 1):
        lr = cosine_warmup_lr(epoch, cfg.epochs, cfg.warmup_epochs, cfg.lr)
        records = (undersample_majority(train_ds.records, balance_rng)
                   if cfg.undersample else list(train_ds.records))
        order = shuffle_rng.permutation(len(records))
        epoch_loss = 0.0
        seen = 0
        for idx in _batches(len(records), cfg.batch_size):
            batch = [records[order[i]] for i in idx]
            x, y, mask = collate(batch, dtype=model.cfg.np_dtype)
            out = model.forward(x, mask=mask, train=True, rng=dropout_rng)
            loss = model.total_loss(out, y)
            step_loss = loss.item()
            if not np.isfinite(step_loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            model.zero_grad()
            loss.backward()
            optimizer.step(lr)
            del out, loss  # the step's whole graph; the next forward builds another
            model.assert_stable()
            epoch_loss += step_loss * len(batch)
            seen += len(batch)
        train_loss = epoch_loss / seen
        val_outputs = collect_outputs(model, val_ds, cfg.batch_size)
        val_loss = val_outputs.total_loss
        thresholds = select_thresholds(model, val_outputs)
        report = build_report(model, val_outputs, thresholds)
        del val_outputs  # every validation record's graphs; nothing below reads them
        val_metric = validation_metric(model.cfg.task, report)
        history.append((epoch, lr, train_loss, val_loss, val_metric))
        if log:
            log(f"epoch {epoch:3d} lr={lr:.3e} train={train_loss:.4f} "
                f"val={val_loss:.4f} metric={val_metric:.4f}")
        if val_metric > best_metric:
            best_metric = val_metric
            best_epoch = epoch
            best_thresholds, best_report = thresholds, report
            best_state = [(name, p.data.copy()) for name, p in model.named_parameters()]
        if val_loss < best_val_loss - 1e-12:
            best_val_loss = val_loss
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                stopped_early = True
                break
    # the first epoch's finite metric always beats -inf, so best_state is set
    params = dict(model.named_parameters())
    for name, data in best_state:
        params[name].data[...] = data
    return TrainResult(history=history, best_epoch=best_epoch, best_metric=best_metric,
                       thresholds=best_thresholds, report=best_report,
                       stopped_early=stopped_early)
