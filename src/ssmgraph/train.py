"""Training loop with undersampling, early stopping, best-model selection,
and post-hoc evaluation (metrics, thresholds, adjacency collection)."""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import OptimConfig
from .data import Dataset, collate, undersample_majority
from .metrics import (binary_report, multiclass_report, multilabel_report,
                      auroc_auprc, threshold_select, threshold_select_multilabel)
from .model import ModelConfig, SsmGraphModel, save_checkpoint
from .optim import AdamW, DivergenceError, cosine_warmup_lr


@dataclass
class EvalOutputs:
    scores: np.ndarray          # (n,) binary or (n, C)
    labels: np.ndarray
    graphs: list                # per-record (n_d, N, N)
    record_ids: list
    total_loss: float           # batch-weighted mean of model.total_loss


@dataclass
class TrainResult:
    history: list               # rows: (epoch, lr, train_loss, val_loss, val_metric)
    best_epoch: int
    best_metric: float
    stopped_early: bool
    diagnostic: str = ""

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
                       labels=dataset.labels_matrix(),
                       graphs=graphs, record_ids=ids, total_loss=total / len(dataset))


def check_labels(cfg: ModelConfig, dataset: Dataset) -> None:
    """Reject a dataset whose labels the model cannot score: a class index
    outside the model's classes, or a multi-hot vector of the wrong width."""
    n_classes = 2 if cfg.task == "binary" else cfg.n_classes
    for rec in dataset.records:
        y = np.asarray(rec.y)
        if cfg.task == "multilabel":
            ok = y.shape == (n_classes,) and bool(np.isin(y, (0, 1)).all())
        else:
            ok = y.ndim == 0 and 0 <= y < n_classes
        if not ok:
            raise ValueError(f"record {rec.record_id}: label {rec.y} does not fit a "
                             f"{cfg.task} model with {n_classes} classes")


def validation_metric(model: SsmGraphModel, outputs: EvalOutputs) -> float:
    """Model-selection metric: AUROC (binary), macro-F1 (multiclass),
    macro-AUROC (multilabel)."""
    task = model.cfg.task
    if task == "binary":
        return auroc_auprc(outputs.scores, outputs.labels)[0]
    if task == "multiclass":
        return multiclass_report(outputs.scores, outputs.labels, model.cfg.n_classes)["macro_f1"]
    aurocs = []
    for c in range(model.cfg.n_classes):
        col = outputs.labels[:, c]
        if 0 < col.sum() < len(col):
            aurocs.append(auroc_auprc(outputs.scores[:, c], col)[0])
    return float(np.mean(aurocs)) if aurocs else 0.0


def validation_loss(model: SsmGraphModel, dataset: Dataset, batch_size: int) -> float:
    """The validation loss alone; ``train_loop`` reads it from the
    ``collect_outputs`` pass it already makes."""
    return collect_outputs(model, dataset, batch_size).total_loss


def select_thresholds(model: SsmGraphModel, outputs: EvalOutputs):
    """F1-maximizing cutoffs on validation scores (per class for multilabel)."""
    if model.cfg.task == "binary":
        return [threshold_select(outputs.scores, outputs.labels)]
    if model.cfg.task == "multilabel":
        return threshold_select_multilabel(outputs.scores, outputs.labels)
    return []


def build_report(model: SsmGraphModel, outputs: EvalOutputs, thresholds) -> dict:
    task = model.cfg.task
    if task == "binary":
        return binary_report(outputs.scores, outputs.labels, thresholds[0])
    if task == "multiclass":
        return multiclass_report(outputs.scores, outputs.labels, model.cfg.n_classes)
    return multilabel_report(outputs.scores, outputs.labels, thresholds)


def predictions_correct(model: SsmGraphModel, outputs: EvalOutputs, thresholds) -> np.ndarray:
    task = model.cfg.task
    if task == "binary":
        return (outputs.scores >= thresholds[0]).astype(int) == outputs.labels
    if task == "multiclass":
        return outputs.scores.argmax(axis=-1) == outputs.labels
    pred = outputs.scores >= np.asarray(thresholds)[None, :]
    return np.all(pred == (outputs.labels == 1), axis=-1)


def train_loop(model: SsmGraphModel, train_ds: Dataset, val_ds: Dataset,
               cfg: OptimConfig, seed: int, log=None) -> TrainResult:
    """Shuffled mini-batch epochs with optional majority-class undersampling.

    Early-stops when validation loss has not decreased for ``cfg.patience``
    consecutive epochs. The best parameters (by task metric) are restored
    into ``model`` before returning. Raises DivergenceError on NaN loss.
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
    best_state = None
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
            if not np.isfinite(loss.item()):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            model.zero_grad()
            loss.backward()
            optimizer.step(lr)
            model.assert_stable()
            epoch_loss += loss.item() * len(batch)
            seen += len(batch)
        train_loss = epoch_loss / seen
        val_outputs = collect_outputs(model, val_ds, cfg.batch_size)
        val_loss = val_outputs.total_loss
        val_metric = validation_metric(model, val_outputs)
        history.append((epoch, lr, train_loss, val_loss, val_metric))
        if log:
            log(f"epoch {epoch:3d} lr={lr:.3e} train={train_loss:.4f} "
                f"val={val_loss:.4f} metric={val_metric:.4f}")
        if val_metric > best_metric:
            best_metric = val_metric
            best_epoch = epoch
            best_state = [(name, p.data.copy()) for name, p in model.named_parameters()]
        if val_loss < best_val_loss - 1e-12:
            best_val_loss = val_loss
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                stopped_early = True
                break
    if best_state is not None:
        params = dict(model.named_parameters())
        for name, data in best_state:
            params[name].data[...] = data
    return TrainResult(history=history, best_epoch=best_epoch, best_metric=best_metric,
                       stopped_early=stopped_early)
