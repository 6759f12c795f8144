"""Confusion-derived and ranking metrics, threshold selection, and the
learned-graph analysis: ``adjacency_analysis`` stacks the correctly
predicted records' graphs once, takes each class's mean adjacency from that
stack, and runs every class pair's permutation test on the same stack.

Zero-denominator conventions: precision/recall/F/G scores fall back to 0,
kappa falls back to 0 when expected agreement is 1. AUROC follows the
Mann-Whitney formulation (ties count one half); AUPRC is step-integrated
over descending distinct score thresholds (no trapezoids).
"""

from __future__ import annotations

import itertools

import numpy as np


class MetricError(ValueError):
    """Metric undefined for the given inputs (e.g. single-class AUROC)."""


def confusion_counts(pred: np.ndarray, truth: np.ndarray) -> dict:
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    return {
        "tp": int(np.sum(pred & truth)),
        "fp": int(np.sum(pred & ~truth)),
        "fn": int(np.sum(~pred & truth)),
        "tn": int(np.sum(~pred & ~truth)),
    }


def fbeta_gbeta(confusion: dict, beta: float) -> tuple[float, float]:
    """F_beta = (1+b^2) P R / (b^2 P + R);  G_beta = TP / (TP + FP + b*FN)."""
    tp, fp, fn = confusion["tp"], confusion["fp"], confusion["fn"]
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    denom = beta * beta * precision + recall
    fbeta = (1 + beta * beta) * precision * recall / denom if denom > 0 else 0.0
    gdenom = tp + fp + beta * fn
    gbeta = tp / gdenom if gdenom > 0 else 0.0
    return fbeta, gbeta


def sensitivity_specificity(confusion: dict) -> tuple[float, float]:
    tp, fp, fn, tn = (confusion[k] for k in ("tp", "fp", "fn", "tn"))
    sens = tp / (tp + fn) if tp + fn > 0 else 0.0
    spec = tn / (tn + fp) if tn + fp > 0 else 0.0
    return sens, spec


def _ranked_counts(scores, labels):
    """Distinct scores in descending order, each with the cumulative true-
    and false-positive counts of predicting positive at score >= it."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if not np.isin(labels, (0, 1)).all():
        raise MetricError("binary labels must be 0 or 1")
    order = np.argsort(-scores, kind="mergesort")
    ranked, y = scores[order], labels.astype(int)[order]
    last = np.ones(len(ranked), dtype=bool)   # last position of each run of ties
    last[:-1] = ranked[1:] != ranked[:-1]
    return ranked[last], np.cumsum(y)[last], np.cumsum(1 - y)[last]


def auroc_auprc(scores, labels) -> tuple[float, float]:
    """AUROC as P(random positive outranks random negative, ties half) and
    AUPRC as step-wise average precision over descending thresholds."""
    _, tp, fp = _ranked_counts(scores, labels)
    n_pos, n_neg = (int(tp[-1]), int(fp[-1])) if len(tp) else (0, 0)
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUROC/AUPRC need at least one positive and one negative")
    # trapezoids under the ROC staircase; twice the area is an integer, and
    # a tie group's half-counted pairs are exactly the Mann-Whitney ties
    tp0, fp0 = np.r_[0, tp], np.r_[0, fp]
    twice_u = int(np.sum(np.diff(fp0) * (tp0[1:] + tp0[:-1])))
    auroc = twice_u / (2.0 * n_pos * n_neg)
    # summed in threshold order, one term per tie group
    auprc = np.cumsum(np.diff(tp0 / n_pos) * (tp / (tp + fp)))[-1]
    return float(auroc), float(auprc)


def cohen_kappa(pred, truth, n_classes: int) -> float:
    pred = np.asarray(pred).astype(int)
    truth = np.asarray(truth).astype(int)
    if pred.shape != truth.shape:
        raise MetricError("pred and truth must align")
    n = len(pred)
    p_obs = float((pred == truth).mean())
    p_exp = 0.0
    for c in range(n_classes):
        p_exp += float((pred == c).mean()) * float((truth == c).mean())
    if p_exp >= 1.0:
        return 0.0
    return (p_obs - p_exp) / (1.0 - p_exp)


def threshold_select(scores, labels) -> float:
    """F1-maximizing cutoff over all distinct-score midpoints (predict
    positive at score >= cutoff); ties resolve to the lowest cutoff."""
    distinct, tp, fp = _ranked_counts(scores, labels)
    if len(distinct) < 2:
        return float(distinct[0]) if len(distinct) else 0.0
    # cutoff k lies between distinct[k] and distinct[k + 1]; F1 = 2tp / (tp + fp + P)
    f1 = 2 * tp[:-1] / (tp[:-1] + fp[:-1] + tp[-1])
    k = len(f1) - 1 - int(np.argmax(f1[::-1]))
    return float((distinct[k] + distinct[k + 1]) / 2.0)


# -- report assembly ---------------------------------------------------------


def binary_report(scores, labels, threshold: float) -> dict:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).astype(int).ravel()
    auroc, auprc = auroc_auprc(scores, labels)
    pred = scores >= threshold
    conf = confusion_counts(pred, labels == 1)
    f1, _ = fbeta_gbeta(conf, 1.0)
    f2, g2 = fbeta_gbeta(conf, 2.0)
    sens, spec = sensitivity_specificity(conf)
    return {
        "task": "binary", "n_records": int(len(labels)), "threshold": float(threshold),
        "auroc": auroc, "auprc": auprc, "f1": f1, "f2": f2, "g2": g2,
        "sensitivity": sens, "specificity": spec,
        "kappa": cohen_kappa(pred.astype(int), labels, 2),
        "confusion": conf,
    }


def _class_entry(scores, truth, pred) -> dict:
    """One class's F1 and support, with AUROC/AUPRC when both labels occur
    (AUROC None otherwise); ``truth`` and ``pred`` are boolean."""
    f1, _ = fbeta_gbeta(confusion_counts(pred, truth), 1.0)
    entry = {"f1": f1, "support": int(truth.sum())}
    try:
        entry["auroc"], entry["auprc"] = auroc_auprc(scores, truth.astype(int))
    except MetricError:
        entry["auroc"] = None
    return entry


def _macro(per_class: dict, key: str):
    """Mean of the entries' ``key`` over the classes that have one; None if none."""
    values = [entry[key] for entry in per_class.values() if entry[key] is not None]
    return float(np.mean(values)) if values else None


def multiclass_report(scores, labels, n_classes: int) -> dict:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    pred = scores.argmax(axis=-1)
    per_class = {str(c): _class_entry(scores[:, c], labels == c, pred == c)
                 for c in range(n_classes)}
    matrix = np.zeros((n_classes, n_classes), dtype=int)
    for p, t in zip(pred, labels):
        matrix[t, p] += 1
    return {
        "task": "multiclass", "n_records": int(len(labels)),
        "macro_f1": _macro(per_class, "f1"),
        "macro_auroc": _macro(per_class, "auroc"),
        "kappa": cohen_kappa(pred, labels, n_classes),
        "per_class": per_class,
        "confusion_matrix": matrix.tolist(),
    }


def multilabel_report(scores, labels, thresholds) -> dict:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    per_class = {}
    for c in range(scores.shape[1]):
        truth, pred = labels[:, c] == 1, scores[:, c] >= thresholds[c]
        entry = _class_entry(scores[:, c], truth, pred)
        entry["f2"], entry["g2"] = fbeta_gbeta(confusion_counts(pred, truth), 2.0)
        entry["threshold"] = float(thresholds[c])
        per_class[str(c)] = entry
    return {
        "task": "multilabel", "n_records": int(len(labels)),
        "macro_f1": _macro(per_class, "f1"), "macro_f2": _macro(per_class, "f2"),
        "macro_g2": _macro(per_class, "g2"),
        "macro_auroc": _macro(per_class, "auroc"),
        "per_class": per_class,
        "thresholds": [float(t) for t in thresholds],
    }


# -- adjacency analysis -------------------------------------------------------


def _mean_adjacency(stack: np.ndarray, select) -> np.ndarray:
    """Mean of every per-interval matrix of the selected records of a
    (k, n_d, N, N) stack: one (k_selected * n_d, N, N) mean over axis 0."""
    return stack[select].reshape(-1, *stack.shape[-2:]).mean(axis=0)


def delta_stats(mean_a: np.ndarray, mean_b: np.ndarray) -> tuple[float, float]:
    """Mean and std of |A - B| over off-diagonal entries (self-edges excluded)."""
    diff = np.abs(np.asarray(mean_a) - np.asarray(mean_b))
    off = diff[~np.eye(diff.shape[0], dtype=bool)]
    return float(off.mean()), float(off.std())


def adjacency_analysis(graphs, classes, correct, n_permutations: int,
                       seed: int) -> tuple[dict, dict]:
    """Class-mean adjacency of the correctly predicted records, and the delta
    table of every pair of classes that has one.

    ``graphs`` holds each record's (n_d, N, N) graphs, with one n_d for all.
    The means map class -> (N, N); classes with no correct record are absent.
    The table maps "a-b" to ``delta_mean`` and ``delta_std`` (``delta_stats``
    of the two means) and a permutation test of ``delta_mean``: each of
    ``n_permutations`` shuffles of the pair's labels (one ``default_rng(seed)``
    per pair) counts as a hit when its delta mean reaches the observed one,
    and ``p_value`` is (hits + 1) / (n_permutations + 1).
    """
    keep = np.flatnonzero(np.asarray(correct, dtype=bool))
    if not len(keep):
        return {}, {}
    stack = np.stack([graphs[i] for i in keep])
    labels = np.asarray(classes).astype(int)[keep]
    means = {int(c): _mean_adjacency(stack, labels == c) for c in np.unique(labels)}
    table = {}
    for a, b in itertools.combinations(sorted(means), 2):
        d_mean, d_std = delta_stats(means[a], means[b])
        pair = (labels == a) | (labels == b)
        pair_stack, pair_labels = stack[pair], labels[pair]
        rng = np.random.default_rng(seed)
        hits = 0
        for _ in range(n_permutations):
            perm = pair_labels.copy()
            rng.shuffle(perm)
            hits += delta_stats(_mean_adjacency(pair_stack, perm == a),
                                _mean_adjacency(pair_stack, perm == b))[0] >= d_mean
        table[f"{a}-{b}"] = {"delta_mean": d_mean, "delta_std": d_std,
                             "p_value": (hits + 1) / (n_permutations + 1),
                             "n_permutations": n_permutations}
    return means, table
