"""Confusion-derived and ranking metrics, threshold selection, and the
class-conditional mean-adjacency analysis.

Zero-denominator conventions: precision/recall/F/G scores fall back to 0,
kappa falls back to 0 when expected agreement is 1. AUROC follows the
Mann-Whitney formulation (ties count one half); AUPRC is step-integrated
over descending distinct score thresholds (no trapezoids).
"""

from __future__ import annotations

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


def threshold_select_multilabel(scores: np.ndarray, labels: np.ndarray) -> list:
    """Independent per-class cutoffs for (n, C) score/label matrices."""
    return [threshold_select(scores[:, c], labels[:, c]) for c in range(scores.shape[1])]


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


def multiclass_report(scores, labels, n_classes: int) -> dict:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    pred = scores.argmax(axis=-1)
    per_class = {}
    f1s, aurocs = [], []
    for c in range(n_classes):
        conf = confusion_counts(pred == c, labels == c)
        f1, _ = fbeta_gbeta(conf, 1.0)
        entry = {"f1": f1, "support": int((labels == c).sum())}
        try:
            entry["auroc"], entry["auprc"] = auroc_auprc(scores[:, c], (labels == c).astype(int))
            aurocs.append(entry["auroc"])
        except MetricError:
            entry["auroc"] = None
        f1s.append(f1)
        per_class[str(c)] = entry
    matrix = np.zeros((n_classes, n_classes), dtype=int)
    for p, t in zip(pred, labels):
        matrix[t, p] += 1
    return {
        "task": "multiclass", "n_records": int(len(labels)),
        "macro_f1": float(np.mean(f1s)),
        "macro_auroc": float(np.mean(aurocs)) if aurocs else None,
        "kappa": cohen_kappa(pred, labels, n_classes),
        "per_class": per_class,
        "confusion_matrix": matrix.tolist(),
    }


def multilabel_report(scores, labels, thresholds) -> dict:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    n_classes = scores.shape[1]
    per_class = {}
    f1s, f2s, g2s, aurocs = [], [], [], []
    for c in range(n_classes):
        conf = confusion_counts(scores[:, c] >= thresholds[c], labels[:, c] == 1)
        f1, _ = fbeta_gbeta(conf, 1.0)
        f2, g2 = fbeta_gbeta(conf, 2.0)
        entry = {"f1": f1, "f2": f2, "g2": g2, "threshold": float(thresholds[c]),
                 "support": int(labels[:, c].sum())}
        try:
            entry["auroc"], entry["auprc"] = auroc_auprc(scores[:, c], labels[:, c])
            aurocs.append(entry["auroc"])
        except MetricError:
            entry["auroc"] = None
        f1s.append(f1)
        f2s.append(f2)
        g2s.append(g2)
        per_class[str(c)] = entry
    return {
        "task": "multilabel", "n_records": int(len(labels)),
        "macro_f1": float(np.mean(f1s)), "macro_f2": float(np.mean(f2s)),
        "macro_g2": float(np.mean(g2s)),
        "macro_auroc": float(np.mean(aurocs)) if aurocs else None,
        "per_class": per_class,
        "thresholds": [float(t) for t in thresholds],
    }


# -- adjacency analysis -------------------------------------------------------


def class_mean_adjacency(graphs, classes, correct) -> dict:
    """Per-class mean of all per-interval adjacency matrices over correctly
    predicted records. Classes with no correct prediction are absent."""
    out: dict[int, np.ndarray] = {}
    buckets: dict[int, list] = {}
    for g, c, ok in zip(graphs, classes, correct):
        if ok:
            buckets.setdefault(int(c), []).append(np.asarray(g).reshape(-1, g.shape[-2], g.shape[-1]))
    for c, mats in buckets.items():
        out[c] = np.concatenate(mats, axis=0).mean(axis=0)
    return out


def delta_stats(mean_a: np.ndarray, mean_b: np.ndarray) -> tuple[float, float]:
    """Mean and std of |A - B| over off-diagonal entries (self-edges excluded)."""
    diff = np.abs(np.asarray(mean_a) - np.asarray(mean_b))
    off = diff[~np.eye(diff.shape[0], dtype=bool)]
    return float(off.mean()), float(off.std())


def delta_permutation_test(graphs, classes, correct, class_a: int, class_b: int,
                           n_permutations: int, seed: int) -> dict:
    """Compare the observed between-class delta mean against label shuffles.

    p-value counts permutations whose delta mean reaches the observed one
    (add-one smoothed).
    """
    kept = [(np.asarray(g), int(c)) for g, c, ok in zip(graphs, classes, correct)
            if ok and int(c) in (class_a, class_b)]
    if not kept:
        raise MetricError("no correctly predicted records for the requested classes")
    mats = [g for g, _ in kept]
    labels = np.array([c for _, c in kept])
    if not ((labels == class_a).any() and (labels == class_b).any()):
        raise MetricError("both classes need at least one correct record")

    def observed_delta(lbls) -> float:
        mean_a = np.concatenate([m.reshape(-1, m.shape[-2], m.shape[-1])
                                 for m, l in zip(mats, lbls) if l == class_a]).mean(axis=0)
        mean_b = np.concatenate([m.reshape(-1, m.shape[-2], m.shape[-1])
                                 for m, l in zip(mats, lbls) if l == class_b]).mean(axis=0)
        return delta_stats(mean_a, mean_b)[0]

    obs = observed_delta(labels)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_permutations):
        perm = labels.copy()
        rng.shuffle(perm)
        if observed_delta(perm) >= obs:
            hits += 1
    return {
        "observed_delta_mean": obs,
        "p_value": (hits + 1) / (n_permutations + 1),
        "n_permutations": n_permutations,
    }
