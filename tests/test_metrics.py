"""Metric formulas against brute-force oracles and hand evaluations."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from ssmgraph.metrics import (MetricError, adjacency_analysis, auroc_auprc,
                              binary_report, cohen_kappa, confusion_counts,
                              delta_stats, fbeta_gbeta, multiclass_report,
                              multilabel_report, sensitivity_specificity,
                              threshold_select)
from ssmgraph.train import EvalOutputs, predictions_correct, select_thresholds


def sigmoid_outputs(task, scores, labels):
    """A stand-in model of ``task`` and its outputs for the train helpers."""
    model = SimpleNamespace(cfg=SimpleNamespace(task=task))
    return model, EvalOutputs(scores=scores, labels=labels, graphs=[], record_ids=[],
                              total_loss=0.0)


def auroc_bruteforce(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def auprc_bruteforce(scores, labels):
    # step integration over descending distinct thresholds
    out = 0.0
    recall_prev = 0.0
    n_pos = (labels == 1).sum()
    for cut in sorted(set(scores), reverse=True):
        pred = scores >= cut
        tp = int((pred & (labels == 1)).sum())
        fp = int((pred & (labels == 0)).sum())
        precision = tp / (tp + fp)
        recall = tp / n_pos
        out += (recall - recall_prev) * precision
        recall_prev = recall
    return out


class TestAuroc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        auroc, auprc = auroc_auprc(scores, labels)
        assert auroc == 1.0
        assert auprc == 1.0

    def test_all_ties_half(self):
        scores = np.full(10, 0.5)
        labels = np.array([0, 1] * 5)
        auroc, _ = auroc_auprc(scores, labels)
        assert auroc == 0.5

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 51))
            # duplicated score values exercise tie handling
            scores = np.round(rng.normal(size=n), 1)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            auroc, auprc = auroc_auprc(scores, labels)
            np.testing.assert_allclose(auroc, auroc_bruteforce(scores, labels), atol=1e-12)
            np.testing.assert_allclose(auprc, auprc_bruteforce(scores, labels), atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auroc_auprc(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_labels_outside_binary_rejected(self):
        # a 5-class label column scored as binary
        with pytest.raises(MetricError):
            auroc_auprc(np.array([0.9, 0.5, 0.1]), np.array([2, 1, 0]))
        with pytest.raises(MetricError):
            threshold_select(np.array([0.9, 0.5, 0.1]), np.array([2, 1, 0]))


class TestFbetaGbeta:
    def test_perfect_classifier(self):
        conf = {"tp": 10, "fp": 0, "fn": 0, "tn": 5}
        for beta in (0.5, 1.0, 2.0):
            f, g = fbeta_gbeta(conf, beta)
            assert f == 1.0 and g == 1.0

    def test_hand_case_beta2(self):
        # TP=6 FP=2 FN=4: P=0.75, R=0.6 -> F2=0.625, G2=6/16=0.375
        conf = {"tp": 6, "fp": 2, "fn": 4, "tn": 0}
        f2, g2 = fbeta_gbeta(conf, 2.0)
        np.testing.assert_allclose(f2, 0.625, atol=1e-12)
        np.testing.assert_allclose(g2, 0.375, atol=1e-12)

    def test_zero_tp_convention(self):
        f, g = fbeta_gbeta({"tp": 0, "fp": 3, "fn": 2, "tn": 1}, 1.0)
        assert f == 0.0 and g == 0.0

    def test_1000_random_tables_match_direct_formula(self, rng):
        for _ in range(1000):
            tp, fp, fn = (int(v) for v in rng.integers(0, 30, size=3))
            beta = float(rng.uniform(0.5, 3.0))
            conf = {"tp": tp, "fp": fp, "fn": fn, "tn": 0}
            f, g = fbeta_gbeta(conf, beta)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f_direct = ((1 + beta ** 2) * p * r / (beta ** 2 * p + r)
                        if beta ** 2 * p + r > 0 else 0.0)
            g_direct = tp / (tp + fp + beta * fn) if tp + fp + beta * fn > 0 else 0.0
            np.testing.assert_allclose(f, f_direct, atol=1e-12)
            np.testing.assert_allclose(g, g_direct, atol=1e-12)


class TestKappa:
    def test_perfect_agreement(self):
        y = np.array([0, 1, 2, 1, 0])
        assert cohen_kappa(y, y, 3) == 1.0

    def test_hand_confusion(self):
        # [[45, 5], [15, 35]]: p_o = 0.8, p_e = 0.5 -> kappa = 0.6
        truth = np.array([0] * 50 + [1] * 50)
        pred = np.array([0] * 45 + [1] * 5 + [0] * 15 + [1] * 35)
        np.testing.assert_allclose(cohen_kappa(pred, truth, 2), 0.6, atol=1e-12)

    def test_independent_predictions_near_zero(self):
        rng = np.random.default_rng(0)
        n = 10 ** 5
        truth = rng.integers(0, 2, size=n)
        pred = rng.integers(0, 2, size=n)
        assert abs(cohen_kappa(pred, truth, 2)) < 0.02


class TestThresholdSelect:
    def test_separable_lowest_midpoint_in_gap(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        cut = threshold_select(scores, labels)
        assert cut == 0.5  # the only midpoint achieving F1 = 1

    def test_matches_exhaustive_scan(self, rng):
        for _ in range(50):
            scores = np.round(rng.uniform(size=15), 2)
            labels = rng.integers(0, 2, size=15)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            cut = threshold_select(scores, labels)
            distinct = np.unique(scores)
            mids = (distinct[:-1] + distinct[1:]) / 2

            def f1_at(c):
                conf = confusion_counts(scores >= c, labels == 1)
                return fbeta_gbeta(conf, 1.0)[0]

            best = max(f1_at(c) for c in mids)
            np.testing.assert_allclose(f1_at(cut), best, atol=1e-12)
            ties = [c for c in mids if abs(f1_at(c) - best) < 1e-12]
            assert cut == min(ties)  # lowest-cutoff tie rule

    def test_multilabel_per_class_independent(self, rng):
        scores = rng.uniform(size=(20, 3))
        labels = rng.integers(0, 2, size=(20, 3))
        labels[0] = [1, 1, 1]
        labels[1] = [0, 0, 0]
        cuts = select_thresholds(*sigmoid_outputs("multilabel", scores, labels))
        for c in range(3):
            assert cuts[c] == threshold_select(scores[:, c], labels[:, c])

    def test_binary_is_one_sigmoid_column(self, rng):
        scores = np.round(rng.uniform(size=20), 1)
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        model, outputs = sigmoid_outputs("binary", scores, labels)
        cuts = select_thresholds(model, outputs)
        assert cuts == [threshold_select(scores, labels)]
        column = sigmoid_outputs("multilabel", scores[:, None], labels[:, None])
        assert select_thresholds(*column) == cuts
        np.testing.assert_array_equal(predictions_correct(model, outputs, cuts),
                                      (scores >= cuts[0]) == (labels == 1))
        np.testing.assert_array_equal(predictions_correct(*column, cuts),
                                      predictions_correct(model, outputs, cuts))


class TestReports:
    def test_binary_report_fields(self, rng):
        scores = rng.uniform(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        rep = binary_report(scores, labels, threshold=0.5)
        for key in ("auroc", "auprc", "f1", "f2", "g2", "sensitivity",
                    "specificity", "kappa", "confusion"):
            assert key in rep
        conf = rep["confusion"]
        assert conf["tp"] + conf["fp"] + conf["fn"] + conf["tn"] == 40

    def test_multiclass_report(self, rng):
        scores = rng.uniform(size=(30, 3))
        labels = rng.integers(0, 3, size=30)
        rep = multiclass_report(scores, labels, 3)
        assert 0.0 <= rep["macro_f1"] <= 1.0
        assert np.array(rep["confusion_matrix"]).sum() == 30

    def test_multilabel_report(self, rng):
        scores = rng.uniform(size=(30, 4))
        labels = rng.integers(0, 2, size=(30, 4))
        labels[0] = 1
        labels[1] = 0
        cuts = [threshold_select(scores[:, c], labels[:, c]) for c in range(4)]
        rep = multilabel_report(scores, labels, cuts)
        assert set(rep["per_class"]) == {"0", "1", "2", "3"}
        assert rep["macro_f1"] == np.mean([rep["per_class"][str(c)]["f1"] for c in range(4)])

    def test_single_label_class_left_out_of_macro_auroc(self, rng):
        scores = rng.uniform(size=(12, 3))
        labels = np.arange(12) % 2  # class 2 never occurs
        for rep in (multiclass_report(scores, labels, 3),
                    multilabel_report(scores, np.stack([labels, 1 - labels, labels * 0], axis=1),
                                      [0.5] * 3)):
            per_class = rep["per_class"]
            assert per_class["2"]["auroc"] is None and per_class["2"]["support"] == 0
            assert rep["macro_auroc"] == np.mean([per_class[c]["auroc"] for c in "01"])
            assert rep["macro_f1"] == np.mean([per_class[c]["f1"] for c in "012"])


class TestSensitivitySpecificity:
    def test_values(self):
        conf = {"tp": 8, "fp": 2, "fn": 2, "tn": 8}
        sens, spec = sensitivity_specificity(conf)
        assert sens == 0.8 and spec == 0.8


def class_means(graphs, classes, correct) -> dict:
    return adjacency_analysis(graphs, classes, correct, n_permutations=0, seed=0)[0]


def class_means_direct(graphs, classes) -> dict:
    """Each class's mean of its records' per-interval matrices, concatenated
    record by record in order."""
    buckets: dict[int, list] = {}
    for g, c in zip(graphs, classes):
        buckets.setdefault(int(c), []).append(g.reshape(-1, *g.shape[-2:]))
    return {c: np.concatenate(mats, axis=0).mean(axis=0) for c, mats in buckets.items()}


def adjacency_direct(graphs, classes, correct, n_permutations, seed):
    """Oracle for ``adjacency_analysis`` from per-record lists: the class
    means of the correct records, and for each class pair the means rebuilt
    from that pair's records after every shuffle of their labels."""
    kept = [(g, int(c)) for g, c, ok in zip(graphs, classes, correct) if ok]
    means = class_means_direct([g for g, _ in kept], [c for _, c in kept])
    table = {}
    for a, b in itertools.combinations(sorted(means), 2):
        mats = [g for g, c in kept if c in (a, b)]
        labels = np.array([c for _, c in kept if c in (a, b)])

        def delta(lbls):
            pair_means = class_means_direct(mats, lbls)
            return delta_stats(pair_means[a], pair_means[b])[0]

        observed = delta(labels)
        rng = np.random.default_rng(seed)
        hits = 0
        for _ in range(n_permutations):
            perm = labels.copy()
            rng.shuffle(perm)
            hits += delta(perm) >= observed
        d_mean, d_std = delta_stats(means[a], means[b])
        table[f"{a}-{b}"] = {"delta_mean": d_mean, "delta_std": d_std,
                             "p_value": (hits + 1) / (n_permutations + 1),
                             "n_permutations": n_permutations}
    return means, table


class TestAdjacencyAnalysis:
    def test_identical_graphs_delta_zero(self, rng):
        g = rng.uniform(size=(2, 4, 4))
        means = class_means([g, g], [0, 1], [True, True])
        d_mean, d_std = delta_stats(means[0], means[1])
        assert d_mean == 0.0 and d_std == 0.0

    def test_single_record_mean_is_that_record(self, rng):
        g0 = rng.uniform(size=(3, 4, 4))
        g1 = rng.uniform(size=(3, 4, 4))
        means = class_means([g0, g1], [0, 1], [True, True])
        np.testing.assert_allclose(means[0], g0.mean(axis=0))
        np.testing.assert_allclose(means[1], g1.mean(axis=0))

    def test_incorrect_records_excluded_and_absent_class(self, rng):
        g = rng.uniform(size=(1, 3, 3))
        means = class_means([g, g], [0, 1], [True, False])
        assert 0 in means and 1 not in means

    def test_diagonal_excluded_from_delta(self):
        a = np.eye(3) * 100.0
        b = np.zeros((3, 3))
        d_mean, _ = delta_stats(a, b)
        assert d_mean == 0.0  # only off-diagonal entries count

    def test_permutation_test_detects_structure(self, rng):
        # class 0: near-diagonal graphs; class 1: dense block
        graphs, classes = [], []
        for i in range(20):
            base = np.eye(4) * 0.5
            if i % 2 == 1:
                base = base + 0.4
            graphs.append((base + rng.normal(0, 0.01, size=(4, 4)))[None])
            classes.append(i % 2)
        _, table = adjacency_analysis(graphs, classes, [True] * 20,
                                      n_permutations=200, seed=0)
        assert table["0-1"]["p_value"] < 0.05

    def test_permutation_test_null_not_significant(self, rng):
        graphs = [rng.uniform(size=(1, 4, 4)) for _ in range(20)]
        classes = [i % 2 for i in range(20)]
        _, table = adjacency_analysis(graphs, classes, [True] * 20,
                                      n_permutations=200, seed=0)
        assert table["0-1"]["p_value"] > 0.05

    def test_no_correct_records_gives_no_means_and_empty_table(self):
        assert adjacency_analysis([np.ones((1, 2, 2))] * 2, [0, 1], [False, False],
                                  n_permutations=10, seed=0) == ({}, {})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_record_oracle(self, rng, dtype):
        # 3 graphs per record, shifted by class; class 3 has one correct
        # record (so some shuffles leave its pair unchanged, a tie that counts
        # as a hit) and class 4 none
        classes = np.r_[rng.integers(0, 3, size=36), 3, 3, 4, 4]
        graphs = [(rng.uniform(size=(3, 5, 5)) + 0.05 * c).astype(dtype) for c in classes]
        correct = (rng.uniform(size=40) < 0.8) & (classes != 4)
        correct[-4:-2] = [True, False]
        means, table = adjacency_analysis(graphs, classes, correct, n_permutations=50, seed=4)
        ref_means, ref_table = adjacency_direct(graphs, classes, correct, 50, seed=4)
        assert sorted(means) == sorted(ref_means) == [0, 1, 2, 3]
        for c in ref_means:
            assert means[c].dtype == dtype
            np.testing.assert_array_equal(means[c], ref_means[c])
        assert table == ref_table
        assert {e["p_value"] < 0.05 for e in table.values()} == {True, False}
