"""Metric formulas against brute-force oracles and hand evaluations."""

import numpy as np
import pytest

from ssmgraph.metrics import (MetricError, auroc_auprc, binary_report,
                              class_mean_adjacency, cohen_kappa,
                              confusion_counts, delta_permutation_test,
                              delta_stats, fbeta_gbeta, multiclass_report,
                              multilabel_report, sensitivity_specificity,
                              threshold_select, threshold_select_multilabel)


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
        cuts = threshold_select_multilabel(scores, labels)
        for c in range(3):
            assert cuts[c] == threshold_select(scores[:, c], labels[:, c])


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
        cuts = threshold_select_multilabel(scores, labels)
        rep = multilabel_report(scores, labels, cuts)
        assert set(rep["per_class"]) == {"0", "1", "2", "3"}
        assert rep["macro_f1"] == np.mean([rep["per_class"][str(c)]["f1"] for c in range(4)])


class TestSensitivitySpecificity:
    def test_values(self):
        conf = {"tp": 8, "fp": 2, "fn": 2, "tn": 8}
        sens, spec = sensitivity_specificity(conf)
        assert sens == 0.8 and spec == 0.8


class TestAdjacencyAnalysis:
    def test_identical_graphs_delta_zero(self, rng):
        g = rng.uniform(size=(2, 4, 4))
        means = class_mean_adjacency([g, g], [0, 1], [True, True])
        d_mean, d_std = delta_stats(means[0], means[1])
        assert d_mean == 0.0 and d_std == 0.0

    def test_single_record_mean_is_that_record(self, rng):
        g0 = rng.uniform(size=(3, 4, 4))
        g1 = rng.uniform(size=(3, 4, 4))
        means = class_mean_adjacency([g0, g1], [0, 1], [True, True])
        np.testing.assert_allclose(means[0], g0.mean(axis=0))
        np.testing.assert_allclose(means[1], g1.mean(axis=0))

    def test_incorrect_records_excluded_and_absent_class(self, rng):
        g = rng.uniform(size=(1, 3, 3))
        means = class_mean_adjacency([g, g], [0, 1], [True, False])
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
        res = delta_permutation_test(graphs, classes, [True] * 20, 0, 1,
                                     n_permutations=200, seed=0)
        assert res["p_value"] < 0.05

    def test_permutation_test_null_not_significant(self, rng):
        graphs = [rng.uniform(size=(1, 4, 4)) for _ in range(20)]
        classes = [i % 2 for i in range(20)]
        res = delta_permutation_test(graphs, classes, [True] * 20, 0, 1,
                                     n_permutations=200, seed=0)
        assert res["p_value"] > 0.05

    def test_no_correct_records_raises(self):
        with pytest.raises(MetricError):
            delta_permutation_test([np.ones((1, 2, 2))], [0], [False], 0, 1, 10, 0)
