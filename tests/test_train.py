"""Optimizer closed forms, schedule boundaries, and training-loop contracts."""

import numpy as np
import pytest

from ssmgraph.config import OptimConfig
from ssmgraph.data import DatasetSpec, generate, stratified_split
from ssmgraph.gnn import PoolSpec
from ssmgraph.graphlearn import GslConfig, RegWeights
from ssmgraph.model import ModelConfig, build_model
from ssmgraph.optim import AdamW, DivergenceError, cosine_warmup_lr
from ssmgraph.tensor import Tensor
from ssmgraph.train import build_report, collect_outputs, select_thresholds, train_loop


class TestAdamW:
    def test_zero_grad_decay_only(self):
        p = Tensor(np.array([2.0, -4.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = AdamW([("p", p)], lr=0.1, weight_decay=0.01)
        opt.step()
        np.testing.assert_allclose(p.data, [2.0 * 0.999, -4.0 * 0.999], atol=1e-15)

    def test_missing_grad_decay_only(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([("p", p)], lr=0.1, weight_decay=0.01)
        opt.step()
        np.testing.assert_allclose(p.data, [0.999])

    def test_first_step_bias_correction(self):
        # with bias correction, the first step moves by ~lr regardless of g scale
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([0.3])
        opt = AdamW([("p", p)], lr=0.05, weight_decay=0.0)
        opt.step()
        np.testing.assert_allclose(p.data, [-0.05 * 0.3 / (0.3 + 1e-8)], rtol=1e-10)

    def test_nan_grad_aborts_before_mutation(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        q = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        q.grad = np.array([0.1])
        opt = AdamW([("p", p), ("q", q)], lr=0.1, weight_decay=0.01)
        with pytest.raises(DivergenceError, match="'p'"):
            opt.step()
        np.testing.assert_allclose(p.data, [1.0])  # nothing was touched
        np.testing.assert_allclose(q.data, [2.0])


class TestCosineWarmup:
    def test_warmup_boundary_hits_base(self):
        assert cosine_warmup_lr(5, 50, 5, 1e-3) == 1e-3

    @pytest.mark.parametrize("epochs, warmup", [(1, 0), (5, 5), (30, 0), (50, 5)])
    def test_every_epoch_trains(self, epochs, warmup):
        lrs = [cosine_warmup_lr(e, epochs, warmup, 1e-3) for e in range(1, epochs + 1)]
        peak = max(warmup, 1)
        assert lrs[:peak - 1] == [1e-3 * e / warmup for e in range(1, peak)]
        assert lrs[peak - 1] == 1e-3
        assert all(a >= b > 0 for a, b in zip(lrs[peak - 1:], lrs[peak:]))

    def test_linear_ramp(self):
        np.testing.assert_allclose(cosine_warmup_lr(2, 50, 5, 1.0), 0.4)

    def test_monotone_decay_after_warmup(self):
        lrs = [cosine_warmup_lr(e, 30, 5, 1.0) for e in range(5, 31)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_epoch_bounds(self):
        with pytest.raises(ValueError):
            cosine_warmup_lr(0, 10, 2, 1.0)


def tiny_model(seed=0, **overrides):
    base = dict(
        n_sensors=3, input_dim=1, d_model=8, s4_depth=1, p_states=3,
        gsl=GslConfig(r=16, knn_k=1, epsilon=0.3, kappa=0.05, heads=1),
        reg=RegWeights(0.01, 0.01, 0.01), pool=PoolSpec("mean", "mean"),
        n_classes=1, task="binary", dt_min=0.01, dt_max=0.3,
    )
    base.update(overrides)
    return build_model(ModelConfig(**base), seed=seed)


def tiny_data(size=24, seed=5):
    ds = generate(DatasetSpec(kind="correlation", n_sensors=3, t_len=64,
                              size=size, seed=seed, clique_corr=0.95))
    return stratified_split(ds, [0.7, 0.3], seed=1)


def labelled_data(task, n_classes, size=24, seed=3):
    """Random (3, 32, 1) records with binary, class-index or multi-hot labels."""
    from ssmgraph.data import Dataset, SignalRecord
    rng = np.random.default_rng(seed)
    records = []
    for i in range(size):
        if task == "multilabel":
            y = rng.integers(0, 2, size=n_classes)
            y[i % n_classes] = i % 2  # both labels in every class column
        else:
            y = i % max(n_classes, 2)
        records.append(SignalRecord(x=rng.normal(size=(3, 32, 1)), y=y,
                                    mask=np.ones(32, dtype=bool), true_length=32,
                                    record_id=f"r{i}"))
    return (Dataset(records=records[:16], task=task, n_classes=max(n_classes, 2)),
            Dataset(records=records[16:], task=task, n_classes=max(n_classes, 2)))


class TestTrainLoop:
    def test_zero_lr_zero_wd_parameters_frozen(self):
        model = tiny_model()
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        train, val = tiny_data()
        cfg = OptimConfig(lr=0.0, weight_decay=0.0, epochs=2, warmup_epochs=0,
                          batch_size=8, patience=20)
        train_loop(model, train, val, cfg, seed=0)
        for n, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[n])

    def test_loss_decreases_on_separable_task(self):
        # two classes separated by a strong mean shift: trivially learnable
        rng = np.random.default_rng(0)
        from ssmgraph.data import Dataset, SignalRecord
        records = []
        for i in range(32):
            label = i % 2
            x = rng.normal(size=(3, 32, 1)) + (3.0 if label else -3.0)
            records.append(SignalRecord(x=x, y=label, mask=np.ones(32, dtype=bool),
                                        true_length=32, record_id=f"s{i}"))
        ds = Dataset(records=records, task="binary", n_classes=2)
        train, val = stratified_split(ds, [0.75, 0.25], seed=0)
        model = tiny_model(gsl=GslConfig(r=32, knn_k=1, epsilon=0.3, kappa=0.05, heads=1))
        cfg = OptimConfig(lr=5e-3, weight_decay=0.0, epochs=5, warmup_epochs=1,
                          batch_size=8, patience=20)
        result = train_loop(model, train, val, cfg, seed=0)
        losses = [row[2] for row in result.history]
        assert losses[-1] < losses[0]
        assert all(b < a * 1.05 for a, b in zip(losses, losses[1:]))  # mostly decreasing

    def test_patience_counter_contract(self):
        model = tiny_model()
        train, val = tiny_data()
        # lr=0 means validation loss never decreases after epoch 1
        cfg = OptimConfig(lr=0.0, weight_decay=0.0, epochs=50, warmup_epochs=0,
                          batch_size=8, patience=3)
        result = train_loop(model, train, val, cfg, seed=0)
        assert result.stopped_early
        # epoch 1 sets the baseline; exactly 3 non-improving epochs follow
        assert len(result.history) == 1 + 3

    def test_best_metric_at_least_every_epoch(self):
        model = tiny_model()
        train, val = tiny_data(size=30)
        cfg = OptimConfig(lr=2e-3, weight_decay=0.0, epochs=4, warmup_epochs=1,
                          batch_size=8, patience=20)
        result = train_loop(model, train, val, cfg, seed=0)
        metrics = [row[4] for row in result.history]
        assert result.best_metric == max(metrics) == metrics[result.best_epoch - 1]
        # restored parameters reproduce the best epoch's thresholds and report
        outputs = collect_outputs(model, val, cfg.batch_size)
        assert select_thresholds(model, outputs) == result.thresholds
        assert build_report(model, outputs, result.thresholds) == result.report

    @pytest.mark.parametrize("task, n_classes, key", [("binary", 1, "auroc"),
                                                      ("multiclass", 3, "macro_f1"),
                                                      ("multilabel", 3, "macro_auroc")])
    def test_selection_metric_is_report_headline(self, task, n_classes, key):
        train, val = labelled_data(task, n_classes)
        model = tiny_model(task=task, n_classes=n_classes)
        cfg = OptimConfig(lr=2e-3, weight_decay=0.0, epochs=3, warmup_epochs=1,
                          batch_size=8, patience=20)
        result = train_loop(model, train, val, cfg, seed=0)
        assert result.report["task"] == task
        assert result.report[key] == result.best_metric == result.history[result.best_epoch - 1][4]

    def test_multilabel_without_two_label_class_selects_by_zero(self):
        train, val = labelled_data("multilabel", 3)
        for rec in val.records:
            rec.y = np.array([1, 0, 0])  # every class column is constant
        model = tiny_model(task="multilabel", n_classes=3)
        cfg = OptimConfig(lr=2e-3, weight_decay=0.0, epochs=2, warmup_epochs=1,
                          batch_size=8, patience=20)
        result = train_loop(model, train, val, cfg, seed=0)
        assert result.report["macro_auroc"] is None
        assert [row[4] for row in result.history] == [0.0, 0.0]
        assert result.best_metric == 0.0 and result.best_epoch == 1

    def test_val_loss_is_batch_weighted_mean(self):
        from ssmgraph.data import collate
        from ssmgraph.tensor import no_grad

        model = tiny_model()
        train, val = tiny_data()
        val.records = val.records[:3]  # batch size 2 does not divide 3 records
        # lr=0, wd=0: the restored model is the one that was validated
        cfg = OptimConfig(lr=0.0, weight_decay=0.0, epochs=1, warmup_epochs=0,
                          batch_size=2, patience=20)
        result = train_loop(model, train, val, cfg, seed=0)
        total = 0.0
        with no_grad():
            for batch in (val.records[:2], val.records[2:]):
                x, y, mask = collate(batch)
                total += model.total_loss(model.forward(x, mask=mask), y).item() * len(batch)
        assert result.history[0][3] == pytest.approx(total / 3, rel=1e-12)

    def test_history_csv_format(self):
        model = tiny_model()
        train, val = tiny_data()
        cfg = OptimConfig(lr=1e-3, epochs=2, warmup_epochs=0, batch_size=8, patience=20)
        result = train_loop(model, train, val, cfg, seed=0)
        lines = result.history_csv().strip().split("\n")
        assert lines[0] == "epoch,lr,train_loss,val_loss,val_metric"
        assert len(lines) == 3

    def test_empty_dataset_rejected(self):
        from ssmgraph.data import Dataset
        model = tiny_model()
        empty = Dataset(records=[], task="binary", n_classes=2)
        _, val = tiny_data()
        with pytest.raises(ValueError):
            train_loop(model, empty, val, OptimConfig(), seed=0)


class TestTrainLoopReleases:
    """What a finished step or epoch built is freed by reference counting,
    with the cyclic collector off, before the work that follows it starts."""

    @pytest.fixture
    def tracked_run(self, monkeypatch):
        import gc
        import weakref

        from ssmgraph import train
        from ssmgraph.model import SsmGraphModel

        losses, outputs = [], []   # weakrefs to each loss's data and each EvalOutputs
        at_forward, at_collect = [], []   # (losses alive, outputs alive) at each call
        total_loss, forward = SsmGraphModel.total_loss, SsmGraphModel.forward
        collect = train.collect_outputs

        def alive():
            return (sum(r() is not None for r in losses),
                    sum(r() is not None for r in outputs))

        def tracked_loss(self, out, y):
            loss = total_loss(self, out, y)
            losses.append(weakref.ref(loss.data))
            return loss

        def tracked_forward(self, *args, **kwargs):
            at_forward.append(alive())
            return forward(self, *args, **kwargs)

        def tracked_collect(*args, **kwargs):
            at_collect.append(alive())
            result = collect(*args, **kwargs)
            outputs.extend((weakref.ref(result), weakref.ref(result.graphs[0])))
            return result

        monkeypatch.setattr(SsmGraphModel, "total_loss", tracked_loss)
        monkeypatch.setattr(SsmGraphModel, "forward", tracked_forward)
        monkeypatch.setattr(train, "collect_outputs", tracked_collect)
        model = tiny_model()
        train_ds, val_ds = tiny_data()
        cfg = OptimConfig(lr=1e-3, epochs=3, warmup_epochs=0, batch_size=8, patience=20)
        gc.disable()
        try:
            train.train_loop(model, train_ds, val_ds, cfg, seed=0)
        finally:
            gc.enable()
        # 3 epochs of 2 training batches, then 1 validation batch
        assert len(at_forward) == 9 and len(at_collect) == 3
        return at_forward, at_collect

    def test_step_graph_released_before_next_forward_and_validation(self, tracked_run):
        at_forward, at_collect = tracked_run
        assert [losses for losses, _ in at_forward + at_collect] == [0] * 12

    def test_validation_outputs_released_before_next_epoch(self, tracked_run):
        at_forward, at_collect = tracked_run
        assert [outputs for _, outputs in at_forward + at_collect] == [0] * 12
